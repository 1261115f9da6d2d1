"""OpenACC present-table and data-directive semantics."""

import numpy as np
import pytest

from repro.acc import CompileFlags, Runtime, PGI_14_6
from repro.gpusim import Device, K40, M2090
from repro.utils.errors import DeviceOutOfMemoryError, PresentTableError
from repro.utils.units import GiB, MB


def rt(spec=K40, **kw):
    return Runtime(Device(spec), compiler=PGI_14_6, **kw)


def charged(r, kind):
    """Seconds the runtime's device clock has charged to ``kind``."""
    return r.device.clock.categories.get(kind, 0.0)


class TestEnterExitData:
    def test_enter_data_copyin_allocates_and_transfers(self):
        r = rt()
        r.enter_data(copyin={"u": 10 * MB})
        assert r.is_present("u")
        assert r.device.memory.holds("u")
        assert charged(r, "h2d") > 0

    def test_create_allocates_without_transfer(self):
        r = rt()
        r.enter_data(create={"tmp": 10 * MB})
        assert r.is_present("tmp")
        assert charged(r, "h2d") == 0

    def test_exit_data_delete_frees(self):
        r = rt()
        r.enter_data(copyin={"u": MB})
        r.exit_data(delete=["u"])
        assert not r.is_present("u")
        assert not r.device.memory.holds("u")

    def test_exit_data_copyout_transfers_back(self):
        r = rt()
        r.enter_data(copyin={"u": MB})
        r.exit_data(copyout=["u"])
        assert charged(r, "d2h") > 0
        assert not r.is_present("u")

    def test_exit_unknown_raises(self):
        with pytest.raises(PresentTableError):
            rt().exit_data(delete=["ghost"])

    def test_absent_error_lists_present_names(self):
        """Satellite: the present-table miss names what *is* resident and
        suggests the nearest match for likely typos."""
        r = rt()
        r.enter_data(copyin={"wf:u": MB, "wf:v": MB})
        with pytest.raises(PresentTableError) as ei:
            r.update_host("wf:w")
        msg = str(ei.value)
        assert "wf:u" in msg and "wf:v" in msg
        assert "did you mean" in msg

    def test_absent_error_on_empty_table(self):
        with pytest.raises(PresentTableError, match="present table is empty"):
            rt().update_device("u")

    def test_numpy_array_accepted(self):
        r = rt()
        a = np.zeros((64, 64), dtype=np.float32)
        r.enter_data(copyin={"u": a})
        assert r.present_entry("u").nbytes == a.nbytes

    def test_oom_on_fermi(self):
        r = rt(M2090)
        with pytest.raises(DeviceOutOfMemoryError):
            r.enter_data(copyin={"huge": 7 * GiB})


class TestRefcounting:
    def test_nested_attach_single_transfer(self):
        """Re-attaching present data must not re-transfer (OpenACC
        refcount semantics)."""
        r = rt()
        r.enter_data(copyin={"u": 10 * MB})
        t1 = charged(r, "h2d")
        r.enter_data(copyin={"u": 10 * MB})
        assert charged(r, "h2d") == t1
        assert r.present_entry("u").refcount == 2

    def test_detach_frees_only_at_zero(self):
        r = rt()
        r.enter_data(copyin={"u": MB})
        r.enter_data(copyin={"u": MB})
        r.exit_data(delete=["u"])
        assert r.is_present("u")
        r.exit_data(delete=["u"])
        assert not r.is_present("u")


class TestStructuredRegions:
    def test_data_region_lifecycle(self):
        r = rt()
        with r.data(copyin={"u": MB}, create={"tmp": MB}):
            assert r.is_present("u") and r.is_present("tmp")
        assert not r.is_present("u") and not r.is_present("tmp")

    def test_copy_clause_roundtrips(self):
        r = rt()
        with r.data(copy={"u": MB}):
            pass
        assert charged(r, "h2d") > 0
        assert charged(r, "d2h") > 0

    def test_copyout_clause_no_in_transfer(self):
        r = rt()
        with r.data(copyout={"u": MB}):
            h2d_inside = charged(r, "h2d")
        assert h2d_inside == 0
        assert charged(r, "d2h") > 0

    def test_present_clause_checks(self):
        r = rt()
        with pytest.raises(PresentTableError):
            with r.data(present=["u"]):
                pass

    def test_nested_regions(self):
        r = rt()
        with r.data(copyin={"u": MB}):
            with r.data(copyin={"u": MB}, present=["u"]):
                assert r.present_entry("u").refcount == 2
            assert r.is_present("u")
        assert not r.is_present("u")

    def test_region_cleans_up_on_exception(self):
        r = rt()
        with pytest.raises(RuntimeError):
            with r.data(copyin={"u": MB}):
                raise RuntimeError("boom")
        assert not r.is_present("u")

    def test_shutdown_check_detects_leaks(self):
        r = rt()
        r.enter_data(copyin={"u": MB})
        with pytest.raises(PresentTableError):
            r.shutdown_check()


class TestUpdateDirectives:
    def test_update_host_full(self):
        r = rt()
        r.enter_data(copyin={"u": 10 * MB})
        t = r.update_host("u")
        assert t > 0
        assert charged(r, "d2h") == pytest.approx(t)

    def test_update_device_partial_cheaper(self):
        """Ghost-node updates: partial transfers move less."""
        r = rt()
        r.enter_data(copyin={"u": 100 * MB})
        full = r.update_device("u")
        part = r.update_device("u", nbytes=MB, chunks=64)
        assert part < full

    def test_update_not_present_raises(self):
        with pytest.raises(PresentTableError):
            rt().update_host("nope")

    def test_update_beyond_extent_raises(self):
        r = rt()
        r.enter_data(copyin={"u": MB})
        with pytest.raises(PresentTableError):
            r.update_host("u", nbytes=2 * MB)

    def test_present_bytes(self):
        r = rt()
        r.enter_data(copyin={"u": MB, "v": 2 * MB})
        assert r.present_bytes() == 3 * MB


class TestFlags:
    def test_pin_flag_sets_device(self):
        r = rt(flags=CompileFlags(pin=True))
        assert r.device.pinned_host
        r2 = rt(flags=CompileFlags(pin=False))
        assert not r2.device.pinned_host

    def test_toolkit_follows_compiler(self):
        from repro.acc import PGI_14_3, CRAY_8_2_6
        from repro.gpusim.specs import CUDA_5_0, CUDA_5_5

        assert Runtime(Device(K40), compiler=PGI_14_3).device.toolkit is CUDA_5_0
        assert Runtime(Device(K40), compiler=CRAY_8_2_6).device.toolkit is CUDA_5_5
