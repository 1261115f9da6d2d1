import numpy as np
import pytest

from repro.core import SnapshotStore, default_snap_period
from repro.core.imaging import (
    cross_correlation_update,
    illumination_update,
    laplacian_filter,
    mute_shallow,
    normalize_image,
)
from repro.utils.errors import ConfigurationError


class TestSnapPeriod:
    def test_finer_dt_longer_period(self):
        assert default_snap_period(0.0005, 10.0) > default_snap_period(0.002, 10.0)

    def test_higher_frequency_shorter_period(self):
        assert default_snap_period(0.001, 30.0) <= default_snap_period(0.001, 10.0)

    def test_at_least_one(self):
        assert default_snap_period(0.1, 50.0) == 1

    def test_invalid(self):
        with pytest.raises(ConfigurationError):
            default_snap_period(-0.1, 10.0)


class TestSnapshotStore:
    def test_save_load_roundtrip(self, rng):
        s = SnapshotStore(3)
        f = rng.standard_normal((16, 16)).astype(np.float32)
        s.save(2, f)
        np.testing.assert_array_equal(s.load(2), f)

    def test_save_copies(self, rng):
        s = SnapshotStore(3)
        f = rng.standard_normal((8, 8)).astype(np.float32)
        s.save(0, f)
        f[:] = 0
        assert float(np.abs(s.load(0)).max()) > 0

    def test_decimation(self, rng):
        s = SnapshotStore(3, decimate=4)
        f = rng.standard_normal((16, 16)).astype(np.float32)
        s.save(0, f)
        assert s.load(0).shape == (4, 4)
        np.testing.assert_array_equal(s.load(0), f[::4, ::4])

    def test_missing_step_raises(self):
        with pytest.raises(ConfigurationError):
            SnapshotStore(3).load(7)

    def test_frames_in_time_order(self, rng):
        s = SnapshotStore(1)
        for n in (4, 0, 2):
            s.save(n, np.full((4, 4), float(n), dtype=np.float32))
        assert s.steps == [0, 2, 4]
        assert [float(f[0, 0]) for f in s.frames()] == [0.0, 2.0, 4.0]

    def test_nbytes_and_clear(self, rng):
        s = SnapshotStore(1)
        s.save(0, np.zeros((10, 10), dtype=np.float32))
        assert s.nbytes() == 400
        s.clear()
        assert s.count == 0

    def test_invalid_period(self):
        with pytest.raises(ConfigurationError):
            SnapshotStore(0)


class TestImagingCondition:
    def test_cross_correlation_accumulates(self):
        img = np.zeros((4, 4), dtype=np.float32)
        s = np.full((4, 4), 2.0, dtype=np.float32)
        r = np.full((4, 4), 3.0, dtype=np.float32)
        cross_correlation_update(img, s, r)
        cross_correlation_update(img, s, r)
        np.testing.assert_allclose(img, 12.0)

    def test_anticorrelated_fields_negative(self):
        img = np.zeros((4, 4), dtype=np.float32)
        s = np.ones((4, 4), dtype=np.float32)
        cross_correlation_update(img, s, -s)
        assert np.all(img < 0)

    def test_shape_mismatch(self):
        with pytest.raises(ConfigurationError):
            cross_correlation_update(
                np.zeros((4, 4), np.float32),
                np.zeros((4, 4), np.float32),
                np.zeros((5, 5), np.float32),
            )

    def test_illumination_is_energy(self):
        il = np.zeros((4, 4), dtype=np.float32)
        s = np.full((4, 4), -3.0, dtype=np.float32)
        illumination_update(il, s)
        np.testing.assert_allclose(il, 9.0)


class TestImagePostprocessing:
    def test_normalize_unit_peak(self, rng):
        img = rng.standard_normal((16, 16)).astype(np.float32) * 7.0
        out = normalize_image(img)
        assert float(np.abs(out).max()) == pytest.approx(1.0, rel=1e-5)

    def test_normalize_with_illumination_compensates(self):
        img = np.array([[1.0, 4.0]], dtype=np.float32)
        illum = np.array([[1.0, 4.0]], dtype=np.float32)
        out = normalize_image(img, illum)
        # bright (well-illuminated) region is divided down
        assert out[0, 0] == pytest.approx(out[0, 1], rel=0.05)

    def test_normalize_zero_image(self):
        out = normalize_image(np.zeros((4, 4), dtype=np.float32))
        np.testing.assert_array_equal(out, 0.0)

    def test_mute_shallow(self):
        img = np.ones((10, 10), dtype=np.float32)
        out = mute_shallow(img, 3)
        assert np.all(out[:3] == 0)
        assert np.all(out[3:] == 1)
        assert np.all(img == 1)  # original untouched

    def test_mute_invalid(self):
        with pytest.raises(ConfigurationError):
            mute_shallow(np.ones((4, 4), dtype=np.float32), -1)

    def test_laplacian_filter_zeroes_constant(self):
        img = np.full((20, 20), 5.0, dtype=np.float32)
        out = laplacian_filter(img, (10.0, 10.0))
        np.testing.assert_allclose(out[2:-2, 2:-2], 0.0, atol=1e-5)
