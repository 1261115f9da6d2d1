"""End-to-end instrumentation: acc runtime, device, pipeline, mpisim, CLI."""

import json

import numpy as np
import pytest

from repro.__main__ import main
from repro.acc import PGI_14_6
from repro.core import GPUOptions, RTMConfig
from repro.core.rtm import run_rtm
from repro.grid.decomposition import CartesianDecomposition
from repro.grid.grid import Grid
from repro.model import layered_model
from repro.mpisim.comm import SimMPI
from repro.mpisim.halo import HaloExchanger
from repro.trace import Tracer, validate_perfetto
from repro.core.cases import parse_case
from repro.trace.cli import trace_case
from repro.utils.errors import ConfigurationError


def _small_rtm(tracer):
    m = layered_model((64, 64), spacing=10.0, interfaces=[320.0],
                      velocities=[1500.0, 2600.0], vs_ratio=0.5)
    cfg = RTMConfig(physics="isotropic", model=m, nt=16, peak_freq=12.0,
                    boundary_width=8, snap_period=4)
    return run_rtm(cfg, gpu_options=GPUOptions(compiler=PGI_14_6),
                   tracer=tracer)


class TestRuntimeInstrumentation:
    def test_all_layers_emit(self):
        tracer = Tracer()
        res = _small_rtm(tracer)
        cats = {e.cat for e in tracer.events}
        assert {"acc", "kernel", "phase"} <= cats
        assert {"h2d", "d2h"} <= cats
        # the tracer clock was rebound to the simulated device timeline
        assert res.gpu is not None
        assert tracer.now() == pytest.approx(res.gpu.total)

    def test_spans_use_simulated_seconds(self):
        tracer = Tracer()
        res = _small_rtm(tracer)
        last = max(e.end for e in tracer.events)
        assert last <= res.gpu.total + 1e-9

    def test_device_metrics_populated(self):
        tracer = Tracer()
        _small_rtm(tracer)
        snap = tracer.metrics.snapshot()
        assert snap["counters"]["gpu.kernel_launches"] > 0
        assert snap["counters"]["gpu.h2d_bytes"] > 0
        assert snap["counters"]["pipeline.snapshots"] > 0
        assert snap["histograms"]["gpu.occupancy"]["count"] > 0

    def test_gpu_times_categories_filled(self):
        """Satellite fix: per-category clock charges are surfaced, not
        write-only."""
        res = _small_rtm(Tracer())
        cats = res.gpu.categories
        assert cats["kernel"] == pytest.approx(res.gpu.kernel)
        assert cats["h2d"] == pytest.approx(res.gpu.h2d)
        assert cats["d2h"] == pytest.approx(res.gpu.d2h)
        assert res.gpu.alloc > 0
        assert res.gpu.other >= 0

    def test_untraced_run_matches_traced_run(self):
        """Instrumentation must not perturb the modelled numbers."""
        plain = _small_rtm(None)
        traced = _small_rtm(Tracer())
        assert traced.gpu.total == pytest.approx(plain.gpu.total)
        assert traced.gpu.kernel == pytest.approx(plain.gpu.kernel)
        np.testing.assert_allclose(traced.image, plain.image)


class TestHaloInstrumentation:
    def test_exchange_emits_spans_and_counters(self):
        g = Grid((32, 32), 10.0)
        d = CartesianDecomposition(g, (2, 1), halo=4)
        tracer = Tracer(clock=lambda: 0.0)
        ex = HaloExchanger(d, SimMPI(2), tracer=tracer)
        field = np.arange(32 * 32, dtype=np.float32).reshape(32, 32)
        locals_ = [d.subdomain(r).scatter(field) for r in range(2)]
        ex.exchange([{"f": a} for a in locals_])
        recvs = tracer.find("halo.recv")
        assert len(recvs) == 2  # one per rank along the split axis
        assert all(e.cat == "halo" and e.duration > 0 for e in recvs)
        assert {e.track for e in recvs} == {"rank:0", "rank:1"}
        snap = tracer.metrics.snapshot()
        assert snap["counters"]["halo.messages"] == 2
        assert snap["counters"]["halo.bytes"] > 0
        assert snap["counters"]["mpi.messages"] == 2

    def test_exchange_untraced_unchanged(self):
        g = Grid((32, 32), 10.0)
        d = CartesianDecomposition(g, (2, 1), halo=4)
        field = np.arange(32 * 32, dtype=np.float32).reshape(32, 32)
        a = [d.subdomain(r).scatter(field) for r in range(2)]
        b = [x.copy() for x in a]
        HaloExchanger(d, SimMPI(2)).exchange([{"f": x} for x in a])
        HaloExchanger(d, SimMPI(2), tracer=Tracer(clock=lambda: 0.0)).exchange(
            [{"f": x} for x in b]
        )
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)


class TestCaseParsing:
    @pytest.mark.parametrize("text,expect", [
        ("iso2d", ("isotropic", 2)),
        ("ISO3D", ("isotropic", 3)),
        ("acoustic2d", ("acoustic", 2)),
        ("ac3d", ("acoustic", 3)),
        ("el-2d", ("elastic", 2)),
        ("elastic_3d", ("elastic", 3)),
    ])
    def test_aliases(self, text, expect):
        assert parse_case(text) == expect

    @pytest.mark.parametrize("bad", ["iso", "2d", "vti2d", "iso4d", ""])
    def test_rejects_unknown(self, bad):
        with pytest.raises(ConfigurationError):
            parse_case(bad)


class TestTraceCli:
    def test_golden_iso2d(self, tmp_path, capsys):
        """``python -m repro trace iso2d`` writes a Perfetto-loadable trace
        containing spans from every instrumented layer."""
        out = tmp_path / "trace.json"
        rc = main(["trace", "iso2d", "--nt", "12", "--out", str(out),
                   "--ledger", str(tmp_path / "ledger.jsonl")])
        assert rc == 0
        trace = json.loads(out.read_text())
        validate_perfetto(trace)
        cats = {e.get("cat") for e in trace["traceEvents"]
                if e.get("ph") in ("B", "i")}
        assert {"acc", "kernel", "phase"} <= cats
        assert cats & {"h2d", "d2h"}
        stdout = capsys.readouterr().out
        assert "Trace summary" in stdout
        assert str(out) in stdout

    def test_ranks_add_halo_track(self, tmp_path):
        out = tmp_path / "trace.json"
        rc = main(["trace", "iso2d", "--nt", "8", "--ranks", "2",
                   "--out", str(out),
                   "--ledger", str(tmp_path / "ledger.jsonl")])
        assert rc == 0
        trace = json.loads(out.read_text())
        validate_perfetto(trace)
        procs = {e["args"]["name"] for e in trace["traceEvents"]
                 if e.get("ph") == "M" and e.get("name") == "process_name"}
        assert "mpi" in procs
        assert trace["metrics"]["counters"]["halo.messages"] > 0

    def test_modeling_mode_and_jsonl(self, tmp_path):
        out = tmp_path / "t.json"
        jsonl = tmp_path / "t.jsonl"
        rc = main(["trace", "ac2d", "--mode", "modeling", "--nt", "8",
                   "--out", str(out), "--jsonl", str(jsonl),
                   "--ledger", str(tmp_path / "ledger.jsonl")])
        assert rc == 0
        validate_perfetto(json.loads(out.read_text()))
        lines = jsonl.read_text().strip().splitlines()
        assert all(json.loads(line) for line in lines)

    def test_trace_case_api(self):
        tracer, result = trace_case("el2d", mode="modeling", nt=6)
        assert result.gpu is not None
        assert tracer.find("trace.modeling")

    def test_harness_trace_flag(self, tmp_path, capsys):
        path = tmp_path / "h.json"
        rc = main(["sweep", "--nt", "2", "--trace", str(path)])
        assert rc == 0
        validate_perfetto(json.loads(path.read_text()))
