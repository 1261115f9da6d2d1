import json

import pytest

from repro.bench import (
    achieved_bandwidth_sweep,
    grid_size_sweep,
    snapshot_period_sweep,
)
from repro.utils.errors import ConfigurationError


class TestGridSizeSweep:
    def test_speedup_grows_with_size(self):
        """The paper's utilization observation, generalised: bigger domains
        use the GPU better, so the speedup curve rises."""
        pts = grid_size_sweep(sizes=(128, 512, 2048), nt=50)
        speedups = [p.speedup for p in pts]
        assert speedups == sorted(speedups)

    def test_oom_sizes_skipped(self):
        # elastic 3-D at large edges exceeds the K40 -> points drop out
        pts = grid_size_sweep(
            physics="elastic", sizes=(64, 128, 640), ndim=3, nt=5,
        )
        assert all(p.x <= 512 for p in pts)

    def test_bad_ndim(self):
        with pytest.raises(ConfigurationError):
            grid_size_sweep(ndim=4)


class TestBandwidthSweep:
    def test_bandwidth_saturates(self):
        bw = achieved_bandwidth_sweep(sizes=(64, 512, 4096))
        assert bw[64] < bw[512] <= bw[4096] * 1.05
        # saturation: the last doubling buys little
        assert bw[4096] < 1.3 * bw[512]

    def test_3d_main_kernel_beats_2d_utilization(self):
        bw2 = achieved_bandwidth_sweep(sizes=(1024,), ndim=2)[1024]
        bw3 = achieved_bandwidth_sweep(sizes=(256,), ndim=3)[256]
        assert bw3 > bw2


class TestSnapshotPeriodSweep:
    def test_more_snapshots_cost_more(self):
        res = snapshot_period_sweep(shape=(512, 512), periods=(2, 10, 50), nt=100)
        assert res[2] > res[10] > res[50]


class TestJsonExport:
    def test_results_json_roundtrip(self, paper_results):
        # must be JSON-serialisable and carry the headline fields
        text = json.dumps(paper_results)
        back = json.loads(text)
        assert back["fig10_best_maxregcount"] == 64
        assert back["table3_modeling"]["ELASTIC 3D"]["ibm_pgi"] == {"failed": "oom"}
        assert back["fig12_fission_speedup"]["Tesla M2090"] > 2.0
        assert abs(back["fig12_fission_speedup"]["Tesla K40"] - 1.0) < 0.4
