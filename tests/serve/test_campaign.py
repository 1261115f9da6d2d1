"""The serve campaign and its CLI contract."""

import argparse
import json

import pytest

from repro.serve.campaign import (
    run_serve_case,
    run_serve_command,
    serve_case_config,
)
from repro.utils.errors import ConfigurationError


def _args(tmp_path, **over):
    kw = dict(
        case=("iso2d",), shots=2, workers=(2,), gpus=1, nt=8, faults=None,
        seed=7, capacity=64, policy="reject", no_resubmit=False,
        quarantine_after=3, format="text",
        out=str(tmp_path / "BENCH_service.json"),
        ledger=str(tmp_path / "ledger.jsonl"), no_ledger=False,
    )
    kw.update(over)
    return argparse.Namespace(**kw)


class TestConfig:
    def test_serve_case_config_shapes(self):
        cfg = serve_case_config("iso2d", nt=8)
        assert cfg.physics == "isotropic"
        assert cfg.nt == 8
        assert tuple(cfg.model.grid.shape) == (64, 64)

    def test_rejects_3d_cases(self):
        with pytest.raises(ConfigurationError):
            serve_case_config("iso3d")


class TestCase:
    def test_case_verified_across_worker_counts(self):
        doc = run_serve_case(
            "iso2d", workers=(1, 2), shots=2, nt=8, ledger_path=None
        )
        assert doc["verified"]
        assert set(doc["points"]) == {"1", "2"}
        for p in doc["points"].values():
            m = p["metrics"]
            assert p["completed_shots"] == [0, 1]
            assert m["completed_fraction"] == 1.0
            assert m["verified"] == 1.0
            assert m["shots_per_hour"] > 0
            assert m["queue_p50_s"] <= m["queue_p95_s"] <= m["queue_max_s"]
            # the default duplicate submission exercises the cache
            assert m["cache_hits"] >= 1.0


class TestCommand:
    def test_dead_rank_run_writes_bench_and_ledger(self, tmp_path, capsys):
        args = _args(tmp_path, faults="mpi-rank-dead@x1")
        rc = run_serve_command(args)
        assert rc == 0
        out = capsys.readouterr().out
        assert "verified bitwise" in out
        doc = json.loads((tmp_path / "BENCH_service.json").read_text())
        assert doc["verified"]
        # the alias spelling normalises to the canonical spec string
        assert doc["faults"] == "rank-dead"
        point = doc["cases"]["iso2d"]["points"]["2"]
        assert point["metrics"]["requeued"] >= 1.0
        assert point["metrics"]["completed_fraction"] == 1.0
        # one ledger record per (case, workers) point
        lines = (tmp_path / "ledger.jsonl").read_text().splitlines()
        recs = [json.loads(x) for x in lines]
        assert [r["command"] for r in recs] == ["serve"]
        assert recs[0]["metrics"]["verified"] == 1.0

    def test_json_format_round_trips(self, tmp_path, capsys):
        args = _args(tmp_path, format="json", no_ledger=True)
        assert run_serve_command(args) == 0
        printed = json.loads(
            capsys.readouterr().out.rsplit("wrote", 1)[0]
        )
        on_disk = json.loads((tmp_path / "BENCH_service.json").read_text())
        assert printed == on_disk
