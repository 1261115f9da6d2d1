"""Scaling observatory: points, shape assertions, the scale CLI."""

import json

import pytest

from repro.__main__ import counts
from repro.observe.ledger import RunLedger
from repro.observe.scaling import (
    SCALE_SHAPES,
    ScaleCaseResult,
    ScalePoint,
    assert_scaling_shape,
    run_scale_case,
    run_scale_point,
)
from repro.utils.errors import ConfigurationError


def point(ranks, makespan, comm, compute=None, speedup=None, efficiency=None):
    return ScalePoint(
        ranks=ranks, makespan_s=makespan, step_seconds=makespan / 8,
        compute_s=compute if compute is not None else makespan * 0.5,
        transfer_s=0.1, comm_s=comm,
        comm_overlap_fraction=0.0, transfer_overlap_fraction=0.0,
        critical_chain_s=makespan * 0.6, kernel_launches=100,
        speedup=speedup, efficiency=efficiency,
    )


class TestParseRanks:
    def test_parses_list(self):
        assert counts("1,2,4,8", "--ranks") == (1, 2, 4, 8)

    def test_rejects_garbage(self):
        with pytest.raises(ConfigurationError):
            counts("1,two", "--ranks")
        with pytest.raises(ConfigurationError):
            counts("0,2", "--ranks")


class TestShapeAssertions:
    def test_clean_strong_scaling_passes(self):
        result = ScaleCaseResult(
            case="iso2d", mode="rtm", nt=8, shape=SCALE_SHAPES[2],
            points=[
                point(1, 8.0, 0.0),
                point(2, 5.0, 0.1, speedup=1.6, efficiency=0.8),
                point(4, 3.0, 0.2, speedup=2.7, efficiency=0.67),
            ],
        )
        assert assert_scaling_shape(result) == []
        assert result.shape_ok

    def test_comm_at_one_rank_flagged(self):
        result = ScaleCaseResult(
            case="iso2d", mode="rtm", nt=8, shape=SCALE_SHAPES[2],
            points=[point(1, 8.0, 0.5)],
        )
        assert any("ranks=1 shows comm" in v for v in assert_scaling_shape(result))

    def test_makespan_growth_flagged(self):
        result = ScaleCaseResult(
            case="iso2d", mode="rtm", nt=8, shape=SCALE_SHAPES[2],
            points=[
                point(1, 5.0, 0.0),
                point(2, 9.0, 0.1, speedup=0.55, efficiency=0.28),
            ],
        )
        violations = assert_scaling_shape(result)
        assert any("makespan grew" in v for v in violations)

    def test_missing_comm_at_multirank_flagged(self):
        result = ScaleCaseResult(
            case="iso2d", mode="rtm", nt=8, shape=SCALE_SHAPES[2],
            points=[
                point(1, 8.0, 0.0),
                point(2, 5.0, 0.0, speedup=1.6, efficiency=0.8),
            ],
        )
        assert any("no comm" in v for v in assert_scaling_shape(result))

    def test_super_linear_efficiency_flagged(self):
        result = ScaleCaseResult(
            case="iso2d", mode="rtm", nt=8, shape=SCALE_SHAPES[2],
            points=[
                point(1, 8.0, 0.0),
                point(2, 2.0, 0.1, speedup=4.0, efficiency=2.0),
            ],
        )
        assert any("super-linear" in v for v in assert_scaling_shape(result))


class TestExecutedPoints:
    def test_point_reduces_executed_pipeline(self):
        pt, reduction = run_scale_point("iso2d", 2, mode="modeling", nt=4)
        assert pt.ranks == 2
        assert pt.comm_s > 0.0
        assert pt.makespan_s > 0.0
        assert reduction.nranks == 2
        assert pt.kernel_launches == sum(
            k.count for k in reduction.kernels.values()
        )

    def test_case_sweep_appends_ledger(self, tmp_path):
        path = str(tmp_path / "ledger.jsonl")
        result = run_scale_case("iso2d", ranks=(1, 2), mode="modeling",
                                nt=4, ledger_path=path)
        assert result.shape_ok, result.violations
        recs = RunLedger(path).records(command="scale")
        assert [r.ranks for r in recs] == [1, 2]
        assert "speedup" in recs[1].metrics
        assert recs[1].counters["multigpu.exchanges"] == 4.0

    def test_rejects_bad_mode(self):
        with pytest.raises(ConfigurationError):
            run_scale_point("iso2d", 1, mode="sideways")


class TestScaleCommand:
    def test_cli_writes_artifact_and_ledger(self, tmp_path, capsys):
        from repro.__main__ import main

        out = str(tmp_path / "BENCH_scaling.json")
        ledger = str(tmp_path / "ledger.jsonl")
        rc = main(["scale", "iso2d", "--ranks", "1,2", "--mode", "modeling",
                   "--nt", "4", "--out", out, "--ledger", ledger])
        assert rc == 0
        doc = json.load(open(out))
        assert doc["shape_ok"]
        case = doc["cases"]["iso2d"]
        assert [p["ranks"] for p in case["points"]] == [1, 2]
        assert case["points"][1]["comm_s"] > 0.0
        assert len(case["points"][1]["per_rank"]) == 2
        assert len(RunLedger(ledger).records()) == 2
        assert "shape OK" in capsys.readouterr().out

    def test_cli_no_ledger(self, tmp_path, capsys):
        from repro.__main__ import main

        out = str(tmp_path / "BENCH_scaling.json")
        rc = main(["scale", "iso2d", "--ranks", "1", "--mode", "modeling",
                   "--nt", "4", "--out", out, "--no-ledger"])
        assert rc == 0
        out_text = capsys.readouterr().out
        assert not any(line.startswith("ledger ")
                       for line in out_text.splitlines())
