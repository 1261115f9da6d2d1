"""Chaos harness: outcomes, campaign determinism, CLI contract, tracing."""

import argparse
import json

import pytest

from repro.resilience.chaos import (
    run_chaos_campaign,
    run_chaos_case,
    run_chaos_case_multigpu,
    run_chaos_command,
)
from repro.resilience.injector import FAULT_TRACK, TRACE_PROCESS
from repro.resilience.recovery import RECOVERY_TRACK
from repro.trace.tracer import Tracer
from repro.utils.errors import ConfigurationError


def _args(tmp_path, **over):
    """A ``chaos`` command line; its run ledger goes under ``tmp_path``."""
    kw = dict(
        case="ac2d", seed=7, faults=None, ranks=1, mode="modeling",
        nt=8, format="text", out=None, trace=None,
        ledger=str(tmp_path / "ledger.jsonl"), no_ledger=False,
    )
    kw.update(over)
    return argparse.Namespace(**kw)


class TestCase:
    def test_explicit_fault_recovers(self):
        rows = run_chaos_case(
            "ac2d", mode="modeling", nt=8, faults="pcie-transient@3x2"
        )
        assert len(rows) == 1
        o = rows[0]
        assert o.kind == "pcie-transient"
        assert o.injected == 2
        assert o.detected and o.recovered and o.equivalent and o.ok
        assert o.retries >= 1
        assert o.events  # human-readable fault labels recorded

    def test_seeded_kinds_subset(self):
        rows = run_chaos_case(
            "ac2d", mode="rtm", seed=3, nt=8, kinds=("ecc", "oom")
        )
        assert [o.kind for o in rows] == ["ecc", "oom"]
        assert all(o.ok for o in rows)
        assert any(o.restarts for o in rows)   # ecc forces a restart
        assert any(o.degraded for o in rows)   # oom forces a re-plan

    def test_rejects_bad_mode(self):
        with pytest.raises(ConfigurationError):
            run_chaos_case("ac2d", mode="sideways")

    def test_multigpu_message_fault_recovers(self):
        rows = run_chaos_case_multigpu(
            "ac2d", mode="modeling", ranks=2, nt=8, faults="mpi-drop@2"
        )
        assert len(rows) == 1 and rows[0].ok


class TestCampaignDeterminism:
    def test_same_seed_same_json(self):
        kw = dict(cases=("ac2d",), modes=("modeling",), seed=3, nt=8)
        a = run_chaos_campaign(**kw)
        b = run_chaos_campaign(**kw)
        assert a.to_json() == b.to_json()
        assert a.all_recovered()

    def test_seed_moves_injection_points(self):
        a = run_chaos_campaign(cases=("ac2d",), modes=("modeling",), seed=3, nt=8)
        b = run_chaos_campaign(cases=("ac2d",), modes=("modeling",), seed=4, nt=8)
        assert [o.spec for o in a.outcomes] != [o.spec for o in b.outcomes]

    def test_json_shape(self):
        report = run_chaos_campaign(
            cases=("ac2d",), modes=("modeling",), seed=3, nt=8,
            faults="ecc@5",
        )
        doc = json.loads(report.to_json())
        assert doc["summary"]["runs"] == 1
        assert doc["summary"]["unrecovered"] == 0
        assert doc["outcomes"][0]["kind"] == "ecc"


class TestCli:
    def test_recovered_run_exits_zero(self, tmp_path, capsys):
        rc = run_chaos_command(_args(tmp_path, faults="kernel-launch@9"))
        out = capsys.readouterr().out
        assert rc == 0
        assert "ALL RECOVERED" in out

    def test_json_format_and_out_file(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        rc = run_chaos_command(
            _args(tmp_path, faults="ecc@5", format="json", out=str(path))
        )
        assert rc == 0
        doc = json.loads(path.read_text())
        assert doc["summary"]["unrecovered"] == 0
        assert str(path) in capsys.readouterr().out

    def test_trace_export(self, tmp_path, capsys):
        path = tmp_path / "chaos-trace.json"
        rc = run_chaos_command(
            _args(tmp_path, faults="pcie-transient@3", trace=str(path))
        )
        assert rc == 0
        doc = json.loads(path.read_text())
        assert any(
            "fault:" in ev.get("name", "") for ev in doc["traceEvents"]
        )


class TestRecoverySpans:
    def test_faults_and_recovery_land_on_resilience_process(self):
        tracer = Tracer()
        run_chaos_case(
            "ac2d", mode="modeling", nt=8, faults="pcie-transient@3",
            tracer=tracer,
        )
        # the campaign's one fault run is row 0 of its report
        process = f"run0:{TRACE_PROCESS}"
        faults = [
            e for e in tracer.events
            if e.process == process and e.track == FAULT_TRACK
        ]
        recovery = [
            e for e in tracer.events
            if e.process == process and e.track == RECOVERY_TRACK
        ]
        assert faults and faults[0].name == "fault:pcie-transient"
        assert any(e.name.startswith("retry:") for e in recovery)

    def test_multi_rank_events_are_reproducible(self):
        """The decomposed run's recovery spans and fault instants sit on the
        node's simulated timeline, across a re-decomposition too: two
        identical runs record equal event lists, timestamps included."""
        def events():
            tracer = Tracer()
            run_chaos_case_multigpu(
                "iso2d", mode="modeling", ranks=3, seed=5,
                faults="mpi-rank-dead@16:0,pcie-transient@20:1", tracer=tracer,
            )
            return tracer.events

        first = events()
        names = {e.name for e in first}
        assert {"redecompose", "retry:exchange", "fault:rank-dead"} <= names
        assert first == events()


class TestRunTimelines:
    def test_each_fault_run_keeps_its_own_clock(self):
        """Each fault run records on a tracer of its own, absorbed under
        ``run<k>:`` with ``k`` its report row, so its forward steps advance
        in time. (One tracer shared by every run binds only the first
        run's clock: every later run's steps sat at the time it stopped.)"""
        tracer = Tracer()
        report = run_chaos_campaign(
            cases=("iso2d",), modes=("modeling", "rtm"), seed=5, nt=8,
            tracer=tracer,
        )
        starts: dict[str, list[float]] = {}
        for e in tracer.events:
            if e.name == "forward_step":
                starts.setdefault(e.process, []).append(e.start)
        rows = len(report.outcomes)
        assert rows > 2
        assert sorted(starts) == sorted(f"run{k}:host" for k in range(rows))
        for process, ts in starts.items():
            assert len(ts) > 1 and all(a < b for a, b in zip(ts, ts[1:])), process

    @pytest.mark.parametrize("ranks", [1, 2])
    def test_identical_runs_write_identical_files(self, tmp_path, capsys, ranks):
        paths = [tmp_path / "first.json", tmp_path / "second.json"]
        for path in paths:
            run_chaos_command(_args(
                tmp_path, case="iso2d", seed=5, ranks=ranks, trace=str(path),
                no_ledger=True,
            ))
        assert paths[0].read_bytes() == paths[1].read_bytes()
