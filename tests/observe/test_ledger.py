"""Run ledger: append, read-back, grouping, robustness, fingerprints."""

import json
import math
import os

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.observe.ledger import (
    LEDGER_SCHEMA,
    LedgerRecord,
    RunLedger,
    ledger_path_from_args,
    observed_run,
    plan_fingerprint,
)
from repro.observe.runlog import count, emit
from repro.utils.errors import CompileError


def record(case="iso2d", ranks=1, command="trace", **metrics):
    return LedgerRecord(command=command, case=case, mode="rtm", ranks=ranks,
                        metrics=metrics or {"makespan_s": 1.0})


class TestRecord:
    def test_auto_identity(self):
        rec = record()
        assert len(rec.run_id) == 12
        assert rec.timestamp  # ISO stamp filled in
        assert rec.schema == LEDGER_SCHEMA

    def test_roundtrip(self):
        rec = record(makespan_s=0.5, comm_s=0.1)
        back = LedgerRecord.from_json(rec.to_json())
        assert back.group == rec.group
        assert back.metrics == rec.metrics
        assert back.run_id == rec.run_id

    def test_events_and_counters_roundtrip(self):
        rec = LedgerRecord("chaos", "el2d", "both", 2, {"unrecovered": 0.0})
        rec.log("recovery", action="retry")
        rec.count("recovery.actions")
        back = LedgerRecord.from_json(json.loads(json.dumps(rec.to_json())))
        assert back.group == ("chaos", "el2d", "both", 2)
        assert back.events == [{"kind": "recovery", "action": "retry"}]
        assert back.counters == {"recovery.actions": 1.0}


class TestLedgerFile:
    def test_append_creates_parent_and_reads_back(self, tmp_path):
        path = str(tmp_path / "nested" / "ledger.jsonl")
        ledger = RunLedger(path)
        ledger.append(record(makespan_s=1.0))
        ledger.append(record(makespan_s=2.0))
        recs = ledger.records()
        assert [r.metrics["makespan_s"] for r in recs] == [1.0, 2.0]

    def test_groups_and_filters(self, tmp_path):
        ledger = RunLedger(str(tmp_path / "ledger.jsonl"))
        ledger.append(record(case="iso2d", ranks=1))
        ledger.append(record(case="iso2d", ranks=2))
        ledger.append(record(case="ac3d", ranks=2, command="scale"))
        assert len(ledger.groups()) == 3
        assert len(ledger.records(command="scale")) == 1
        assert ledger.latest(case="iso2d").ranks == 2

    def test_unreadable_lines_become_warnings(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        good = record().to_json()
        path.write_text(
            json.dumps(good) + "\n"
            + "not json at all\n"
            + json.dumps({"schema": LEDGER_SCHEMA + 1, "command": "x",
                          "ranks": 1}) + "\n"
        )
        ledger = RunLedger(str(path))
        assert len(ledger.records()) == 1
        assert len(ledger.warnings) == 2

    def test_missing_file_is_empty(self, tmp_path):
        assert RunLedger(str(tmp_path / "absent.jsonl")).records() == []


#: any JSON value, NaN and the infinities included (``json`` reads and
#: writes them)
JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


@st.composite
def damaged_record(draw) -> dict:
    """A valid record's JSON with random values in its numeric and list
    fields: a whole field replaced, or one metric or counter."""
    doc = record(makespan_s=3.0, comm_s=1.0).to_json()
    doc["counters"] = {"steps": 8.0}
    fields = draw(st.lists(
        st.sampled_from(("metrics", "counters", "ranks", "events")),
        min_size=1, unique=True,
    ))
    for key in fields:
        if key in ("metrics", "counters") and draw(st.booleans()):
            name = draw(st.sampled_from(sorted(doc[key])) | st.text(max_size=4))
            doc[key][name] = draw(JSON)
        else:
            doc[key] = draw(JSON)
    return doc


class TestRandomDamage:
    """Random ledger damage through every ledger reader: each line is read
    with float metrics or skipped with a warning naming it, and
    ``report`` never raises."""

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(doc=damaged_record())
    def test_readers_fail_closed(self, tmp_path, doc):
        from repro.__main__ import main

        path = tmp_path / "ledger.jsonl"
        lines = [record(makespan_s=1.0).to_json(),
                 record(makespan_s=2.0).to_json(), doc]
        path.write_text("".join(json.dumps(d) + "\n" for d in lines))
        ledger = RunLedger(str(path))
        recs = ledger.records()
        if len(recs) == 3:
            assert ledger.warnings == []
            for rec in recs:
                values = [*rec.metrics.values(), *rec.counters.values()]
                assert all(type(v) is float for v in values)
                assert all(math.isfinite(v) for v in values)
                assert type(rec.ranks) is int
            checked = (0, 1)
        else:
            assert len(recs) == 2
            (warning,) = ledger.warnings
            assert warning.startswith(f"{path}:3: ")
            checked = (2,)
        assert main(["report", "--ledger", str(path)]) == 0
        assert main(["report", "--check", "--ledger", str(path)]) in checked


class TestAppendRun:
    def test_none_path_disables(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        with observed_run(None, "trace") as rec:
            rec.metrics = {"makespan_s": 1.0}
        assert list(tmp_path.iterdir()) == []

    def test_failed_run_appends_nothing(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        with pytest.raises(CompileError):
            with observed_run(str(path), "compile", "iso2d (rtm)", "rtm"):
                emit("phase", phase="forward")
                raise CompileError("refused")
        assert not path.exists()

    def test_appends_the_ambient_record(self, tmp_path):
        path = str(tmp_path / "ledger.jsonl")
        with observed_run(path, "scale", "ac2d", "rtm", 2) as rec:
            emit("run", op="rtm")
            count("multigpu.exchanges", 4)
            rec.metrics = {"makespan_s": 2.0}
        (back,) = RunLedger(path).records()
        assert back.to_json() == rec.to_json()
        assert back.group == ("scale", "ac2d", "rtm", 2)
        assert back.events == [{"kind": "run", "op": "rtm"}]
        assert back.counters == {"multigpu.exchanges": 4.0}

    def test_appends_with_plan_hash(self, tmp_path):
        from repro.optim.autotune import TuningPlan

        plan = TuningPlan(
            case="iso2d", mode="rtm", platform="CRAY XK6", compiler="pgi",
            maxregcount=None, async_kernels=None, kernels={},
            baseline_step_seconds=1.0, tuned_step_seconds=0.9,
        )
        path = str(tmp_path / "ledger.jsonl")
        with observed_run(path, "tune", "iso2d", "rtm") as rec:
            rec.metrics = {"improvement": 0.1}
            rec.plan_hash = plan_fingerprint(plan)
        assert RunLedger(path).latest().plan_hash == plan_fingerprint(plan)


class TestPlanFingerprint:
    def test_none_plan(self):
        assert plan_fingerprint(None) is None

    def test_stable_and_sensitive(self):
        from repro.optim.autotune import TuningPlan

        kw = dict(case="iso2d", mode="rtm", platform="p", compiler="c",
                  maxregcount=None, async_kernels=None, kernels={},
                  baseline_step_seconds=1.0, tuned_step_seconds=0.9)
        a, b = TuningPlan(**kw), TuningPlan(**kw)
        assert plan_fingerprint(a) == plan_fingerprint(b)
        assert len(plan_fingerprint(a)) == 12
        c = TuningPlan(**{**kw, "tuned_step_seconds": 0.8})
        assert plan_fingerprint(c) != plan_fingerprint(a)


class TestArgsResolution:
    def test_defaults(self):
        class Args:
            pass

        assert ledger_path_from_args(Args()) == os.path.join(
            ".repro", "ledger.jsonl"
        )

    def test_no_ledger_wins(self):
        class Args:
            ledger = "somewhere.jsonl"
            no_ledger = True

        assert ledger_path_from_args(Args()) is None

    def test_explicit_path(self):
        class Args:
            ledger = "elsewhere.jsonl"
            no_ledger = False

        assert ledger_path_from_args(Args()) == "elsewhere.jsonl"
