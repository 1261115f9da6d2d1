"""Ledger regression report: direction policy, windows, the CI gate."""

import json

import pytest

from repro.observe.ledger import LedgerRecord, RunLedger
from repro.observe.report import (
    compare_metric,
    diff_ledger,
    run_report_command,
)


def put(ledger, case="iso2d", ranks=2, command="scale", **metrics):
    ledger.append(LedgerRecord(command=command, case=case, mode="rtm",
                               ranks=ranks, metrics=metrics))


class TestCompareMetric:
    def test_lower_is_better_regresses_on_growth(self):
        d = compare_metric("makespan_s", 1.3, 1.0, threshold=0.10)
        assert d.regression and d.delta == pytest.approx(0.3)

    def test_lower_is_better_ok_within_threshold(self):
        assert not compare_metric("makespan_s", 1.05, 1.0, 0.10).regression

    def test_higher_is_better_regresses_on_shrink(self):
        d = compare_metric("comm_overlap_fraction", 0.3, 0.6, 0.10)
        assert d.regression and d.direction == "higher"

    def test_improvement_is_not_regression(self):
        assert not compare_metric("makespan_s", 0.5, 1.0, 0.10).regression
        assert not compare_metric("speedup", 2.0, 1.5, 0.10).regression

    def test_fraction_zero_baseline_absolute_points(self):
        d = compare_metric("comm_overlap_fraction", 0.05, 0.0, 0.10)
        assert d.absolute and not d.regression
        d = compare_metric("comm_overlap_fraction", 0.0, 0.0, 0.10)
        assert not d.regression

    def test_unknown_metric_is_info(self):
        d = compare_metric("kernel_launches", 99.0, 10.0, 0.10)
        assert d.direction == "info" and not d.regression


class TestDiffLedger:
    def test_single_run_groups_are_new(self, tmp_path):
        ledger = RunLedger(str(tmp_path / "l.jsonl"))
        put(ledger, makespan_s=1.0)
        report = diff_ledger(ledger)
        assert report.groups[0].status == "new"
        assert report.ok

    def test_median_window_resists_outlier(self, tmp_path):
        ledger = RunLedger(str(tmp_path / "l.jsonl"))
        for v in (1.0, 1.0, 9.0, 1.0, 1.0):  # one poisoned run in history
            put(ledger, makespan_s=v)
        put(ledger, makespan_s=1.05)  # latest: fine vs median 1.0
        report = diff_ledger(ledger, threshold=0.10, window=5)
        assert report.groups[0].status == "ok"

    def test_synthetic_slowdown_flags_regression(self, tmp_path):
        ledger = RunLedger(str(tmp_path / "l.jsonl"))
        put(ledger, makespan_s=1.0, comm_overlap_fraction=0.5)
        put(ledger, makespan_s=2.0, comm_overlap_fraction=0.5)
        report = diff_ledger(ledger)
        group = report.groups[0]
        assert group.status == "regression"
        assert [d.metric for d in group.regressions] == ["makespan_s"]
        assert not report.ok

    def test_groups_do_not_cross_contaminate(self, tmp_path):
        ledger = RunLedger(str(tmp_path / "l.jsonl"))
        put(ledger, ranks=1, makespan_s=1.0)
        put(ledger, ranks=2, makespan_s=99.0)  # different group, first run
        put(ledger, ranks=1, makespan_s=1.0)
        report = diff_ledger(ledger)
        assert all(g.status in ("ok", "new") for g in report.groups)

    def test_command_filter(self, tmp_path):
        ledger = RunLedger(str(tmp_path / "l.jsonl"))
        put(ledger, command="scale", makespan_s=1.0)
        put(ledger, command="tune", makespan_s=1.0)
        report = diff_ledger(ledger, command="tune")
        assert [g.command for g in report.groups] == ["tune"]


class Args:
    ledger = None
    threshold = 10.0
    window = 5
    command_filter = None
    format = "text"
    check = False


class TestReportCommand:
    def test_check_exits_nonzero_on_regression(self, tmp_path, capsys):
        path = str(tmp_path / "l.jsonl")
        ledger = RunLedger(path)
        put(ledger, makespan_s=1.0)
        put(ledger, makespan_s=2.0)
        args = Args()
        args.ledger = path
        assert run_report_command(args) == 0  # report-only never gates
        args.check = True
        assert run_report_command(args) == 1
        out = capsys.readouterr().out
        assert "REGRESSION" in out and "makespan_s" in out

    def test_check_passes_clean_ledger(self, tmp_path, capsys):
        path = str(tmp_path / "l.jsonl")
        ledger = RunLedger(path)
        put(ledger, makespan_s=1.0)
        put(ledger, makespan_s=1.01)
        args = Args()
        args.ledger = path
        args.check = True
        assert run_report_command(args) == 0
        assert "OK" in capsys.readouterr().out

    def test_json_format(self, tmp_path, capsys):
        import json

        path = str(tmp_path / "l.jsonl")
        put(RunLedger(path), makespan_s=1.0)
        args = Args()
        args.ledger = path
        args.format = "json"
        assert run_report_command(args) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] and doc["groups"][0]["status"] == "new"


class TestCheckFailsClosed:
    """``report --check`` gates only history it could read: a missing
    ledger or a line the reader skips exits 2, in one line naming it."""

    def test_torn_last_line(self, tmp_path, capsys):
        from repro.__main__ import main

        path = tmp_path / "l.jsonl"
        ledger = RunLedger(str(path))
        put(ledger, makespan_s=1.0)
        put(ledger, makespan_s=1.0)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"schema": 1, "command": "scale", "metr')
        assert main(["report", "--ledger", str(path)]) == 0
        assert f"warning: {path}:3: skipped" in capsys.readouterr().out
        assert main(["report", "--ledger", str(path), "--check"]) == 2
        (line,) = capsys.readouterr().out.splitlines()
        assert line.startswith(f"report: --check: {path}:3: skipped")

    @pytest.mark.parametrize(
        "value",
        [None, "abc", [1], {}, True, float("nan"), float("inf"), float("-inf")],
        ids=["null", "string", "list", "object", "true", "NaN", "Infinity",
             "-Infinity"],
    )
    def test_non_numeric_metric(self, tmp_path, capsys, value):
        from repro.__main__ import main

        path = tmp_path / "l.jsonl"
        ledger = RunLedger(str(path))
        put(ledger, makespan_s=1.0)
        put(ledger, makespan_s=1.0)
        doc = ledger.records()[-1].to_json()
        doc["metrics"]["makespan_s"] = value
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(doc) + "\n")
        assert main(["report", "--ledger", str(path)]) == 0
        assert f"warning: {path}:3: skipped" in capsys.readouterr().out
        assert main(["report", "--ledger", str(path), "--check"]) == 2
        (line,) = capsys.readouterr().out.splitlines()
        assert line.startswith(f"report: --check: {path}:3: skipped")

    def test_newer_schema_line(self, tmp_path, capsys):
        from repro.__main__ import main

        path = tmp_path / "l.jsonl"
        ledger = RunLedger(str(path))
        put(ledger, makespan_s=1.0)
        ledger.append(LedgerRecord(command="scale", case="iso2d", mode="rtm",
                                   ranks=2, metrics={}, schema=99))
        assert main(["report", "--ledger", str(path), "--check"]) == 2
        assert f"{path}:2: skipped schema-99" in capsys.readouterr().out

    def test_missing_ledger(self, tmp_path, capsys):
        from repro.__main__ import main

        path = tmp_path / "absent.jsonl"
        assert main(["report", "--ledger", str(path)]) == 0
        capsys.readouterr()
        assert main(["report", "--ledger", str(path), "--check"]) == 2
        (line,) = capsys.readouterr().out.splitlines()
        assert line == f"report: --check: no ledger at {path}"
