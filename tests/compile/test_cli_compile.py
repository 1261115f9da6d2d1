"""``python -m repro compile`` surface: targets, output, artifacts."""

import json

import pytest

from repro.__main__ import build_parser
from repro.compile.cli import run_compile_command
from repro.cases import case_targets


def parse(*argv):
    return build_parser().parse_args(["compile", *argv])


def targets(*argv):
    args = parse(*argv)
    return case_targets(args.case, args.mode)


class TestTargets:
    def test_all_is_twelve(self):
        found = targets("all", "--no-ledger")
        assert len(found) == 12
        labels = [f"{name} ({mode})" for name, _, _, mode in found]
        assert "iso2d (rtm)" in labels or "isotropic2d (rtm)" in labels

    def test_single_case_both_modes(self):
        found = targets("iso2d")
        assert [mode for _, _, _, mode in found] == ["modeling", "rtm"]

    def test_mode_filter(self):
        found = targets("iso2d", "--mode", "rtm")
        assert [mode for _, _, _, mode in found] == ["rtm"]


class TestCommand:
    def test_text_output_and_exit_zero(self, capsys):
        args = parse("iso2d", "--mode", "rtm", "--nt", "8", "--no-ledger")
        assert run_compile_command(args) == 0
        out = capsys.readouterr().out
        assert "verified: True" in out
        assert "applied fuse-computes" in out

    def test_json_output(self, capsys):
        args = parse(
            "iso2d", "--mode", "rtm", "--nt", "8", "--no-ledger",
            "--format", "json",
        )
        assert run_compile_command(args) == 0
        doc = json.loads(capsys.readouterr().out)
        (target,) = doc["targets"]
        assert target["verified"]
        assert target["launches_per_step"]["compiled"] < (
            target["launches_per_step"]["interpreted"]
        )

    def test_bench_writes_the_document(self, tmp_path, capsys):
        bench = tmp_path / "BENCH_step.json"
        args = parse(
            "iso2d", "--mode", "modeling", "--nt", "8", "--no-ledger",
            "--bench", str(bench), "--repeats", "1",
        )
        assert run_compile_command(args) == 0
        doc = json.loads(bench.read_text())
        assert doc["schema"] == 1 and doc["benchmark"] == "step_compile"
        (case,) = doc["cases"].values()
        assert case["verified"]
        assert case["compiled_step_s"] <= case["interpreted_step_s"]

    def test_ledger_append(self, tmp_path, capsys):
        ledger = tmp_path / "ledger.jsonl"
        args = parse(
            "iso2d", "--mode", "rtm", "--nt", "8", "--ledger", str(ledger),
        )
        assert run_compile_command(args) == 0
        lines = ledger.read_text().strip().splitlines()
        record = json.loads(lines[-1])
        assert record["command"] == "compile"
        assert record["metrics"]["applied"] >= 1
