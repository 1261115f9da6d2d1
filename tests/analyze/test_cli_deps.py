"""The ``python -m repro deps`` command and ``lint --deep`` wiring."""

import json

import pytest

from repro.__main__ import main
from repro.analyze.dataflow import validate_opportunities

SEEDED_SCRIPT = """\
!$lint extent(u=36864)
!$acc enter data copyin(u)
!$lint host_writes(u) bytes=768 offset=0
!$lint name=fwd dims=96x96 reads=u writes=u
!$acc parallel loop gang vector
!$acc exit data delete(u)
"""

FUSABLE_SCRIPT = """\
!$acc enter data copyin(u, v)
!$lint name=a writes=u
!$acc parallel loop present(u)
!$lint name=b writes=v
!$acc parallel loop present(v)
!$acc exit data delete(u, v)
"""


def run(argv):
    return main(argv)


@pytest.fixture
def seeded(tmp_path):
    p = tmp_path / "seeded.acc"
    p.write_text(SEEDED_SCRIPT)
    return str(p)


@pytest.fixture
def fusable(tmp_path):
    p = tmp_path / "fusable.acc"
    p.write_text(FUSABLE_SCRIPT)
    return str(p)


class TestDepsCommand:
    def test_script_target_prints_summary(self, fusable, capsys):
        assert run(["deps", "--script", fusable]) == 0
        out = capsys.readouterr().out
        assert "events" in out and "opportunities" in out

    def test_case_target_with_artifacts(self, tmp_path, capsys):
        dot = tmp_path / "graph.dot"
        opp = tmp_path / "opportunities.json"
        assert run([
            "deps", "iso2d", "--nt", "8",
            "--dot", str(dot), "--opportunities", str(opp),
        ]) == 0
        assert dot.read_text().startswith("digraph dependences")
        doc = json.loads(opp.read_text())
        validate_opportunities(doc)
        assert doc["programs"][0]["opportunities"]

    def test_json_format(self, fusable, capsys):
        assert run(["deps", "--script", fusable, "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        (target,) = doc["targets"]
        assert target["events"] == 4
        assert target["opportunities"] >= 1

    def test_dot_needs_a_single_target(self, tmp_path, capsys):
        dot = tmp_path / "g.dot"
        assert run(["deps", "all", "--dot", str(dot)]) == 2
        assert capsys.readouterr().out.startswith("deps: --dot exports")
        assert not dot.exists()

    def test_missing_target_rejected(self, capsys):
        assert run(["deps"]) == 2
        assert capsys.readouterr().out == (
            "deps: needs a CASE (or 'all', or --script FILE)\n"
        )

    def test_multirank_crossrank_is_clean_on_seed(self, capsys):
        assert run([
            "deps", "iso2d", "--ranks", "2", "--nt", "8",
            "--fail-on", "error",
        ]) == 0

    def test_no_verify_reports_zero_verified(self, fusable, capsys):
        run(["deps", "--script", fusable, "--no-verify", "--format", "json"])
        (target,) = json.loads(capsys.readouterr().out)["targets"]
        assert target["opportunities"] >= 1
        assert target["verified_opportunities"] == 0


class TestLintDeep:
    def test_deep_flags_seeded_script_with_df_code(self, seeded, capsys):
        assert run(["lint", "--script", seeded, "--deep",
                    "--no-ledger"]) == 1
        out = capsys.readouterr().out
        assert "DF001-stale-device-read" in out

    def test_shallow_lint_misses_the_coherence_bug(self, seeded, capsys):
        run(["lint", "--script", seeded, "--no-ledger", "--fail-on", "none"])
        assert "DF001" not in capsys.readouterr().out

    def test_deep_json_carries_the_witness(self, seeded, capsys):
        run(["lint", "--script", seeded, "--deep", "--json",
            "--no-ledger", "--fail-on", "none"])
        (doc,) = json.loads(capsys.readouterr().out)
        (df,) = [d for d in doc["diagnostics"]
                 if d["rule"].startswith("DF")]
        assert df["witness"] == [1, 2]

    def test_deep_appends_a_ledger_record(self, seeded, tmp_path, capsys):
        ledger = tmp_path / "ledger.jsonl"
        run(["lint", "--script", seeded, "--deep",
             "--ledger", str(ledger), "--fail-on", "none"])
        (line,) = ledger.read_text().splitlines()
        record = json.loads(line)
        assert record["command"] == "lint"
        metrics = record["metrics"]
        assert metrics["df_findings"] >= 1
        assert "verified_opportunities" in metrics

    def test_shallow_lint_does_not_touch_the_ledger(self, seeded, tmp_path):
        ledger = tmp_path / "ledger.jsonl"
        run(["lint", "--script", seeded,
             "--ledger", str(ledger), "--fail-on", "none"])
        assert not ledger.exists()
