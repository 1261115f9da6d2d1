"""The ``python -m repro`` command-line interface."""

import json

import pytest

from repro.__main__ import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["migrate-everything"])


class TestCommands:
    def test_plan(self, capsys):
        assert main(["plan", "acoustic", "512", "512", "512"]) == 0
        out = capsys.readouterr().out
        assert "Tesla M2090" in out and "Tesla K40" in out
        assert "swap" in out  # the Fermi acoustic-3D verdict

    def test_plan_vti(self, capsys):
        assert main(["plan", "vti", "256", "256"]) == 0
        assert "resident" in capsys.readouterr().out

    def test_figures_single(self, capsys):
        assert main(["figures", "fig12"]) == 0
        out = capsys.readouterr().out
        assert "fission" in out
        assert "M2090" in out

    def test_figures_fig10(self, capsys):
        assert main(["figures", "fig10"]) == 0
        assert "registers" in capsys.readouterr().out

    def test_sweep(self, capsys):
        assert main(["sweep", "--nt", "20"]) == 0
        assert "speedup" in capsys.readouterr().out

    def test_json_export(self, tmp_path, capsys, monkeypatch, paper_results):
        # the sweep itself is shared with the bench tests; this one checks
        # the command's argument handling and the file it writes
        monkeypatch.setattr(
            "repro.bench.experiments.results_json", lambda: paper_results
        )
        path = tmp_path / "results.json"
        assert main(["json", str(path)]) == 0
        data = json.loads(path.read_text())
        assert "table3_modeling" in data
        assert data["fig10_best_maxregcount"] == 64
        assert data == json.loads(json.dumps(paper_results))
        assert f"wrote {path}" in capsys.readouterr().out


class TestTuneCommand:
    def test_tune_writes_plan(self, tmp_path, capsys):
        path = tmp_path / "plan.json"
        assert main([
            "tune", "acoustic-2d", "--budget", "2", "--out", str(path),
        ]) == 0
        out = capsys.readouterr().out
        assert "TuningPlan" in out and "step time" in out
        data = json.loads(path.read_text())
        assert data["case"] == "acoustic-2d"
        assert data["tuned_step_seconds"] <= data["baseline_step_seconds"]
        assert data["kernels"], "plan must carry per-kernel entries"
        for entry in data["kernels"].values():
            assert entry["vector_length"] >= 1
            assert "model_error" in entry

    def test_tune_unknown_compiler(self, tmp_path):
        import pytest

        from repro.utils.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            main([
                "tune", "iso2d", "--compiler", "gcc-4.9",
                "--out", str(tmp_path / "p.json"),
            ])

    def test_figures_tuned_study(self, tmp_path, capsys):
        path = tmp_path / "plan.json"
        assert main([
            "tune", "el2d", "--mode", "modeling", "--budget", "2",
            "--out", str(path),
        ]) == 0
        capsys.readouterr()
        assert main(["figures", "tuned", "--plan", str(path)]) == 0
        out = capsys.readouterr().out
        assert "Auto-tuned" in out
        assert "default" in out and "auto-tuned" in out


#: malformed ``serve``/``chaos`` command lines, with what the one-line
#: refusal must name
MALFORMED = [
    ("chaos iso2d --ranks 0", "--ranks"),
    ("chaos iso2d --ranks -3", "--ranks"),
    ("chaos all --ranks 0", "--ranks"),
    ("chaos iso2d --faults garbage", "--faults"),
    ("chaos iso2d --nt 0", "--nt"),
    ("chaos nosuch", "nosuch"),
    ("serve iso2d,nosuch --workers 2", "nosuch"),
    ("serve all --workers 0", "--workers"),
    ("serve iso2d --shots 0", "--shots"),
    ("serve iso2d --nt 0", "--nt"),
    ("serve iso2d --capacity 0", "--capacity"),
    ("serve iso2d --gpus 0", "--gpus"),
    ("serve iso2d --quarantine-after 0", "--quarantine-after"),
    ("serve iso2d --faults garbage", "--faults"),
    ("serve iso3d", "iso3d"),
]


class TestMalformedInput:
    @pytest.mark.parametrize("line,named", MALFORMED, ids=[m[0] for m in MALFORMED])
    def test_refused_before_anything_runs(self, line, named, tmp_path, capsys):
        ledger = tmp_path / "ledger.jsonl"
        ledger.write_text('{"run_id": "earlier"}\n')
        out = tmp_path / "out.json"
        argv = line.split() + ["--ledger", str(ledger), "--out", str(out)]
        assert main(argv) == 2
        printed = capsys.readouterr().out
        assert "Traceback" not in printed
        assert printed.count("\n") == 1 and named in printed
        assert printed.startswith(f"{argv[0]}: ")
        assert ledger.read_text().count("\n") == 1
        assert not out.exists()


#: malformed ``deps``/``sanitize`` command lines, with what the one-line
#: refusal must name; ``{missing}`` is a path that does not exist
MALFORMED_TARGETS = [
    ("deps", "CASE"),
    ("deps nosuch", "nosuch"),
    ("deps iso2d --fail-on bogus", "--fail-on"),
    ("deps --script {missing}", "--script"),
    ("deps iso2d --nt 0", "--nt"),
    ("deps iso2d --nt -3", "--nt"),
    ("deps iso2d --ranks 0", "--ranks"),
    ("sanitize", "CASE"),
    ("sanitize nosuch", "nosuch"),
    ("sanitize iso2d --fail-on bogus", "--fail-on"),
    ("sanitize --script {missing}", "--script"),
    ("sanitize iso2d --nt 0", "--nt"),
    ("sanitize iso2d --ranks 0", "--ranks"),
    ("sanitize iso2d --ranks -3", "--ranks"),
    ("sanitize iso2d --fix", "--fix"),
]


@pytest.mark.parametrize(
    "line,named", MALFORMED_TARGETS, ids=[m[0] for m in MALFORMED_TARGETS]
)
def test_deps_and_sanitize_refuse_malformed_input(line, named, tmp_path, capsys):
    """Exit 2 before anything is recorded, with one line naming the flag
    and no artifact written."""
    argv = line.format(missing=tmp_path / "missing.acc").split()
    written = {
        "deps": ("--opportunities", "--dot"),
        "sanitize": ("--output",),
    }[argv[0]]
    for flag in written:
        argv += [flag, str(tmp_path / flag.strip("-"))]
    assert main(argv) == 2
    printed = capsys.readouterr().out
    assert "Traceback" not in printed
    assert printed.count("\n") == 1 and named in printed
    assert printed.startswith(f"{argv[0]}: ")
    assert not any((tmp_path / flag.strip("-")).exists() for flag in written)
