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
            "--ledger", str(tmp_path / "ledger.jsonl"),
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
        assert main([
            "tune", "iso2d", "--compiler", "gcc-4.9",
            "--out", str(tmp_path / "p.json"),
        ]) == 2

    def test_figures_tuned_study(self, tmp_path, capsys):
        path = tmp_path / "plan.json"
        assert main([
            "tune", "el2d", "--mode", "modeling", "--budget", "2",
            "--out", str(path), "--ledger", str(tmp_path / "ledger.jsonl"),
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
    ("chaos iso2d --ranks 2 --faults halo-stale-device", "halo-stale-device"),
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


#: malformed command lines of the other subcommands, with what the
#: one-line refusal must name; ``{missing}`` is a path that does not exist,
#: ``{bad}`` a truncated JSON file
MALFORMED_SHELL = [
    ("lint nosuch", "nosuch"),
    ("lint", "CASE"),
    ("lint iso2d --compiler nosuch", "nosuch"),
    ("lint iso2d --nt 0", "--nt"),
    ("lint iso2d --deep --fail-on bogus", "--fail-on"),
    ("tune nosuch", "nosuch"),
    ("tune iso2d --compiler nosuch", "nosuch"),
    ("tune iso2d --budget 0", "--budget"),
    ("tune iso2d --nt 0", "--nt"),
    ("trace nosuch", "nosuch"),
    ("trace iso2d --nt 0", "--nt"),
    ("trace iso2d --ranks 0", "--ranks"),
    ("scale nosuch", "nosuch"),
    ("scale iso2d --ranks 0", "--ranks"),
    ("scale iso2d --ranks x", "--ranks"),
    ("scale iso2d --nt 0", "--nt"),
    ("report --window 0", "--window"),
    ("report --threshold -5", "--threshold"),
    ("report --command-filter nosuch", "--command-filter"),
    ("figures nosuch", "nosuch"),
    ("figures tuned", "--plan"),
    ("plan isotropic abc", "DIMS"),
    ("plan isotropic -5 64", "DIMS"),
    ("plan isotropic 512", "DIMS"),
    ("tables --plan {missing}", "--plan"),
    ("tables --plan {bad}", "--plan"),
    ("compile iso2d --plan {missing}", "--plan"),
    ("compile iso2d --nt 0", "--nt"),
    ("compile iso2d --bench F --repeats 0", "--repeats"),
    ("validate iso2d --nt 0", "--nt"),
    ("validate iso2d --fail-on bogus", "--fail-on"),
    ("sweep --nt 0", "--nt"),
    # only serve injects a poisoned shot; chaos would report it recovered
    ("chaos iso2d --faults shot-poison", "--faults"),
    ("chaos iso2d --faults poison-shot", "--faults"),
    # a one-card run has no MPI world to drop, duplicate or delay in
    ("chaos iso2d --faults mpi-drop", "--faults"),
    ("chaos iso2d --faults mpi-dup", "--faults"),
    ("chaos iso2d --faults mpi-delay", "--faults"),
]

#: value-taking actions that name a file the command writes
OUTPUTS = {
    "tables --trace", "figures --trace", "sweep --trace",
    "trace --out", "trace --jsonl", "deps --dot", "deps --opportunities",
    "sanitize --output", "chaos --out", "chaos --trace", "tune --out",
    "scale --out", "serve --out", "compile --bench", "validate --artifact",
}
#: value-taking actions left free-form, as ``command FLAG``: output
#: paths, the ledger, seeds, and the opportunities input that ``compile``
#: and ``validate`` refuse in their own loader
FREE_FORM = OUTPUTS | {
    "experiments PATH", "json PATH", "chaos --seed", "serve --seed",
    "compile --opportunities", "validate --opportunities",
} | {
    f"{c} --ledger" for c in (
        "trace", "lint", "chaos", "tune", "scale", "serve", "report",
        "compile", "validate",
    )
}

#: an otherwise valid line of each subcommand with checked actions
VALID = {
    "tables": [], "figures": [], "plan": ["isotropic", "64", "64"],
    "sweep": [], "trace": ["iso2d"], "lint": ["iso2d", "--deep"],
    "deps": ["iso2d"], "sanitize": ["iso2d"], "chaos": ["iso2d"],
    "tune": ["iso2d"], "scale": ["iso2d"], "serve": ["iso2d"],
    "report": [], "compile": ["iso2d"], "validate": ["iso2d"],
}


def _subparsers():
    import argparse

    parser = build_parser()
    action = next(
        a for a in parser._actions
        if isinstance(a, argparse._SubParsersAction)
    )
    return action.choices


def _name(command, action):
    flag = action.option_strings[0] if action.option_strings else (
        action.metavar or action.dest.upper()
    )
    return f"{command} {flag}"


def _checked_actions():
    """``(command, action)`` of every value-taking action off the
    free-form list."""
    return [
        (command, action)
        for command, sub in sorted(_subparsers().items())
        for action in sub._actions
        if action.nargs != 0 and action.dest != "help"
        and _name(command, action) not in FREE_FORM
    ]


def _refused_samples(action):
    """What the action's check must refuse: ``{missing}``/``{bad}`` are
    filled in with a missing path and a truncated JSON file."""
    from repro import __main__ as shell

    if action.choices is not None:
        return ["nosuch", "0"]
    return {
        shell.non_negative: ["-3", "x", "nosuch"],
        shell.plan_file: ["{missing}", "{bad}"],
        shell.script_file: ["{missing}"],
    }.get(action.type, ["0", "-3", "x", "nosuch"])


def _run_refused(argv, tmp_path, capsys):
    """Run ``argv`` with every output flag its command takes and a seeded
    ledger; assert the one-line exit-2 refusal, and return the line."""
    command = argv[0]
    ledger = tmp_path / "ledger.jsonl"
    ledger.write_text('{"run_id": "earlier"}\n')
    outputs = [
        flag.split()[1] for flag in sorted(OUTPUTS)
        if flag.split()[0] == command
    ]
    for flag in outputs:
        argv = argv + [flag, str(tmp_path / flag.strip("-"))]
    if f"{command} --ledger" in FREE_FORM and command != "report":
        argv = argv + ["--ledger", str(ledger)]
    assert main(argv) == 2
    printed = capsys.readouterr().out
    assert "Traceback" not in printed
    assert printed.count("\n") == 1
    assert printed.startswith(f"{command}: ")
    assert ledger.read_text().count("\n") == 1
    assert not any((tmp_path / flag.strip("-")).exists() for flag in outputs)
    return printed


class TestShellContract:
    """Every subcommand refuses a malformed line the same way: exit 2,
    one stdout line naming the flag or value, nothing run or written."""

    def test_every_value_is_checked(self):
        from repro.__main__ import CHECKS

        unchecked = [
            _name(command, action) for command, action in _checked_actions()
            if action.type not in CHECKS and action.choices is None
        ]
        assert not unchecked, (
            "value-taking flags without a shared check or choices "
            f"(or an entry in FREE_FORM): {unchecked}"
        )

    @pytest.mark.parametrize(
        "command,action", _checked_actions(),
        ids=[_name(c, a) for c, a in _checked_actions()],
    )
    def test_refused_samples(self, command, action, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"version": 1, "ca')
        for sample in _refused_samples(action):
            value = sample.format(missing=tmp_path / "missing", bad=bad)
            argv = [command] + VALID[command]
            if action.option_strings:
                argv += [action.option_strings[0], value]
            else:  # a positional: put it in the valid line's place
                at = 1 + [
                    a.dest for a in _subparsers()[command]._actions
                    if not a.option_strings
                ].index(action.dest)
                argv[at:at + 1] = [value]
            printed = _run_refused(argv, tmp_path, capsys)
            flag = _name(command, action).split()[1]
            assert flag in printed or value in printed, printed

    @pytest.mark.parametrize(
        "line,named", MALFORMED_SHELL, ids=[m[0] for m in MALFORMED_SHELL]
    )
    def test_malformed_lines(self, line, named, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"version": 1, "ca')
        argv = line.format(missing=tmp_path / "missing", bad=bad).split()
        printed = _run_refused(argv, tmp_path, capsys)
        assert named in printed

    def test_command_filter_names_the_ledger_writers(self):
        from repro.__main__ import LEDGER_COMMANDS

        writers = {
            command for command, sub in _subparsers().items()
            if "--no-ledger" in sub._option_string_actions
        }
        assert writers == set(LEDGER_COMMANDS)

    def test_validate_fail_on_none_is_accepted(self, capsys):
        assert main([
            "validate", "iso2d", "--mode", "rtm", "--fail-on", "none",
            "--no-ledger",
        ]) == 0
        assert "repro validate" in capsys.readouterr().out
