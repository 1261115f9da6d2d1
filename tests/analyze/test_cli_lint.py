"""The ``python -m repro lint`` command: reporters and exit-code gating."""

import json

import pytest

from repro.__main__ import dispatch, parse_line
from repro.utils.errors import ConfigurationError

CLEAN_SCRIPT = """\
!$acc enter data copyin(u)
!$lint name=stencil writes=u
!$acc parallel loop gang vector present(u)
!$acc exit data copyout(u)
"""

BROKEN_SCRIPT = """\
!$lint name=recur carried=true reads=p writes=p
!$acc kernels loop independent present(p)
!$acc exit data delete(p)
"""


def run(argv):
    return dispatch(parse_line(argv))


@pytest.fixture
def clean(tmp_path):
    p = tmp_path / "clean.acc"
    p.write_text(CLEAN_SCRIPT)
    return str(p)


@pytest.fixture
def broken(tmp_path):
    p = tmp_path / "broken.acc"
    p.write_text(BROKEN_SCRIPT)
    return str(p)


class TestLintCommand:
    def test_clean_script_exits_zero(self, clean, capsys):
        assert run(["lint", "--script", clean]) == 0
        out = capsys.readouterr().out
        assert "clean: no findings" in out

    def test_broken_script_fails_on_error(self, broken, capsys):
        assert run(["lint", "--script", broken]) == 1
        out = capsys.readouterr().out
        assert "false-independent" in out
        assert "use-before-copyin" in out

    def test_fail_on_none_always_passes(self, broken, capsys):
        assert run(["lint", "--script", broken, "--fail-on", "none"]) == 0

    def test_fail_on_warning_tightens_the_gate(self, clean, tmp_path, capsys):
        warn = tmp_path / "warn.acc"
        warn.write_text(
            "!$acc enter data copyin(u)\n"
            "!$acc update device(u)\n"  # redundant: warning-level
            "!$acc exit data delete(u)\n"
        )
        assert run(["lint", "--script", str(warn)]) == 0
        assert run(["lint", "--script", str(warn), "--fail-on", "warning"]) == 1

    def test_unknown_fail_on_rejected(self, clean):
        with pytest.raises(ConfigurationError):
            run(["lint", "--script", clean, "--fail-on", "fatal"])

    def test_json_reporter(self, broken, capsys):
        run(["lint", "--script", broken, "--json"])
        data = json.loads(capsys.readouterr().out)
        assert isinstance(data, list) and len(data) == 1
        diags = data[0]["diagnostics"]
        assert any(d["rule"] == "false-independent" for d in diags)
        assert data[0]["worst"] == "error"

    def test_case_target_runs_pipeline(self, capsys):
        assert run(["lint", "iso2d", "--nt", "8"]) == 0
        out = capsys.readouterr().out
        assert "ISOTROPIC 2D (rtm)" in out

    def test_case_mode_both(self, capsys):
        assert run(["lint", "ac2d", "--mode", "both", "--nt", "8"]) == 0
        out = capsys.readouterr().out
        assert "(modeling)" in out and "(rtm)" in out

    def test_compiler_override(self, capsys):
        assert run(["lint", "ac2d", "--nt", "8",
                    "--compiler", "cray-8.2.6"]) == 0
        assert "CRAY 8.2.6" in capsys.readouterr().out

    def test_unknown_compiler_rejected(self):
        with pytest.raises(ConfigurationError, match="pgi-14.6"):
            run(["lint", "ac2d", "--compiler", "gcc-13"])

    def test_missing_target_rejected(self):
        with pytest.raises(ConfigurationError):
            run(["lint"])
