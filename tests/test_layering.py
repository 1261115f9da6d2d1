"""The layer map as an import graph, and the package names that resolve
lazily.

Importing a package loads its own layer and the layers below it, never
one above (``docs/architecture.md``, "Key seams"). Each import check runs
in a fresh interpreter and lists the ``repro`` modules that one import
loaded.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro

_SRC = str(Path(repro.__file__).resolve().parents[1])

#: the packages whose public names resolve on first access
LAZY = ("repro", "repro.optim", "repro.observe", "repro.resilience")


def _run(code: str) -> str:
    """The stdout of ``code`` run by a fresh interpreter on this ``repro``."""
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": _SRC},
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


@functools.cache
def _loaded_by(module: str) -> frozenset[str]:
    """The ``repro`` modules a fresh ``import module`` loads."""
    return frozenset(_run(
        f"import sys\nimport {module}\n"
        "print(*(n for n in sys.modules if n.split('.')[0] == 'repro'))"
    ).split())


def _layer(module: str) -> str:
    return module.split(".")[1] if "." in module else ""


#: (import, the layers it must not load)
LAYERS_ABOVE = [
    ("repro.propagators", (
        "acc", "gpusim", "trace", "mpisim", "core", "analyze", "sanitize",
        "observe", "optim", "compile", "serve", "bench", "resilience",
    )),
    ("repro.optim.tuning", ("analyze", "sanitize", "core")),
    ("repro.core", (
        "analyze", "sanitize", "compile", "serve", "bench", "optim",
        "resilience",
    )),
    ("repro.bench", ("analyze", "sanitize", "compile", "serve", "resilience")),
    ("repro.serve", ("analyze", "sanitize", "compile", "bench", "optim")),
    ("repro.compile", ("serve", "bench", "resilience")),
]


class TestImportGraph:
    def test_bare_import_loads_only_the_package(self):
        assert _loaded_by("repro") == {"repro", "repro.version"}

    @pytest.mark.parametrize(
        "module,above", LAYERS_ABOVE, ids=[m for m, _ in LAYERS_ABOVE]
    )
    def test_loads_no_layer_above(self, module, above):
        leaked = sorted(m for m in _loaded_by(module) if _layer(m) in above)
        assert leaked == []

    def test_core_loads_only_the_runlog_of_observe(self):
        observe = {m for m in _loaded_by("repro.core") if _layer(m) == "observe"}
        assert observe <= {"repro.observe", "repro.observe.runlog"}

    def test_bench_does_not_load_the_autotuner(self):
        assert "repro.optim.autotune" not in _loaded_by("repro.bench")


class TestLazyNames:
    def test_docstring_quickstart_runs_after_bare_import(self):
        code = textwrap.dedent(repro.__doc__.split("Quickstart::", 1)[1]).strip()
        assert code.startswith("import repro\n")
        assert _run(code).startswith("(500, ")

    def test_star_import_binds_the_subpackages(self):
        bound = _run(
            "from repro import *\n"
            "import types\n"
            "print(*sorted(n for n, v in dict(globals()).items()\n"
            "              if isinstance(v, types.ModuleType)\n"
            "              and v.__name__ == 'repro.' + n))"
        ).split()
        assert len(bound) == 14
        assert bound == sorted(n for n in repro.__all__ if n != "__version__")

    def test_dir_lists_every_public_name_before_it_loads(self):
        missing = json.loads(_run(
            "import importlib, json\n"
            f"packages = {LAZY!r}\n"
            "print(json.dumps({p: [n for n in m.__all__ if n not in dir(m)]\n"
            "                  for p in packages\n"
            "                  for m in [importlib.import_module(p)]}))"
        ))
        assert missing == {p: [] for p in LAZY}

    @pytest.mark.parametrize("package", LAZY)
    def test_unknown_name_raises_naming_the_package(self, package):
        module = importlib.import_module(package)
        message = f"module '{package}' has no attribute 'no_such_name'"
        with pytest.raises(AttributeError, match=re.escape(message)):
            module.no_such_name

    @pytest.mark.parametrize("package", LAZY)
    def test_every_public_name_resolves(self, package):
        module = importlib.import_module(package)
        unresolved = [n for n in module.__all__ if getattr(module, n) is None]
        assert unresolved == []

    def test_a_resolved_name_is_not_cached_in_the_package(self):
        from repro import optim
        from repro.optim.transformations import fuse_kernels

        assert optim.fuse_kernels is fuse_kernels
        assert "fuse_kernels" not in vars(optim)
