"""The layer map as an import graph, and the package names that resolve
lazily.

Importing a package loads its own layer and the layers below it, never
one above (``docs/architecture.md``, "Key seams"). Each import check runs
in a fresh interpreter and lists the ``repro`` modules that one import
loaded. A function-local import is invisible to that check until the
function runs, so ``core``'s imports of the layers above it (none) are
also listed from its source, as is every call that builds an
``OffloadPipeline``.
"""

from __future__ import annotations

import ast
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
    # the command shell parses (and refuses) a line before a command loads
    ("repro.__main__", (
        "grid", "stencil", "boundary", "model", "source", "propagators",
        "acc", "gpusim", "trace", "mpisim", "core", "analyze", "sanitize",
        "observe", "optim", "compile", "serve", "bench", "resilience",
    )),
]


#: ``core``'s imports of a layer above it, at any scope: (file, enclosing
#: function, imported module). A strict gate is a call made before a shot,
#: so there are none.
CORE_UPWARD: set[tuple[str, str, str]] = set()


def _scoped(tree: ast.AST, scope: tuple[str, ...] = ()):
    """(enclosing function, node) for every node under ``tree``."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _scoped(node, (*scope, node.name))
        else:
            yield ".".join(scope), node
            yield from _scoped(node, scope)


def _imports(tree: ast.AST):
    """(enclosing function, module) for every import under ``tree``;
    ``from M import N`` imports ``M.N`` when that is a module."""
    for scope, node in _scoped(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield scope, alias.name
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                name = f"{node.module}.{alias.name}"
                path = Path(_SRC, *name.split("."))
                is_module = path.is_dir() or path.with_suffix(".py").exists()
                yield scope, name if is_module else node.module


class TestImportGraph:
    def test_bare_import_loads_only_the_package(self):
        assert _loaded_by("repro") == {"repro", "repro.version"}

    @pytest.mark.parametrize(
        "module,above", LAYERS_ABOVE, ids=[m for m, _ in LAYERS_ABOVE]
    )
    def test_loads_no_layer_above(self, module, above):
        leaked = sorted(m for m in _loaded_by(module) if _layer(m) in above)
        assert leaked == []

    def test_core_imports_up_only_in_the_listed_functions(self):
        above = dict(LAYERS_ABOVE)["repro.core"]
        found = {
            (path.name, scope, module)
            for path in Path(_SRC, "repro", "core").glob("*.py")
            for scope, module in _imports(ast.parse(path.read_text("utf-8")))
            if module.startswith("repro.") and _layer(module) in above
        }
        assert found == CORE_UPWARD

    def test_offload_pipeline_is_built_only_by_build_pipeline(self):
        sites = {
            (path.relative_to(_SRC).as_posix(), scope)
            for path in Path(_SRC, "repro").rglob("*.py")
            for scope, node in _scoped(ast.parse(path.read_text("utf-8")))
            if isinstance(node, ast.Call)
            and "OffloadPipeline" in (
                getattr(node.func, "id", None), getattr(node.func, "attr", None)
            )
        }
        assert sites == {("repro/core/shot.py", "build_pipeline")}

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
