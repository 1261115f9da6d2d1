"""Smoke tests of the wall-clock benchmark at its ``smoke`` size.

Run from the repository root::

    PYTHONPATH=src python -m pytest benchmarks/wall -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(ROOT / "src"))

import compare  # noqa: E402
import layers  # noqa: E402
from run import END_TO_END  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args: str, cwd: Path = ROOT) -> tuple[subprocess.CompletedProcess, dict | None]:
    proc = subprocess.run(
        [sys.executable, "benchmarks/wall/run.py", "--size", "smoke", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        last = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        last = None
    return proc, last


@pytest.fixture(scope="module")
def smoke_goldens(tmp_path_factory) -> Path:
    path = tmp_path_factory.mktemp("wall") / "goldens.json"
    subprocess.run(
        [sys.executable, "benchmarks/wall/make_goldens.py", "--size", "smoke",
         "--out", str(path)],
        cwd=ROOT, check=True, capture_output=True, timeout=300,
    )
    return path


def test_benchmark_json_declares_the_workloads_and_metrics():
    assert set(BENCHMARK) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert all(w["why"] == WORKLOADS[w["name"]].why for w in BENCHMARK["workloads"])
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == list(layers.PER_LAYER)
    names = [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    names += [w["name"] for w in BENCHMARK["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    assert all(0 < b <= 0.10 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_end_to_end_metrics_are_emitted_with_units(workload, smoke_goldens):
    # seed 3 has no golden: seeded workloads fall back to their oracle
    proc, last = run_bench("--workload", workload, "--seed", "3",
                           "--goldens", str(smoke_goldens))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in last["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in last["metrics"].values())
    check = "oracle" if WORKLOADS[workload].seeded else "committed golden"
    assert f"check: {check}" in proc.stdout


def test_a_perturbed_golden_fails_the_run(smoke_goldens, tmp_path):
    doc = json.loads(smoke_goldens.read_text())
    entry = doc["workloads"]["compile-verify"]["smoke"]["fixed"]
    item = sorted(entry)[0]
    entry[item] = "0" * 64
    bad = tmp_path / "goldens.json"
    bad.write_text(json.dumps(doc))
    proc, last = run_bench("--workload", "compile-verify", "--goldens", str(bad))
    assert proc.returncode == 1
    assert not last["correct"]
    assert last["failed"] / last["attempted"] > 0
    assert f"digest mismatch in {item}" in proc.stdout


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_run_emits_per_layer_metrics_within_the_call(workload, smoke_goldens, tmp_path):
    out = tmp_path / "traced.json"
    proc, last = run_bench("--workload", workload, "--trace", "1",
                           "--goldens", str(smoke_goldens), "--out", str(out))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    expected = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in last["metrics"].items()} == expected
    run = json.loads(out.read_text())["runs"][0]
    traced = [r for r in run["reps"] if r["traced"]]
    assert traced
    for rep in traced:
        assert rep["layers"]["unattributed_s"] >= 0
        for layer in layers.LAYERS:
            assert 0 <= rep["layers"][f"{layer}.self_s"] <= rep["call_s"], layer
        assert rep["problems"] == []


def test_recorder_gives_each_span_its_self_time(monkeypatch):
    now = [0.0]
    clock = types.SimpleNamespace(perf_counter=lambda: now[0])
    monkeypatch.setattr(layers, "time", clock)

    def advance(dt):
        now[0] += dt

    class Context:
        def __enter__(self):
            advance(0.5)

        def __exit__(self, *exc):
            advance(0.25)

    def make_context():
        advance(0.125)
        return Context()

    rec = layers.Recorder()
    span = layers._shim(rec, ("trace", "span"), make_context, None, context=True)

    def inner():
        advance(3.0)

    def outer():
        advance(1.0)
        rec.call(("gpusim", "launch"), inner, (), {})
        with span():
            advance(8.0)
        advance(2.0)

    rec.call(("core", "step"), outer, (), {})
    rec.call(("gpusim", "launch"), inner, (), {})
    # the outer span lasted 14.875 s, 3.875 s of it inside child spans
    assert dict(rec.self_s) == {
        ("core", "step"): 11.0, ("gpusim", "launch"): 6.0,
        ("trace", "span"): 0.875,
    }
    # both halves of the ``with`` are timed, but the span is one call
    assert dict(rec.calls) == {
        ("core", "step"): 1, ("gpusim", "launch"): 2, ("trace", "span"): 1,
    }
    assert rec.metrics(20.0)["unattributed_s"] == 20.0 - 17.875


def test_observation_leaves_no_trace():
    workload = WORKLOADS["paper-estimate"]
    inputs = workload.setup(1, "smoke")
    rec = layers.Recorder()
    patches = layers.install(rec)
    try:
        assert patches
        assert all(getattr(owner, name) is not original
                   for owner, name, original in patches)
        workload.run(inputs)
    finally:
        layers.uninstall(patches)
    assert rec.calls[("gpusim", "launch")] > 0
    for owner, name, original in patches:
        assert getattr(owner, name) is original, f"{owner}.{name}"
    assert layers.find_shims() == []


def test_without_the_library_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "wall",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc, last = run_bench("--workload", "paper-estimate", cwd=tmp_path)
    assert proc.returncode != 0
    assert last is None


def _set(tmp_path: Path, name: str, values: list[float], failed: int = 0,
         **settings) -> Path:
    runs = [
        {
            "workload": "w", "size": "full", "seconds": 28.0, "trace": False,
            "correct": failed == 0, "attempted": 10, "failed": failed,
            "metrics": {"wall_s": {"value": v, "unit": "s"}},
            **settings,
        }
        for v in values
    ]
    path = tmp_path / name
    path.write_text(json.dumps({"runs": runs}))
    return path


def _verdicts(rows) -> dict[str, str]:
    return {r["metric"]: r["verdict"] for r in rows}


@pytest.mark.parametrize("b_values, expected", [
    ([1.00, 1.01, 0.99, 1.00, 1.02], "unchanged"),
    ([1.30, 1.31, 1.29, 1.30, 1.32], "regressed"),
    ([0.80, 0.81, 0.79, 0.80, 0.82], "improved"),
])
def test_compare_verdicts(tmp_path, b_values, expected):
    a = _set(tmp_path, "a.json", [1.00, 1.01, 0.99, 1.02, 0.98])
    b = _set(tmp_path, "b.json", b_values)
    rows, ok = compare.compare(a, b)
    assert _verdicts(rows) == {"failed_fraction": "unchanged", "wall_s": expected}
    assert ok == (expected != "regressed")


def test_compare_calls_a_noisy_reference_unresolved(tmp_path):
    a = _set(tmp_path, "a.json", [1.0, 1.5, 0.7, 1.3, 0.8])
    b = _set(tmp_path, "b.json", [1.0, 0.9, 1.1, 1.0, 0.95])
    rows, ok = compare.compare(a, b)
    assert _verdicts(rows)["wall_s"] == "unresolved"
    assert not ok


def test_compare_refuses_a_gain_with_more_failures(tmp_path):
    a = _set(tmp_path, "a.json", [1.00, 1.01, 0.99, 1.02, 0.98])
    b = _set(tmp_path, "b.json", [0.80, 0.81, 0.79, 0.80, 0.82], failed=1)
    rows, ok = compare.compare(a, b)
    assert _verdicts(rows) == {"failed_fraction": "regressed", "wall_s": "improved"}
    assert not ok


def test_compare_refuses_a_set_that_did_not_verify(tmp_path):
    # as many failures as the reference, but B's outputs still did not verify
    a = _set(tmp_path, "a.json", [1.00, 1.01, 0.99, 1.02, 0.98], failed=1)
    b = _set(tmp_path, "b.json", [1.00, 1.01, 0.99, 1.00, 1.02], failed=1)
    rows, ok = compare.compare(a, b)
    assert _verdicts(rows)["failed_fraction"] == "regressed"
    assert not ok


@pytest.mark.parametrize("setting, value", [
    ("size", "smoke"), ("seconds", 10.0), ("trace", True),
])
def test_compare_refuses_sets_run_differently(tmp_path, setting, value):
    a = _set(tmp_path, "a.json", [1.00, 1.01, 0.99, 1.02, 0.98])
    b = _set(tmp_path, "b.json", [1.00, 1.01, 0.99, 1.00, 1.02], **{setting: value})
    with pytest.raises(ValueError, match=f"different {setting}"):
        compare.compare(a, b)
    assert compare.main([str(a), str(b)]) == 2
