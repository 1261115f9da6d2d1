"""Interpreted vs compiled step time across the full seed-case matrix.

For each of the 12 seed cases (3 physics x 2 dims x {modeling, rtm}) the
fused-kernel compiler lowers the recorded schedule through its verified
opportunities and the compiled step must never be slower than the
interpreter on wall-clock — while staying bitwise-identical (the
``verified`` flag is the compiler's replay gate, asserted per case).
The timings land in ``BENCH_step.json`` next to this file's working
directory.
"""

from __future__ import annotations

import json

import pytest

from benchmarks.conftest import emit, run_once
from repro.bench.workloads import ALL_CASES
from repro.compile import CompileRequest, compile_case, measure_case
from repro.compile.bench import bench_document
from repro.core.config import GPUOptions
from repro.core.platform import CRAY_K40

NT = 24
SNAP_PERIOD = 4
REPEATS = 3
OUT = "BENCH_step.json"

_CASE_NAMES = [
    f"{case.physics}-{case.ndim}d-{mode}"
    for case in ALL_CASES
    for mode in ("modeling", "rtm")
]


def _compile_all() -> dict[str, dict]:
    cases: dict[str, dict] = {}
    for case in ALL_CASES:
        for mode in ("modeling", "rtm"):
            request = CompileRequest.from_case(
                f"{case.physics}{case.ndim}d", mode, nt=NT
            )
            options = GPUOptions()
            compiled = compile_case(request, options=options)
            cases[request.name] = measure_case(
                request, compiled, options, CRAY_K40, repeats=REPEATS
            )
    return bench_document(cases, nt=NT, snap_period=SNAP_PERIOD,
                          repeats=REPEATS)


@pytest.fixture(scope="module")
def results():
    return _compile_all()


def test_step_compile_regenerates(benchmark):
    doc = run_once(benchmark, _compile_all)
    with open(OUT, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")
    lines = [
        f"  {name:<24} interpreted {r['interpreted_step_s'] * 1e3:7.3f}"
        f" ms/step -> compiled {r['compiled_step_s'] * 1e3:7.3f} ms/step"
        f"  ({r['speedup']:4.2f}x, {r['applied']} rewrites)"
        for name, r in sorted(doc["cases"].items())
    ]
    emit(
        "Compiled vs interpreted step wall-clock (all 12 seed cases)",
        "\n".join(lines) + f"\n  wrote {OUT}",
    )
    assert len(doc["cases"]) == 12


class TestShape:
    @pytest.mark.parametrize("name", _CASE_NAMES)
    def test_never_slower_than_interpreted(self, results, name):
        r = results["cases"][name]
        assert r["compiled_step_s"] <= r["interpreted_step_s"]

    @pytest.mark.parametrize("name", _CASE_NAMES)
    def test_bitwise_verified(self, results, name):
        assert results["cases"][name]["verified"]

    @pytest.mark.parametrize("name", _CASE_NAMES)
    def test_every_case_applies_a_rewrite(self, results, name):
        assert results["cases"][name]["applied"] >= 1

    @pytest.mark.parametrize("name", _CASE_NAMES)
    def test_fewer_launches_per_step(self, results, name):
        launches = results["cases"][name]["launches_per_step"]
        assert launches["compiled"] < launches["interpreted"]


class TestPricing:
    def test_fused_launch_pricing_is_recorded(self):
        compiled = compile_case(
            CompileRequest.from_case("iso2d", "rtm", nt=8)
        )
        fusions = [
            a for a in compiled.applied if a.kind == "fuse-computes"
        ]
        assert fusions
        for a in fusions:
            assert "effective_maxregcount" in a.modelled

    def test_measure_case_round_trips(self):
        request = CompileRequest.from_case("iso2d", "modeling", nt=8)
        options = GPUOptions()
        compiled = compile_case(request, options=options)
        row = measure_case(request, compiled, options, CRAY_K40, repeats=1)
        assert row["verified"] and row["speedup"] > 0
