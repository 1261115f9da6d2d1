"""Host wall-clock benchmark of the reproduction's public entry points.

Run from the repository root::

    python3 benchmarks/wall/run.py [--workload W] [--seed S] [--seconds N]
                                   [--trace [0|1]] [--out F]

Each workload runs for ``--seconds``: one fresh single-threaded child
interpreter per repetition, one at a time, timing only the workload's
public call (``--size smoke`` runs a single repetition instead).
Outputs are digested after the timed section and checked against the
committed golden of the seed, or, for a seed without one, against the
workload's independent oracle. Every metric is printed with
its unit; the last line is one JSON object. Exit status: 0 when every
output verified, 1 when one did not, 2 when the library is missing.

Times are reported in *reference seconds*: host seconds divided by the
machine's slowdown while they were spent, which two fixed speed probes
measure in turn every 50 ms throughout set-up and the timed call
(``child.SpeedSampler``), so that the drift of a shared machine does not
read as a change of the code. The raw host seconds are printed alongside.

``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics instead (see ``layers.py``); ``--out F`` appends the
run, with every sample and the machine it ran on, to the set file ``F``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy

from layers import PER_LAYER
from workloads import SIZES, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
GOLDENS = HERE / "goldens.json"
TRACE_DIR = HERE / "out"

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"))
DEFAULT_SECONDS = 28.0
#: each speed probe at the machine speed that defines a reference second
#: (a typical probe on the quiet 2-vCPU Xeon the baseline ran on)
REFERENCE_PROBE_S = {"loop": 0.0007, "objects": 0.0008}
#: the object probe's weight in the slowdown of set-up (interpreter start
#: and imports, which follow the loop probe more closely than the layers)
SETUP_INTERPRETED = 0.25
TIME_UNITS = {"s", "ms", "us"}
#: one repetition may never take longer than this
REP_TIMEOUT_S = 170.0


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(role: str, workload: str, seed: int, size: str,
          layers: bool = False, chrome: Path | None = None) -> dict:
    """Run one child to completion; its parsed JSON line, or
    ``{"error": ...}`` when it failed."""
    cmd = [
        sys.executable, str(HERE / "child.py"), "--role", role,
        "--workload", workload, "--seed", str(seed), "--size", size,
    ]
    if layers:
        cmd.append("--layers")
    if chrome is not None:
        cmd += ["--chrome", str(chrome)]
    t_spawn = time.monotonic()
    cmd += ["--t-spawn", repr(t_spawn)]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
            text=True, timeout=REP_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {REP_TIMEOUT_S:.0f} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"exit status {proc.returncode}"}
    out = json.loads(lines[-1])
    out["elapsed_s"] = time.monotonic() - t_spawn
    return out


def load_goldens(path: Path) -> dict:
    if not path.is_file():
        return {}
    with open(path, encoding="utf-8") as fh:
        return json.load(fh).get("workloads", {})


def golden_key(workload, seed: int) -> str:
    return str(seed) if workload.seeded else "fixed"


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


# ----------------------------------------------------------------------
def slowdown(rep: dict, period: str, interpreted: float) -> float:
    """How much slower than the reference the machine ran during one
    period of this rep (``setup`` or the timed ``call``): the geometric
    mean of the two probes' slowdowns, the object probe weighted by
    ``interpreted``. A neighbour on the same core slows interpreted code
    (a large code footprint) more than a tight loop, and NumPy's inner
    loops about as much as a tight loop."""
    probes = rep["probe_s"][period]
    return (
        (probes["loop"] / REFERENCE_PROBE_S["loop"]) ** (1.0 - interpreted)
        * (probes["objects"] / REFERENCE_PROBE_S["objects"]) ** interpreted
    )


def rep_metrics(rep: dict, interpreted: float) -> dict[str, float]:
    """One repetition's metrics, times in reference seconds."""
    s = slowdown(rep, "call", interpreted)
    if not rep["traced"]:
        return {
            "setup_s": rep["setup_s"] / slowdown(rep, "setup", SETUP_INTERPRETED),
            "wall_s": rep["wall_s"] / s,
            "peak_rss_mb": rep["peak_rss_mb"],
        }
    units = dict(PER_LAYER)
    out = {
        name: value / s if units.get(name) in TIME_UNITS else value
        for name, value in rep["layers"].items()
    }
    out["traced_wall_s"] = rep["wall_s"] / s
    return out


def run_workload(name: str, seed: int, seconds: float, size: str,
                 trace: bool, goldens: dict) -> dict:
    workload = WORKLOADS[name]
    budget = 0.0 if size == "smoke" else seconds
    reps: list[dict] = []
    start = time.monotonic()
    while True:
        layers = trace and len(reps) % 2 == 1
        chrome = None
        if layers and not any(r["traced"] for r in reps):
            TRACE_DIR.mkdir(exist_ok=True)
            chrome = TRACE_DIR / f"{name}-seed{seed}.trace.json"
        rep = spawn("rep", name, seed, size, layers=layers, chrome=chrome)
        rep["traced"] = layers
        reps.append(rep)
        enough = len(reps) >= (2 if trace else 1)
        if enough and time.monotonic() - start + rep.get("elapsed_s", 0.0) > budget:
            break

    expected, check = expected_digests(workload, seed, size, goldens)
    attempted, failed, notes = verify(reps, expected)
    good = [r for r in reps if "error" not in r]
    samples: dict[str, list[float]] = {}
    for rep in good:
        for metric, value in rep_metrics(rep, workload.interpreted).items():
            samples.setdefault(metric, []).append(value)
    plain = [r for r in good if not r["traced"]]

    def median(metric):
        return statistics.median(samples.get(metric) or [0.0])

    def raw_median(values):
        return statistics.median(values or [0.0])

    info = {
        "raw_wall_s": {"value": raw_median([r["wall_s"] for r in plain]), "unit": "s"},
        "raw_setup_s": {"value": raw_median([r["setup_s"] for r in plain]), "unit": "s"},
        "machine_slowdown": {
            "value": raw_median([slowdown(r, "call", workload.interpreted) for r in good]),
            "unit": "ratio",
        },
    }
    if workload.rate is not None and plain:
        rate_name, rate_unit, _ = workload.rate
        info[rate_name] = {
            "value": plain[0]["work"] / median("wall_s"), "unit": rate_unit,
        }
    if trace:
        declared = PER_LAYER
        wall = median("wall_s") or float("nan")
        derived = {
            "gpusim.launches_per_s": median("gpusim.launch.count") / wall,
            "propagators.mcell_steps_per_s": median("cells_stepped") / 1e6 / wall,
            "tracing_overhead": median("traced_wall_s") / wall - 1.0,
        }
    else:
        declared = END_TO_END
        derived = {}
    metrics = {
        metric: {"value": derived.get(metric, median(metric)), "unit": unit}
        for metric, unit in declared
    }
    return {
        "workload": name,
        "seed": seed,
        "size": size,
        "seconds": seconds,
        "trace": trace,
        "check": check,
        "notes": notes,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "info": info,
        "samples": samples,
        "reps": [
            {k: v for k, v in r.items() if k != "digests"} for r in reps
        ],
    }


def expected_digests(workload, seed: int, size: str, goldens: dict):
    """The digests every repetition must reproduce, and how they were
    obtained: the committed golden, else the workload's oracle."""
    golden = goldens.get(workload.name, {}).get(size, {}).get(
        golden_key(workload, seed)
    )
    if golden is not None:
        what = f"seed {seed}" if workload.seeded else "fixed inputs"
        return golden, f"committed golden ({what})"
    if workload.oracle is None:
        return None, "no golden committed and no oracle: FAIL"
    oracle = spawn("oracle", workload.name, seed, size)
    if "error" in oracle:
        return None, f"oracle failed ({oracle['error']}): FAIL"
    return oracle["digests"], f"oracle: {workload.oracle_name}"


def verify(reps: list[dict], expected: dict | None):
    """``(attempted, failed, notes)`` over every checked item of every
    repetition. An item fails when it differs from the expected digest or
    from the first repetition's (items the oracle does not cover are held
    to determinism), or when its repetition crashed or reported problems."""
    good = [r for r in reps if "error" not in r]
    reference = good[0]["digests"] if good else {}
    items = sorted(set(reference) | set(expected or {}))
    per_rep = max(1, len(items))
    attempted = failed = 0
    notes: list[str] = []
    if expected is None:
        notes.append("outputs could not be checked")
    else:
        uncovered = [k for k in reference if k not in expected]
        if uncovered:
            notes.append(
                f"{len(uncovered)} item(s) held to determinism across "
                "repetitions only"
            )
    for i, rep in enumerate(reps):
        attempted += per_rep
        if "error" in rep:
            failed += per_rep
            notes.append(f"repetition {i}: {rep['error']}")
            continue
        bad = sorted(
            key for key in items
            if expected is None
            or rep["digests"].get(key) != reference.get(key)
            or (key in expected and rep["digests"].get(key) != expected[key])
        )
        notes += [f"repetition {i}: {problem}" for problem in rep["problems"]]
        failed += min(per_rep, len(bad) + len(rep["problems"]))
        if bad:
            notes.append(f"repetition {i}: digest mismatch in {', '.join(bad)}")
    return attempted, failed, notes


# ----------------------------------------------------------------------
def print_report(report: dict) -> None:
    reps = report["reps"]
    traced = sum(1 for r in reps if r["traced"])
    print(
        f"{report['workload']}  seed {report['seed']}  size {report['size']}  "
        f"repetitions {len(reps)} ({traced} traced)"
    )
    print(f"  check: {report['check']}")
    for note in report["notes"]:
        print(f"  note: {note}")
    for name, m in {**report["metrics"], **report["info"]}.items():
        values = report["samples"].get(name)
        spread = ""
        if values and len(values) > 1:
            q1, _, q3 = quartiles(values)
            spread = f"  (median of {len(values)}; quartiles {q1:.6g} .. {q3:.6g})"
        print(f"  {name:<32} {m['value']:>14.6g} {m['unit']}{spread}")
    frac = report["failed"] / report["attempted"]
    print(
        f"  {'failed_fraction':<32} {frac:>14.6g} ratio "
        f"({report['failed']} of {report['attempted']} checked items)"
    )


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }


def append_run(path: Path, record: dict) -> None:
    runs = []
    if path.is_file():
        with open(path, encoding="utf-8") as fh:
            runs = json.load(fh)["runs"]
    runs.append(record)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"runs": runs}, fh, indent=1, sort_keys=True)
        fh.write("\n")


def parse_args(argv):
    p = argparse.ArgumentParser(
        description="Wall-clock benchmark of the reproduction's public entry points."
    )
    p.add_argument("--workload", choices=sorted(WORKLOADS),
                   help="one workload (default: all four in turn)")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                   help="measuring time per workload (--size smoke: one repetition)")
    p.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                   choices=(0, 1), help="report per-layer metrics")
    p.add_argument("--out", type=Path, help="append the run to this set file")
    p.add_argument("--size", choices=SIZES, default="full")
    p.add_argument("--goldens", type=Path, default=GOLDENS)
    return p.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"run.py: the repro package is not under {SRC}", file=sys.stderr)
        return 2
    goldens = load_goldens(args.goldens)
    names = [args.workload] if args.workload else list(WORKLOADS)
    reports = []
    for name in names:
        env = {**environment(), "loadavg": list(os.getloadavg())}
        report = run_workload(
            name, args.seed, args.seconds, args.size, bool(args.trace), goldens,
        )
        report["env"] = env
        print_report(report)
        if args.out is not None:
            append_run(args.out, report)
        reports.append(report)

    if len(reports) == 1:
        metrics = reports[0]["metrics"]
    else:
        metrics = {
            f"{r['workload']}.{name}": m
            for r in reports for name, m in r["metrics"].items()
        }
    correct = all(r["correct"] for r in reports)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
