"""Compare two sets of benchmark runs, workload by workload, metric by metric.

    python3 benchmarks/wall/compare.py A.json B.json

``A`` is the parent (the reference), ``B`` the change; each is a set file
``run.py --out`` appends to. The i-th run of a workload in ``A`` is paired
with the i-th run of that workload in ``B``. For every (workload, metric)
the tool prints each side's median and quartiles, how many pairs ``B``
won (ties count for neither side) and a verdict, following the rules of
the choosing-metrics guide (sections 6 to 8) with the bounds declared in
``BENCHMARK.json``:

* ``regressed``  — B's median is worse than A's by more than the bound;
* ``unresolved`` — A's own spread (quartile distance over median) is wider
  than the bound, unless every run of B reads better than every run of A;
* ``improved``   — B won at least nine tenths of the pairs and the medians
  differ by more than A's quartile distance (or, when A's spread exceeds
  the bound, every B run beats every A run);
* ``unchanged``  — otherwise.

Per-layer metrics have no bound; they read ``improved``, ``worsened`` or
``unchanged`` by the pair rule alone. A gain does not count when more
outputs fail: each workload also gets a ``failed_fraction`` row, which is
``regressed`` when B failed a larger share of its checked items than A,
or when any run of B did not verify. Exit status 1 when any end-to-end
pair or ``failed_fraction`` is regressed or unresolved, else 0; exit
status 2, without a verdict, when the two sets were not run with the same
``size``, ``seconds`` and ``trace``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"
#: run settings both sets must share, or their runs are not comparable
SETTINGS = ("size", "seconds", "trace")


def load_runs(path: Path) -> dict[str, list[dict]]:
    """``workload -> [run, ...]`` in file order."""
    with open(path, encoding="utf-8") as fh:
        runs = json.load(fh)["runs"]
    out: dict[str, list[dict]] = {}
    for run in runs:
        out.setdefault(run["workload"], []).append(run)
    return out


def declared_metrics() -> dict[str, dict]:
    with open(BENCHMARK, encoding="utf-8") as fh:
        doc = json.load(fh)
    return {
        **{m["name"]: m for m in doc["per_layer"]},
        **{m["name"]: m for m in doc["end_to_end"]},
    }


def summary(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(a: list[float], b: list[float], better: str,
            bound: float | None) -> tuple[str, int, int]:
    """``(verdict, B wins, pairs)`` for one (workload, metric)."""
    sign = 1.0 if better == "lower" else -1.0
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if sign * (y - x) < 0)
    losses = sum(1 for x, y in pairs if sign * (y - x) > 0)
    a_q1, a_med, a_q3 = summary(a)
    b_med = statistics.median(b)
    gain = sign * (a_med - b_med)          # > 0: B is better
    spread = a_q3 - a_q1
    beats_all = all(sign * (y - x) < 0 for x in a for y in b)
    if bound is None:
        if wins >= 0.9 * len(pairs) and gain > spread:
            return "improved", wins, len(pairs)
        if losses >= 0.9 * len(pairs) and -gain > spread:
            return "worsened", wins, len(pairs)
        return "unchanged", wins, len(pairs)
    if -gain > bound * abs(a_med):
        return "regressed", wins, len(pairs)
    if spread > bound * abs(a_med):
        return ("improved" if beats_all else "unresolved"), wins, len(pairs)
    if wins >= 0.9 * len(pairs) and gain > spread:
        return "improved", wins, len(pairs)
    return "unchanged", wins, len(pairs)


def check_settings(a_runs: dict[str, list[dict]], b_runs: dict[str, list[dict]]) -> None:
    """Refuse two sets whose runs differ in any of :data:`SETTINGS`."""
    for key in SETTINGS:
        seen = {
            json.dumps(run.get(key))
            for runs in (a_runs, b_runs) for ws in runs.values() for run in ws
        }
        if len(seen) > 1:
            raise ValueError(
                f"the sets were run with different {key}: {', '.join(sorted(seen))}"
            )


def failed_row(workload: str, a: list[dict], b: list[dict]) -> dict:
    """The ``failed_fraction`` row: regressed when B failed a larger share
    of its checked items than A, or when any run of B did not verify."""
    def fraction(runs):
        return sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)

    a_frac = [r["failed"] / r["attempted"] for r in a]
    b_frac = [r["failed"] / r["attempted"] for r in b]
    worse = fraction(b) > fraction(a) or not all(r["correct"] for r in b)
    return {
        "workload": workload, "metric": "failed_fraction", "unit": "ratio",
        "a": summary(a_frac), "b": summary(b_frac),
        "wins": sum(1 for x, y in zip(a_frac, b_frac) if y < x),
        "pairs": min(len(a), len(b)),
        "verdict": "regressed" if worse else "unchanged", "bound": 0.0,
    }


def compare(a_path: Path, b_path: Path) -> tuple[list[dict], bool]:
    declared = declared_metrics()
    a_runs, b_runs = load_runs(a_path), load_runs(b_path)
    check_settings(a_runs, b_runs)
    rows, ok = [], True
    for workload in sorted(set(a_runs) & set(b_runs)):
        rows.append(failed_row(workload, a_runs[workload], b_runs[workload]))
        ok = ok and rows[-1]["verdict"] != "regressed"
        names = sorted(
            set.intersection(*(set(r["metrics"]) for r in a_runs[workload]),
                             *(set(r["metrics"]) for r in b_runs[workload]))
        )
        for name in names:
            if name not in declared:
                continue
            m = declared[name]
            a = [r["metrics"][name]["value"] for r in a_runs[workload]]
            b = [r["metrics"][name]["value"] for r in b_runs[workload]]
            result, wins, pairs = verdict(a, b, m["better"], m.get("bound"))
            if "bound" in m and result in ("regressed", "unresolved"):
                ok = False
            rows.append({
                "workload": workload, "metric": name, "unit": m["unit"],
                "a": summary(a), "b": summary(b), "wins": wins,
                "pairs": pairs, "verdict": result, "bound": m.get("bound"),
            })
    return rows, ok


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("a", type=Path, help="reference set (the parent)")
    p.add_argument("b", type=Path, help="set to judge (the change)")
    args = p.parse_args(argv)
    try:
        rows, ok = compare(args.a, args.b)
    except ValueError as exc:
        print(f"compare.py: {exc}", file=sys.stderr)
        return 2
    print(f"{'workload':<16} {'metric':<30} {'A median [q1, q3]':<34} "
          f"{'B median [q1, q3]':<34} {'B wins':<8} verdict")
    for r in rows:
        a_side, b_side = (
            "{1:.5g} [{0:.5g}, {2:.5g}]".format(*r[side]) for side in ("a", "b")
        )
        wins = f"{r['wins']}/{r['pairs']}"
        bound = "" if r["bound"] is None else f" (bound {100 * r['bound']:.0f}%)"
        print(
            f"{r['workload']:<16} {r['metric']:<30} {a_side:<34} {b_side:<34} "
            f"{wins:<8} {r['verdict']}{bound}"
        )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
