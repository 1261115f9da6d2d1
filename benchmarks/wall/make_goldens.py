"""Write ``goldens.json``: the sha256 digests of every workload's outputs.

Run from the repository root after a change that is meant to alter an
output (nothing else should)::

    python3 benchmarks/wall/make_goldens.py [--size full] [--out PATH]

Seeded workloads get one entry per seed in :data:`SEEDS` (2 is the
held-out seed); fixed-input workloads get one ``fixed`` entry.
Each entry comes from one repetition run exactly as ``run.py`` runs it.
A repetition that reports a problem, or whose digests disagree with the
workload's oracle where the oracle covers them, is refused: a golden is
never written from an output that does not verify.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from run import GOLDENS, golden_key, spawn
from workloads import SIZES, WORKLOADS

SEEDS = (1, 2)


def golden_for(name: str, seed: int, size: str) -> dict[str, str]:
    workload = WORKLOADS[name]
    rep = spawn("rep", name, seed, size)
    if "error" in rep:
        raise SystemExit(f"{name} seed {seed}: repetition failed ({rep['error']})")
    if rep["problems"]:
        raise SystemExit(f"{name} seed {seed}: {'; '.join(rep['problems'])}")
    if workload.oracle is not None:
        oracle = spawn("oracle", name, seed, size)
        if "error" in oracle:
            raise SystemExit(f"{name} seed {seed}: oracle failed ({oracle['error']})")
        wrong = sorted(
            k for k, v in oracle["digests"].items() if rep["digests"].get(k) != v
        )
        if wrong:
            raise SystemExit(f"{name} seed {seed}: disagrees with the oracle on {wrong}")
    return rep["digests"]


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--size", choices=SIZES, default="full")
    p.add_argument("--out", type=Path, default=GOLDENS)
    args = p.parse_args(argv)

    doc = {"schema": 1, "workloads": {}}
    if args.out.is_file():
        with open(args.out, encoding="utf-8") as fh:
            doc = json.load(fh)
    for name, workload in WORKLOADS.items():
        seeds = SEEDS if workload.seeded else (0,)
        entry = doc["workloads"].setdefault(name, {}).setdefault(args.size, {})
        for seed in seeds:
            entry[golden_key(workload, seed)] = golden_for(name, seed, args.size)
            print(f"{name} {args.size} {golden_key(workload, seed)}: "
                  f"{len(entry[golden_key(workload, seed)])} digests")
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
