"""One repetition of one workload, in a fresh interpreter.

run.py starts this script once per repetition so that nothing cached in
one process (a memo, a warmed allocator) carries into the next timed call.
It prints one JSON line:

* ``--role rep``: set up the workload, time its public call, then digest
  and check the outputs (after the timed section). Two speed probes sample
  the machine throughout set-up and the timed call (:class:`SpeedSampler`),
  so run.py can express every time in reference seconds. With
  ``--layers`` the shims of :mod:`layers` are installed around the timed
  call only.
* ``--role oracle``: the expected digests from the workload's independent
  reference path, computed once per run after the timed repetitions.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import signal
import statistics
import sys
import time

#: seconds between two speed probes
PROBE_INTERVAL_S = 0.05


class _Pair:
    __slots__ = ("key", "value")

    def __init__(self, key, value):
        self.key, self.value = key, value


def loop_probe() -> float:
    """Seconds of a tight arithmetic loop (about 0.7 ms on the reference
    machine): a small code footprint, like the inner loops of NumPy."""
    t0 = time.perf_counter()
    total = 0
    for i in range(20_000):
        total += i
    return time.perf_counter() - t0


def object_probe() -> float:
    """Seconds of object, call, attribute and dict traffic (about 0.8 ms):
    the large code footprint of the interpreted layers, which a neighbour
    on the same core slows down more than a tight loop. The cyclic
    collector is off meanwhile, so the probe never walks the library's
    heap."""
    t0 = time.perf_counter()
    collecting = gc.isenabled()
    gc.disable()
    table: dict[int, int] = {}
    for i in range(2_500):
        pair = _Pair(i & 255, i)
        table[pair.key] = table.get(pair.key, 0) + pair.value
    if collecting:
        gc.enable()
    return time.perf_counter() - t0


PROBES = {"loop": loop_probe, "objects": object_probe}


class SpeedSampler:
    """Runs the probes in turn from a real-time interval timer
    (``SIGALRM``), so the machine is sampled *during* the timed call and
    not only next to it: the speed of the shared machine changes within a
    second, which samples taken before and after a call of seconds cannot
    follow. Neither probe reads state of the library, so what they cost
    is the machine's speed at that moment, not the heap's. Each sample is
    ``(start, probe, seconds)``; the caller subtracts the samples that
    fell inside a timed period from it."""

    def __init__(self):
        self.samples: list[tuple[float, str, float]] = []

    def sample(self, *_signal_args) -> None:
        kind = tuple(PROBES)[len(self.samples) % len(PROBES)]
        start = time.perf_counter()
        self.samples.append((start, kind, PROBES[kind]()))

    def sample_each(self) -> None:
        for _ in PROBES:
            self.sample()

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def probe_s(self, t0: float, t1: float) -> float:
        """Seconds the probes took inside ``[t0, t1)``."""
        return sum(dt for start, _, dt in self.samples if t0 <= start < t1)

    def speed(self, t0: float, t1: float) -> dict[str, float]:
        """The mean seconds of each probe started inside ``[t0, t1)``."""
        return {
            kind: statistics.fmean(
                dt for start, k, dt in self.samples if k == kind and t0 <= start < t1
            )
            for kind in PROBES
        }


def main(argv: list[str] | None = None) -> int:
    # the sampler starts first: importing NumPy and the library is set-up
    sampler = SpeedSampler()
    sampler.start()
    from workloads import SIZES, WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--role", choices=("rep", "oracle"), required=True)
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--size", choices=SIZES, required=True)
    p.add_argument("--t-spawn", type=float, required=True,
                   help="time.monotonic() when the parent started this process")
    p.add_argument("--layers", action="store_true")
    p.add_argument("--chrome", default=None, help="write the spans here")
    args = p.parse_args(argv)

    workload = WORKLOADS[args.workload]
    if args.role == "oracle":
        sampler.stop()
        inputs = workload.setup(args.seed, args.size)
        print(json.dumps({"digests": workload.oracle(inputs)}))
        return 0

    inputs = workload.setup(args.seed, args.size)
    setup_end = time.perf_counter()
    setup_s = time.monotonic() - args.t_spawn
    sampler.sample_each()  # every period gets at least one sample of each

    rec = None
    if args.layers:
        import layers

        rec = layers.Recorder()
        patches = layers.install(rec)
    t0 = time.perf_counter()
    try:
        outputs = workload.run(inputs)
    finally:
        t1 = time.perf_counter()
        if rec is not None:
            layers.uninstall(patches)
    sampler.stop()
    sampler.sample_each()
    result = {
        "setup_s": setup_s - sampler.probe_s(-math.inf, setup_end),
        "wall_s": t1 - t0 - sampler.probe_s(t0, t1),
        "call_s": t1 - t0,
        "probe_s": {
            "setup": sampler.speed(-math.inf, t0),
            "call": sampler.speed(t0, math.inf),
        },
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "digests": workload.digests(outputs),
        "problems": workload.check(outputs),
    }
    if workload.rate is not None:
        result["work"] = workload.rate[2](inputs)
    if rec is not None:
        # the shims' spans include the probes that fired inside them, so
        # the layers are accounted against the call's full duration
        result["layers"] = rec.metrics(t1 - t0)
        result["problems"] += [
            f"shim left installed: {name}" for name in layers.find_shims()
        ]
        if args.chrome:
            rec.write_chrome_trace(args.chrome)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
