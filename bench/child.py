"""One measured child process: set up one workload, run passes, report JSON.

Run from the repository root as ``python3 -m bench.child WORKLOAD ...``
(``bench/run.py`` does this; one child per repetition, one at a time).
``setup_s`` runs from the first statement of this module, before
``import repro``, to the start of the first pass: it covers imports,
input generation and server construction.  The last line of standard
output is one JSON object.

A fixed pure-Python loop is timed before the first pass and after every
pass (``cal_s``).  The machine's speed drifts by tens of percent over
minutes; the parent divides it out (see ``bench/run.py``).

Modes:

* ``time`` — untraced passes.  With ``--budget 0`` exactly one timed
  run (``UNITS`` passes); otherwise passes until the next one would
  overrun ``--budget`` seconds (at least one).
* ``trace`` — the layer tracer is installed before set-up, then one
  timed run; reports per-layer totals and writes a Chrome trace.
* ``extras`` — untimed simulated metrics (capacity ladder, speedup).
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import heapq  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))


def _spin(n: int) -> None:
    heap: list = []
    table: dict = {}
    for i in range(n):
        table[i & 1023] = i
        heapq.heappush(heap, (table.get((i * 7) & 1023, 0), i))
        if len(heap) > 64:
            heapq.heappop(heap)


def calibrate(reps: int = 5, n: int = 20_000) -> float:
    """Median seconds of a fixed pure-Python loop: the machine's current speed."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        _spin(n)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def main(argv=None) -> int:
    from bench.workloads import CheckFailed

    try:
        return run(argv)
    except CheckFailed as exc:
        print(f"bench: check failed: {exc}", file=sys.stderr)
        return 1


def run(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="bench.child")
    ap.add_argument("workload")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--scale", type=float, default=1.0)
    ap.add_argument("--mode", choices=("time", "trace", "extras"), default="time")
    ap.add_argument("--budget", type=float, default=0.0)
    ap.add_argument("--trace-out", default=None)
    args = ap.parse_args(argv)

    from bench import workloads
    from bench.layers import LayerTracer

    if args.mode == "extras":
        print(json.dumps(workloads.extras(args.workload, args.seed, args.scale)))
        return 0
    tracer = LayerTracer().install() if args.mode == "trace" else None

    cls = workloads.REGISTRY[args.workload]
    instance = cls(args.seed, args.scale)
    setup_s = time.perf_counter() - T0
    units = cls.UNITS
    if args.scale < 1.0:
        units = max(1, round(units * args.scale))
    cals = [calibrate()]
    passes = []
    first = None
    digests = set()
    start = time.perf_counter()
    while True:
        c0, w0 = time.process_time(), time.perf_counter()
        result = instance.run()
        w1, c1 = time.perf_counter(), time.process_time()
        cals.append(calibrate())
        passes.append({"wall_s": w1 - w0, "cpu_s": c1 - c0, "cal_s": (cals[-2] + cals[-1]) / 2})
        digests.add(result.digest)
        if first is None:
            first = result
        del result
        if args.mode == "trace" or args.budget <= 0:
            if len(passes) >= units:
                break
        elif time.perf_counter() - start + passes[-1]["wall_s"] > args.budget:
            break
    out = {
        "workload": args.workload,
        "seed": args.seed,
        "setup_s": setup_s,
        "setup_cal_s": cals[0],
        "passes": passes,
        "attempted": first.attempted,
        "failed": first.failed,
        "pairs": first.pairs,
        "events": first.events,
        "digests": sorted(digests),
        "sim": first.sim,
        "counters": first.counters,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        tracer.uninstall()
        out["layers"] = tracer.metrics()
        out["wrapper_ns"] = tracer.wrapper_ns
        if args.trace_out:
            tracer.save_chrome_trace(args.trace_out)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
