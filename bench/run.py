"""Repository benchmark: four workloads, end-to-end and per-layer metrics.

Suite (every workload, interleaved repetitions, traced runs, ladders)::

    python3 bench/run.py [--seed 11] [--reps 5] [--workloads a,b] [--smoke]

One workload, one measurement, a JSON result as the last line::

    python3 bench/run.py --workload tenants-burst --seed 3 --seconds 20 --trace 0

Every measurement runs in fresh child processes (``bench/child.py``),
one at a time.  End-to-end numbers come from untraced children; the
per-layer numbers from a separate traced child, and the gap between
the two is reported as ``bench.trace_overhead_frac``.  Host metrics
are medians over passes (or over children for ``setup_s`` and
``peak_rss_mib``); simulated metrics are exact at a fixed seed, and the
SHA-256 of every pass's simulated outputs must agree across all
children, traced or not.  A failed check exits 1 and names the
workload.

The machine's speed drifts by tens of percent over minutes, so host
throughput and set-up time are scaled to a reference speed by a fixed
calibration loop timed around every pass; the raw wall-clock values
are kept as ``wall_*``.  Run ``bench/compare.py`` on two suite results
to judge a change.  Seed 11 is the default; seed 23 is held out for
confirming claims.
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

ROOT = Path(__file__).resolve().parents[1]
RESULTS = ROOT / "bench" / "results"
sys.path.insert(0, str(ROOT))

from bench.layers import LAYERS  # noqa: E402  (no repro import at module level)

WORKLOADS = ("tenants-burst", "sharded-gray", "chaos-integrity", "redstar-f0d2")

#: End-to-end metrics: unit, better, bound.  A bound is relative to the
#: parent's median unless marked absolute.  ``bench/compare.py`` judges
#: changes by these; BENCHMARK.json gates the ones every workload has,
#: with bounds wide enough for the spread across seeds.
METRICS = {
    "events_per_s": ("events/s", "higher", 0.20, "rel"),
    "pairs_per_s": ("pairs/s", "higher", 0.20, "rel"),
    "peak_rss_mib": ("MiB", "lower", 0.10, "rel"),
    "setup_s": ("s", "lower", 0.25, "rel"),
    "wall_events_per_s": ("events/s", "higher", 0.25, "rel"),
    "wall_pairs_per_s": ("pairs/s", "higher", 0.25, "rel"),
    "wall_setup_s": ("s", "lower", 0.25, "rel"),
    "sim_p50_ms": ("ms", "lower", 0.01, "rel"),
    "sim_p99_ms": ("ms", "lower", 0.01, "rel"),
    "sim_slo_attainment": ("fraction", "higher", 0.005, "abs"),
    "sim_capacity_vps": ("vps", "higher", 0.0, "abs"),
    "sim_gflops": ("GFLOP/s", "higher", 0.20, "rel"),
    "sim_speedup_vs_groute": ("x", "higher", 0.01, "rel"),
    "failed_frac": ("fraction", "lower", 0.0, "abs"),
    "sim_undetected_corrupt_frac": ("fraction", "lower", 0.0, "abs"),
}
#: The end-to-end metrics every workload reports (the driver-mode set).
GATED = ("pairs_per_s", "setup_s", "peak_rss_mib", "sim_gflops")

#: Per-layer counters beyond calls/self_ms/ns_per_call: unit, better.
COUNTERS = {
    "queueing.peak_depth": ("count", "lower"),
    "queueing.sim_wait_p99_ms": ("ms", "lower"),
    "batching.round_size_mean": ("vectors", "higher"),
    "routing.forwards": ("count", "lower"),
    "learned.refits": ("count", "lower"),
    "learned.explored_frac": ("fraction", "lower"),
    "health.quarantines": ("count", "lower"),
    "health.hedge_win_frac": ("fraction", "higher"),
    "costmodel.mean_width": ("devices", "lower"),
    "engine.sim_reuse_hit_frac": ("fraction", "higher"),
    "engine.sim_moved_gib": ("GiB", "lower"),
    "engine.sim_memop_frac": ("fraction", "lower"),
    "memory.sim_evictions": ("count", "lower"),
    "memory.sim_evicted_gib": ("GiB", "lower"),
    "integrity.sim_audit_overhead_frac": ("fraction", "lower"),
    "integrity.sim_detection_rate": ("fraction", "higher"),
    "faults.sim_availability_pct": ("%", "higher"),
    "bench.trace_overhead_frac": ("fraction", "lower"),
}
LAYER_STATS = {
    "calls": ("count", "lower"),
    "self_ms": ("ms", "lower"),
    "ns_per_call": ("ns", "lower"),
}

#: Seconds the calibration loop (``bench/child.py:calibrate``) takes on
#: the reference machine, a 2-vCPU x86_64 container under Python 3.11.
#: Host throughput and set-up time are reported at that speed.
REFERENCE_CAL_S = 0.011

#: Children per driver-mode measurement: set-up is timed once per child.
DRIVER_CHILDREN = 3
#: Wall-clock limit for one driver-mode invocation, children included.
DRIVER_LIMIT_S = 170.0
#: Stream-length scale of ``--smoke`` (Redstar runs one pass instead).
SMOKE_SCALE = 0.02


class BenchError(Exception):
    """A child failed or a check did not hold; the message names the workload."""


def layer_units() -> dict:
    """unit and direction of every per-layer metric."""
    out = {
        f"{layer}.{stat}": spec
        for layer in LAYERS
        for stat, spec in LAYER_STATS.items()
    }
    out.update(COUNTERS)
    return out


# ------------------------------------------------------------------ children
def spawn(workload: str, seed: int, *, scale: float = 1.0, mode: str = "time",
          budget: float = 0.0, trace_out: Path | None = None, timeout: float = 170.0) -> dict:
    """Run one child to completion and return its JSON report."""
    cmd = [
        sys.executable, "-m", "bench.child", workload,
        "--seed", str(seed), "--scale", str(scale), "--mode", mode,
        "--budget", str(budget),
    ]
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=max(timeout, 1.0)
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: {mode} child timed out") from None
    if proc.returncode != 0:
        raise BenchError(f"{workload}: {mode} child exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{workload}: {mode} child printed no result")
    return json.loads(lines[-1])


# --------------------------------------------------------------- statistics
def summarize(samples: list[float]) -> dict:
    """Median, quartiles, min, max and count of one metric's samples."""
    values = sorted(samples)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {
        "median": statistics.median(values), "q1": q1, "q3": q3,
        "min": values[0], "max": values[-1], "n": len(values), "samples": samples,
    }


def host_samples(children: list[dict]) -> dict[str, list[float]]:
    """Host metrics: throughput per pass, set-up and RSS per child.

    Throughput and set-up time are scaled to the reference speed by the
    calibration loop timed around each pass (``wall_*`` keep the raw
    values).
    """
    out: dict[str, list[float]] = {
        "pairs_per_s": [], "wall_pairs_per_s": [], "events_per_s": [],
        "wall_events_per_s": [], "setup_s": [], "wall_setup_s": [], "peak_rss_mib": [],
    }
    for child in children:
        for p in child["passes"]:
            speed = p["cal_s"] / REFERENCE_CAL_S
            out["wall_pairs_per_s"].append(child["pairs"] / p["wall_s"])
            out["pairs_per_s"].append(child["pairs"] / p["wall_s"] * speed)
            if child["events"]:
                out["wall_events_per_s"].append(child["events"] / p["wall_s"])
                out["events_per_s"].append(child["events"] / p["wall_s"] * speed)
        out["wall_setup_s"].append(child["setup_s"])
        out["setup_s"].append(child["setup_s"] * REFERENCE_CAL_S / child["setup_cal_s"])
        out["peak_rss_mib"].append(child["peak_rss_mib"])
    return {name: values for name, values in out.items() if values}


def check_digests(workload: str, children: list[dict]) -> None:
    digests = {d for child in children for d in child["digests"]}
    if len(digests) != 1:
        raise BenchError(
            f"{workload}: simulated outputs differ across runs of one seed "
            f"({len(digests)} distinct SHA-256 digests)"
        )


def trace_overhead(traced: dict, untraced: list[dict]) -> float:
    """Traced over untraced pass time, both at the reference speed, minus 1."""
    def ref_s(p):
        return p["wall_s"] * REFERENCE_CAL_S / p["cal_s"]

    plain = statistics.median(ref_s(p) for c in untraced for p in c["passes"])
    traced_s = statistics.median(ref_s(p) for p in traced["passes"])
    return traced_s / plain - 1.0


def per_layer(traced: dict, untraced: list[dict]) -> dict:
    out = dict(traced["layers"])
    out.update(traced["counters"])
    out["bench.trace_overhead_frac"] = trace_overhead(traced, untraced)
    return out


# -------------------------------------------------------------- driver mode
def driver(args) -> int:
    """One workload: the JSON last line carries the gated metric set."""
    deadline = time.monotonic() + DRIVER_LIMIT_S
    RESULTS.mkdir(parents=True, exist_ok=True)

    def left() -> float:
        return deadline - time.monotonic()

    wl, seed = args.workload, args.seed
    try:
        if args.trace:
            untraced = [spawn(wl, seed, budget=args.seconds / 2, timeout=left())]
            traced = spawn(
                wl, seed, mode="trace", timeout=left(),
                trace_out=RESULTS / f"trace-{wl}-seed{seed}.json",
            )
            children = untraced + [traced]
            check_digests(wl, children)
            units = {name: spec[0] for name, spec in layer_units().items()}
            values = per_layer(traced, untraced)
            metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
        else:
            children = [
                spawn(wl, seed, budget=args.seconds / DRIVER_CHILDREN, timeout=left())
                for _ in range(DRIVER_CHILDREN)
            ]
            check_digests(wl, children)
            values = {name: statistics.median(v) for name, v in host_samples(children).items()}
            values.update(children[0]["sim"])
            units = {name: spec[0] for name, spec in METRICS.items()}
            metrics = {name: {"value": values[name], "unit": units[name]} for name in GATED}
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    for name, value in values.items():
        print(f"{wl:16s} {name:36s} {value:14.6g} {units[name]}")
    print(json.dumps({
        "correct": True,
        "attempted": sum(c["attempted"] * len(c["passes"]) for c in children),
        "failed": sum(c["failed"] * len(c["passes"]) for c in children),
        "metrics": metrics,
    }))
    return 0


# --------------------------------------------------------------- suite mode
def suite(args) -> int:
    names = args.workloads
    scale = SMOKE_SCALE if args.smoke else 1.0
    RESULTS.mkdir(parents=True, exist_ok=True)
    timed: dict[str, list[dict]] = {n: [] for n in names}
    t_start = time.perf_counter()
    try:
        for rep in range(args.reps):
            k = rep % len(names)
            for wl in names[k:] + names[:k]:  # rotate the order every round
                timed[wl].append(spawn(wl, args.seed, scale=scale))
        workloads = {}
        for wl in names:
            traced = spawn(
                wl, args.seed, scale=scale, mode="trace",
                trace_out=RESULTS / f"trace-{wl}-seed{args.seed}.json",
            )
            extras = spawn(wl, args.seed, scale=scale, mode="extras")
            check_digests(wl, timed[wl] + [traced])
            workloads[wl] = report(timed[wl], traced, extras)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    result = {
        "seed": args.seed,
        "reps": args.reps,
        "scale": scale,
        "wall_s": time.perf_counter() - t_start,
        "host": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
        },
        "workloads": workloads,
    }
    print_suite(result)
    out = Path(args.out) if args.out else RESULTS / (
        f"results-seed{args.seed}{'-smoke' if args.smoke else ''}.json"
    )
    out.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    print(f"results written to {out}")
    return 0


def report(timed: list[dict], traced: dict, extras: dict) -> dict:
    """One workload's section of the suite results."""
    sim = dict(timed[0]["sim"])
    sim.update({k: v for k, v in extras.items() if k in METRICS})
    metrics = {}
    for name, samples in host_samples(timed).items():
        metrics[name] = summarize(samples)
    for name, value in sim.items():
        metrics[name] = summarize([value])
    for name, m in metrics.items():
        unit, better, bound, kind = METRICS[name]
        m.update(unit=unit, better=better, bound=bound, bound_kind=kind)
    units = layer_units()
    layers = {
        name: {"value": value, "unit": units[name][0]}
        for name, value in per_layer(traced, timed).items()
    }
    return {
        "metrics": metrics,
        "layers": layers,
        "digest": timed[0]["digests"][0],
        "attempted": sum(c["attempted"] * len(c["passes"]) for c in timed),
        "failed": sum(c["failed"] * len(c["passes"]) for c in timed),
        "ladder": extras.get("ladder"),
        "wrapper_ns": traced["wrapper_ns"],
        # Raw per-child measurements: wall, process CPU and calibration
        # seconds of every pass.
        "children": [
            {k: c[k] for k in ("setup_s", "setup_cal_s", "peak_rss_mib", "passes")}
            for c in timed
        ],
    }


def print_suite(result: dict) -> None:
    print(f"seed {result['seed']}  reps {result['reps']}  scale {result['scale']}  "
          f"wall {result['wall_s']:.1f} s")
    print(f"{'workload':16s} {'metric':28s} {'unit':9s} {'median':>12s} {'q1':>12s} "
          f"{'q3':>12s} {'min':>12s} {'max':>12s} {'n':>4s}")
    for wl, w in result["workloads"].items():
        for name in METRICS:
            m = w["metrics"].get(name)
            if m is None:
                continue
            print(f"{wl:16s} {name:28s} {m['unit']:9s} {m['median']:12.6g} {m['q1']:12.6g} "
                  f"{m['q3']:12.6g} {m['min']:12.6g} {m['max']:12.6g} {m['n']:4d}")
    print()
    print(f"{'workload':16s} {'layer':10s} {'calls':>10s} {'self_ms':>10s} {'ns/call':>9s}")
    for wl, w in result["workloads"].items():
        layers = w["layers"]
        for layer in LAYERS:
            calls = layers[f"{layer}.calls"]["value"]
            if calls:
                print(f"{wl:16s} {layer:10s} {calls:10.0f} "
                      f"{layers[f'{layer}.self_ms']['value']:10.1f} "
                      f"{layers[f'{layer}.ns_per_call']['value']:9.0f}")
        overhead = layers["bench.trace_overhead_frac"]["value"]
        print(f"{wl:16s} {'overhead':10s} trace {overhead:+.1%}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--workload", choices=WORKLOADS,
                    help="measure one workload and print one JSON result")
    ap.add_argument("--seconds", type=float, default=25.0,
                    help="with --workload: seconds of measured passes")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="with --workload: 1 reports the per-layer metrics")
    ap.add_argument("--reps", type=int, default=5, help="suite repetitions per workload")
    ap.add_argument("--workloads", default=",".join(WORKLOADS),
                    help="comma-separated suite workloads")
    ap.add_argument("--smoke", action="store_true", help=f"suite at {SMOKE_SCALE:g} scale")
    ap.add_argument("--out", help="suite results JSON path")
    args = ap.parse_args(argv)
    if args.workload:
        return driver(args)
    args.workloads = [w for w in args.workloads.split(",") if w]
    unknown = sorted(set(args.workloads) - set(WORKLOADS))
    if unknown or not args.workloads:
        ap.error(f"unknown workloads {unknown}; choose from {', '.join(WORKLOADS)}")
    if args.reps < 1:
        ap.error("--reps must be >= 1")
    return suite(args)


if __name__ == "__main__":
    sys.exit(main())
