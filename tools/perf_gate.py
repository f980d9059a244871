#!/usr/bin/env python
"""CI perf-regression gate over the serving benchmark payload.

Compares the freshly benchmarked ``BENCH_serve.json`` against the
baseline committed at a git rev (default ``HEAD``) and fails — exit
code 1 — when the ``throughput`` section shows

* events/sec dropping more than ``--tolerance`` (default 20 %), or
* peak RSS growing more than ``--tolerance``.

Wall-clock events/sec moves with runner hardware, so the gate checks
``events_per_cal`` under the same tolerance as well: events/sec times
the time of a fixed pure-Python calibration loop run in the same
process around the benchmark, i.e. events served per calibration loop.
A real core regression shows up there even when the runner itself got
faster.  A baseline without a ``throughput`` section (older payloads)
passes trivially — the gate arms itself on the first commit that
carries one; a baseline without ``events_per_cal`` skips that gauge
with a note.  The throughput section's ``gray`` run (sharded serving
with learned routing, health and hedging under a straggler) is gauged
the same way on its ``events_per_cal``, and skipped with a note when
the baseline predates it.

The ``integrity`` section gets an *absolute* bound instead of a
baseline diff: spot-mode auditing on the clean throughput workload
must charge less than 10 % of compute time to audit recomputation.
That figure is a pure function of the seed (the integrity layer draws
no RNG state), so it gates hard on every run; the wall events/sec
ratio vs integrity-off is printed for context only.  A fresh payload
without an ``integrity`` section passes trivially.

The ``routing`` section gets the same treatment: on the clean
fresh-sync cell of the routing sweep, the learned policy's *simulated*
throughput must stay within 15 % of least-loaded's (the per-decision
model work may reshape placements, never tank them).  The wall-clock
ratio is printed for context only.

Usage::

    python tools/perf_gate.py                 # fresh ./BENCH_serve.json vs HEAD
    python tools/perf_gate.py --fresh out.json --baseline-rev HEAD~1
    python tools/perf_gate.py --tolerance 0.3
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path


def load_fresh(path: Path) -> dict:
    try:
        return json.loads(path.read_text())
    except FileNotFoundError:
        sys.exit(f"perf gate: fresh payload {path} not found — "
                 "run the serving benchmarks first")
    except json.JSONDecodeError as exc:
        sys.exit(f"perf gate: fresh payload {path} is not valid JSON: {exc}")


def load_baseline(rev: str, path: Path) -> dict | None:
    """The payload committed at ``rev``, or ``None`` when absent."""
    proc = subprocess.run(
        ["git", "show", f"{rev}:{path.as_posix()}"],
        capture_output=True, text=True,
    )
    if proc.returncode != 0:
        return None
    try:
        return json.loads(proc.stdout)
    except json.JSONDecodeError:
        return None


def check(fresh: dict, baseline: dict, tolerance: float) -> list[str]:
    """Human-readable failure lines; empty when the gate passes."""
    base_t = baseline.get("throughput")
    if base_t is None:
        print("perf gate: baseline has no throughput section; passing")
        return []
    fresh_t = fresh.get("throughput")
    if fresh_t is None:
        return ["fresh payload has no throughput section — did the "
                "throughput benchmark run?"]

    failures = []

    def gauge(name, fresh_v, base_v, bigger_is_better):
        if not base_v:
            return
        ratio = fresh_v / base_v
        if bigger_is_better:
            ok, verb = ratio >= 1.0 - tolerance, "dropped"
            delta = 1.0 - ratio
        else:
            ok, verb = ratio <= 1.0 + tolerance, "grew"
            delta = ratio - 1.0
        arrow = "ok  " if ok else "FAIL"
        print(f"perf gate: {arrow} {name}: {base_v:,.1f} -> {fresh_v:,.1f} "
              f"({delta:+.1%} {verb}, tolerance {tolerance:.0%})")
        if not ok:
            failures.append(f"{name} {verb} {delta:.1%} (> {tolerance:.0%})")

    gauge(
        "events/sec (wall)",
        fresh_t["fast"]["events_per_s_wall"],
        base_t["fast"]["events_per_s_wall"],
        bigger_is_better=True,
    )
    if "events_per_cal" in base_t:
        gauge(
            "events per calibration loop",
            fresh_t["events_per_cal"],
            base_t["events_per_cal"],
            bigger_is_better=True,
        )
    else:
        print("perf gate: note baseline throughput has no events_per_cal; "
              "skipping the calibrated gauge")
    base_gray = base_t.get("gray", {}).get("events_per_cal")
    if base_gray is None:
        print("perf gate: note baseline throughput has no gray.events_per_cal; "
              "skipping the gray gauge")
    elif "gray" not in fresh_t:
        failures.append("fresh throughput section has no gray run")
    else:
        gauge(
            "gray events per calibration loop",
            fresh_t["gray"]["events_per_cal"],
            base_gray,
            bigger_is_better=True,
        )
    gauge(
        "peak RSS (MiB)",
        fresh_t["fast"]["peak_rss_mib"],
        base_t["fast"]["peak_rss_mib"],
        bigger_is_better=False,
    )
    return failures


#: Hard ceiling on the simulated spot-audit overhead fraction.
SPOT_AUDIT_OVERHEAD_BOUND = 0.10


def check_integrity(fresh: dict) -> list[str]:
    """Absolute bounds on the fresh ``integrity`` section.

    No baseline is consulted: the simulated audit overhead is
    deterministic, so the bound holds or the bench itself regressed.
    """
    section = fresh.get("integrity")
    if section is None:
        print("perf gate: fresh payload has no integrity section; skipping")
        return []

    failures = []
    overhead = section["spot"]["audit_overhead_frac"]
    ok = overhead < SPOT_AUDIT_OVERHEAD_BOUND
    arrow = "ok  " if ok else "FAIL"
    print(f"perf gate: {arrow} spot-audit overhead (simulated): "
          f"{overhead:.1%} (bound {SPOT_AUDIT_OVERHEAD_BOUND:.0%})")
    if not ok:
        failures.append(
            f"spot-audit overhead {overhead:.1%} "
            f"(>= {SPOT_AUDIT_OVERHEAD_BOUND:.0%})"
        )
    ratio = section.get("spot_events_rate_ratio")
    if ratio is not None:
        print(f"perf gate: info spot vs integrity-off events/sec (wall): "
              f"{ratio:.2f}x")
    return failures


#: Hard floor on learned-routing dispatch efficiency: on a healthy
#: cluster the learned policy's simulated throughput must stay within
#: 15 % of least-loaded's (the model work may reshape placements, not
#: tank them).
LEARNED_ROUTING_SIM_RATIO_BOUND = 0.85


def check_routing(fresh: dict) -> list[str]:
    """Absolute bound on the fresh ``routing`` section.

    Like the integrity bound, no baseline is consulted: the simulated
    learned/least-loaded throughput ratio is a pure function of the
    seed, so it holds or the routing bench itself regressed.  The
    wall-clock ratio moves with runner hardware and is printed for
    context only.
    """
    section = fresh.get("routing")
    if section is None:
        print("perf gate: fresh payload has no routing section; skipping")
        return []

    failures = []
    overhead = section["overhead"]
    ratio = overhead["sim_ratio"]
    ok = ratio >= LEARNED_ROUTING_SIM_RATIO_BOUND
    arrow = "ok  " if ok else "FAIL"
    print(f"perf gate: {arrow} learned routing throughput (simulated): "
          f"{ratio:.2f}x least-loaded "
          f"(bound {LEARNED_ROUTING_SIM_RATIO_BOUND:.2f}x)")
    if not ok:
        failures.append(
            f"learned routing simulated throughput {ratio:.2f}x least-loaded "
            f"(< {LEARNED_ROUTING_SIM_RATIO_BOUND:.2f}x)"
        )
    wall = overhead.get("wall_ratio")
    if wall is not None:
        print(f"perf gate: info learned vs least-loaded tickets/sec (wall): "
              f"{wall:.2f}x")
    return failures


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "--fresh", type=Path, default=Path("BENCH_serve.json"),
        help="freshly generated benchmark payload (default: ./BENCH_serve.json)",
    )
    ap.add_argument(
        "--baseline-rev", default="HEAD",
        help="git rev holding the committed baseline payload (default: HEAD)",
    )
    ap.add_argument(
        "--baseline-path", type=Path, default=Path("BENCH_serve.json"),
        help="payload path inside the baseline rev",
    )
    ap.add_argument(
        "--tolerance", type=float, default=0.20,
        help="allowed fractional regression before failing (default: 0.20)",
    )
    args = ap.parse_args(argv)
    if not 0.0 < args.tolerance < 1.0:
        ap.error(f"--tolerance must be in (0, 1), got {args.tolerance}")

    fresh = load_fresh(args.fresh)
    baseline = load_baseline(args.baseline_rev, args.baseline_path)
    failures = []
    if baseline is None:
        print(f"perf gate: no baseline at {args.baseline_rev}:"
              f"{args.baseline_path}; skipping baseline diff")
    else:
        failures += check(fresh, baseline, args.tolerance)
    failures += check_integrity(fresh)
    failures += check_routing(fresh)
    if failures:
        print("perf gate: FAILED")
        for line in failures:
            print(f"  - {line}")
        return 1
    print("perf gate: passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
