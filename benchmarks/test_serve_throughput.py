"""Bench: end-to-end serving throughput of the simulator core.

The tentpole workload — two tenants (weights 3.0/1.0) offering 4 000
vectors each at a saturating Poisson rate onto an 8-GPU / 2-node
cluster with 64 MiB devices — is served once through the unified
:func:`repro.serve.serve` API for the absolute events-per-second figure.

Wall-clock numbers move with machine load, so the fixed pure-Python
calibration loop of ``bench.child.calibrate`` is timed just before and
just after the run.  ``events_per_cal`` — events/sec times the mean
calibration time, i.e. events served per calibration loop — divides the
machine's current speed out; it is the number the perf gate trusts.
Placement itself is pinned by the frozen fixtures in ``tests/golden/``
and the property tests in ``tests/test_placement_oracle.py``.

A second, ``gray`` run exercises the path the tenants run never takes:
sharded serving with learned routing, health and hedging on a 3-node
cluster whose node 1 straggles silently at 8x and misses heartbeats, so
the engine executes with a fault injector attached and every ticket
pays for routing-model work.  It reports the same two figures.

Merges a ``throughput`` section into ``BENCH_serve.json`` (the sharded
bench owns the rest of the file), which CI uploads as an artifact and
``tools/perf_gate.py`` diffs against the committed baseline.
"""

import json
import resource
import time
from pathlib import Path

from bench.child import calibrate
from benchmarks.conftest import run_once
from repro.core.config import MiccoConfig
from repro.faults import FaultEvent, FaultKind, FaultPlan
from repro.gpusim import CostModel, Topology
from repro.serve import (
    HealthConfig,
    PoissonArrivals,
    ServeConfig,
    TenantSpec,
    make_server,
)
from repro.workloads import SyntheticWorkload, WorkloadParams

MIB = 1024**2
SEED = 11
#: Per-tenant stream length; matches the PR 7 baseline measurement.
N_FULL = 4_000
SATURATING_RATE = 20_000.0
OUT_PATH = Path("BENCH_serve.json")

#: PR 7 baseline for the same full-scale workload on the development
#: machine (committed alongside the vectorized core): the reference
#: object-at-a-time loop served 18 001 events in 10.833 s wall.
PR7_BASELINE = {
    "wall_s": 10.833,
    "events_per_s_wall": 1_662.0,
    "events_processed": 18_001,
    "peak_rss_mib": 69.8,
}


def tenants(n_per_tenant):
    stream = WorkloadParams(
        num_vectors=n_per_tenant, vector_size=8, tensor_size=64, batch=2
    )
    return (
        TenantSpec("heavy", PoissonArrivals(SATURATING_RATE), stream, weight=3.0),
        TenantSpec("light", PoissonArrivals(SATURATING_RATE), stream, weight=1.0),
    )


def cluster_config():
    topo = Topology(num_devices=8, devices_per_node=4)
    return MiccoConfig(
        num_devices=8, memory_bytes=64 * MIB, cost_model=CostModel(topology=topo)
    )


def serve_config(n_per_tenant):
    return ServeConfig(
        queue_capacity=8192, tenants=tenants(n_per_tenant),
        schedule_latency_per_pair_s=1e-4, max_batch_vectors=4,
    )


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed(n_per_tenant):
    """One multi-tenant run via the serve() facade, timed."""
    server = make_server(
        serve_config(n_per_tenant), cluster=cluster_config()
    )
    t0 = time.perf_counter()
    result = server.run(seed=SEED)
    wall = time.perf_counter() - t0
    server.cluster.check_invariants()
    return result, wall


def sweep():
    # Warm-up: first touch of numpy kernels and workload generation
    # should not bill to the timed run.
    timed(64)
    cal_before = calibrate()
    result, wall = timed(N_FULL)
    cal_s = (cal_before + calibrate()) / 2
    return result, wall, cal_s


#: Gray run: stream length and arrival rate (3 000 vps over 12 GPUs).
GRAY_VECTORS = 4_000
GRAY_RATE = 3_000.0


def gray_server_and_inputs(n):
    """Sharded, learned-routing serving under a silent straggler node."""
    params = WorkloadParams(
        num_vectors=n, vector_size=8, tensor_size=256, repeated_rate=0.6, batch=2
    )
    vectors = SyntheticWorkload(params, seed=SEED).vectors()
    horizon = n / GRAY_RATE
    # Node 1 (devices 4-7) runs 8x slow over 10-60 % of the horizon and
    # stops heartbeating for 60 ms mid-window (past the quarantine
    # threshold), so suspicion, quarantine and hedging all get work.
    events = [
        FaultEvent(FaultKind.STRAGGLER, 0.1 * horizon, d, duration_s=0.5 * horizon, slow_factor=8.0)
        for d in (4, 5, 6, 7)
    ]
    events.append(FaultEvent(FaultKind.HEARTBEAT_LOSS, 0.3 * horizon, 4, duration_s=0.060))
    config = ServeConfig(
        sharded=True,
        routing="learned",
        sync_interval_s=0.010,
        queue_capacity=128,
        schedule_latency_per_pair_s=1e-4,
        health=HealthConfig(hedging=True, hedge_deadline_s=0.002),
    )
    cluster = MiccoConfig(
        num_devices=12,
        memory_bytes=64 * MIB,
        cost_model=CostModel(topology=Topology(num_devices=12, devices_per_node=4)),
    )
    return make_server(config, cluster=cluster), vectors, FaultPlan(tuple(events))


def timed_gray(n):
    server, vectors, faults = gray_server_and_inputs(n)
    t0 = time.perf_counter()
    result = server.run(vectors, PoissonArrivals(GRAY_RATE), seed=SEED, faults=faults)
    wall = time.perf_counter() - t0
    server.cluster.check_invariants()
    return result, wall


def gray_sweep():
    timed_gray(64)
    cal_before = calibrate()
    result, wall = timed_gray(GRAY_VECTORS)
    cal_s = (cal_before + calibrate()) / 2
    return result, wall, cal_s


def section(result, wall_s: float) -> dict:
    s = result.summary()
    return {
        "offered": s["offered"],
        "completed": s["completed"],
        "events_processed": s["events_processed"],
        "wall_s": wall_s,
        "tickets_per_s_wall": s["offered"] / wall_s if wall_s > 0 else 0.0,
        "events_per_s_wall": (
            s["events_processed"] / wall_s if wall_s > 0 else 0.0
        ),
        "peak_rss_mib": peak_rss_mib(),
    }


def test_serve_throughput(benchmark):
    full, full_wall, cal_s = run_once(benchmark, sweep)

    fs = full.summary()
    ev_per_s = fs["events_processed"] / full_wall
    events_per_cal = ev_per_s * cal_s
    print()
    print(f"N={2 * N_FULL:5d} : {full_wall:7.3f} s wall   "
          f"{ev_per_s:8.0f} ev/s   {fs['events_processed']} events")
    print(f"calibration loop {cal_s * 1e3:.2f} ms   "
          f"{events_per_cal:.1f} events per calibration loop")

    assert fs["completed"] == fs["offered"] == 2 * N_FULL
    assert fs["dropped"] == 0

    fast = section(full, full_wall)
    gray, gray_wall, gray_cal_s = gray_sweep()
    gs = gray.summary()
    gray_ev_per_s = gs["events_processed"] / gray_wall
    print(f"gray  : {gray_wall:7.3f} s wall   {gray_ev_per_s:8.0f} ev/s   "
          f"{gray_ev_per_s * gray_cal_s:.1f} events per calibration loop")
    assert gs["completed"] + gs["dropped"] == gs["offered"] == GRAY_VECTORS
    assert gray.routing is not None and gray.routing["learned"] > 0

    payload = json.loads(OUT_PATH.read_text()) if OUT_PATH.exists() else {}
    payload["throughput"] = {
        "workload": {
            "tenants": 2,
            "vectors": 2 * N_FULL,
            "arrival_rate_vps": SATURATING_RATE,
            "devices": 8,
            "devices_per_node": 4,
            "memory_mib": 64,
            "seed": SEED,
        },
        "fast": fast,
        "cal_s": cal_s,
        "events_per_cal": events_per_cal,
        "gray": {
            "workload": {
                "vectors": GRAY_VECTORS,
                "arrival_rate_vps": GRAY_RATE,
                "devices": 12,
                "devices_per_node": 4,
                "memory_mib": 64,
                "routing": "learned",
                "health": "hedging",
                "straggler": "node 1, 8x over 10-60 % of the horizon",
                "seed": SEED,
            },
            "offered": gs["offered"],
            "completed": gs["completed"],
            "events_processed": gs["events_processed"],
            "wall_s": gray_wall,
            "events_per_s_wall": gray_ev_per_s,
            "cal_s": gray_cal_s,
            "events_per_cal": gray_ev_per_s * gray_cal_s,
        },
        "pr7_baseline": PR7_BASELINE,
        "speedup_vs_pr7_baseline_wall": (
            ev_per_s / PR7_BASELINE["events_per_s_wall"]
        ),
    }
    OUT_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"benchmark payload merged into {OUT_PATH}")
