"""Bench: sharded control plane vs the single serving loop.

A saturating two-tenant workload on a two-node (4+4 GPU) cluster is
served twice: once through the single global control loop
(:class:`MiccoServer` — one scheduling round in flight for the
whole cluster) and once through the two-level sharded plane
(:class:`ShardedServer` — a global router over per-node schedulers,
each with its own admission queue and in-flight window).  With the
control path the bottleneck, sharding must sustain a materially higher
sustained ticket rate at an equal-or-better p99.  A second sharded run
loses a whole node mid-run: exactly that shard dies, its queued and
in-flight tickets re-route through the global tier, and the run
degrades gracefully (every offered ticket still completes or is
accounted as dropped).

A second, gray-failure sweep runs a three-node cluster through a
straggler + node-flap + heartbeat-silence plan three times: once with
health checking off, once with the heartbeat/quarantine lifecycle on,
and once with hedged dispatch layered on top.  None of these faults is
announced to the router — digests just go stale — so the unprotected
run parks tickets on the flapping node while the health-enabled runs
infer the failure, quarantine the shard, and drain around it.  Health
on must show a strictly lower p99 and strictly fewer SLO violations;
hedging must launch at least one clone and never double-count a
hedged ticket.

Writes ``BENCH_serve.json`` — wall-clock tickets/sec and events/sec,
simulated p50/p99 and throughput, peak RSS, plus the gray-failure
hedging-on vs hedging-off comparison — which CI uploads as an
artifact.
"""

import json
import resource
import time
from pathlib import Path

from benchmarks.conftest import run_once
from repro.core.config import MiccoConfig
from repro.faults import FaultEvent, FaultKind, FaultPlan
from repro.gpusim import CostModel, Topology
from repro.serve import (
    HealthConfig,
    MiccoServer,
    PoissonArrivals,
    ServeConfig,
    ShardedServer,
    SloTargets,
    TenantSpec,
)
from repro.workloads import WorkloadParams

MIB = 1024**2
SEED = 11
N_PER_TENANT = 24
SATURATING_RATE = 20_000.0
# The gray sweep arrives slowly enough to span the fault windows: at
# 4k vec/s the 48 tickets land over ~12 ms, so routing decisions are
# still being made while the flapping node looks attractive on stale
# digests.
GRAY_RATE = 4_000.0
GRAY_SLO_S = 8e-3
OUT_PATH = Path("BENCH_serve.json")


def tenants():
    stream = WorkloadParams(
        num_vectors=N_PER_TENANT, vector_size=8, tensor_size=64, batch=2
    )
    return (
        TenantSpec(
            "heavy", PoissonArrivals(SATURATING_RATE), stream,
            weight=3.0, slo=SloTargets(p99_s=0.5),
        ),
        TenantSpec("light", PoissonArrivals(SATURATING_RATE), stream, weight=1.0),
    )


def cluster_config():
    topo = Topology(num_devices=8, devices_per_node=4)
    return MiccoConfig(
        num_devices=8, memory_bytes=64 * MIB, cost_model=CostModel(topology=topo)
    )


def serve_config(**overrides):
    return ServeConfig(
        queue_capacity=128, tenants=tenants(), schedule_latency_per_pair_s=1e-4
    ).with_(**overrides)


def gray_cluster_config():
    """Three nodes, so quarantining one still leaves two drain targets."""
    topo = Topology(num_devices=12, devices_per_node=4)
    return MiccoConfig(
        num_devices=12, memory_bytes=64 * MIB, cost_model=CostModel(topology=topo)
    )


def gray_tenants():
    stream = WorkloadParams(
        num_vectors=N_PER_TENANT, vector_size=8, tensor_size=64, batch=2
    )
    return (
        TenantSpec(
            "heavy", PoissonArrivals(GRAY_RATE), stream,
            weight=3.0, slo=SloTargets(p99_s=GRAY_SLO_S),
        ),
        TenantSpec("light", PoissonArrivals(GRAY_RATE), stream, weight=1.0),
    )


def gray_serve_config(health):
    return ServeConfig(
        queue_capacity=128, tenants=gray_tenants(),
        schedule_latency_per_pair_s=1e-4, sharded=True, health=health,
    )


def gray_health_config():
    # quarantine_threshold=8 leaves the flapped shard in SUSPECT for
    # ~4 ms before quarantine: long enough for hedged dispatch to
    # rescue tickets already parked there, short enough that the drain
    # still beats waiting out the flap.
    return HealthConfig(
        heartbeat_interval_s=5e-4, quarantine_threshold=8.0,
        hedge_deadline_s=1e-3,
    )


def gray_plan():
    """Gray faults aimed at node 1 (devices 4-7); nodes 0 and 2 stay clean.

    None of these is announced to the router: the straggler slows
    compute silently, the flap kills and restores devices without a
    fault-domain broadcast, and the heartbeat loss silences a healthy
    node.  Only heartbeat inference can tell the difference.
    """
    return FaultPlan((
        FaultEvent(
            FaultKind.STRAGGLER, 1e-3, 4, duration_s=20e-3, slow_factor=6.0
        ),
        FaultEvent(
            FaultKind.NODE_FLAP, 2e-3, 5, duration_s=4e-3,
            count=3, period_s=5e-3,
        ),
        FaultEvent(FaultKind.HEARTBEAT_LOSS, 6.5e-3, 6, duration_s=4e-3),
    ))


def slo_violations(result) -> int:
    """Completions over the heavy-tenant SLO plus every shed ticket."""
    late = sum(1 for r in result.report.completed if r.latency_s > GRAY_SLO_S)
    return late + len(result.report.dropped)


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed(server, **run_kwargs):
    """Run one server, returning (result, wall seconds)."""
    t0 = time.perf_counter()
    result = server.run(seed=SEED, **run_kwargs)
    wall = time.perf_counter() - t0
    server.cluster.check_invariants()
    return result, wall


def section(result, wall_s: float) -> dict:
    s = result.summary()
    return {
        "offered": s["offered"],
        "completed": s["completed"],
        "dropped": s["dropped"],
        "throughput_vps_sim": s["throughput_vps"],
        "p50_ms_sim": s["p50_s"] * 1e3,
        "p99_ms_sim": s["p99_s"] * 1e3,
        "wall_s": wall_s,
        "tickets_per_s_wall": s["offered"] / wall_s if wall_s > 0 else 0.0,
        "events_per_s_wall": (
            s["events_processed"] / wall_s if wall_s > 0 else 0.0
        ),
        "events_processed": s["events_processed"],
        "peak_rss_mib": peak_rss_mib(),
    }


def sweep():
    out = {}
    out["single"] = timed(
        MiccoServer(config=cluster_config(), serve=serve_config())
    )
    out["sharded"] = timed(
        ShardedServer(config=cluster_config(), serve=serve_config(sharded=True))
    )
    out["sharded_replay"] = timed(
        ShardedServer(config=cluster_config(), serve=serve_config(sharded=True))
    )
    # Mid-run node loss: node 1 (devices 4-7) dies while the queue is hot.
    plan = FaultPlan((FaultEvent(FaultKind.NODE_LOST, 1.5e-3, 5),))
    out["sharded_node_loss"] = timed(
        ShardedServer(config=cluster_config(), serve=serve_config(sharded=True)),
        faults=plan,
    )
    # Gray-failure sweep: identical workload and fault plan, three
    # protection levels.
    for key, health in (
        ("gray_unprotected", None),
        ("gray_health", gray_health_config()),
        ("gray_health_hedged", gray_health_config().with_(hedging=True)),
    ):
        out[key] = timed(
            ShardedServer(
                config=gray_cluster_config(), serve=gray_serve_config(health)
            ),
            faults=gray_plan(),
        )
    return out


def test_sharded_beats_single_loop_and_degrades_gracefully(benchmark):
    results = run_once(benchmark, sweep)
    single, single_wall = results["single"]
    sharded, sharded_wall = results["sharded"]
    replay, _ = results["sharded_replay"]
    lossy, lossy_wall = results["sharded_node_loss"]

    ss, hs, ls = single.summary(), sharded.summary(), lossy.summary()
    print()
    print(f"single loop : {ss['throughput_vps']:8.0f} vec/s sim   "
          f"p99 {ss['p99_s'] * 1e3:7.3f} ms   {single_wall * 1e3:6.1f} ms wall")
    print(f"sharded     : {hs['throughput_vps']:8.0f} vec/s sim   "
          f"p99 {hs['p99_s'] * 1e3:7.3f} ms   {sharded_wall * 1e3:6.1f} ms wall   "
          f"{hs['sharding']['cross_node_fetches']} cross-node fetches")
    print(f"node loss   : {ls['completed']}/{ls['offered']} served, "
          f"{ls['sharding']['rerouted']} rerouted, "
          f"{sum(1 for x in ls['sharding']['shards'] if x['dead'])} shard dead")

    # The tentpole claim: sharding the control plane sustains a
    # materially higher ticket rate at equal-or-better p99.
    assert hs["throughput_vps"] > 1.2 * ss["throughput_vps"]
    assert hs["p99_s"] <= 1.05 * ss["p99_s"]
    for s in (ss, hs):
        assert s["completed"] == s["offered"] == 2 * N_PER_TENANT

    # Same seed → identical sharded runs, digest syncs and all.
    assert replay.summary() == hs

    # Node death kills exactly one shard; the global tier re-homes its
    # work and the run stays conservative (no ticket vanishes).
    dead = [x for x in ls["sharding"]["shards"] if x["dead"]]
    assert [x["node"] for x in dead] == [1]
    assert ls["sharding"]["rerouted"] > 0
    assert ls["completed"] + ls["dropped"] == ls["offered"]
    assert ls["faults"]["injected"]["node_lost"] == 1

    # --- Gray-failure sweep: health inference must pay for itself. ---
    gray_un, gray_un_wall = results["gray_unprotected"]
    gray_h, gray_h_wall = results["gray_health"]
    gray_hh, gray_hh_wall = results["gray_health_hedged"]
    gus, ghs, ghh = gray_un.summary(), gray_h.summary(), gray_hh.summary()
    viol_un, viol_h, viol_hh = (
        slo_violations(gray_un), slo_violations(gray_h),
        slo_violations(gray_hh),
    )
    hedges = gray_hh.health["hedges"]
    print(f"gray off    : p99 {gus['p99_s'] * 1e3:7.3f} ms   "
          f"{viol_un} SLO violations")
    print(f"gray health : p99 {ghs['p99_s'] * 1e3:7.3f} ms   "
          f"{viol_h} SLO violations   "
          f"{len(gray_h.health['quarantine_episodes'])} quarantine(s)")
    print(f"gray hedged : p99 {ghh['p99_s'] * 1e3:7.3f} ms   "
          f"{viol_hh} SLO violations   "
          f"{hedges['launched']} hedge(s), {hedges['won_by_clone']} "
          f"won by clone")

    # Conservation under gray chaos: every offered ticket completes or
    # is shed exactly once — quarantine and hedging never lose one.
    for s in (gus, ghs, ghh):
        assert s["offered"] == 2 * N_PER_TENANT
        assert s["completed"] + s["dropped"] == s["offered"]
        assert s["faults"]["injected"]["node_flap"] == 3
        assert s["faults"]["injected"]["heartbeat_loss"] == 1

    # The robustness claim: under seeded gray chaos, health-enabled
    # runs show strictly lower p99 and fewer SLO violations.
    assert ghs["p99_s"] < gus["p99_s"]
    assert viol_h < viol_un
    assert gray_h.health is not None
    assert len(gray_h.health["quarantine_episodes"]) >= 1

    # Hedging rides on top: clones launch, the race improves (or at
    # worst matches) plain health, and losers are cancelled — never
    # double-counted.
    assert hedges["launched"] >= 1
    assert hedges["cancelled"] == (
        hedges["won_by_primary"] + hedges["won_by_clone"]
    )
    assert ghh["p99_s"] <= ghs["p99_s"]
    assert viol_hh <= viol_h

    payload = {
        "workload": {
            "tenants": 2,
            "vectors": 2 * N_PER_TENANT,
            "arrival_rate_vps": SATURATING_RATE,
            "devices": 8,
            "devices_per_node": 4,
            "seed": SEED,
        },
        "single": section(single, single_wall),
        "sharded": section(sharded, sharded_wall),
        "sharded_node_loss": {
            **section(lossy, lossy_wall),
            "rerouted": ls["sharding"]["rerouted"],
            "dead_shards": [x["node"] for x in dead],
        },
        "speedup": {
            "throughput_sim": hs["throughput_vps"] / ss["throughput_vps"],
            "p99_ratio": hs["p99_s"] / ss["p99_s"],
        },
        "gray_failure": {
            "workload": {
                "arrival_rate_vps": GRAY_RATE,
                "devices": 12,
                "devices_per_node": 4,
                "slo_s": GRAY_SLO_S,
            },
            "unprotected": {
                **section(gray_un, gray_un_wall),
                "slo_violations": viol_un,
            },
            "health": {
                **section(gray_h, gray_h_wall),
                "slo_violations": viol_h,
                "quarantines": len(gray_h.health["quarantine_episodes"]),
            },
            "health_hedged": {
                **section(gray_hh, gray_hh_wall),
                "slo_violations": viol_hh,
                "quarantines": len(gray_hh.health["quarantine_episodes"]),
                "hedges": hedges,
            },
            "hedging": {
                "off_p99_ms": ghs["p99_s"] * 1e3,
                "on_p99_ms": ghh["p99_s"] * 1e3,
            },
        },
    }
    # Merge-write: the throughput bench owns the ``throughput`` key of
    # the same file, so a partial benchmark run must not clobber it.
    merged = json.loads(OUT_PATH.read_text()) if OUT_PATH.exists() else {}
    merged.update(payload)
    OUT_PATH.write_text(json.dumps(merged, indent=2, sort_keys=True) + "\n")
    print(f"benchmark payload written to {OUT_PATH}")
