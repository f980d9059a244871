"""The four benchmark workloads: inputs from a seed, one pass, its checks.

Every workload is built from ``(seed, scale)`` (the serving workloads
also take the ``rate`` multiplier of the capacity ladder) and exposes
``run()``, one *pass* through the public entry points (``make_server``
+ ``run`` for the serving workloads, ``Micco.run`` for Redstar).  A
pass returns a :class:`PassResult` holding its work counts, a SHA-256
digest of its simulated outputs, the simulated end-to-end metrics and
the simulated per-layer counters.  A failed correctness check raises
:class:`CheckFailed` naming the workload and the broken invariant.

A class's ``UNITS`` passes make one *timed run* of ~5 s: three for the
serving workloads, 65 for Redstar (one pass takes ~0.1 s).  Passes are
kept short so the calibration loop timed around each one tracks the
machine's drifting speed.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

from repro import GrouteScheduler, Micco, MiccoConfig
from repro.faults import FaultEvent, FaultKind, FaultPlan
from repro.gpusim import CostModel, Topology
from repro.gpusim.trace import TraceConfig
from repro.integrity import IntegrityConfig
from repro.redstar.datasets import f0d2
from repro.redstar.pipeline import RedstarPipeline
from repro.serve import (
    BurstyArrivals,
    HealthConfig,
    PoissonArrivals,
    ServeConfig,
    SloTargets,
    TenantSpec,
    make_server,
)
from repro.workloads import SyntheticWorkload, WorkloadParams

MIB = 1024**2
GIB = 1024**3

#: Seed of the chaos-integrity fault plan.  The fault scenario is part
#: of the workload's definition; ``--seed`` varies only the traffic, so
#: runs at different seeds stay comparable.
FAULT_PLAN_SEED = 11

#: Capacity ladder: multiples of the nominal arrival rate, each point
#: served at a quarter of the nominal stream length.
LADDER_STEPS = tuple(round(0.5 + 0.1 * i, 1) for i in range(11))


class CheckFailed(Exception):
    """A correctness check failed; the message names the offender."""


@dataclass
class PassResult:
    #: Offered tickets (serving) or pairs (Redstar).
    attempted: int
    #: Offered tickets not completed, or pairs not executed.
    failed: int
    #: Contraction pairs the pass served (the host-throughput numerator).
    pairs: int
    #: Timeline events processed (0 for the offline Redstar pass).
    events: int
    digest: str
    sim: dict
    counters: dict


def digest(obj) -> str:
    return hashlib.sha256(
        json.dumps(obj, sort_keys=True, default=str).encode()
    ).hexdigest()


def _check(ok: bool, workload: str, what: str) -> None:
    if not ok:
        raise CheckFailed(f"{workload}: {what}")


def _engine_counters(metrics) -> dict:
    c = metrics.counts
    resolved = c.reuse_hits + c.input_fetches
    return {
        "engine.sim_reuse_hit_frac": c.reuse_hits / resolved if resolved else 0.0,
        "engine.sim_moved_gib": c.transferred_bytes / GIB,
        "engine.sim_memop_frac": metrics.memop_fraction,
        "memory.sim_evictions": c.evictions,
        "memory.sim_evicted_gib": c.eviction_bytes / GIB,
    }


def _check_cluster(cluster, workload: str) -> None:
    try:
        cluster.check_invariants()
    except AssertionError as exc:
        raise CheckFailed(f"{workload}: cluster invariants: {exc}") from None


def _serving_pass(name: str, server, result, slo_s: float, pairs_per_vector: int) -> PassResult:
    """Checks, simulated metrics and counters shared by the serving workloads."""
    _check_cluster(server.cluster, name)
    s = result.summary()
    offered, completed, dropped = s["offered"], s["completed"], s["dropped"]
    _check(
        offered == completed + dropped, name,
        f"offered {offered} != completed {completed} + dropped {dropped}",
    )
    integ = result.integrity
    if integ is not None:
        _check(
            integ["detected"] == integ["repaired"] + integ["flagged"], name,
            f"integrity detected {integ['detected']} != repaired "
            f"{integ['repaired']} + flagged {integ['flagged']}",
        )
    health = result.health
    if health is not None:
        h = health["hedges"]
        _check(
            h["cancelled"] == h["won_by_primary"] + h["won_by_clone"], name,
            f"hedges cancelled {h['cancelled']} != won_by_primary "
            f"{h['won_by_primary']} + won_by_clone {h['won_by_clone']}",
        )
    latencies = np.array([r.latency_s for r in result.report.completed])
    waits = np.array([r.queue_wait_s for r in result.report.completed])
    within = int(np.count_nonzero(latencies <= slo_s))
    completed_pairs = completed * pairs_per_vector
    sim = {
        "sim_p50_ms": s["p50_s"] * 1e3,
        "sim_p99_ms": s["p99_s"] * 1e3,
        # Drops count as misses: the denominator is every offered ticket.
        "sim_slo_attainment": within / offered,
        "sim_gflops": s["gflops"],
        "failed_frac": dropped / offered,
    }
    if integ is not None:
        sim["sim_undetected_corrupt_frac"] = (
            integ["escaped"] / completed_pairs if completed_pairs else 0.0
        )
    routing = result.routing
    hedges = health["hedges"] if health is not None else None
    counters = {
        "queueing.peak_depth": s["queue"]["peak_depth"],
        "queueing.sim_wait_p99_ms": float(np.percentile(waits, 99)) * 1e3 if waits.size else 0.0,
        "batching.round_size_mean": (
            sum(len(r["members"]) for r in result.rounds) / len(result.rounds)
            if result.rounds else 0.0
        ),
        "routing.forwards": result.sharding["forwards"] if result.sharding else 0,
        "learned.refits": (
            sum(x["refits"] for x in routing["per_shard"].values()) if routing else 0
        ),
        "learned.explored_frac": (
            routing["explored"] / routing["decisions"]
            if routing and routing["decisions"] else 0.0
        ),
        "health.quarantines": len(health["quarantine_episodes"]) if health else 0,
        "health.hedge_win_frac": (
            hedges["won_by_clone"] / hedges["launched"]
            if hedges and hedges["launched"] else 0.0
        ),
        **_engine_counters(result.metrics),
        "integrity.sim_audit_overhead_frac": integ["audit_overhead_frac"] if integ else 0.0,
        "integrity.sim_detection_rate": integ["detection_rate"] if integ else 0.0,
        "faults.sim_availability_pct": (
            result.faults["availability_pct"] if result.faults else 100.0
        ),
    }
    return PassResult(
        attempted=offered,
        failed=dropped,
        pairs=offered * pairs_per_vector,
        events=s["events_processed"],
        digest=digest(s),
        sim=sim,
        counters=counters,
    )


class TenantsBurst:
    """Two weighted tenants with on/off bursts on a wide 16-GPU cluster."""

    UNITS = 3
    NOMINAL_VPS = 2 * (1000.0 + 200.0) / 2  # two tenants, equal on/off phases
    SLO_S = 0.020
    LADDER = True

    def __init__(self, seed: int, scale: float = 1.0, rate: float = 1.0):
        self.seed = seed
        n = max(1, round(4_000 * scale))
        stream = WorkloadParams(num_vectors=n, vector_size=8, tensor_size=64, batch=2)
        arrivals = BurstyArrivals(
            1000.0 * rate, 200.0 * rate, mean_on_s=0.2, mean_off_s=0.2
        )
        slo = SloTargets(p99_s=self.SLO_S)
        config = ServeConfig(
            queue_capacity=8192,
            max_batch_vectors=4,
            schedule_latency_per_pair_s=1e-4,
            tenants=(
                TenantSpec("heavy", arrivals, stream, weight=3.0, slo=slo),
                TenantSpec("light", arrivals, stream, weight=1.0, slo=slo),
            ),
        )
        cluster = MiccoConfig(
            num_devices=16,
            memory_bytes=64 * MIB,
            cost_model=CostModel(topology=Topology(num_devices=16, devices_per_node=4)),
        )
        self.server = make_server(config, cluster=cluster)

    def run(self) -> PassResult:
        # run(seed) materialises the tenant streams itself, so workload
        # generation is part of every pass here.
        result = self.server.run(seed=self.seed)
        return _serving_pass("tenants-burst", self.server, result, self.SLO_S, 4)


class ShardedGray:
    """Sharded serving with learned routing, health and hedging under a gray node."""

    UNITS = 3
    NOMINAL_VPS = 3000.0
    SLO_S = 0.025
    LADDER = True

    def __init__(self, seed: int, scale: float = 1.0, rate: float = 1.0):
        self.seed = seed
        n = max(1, round(4_000 * scale))
        params = WorkloadParams(
            num_vectors=n, vector_size=8, tensor_size=256, repeated_rate=0.6, batch=2
        )
        self.vectors = SyntheticWorkload(params, seed=seed).vectors()
        self.arrivals = PoissonArrivals(self.NOMINAL_VPS * rate)
        horizon = n / (self.NOMINAL_VPS * rate)
        # Node 1 (devices 4-7) straggles silently at 8x over 10-60 % of
        # the horizon, and stops heartbeating for 60 ms mid-straggle
        # (six heartbeat intervals, past the quarantine threshold):
        # suspicion, quarantine and the hedging sweep all get work.
        events = [
            FaultEvent(
                FaultKind.STRAGGLER, 0.1 * horizon, d,
                duration_s=0.5 * horizon, slow_factor=8.0,
            )
            for d in (4, 5, 6, 7)
        ]
        events.append(
            FaultEvent(FaultKind.HEARTBEAT_LOSS, 0.3 * horizon, 4, duration_s=0.060)
        )
        self.faults = FaultPlan(tuple(events))
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
        self.server = make_server(config, cluster=cluster)

    def run(self) -> PassResult:
        result = self.server.run(
            self.vectors, self.arrivals, seed=self.seed, faults=self.faults
        )
        return _serving_pass("sharded-gray", self.server, result, self.SLO_S, 4)


class ChaosIntegrity:
    """Single-loop serving under a seeded fault plan with spot integrity audits."""

    UNITS = 3
    NOMINAL_VPS = 600.0
    SLO_S = 0.020
    # No capacity ladder: the fault plan is laid out over the horizon,
    # which a different rate would stretch or squeeze.
    LADDER = False

    def __init__(self, seed: int, scale: float = 1.0, rate: float = 1.0):
        self.seed = seed
        n = max(1, round(4_000 * scale))
        params = WorkloadParams(
            num_vectors=n, vector_size=16, tensor_size=128, repeated_rate=0.75,
            distribution="gaussian", batch=2,
        )
        self.vectors = SyntheticWorkload(params, seed=seed).vectors()
        self.arrivals = PoissonArrivals(self.NOMINAL_VPS * rate)
        self.faults = FaultPlan.generate(
            FAULT_PLAN_SEED,
            num_devices=8,
            horizon_s=n / (self.NOMINAL_VPS * rate),
            n_transient=2,
            n_transfer=2,
            n_straggler=1,
            n_device_lost=1,
            n_data_corruption=2,
            n_tensor_bitflip=2,
            corruption_prob=0.3,
        )
        config = ServeConfig(
            queue_capacity=128,
            schedule_latency_per_pair_s=1e-4,
            warm_restore=True,
            trace=TraceConfig(mode="full"),
            integrity=IntegrityConfig(mode="spot", audit_fraction=0.08),
        )
        self.server = make_server(config, cluster=MiccoConfig(num_devices=8, memory_bytes=16 * MIB))

    def run(self) -> PassResult:
        result = self.server.run(
            self.vectors, self.arrivals, seed=self.seed, faults=self.faults
        )
        return _serving_pass("chaos-integrity", self.server, result, self.SLO_S, 8)


class RedstarF0d2:
    """The paper's Table VI f0d2 correlator, offline, MICCO-naive on 8 GPUs."""

    UNITS = 65

    def __init__(self, seed: int, scale: float = 1.0):
        # ``scale`` only shortens the timed run (fewer passes; see
        # bench/child.py).  The seed only steers diagram sampling in
        # oversized permutation spaces; f0d2 has none, so its stream is
        # the same at every seed.
        self.vectors = RedstarPipeline(f0d2(time_slices=16), seed=seed).vectors()
        self.pairs = sum(len(v.pairs) for v in self.vectors)
        self.config = MiccoConfig(num_devices=8, keep_outputs=True)
        self.micco = Micco.naive(self.config)

    def run(self) -> PassResult:
        # Micco.run resets the cluster: every pass starts cold.
        result = self.micco.run(self.vectors)
        _check_cluster(self.micco.cluster, "redstar-f0d2")
        m = result.metrics
        _check(
            m.pairs_executed == self.pairs, "redstar-f0d2",
            f"executed {m.pairs_executed} of {self.pairs} pairs",
        )
        counters = {
            "queueing.peak_depth": 0,
            "queueing.sim_wait_p99_ms": 0.0,
            "batching.round_size_mean": 0.0,
            "routing.forwards": 0,
            "learned.refits": 0,
            "learned.explored_frac": 0.0,
            "health.quarantines": 0,
            "health.hedge_win_frac": 0.0,
            **_engine_counters(m),
            "integrity.sim_audit_overhead_frac": 0.0,
            "integrity.sim_detection_rate": 0.0,
            "faults.sim_availability_pct": 100.0,
        }
        return PassResult(
            attempted=self.pairs,
            failed=self.pairs - m.pairs_executed,
            pairs=self.pairs,
            events=0,
            digest=digest({"metrics": m.summary(), "patterns": result.pattern_counts}),
            sim={"sim_gflops": m.gflops, "failed_frac": 0.0},
            counters=counters,
        )

    def speedup_vs_groute(self) -> float:
        groute = Micco.baseline(GrouteScheduler(), self.config).run(self.vectors)
        return self.micco.run(self.vectors).gflops / groute.gflops


REGISTRY = {
    "tenants-burst": TenantsBurst,
    "sharded-gray": ShardedGray,
    "chaos-integrity": ChaosIntegrity,
    "redstar-f0d2": RedstarF0d2,
}


def extras(name: str, seed: int, scale: float) -> dict:
    """Simulated metrics that need runs of their own (untimed).

    ``sim_capacity_vps``: the highest ladder rate whose quarter-length
    run meets p99 <= SLO with zero drops (0 when none does).
    ``sim_speedup_vs_groute``: MICCO-naive over Groute GFLOP/s.
    """
    cls = REGISTRY[name]
    if cls is RedstarF0d2:
        return {"sim_speedup_vs_groute": cls(seed, scale).speedup_vs_groute()}
    if not cls.LADDER:
        return {}
    capacity = 0.0
    ladder = []
    for mult in LADDER_STEPS:
        r = cls(seed, scale / 4, rate=mult).run()
        ok = r.failed == 0 and r.sim["sim_p99_ms"] <= cls.SLO_S * 1e3
        ladder.append({"rate_vps": mult * cls.NOMINAL_VPS, "p99_ms": r.sim["sim_p99_ms"],
                       "dropped": r.failed, "meets_slo": ok})
        if ok:
            capacity = mult * cls.NOMINAL_VPS
    return {"sim_capacity_vps": capacity, "ladder": ladder}
