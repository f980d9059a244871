"""Serving-mode matrix behind the frozen golden fixtures.

Every mode is one small fixed-seed run through :func:`repro.serve.serve`
that reaches a distinct path of the serving loop.  :func:`fingerprint`
reduces a run to the SHA-256 of its serialized artifacts plus a short
readable summary; ``tests/golden/<mode>-s<seed>.json`` stores that
fingerprint, ``tests/test_golden_fixtures.py`` recomputes and compares
it, and ``tools/regen_golden.py`` rewrites it (only with ``--write``).

Streams are built right after :func:`reset_uid_counter`: integrity
labels carry tensor uids, so without the reset the digests would depend
on which tests ran earlier in the process.
"""

from __future__ import annotations

import hashlib
import dataclasses
import json
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np

from repro.core.config import MiccoConfig
from repro.core.framework import Micco
from repro.faults import FaultEvent, FaultKind, FaultPlan
from repro.gpusim import CostModel, Topology
from repro.gpusim.device import GIB
from repro.gpusim.trace import TraceConfig
from repro.integrity import IntegrityConfig
from repro.ml.forest import RandomForestRegressor
from repro.ml.gbm import GradientBoostingRegressor
from repro.ml.predictor import ReuseBoundPredictor
from repro.ml.tree import DecisionTreeRegressor
from repro.redstar.datasets import a1_rhopi, f0d2, f0d4, nucleon_nn
from repro.redstar.pipeline import RedstarPipeline
from repro.schedulers.bounds import ReuseBounds
from repro.schedulers.groute import GrouteScheduler
from repro.schedulers.micco import MiccoScheduler
from repro.serve import (
    AutoscalerConfig,
    HealthConfig,
    PoissonArrivals,
    ServeConfig,
    TenantSpec,
    make_server,
    serve,
)
from repro.tensor.spec import reset_uid_counter
from repro.workloads import SyntheticWorkload, WorkloadParams

MIB = 1024**2
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
SEEDS = (12, 13)

FAST_HEALTH = HealthConfig(
    heartbeat_interval_s=1e-3,
    suspect_threshold=2.0,
    quarantine_threshold=4.0,
    probation_beats=3,
)


def _stream(seed: int, n: int = 24, **kw):
    params = dict(vector_size=8, tensor_size=64, repeated_rate=0.6, num_vectors=n, batch=2)
    params.update(kw)
    return SyntheticWorkload(WorkloadParams(**params), seed=seed).vectors()


def _roster(n: int = 12):
    spec = WorkloadParams(vector_size=8, tensor_size=64, num_vectors=n, batch=2)
    return (
        TenantSpec("heavy", PoissonArrivals(8_000.0), spec, weight=3.0),
        TenantSpec("light", PoissonArrivals(4_000.0), spec, weight=1.0),
    )


def _cluster(num_devices: int = 4, memory_bytes: int = 64 * MIB, devices_per_node=None):
    cost_model = CostModel()
    if devices_per_node is not None:
        cost_model = CostModel(
            topology=Topology(num_devices=num_devices, devices_per_node=devices_per_node)
        )
    return MiccoConfig(
        num_devices=num_devices, memory_bytes=memory_bytes, cost_model=cost_model
    )


def _scheduler():
    return MiccoScheduler(ReuseBounds(0, 4, 0))


def _single(seed):
    return serve(
        ServeConfig(queue_capacity=16), cluster=_cluster(), scheduler=_scheduler(),
        vectors=_stream(3), arrivals=PoissonArrivals(4_000.0), seed=seed,
    )


def _tenants(seed):
    cfg = ServeConfig(queue_capacity=32, tenants=_roster())
    return serve(cfg, cluster=_cluster(memory_bytes=2 * GIB), seed=seed)


def _batched(seed):
    cfg = ServeConfig(
        queue_capacity=32, tenants=_roster(),
        max_batch_vectors=4, schedule_latency_per_pair_s=1e-4,
    )
    return serve(cfg, cluster=_cluster(memory_bytes=2 * GIB), seed=seed)


def _two_node_chaos(max_devices: int = 8):
    # Two nodes, one control loop: node 1 dies for good, node 0 loses a
    # device, flaps, loses its links and goes silent.  The autoscaler
    # replaces the lost device and shrinks the pool once traffic ends.
    plan = FaultPlan((
        FaultEvent(FaultKind.DEVICE_LOST, 0.004, 1),
        FaultEvent(FaultKind.LINK_LOST, 0.006, 0),
        FaultEvent(FaultKind.NODE_LOST, 0.010, 5),
        FaultEvent(FaultKind.HEARTBEAT_LOSS, 0.012, 2, duration_s=0.004),
        FaultEvent(FaultKind.NODE_FLAP, 0.016, 0, duration_s=0.003, count=2, period_s=0.008),
        FaultEvent(FaultKind.TRANSIENT, 0.020, 2),
    ))
    knobs = dict(
        max_inflight=2,
        warm_restore=True,
        fault_aware_admission=True,
        autoscaler=AutoscalerConfig(
            min_devices=2, max_devices=max_devices, initial_devices=6, warmup_s=0.002,
            cooldown_s=0.004, window_s=0.01, replace_lost=True,
        ),
    )
    return plan, knobs


def _single_chaos(seed, max_devices: int = 8):
    plan, knobs = _two_node_chaos(max_devices)
    cfg = ServeConfig(queue_capacity=16, **knobs)
    return serve(
        cfg, cluster=_cluster(8, devices_per_node=4), scheduler=_scheduler(),
        vectors=_stream(5, n=40), arrivals=PoissonArrivals(1_500.0), seed=seed,
        faults=plan,
    )


def _tenants_chaos(seed):
    # Batched tenants under the two-node chaos plan, with a cluster small
    # enough that warm restore's byte budget cuts its ranked list: the
    # prewarmed tensors depend on the uid tie-break between tenants.
    plan, knobs = _two_node_chaos()
    cfg = ServeConfig(
        queue_capacity=32, tenants=_roster(40),
        max_batch_vectors=4, schedule_latency_per_pair_s=1e-4, **knobs,
    )
    return serve(
        cfg, cluster=_cluster(8, memory_bytes=8 * MIB, devices_per_node=4), seed=seed,
        faults=plan,
    )


def _single_integrity(seed):
    plan = FaultPlan.generate(
        seed, num_devices=4, horizon_s=0.02,
        n_transient=1, n_transfer=0, n_straggler=0, n_device_lost=0,
        n_data_corruption=2, n_tensor_bitflip=2, corruption_prob=0.9,
        corruption_window_frac=0.8,
    )
    cfg = ServeConfig(
        queue_capacity=32,
        trace=TraceConfig(mode="full"),
        integrity=IntegrityConfig(mode="spot", audit_fraction=0.5, blame_threshold=0.2),
    )
    return serve(
        cfg, cluster=_cluster(), scheduler=_scheduler(),
        vectors=_stream(7, n=48), arrivals=PoissonArrivals(2_000.0), seed=seed,
        faults=plan,
    )


def _autoscale_integrity(seed):
    # Blame quarantine under an autoscaler that grows the pool whenever
    # two vectors queue: no scale-up may bring a quarantined device back.
    plan = FaultPlan.generate(
        seed, num_devices=4, horizon_s=0.02,
        n_transient=0, n_transfer=0, n_straggler=0, n_device_lost=0,
        n_data_corruption=2, n_tensor_bitflip=2, corruption_prob=0.9,
        corruption_window_frac=0.8,
    )
    cfg = ServeConfig(
        integrity=IntegrityConfig(mode="spot", audit_fraction=0.5, blame_threshold=0.2),
        autoscaler=AutoscalerConfig(
            min_devices=1, max_devices=4, initial_devices=4, up_queue_depth=2,
            warmup_s=1e-3, cooldown_s=1e-3,
        ),
    )
    server = make_server(cfg, cluster=_cluster(), scheduler=_scheduler())
    result = server.run(_stream(7, n=96), PoissonArrivals(6_000.0), seed=seed, faults=plan)
    result.alive_at_end = list(server.cluster.alive_ids())
    return result


def _sharded(seed):
    cfg = ServeConfig(sharded=True, routing="residency-affinity")
    return serve(
        cfg, cluster=_cluster(8, devices_per_node=4), scheduler=_scheduler(),
        vectors=_stream(3), arrivals=PoissonArrivals(4_000.0), seed=seed,
    )


def _sharded_chaos(seed):
    plan = FaultPlan((
        FaultEvent(FaultKind.DEVICE_LOST, 0.002, 1),
        FaultEvent(FaultKind.LINK_LOST, 0.003, 4),
        FaultEvent(FaultKind.NODE_FLAP, 0.004, 5, duration_s=0.002, count=2, period_s=0.004),
        FaultEvent(FaultKind.NODE_LOST, 0.007, 9),
    ))
    cfg = ServeConfig(
        sharded=True,
        sync_interval_s=2e-3,
        max_inflight=2,
        warm_restore=True,
        autoscaler=AutoscalerConfig(
            min_devices=1, max_devices=4, initial_devices=3, warmup_s=0.002,
            cooldown_s=0.004, window_s=0.01, replace_lost=True,
        ),
    )
    return serve(
        cfg, cluster=_cluster(12, devices_per_node=4), scheduler=_scheduler(),
        vectors=_stream(5, n=40), arrivals=PoissonArrivals(3_000.0), seed=seed,
        faults=plan,
    )


def _gray(seed):
    plan = FaultPlan((
        FaultEvent(FaultKind.STRAGGLER, 1e-3, 4, duration_s=20e-3, slow_factor=6.0),
        FaultEvent(FaultKind.NODE_FLAP, 2e-3, 5, duration_s=4e-3, count=3, period_s=5e-3),
        FaultEvent(FaultKind.HEARTBEAT_LOSS, 6.5e-3, 1, duration_s=6e-3),
    ))
    cfg = ServeConfig(
        sharded=True, sync_interval_s=1e-3,
        health=FAST_HEALTH.with_(hedging=True, hedge_deadline_s=1e-3),
    )
    return serve(
        cfg, cluster=_cluster(8, devices_per_node=4), scheduler=_scheduler(),
        vectors=_stream(3, n=48), arrivals=PoissonArrivals(4_000.0), seed=seed,
        faults=plan,
    )


def _learned(seed):
    cfg = ServeConfig(
        sharded=True, routing="learned", sync_interval_s=0.01,
        explore_floor=0.1, min_samples=6, refit_interval=4,
        health=HealthConfig(),
    )
    return serve(
        cfg, cluster=_cluster(8, devices_per_node=4), scheduler=_scheduler(),
        vectors=_stream(3, n=40), arrivals=PoissonArrivals(4_000.0), seed=seed,
    )


def _learned_wrap(seed):
    # Long enough that every shard's 512-sample window wraps and refits
    # dozens of times at the default min_samples/refit_interval, with a
    # straggler on node 1 for the first stretch so the models have a
    # real latency difference to learn and then unlearn.
    plan = FaultPlan((
        FaultEvent(FaultKind.STRAGGLER, 5e-3, 5, duration_s=0.1, slow_factor=4.0),
    ))
    cfg = ServeConfig(
        sharded=True, routing="learned", sync_interval_s=1e-3,
        health=HealthConfig(),
    )
    return serve(
        cfg, cluster=_cluster(8, devices_per_node=4), scheduler=_scheduler(),
        vectors=_stream(3, n=1500, vector_size=4), arrivals=PoissonArrivals(6_000.0),
        seed=seed, faults=plan,
    )


def _sharded_integrity(seed):
    plan = FaultPlan.generate(
        seed, num_devices=8, horizon_s=0.02,
        n_transient=1, n_transfer=0, n_straggler=0, n_device_lost=0,
        n_data_corruption=2, n_tensor_bitflip=2, corruption_prob=0.9,
        corruption_window_frac=0.8,
    )
    cfg = ServeConfig(
        sharded=True, sync_interval_s=2e-3,
        integrity=IntegrityConfig(mode="spot", audit_fraction=0.5, blame_threshold=0.2),
    )
    return serve(
        cfg, cluster=_cluster(8, devices_per_node=4), scheduler=_scheduler(),
        vectors=_stream(7, n=48), arrivals=PoissonArrivals(2_000.0), seed=seed,
        faults=plan,
    )


def _bound_forest() -> RandomForestRegressor:
    """A small seeded forest fit on a fixed features -> bounds table.

    The table is synthetic (no tuner run): the first bound grows with the
    repeated rate, the second with the judged distribution and the third
    with the vector size, so a stream's changing reuse moves the triple.
    """
    rng = np.random.default_rng(29)
    n = 160
    X = np.column_stack([
        rng.choice([8.0, 16.0, 32.0], size=n),
        rng.choice([32.0, 64.0, 128.0], size=n),
        rng.choice([0.0, 1.0], size=n),
        rng.uniform(0.0, 1.0, size=n),
    ])
    Y = np.column_stack([np.floor(5.0 * X[:, 3]), 2.0 * X[:, 2], X[:, 0] / 8.0])
    return RandomForestRegressor(n_estimators=8, max_depth=6, seed=7).fit(X, Y)


class _RecordingPredictor(ReuseBoundPredictor):
    """A :class:`ReuseBoundPredictor` that remembers each triple it returns."""

    def __init__(self, model):
        super().__init__(model)
        self.triples: set[tuple] = set()

    def predict_bounds(self, chars):
        bounds = super().predict_bounds(chars)
        self.triples.add(bounds.as_tuple())
        return bounds


def _optimal_run(cfg, cluster, seed):
    # MICCO-optimal: the forest picks every vector's bounds.
    predictor = _RecordingPredictor(_bound_forest())
    result = serve(
        cfg, cluster=cluster, scheduler=_scheduler(), predictor=predictor,
        vectors=_stream(3, n=32), arrivals=PoissonArrivals(4_000.0), seed=seed,
    )
    result.predicted_bounds = sorted(predictor.triples)
    return result


def _optimal(seed):
    return _optimal_run(ServeConfig(queue_capacity=16), _cluster(), seed)


def _sharded_optimal(seed):
    # Predicted bounds are used as predicted, not rescaled to a shard's
    # four devices.
    cfg = ServeConfig(sharded=True, routing="residency-affinity")
    return _optimal_run(cfg, _cluster(8, devices_per_node=4), seed)


MODES = {
    "single": _single,
    "tenants": _tenants,
    "batched": _batched,
    "single-chaos": _single_chaos,
    "tenants-chaos": _tenants_chaos,
    "single-integrity": _single_integrity,
    "autoscale-integrity": _autoscale_integrity,
    "sharded": _sharded,
    "sharded-chaos": _sharded_chaos,
    "gray": _gray,
    "learned": _learned,
    "learned-wrap": _learned_wrap,
    "sharded-integrity": _sharded_integrity,
    "optimal": _optimal,
    "sharded-optimal": _sharded_optimal,
}


def run(mode: str, seed: int):
    """One golden run, on a fresh tensor-uid counter."""
    reset_uid_counter()
    return MODES[mode](seed)


def _sha(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def summarize(result) -> dict:
    """The readable part of a fixture: what the run did, in counts."""
    s = result.summary()
    actions = (result.autoscale or {}).get("actions", [])
    fault_kinds = Counter(e["kind"] for e in result.fault_events)
    labels = [e["label"] for e in result.fault_events]
    health = result.health or {}
    return {
        "offered": s["offered"],
        "completed": s["completed"],
        "drops": dict(sorted(Counter(d.reason for d in result.report.dropped).items())),
        "p50_s": s["p50_s"],
        "p99_s": s["p99_s"],
        "events_processed": result.events_processed,
        "multi_member_rounds": sum(1 for r in result.rounds if len(r["members"]) > 1),
        "scale_ups": sum(1 for a in actions if a["action"] == "up"),
        "scale_downs": sum(1 for a in actions if a["action"] == "down"),
        "replacements": sum(1 for a in actions if "replace lost" in a["reason"]),
        "node_losses": (result.faults or {}).get("node_losses", 0),
        "device_losses": (result.faults or {}).get("device_losses", 0),
        "restores": fault_kinds.get("restore", 0),
        "prewarms": fault_kinds.get("prewarm", 0),
        "link_cuts": sum(1 for x in labels if x.startswith("link lost")),
        "silences": sum(1 for x in labels if x.startswith("heartbeat loss")),
        "quarantines": fault_kinds.get("blame", 0),
        "detected": (result.integrity or {}).get("detected", 0),
        "health_quarantines": len(health.get("quarantine_episodes", [])),
        "hedges": health.get("hedges", {}).get("launched", 0),
        "forwards": (result.sharding or {}).get("forwards", 0),
        "rerouted": (result.sharding or {}).get("rerouted", 0),
        "learned_decisions": (result.routing or {}).get("learned", 0),
        "engine_trace_events": (
            len(result.engine_trace) if result.engine_trace is not None else None
        ),
    }


def _window_summary(result) -> dict:
    """How far the least-fed shard's learned-routing window got."""
    shards = result.routing["per_shard"].values()
    return {
        "min_shard_samples": min(s["samples"] for s in shards),
        "min_shard_refits": min(s["refits"] for s in shards),
    }


#: Extra summary fields for modes whose path the common summary cannot
#: see (kept out of :func:`summarize` so other fixtures do not change).
def _bounds_summary(result) -> dict:
    """How many distinct bound triples the predictor handed out."""
    return {"distinct_bounds": len(result.predicted_bounds)}


EXTRA_SUMMARY = {
    "learned-wrap": _window_summary,
    "optimal": _bounds_summary,
    "sharded-optimal": _bounds_summary,
}


def fingerprint(mode: str, seed: int) -> dict:
    """Artifact digests plus summary for one (mode, seed) run."""
    result = run(mode, seed)
    summary = summarize(result)
    if mode in EXTRA_SUMMARY:
        summary.update(EXTRA_SUMMARY[mode](result))
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        result.to_json(tmp / "report.json")
        result.to_trace().save_chrome_trace(tmp / "trace.json")
        engine = None
        if result.engine_trace is not None:
            result.engine_trace.save_chrome_trace(tmp / "engine.json")
            engine = _sha(tmp / "engine.json")
        return {
            "mode": mode,
            "seed": seed,
            "report_sha256": _sha(tmp / "report.json"),
            "trace_sha256": _sha(tmp / "trace.json"),
            "engine_trace_sha256": engine,
            "summary": summary,
        }


def fixture_path(mode: str, seed: int) -> Path:
    return GOLDEN_DIR / f"{mode}-s{seed}.json"


def load(mode: str, seed: int) -> dict:
    return json.loads(fixture_path(mode, seed).read_text())


def dump(fp: dict) -> str:
    return json.dumps(fp, indent=2) + "\n"


#: What each mode exists to cover: summary field -> minimum value.  A
#: fixture whose run no longer reaches its path fails this check.
COVERAGE = {
    "single": {"completed": 1},
    "tenants": {"completed": 1},
    "batched": {"multi_member_rounds": 1},
    "single-chaos": {
        "scale_downs": 1, "replacements": 1, "restores": 1, "node_losses": 1,
        "link_cuts": 1, "silences": 1, "prewarms": 1,
    },
    "tenants-chaos": {"multi_member_rounds": 1, "device_losses": 1, "prewarms": 1},
    "single-integrity": {"detected": 1, "quarantines": 1, "engine_trace_events": 1},
    "autoscale-integrity": {"quarantines": 1, "scale_ups": 1},
    "sharded": {"completed": 1},
    "sharded-chaos": {
        "scale_downs": 1, "replacements": 1, "restores": 1, "node_losses": 1,
        "link_cuts": 1, "rerouted": 1, "prewarms": 1,
    },
    "gray": {"hedges": 1, "health_quarantines": 1, "restores": 1, "silences": 1},
    "learned": {"learned_decisions": 1},
    # Every shard's 512-sample window wraps, then refits many times.
    "learned-wrap": {"learned_decisions": 1, "min_shard_samples": 513, "min_shard_refits": 32},
    "sharded-integrity": {"detected": 1, "quarantines": 1},
    "optimal": {"completed": 1, "distinct_bounds": 2},
    "sharded-optimal": {"completed": 1, "distinct_bounds": 2},
}


def coverage_gaps(mode: str, summary: dict) -> list[str]:
    """Coverage requirements of ``mode`` the summary does not meet."""
    return [
        f"{mode}: {field} = {summary[field]!r}, needs >= {need}"
        for field, need in COVERAGE[mode].items()
        if (summary[field] or 0) < need
    ]


# ------------------------------------------------------------ offline path
#: The offline fixture: the paper's f0d2 correlator through ``Micco.run``.
OFFLINE_MODE = "offline-f0d2"
OFFLINE_PATH = GOLDEN_DIR / f"{OFFLINE_MODE}.json"


def _offline_systems() -> dict:
    """The offline runs the fixture pins, by name.

    FIFO eviction reaches ``MemoryPool._victim_order``, which LRU skips.
    """
    lru = MiccoConfig(num_devices=8, keep_outputs=True)
    fifo = MiccoConfig(num_devices=8, keep_outputs=True, eviction_policy="fifo")
    return {
        "micco-naive-lru": Micco.naive(lru),
        "micco-naive-fifo": Micco.naive(fifo),
        "groute": Micco.baseline(GrouteScheduler(), lru),
    }


def _exact(summary: dict) -> dict:
    """Floats as ``float.hex`` so the fixture pins every bit."""
    return {k: v.hex() if isinstance(v, float) else v for k, v in summary.items()}


def offline_fingerprint() -> dict:
    """Each offline run's metrics summary, pattern histogram and placement digest.

    The full 16-slice f0d2 stream runs on 8 GPUs with outputs kept
    resident (the Redstar multi-stage pipeline).  ``assignments_sha256``
    hashes every vector's pair -> device list in stream order.
    """
    reset_uid_counter()
    vectors = RedstarPipeline(f0d2(time_slices=16)).vectors()
    runs = {}
    for name, system in _offline_systems().items():
        result = system.run(vectors)
        assignments = json.dumps([v["assignment"] for v in result.per_vector])
        runs[name] = {
            "summary": _exact(result.metrics.summary()),
            "pattern_counts": result.pattern_counts,
            "assignments_sha256": hashlib.sha256(assignments.encode()).hexdigest(),
        }
    return {"mode": OFFLINE_MODE, "runs": runs}


def load_offline() -> dict:
    return json.loads(OFFLINE_PATH.read_text())


# ------------------------------------------------------------- model path
#: The model fixture: fixed-seed tree, forest and GBM predictions.
ML_MODE = "ml-models"
ML_PATH = GOLDEN_DIR / f"{ML_MODE}.json"


def ml_models() -> tuple[np.ndarray, dict]:
    """Probe rows plus the fitted tree models the model fixture pins, by name.

    ``forest-1out`` is single-output, where a reordered sum over trees
    would show; ``tree`` subsamples features, so it pins the RNG draws.
    """
    rng = np.random.default_rng(31)
    X = rng.uniform(0.0, 4.0, size=(240, 4))
    Y = np.column_stack([
        np.sin(X[:, 0]) * X[:, 1],
        (X[:, 2] > 2.0) * X[:, 3],
        np.floor(X[:, 0] * X[:, 3]) % 3.0,
    ]) + 0.05 * rng.standard_normal((240, 3))
    probe = rng.uniform(-0.5, 4.5, size=(32, 4))
    models = {
        "tree": DecisionTreeRegressor(
            max_depth=8, min_samples_leaf=1, max_features=2, rng=np.random.default_rng(5)
        ).fit(X, Y),
        "forest": RandomForestRegressor(n_estimators=25, max_depth=10, seed=3).fit(X, Y),
        "forest-1out": RandomForestRegressor(n_estimators=25, max_depth=10, seed=4).fit(
            X, Y[:, 0]
        ),
        "gbm": GradientBoostingRegressor(n_estimators=30, subsample=0.7, seed=5).fit(X, Y),
    }
    return probe, models


def hex_rows(values) -> list[list[str]]:
    """A 2-d prediction as ``float.hex`` strings, so a fixture pins every bit."""
    return [[v.hex() for v in row] for row in np.asarray(values).tolist()]


def ml_fingerprint() -> dict:
    """Per-tree node count and depth plus probe predictions of each model."""
    probe, models = ml_models()
    out = {}
    for name, model in models.items():
        counts, depths = model.table_.sizes()
        out[name] = {
            "node_count": counts.tolist(),
            "depth": depths.tolist(),
            "predictions": hex_rows(model.predict(probe)),
        }
    return {"mode": ML_MODE, "models": out}


def load_ml() -> dict:
    return json.loads(ML_PATH.read_text())


# ------------------------------------------------------------ stream path
#: The stream fixture: every Redstar dataset's full vector stream.
STREAMS_MODE = "redstar-streams"
STREAMS_PATH = GOLDEN_DIR / f"{STREAMS_MODE}.json"
STREAM_DATASETS = {"a1_rhopi": a1_rhopi, "f0d2": f0d2, "f0d4": f0d4, "nucleon_nn": nucleon_nn}


def stream_sha256(vectors, depths: dict[int, int]) -> str:
    """Digest of each vector's id and meta and each pair's uids, labels,
    ranks and output depth."""
    rows = [
        [
            v.vector_id,
            sorted(v.meta.items()),
            [
                [(t.uid, t.label, t.rank) for t in (p.left, p.right, p.out)] + [depths[p.out.uid]]
                for p in v.pairs
            ],
        ]
        for v in vectors
    ]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def stream_fingerprint() -> dict:
    """Each dataset's stream digest plus its :class:`PipelineStats`.

    Every dataset runs at its default time-slice count on a fresh uid
    counter, so the digest pins uids and intern labels as well.
    """
    out = {}
    for name, factory in STREAM_DATASETS.items():
        reset_uid_counter()
        pipe = RedstarPipeline(factory())
        vectors = pipe.vectors()
        out[name] = {
            "stream_sha256": stream_sha256(vectors, pipe._depths),
            "stats": dataclasses.asdict(pipe.stats),
        }
    return {"mode": STREAMS_MODE, "datasets": out}


def load_streams() -> dict:
    return json.loads(STREAMS_PATH.read_text())
