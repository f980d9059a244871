"""Serving-mode matrix behind the frozen golden fixtures.

Every mode is one small fixed-seed run that reaches a distinct path of
the serving loop: :data:`MODES` call :func:`repro.serve.serve` and
:data:`CLI_MODES` call ``micco serve`` / ``micco chaos`` in-process.
:func:`fingerprint` reduces a run to the SHA-256 of its serialized
artifacts plus a short readable summary; ``tests/golden/<mode>-s<seed>.json``
stores that fingerprint, ``tests/test_golden_fixtures.py`` recomputes and
compares it, and ``tools/regen_golden.py`` rewrites it (only with ``--write``).

Streams are built right after :func:`reset_uid_counter`: integrity
labels carry tensor uids, so without the reset the digests would depend
on which tests ran earlier in the process.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np

from repro import cli
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
ROOT = Path(__file__).resolve().parents[1]
GOLDEN_DIR = ROOT / "tests" / "golden"
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


def _composed(seed):
    # Every fault kind in one sharded run with health, hedging and spot
    # audits: the fault counts and defaults ``micco chaos --kill 1
    # --kill-nodes 1 --cut-links 1 --flap-nodes 1 --silence-nodes 1
    # --corrupt-devices 1 --bitflips 2 --health --hedge --verify spot``
    # derives for 40 vectors at its default 100 vectors/s.
    n, rate = 40, 100.0
    plan = FaultPlan.generate(
        seed, num_devices=8, horizon_s=n / rate,
        n_device_lost=1, n_node_lost=1, n_link_lost=1, n_node_flap=1,
        n_heartbeat_loss=1, n_data_corruption=1, n_tensor_bitflip=2,
    )
    cfg = ServeConfig(
        sharded=True,
        health=HealthConfig(hedging=True),
        integrity=IntegrityConfig(mode="spot"),
    )
    params = WorkloadParams(
        vector_size=16, tensor_size=256, repeated_rate=0.8, num_vectors=n, batch=8,
    )
    return serve(
        cfg,
        cluster=MiccoConfig(
            num_devices=8, cost_model=CostModel(topology=Topology(num_devices=8, devices_per_node=4))
        ),
        scheduler=MiccoScheduler(ReuseBounds.from_sequence("0,4,0".split(","))),
        vectors=SyntheticWorkload(params, seed=seed).vectors(),
        arrivals=PoissonArrivals(rate), seed=seed, faults=plan,
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
    result.golden_summary = {"distinct_bounds": len(predictor.triples)}
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
    "composed": _composed,
}


def run(mode: str, seed: int):
    """One golden run, on a fresh tensor-uid counter."""
    reset_uid_counter()
    return MODES[mode](seed)


#: ``micco`` command lines, one golden mode each, run in-process through
#: :func:`repro.cli.main` with ``--seed``, ``--json`` and ``--trace``
#: appended.  ``cli-sharded-chaos`` needs a third node and a second link
#: cut, or its one cut lands on the node that dies and no fetch is
#: host-staged; ``cli-suspect-full`` needs ``--corruption-prob 0.2``, or
#: it audits no more pairs than ``--verify spot``.
CLI_MODES = {
    "cli-chaos": "chaos --num-vectors 20".split(),
    "cli-node-loss": (
        "chaos --num-vectors 20 --num-devices 8 --devices-per-node 4 --kill 0 "
        "--kill-nodes 1 --warm-restore --fault-aware"
    ).split(),
    "cli-tenants": ["serve", "--config", str(ROOT / "examples" / "tenants.json")],
    "cli-batched": "serve --num-vectors 40 --rate 2000 --max-batch-vectors 4".split(),
    "cli-sharded": (
        "serve --num-vectors 40 --rate 2000 --num-devices 8 --devices-per-node 4 --sharded "
        "--sync-interval 0.01 --routing residency-affinity --max-batch-vectors 4"
    ).split(),
    "cli-sharded16": (
        "serve --num-vectors 60 --num-devices 16 --devices-per-node 1 --sharded "
        "--routing residency-affinity"
    ).split(),
    "cli-sharded-chaos": (
        "chaos --num-vectors 30 --num-devices 12 --devices-per-node 4 --sharded "
        "--kill 0 --kill-nodes 1 --cut-links 2"
    ).split(),
    "cli-gray": (
        "chaos --num-vectors 30 --num-devices 8 --devices-per-node 4 --sharded "
        "--kill 0 --flap-nodes 1 --silence-nodes 1 --health --hedge"
    ).split(),
    "cli-learned": (
        "serve --num-vectors 40 --rate 2000 --num-devices 8 --devices-per-node 4 --sharded "
        "--health --sync-interval 0.01 --routing learned --explore-floor 0.1 "
        "--min-samples 4 --refit-interval 4"
    ).split(),
    "cli-integrity": (
        "chaos --num-vectors 60 --corrupt-devices 1 --bitflips 1 --verify spot"
    ).split(),
    "cli-suspect-full": (
        "chaos --num-vectors 60 --corrupt-devices 1 --bitflips 1 --corruption-prob 0.2 "
        "--verify suspect-full"
    ).split(),
}

#: Every (mode, seed) fixture's mode: the in-process runs, then the CLI runs.
FIXTURE_MODES = (*MODES, *CLI_MODES)


def run_cli(argv: list[str], seed: int, out: Path) -> dict:
    """``micco <argv>`` at ``seed`` writing ``out/report.json`` and
    ``out/trace.json``, on a fresh tensor-uid counter; returns the report."""
    reset_uid_counter()
    report = out / "report.json"
    files = ["--json", str(report), "--trace", str(out / "trace.json")]
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main([*argv, "--seed", str(seed), *files])
    assert rc == 0, f"micco {' '.join(argv)} exited {rc}"
    return json.loads(report.read_text())


def _sha(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def strict_events(path: Path) -> list:
    """A Chrome trace's events, parsed with NaN and Infinity rejected."""

    def reject(token):
        raise ValueError(f"{path.name}: non-finite JSON token {token}")

    events = json.loads(path.read_text(), parse_constant=reject)["traceEvents"]
    assert events, f"{path.name}: empty traceEvents"
    return events


def summarize(report: dict, engine_trace_events: int | None = None) -> dict:
    """The readable part of a fixture: what the run did, in counts.

    ``report`` is the parsed report JSON, as ``ServeResult.to_json`` and
    ``micco serve --json`` write it.
    """
    s = report["summary"]
    faults = report.get("faults") or {}
    actions = (report.get("autoscale") or {}).get("actions", [])
    fault_events = report.get("fault_events", [])
    fault_kinds = Counter(e["kind"] for e in fault_events)
    labels = [e["label"] for e in fault_events]
    health = report.get("health") or {}
    sharding = report.get("sharding") or {}
    return {
        "offered": s["offered"],
        "completed": s["completed"],
        "drops": dict(sorted(Counter(d["reason"] for d in report["dropped"]).items())),
        "p50_s": s["p50_s"],
        "p99_s": s["p99_s"],
        "events_processed": s["events_processed"],
        "multi_member_rounds": sum(1 for r in report.get("rounds", ()) if len(r["members"]) > 1),
        "scale_ups": sum(1 for a in actions if a["action"] == "up"),
        "scale_downs": sum(1 for a in actions if a["action"] == "down"),
        "replacements": sum(1 for a in actions if "replace lost" in a["reason"]),
        "node_losses": faults.get("node_losses", 0),
        "device_losses": faults.get("device_losses", 0),
        "restores": fault_kinds.get("restore", 0),
        "prewarms": fault_kinds.get("prewarm", 0),
        "link_cuts": sum(1 for x in labels if x.startswith("link lost")),
        "silences": sum(1 for x in labels if x.startswith("heartbeat loss")),
        "quarantines": fault_kinds.get("blame", 0),
        "detected": (report.get("integrity") or {}).get("detected", 0),
        "health_quarantines": len(health.get("quarantine_episodes", [])),
        "hedges": health.get("hedges", {}).get("launched", 0),
        "forwards": sharding.get("forwards", 0),
        "rerouted": sharding.get("rerouted", 0),
        "learned_decisions": (report.get("routing") or {}).get("learned", 0),
        "engine_trace_events": engine_trace_events,
    }


#: Extra summary fields for modes whose path the common summary cannot
#: see (kept out of :func:`summarize` so other fixtures do not change),
#: each read from the parsed report.
def _window_summary(report) -> dict:
    """How far the least-fed shard's learned-routing window got."""
    shards = report["routing"]["per_shard"].values()
    return {
        "min_shard_samples": min(s["samples"] for s in shards),
        "min_shard_refits": min(s["refits"] for s in shards),
    }


def _kinds_summary(report) -> dict:
    """How many fault events of each kind came due."""
    return {"injected": dict(sorted(report["faults"]["injected"].items()))}


def _fault_counts(*fields):
    """Copy these counters of the report's ``faults`` section."""
    return lambda report: {f: report["faults"][f] for f in fields}


def _shard_count(report) -> dict:
    return {"num_shards": report["sharding"]["num_shards"]}


def _audits_over_spot(report) -> dict:
    """Pairs audited, and how many more than under ``--verify spot``."""
    with tempfile.TemporaryDirectory() as tmp:
        argv = [*CLI_MODES["cli-suspect-full"], "--verify", "spot"]
        spot = run_cli(argv, report["config"]["seed"], Path(tmp))
    audited = report["integrity"]["audited_pairs"]
    return {
        "audited_pairs": audited,
        "audited_over_spot": audited - spot["integrity"]["audited_pairs"],
    }


EXTRA_SUMMARY = {
    "learned-wrap": _window_summary,
    "composed": _kinds_summary,
    "cli-node-loss": _fault_counts("predicted_infeasible"),
    "cli-sharded16": _shard_count,
    "cli-sharded-chaos": _fault_counts("link_losses", "host_staged_fetches"),
    "cli-gray": _fault_counts("heartbeat_losses"),
    "cli-suspect-full": _audits_over_spot,
}


def fingerprint(mode: str, seed: int) -> dict:
    """Artifact digests plus summary for one (mode, seed) run.

    Every trace written must be strict JSON (no NaN or Infinity).
    """
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        extra = {}
        if mode in CLI_MODES:
            run_cli(CLI_MODES[mode], seed, out)
        else:
            result = run(mode, seed)
            result.to_json(out / "report.json")
            result.to_trace().save_chrome_trace(out / "trace.json")
            if result.engine_trace is not None:
                result.engine_trace.save_chrome_trace(out / "engine.json")
            # Fields a run knows that its report does not show.
            extra = getattr(result, "golden_summary", {})
        report = json.loads((out / "report.json").read_text())
        strict_events(out / "trace.json")
        engine = out / "engine.json"
        has_engine = engine.exists()
        summary = summarize(report, len(strict_events(engine)) if has_engine else None)
        if mode in EXTRA_SUMMARY:
            summary.update(EXTRA_SUMMARY[mode](report))
        summary.update(extra)
        return {
            "mode": mode,
            "seed": seed,
            "report_sha256": _sha(out / "report.json"),
            "trace_sha256": _sha(out / "trace.json"),
            "engine_trace_sha256": _sha(engine) if has_engine else None,
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
    # The kinds both seeds' plans fire, and what the losses and flaps did.
    # ``injected`` counts events that came due, not what took effect: at
    # s12 the link cut and the silence land on the dead node, so applied
    # cuts and silences are pinned by cli-sharded-chaos and cli-gray.
    "composed": {
        "node_losses": 1, "device_losses": 1, "restores": 1,
        **{
            f"injected.{kind}": 1
            for kind in (
                "device_lost", "node_flap", "node_lost", "tensor_bitflip", "transfer",
                "transient",
            )
        },
    },
    "cli-chaos": {"device_losses": 1},
    "cli-node-loss": {"node_losses": 1, "predicted_infeasible": 1},
    "cli-tenants": {"completed": 1, "scale_downs": 1},
    "cli-batched": {"multi_member_rounds": 1},
    "cli-sharded": {"multi_member_rounds": 1},
    "cli-sharded16": {"num_shards": 16},
    "cli-sharded-chaos": {"node_losses": 1, "link_losses": 1, "host_staged_fetches": 1},
    # Hedges are covered by the in-process gray mode.
    "cli-gray": {"heartbeat_losses": 1, "restores": 1, "health_quarantines": 1},
    "cli-learned": {"learned_decisions": 1},
    "cli-integrity": {"detected": 1, "quarantines": 1},
    "cli-suspect-full": {"detected": 1, "audited_over_spot": 1},
}


def coverage_gaps(mode: str, summary: dict) -> list[str]:
    """Coverage requirements of ``mode`` the summary does not meet."""
    gaps = []
    for field, need in COVERAGE[mode].items():
        value = summary
        for key in field.split("."):  # "injected.node_lost" reads a nested count
            value = value[key]
        if (value or 0) < need:
            gaps.append(f"{mode}: {field} = {value!r}, needs >= {need}")
    return gaps


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
