"""Gray-failure resilience: health lifecycle, breakers, hedged dispatch."""

import json

import pytest

from repro.core.config import MiccoConfig
from repro.errors import ConfigurationError
from repro.faults import FaultEvent, FaultKind, FaultPlan
from repro.gpusim import CostModel, Topology
from repro.schedulers.bounds import ReuseBounds
from repro.schedulers.micco import MiccoScheduler
from repro.serve import (
    CircuitBreaker,
    HealthConfig,
    HealthMonitor,
    HedgePair,
    PoissonArrivals,
    ServeConfig,
    ShardedServer,
    ShardHealthState,
    ShardSnapshot,
)
from repro.serve.health import (
    AdaptiveHedgeDeadline,
    LatencyWindow,
    hedge_shielded,
)
from repro.serve.sharded.routing import (
    LeastLoaded,
    ResidencyAffinity,
    ThresholdLocal,
)
from repro.workloads import SyntheticWorkload, WorkloadParams

MIB = 1024**2


def sharded_config(num_devices: int = 8, devices_per_node: int = 4) -> MiccoConfig:
    topo = Topology(num_devices=num_devices, devices_per_node=devices_per_node)
    return MiccoConfig(
        num_devices=num_devices,
        memory_bytes=64 * MIB,
        cost_model=CostModel(topology=topo),
    )


def make_vectors(n: int = 16, seed: int = 3):
    params = WorkloadParams(
        vector_size=8, tensor_size=128, repeated_rate=0.6, num_vectors=n, batch=4
    )
    return SyntheticWorkload(params, seed=seed).vectors()


def run_health(*, health, faults=None, n=32, arrivals=None, seed=0, vectors=None):
    serve = ServeConfig(sharded=True, health=health)
    server = ShardedServer(
        MiccoScheduler(ReuseBounds(0, 4, 0)), sharded_config(), serve
    )
    return server.run(
        vectors if vectors is not None else make_vectors(n),
        arrivals if arrivals is not None else [i * 1e-3 for i in range(n)],
        seed=seed,
        faults=faults,
    )


FAST_HEALTH = HealthConfig(
    heartbeat_interval_s=1e-3,
    suspect_threshold=2.0,
    quarantine_threshold=4.0,
    probation_beats=3,
)


class TestHealthConfig:
    def test_round_trip(self):
        cfg = HealthConfig(hedging=True, breaker_threshold=7)
        assert HealthConfig.from_dict(cfg.to_dict()) == cfg

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown keys"):
            HealthConfig.from_dict({"heartbeats": 3})

    @pytest.mark.parametrize("kwargs", [
        {"heartbeat_interval_s": 0.0},
        {"alpha": 0.0},
        {"alpha": 1.5},
        {"suspect_threshold": 1.0},
        {"quarantine_threshold": 2.0, "suspect_threshold": 2.0},
        {"probation_beats": 0},
        {"hedge_deadline_s": 0.0},
        {"breaker_threshold": 0},
        {"breaker_probe_interval_s": 0.0},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ConfigurationError):
            HealthConfig(**kwargs)


class TestHealthMonitor:
    def monitor(self, **overrides):
        cfg = HealthConfig(heartbeat_interval_s=1.0, probation_beats=2, **overrides)
        return HealthMonitor([0, 1], cfg)

    def test_silence_walks_healthy_suspect_quarantined(self):
        m = self.monitor()
        for t in (1.0, 2.0, 3.0):
            m.beat(0, t)
            m.beat(1, t)
            m.evaluate(t)
        assert m.state[0] is ShardHealthState.HEALTHY
        # Node 0 goes silent; node 1 keeps beating.
        quarantined = []
        for t in (4.0, 5.0, 6.0, 7.0, 8.0):
            m.beat(1, t)
            quarantined += m.evaluate(t)
        assert m.state[0] is ShardHealthState.QUARANTINED
        assert m.state[1] is ShardHealthState.HEALTHY
        assert quarantined == [0]
        assert [ep["node"] for ep in m.quarantine_episodes] == [0]
        assert m.quarantine_episodes[0]["end_s"] is None

    def test_probation_readmits_after_clean_beats(self):
        m = self.monitor()
        for t in (4.0, 5.0, 6.0, 7.0, 8.0):
            m.evaluate(t)
        assert m.state[0] is ShardHealthState.QUARANTINED
        m.beat(0, 9.0)  # back from the dead: probation, not healthy
        assert m.state[0] is ShardHealthState.PROBATION
        m.beat(0, 10.0)
        assert m.state[0] is ShardHealthState.PROBATION
        m.beat(0, 11.0)  # second consecutive on-time beat: re-admitted
        assert m.state[0] is ShardHealthState.HEALTHY
        assert m.quarantine_episodes[0]["end_s"] == 9.0

    def test_probation_relapse_goes_straight_back_to_quarantine(self):
        m = self.monitor()
        for t in (4.0, 5.0, 6.0, 7.0, 8.0):
            m.evaluate(t)
        m.beat(0, 9.0)
        assert m.state[0] is ShardHealthState.PROBATION
        for t in (10.0, 11.0, 12.0):
            m.evaluate(t)
        assert m.state[0] is ShardHealthState.QUARANTINED
        assert sum(ep["node"] == 0 for ep in m.quarantine_episodes) == 2

    def test_quarantine_silence_does_not_inflate_the_gap_estimate(self):
        m = self.monitor()
        for t in (4.0, 5.0, 6.0, 7.0, 8.0):
            m.evaluate(t)
        gap_before = m.mean_gap[0]
        m.beat(0, 20.0)  # an 20 s gap, but the shard was quarantined
        assert m.mean_gap[0] == gap_before

    def test_dead_is_terminal_and_unroutable(self):
        m = self.monitor()
        m.mark_dead(0, 2.0)
        m.beat(0, 3.0)
        m.evaluate(3.0)
        assert m.state[0] is ShardHealthState.DEAD
        assert m.is_unroutable(0)
        death = next(t for t in m.transitions if t["to"] == "dead")
        assert death["suspicion"] == -1.0  # inf mapped for JSON

    def test_summary_is_json_ready(self):
        m = self.monitor()
        m.beat(0, 1.0)
        m.evaluate(5.0)
        blob = json.dumps(m.summary(), sort_keys=True)
        assert "suspicion_timeline" in blob


class TestCircuitBreaker:
    def test_opens_after_consecutive_rejections_only(self):
        b = CircuitBreaker(0, threshold=3, probe_interval_s=1.0)
        b.record_rejection(0.1)
        b.record_rejection(0.2)
        b.record_success(0.3)  # resets the consecutive count
        b.record_rejection(0.4)
        b.record_rejection(0.5)
        assert b.state == CircuitBreaker.CLOSED
        b.record_rejection(0.6)
        assert b.state == CircuitBreaker.OPEN
        assert b.opens == 1

    def test_half_open_admits_exactly_one_probe(self):
        b = CircuitBreaker(0, threshold=1, probe_interval_s=1.0)
        b.record_rejection(0.0)
        assert not b.allow(0.5)  # still open
        assert b.allow(1.5)  # probe window: one ticket through
        assert b.state == CircuitBreaker.HALF_OPEN
        assert not b.allow(1.5)  # second caller in the same window: no
        b.record_success(1.6)
        assert b.state == CircuitBreaker.CLOSED

    def test_rejected_probe_reopens(self):
        b = CircuitBreaker(0, threshold=1, probe_interval_s=1.0)
        b.record_rejection(0.0)
        assert b.allow(1.5)
        b.record_rejection(1.5)
        assert b.state == CircuitBreaker.OPEN
        assert b.opens == 2
        assert not b.allow(2.0)  # probe clock restarted at 1.5
        assert b.allow(2.6)

    def test_transitions_are_logged(self):
        log = []
        b = CircuitBreaker(3, threshold=1, probe_interval_s=1.0, transitions=log)
        b.record_rejection(0.0)
        b.allow(2.0)
        b.record_success(2.0)
        assert [(e["from"], e["to"]) for e in log] == [
            ("closed", "open"), ("open", "half_open"), ("half_open", "closed"),
        ]
        assert all(e["node"] == 3 for e in log)


class TestHedgePair:
    def ticket(self):
        class T:
            hedge = None
            cancelled = False
        return T()

    def test_shielding_covers_both_sides_until_resolved(self):
        a, b = self.ticket(), self.ticket()
        pair = HedgePair(primary=a, clone=b)
        a.hedge = b.hedge = pair
        assert hedge_shielded(a) and hedge_shielded(b)
        pair.resolved = True
        pair.winner = a
        assert not hedge_shielded(a)

    def test_no_shield_when_partner_already_cancelled(self):
        a, b = self.ticket(), self.ticket()
        pair = HedgePair(primary=a, clone=b)
        a.hedge = b.hedge = pair
        b.cancelled = True
        assert not hedge_shielded(a)
        assert not hedge_shielded(self.ticket())  # un-hedged: never shielded


class TestSuspectRouting:
    class Vec:
        vector_id = 0
        pairs = ()

    def snaps(self):
        # The suspect shard is otherwise strictly more attractive.
        return [
            ShardSnapshot(node=0, alive=4, queue_depth=5, inflight=1),
            ShardSnapshot(node=1, alive=4, queue_depth=0, inflight=0, suspect=True),
        ]

    def test_every_policy_deprioritizes_suspects(self):
        for policy in (LeastLoaded(), ResidencyAffinity(), ThresholdLocal(threshold=9)):
            assert policy.choose(self.Vec(), self.snaps()) == 0, policy.name

    def test_suspect_still_used_when_alone(self):
        only = [ShardSnapshot(node=1, alive=4, queue_depth=0, inflight=0, suspect=True)]
        assert LeastLoaded().choose(self.Vec(), only) == 1


class TestGrayFaultsEndToEnd:
    def silence_plan(self):
        # Node 1 (device 5) goes silent 5 ms for 8 ms; devices keep working.
        return FaultPlan((
            FaultEvent(FaultKind.HEARTBEAT_LOSS, 5e-3, 5, duration_s=8e-3),
        ))

    def flap_plan(self):
        # Node 1 flaps twice: down 4 ms at 5 ms and again at 15 ms.
        return FaultPlan((
            FaultEvent(
                FaultKind.NODE_FLAP, 5e-3, 5,
                duration_s=4e-3, count=2, period_s=1e-2,
            ),
        ))

    def test_silence_quarantines_then_readmits(self):
        result = run_health(health=FAST_HEALTH, faults=self.silence_plan())
        s = result.summary()
        assert s["completed"] + s["dropped"] == s["offered"] == 32
        h = result.health
        eps = [ep for ep in h["quarantine_episodes"] if ep["node"] == 1]
        assert eps and eps[0]["end_s"] is not None  # quarantined, then back
        assert h["states"]["1"] == "healthy"
        path = [
            (t["from"], t["to"]) for t in h["transitions"] if t["node"] == 1
        ]
        assert ("suspect", "quarantined") in path
        assert ("probation", "healthy") in path

    def test_quarantine_drains_the_queue_without_killing_the_shard(self):
        result = run_health(health=FAST_HEALTH, faults=self.silence_plan())
        sh = result.sharding
        silenced = next(x for x in sh["shards"] if x["node"] == 1)
        assert not silenced["dead"]
        assert silenced["alive"] == 4

    def test_flap_restores_devices_and_conserves_tickets(self):
        for health in (None, FAST_HEALTH):
            result = run_health(health=health, faults=self.flap_plan())
            s = result.summary()
            assert s["completed"] + s["dropped"] == s["offered"] == 32
            f = result.faults
            assert f["injected"]["node_flap"] == 2  # both cycles injected
            assert f["device_restores"] == 8  # 2 cycles x 4 devices
            assert all(not x["dead"] for x in result.sharding["shards"])
        assert result.health is not None
        assert len(result.health["quarantine_episodes"]) >= 1

    def test_flap_is_not_announced_to_the_router(self):
        # Gray failure semantics: a flap never shows up as a reroute
        # (reroutes are the *announced* shard-death path).
        result = run_health(health=None, faults=self.flap_plan())
        assert result.health is None

    def test_hedging_accounting_is_exactly_once(self):
        health = FAST_HEALTH.with_(hedging=True, hedge_deadline_s=2e-3)
        plan = FaultPlan((
            FaultEvent(
                FaultKind.NODE_FLAP, 2e-3, 5,
                duration_s=5e-3, count=2, period_s=1e-2,
            ),
            FaultEvent(FaultKind.HEARTBEAT_LOSS, 4e-3, 1, duration_s=6e-3),
        ))
        vectors = make_vectors(48)
        serve = ServeConfig(sharded=True, health=health)
        server = ShardedServer(
            MiccoScheduler(ReuseBounds(0, 4, 0)), sharded_config(), serve
        )
        result = server.run(vectors, PoissonArrivals(3000.0), seed=0, faults=plan)
        s = result.summary()
        assert s["completed"] + s["dropped"] == s["offered"] == 48
        hedges = result.health["hedges"]
        assert hedges["launched"] >= 1
        # Every resolved race cancels exactly one loser; clones that
        # never found a home cancel silently as unplaced, and copies
        # shed while their partner raced as absorbed drops.
        assert hedges["cancelled"] == (
            hedges["won_by_primary"] + hedges["won_by_clone"]
        )
        assert hedges["launched"] == (
            hedges["won_by_primary"] + hedges["won_by_clone"]
            + hedges["unplaced"] + hedges["absorbed_drops"]
        )

    def test_health_events_feed_the_trace(self):
        result = run_health(health=FAST_HEALTH, faults=self.silence_plan())
        kinds = {e["kind"] for e in result.health_events}
        assert "health" in kinds
        trace = result.to_trace()
        lanes = {e.device for e in trace.events if e.kind == "health"}
        assert lanes and all(lane <= -100_000 for lane in lanes)

    def test_fixed_seed_replays_byte_for_byte(self, tmp_path):
        health = FAST_HEALTH.with_(hedging=True, hedge_deadline_s=2e-3)
        plan = FaultPlan((
            FaultEvent(
                FaultKind.NODE_FLAP, 2e-3, 5,
                duration_s=5e-3, count=2, period_s=1e-2,
            ),
            FaultEvent(FaultKind.HEARTBEAT_LOSS, 4e-3, 1, duration_s=6e-3),
        ))
        vectors = make_vectors(48)
        blobs, traces = [], []
        for i in range(2):
            serve = ServeConfig(sharded=True, health=health)
            server = ShardedServer(
                MiccoScheduler(ReuseBounds(0, 4, 0)), sharded_config(), serve
            )
            result = server.run(
                vectors, PoissonArrivals(3000.0), seed=0, faults=plan
            )
            p = tmp_path / f"run{i}.json"
            result.to_json(p)
            blobs.append(p.read_bytes())
            traces.append(
                json.dumps(result.to_trace().to_chrome_trace(), sort_keys=True)
            )
        assert blobs[0] == blobs[1]
        assert traces[0] == traces[1]


class TestLatencyWindow:
    def test_bounded_capacity(self):
        w = LatencyWindow(capacity=3)
        for v in (1.0, 2.0, 3.0, 4.0):
            w.observe(v)
        assert len(w) == 3
        assert w.quantile(1.0) == 4.0
        assert w.quantile(0.01) == 2.0  # 1.0 slid out

    def test_nearest_rank_quantiles(self):
        w = LatencyWindow(capacity=10)
        for v in (5.0, 1.0, 3.0, 2.0, 4.0):
            w.observe(v)
        assert w.quantile(0.5) == 3.0
        assert w.quantile(0.95) == 5.0
        assert w.quantile(0.2) == 1.0

    def test_empty_window_rejected(self):
        with pytest.raises(ConfigurationError):
            LatencyWindow(capacity=2).quantile(0.5)
        with pytest.raises(ConfigurationError):
            LatencyWindow(capacity=0)


class TestAdaptiveHedgeDeadline:
    CFG = HealthConfig(
        hedging=True, adaptive_hedging=True, hedge_deadline_s=0.1,
        hedge_quantile=0.5, hedge_window=8, hedge_multiplier=2.0,
        hedge_min_samples=3,
    )

    def test_fixed_fallback_until_min_samples(self):
        hedger = AdaptiveHedgeDeadline(self.CFG)
        assert hedger.deadline_for("a") == 0.1
        hedger.observe("a", 0.01)
        hedger.observe("a", 0.02)
        assert hedger.deadline_for("a") == 0.1  # 2 < min_samples
        hedger.observe("a", 0.03)
        assert hedger.deadline_for("a") == pytest.approx(2.0 * 0.02)

    def test_per_tenant_windows_are_independent(self):
        hedger = AdaptiveHedgeDeadline(self.CFG)
        for _ in range(4):
            hedger.observe("fast", 0.001)
            hedger.observe("slow", 1.0)
        assert hedger.deadline_for("fast") == pytest.approx(0.002)
        assert hedger.deadline_for("slow") == pytest.approx(2.0)
        assert hedger.deadline_for("unseen") == 0.1

    def test_sliding_window_tracks_shifts(self):
        hedger = AdaptiveHedgeDeadline(self.CFG)
        for _ in range(8):
            hedger.observe("t", 0.01)
        assert hedger.deadline_for("t") == pytest.approx(0.02)
        for _ in range(8):  # regime change fills the whole window
            hedger.observe("t", 0.1)
        assert hedger.deadline_for("t") == pytest.approx(0.2)

    def test_summary_shape(self):
        hedger = AdaptiveHedgeDeadline(self.CFG)
        hedger.observe(None, 0.5)
        summary = hedger.summary()
        assert summary == {"None": {"samples": 1, "deadline_s": 0.1}}

    def test_config_validation(self):
        for kwargs in (
            {"hedge_quantile": 0.0},
            {"hedge_quantile": 1.5},
            {"hedge_window": 0},
            {"hedge_multiplier": 0.0},
            {"hedge_min_samples": 0},
        ):
            with pytest.raises(ConfigurationError):
                HealthConfig(**kwargs)

    def test_config_round_trips_with_adaptive_knobs(self):
        cfg = HealthConfig(
            hedging=True, adaptive_hedging=True, hedge_quantile=0.9,
            hedge_window=32, hedge_multiplier=3.0, hedge_min_samples=4,
        )
        assert HealthConfig.from_dict(cfg.to_dict()) == cfg

    def test_old_health_dict_without_adaptive_keys_loads(self):
        payload = HealthConfig().to_dict()
        for key in (
            "adaptive_hedging", "hedge_quantile", "hedge_window",
            "hedge_multiplier", "hedge_min_samples",
        ):
            payload.pop(key)
        cfg = HealthConfig.from_dict(payload)
        assert cfg.adaptive_hedging is False

    def test_adaptive_run_reports_deadlines_and_stays_exactly_once(self):
        health = FAST_HEALTH.with_(
            hedging=True, adaptive_hedging=True, hedge_deadline_s=2e-3,
            hedge_min_samples=4, hedge_multiplier=2.0,
        )
        plan = FaultPlan((
            FaultEvent(
                FaultKind.NODE_FLAP, 2e-3, 5,
                duration_s=5e-3, count=2, period_s=1e-2,
            ),
            FaultEvent(FaultKind.HEARTBEAT_LOSS, 4e-3, 1, duration_s=6e-3),
        ))
        vectors = make_vectors(48)
        serve = ServeConfig(sharded=True, health=health)
        server = ShardedServer(
            MiccoScheduler(ReuseBounds(0, 4, 0)), sharded_config(), serve
        )
        result = server.run(vectors, PoissonArrivals(3000.0), seed=0, faults=plan)
        s = result.summary()
        assert s["completed"] + s["dropped"] == s["offered"] == 48
        hedges = result.health["hedges"]
        assert hedges["cancelled"] == (
            hedges["won_by_primary"] + hedges["won_by_clone"]
        )
        deadlines = result.health["adaptive_deadlines"]
        assert deadlines  # at least one tenant window observed
        for entry in deadlines.values():
            assert entry["samples"] >= 1
            assert entry["deadline_s"] > 0

    def test_fixed_deadline_stays_the_default(self):
        # adaptive_hedging off: behaviour is byte-identical to before the
        # knob existed (the fixed value is the override path).
        health = FAST_HEALTH.with_(hedging=True, hedge_deadline_s=2e-3)
        assert health.adaptive_hedging is False
        result = run_health(health=health)
        assert result.health["adaptive_deadlines"] is None
