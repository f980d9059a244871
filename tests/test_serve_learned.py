"""Learned routing: online latency prediction, cold start, determinism."""

import copy
import dataclasses

import pytest

from repro.errors import ConfigurationError
from repro.faults import FaultEvent, FaultKind, FaultPlan
from repro.serve import HealthConfig, LearnedRouting, PoissonArrivals, ServeConfig
from repro.serve.sharded.learned import FEATURE_NAMES, route_features
from repro.serve.sharded.server import GlobalScheduler
from repro.serve.sharded.routing import ShardSnapshot, make_routing_policy
from tests.conftest import make_vector
from tests.test_serve_sharded import run_sharded


def snap(node, depth=0, inflight=0, pending=0, **extra):
    return ShardSnapshot(
        node=node, alive=4, queue_depth=depth, inflight=inflight,
        linkless=False, residency={}, pending=pending, **extra,
    )


def warm_policy(latencies, *, explore_floor=0.0, seed=0, n_samples=4):
    """A LearnedRouting whose shard models predict ``latencies[node]``."""
    policy = LearnedRouting(
        explore_floor=explore_floor, min_samples=2, refit_interval=1,
        seed=seed,
    )
    v = make_vector()
    for node, latency in latencies.items():
        for i in range(n_samples):
            x = route_features(v, snap(node, depth=i))
            policy.model(node).observe(x, latency)
    return policy


class TestConstruction:
    def test_registry_builds_it(self):
        policy = make_routing_policy("learned", min_samples=3)
        assert isinstance(policy, LearnedRouting)
        assert policy.name == "learned"
        assert policy.min_samples == 3

    def test_wants_features(self):
        # The router only pays for enriched snapshots + callbacks when
        # the policy opts in; the static three never do.
        assert LearnedRouting().wants_features
        for name in ("least-loaded", "residency-affinity", "threshold-local"):
            assert not make_routing_policy(name).wants_features

    def test_knob_validation(self):
        with pytest.raises(ConfigurationError, match="explore_floor"):
            LearnedRouting(explore_floor=1.0)
        with pytest.raises(ConfigurationError, match="explore_floor"):
            LearnedRouting(explore_floor=-0.1)
        with pytest.raises(ConfigurationError, match="min_samples"):
            LearnedRouting(min_samples=1)
        with pytest.raises(ConfigurationError, match="refit_interval"):
            LearnedRouting(refit_interval=0)


class TestFeatures:
    def test_feature_row_matches_layout(self):
        v = make_vector(n_pairs=2)
        uids = {s.uid: s.nbytes for p in v.pairs for s in p.inputs}
        some_uid = next(iter(uids))
        s = snap(
            1, depth=3, inflight=2, pending=1,
            age_s=0.02, suspicion=1.5, quarantines=2, breaker=1, blame=0.3,
        )
        s = dataclasses.replace(s, residency={some_uid: uids[some_uid]})
        x = route_features(v, s)
        assert x.shape == (len(FEATURE_NAMES),)
        row = dict(zip(FEATURE_NAMES, x))
        assert row["queue_depth"] == 3
        assert row["inflight"] == 2
        assert row["pending"] == 1
        assert row["age_s"] == pytest.approx(0.02)
        assert row["suspicion"] == pytest.approx(1.5)
        assert row["quarantines"] == 2
        assert row["breaker"] == 1
        assert row["blame"] == pytest.approx(0.3)
        assert row["num_pairs"] == 2
        assert row["overlap_mib"] > 0


class TestColdStart:
    def test_falls_back_to_least_loaded(self):
        policy = LearnedRouting(min_samples=4)
        chosen = policy.choose(
            make_vector(), [snap(0, depth=3), snap(1, depth=1), snap(2, depth=2)]
        )
        assert chosen == 1  # the least-loaded ranking
        assert policy.fallback_decisions == 1
        assert policy.learned_decisions == 0

    def test_cold_start_draws_no_rng(self):
        # The fallback path must not consume exploration draws, or the
        # RNG schedule (and byte-identical replay) would depend on how
        # long the warm-up took.
        policy = LearnedRouting(min_samples=4, seed=9)
        before = copy.deepcopy(policy._rng.bit_generator.state)
        for _ in range(10):
            policy.choose(make_vector(), [snap(0), snap(1)])
        assert policy._rng.bit_generator.state == before

    def test_one_cold_candidate_keeps_the_fallback(self):
        # Shards warm at different rates; predictions are only trusted
        # once every *candidate* passed min_samples.
        policy = warm_policy({0: 1.0}, n_samples=4)
        policy.choose(make_vector(), [snap(0), snap(1)])
        assert policy.fallback_decisions == 1


class TestWarmRouting:
    def test_routes_to_argmin_predicted_latency(self):
        # Shard 0 learned ~1s completions, shard 1 ~0.1s: the digest
        # says both are empty, but the model knows better.
        policy = warm_policy({0: 1.0, 1: 0.1})
        assert policy.choose(make_vector(), [snap(0), snap(1)]) == 1
        assert policy.learned_decisions == 1

    def test_ties_break_on_lowest_node(self):
        policy = warm_policy({0: 0.5, 1: 0.5})
        assert policy.choose(make_vector(), [snap(0), snap(1)]) == 0

    def test_exploration_floor_samples_other_shards(self):
        policy = warm_policy({0: 1.0, 1: 0.1}, explore_floor=0.5, seed=3)
        picks = {policy.choose(make_vector(), [snap(0), snap(1)]) for _ in range(64)}
        assert policy.explored > 0
        assert policy.learned_decisions > 0
        assert picks == {0, 1}  # exploration reaches the "slow" shard too

    def test_exploration_is_seed_deterministic(self):
        a = warm_policy({0: 1.0, 1: 0.1}, explore_floor=0.5, seed=3)
        b = warm_policy({0: 1.0, 1: 0.1}, explore_floor=0.5, seed=3)
        snaps = [snap(0), snap(1)]
        seq_a = [a.choose(make_vector(), snaps) for _ in range(64)]
        seq_b = [b.choose(make_vector(), snaps) for _ in range(64)]
        assert seq_a == seq_b
        assert a.explored == b.explored


class TestSampleLifecycle:
    def test_completion_trains_the_placed_shard(self):
        policy = LearnedRouting(min_samples=2, refit_interval=1)
        ticket = type("T", (), {})()
        ticket.vector = make_vector()
        policy.note_placed(ticket, snap(0), now=1.0)
        assert ticket.route_sample is not None
        policy.note_outcome(ticket, now=1.5, completed=True)
        assert ticket.route_sample is None
        assert policy.model(0).samples == 1
        # The observed label is the route->completion latency.
        _, y = policy.model(0).window_samples()
        assert y[-1] == pytest.approx(0.5)

    def test_non_completions_drop_the_sample(self):
        # Reroutes / sheds / hedge losers must not poison the model
        # with latencies that are not completion latencies.
        policy = LearnedRouting(min_samples=2)
        ticket = type("T", (), {})()
        ticket.vector = make_vector()
        policy.note_placed(ticket, snap(0), now=1.0)
        policy.note_outcome(ticket, now=2.0, completed=False)
        assert ticket.route_sample is None
        assert policy.model(0).samples == 0

    def test_prediction_error_tracked_once_warm(self):
        policy = warm_policy({0: 1.0})
        ticket = type("T", (), {})()
        ticket.vector = make_vector()
        policy.note_placed(ticket, snap(0), now=0.0)
        policy.note_outcome(ticket, now=1.2, completed=True)
        s = policy.summary()
        assert s["per_shard"]["0"]["mean_abs_err_ms"] == pytest.approx(
            200.0, rel=0.2
        )


class TestConfigKnobs:
    def test_round_trip(self, tmp_path):
        cfg = ServeConfig(
            sharded=True, routing="learned",
            explore_floor=0.2, min_samples=8, refit_interval=4,
        )
        path = tmp_path / "cfg.json"
        cfg.to_json(path)
        loaded = ServeConfig.from_json(path)
        assert loaded == cfg

    def test_unknown_routing_rejected_at_parse_time(self):
        with pytest.raises(ConfigurationError, match="least-loaded"):
            ServeConfig(sharded=True, routing="hash-ring")

    def test_knob_validation(self):
        with pytest.raises(ConfigurationError, match="explore_floor"):
            ServeConfig(explore_floor=1.0)
        with pytest.raises(ConfigurationError, match="min_samples"):
            ServeConfig(min_samples=1)
        with pytest.raises(ConfigurationError, match="refit_interval"):
            ServeConfig(refit_interval=0)


def learned_serve(**over):
    base = dict(
        sharded=True, routing="learned", sync_interval_s=0.01,
        explore_floor=0.1, min_samples=4, refit_interval=4,
    )
    base.update(over)
    return ServeConfig(**base)


class TestEndToEnd:
    def test_completes_everything_and_reports_routing(self):
        _, result = run_sharded(serve=learned_serve(), n=32, seed=5)
        s = result.summary()
        assert s["completed"] + s["dropped"] == s["offered"] == 32
        r = result.routing
        assert r is not None and r["policy"] == "learned"
        assert r["decisions"] >= 32
        assert r["fallback"] > 0  # the run started cold
        assert r["learned"] > 0  # ... and warmed up
        assert s["routing"] == r  # summary carries the same section
        # Every shard model saw completions and refit at least once.
        assert all(x["samples"] > 0 for x in r["per_shard"].values())
        assert any(x["refits"] > 0 for x in r["per_shard"].values())

    def test_static_policies_report_no_routing_section(self):
        _, result = run_sharded(n=8)
        assert result.routing is None
        assert "routing" not in result.summary()

    def test_refit_events_land_in_the_trace(self):
        _, result = run_sharded(serve=learned_serve(), n=32, seed=5)
        assert any(e["kind"] == "refit" for e in result.routing_events)
        kinds = {e.kind for e in result.to_trace().events}
        assert "routing-refit" in kinds

    def test_same_seed_replays_byte_identically(self, tmp_path):
        paths = []
        for tag in ("a", "b"):
            _, result = run_sharded(serve=learned_serve(), n=32, seed=5)
            report = tmp_path / f"{tag}.json"
            trace = tmp_path / f"{tag}_trace.json"
            result.to_json(report)
            result.to_trace().save_chrome_trace(trace)
            paths.append((report.read_bytes(), trace.read_bytes()))
        assert paths[0] == paths[1]

    def test_different_seeds_change_exploration(self):
        # Not byte-equality in reverse (workload noise could mask it) —
        # just that the seed actually feeds the exploration stream.
        r5 = run_sharded(serve=learned_serve(explore_floor=0.5), n=32, seed=5)[1]
        r6 = run_sharded(serve=learned_serve(explore_floor=0.5), n=32, seed=6)[1]
        assert (r5.routing["explored"], r5.routing["learned"]) != (0, 0)
        assert r5.to_trace().events != r6.to_trace().events


class TestPlacedFeatures:
    def test_note_placed_rows_match_a_fresh_snapshot(self, monkeypatch):
        # charge() reuses the snapshot route() built for the chosen
        # shard, refreshing only pending and breaker.  Under gray faults
        # (breakers opening and half-opening, suspicion moving, hedge
        # clones) every recorded row must equal one built from scratch.
        route, charge = GlobalScheduler.route, GlobalScheduler.charge
        routed_breaker = {}
        seen = {"rows": 0, "breaker_moved": 0}

        def traced_route(router, vector, now, exclude=frozenset()):
            node = route(router, vector, now, exclude)
            if node is not None:
                snap = router._snapshot(node, router.digests[node], now)
                routed_breaker["code"] = snap.breaker
            return node

        def checked_charge(router, ticket, node, now):
            charge(router, ticket, node, now)
            digest = router.digests.get(node)
            if digest is None:
                return
            fresh = route_features(ticket.vector, router._snapshot(node, digest, now))
            assert ticket.route_sample[2].tobytes() == fresh.tobytes()
            seen["rows"] += 1
            if fresh[FEATURE_NAMES.index("breaker")] != routed_breaker["code"]:
                seen["breaker_moved"] += 1

        monkeypatch.setattr(GlobalScheduler, "route", traced_route)
        monkeypatch.setattr(GlobalScheduler, "charge", checked_charge)
        plan = FaultPlan((
            FaultEvent(FaultKind.STRAGGLER, 1e-3, 4, duration_s=30e-3, slow_factor=6.0),
            FaultEvent(FaultKind.NODE_FLAP, 2e-3, 5, duration_s=4e-3, count=3, period_s=5e-3),
            FaultEvent(FaultKind.HEARTBEAT_LOSS, 6.5e-3, 1, duration_s=6e-3),
        ))
        health = HealthConfig(
            heartbeat_interval_s=1e-3, suspect_threshold=2.0, quarantine_threshold=4.0,
            probation_beats=3, hedging=True, hedge_deadline_s=1e-3,
            breaker_threshold=2, breaker_probe_interval_s=1e-3,
        )
        cfg = learned_serve(
            sync_interval_s=1e-3, health=health, queue_capacity=2, max_inflight=1,
        )
        _, result = run_sharded(
            serve=cfg, n=120, arrivals=PoissonArrivals(8_000.0), seed=3, faults=plan,
        )
        assert result.routing["learned"] > 0
        assert result.health["hedges"]["launched"] > 0
        assert seen["rows"] >= 80
        assert seen["breaker_moved"] > 0  # a half-open probe closed in place()
