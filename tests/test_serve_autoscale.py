"""Unit and integration tests for the p99-driven pool autoscaler."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import MiccoConfig
from repro.errors import ConfigurationError
from repro.serve import (
    Autoscaler,
    AutoscalerConfig,
    BurstyArrivals,
    MiccoServer,
    PoissonArrivals,
    ServeConfig,
    TenantSpec,
)
from repro.tensor.spec import reset_uid_counter
from repro.workloads import SyntheticWorkload, WorkloadParams
from tests import golden_modes as golden


class TestAutoscalerConfig:
    def test_defaults_valid(self):
        AutoscalerConfig()

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            AutoscalerConfig(min_devices=0)
        with pytest.raises(ConfigurationError):
            AutoscalerConfig(min_devices=4, max_devices=2)
        with pytest.raises(ConfigurationError):
            AutoscalerConfig(initial_devices=9, max_devices=8)
        with pytest.raises(ConfigurationError):
            AutoscalerConfig(up_queue_depth=2, down_queue_depth=2)
        with pytest.raises(ConfigurationError):
            AutoscalerConfig(p99_target_s=-1.0)
        with pytest.raises(ConfigurationError):
            AutoscalerConfig(down_latency_frac=0.0)

    def test_dict_round_trip(self):
        cfg = AutoscalerConfig(max_devices=6, p99_target_s=0.2, warmup_s=0.1)
        assert AutoscalerConfig.from_dict(cfg.to_dict()) == cfg

    def test_with_override(self):
        assert AutoscalerConfig().with_(max_devices=2).max_devices == 2

    def test_clamped_to_the_shard_devices_once(self):
        cfg = AutoscalerConfig(min_devices=2, max_devices=8, initial_devices=6)
        c = Autoscaler(cfg, devices=range(4, 8), node=1).config
        assert (c.min_devices, c.max_devices, c.initial_devices) == (2, 4, 4)
        c = Autoscaler(cfg.with_(min_devices=6), devices=range(4)).config
        assert (c.min_devices, c.max_devices, c.initial_devices) == (4, 4, 4)
        # A pool at least as large as max_devices leaves the config alone.
        assert Autoscaler(cfg, devices=range(8)).config == cfg


class TestAutoscalerDecisions:
    def test_queue_depth_triggers_up(self):
        a = Autoscaler(AutoscalerConfig(up_queue_depth=4, max_devices=4))
        assert a.decide(1.0, queue_depth=4, num_alive=1) == "up"

    def test_up_capped_at_max(self):
        a = Autoscaler(AutoscalerConfig(up_queue_depth=4, max_devices=2))
        assert a.decide(1.0, queue_depth=10, num_alive=2) is None

    def test_p99_over_target_triggers_up(self):
        a = Autoscaler(AutoscalerConfig(p99_target_s=0.1, max_devices=4))
        a.observe_completion(1.0, 0.5)
        assert a.decide(1.0, queue_depth=0, num_alive=1) == "up"

    def test_down_when_idle(self):
        a = Autoscaler(AutoscalerConfig(min_devices=1))
        assert a.decide(1.0, queue_depth=0, num_alive=3) == "down"

    def test_down_blocked_by_hot_window(self):
        a = Autoscaler(AutoscalerConfig(p99_target_s=0.1, down_latency_frac=0.5))
        a.observe_completion(1.0, 0.08)  # under target but above 0.5×target
        assert a.decide(1.0, queue_depth=0, num_alive=3) is None

    def test_down_blocked_at_min(self):
        a = Autoscaler(AutoscalerConfig(min_devices=2))
        assert a.decide(1.0, queue_depth=0, num_alive=2) is None

    def test_cooldown_suppresses_decisions(self):
        a = Autoscaler(AutoscalerConfig(cooldown_s=1.0, max_devices=4))
        assert a.decide(0.0, queue_depth=8, num_alive=1) == "up"
        a.log(0.0, "up", 1, 1)
        assert a.decide(0.5, queue_depth=8, num_alive=1) is None
        assert a.decide(1.5, queue_depth=8, num_alive=1) == "up"

    def test_online_log_does_not_arm_cooldown(self):
        a = Autoscaler(AutoscalerConfig(cooldown_s=1.0, max_devices=4))
        a.log(0.0, "online", 1, 2, starts_cooldown=False)
        assert a.decide(0.1, queue_depth=8, num_alive=1) == "up"

    def test_no_target_decides_without_a_percentile(self, monkeypatch):
        from repro.serve import autoscale

        calls = []
        p99 = autoscale.p99_linear
        monkeypatch.setattr(autoscale, "p99_linear", lambda xs: calls.append(xs) or p99(xs))
        cfg = AutoscalerConfig(up_queue_depth=3, max_devices=4, cooldown_s=0.0)
        a = Autoscaler(cfg)
        # (now, queue depth, alive, decision): the queue-depth rule alone,
        # however slow the completions in the window are.
        script = [
            (0.1, 3, 1, "up"),
            (0.2, 1, 2, None),
            (0.3, 0, 2, "down"),
            (0.4, 5, 4, None),
            (0.5, 0, 1, None),
        ]
        for now, depth, alive, expected in script:
            a.observe_completion(now, 5.0)
            assert a.decide(now, queue_depth=depth, num_alive=alive) == expected
        assert calls == []
        a = Autoscaler(cfg.with_(p99_target_s=1.0))
        a.observe_completion(0.1, 5.0)
        assert a.decide(0.1, queue_depth=0, num_alive=1) == "up"
        assert len(calls) == 1

    def test_window_prunes_old_latencies(self):
        a = Autoscaler(AutoscalerConfig(window_s=1.0, p99_target_s=0.1))
        a.observe_completion(0.0, 5.0)
        assert a.windowed_p99(0.5) == pytest.approx(5.0)
        assert a.windowed_p99(2.0) != a.windowed_p99(2.0)  # NaN after pruning

    def test_sorted_window_follows_the_deque(self):
        rng = np.random.default_rng(5)
        a = Autoscaler(AutoscalerConfig(window_s=0.05, p99_target_s=0.1))
        for step in range(400):
            # Rounded values so ties reach the pruning bisect.
            a.observe_completion(step * 0.001, float(np.round(rng.exponential(0.01), 3)))
            assert a._sorted == sorted(lat for _, lat in a._window)
            assert float.hex(a.windowed_p99(step * 0.001)) == float.hex(
                float(np.percentile([lat for _, lat in a._window], 99))
            )


class TestP99Linear:
    """``p99_linear`` is numpy's default percentile, bit for bit."""

    @settings(max_examples=400, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.floats(0.0, 10.0, allow_nan=False),
                st.integers(0, 5).map(lambda k: k / 4),  # ties
            ),
            min_size=1,
            max_size=300,
        )
    )
    def test_matches_np_percentile(self, xs):
        from repro.serve.autoscale import p99_linear

        assert float.hex(p99_linear(sorted(xs))) == float.hex(float(np.percentile(xs, 99)))


def burst_config(**kw):
    defaults = dict(
        min_devices=1,
        max_devices=4,
        p99_target_s=0.05,
        window_s=0.5,
        up_queue_depth=3,
        warmup_s=0.02,
        cooldown_s=0.05,
    )
    defaults.update(kw)
    return AutoscalerConfig(**defaults)


class TestAutoscaledServing:
    def run_single(self, scaler_cfg, seed=0, rate=10_000.0, num_vectors=24):
        params = WorkloadParams(num_vectors=num_vectors, vector_size=8, tensor_size=64, batch=2)
        vectors = SyntheticWorkload(params, seed=seed).vectors()
        server = MiccoServer(
            config=MiccoConfig(num_devices=4),
            serve=ServeConfig(autoscaler=scaler_cfg),
        )
        result = server.run(vectors, PoissonArrivals(rate), seed=seed)
        return server, result

    def test_scales_up_under_load(self):
        server, result = self.run_single(burst_config())
        assert result.autoscale["scale_ups"] >= 1
        assert result.summary()["completed"] == 24

    def test_initial_devices_shrinks_pool_at_start(self):
        server, result = self.run_single(
            burst_config(initial_devices=2, p99_target_s=None), rate=50.0, num_vectors=4
        )
        # With light traffic the pool never needs to grow past its start.
        assert all(a["alive_after"] <= 2 for a in result.autoscale["actions"])

    def test_invariants_hold_after_run(self):
        server, result = self.run_single(burst_config())
        server.cluster.check_invariants()
        assert 1 <= server.cluster.num_alive <= 4

    def test_trace_renders_scale_events_on_negative_lanes(self):
        _, result = self.run_single(burst_config())
        trace = result.to_trace()
        scale = [e for e in trace.events if e.kind.startswith("scale-")]
        assert len(scale) == len(result.autoscale["actions"])
        assert scale and all(e.device < 0 for e in scale)

    def test_deterministic_per_seed(self):
        _, r1 = self.run_single(burst_config(), seed=7)
        _, r2 = self.run_single(burst_config(), seed=7)
        assert r1.summary() == r2.summary()
        assert r1.autoscale["actions"] == r2.autoscale["actions"]

    def test_multi_tenant_autoscaled_deterministic(self):
        tenants = (
            TenantSpec(
                "bursty",
                BurstyArrivals(600.0, 10.0, mean_on_s=0.05, mean_off_s=0.1),
                WorkloadParams(num_vectors=12, vector_size=8, tensor_size=64, batch=2),
                weight=2.0,
            ),
            TenantSpec(
                "steady",
                PoissonArrivals(100.0),
                WorkloadParams(num_vectors=12, vector_size=8, tensor_size=64, batch=2),
            ),
        )
        cfg = ServeConfig(tenants=tenants, autoscaler=burst_config())
        server = MiccoServer(config=MiccoConfig(num_devices=4), serve=cfg)
        r1 = server.run(seed=1)
        r2 = server.run(seed=1)
        assert r1.summary() == r2.summary()
        server.cluster.check_invariants()

    def test_scale_down_drains_and_recovers(self):
        # Saturate briefly, then go quiet: the pool should grow and then
        # shrink back toward min_devices, with every vector accounted for.
        server, result = self.run_single(
            burst_config(down_queue_depth=0, cooldown_s=0.02), rate=10_000.0
        )
        s = result.summary()
        assert s["completed"] + s["dropped"] == s["offered"] == 24
        if result.autoscale["scale_downs"]:
            downs = [a for a in result.autoscale["actions"] if a["action"] == "down"]
            assert all(a["alive_after"] >= 1 for a in downs)

    def test_faults_and_autoscaler_compose(self):
        from repro.faults import FaultEvent, FaultPlan

        params = WorkloadParams(num_vectors=16, vector_size=8, tensor_size=64, batch=2)
        vectors = SyntheticWorkload(params, seed=0).vectors()
        server = MiccoServer(
            config=MiccoConfig(num_devices=4),
            serve=ServeConfig(autoscaler=burst_config()),
        )
        # Kill device 0 mid-run: it starts alive (the autoscaler retires
        # high ids first) so the loss is observed, not absorbed offline.
        plan = FaultPlan((FaultEvent("device_lost", 0.001, 0),))
        result = server.run(vectors, PoissonArrivals(10_000.0), seed=0, faults=plan)
        server.cluster.check_invariants()
        s = result.summary()
        assert s["completed"] + s["dropped"] == s["offered"] == 16
        assert result.faults["device_losses"] == 1
        # The failed device must never be resurrected by a scale-up.
        for a in result.autoscale["actions"]:
            if a["action"] in ("up", "online"):
                assert a["device"] != 0

    def test_device_loss_on_retired_device_is_absorbed(self):
        from repro.faults import FaultEvent, FaultPlan

        params = WorkloadParams(num_vectors=6, vector_size=8, tensor_size=64, batch=2)
        vectors = SyntheticWorkload(params, seed=0).vectors()
        server = MiccoServer(
            config=MiccoConfig(num_devices=4),
            serve=ServeConfig(autoscaler=burst_config(p99_target_s=None)),
        )
        # Device 3 is retired at t=0 (initial pool = min_devices = 1), so
        # losing it has no serving impact but pins it dead for scale-up.
        plan = FaultPlan((FaultEvent("device_lost", 0.001, 3),))
        result = server.run(vectors, PoissonArrivals(100.0), seed=0, faults=plan)
        assert result.summary()["completed"] == 6
        assert result.faults["device_losses"] == 0
        assert server.cluster.state(3) == "failed"


class TestPoolMembership:
    @pytest.mark.parametrize("seed", golden.SEEDS)
    def test_quarantined_device_never_rejoins(self, seed):
        result = golden.run("autoscale-integrity", seed)
        quarantined_at = {
            t["device"]: t["time_s"]
            for t in result.integrity["blame"]["transitions"]
            if t["to"] == "quarantined"
        }
        assert quarantined_at
        assert result.autoscale["scale_ups"] >= 1
        rejoins = [
            a
            for a in result.autoscale["actions"]
            if a["action"] in ("up", "online")
            and a["device"] in quarantined_at
            and a["time_s"] >= quarantined_at[a["device"]]
        ]
        assert rejoins == []
        assert set(quarantined_at).isdisjoint(result.alive_at_end)

    def test_one_shard_clamp_changes_nothing(self, tmp_path):
        # The single-chaos setup on 8 devices: a max_devices far past
        # the cluster is clamped to it and serves byte for byte alike.
        def report(max_devices):
            reset_uid_counter()
            path = tmp_path / f"max{max_devices}.json"
            golden.MODES["single-chaos"](12, max_devices=max_devices).to_json(path)
            return path.read_bytes()

        assert report(8) == report(64)
