"""Unit tests for the fault-injection layer: plans, injector, stats."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.faults import FaultEvent, FaultInjector, FaultKind, FaultPlan, FaultStats, RetryPolicy
from repro.faults.plan import NODE_SCOPED
from repro.gpusim import ClusterState, Topology, mi100_like
from repro.gpusim.cluster import ACTIVE, FAILED, down
from repro.integrity import IntegrityConfig, IntegrityState


class TestFaultEvent:
    def test_kind_coerced_from_string(self):
        ev = FaultEvent("transient", 1.0, 0)
        assert ev.kind is FaultKind.TRANSIENT

    def test_rejects_negative_time(self):
        with pytest.raises(ConfigurationError):
            FaultEvent(FaultKind.TRANSIENT, -1.0, 0)

    def test_rejects_negative_device(self):
        with pytest.raises(ConfigurationError):
            FaultEvent(FaultKind.TRANSIENT, 0.0, -1)

    def test_rejects_zero_count(self):
        with pytest.raises(ConfigurationError):
            FaultEvent(FaultKind.TRANSIENT, 0.0, 0, count=0)

    def test_straggler_needs_window_and_slowdown(self):
        with pytest.raises(ConfigurationError):
            FaultEvent(FaultKind.STRAGGLER, 0.0, 0)  # no duration
        with pytest.raises(ConfigurationError):
            FaultEvent(FaultKind.STRAGGLER, 0.0, 0, duration_s=1.0, slow_factor=1.0)
        ev = FaultEvent(FaultKind.STRAGGLER, 0.0, 0, duration_s=1.0, slow_factor=2.0)
        assert ev.slow_factor == 2.0

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize(
        "field", ["time_s", "device", "duration_s", "slow_factor", "count", "period_s", "probability"]
    )
    def test_rejects_non_finite_numbers(self, field, value):
        # Each base event is valid; only the one field goes non-finite.
        if field == "probability":
            base = dict(kind="data_corruption", time_s=0.5, device=1, duration_s=1.0, probability=0.5)
        else:
            base = dict(kind="straggler", time_s=0.5, device=1, duration_s=1.0, slow_factor=2.0)
        with pytest.raises(ConfigurationError, match=f"fault {field} must be finite"):
            FaultEvent(**{**base, field: value})

    def test_to_dict_serialises_kind_as_string(self):
        d = FaultEvent(FaultKind.TRANSFER, 0.5, 2, count=3).to_dict()
        assert d["kind"] == "transfer"
        assert d["count"] == 3


class TestFaultPlan:
    def test_events_sorted_by_time(self):
        plan = FaultPlan((
            FaultEvent(FaultKind.TRANSIENT, 2.0, 0),
            FaultEvent(FaultKind.TRANSFER, 1.0, 1),
        ))
        assert [e.time_s for e in plan] == [1.0, 2.0]

    def test_generate_is_deterministic(self):
        a = FaultPlan.generate(42, num_devices=4, horizon_s=1.0)
        b = FaultPlan.generate(42, num_devices=4, horizon_s=1.0)
        assert a == b
        c = FaultPlan.generate(43, num_devices=4, horizon_s=1.0)
        assert a != c

    def test_generate_never_kills_whole_pool(self):
        plan = FaultPlan.generate(0, num_devices=3, horizon_s=1.0, n_device_lost=10)
        losses = plan.of_kind("device_lost")
        assert len(losses) == 2
        assert len({e.device for e in losses}) == 2  # distinct victims

    def test_generate_single_device_pool_loses_nothing(self):
        plan = FaultPlan.generate(0, num_devices=1, horizon_s=1.0, n_device_lost=5)
        assert plan.of_kind(FaultKind.DEVICE_LOST) == []

    def test_generate_rejects_bad_args(self):
        with pytest.raises(ConfigurationError):
            FaultPlan.generate(0, num_devices=0, horizon_s=1.0)
        with pytest.raises(ConfigurationError):
            FaultPlan.generate(0, num_devices=2, horizon_s=0.0)
        with pytest.raises(ConfigurationError):
            FaultPlan.generate(0, num_devices=2, horizon_s=1.0, n_transient=-1)

    def test_json_round_trip(self, tmp_path):
        plan = FaultPlan.generate(7, num_devices=4, horizon_s=2.0)
        path = tmp_path / "plan.json"
        plan.to_json(path)
        assert FaultPlan.from_json(path) == plan
        # The payload is plain JSON with string kinds.
        payload = json.loads(path.read_text())
        assert all(isinstance(r["kind"], str) for r in payload["faults"])

    def test_from_json_accepts_bare_list(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps([{"kind": "transient", "time_s": 0.1, "device": 0}]))
        plan = FaultPlan.from_json(path)
        assert len(plan) == 1 and plan.events[0].kind is FaultKind.TRANSIENT

    def test_generate_node_losses(self):
        plan = FaultPlan.generate(
            3, num_devices=8, horizon_s=1.0, n_device_lost=0, n_node_lost=2
        )
        losses = plan.of_kind(FaultKind.NODE_LOST)
        assert len(losses) == 2
        assert all(0 <= e.device < 8 for e in losses)
        assert plan == FaultPlan.generate(
            3, num_devices=8, horizon_s=1.0, n_device_lost=0, n_node_lost=2
        )

    def test_node_lost_round_trips_through_json(self, tmp_path):
        plan = FaultPlan((FaultEvent(FaultKind.NODE_LOST, 0.5, 3),))
        path = tmp_path / "plan.json"
        plan.to_json(path)
        loaded = FaultPlan.from_json(path)
        assert loaded == plan
        assert loaded.events[0].kind is FaultKind.NODE_LOST

    def test_validate_devices_accepts_in_range(self):
        plan = FaultPlan((FaultEvent(FaultKind.TRANSIENT, 0.0, 3),))
        plan.validate_devices(4)  # no raise

    def test_validate_devices_names_offending_event(self):
        plan = FaultPlan((
            FaultEvent(FaultKind.TRANSIENT, 0.0, 0),
            FaultEvent(FaultKind.DEVICE_LOST, 1.0, 12),
        ))
        with pytest.raises(ConfigurationError, match="device 12"):
            plan.validate_devices(8)
        with pytest.raises(ConfigurationError):
            plan.validate_devices(0)


class TestFromJsonErrorPaths:
    """Malformed plan files must raise ConfigurationError, not trace back."""

    def write(self, tmp_path, payload) -> str:
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(payload))
        return path

    def test_unknown_kind(self, tmp_path):
        path = self.write(tmp_path, [{"kind": "meteor", "time_s": 0.1, "device": 0}])
        with pytest.raises(ConfigurationError, match="unknown fault kind"):
            FaultPlan.from_json(path)

    def test_negative_time(self, tmp_path):
        path = self.write(tmp_path, [{"kind": "transient", "time_s": -1.0, "device": 0}])
        with pytest.raises(ConfigurationError, match="time_s"):
            FaultPlan.from_json(path)

    def test_nan_time_rejected_instead_of_stalling_the_queue(self, tmp_path):
        # A NaN time would sort ahead of the later faults and never come
        # due, so poll() would stop at it and device 3's fault never fire.
        records = [
            {"kind": "transient", "time_s": 0.5, "device": 1},
            {"kind": "transient", "time_s": float("nan"), "device": 2},
            {"kind": "transient", "time_s": 0.1, "device": 3},
        ]
        path = self.write(tmp_path, records)
        assert "NaN" in path.read_text()
        with pytest.raises(ConfigurationError, match="event 1: fault time_s must be finite"):
            FaultPlan.from_json(path)
        records[1]["time_s"] = 0.3
        inj = FaultInjector(FaultPlan.from_json(self.write(tmp_path, records)))
        inj.poll(1.0)
        assert [inj.take_kernel_fault(d) for d in (1, 2, 3)] == [True, True, True]

    def test_extra_keys_rejected_with_index(self, tmp_path):
        path = self.write(
            tmp_path,
            [
                {"kind": "transient", "time_s": 0.0, "device": 0},
                {"kind": "transfer", "time_s": 0.1, "device": 1, "blast_radius": 3},
            ],
        )
        with pytest.raises(ConfigurationError, match="event 1.*blast_radius"):
            FaultPlan.from_json(path)

    def test_top_level_object_needs_faults_key(self, tmp_path):
        path = self.write(tmp_path, {"events": []})
        with pytest.raises(ConfigurationError, match="'faults'"):
            FaultPlan.from_json(path)

    def test_non_dict_record(self, tmp_path):
        path = self.write(tmp_path, ["transient"])
        with pytest.raises(ConfigurationError, match="event 0"):
            FaultPlan.from_json(path)

    def test_non_list_records_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultPlan.from_dicts("not-a-list")
        with pytest.raises(ConfigurationError):
            FaultPlan.from_dicts(42)


class TestFaultInjector:
    def test_poll_arms_due_faults_only(self):
        plan = FaultPlan((
            FaultEvent(FaultKind.TRANSIENT, 1.0, 0, count=2),
            FaultEvent(FaultKind.TRANSFER, 5.0, 0),
        ))
        inj = FaultInjector(plan)
        assert inj.poll(0.5) == []
        assert not inj.take_kernel_fault(0)
        inj.poll(1.0)
        assert inj.stats.injected["transient"] == 1
        assert inj.take_kernel_fault(0)
        assert inj.take_kernel_fault(0)
        assert not inj.take_kernel_fault(0)  # count exhausted
        assert not inj.take_transfer_fault(0)  # not yet due

    def test_poll_returns_device_losses_for_driver(self):
        plan = FaultPlan((FaultEvent(FaultKind.DEVICE_LOST, 1.0, 2),))
        inj = FaultInjector(plan)
        losses = inj.poll(2.0)
        assert [e.device for e in losses] == [2]
        # The injector records nothing until the driver applies it.
        assert inj.stats.device_losses == 0
        inj.note_device_lost(2, 1.0, orphans=3)
        assert inj.stats.device_losses == 1
        assert inj.stats.orphaned_tensors == 3
        assert inj.stats.lost_at == {2: 1.0}

    def test_straggler_window_scales_compute(self):
        plan = FaultPlan((
            FaultEvent(FaultKind.STRAGGLER, 1.0, 0, duration_s=2.0, slow_factor=3.0),
        ))
        inj = FaultInjector(plan)
        inj.poll(1.5)
        assert inj.compute_factor(0) == pytest.approx(3.0)
        assert inj.compute_factor(1) == 1.0  # other device unaffected
        inj.poll(4.0)  # window [1, 3) is over
        assert inj.compute_factor(0) == 1.0

    def test_overlapping_windows_compound(self):
        plan = FaultPlan((
            FaultEvent(FaultKind.STRAGGLER, 0.0, 0, duration_s=2.0, slow_factor=2.0),
            FaultEvent(FaultKind.STRAGGLER, 1.0, 0, duration_s=2.0, slow_factor=3.0),
        ))
        inj = FaultInjector(plan)
        inj.poll(1.5)
        assert inj.compute_factor(0) == pytest.approx(6.0)

    def test_dead_device_stops_faulting(self):
        plan = FaultPlan((
            FaultEvent(FaultKind.TRANSIENT, 0.0, 1, count=5),
            FaultEvent(FaultKind.STRAGGLER, 0.0, 1, duration_s=10.0, slow_factor=2.0),
        ))
        inj = FaultInjector(plan)
        inj.poll(1.0)
        inj.note_device_lost(1, 1.0, orphans=0)
        assert not inj.take_kernel_fault(1)
        assert inj.compute_factor(1) == 1.0

    def test_drain_flushes_remaining(self):
        plan = FaultPlan((FaultEvent(FaultKind.TRANSFER, 99.0, 0),))
        inj = FaultInjector(plan)
        inj.poll(1.0)
        assert inj.drain() == []
        assert inj.take_transfer_fault(0)
        assert inj.drain() == []  # idempotent once empty

    def test_arming_validates_devices_against_cluster(self):
        plan = FaultPlan((FaultEvent(FaultKind.DEVICE_LOST, 1.0, 12),))
        with pytest.raises(ConfigurationError, match="device 12"):
            FaultInjector(plan, num_devices=8)
        FaultInjector(plan)  # without a cluster size, no validation
        FaultInjector(plan, num_devices=16)  # in range: fine

    def test_poll_returns_node_losses_for_driver(self):
        plan = FaultPlan((FaultEvent(FaultKind.NODE_LOST, 1.0, 2),))
        inj = FaultInjector(plan)
        losses = inj.poll(2.0)
        assert [e.kind for e in losses] == [FaultKind.NODE_LOST]
        assert inj.stats.injected["node_lost"] == 1


class TestRetryPolicy:
    def test_backoff_is_exponential(self):
        p = RetryPolicy(max_attempts=5, backoff_base_s=0.1, backoff_factor=2.0)
        assert p.backoff_s(1) == pytest.approx(0.1)
        assert p.backoff_s(3) == pytest.approx(0.4)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(backoff_factor=0.5)
        with pytest.raises(ConfigurationError):
            RetryPolicy().backoff_s(0)


class TestFaultStats:
    def test_availability_charges_dead_tail(self):
        stats = FaultStats()
        stats.lost_at[0] = 2.0
        # 4 devices over 10 s = 40 device-s; device 0 dead for 8 s.
        assert stats.availability(10.0, 4) == pytest.approx(100.0 * (1 - 8 / 40))

    def test_availability_empty_run_is_full(self):
        assert FaultStats().availability(0.0, 4) == 100.0

    def test_degraded_seconds_clip_to_makespan(self):
        stats = FaultStats()
        stats.straggler_windows.append((0, 1.0, 100.0, 2.0))
        assert stats.degraded_device_s(5.0) == pytest.approx(4.0)

    def test_degraded_seconds_merge_overlaps_per_device(self):
        # Regression: two overlapping windows on one device used to be
        # summed independently, double-counting the shared second.
        stats = FaultStats()
        stats.straggler_windows.append((0, 1.0, 3.0, 2.0))
        stats.straggler_windows.append((0, 2.0, 4.0, 3.0))
        assert stats.degraded_device_s(10.0) == pytest.approx(3.0)  # [1,4), not 4.0

    def test_degraded_seconds_distinct_devices_still_add(self):
        stats = FaultStats()
        stats.straggler_windows.append((0, 1.0, 3.0, 2.0))
        stats.straggler_windows.append((1, 2.0, 4.0, 3.0))
        assert stats.degraded_device_s(10.0) == pytest.approx(4.0)

    def test_degraded_seconds_disjoint_same_device(self):
        stats = FaultStats()
        stats.straggler_windows.append((0, 0.0, 1.0, 2.0))
        stats.straggler_windows.append((0, 5.0, 6.0, 2.0))
        assert stats.degraded_device_s(10.0) == pytest.approx(2.0)

    def test_summary_is_json_ready_and_sorted(self):
        stats = FaultStats()
        stats.record_recovery("transient", 0.25)
        out = stats.summary(makespan_s=1.0, num_devices=2)
        assert list(out["injected"]) == sorted(out["injected"])
        assert out["recovery_latency_s"]["transient"] == [0.25]
        json.dumps(out)  # must serialise without a custom encoder


class TestGrayFaultEvents:
    def test_heartbeat_loss_needs_a_window(self):
        with pytest.raises(ConfigurationError):
            FaultEvent(FaultKind.HEARTBEAT_LOSS, 0.0, 0)
        ev = FaultEvent(FaultKind.HEARTBEAT_LOSS, 0.0, 0, duration_s=0.5)
        assert ev.duration_s == 0.5

    def test_node_flap_validates_period_against_duration(self):
        with pytest.raises(ConfigurationError):
            FaultEvent(FaultKind.NODE_FLAP, 0.0, 0)  # no down time
        with pytest.raises(ConfigurationError):
            FaultEvent(FaultKind.NODE_FLAP, 0.0, 0, duration_s=1.0, period_s=0.5)
        # period 0 means the 2x-duration default; explicit >= duration is fine.
        FaultEvent(FaultKind.NODE_FLAP, 0.0, 0, duration_s=1.0)
        FaultEvent(FaultKind.NODE_FLAP, 0.0, 0, duration_s=1.0, period_s=3.0)

    def test_gray_json_round_trip_keeps_period(self, tmp_path):
        plan = FaultPlan((
            FaultEvent(FaultKind.NODE_FLAP, 1.0, 2, duration_s=0.25,
                       count=3, period_s=1.5),
            FaultEvent(FaultKind.HEARTBEAT_LOSS, 2.0, 5, duration_s=0.75),
        ))
        path = tmp_path / "plan.json"
        plan.to_json(path)
        loaded = FaultPlan.from_json(path)
        assert loaded == plan
        flap = loaded.of_kind(FaultKind.NODE_FLAP)[0]
        assert (flap.period_s, flap.count) == (1.5, 3)

    def test_of_kind_accepts_enum_and_string(self):
        plan = FaultPlan((
            FaultEvent(FaultKind.NODE_FLAP, 1.0, 2, duration_s=0.25),
            FaultEvent(FaultKind.HEARTBEAT_LOSS, 2.0, 5, duration_s=0.75),
        ))
        assert plan.of_kind(FaultKind.NODE_FLAP) == plan.of_kind("node_flap")
        assert len(plan.of_kind("heartbeat_loss")) == 1

    def test_validate_devices_names_the_gray_offender(self):
        plan = FaultPlan((
            FaultEvent(FaultKind.HEARTBEAT_LOSS, 1.0, 12, duration_s=0.5),
        ))
        with pytest.raises(ConfigurationError, match="device 12"):
            plan.validate_devices(8)

    def test_generate_draws_gray_faults(self):
        plan = FaultPlan.generate(
            7, num_devices=8, horizon_s=1.0,
            n_transient=0, n_transfer=0, n_straggler=0, n_device_lost=0,
            n_heartbeat_loss=2, n_node_flap=1, flap_cycles=3,
        )
        silences = plan.of_kind("heartbeat_loss")
        flaps = plan.of_kind("node_flap")
        assert len(silences) == 2 and len(flaps) == 1
        assert all(e.duration_s > 0 for e in plan)
        assert flaps[0].count == 3
        assert flaps[0].period_s == pytest.approx(2 * flaps[0].duration_s)
        assert plan == FaultPlan.generate(
            7, num_devices=8, horizon_s=1.0,
            n_transient=0, n_transfer=0, n_straggler=0, n_device_lost=0,
            n_heartbeat_loss=2, n_node_flap=1, flap_cycles=3,
        )


class TestGrayInjector:
    def test_flap_expands_into_cycles(self):
        plan = FaultPlan((
            FaultEvent(FaultKind.NODE_FLAP, 1.0, 0, duration_s=0.5,
                       count=3, period_s=2.0),
        ))
        inj = FaultInjector(plan)
        times = []
        for t in (1.0, 3.0, 5.0):
            for e in inj.poll(t):
                assert e.kind is FaultKind.NODE_FLAP
                assert e.count == 1  # each expansion is one cycle
                times.append(e.time_s)
        assert times == [1.0, 3.0, 5.0]
        assert inj.stats.injected["node_flap"] == 3

    def test_silence_windows_report_silent_devices(self):
        inj = FaultInjector(FaultPlan())
        inj.note_heartbeat_loss([2, 3], 1.0, 2.0)
        assert inj.silent_devices(0.5) == frozenset()
        assert inj.silent_devices(1.0) == frozenset({2, 3})
        assert inj.silent_devices(1.9) == frozenset({2, 3})
        assert inj.silent_devices(2.0) == frozenset()  # window is [start, end)
        assert inj.stats.heartbeat_losses == 1

    def test_restore_closes_the_down_window(self):
        inj = FaultInjector(FaultPlan())
        inj.note_device_lost(1, 1.0, orphans=0)
        inj.note_device_restored(1, 3.0)
        assert inj.stats.device_restores == 1
        assert inj.stats.down_windows == [[1, 1.0, 3.0]]


class TestAvailabilityWindows:
    def test_disjoint_flap_windows_sum_without_double_count(self):
        stats = FaultStats()
        # One device flaps twice: down [1, 2) and [5, 6) of a 10 s run.
        stats.open_down_window(0, 1.0)
        stats.close_down_window(0, 2.0)
        stats.open_down_window(0, 5.0)
        stats.close_down_window(0, 6.0)
        # 2 dead device-seconds of 40: 95%.
        assert stats.availability(10.0, 4) == pytest.approx(95.0)

    def test_open_window_clips_to_makespan(self):
        stats = FaultStats()
        stats.open_down_window(0, 8.0)
        assert stats.availability(10.0, 4) == pytest.approx(95.0)

    def test_reopen_while_open_is_idempotent(self):
        stats = FaultStats()
        stats.open_down_window(0, 1.0)
        stats.open_down_window(0, 1.5)  # duplicate down event: ignored
        stats.close_down_window(0, 2.0)
        assert stats.availability(10.0, 1) == pytest.approx(90.0)

    def test_legacy_lost_at_still_charges_devices_without_windows(self):
        stats = FaultStats()
        stats.lost_at[0] = 2.0  # permanent loss recorded the old way
        stats.open_down_window(1, 4.0)
        stats.close_down_window(1, 5.0)
        # dev 0: [2, 10) = 8 s; dev 1: [4, 5) = 1 s; of 20 device-s.
        assert stats.availability(10.0, 2) == pytest.approx(100 * (1 - 9 / 20))


@st.composite
def loss_restore_timelines(draw):
    """Per-device alternating loss/restore times inside a 10 s run."""
    num_devices = draw(st.integers(1, 4))
    timelines = {}
    for dev in range(num_devices):
        k = draw(st.integers(0, 3))
        times = sorted(
            draw(
                st.lists(
                    st.floats(0.0, 10.0, allow_nan=False, allow_infinity=False),
                    min_size=2 * k, max_size=2 * k, unique=True,
                )
            )
        )
        timelines[dev] = times
    return num_devices, timelines


class TestAvailabilityProperties:
    """Property: availability equals brute-force dead-time integration."""

    @given(loss_restore_timelines())
    @settings(max_examples=60, deadline=None)
    def test_availability_matches_brute_force(self, case):
        num_devices, timelines = case
        makespan = 10.0
        stats = FaultStats()
        dead = 0.0
        for dev, times in timelines.items():
            for i, t in enumerate(times):
                if i % 2 == 0:
                    stats.open_down_window(dev, t)
                else:
                    stats.close_down_window(dev, t)
            # Brute-force: pair the alternating times, clip open tails.
            for i in range(0, len(times), 2):
                start = times[i]
                end = times[i + 1] if i + 1 < len(times) else makespan
                dead += max(0.0, min(end, makespan) - min(start, makespan))
        expected = 100.0 * (1.0 - dead / (makespan * num_devices))
        assert stats.availability(makespan, num_devices) == pytest.approx(expected)
        assert 0.0 <= stats.availability(makespan, num_devices) <= 100.0

    @given(st.lists(st.tuples(st.floats(0, 5), st.floats(0, 5)), max_size=4))
    @settings(max_examples=40, deadline=None)
    def test_repeated_loss_restore_never_exceeds_full_downtime(self, cycles):
        """Flapping one device repeatedly can never double-charge time."""
        stats = FaultStats()
        for a, b in cycles:
            start, end = min(a, b), max(a, b)
            stats.open_down_window(0, start)
            stats.close_down_window(0, max(end, start))
        avail = stats.availability(10.0, 1)
        assert 50.0 <= avail <= 100.0  # windows live in [0, 5] of 10 s


class TestCorruptionFaultEvents:
    def test_data_corruption_needs_window_and_probability(self):
        with pytest.raises(ConfigurationError, match="data_corruption duration_s"):
            FaultEvent(FaultKind.DATA_CORRUPTION, 0.0, 0, probability=0.5)
        with pytest.raises(ConfigurationError, match="data_corruption probability"):
            FaultEvent(FaultKind.DATA_CORRUPTION, 0.0, 0, duration_s=1.0)
        with pytest.raises(ConfigurationError, match="data_corruption probability"):
            FaultEvent(
                FaultKind.DATA_CORRUPTION, 0.0, 0, duration_s=1.0, probability=1.5
            )
        ev = FaultEvent(
            FaultKind.DATA_CORRUPTION, 0.0, 0, duration_s=1.0, probability=0.5
        )
        assert ev.probability == 0.5

    def test_probability_rejected_on_other_kinds(self):
        with pytest.raises(ConfigurationError, match="only meaningful"):
            FaultEvent(FaultKind.TRANSIENT, 0.0, 0, probability=0.5)
        with pytest.raises(ConfigurationError, match="only meaningful"):
            FaultEvent(FaultKind.TENSOR_BITFLIP, 0.0, 0, probability=0.5)

    def test_bitflip_is_a_point_event(self):
        ev = FaultEvent(FaultKind.TENSOR_BITFLIP, 2.0, 3)
        assert ev.duration_s == 0.0 and ev.probability == 0.0

    def test_corruption_json_round_trip_keeps_probability(self, tmp_path):
        plan = FaultPlan((
            FaultEvent(FaultKind.DATA_CORRUPTION, 1.0, 2, duration_s=0.25,
                       probability=0.7),
            FaultEvent(FaultKind.TENSOR_BITFLIP, 2.0, 5),
        ))
        path = tmp_path / "plan.json"
        plan.to_json(path)
        loaded = FaultPlan.from_json(path)
        assert loaded == plan
        corrupt = loaded.of_kind(FaultKind.DATA_CORRUPTION)[0]
        assert (corrupt.probability, corrupt.duration_s) == (0.7, 0.25)

    def test_validate_devices_names_the_corruption_offender(self):
        plan = FaultPlan((
            FaultEvent(FaultKind.DATA_CORRUPTION, 1.0, 12, duration_s=0.5,
                       probability=0.5),
        ))
        with pytest.raises(ConfigurationError, match="data_corruption.*device 12"):
            plan.validate_devices(8)

    def test_generate_draws_corruption_faults(self):
        plan = FaultPlan.generate(
            7, num_devices=8, horizon_s=1.0,
            n_transient=0, n_transfer=0, n_straggler=0, n_device_lost=0,
            n_data_corruption=2, n_tensor_bitflip=3,
            corruption_prob=0.7, corruption_window_frac=0.5,
        )
        corruptions = plan.of_kind("data_corruption")
        bitflips = plan.of_kind("tensor_bitflip")
        assert len(corruptions) == 2 and len(bitflips) == 3
        for e in corruptions:
            assert e.probability == 0.7
            assert e.duration_s == pytest.approx(0.5)
        assert plan == FaultPlan.generate(
            7, num_devices=8, horizon_s=1.0,
            n_transient=0, n_transfer=0, n_straggler=0, n_device_lost=0,
            n_data_corruption=2, n_tensor_bitflip=3,
            corruption_prob=0.7, corruption_window_frac=0.5,
        )

    def test_generate_rejects_bad_corruption_prob(self):
        with pytest.raises(ConfigurationError, match="corruption_prob"):
            FaultPlan.generate(
                0, num_devices=4, horizon_s=1.0,
                n_transient=0, n_transfer=0, n_straggler=0, n_device_lost=0,
                n_data_corruption=1, corruption_prob=0.0,
            )


class TestCorruptionInjector:
    def plan(self, prob=1.0):
        return FaultPlan((
            FaultEvent(FaultKind.DATA_CORRUPTION, 1.0, 0, duration_s=1.0,
                       probability=prob),
        ))

    def test_no_draws_outside_windows(self):
        inj = FaultInjector(self.plan())
        inj.poll(0.0)
        assert inj.take_corruption(0) is False  # window not yet open
        inj.poll(1.5)
        assert inj.take_corruption(0) is True  # p = 1 inside the window
        assert inj.take_corruption(1) is False  # other devices untouched
        inj.poll(2.5)
        assert inj.take_corruption(0) is False  # window closed

    def test_draw_sequence_is_plan_deterministic(self):
        """Kernels outside the window consume no draws: two runs that
        differ only in pre-window activity corrupt the same kernels."""
        a = FaultInjector(self.plan(prob=0.5))
        b = FaultInjector(self.plan(prob=0.5))
        a.poll(0.5)
        for _ in range(100):  # pre-window kernels draw nothing
            assert a.take_corruption(0) is False
        a.poll(1.2)
        b.poll(1.2)
        draws_a = [a.take_corruption(0) for _ in range(50)]
        draws_b = [b.take_corruption(0) for _ in range(50)]
        assert draws_a == draws_b
        assert any(draws_a) and not all(draws_a)  # p = 0.5 mixes

    def test_device_loss_clears_corruption_windows(self):
        inj = FaultInjector(self.plan())
        inj.poll(1.5)
        assert inj.take_corruption(0) is True
        inj.note_device_lost(0, 1.6, orphans=0)
        assert inj.take_corruption(0) is False

    def test_stats_count_corruption_injections(self):
        plan = FaultPlan((
            FaultEvent(FaultKind.DATA_CORRUPTION, 0.0, 0, duration_s=1.0,
                       probability=0.5),
            FaultEvent(FaultKind.TENSOR_BITFLIP, 0.5, 1),
        ))
        inj = FaultInjector(plan)
        losses = inj.poll(1.0)
        assert inj.stats.injected["data_corruption"] == 1
        assert inj.stats.injected["tensor_bitflip"] == 1
        assert [e.kind for e in losses] == [FaultKind.TENSOR_BITFLIP]

    def test_bitflip_returned_to_driver(self):
        """Bitflips need cluster cooperation (a resident tensor to hit),
        so the injector hands them back rather than arming them."""
        inj = FaultInjector(FaultPlan((
            FaultEvent(FaultKind.TENSOR_BITFLIP, 1.0, 2),
        )))
        assert inj.poll(0.5) == []
        (ev,) = inj.poll(1.5)
        assert ev.kind is FaultKind.TENSOR_BITFLIP and ev.device == 2


def bare_cluster(num_devices=8):
    return ClusterState(mi100_like(num_devices, memory_bytes=1 << 20))


def poll_and_apply(events, cluster, now=1.0, **kwargs):
    """Drive one injector through the poll-then-apply protocol."""
    inj = FaultInjector(FaultPlan(tuple(events)))
    results = [inj.apply(f, cluster, **kwargs) for f in inj.poll(now)]
    return inj, results


class TestInjectorApply:
    """``FaultInjector.apply`` on a bare cluster, no serving loop."""

    @staticmethod
    def hit(kind, inj, cluster):
        if kind in (FaultKind.NODE_LOST, FaultKind.NODE_FLAP):
            # A loss fails its radius; a flap takes it down until it ends.
            hit = FAILED if kind is FaultKind.NODE_LOST else down(ACTIVE)
            return {d for d in range(cluster.num_devices) if cluster.state(d) == hit}
        if kind is FaultKind.LINK_LOST:
            return set(inj.linkless_devices)
        return set(inj.silent_devices(1.0))

    @pytest.mark.parametrize("with_topology", [False, True])
    @pytest.mark.parametrize("kind", sorted(NODE_SCOPED, key=lambda k: k.value))
    def test_node_scoped_radius(self, kind, with_topology):
        cluster = bare_cluster()
        topology = Topology(num_devices=8, devices_per_node=4) if with_topology else None
        event = FaultEvent(kind, 1.0, 5, duration_s=0.5)
        inj, _ = poll_and_apply([event], cluster, topology=topology)
        # Without a topology a node is indistinguishable from a device.
        assert self.hit(kind, inj, cluster) == ({4, 5, 6, 7} if with_topology else {5})

    @pytest.mark.parametrize("dead_first", [False, True])
    def test_link_loss_noop_when_duplicate_or_dead(self, dead_first):
        cluster = bare_cluster()
        topology = Topology(num_devices=8, devices_per_node=4)
        events = [FaultEvent(FaultKind.LINK_LOST, 1.0, 1)]
        if dead_first:
            cluster.fail_node([0, 1, 2, 3])
        else:
            events.append(FaultEvent(FaultKind.LINK_LOST, 1.0, 2))  # same node
        inj, results = poll_and_apply(events, cluster, topology=topology)
        assert results == [{}] * len(events)
        assert inj.stats.link_losses == (0 if dead_first else 1)
        assert len(inj.stats.events) == inj.stats.link_losses
        assert inj.linkless_devices == (frozenset() if dead_first else frozenset({0, 1, 2, 3}))

    @pytest.mark.parametrize("kind", [FaultKind.DEVICE_LOST, FaultKind.NODE_LOST])
    def test_repeated_loss_records_nothing(self, kind):
        cluster = bare_cluster()
        topology = Topology(num_devices=8, devices_per_node=4)
        events = [FaultEvent(kind, 1.0, 2), FaultEvent(kind, 1.0, 2)]
        inj, (first, second) = poll_and_apply(events, cluster, topology=topology)
        killed = [0, 1, 2, 3] if kind is FaultKind.NODE_LOST else [2]
        assert sorted(first) == killed
        assert second == {}
        assert inj.stats.device_losses == len(killed)
        assert inj.stats.node_losses == (1 if kind is FaultKind.NODE_LOST else 0)
        assert len(inj.stats.events) == len(killed)

    @pytest.mark.parametrize(
        "integrity, dead, label",
        [
            (True, False, "tensor bitflip: uid 3"),
            (False, False, "tensor bitflip: uid 3"),
            (True, True, "tensor bitflip: no resident tensor"),
        ],
    )
    def test_bitflip_victim(self, integrity, dead, label):
        cluster = bare_cluster()
        for uid in (7, 3, 9):
            assert cluster.prewarm(uid, 1024, 1)
        if dead:
            cluster.fail_device(1)
        integ = IntegrityState(IntegrityConfig(mode="spot"), 8) if integrity else None
        inj, results = poll_and_apply(
            [FaultEvent(FaultKind.TENSOR_BITFLIP, 1.0, 1)], cluster, integrity=integ
        )
        assert results == [{}]
        assert [e["label"] for e in inj.stats.events] == [label]
        if integ is not None:
            assert integ.injected == (0 if dead else 1)
            assert integ.dirty_uids_on(1) == ([] if dead else [3])
        assert inj.stats.device_losses == 0

    def test_node_flap_returns_orphans_and_opens_down_windows(self):
        cluster = bare_cluster()
        assert cluster.prewarm(11, 1024, 4)
        topology = Topology(num_devices=8, devices_per_node=4)
        inj, (orphaned,) = poll_and_apply(
            [FaultEvent(FaultKind.NODE_FLAP, 1.0, 5, duration_s=0.5)], cluster, topology=topology
        )
        assert orphaned == {4: [11], 5: [], 6: [], 7: []}
        assert inj.stats.down_windows == [[d, 1.0, None] for d in (4, 5, 6, 7)]
        assert inj.stats.orphaned_tensors == 1
        assert inj.stats.node_losses == 0
        assert [(e["device"], e["duration_s"], e["label"]) for e in inj.stats.events] == [
            (d, 0.5, "node flap down") for d in (4, 5, 6, 7)
        ]

    def test_engine_side_kind_is_rejected(self):
        inj = FaultInjector(FaultPlan())
        event = FaultEvent(FaultKind.TRANSIENT, 0.0, 0)
        with pytest.raises(ConfigurationError, match="armed by poll"):
            inj.apply(event, bare_cluster())
