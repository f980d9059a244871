"""Batched scheduling rounds: merge/split helpers and the serving loop.

Covers the cross-vector batching layer end to end: vector merging and
assignment de-multiplexing, round assembly from the admission queue,
per-ticket accounting exactness, and — critically — fault recovery of
partially failed rounds (device loss mid-round must re-schedule only
the orphaned members' pairs, and per-ticket drop reasons must survive
batching unchanged).
"""

import json

import pytest

from repro.core.config import MiccoConfig
from repro.errors import ConfigurationError
from repro.faults import FaultEvent, FaultKind, FaultPlan
from repro.gpusim import CostModel, Topology
from repro.schedulers.batching import (
    batch_footprint_bytes,
    batch_shape_key,
    merge_vectors,
    split_assignment,
)
from repro.schedulers.bounds import ReuseBounds
from repro.schedulers.micco import MiccoScheduler
from repro.serve import MiccoServer, PoissonArrivals, ServeConfig, ShardedServer
from repro.serve.result import RoundsLog
from repro.workloads import SyntheticWorkload, WorkloadParams

MIB = 1024**2


def make_vectors(n=12, seed=3, vector_size=8, tensor_size=128, repeated=0.6):
    params = WorkloadParams(
        vector_size=vector_size, tensor_size=tensor_size,
        repeated_rate=repeated, num_vectors=n, batch=4,
    )
    return SyntheticWorkload(params, seed=seed).vectors()


def make_server(serve, num_devices=4, mem_mib=64):
    return MiccoServer(
        MiccoScheduler(ReuseBounds(0, 4, 0)),
        MiccoConfig(num_devices=num_devices, memory_bytes=mem_mib * MIB),
        serve,
    )


class TestMergeHelpers:
    def test_shape_key_groups_same_family(self):
        a, b = make_vectors(2)
        assert batch_shape_key(a) == batch_shape_key(b)

    def test_merge_concatenates_pairs_in_member_order(self):
        a, b = make_vectors(2)
        merged = merge_vectors([a, b])
        assert len(merged.pairs) == len(a.pairs) + len(b.pairs)
        assert merged.pairs[: len(a.pairs)] == list(a.pairs)
        assert merged.meta["batch_members"] == [a.vector_id, b.vector_id]

    def test_single_member_merge_is_identity(self):
        (a,) = make_vectors(1)
        assert merge_vectors([a]) is a

    def test_merge_rejects_mixed_shape_families(self):
        (a,) = make_vectors(1, tensor_size=128)
        (b,) = make_vectors(1, tensor_size=64)
        with pytest.raises(ConfigurationError, match="shape famil"):
            merge_vectors([a, b])

    def test_merge_rejects_empty(self):
        with pytest.raises(ConfigurationError):
            merge_vectors([])

    def test_split_assignment_round_trips_member_slices(self):
        a, b = make_vectors(2)
        assignment = list(range(len(a.pairs) + len(b.pairs)))
        sa, sb = split_assignment([a, b], assignment)
        assert sa == assignment[: len(a.pairs)]
        assert sb == assignment[len(a.pairs):]

    def test_split_assignment_length_checked(self):
        a, b = make_vectors(2)
        with pytest.raises(ConfigurationError, match="does not match"):
            split_assignment([a, b], [0])

    def test_footprint_counts_shared_inputs_once(self):
        a, b = make_vectors(2, repeated=0.9)
        separate = batch_footprint_bytes([a]) + batch_footprint_bytes([b])
        combined = batch_footprint_bytes([a, b])
        # The streams share repeated tensors, so the combined unique
        # footprint is strictly below the sum of the parts.
        assert combined < separate


class TestRoundsLog:
    ROWS = [
        (0, 1, [4], 8, 0.25, 0.5),
        (1, 0, [5, 6, 9], 24, 0.5, 0.75),
        (2, 3, [], 0, 1.0, 1.0),
        (7, 0, [2**40, -1], 3, 1e-300, 2.5),
    ]
    KEYS = ("round_id", "shard", "members", "pairs", "dispatch_s", "sched_done_s")

    def make(self):
        log = RoundsLog()
        for row in self.ROWS:
            log.append(*row)
        return log, [dict(zip(self.KEYS, row)) for row in self.ROWS]

    def test_renders_the_logged_dicts(self):
        log, dicts = self.make()
        assert len(log) == 4 and bool(log) and not RoundsLog()
        assert log == dicts and dicts == log and list(log) == dicts
        assert [log[i] for i in range(4)] == dicts and log[-1] == dicts[-1]
        assert log[1:3] == dicts[1:3]
        assert [list(d) for d in log] == [list(self.KEYS)] * 4  # key order
        with pytest.raises(IndexError):
            log[4]
        assert log != dicts[:3] and log != dicts[::-1]

    def test_two_logs_compare_by_rows(self):
        a, _ = self.make()
        b, _ = self.make()
        assert a == b
        b.append(8, 0, [1], 1, 3.0, 3.5)
        assert a != b

    def test_json_is_a_plain_list(self):
        log, dicts = self.make()
        assert json.dumps(list(log)) == json.dumps(dicts)


class TestBatchedServing:
    def run_batched(self, batch=4, n=16, rate=2000.0, serve_extra=None, seed=7):
        serve = ServeConfig(max_batch_vectors=batch, **(serve_extra or {}))
        server = make_server(serve)
        vectors = make_vectors(n)
        return server.run(vectors, PoissonArrivals(rate), seed=seed)

    def test_rounds_actually_batch_under_backlog(self):
        res = self.run_batched()
        b = res.report.batching_summary()
        assert b["batched_rounds"] > 0
        assert b["max_round_vectors"] > 1
        assert b["rounds"] == len(res.rounds)

    def test_every_vector_completes_with_exact_accounting(self):
        res = self.run_batched()
        assert len(res.report.completed) == 16
        for r in res.report.completed:
            assert r.arrival_s <= r.dispatch_s <= r.sched_done_s <= r.complete_s
            assert r.round_id is not None and r.round_size >= 1

    def test_round_members_share_dispatch_timestamps(self):
        res = self.run_batched()
        by_round = {}
        for r in res.report.completed:
            by_round.setdefault(r.round_id, []).append(r)
        assert any(len(v) > 1 for v in by_round.values())
        for members in by_round.values():
            assert len({m.dispatch_s for m in members}) == 1
            assert len({m.sched_done_s for m in members}) == 1

    def test_unbatched_config_never_forms_rounds(self):
        res = self.run_batched(batch=1)
        b = res.report.batching_summary()
        assert b["batched_rounds"] == 0
        assert b["max_round_vectors"] == 1

    def test_batched_run_is_deterministic(self):
        a = self.run_batched().summary()
        b = self.run_batched().summary()
        assert a == b

    def test_batching_increases_reuse_on_overlapping_streams(self):
        # Same workload, same arrivals: scheduling overlapping vectors
        # in one round lets repeated tensors be placed once and reused.
        unbatched = self.run_batched(batch=1)
        batched = self.run_batched(batch=4)
        assert len(batched.report.completed) == len(unbatched.report.completed)
        assert (
            batched.metrics.counts.input_fetches
            <= unbatched.metrics.counts.input_fetches
        )

    def test_batch_memory_frac_bounds_round_size(self):
        # A tiny budget forbids joining: every round is a singleton.
        res = self.run_batched(serve_extra={"batch_memory_frac": 1e-6})
        assert res.report.batching_summary()["max_round_vectors"] == 1

    def test_rounds_log_in_json_report(self, tmp_path):
        import json

        res = self.run_batched()
        path = tmp_path / "report.json"
        res.to_json(path)
        payload = json.loads(path.read_text())
        assert payload["rounds"] == res.rounds
        assert payload["summary"]["batching"]["rounds"] == len(res.rounds)

    def test_batch_lane_in_trace(self):
        res = self.run_batched()
        trace = res.to_trace()
        batch_events = trace.events_of("batch")
        assert batch_events  # at least one batched round rendered
        assert all(
            e.device <= -(res.metrics.num_devices + 1) for e in batch_events
        )


class TestBatchFaultDemux:
    """Device loss mid-round: recovery must stay exact per member."""

    def run_chaos(self, recover=True, batch=4):
        plan = FaultPlan((FaultEvent(FaultKind.DEVICE_LOST, 1e-3, 0),))
        serve = ServeConfig(
            max_inflight=8, max_batch_vectors=batch, recover_faults=recover
        )
        server = make_server(serve)
        return server, server.run(make_vectors(12), [0.0] * 12, seed=0, faults=plan)

    def test_loss_mid_round_rescheds_only_orphaned_members(self):
        server, res = self.run_chaos()
        s = res.summary()
        assert s["completed"] == s["offered"]
        assert s["batching"]["batched_rounds"] > 0
        assert res.faults["rescheduled_pairs"] > 0
        # Only pairs assigned to the dead device were re-executed: the
        # re-scheduled count is bounded by the orphaned tensor count.
        for rec in res.report.completed:
            assert 0 not in rec.devices or rec.complete_s < 1e-3
        server.cluster.check_invariants()

    def test_recovery_off_sheds_only_affected_members(self):
        _, res = self.run_chaos(recover=False)
        s = res.summary()
        assert s["completed"] + s["dropped"] == s["offered"]
        assert s["dropped_by_reason"].get("fault-abandoned", 0) > 0
        assert res.faults["rescheduled_pairs"] == 0
        # Members of a partially failed round that had no pairs on the
        # dead device still complete (drop reasons are per-ticket).
        assert s["completed"] > 0

    def test_drop_reasons_exact_under_batching(self):
        _, res = self.run_chaos(recover=False)
        for d in res.report.dropped:
            assert d.reason in ("fault-abandoned", "queue-full")

    def test_batched_chaos_matches_unbatched_completion_count(self):
        _, batched = self.run_chaos(batch=4)
        _, unbatched = self.run_chaos(batch=1)
        assert (
            len(batched.report.completed)
            == len(unbatched.report.completed)
            == 12
        )


class TestRoundOccupancy:
    """``batching_summary`` reads each round's size off its first member."""

    def run_rerouting(self):
        # Two nodes with a visible dispatch latency; node 1 dies while
        # rounds are queued and in flight, so its tickets reroute.
        topo = Topology(num_devices=8, devices_per_node=4)
        server = ShardedServer(
            MiccoScheduler(ReuseBounds(0, 4, 0)),
            MiccoConfig(num_devices=8, memory_bytes=64 * MIB, cost_model=CostModel(topology=topo)),
            ServeConfig(sharded=True, max_batch_vectors=4, schedule_latency_per_pair_s=2e-3),
        )
        plan = FaultPlan((FaultEvent(FaultKind.NODE_LOST, 0.05, 5),))
        return server.run(make_vectors(32), [i * 2e-3 for i in range(32)], seed=0, faults=plan)

    def test_round_members_record_one_size_under_reroutes(self):
        res = self.run_rerouting()
        assert res.sharding["rerouted"] > 0
        sizes: dict[int, set[int]] = {}
        for rec in res.report.completed:
            if rec.round_id is not None:
                sizes.setdefault(rec.round_id, set()).add(rec.round_size)
        assert sizes and all(len(s) == 1 for s in sizes.values())

        # The per-round maximum (what the summary took before) agrees.
        occupancy = [max(s) for _, s in sorted(sizes.items())]
        batching = res.summary()["batching"]
        assert batching["batched_rounds"] > 0
        assert batching["rounds"] == len(occupancy)
        assert batching["batched_rounds"] == sum(n > 1 for n in occupancy)
        assert batching["mean_round_vectors"] == sum(occupancy) / len(occupancy)
        assert batching["max_round_vectors"] == max(occupancy)


class TestRescaleAnchoring:
    """Repeated pool changes must not drift the reuse bounds."""

    @staticmethod
    def shard(anchor, num_devices=8):
        """The one whole-cluster shard of a single-loop server."""
        server = make_server(ServeConfig(), num_devices=num_devices)
        shard = server._build_shards([])[0]
        shard.bounds_anchor = anchor
        return server, shard

    @staticmethod
    def resize(server, shard, size):
        """Retire or warm up devices until ``size`` are alive, then rescale."""
        cluster = server.cluster
        while cluster.num_alive > size:
            cluster.retire_device(cluster.alive_ids()[-1])
        while cluster.num_alive < size:
            spare = next(d for d in range(cluster.num_devices) if cluster.state(d) == "spare")
            cluster.transition(spare, "warming")
            cluster.transition(spare, "active")
        shard.rescale_bounds()

    def test_round_trip_restores_exact_bounds(self):
        server, shard = self.shard((ReuseBounds(1, 3, 5), 8))
        # 8 -> 7 -> 5 -> 8: back at the anchor size, bit-exact bounds.
        for size in (7, 5, 8):
            self.resize(server, shard, size)
        assert server.scheduler.bounds == ReuseBounds(1, 3, 5)

    def test_chained_cycles_equal_single_rescale(self):
        anchor = (ReuseBounds(1, 3, 5), 8)
        walked, walked_shard = self.shard(anchor)
        sizes = [8, 7, 3, 6, 8, 2, 5, 8, 3]
        for size in sizes[1:]:
            self.resize(walked, walked_shard, size)
        direct, direct_shard = self.shard(anchor)
        self.resize(direct, direct_shard, sizes[-1])
        assert walked.scheduler.bounds == direct.scheduler.bounds

    def test_idempotent_per_target_size(self):
        server, shard = self.shard((ReuseBounds(0, 4, 0), 4), num_devices=4)
        self.resize(server, shard, 3)
        once = server.scheduler.bounds
        self.resize(server, shard, 3)  # same pool size again
        assert server.scheduler.bounds == once

    def test_loss_then_restore_recovers_seed_bounds_end_to_end(self):
        # A run that loses a device still rescales from the anchor, so
        # the survivors' bounds match one direct 4->3 rescale exactly.
        plan = FaultPlan((FaultEvent(FaultKind.DEVICE_LOST, 0.01, 2),))
        server = make_server(ServeConfig())
        server.run(make_vectors(12), PoissonArrivals(200.0), seed=0, faults=plan)
        assert server.scheduler.bounds == ReuseBounds(0, 4, 0).rescaled(4, 3)
