"""Serving-loop fault recovery: shrinking pools, re-scheduling, shedding."""

import pytest

from repro.core.config import MiccoConfig
from repro.faults import FaultEvent, FaultKind, FaultPlan
from repro.schedulers.bounds import ReuseBounds
from repro.schedulers.micco import MiccoScheduler
from repro.serve import MiccoServer, PoissonArrivals, ServeConfig
from repro.workloads import SyntheticWorkload, WorkloadParams

MIB = 1024**2


def small_config(num_devices: int = 4) -> MiccoConfig:
    return MiccoConfig(num_devices=num_devices, memory_bytes=64 * MIB)


def make_vectors(n: int = 12, seed: int = 3):
    params = WorkloadParams(
        vector_size=8, tensor_size=128, repeated_rate=0.6, num_vectors=n, batch=4
    )
    return SyntheticWorkload(params, seed=seed).vectors()


def run_chaos(plan, *, num_devices=4, serve=None, n=12, arrivals=None, seed=0):
    server = MiccoServer(
        MiccoScheduler(ReuseBounds(0, 4, 0)),
        small_config(num_devices),
        serve or ServeConfig(),
    )
    vectors = make_vectors(n)
    return server, server.run(
        vectors, arrivals if arrivals is not None else PoissonArrivals(200.0),
        seed=seed, faults=plan,
    )


class TestDeviceLossRecovery:
    def test_pool_shrinks_and_run_completes(self):
        plan = FaultPlan((FaultEvent(FaultKind.DEVICE_LOST, 0.01, 1),))
        server, result = run_chaos(plan)
        assert server.cluster.num_alive == 3
        assert not server.cluster.is_alive(1)
        s = result.summary()
        assert s["completed"] == s["offered"]
        assert result.faults["device_losses"] == 1
        assert result.faults["availability_pct"] < 100.0
        # No completed vector ran a pair on the dead device after loss:
        # the cluster stays consistent throughout.
        server.cluster.check_invariants()

    def test_inflight_orphans_are_rescheduled_onto_survivors(self):
        # Everything arrives at t=0 with a deep inflight window, so the
        # loss at t=1ms lands while completions are still pending.
        plan = FaultPlan((FaultEvent(FaultKind.DEVICE_LOST, 1e-3, 0),))
        server, result = run_chaos(
            plan,
            serve=ServeConfig(max_inflight=8),
            arrivals=[0.0] * 12,
        )
        s = result.summary()
        assert s["completed"] == s["offered"]
        assert result.faults["rescheduled_pairs"] > 0
        assert result.faults["orphaned_tensors"] > 0
        assert result.faults["recovery_latency_s"]["device_lost"]
        # Re-scheduled pairs landed on survivors only.
        for rec in result.report.completed:
            assert 0 not in rec.devices or rec.complete_s < 1e-3

    def test_bounds_rescaled_for_survivors(self):
        plan = FaultPlan((FaultEvent(FaultKind.DEVICE_LOST, 0.01, 2),))
        server, _ = run_chaos(plan)
        # 4 -> 3 alive: bounds scale by 4/3.
        expected = ReuseBounds(0, 4, 0).scaled(4 / 3)
        assert server.scheduler.bounds == expected

    def test_recovery_off_sheds_affected_vectors(self):
        plan = FaultPlan((FaultEvent(FaultKind.DEVICE_LOST, 1e-3, 0),))
        _, result = run_chaos(
            plan,
            serve=ServeConfig(max_inflight=8, recover_faults=False),
            arrivals=[0.0] * 12,
        )
        s = result.summary()
        assert s["dropped_by_reason"].get("fault-abandoned", 0) > 0
        assert s["completed"] + s["dropped"] == s["offered"]
        assert result.faults["rescheduled_pairs"] == 0

    def test_losing_every_device_sheds_remaining_arrivals(self):
        plan = FaultPlan((
            FaultEvent(FaultKind.DEVICE_LOST, 1e-4, 0),
            FaultEvent(FaultKind.DEVICE_LOST, 1e-4, 1),
        ))
        _, result = run_chaos(plan, num_devices=2, arrivals=[i * 0.01 for i in range(12)])
        s = result.summary()
        assert s["completed"] == 0
        assert s["dropped_by_reason"] == {"fault-abandoned": 12}
        # Nothing completed, so the makespan is zero and availability
        # degenerates to its no-denominator value.
        assert result.faults["availability_pct"] == 100.0
        assert result.faults["device_losses"] == 2

    def test_losing_every_device_sheds_queued_and_inflight_work(self):
        # The whole-cluster shard dies with work queued and in flight:
        # its queue re-homes through the pass-through router, which has
        # no other shard, so every ticket is shed instead of stranding.
        plan = FaultPlan((FaultEvent(FaultKind.NODE_LOST, 2e-3, 0),))
        server, result = run_multinode(
            plan, n=12, arrivals=[0.0] * 12, num_devices=4, devices_per_node=4
        )
        s = result.summary()
        assert server.cluster.num_alive == 0
        assert s["completed"] + s["dropped"] == s["offered"] == 12
        assert s["dropped_by_reason"]["fault-abandoned"] == 12 - s["completed"] > 0
        assert result.sharding is None and all(r["shard"] == 0 for r in result.rounds)

    def test_duplicate_loss_entries_are_idempotent(self):
        plan = FaultPlan((
            FaultEvent(FaultKind.DEVICE_LOST, 0.01, 1),
            FaultEvent(FaultKind.DEVICE_LOST, 0.02, 1),
        ))
        server, result = run_chaos(plan)
        assert server.cluster.num_alive == 3
        assert result.faults["device_losses"] == 1


class TestTransientAndTransferInServing:
    def test_exhausted_retry_budget_sheds_not_crashes(self):
        # Arm more consecutive kernel failures than the retry budget
        # (4) on one device: the first vector with a pair there hits
        # the wall and is shed; the leftovers recover on later vectors.
        plan = FaultPlan((FaultEvent(FaultKind.TRANSIENT, 0.0, 0, count=6),))
        _, result = run_chaos(plan)
        s = result.summary()
        assert s["dropped_by_reason"].get("fault-abandoned", 0) >= 1
        assert s["completed"] >= 1
        assert result.faults["transient_abandoned"] >= 1

    def test_recovered_faults_leave_slo_report_complete(self):
        plan = FaultPlan((
            FaultEvent(FaultKind.TRANSIENT, 0.0, 0, count=1),
            FaultEvent(FaultKind.TRANSFER, 0.0, 1, count=1),
        ))
        _, result = run_chaos(plan)
        s = result.summary()
        assert s["completed"] == s["offered"]
        f = result.faults
        assert f["transient_recovered"] + f["transfer_refetches"] >= 1

    def test_straggler_inflates_latency_not_drops(self):
        clean = run_chaos(FaultPlan(()))[1].summary()
        plan = FaultPlan((
            FaultEvent(FaultKind.STRAGGLER, 0.0, d, duration_s=10.0, slow_factor=8.0)
            for d in range(4)
        ))
        slow = run_chaos(plan)[1]
        s = slow.summary()
        assert s["completed"] == s["offered"]
        assert s["p99_s"] > clean["p99_s"]
        assert slow.faults["degraded_device_s"] > 0


class TestChaosDeterminism:
    def test_same_seed_same_report_and_trace(self):
        plan = FaultPlan.generate(5, num_devices=4, horizon_s=0.06)
        # One request stream shared by both runs: fresh streams would
        # draw fresh global tensor uids, which appear in event labels.
        vectors = make_vectors(12)

        def one():
            server = MiccoServer(
                MiccoScheduler(ReuseBounds(0, 4, 0)), small_config(), ServeConfig()
            )
            return server.run(vectors, PoissonArrivals(200.0), seed=9, faults=plan)

        a, b = one(), one()
        assert a.summary() == b.summary()
        assert a.fault_events == b.fault_events
        assert [e.__dict__ for e in a.to_trace().events] == [
            e.__dict__ for e in b.to_trace().events
        ]

    def test_no_plan_means_no_fault_section(self):
        _, result = run_chaos(None)
        assert result.faults is None
        assert result.fault_events == []
        assert "faults" not in result.summary()

    def test_no_vector_completes_twice(self):
        plan = FaultPlan((FaultEvent(FaultKind.DEVICE_LOST, 1e-3, 0),))
        _, result = run_chaos(plan, serve=ServeConfig(max_inflight=8), arrivals=[0.0] * 12)
        ids = [r.vector_id for r in result.report.completed]
        assert len(ids) == len(set(ids))


class TestReusedServer:
    """A one-shard server places through its own scheduler: a run that
    rescales its bounds must not leak them into the next run."""

    @pytest.mark.parametrize("seed", [0, 1])
    def test_faulted_run_then_clean_run_matches_fresh_server(self, seed):
        # 12 tensor slots over 8 devices: balanceNum is 1.5, so bounds of
        # 0.5 and of the 8->4 rescaled 1.0 admit different devices.
        params = WorkloadParams(
            vector_size=12, tensor_size=128, repeated_rate=0.6, num_vectors=24, batch=4
        )
        vectors = SyntheticWorkload(params, seed=3).vectors()
        plan = FaultPlan(tuple(FaultEvent(FaultKind.DEVICE_LOST, 0.01, d) for d in (4, 5, 6, 7)))

        def build():
            return MiccoServer(
                MiccoScheduler(ReuseBounds(0.5, 0.5, 0.5)), MiccoConfig(), ServeConfig()
            )

        reused = build()
        reused.run(vectors, PoissonArrivals(200.0), seed=seed, faults=plan)
        again = reused.run(vectors, PoissonArrivals(200.0), seed=seed)
        fresh = build().run(vectors, PoissonArrivals(200.0), seed=seed)
        assert reused.scheduler.bounds == ReuseBounds(0.5, 0.5, 0.5)
        assert again.summary() == fresh.summary()
        assert again.rounds == fresh.rounds


def multinode_config(num_devices: int = 8, devices_per_node: int = 4) -> MiccoConfig:
    from repro.gpusim import CostModel, Topology

    topo = Topology(num_devices=num_devices, devices_per_node=devices_per_node)
    return MiccoConfig(
        num_devices=num_devices,
        memory_bytes=64 * MIB,
        cost_model=CostModel(topology=topo),
    )


def run_multinode(plan, *, serve=None, n=12, arrivals=None, seed=0,
                  num_devices=8, devices_per_node=4):
    server = MiccoServer(
        MiccoScheduler(ReuseBounds(0, 4, 0)),
        multinode_config(num_devices, devices_per_node),
        serve or ServeConfig(),
    )
    vectors = make_vectors(n)
    return server, server.run(
        vectors, arrivals if arrivals is not None else PoissonArrivals(200.0),
        seed=seed, faults=plan,
    )


class TestNodeLossDomains:
    def test_node_lost_kills_exactly_one_node(self):
        # Device 1 lives on node 0 = {0,1,2,3}; the whole node must die
        # and node 1 = {4,5,6,7} must survive untouched.
        plan = FaultPlan((FaultEvent(FaultKind.NODE_LOST, 0.01, 1),))
        server, result = run_multinode(plan)
        assert server.cluster.alive_ids() == [4, 5, 6, 7]
        assert all(server.cluster.state(d) == "failed" for d in range(4))
        f = result.faults
        assert f["node_losses"] == 1
        assert f["device_losses"] == 4
        assert f["injected"]["node_lost"] == 1
        s = result.summary()
        assert s["completed"] == s["offered"]
        server.cluster.check_invariants()

    def test_survivor_residency_only_on_surviving_node(self):
        plan = FaultPlan((FaultEvent(FaultKind.NODE_LOST, 0.005, 2),))
        server, _ = run_multinode(plan, serve=ServeConfig(max_inflight=4))
        dead = {0, 1, 2, 3}
        for dev in range(8):
            if dev in dead:
                assert len(server.cluster.pools[dev]) == 0
        server.cluster.check_invariants()

    def test_inflight_rescheduled_onto_surviving_node(self):
        # Eight devices drain the t=0 burst in under a millisecond, so
        # the loss must land early to catch pairs in flight.
        plan = FaultPlan((FaultEvent(FaultKind.NODE_LOST, 2e-4, 0),))
        server, result = run_multinode(
            plan, serve=ServeConfig(max_inflight=8), arrivals=[0.0] * 12,
        )
        assert result.faults["rescheduled_pairs"] > 0
        # Every completed vector's final assignment avoids the dead node.
        for rec in result.report.completed:
            assert not (set(rec.devices) & {0, 1, 2, 3})

    def test_without_topology_node_lost_degenerates_to_one_device(self):
        plan = FaultPlan((FaultEvent(FaultKind.NODE_LOST, 0.01, 1),))
        server, result = run_chaos(plan)  # single-node 4-GPU config
        assert server.cluster.alive_ids() == [0, 2, 3]
        assert result.faults["node_losses"] == 1
        assert result.faults["device_losses"] == 1

    def test_cross_node_fetches_visible_in_trace(self):
        # Multi-node traffic (even pre-loss) pays inter-node links; the
        # engine records each cross-node d2d as an "xnode" fault event.
        plan = FaultPlan((FaultEvent(FaultKind.NODE_LOST, 0.02, 0),))
        _, result = run_multinode(plan, serve=ServeConfig(max_inflight=4), n=16)
        xnode = [e for e in result.fault_events if e["kind"] == "xnode"]
        assert result.faults["cross_node_fetches"] == len(xnode)
        if xnode:  # workload-dependent, but the counter must be consistent
            trace = result.to_trace()
            assert any(ev.kind == "xnode" for ev in trace.events)

    def test_node_loss_determinism(self):
        def one():
            _, result = run_multinode(
                FaultPlan((FaultEvent(FaultKind.NODE_LOST, 0.01, 5),)),
                serve=ServeConfig(max_inflight=4),
            )
            return result.summary(), result.fault_events

        assert one() == one()

    def test_duplicate_node_loss_is_idempotent(self):
        plan = FaultPlan((
            FaultEvent(FaultKind.NODE_LOST, 0.01, 0),
            FaultEvent(FaultKind.NODE_LOST, 0.02, 3),  # same node again
        ))
        server, result = run_multinode(plan)
        assert server.cluster.alive_ids() == [4, 5, 6, 7]
        assert result.faults["device_losses"] == 4  # not 8


class TestWarmRestore:
    def chaos_with_replacement(self, *, warm: bool, seed=0):
        from repro.serve import AutoscalerConfig

        plan = FaultPlan((FaultEvent(FaultKind.DEVICE_LOST, 0.02, 0),))
        serve = ServeConfig(
            max_inflight=2,
            warm_restore=warm,
            autoscaler=AutoscalerConfig(
                min_devices=2, max_devices=4, initial_devices=3,
                warmup_s=0.005, replace_lost=True,
            ),
        )
        server = MiccoServer(
            MiccoScheduler(ReuseBounds(0, 4, 0)), small_config(4), serve
        )
        return server, server.run(
            make_vectors(24), [i * 2e-3 for i in range(24)], seed=seed, faults=plan
        )

    def test_replace_lost_brings_a_spare_online(self):
        server, result = self.chaos_with_replacement(warm=False)
        ups = [a for a in result.autoscale["actions"]
               if a["action"] == "up" and "replace lost" in a["reason"]]
        assert len(ups) == 1
        # The replacement spare finished warm-up and joined the pool.
        onlines = [a for a in result.autoscale["actions"]
                   if a["action"] == "online" and a["device"] == ups[0]["device"]]
        assert onlines and onlines[0]["time_s"] == pytest.approx(
            ups[0]["time_s"] + 0.005
        )
        assert server.cluster.num_alive >= 2

    def test_warm_restore_prewarms_journaled_tensors(self):
        _, result = self.chaos_with_replacement(warm=True)
        assert result.journal is not None
        assert result.journal["restores"] >= 1
        assert result.journal["prewarmed_tensors"] > 0
        assert result.faults["prewarmed_tensors"] == result.journal["prewarmed_tensors"]
        assert "warm_restore" in result.faults["recovery_latency_s"]
        prewarm = [e for e in result.fault_events if e["kind"] == "prewarm"]
        assert len(prewarm) == result.journal["restores"]

    def test_cold_runs_have_no_journal_section(self):
        _, result = self.chaos_with_replacement(warm=False)
        assert result.journal is None
        assert result.faults["prewarmed_tensors"] == 0

    def test_journal_detached_after_run(self):
        server, _ = self.chaos_with_replacement(warm=True)
        assert server.cluster.journal is None


class TestFaultAwareAdmission:
    LOSSES = FaultPlan((
        FaultEvent(FaultKind.DEVICE_LOST, 1.5e-3, 0),
        FaultEvent(FaultKind.DEVICE_LOST, 1.6e-3, 1),
    ))

    def test_predicted_infeasible_sheds_under_fault_pressure(self):
        serve = ServeConfig(fault_aware_admission=True, admission_min_success=0.9)
        _, result = run_chaos(
            self.LOSSES, serve=serve, n=12, arrivals=[i * 1e-3 for i in range(12)]
        )
        reasons = result.report.drops_by_reason()
        assert reasons.get("predicted-infeasible", 0) > 0
        assert result.faults["predicted_infeasible"] == reasons["predicted-infeasible"]
        # Shed vectors never executed: nothing was fault-abandoned mid-run.
        s = result.summary()
        assert s["dropped_by_reason"] == reasons
        # The gate sits before routing; the queue keeps its own order.
        assert s["queue"]["policy"] == "fifo"

    def test_gate_admits_everything_without_faults(self):
        serve = ServeConfig(fault_aware_admission=True)
        _, result = run_chaos(None, serve=serve)
        s = result.summary()
        assert s["completed"] == s["offered"]

    def test_fault_aware_composes_with_explicit_policy(self):
        from repro.serve import Sjf

        serve = ServeConfig(
            queue_policy=Sjf(), fault_aware_admission=True, admission_min_success=0.9
        )
        _, result = run_chaos(
            self.LOSSES, serve=serve, n=12, arrivals=[i * 1e-3 for i in range(12)]
        )
        assert result.queue["policy"] == "sjf"
        assert result.report.drops_by_reason().get("predicted-infeasible", 0) > 0

    @pytest.mark.parametrize("sharded", [False, True], ids=["one-shard", "sharded"])
    def test_policy_instance_gates_every_mode(self, sharded):
        # A FaultAware instance given as the queue policy is the run's
        # admission gate whatever the shard count; its inner policy
        # orders the shard queues, and the gate resets per run so a
        # rerun replays identically.
        from repro.serve import FaultAware, Fifo, make_server

        gate = FaultAware(Fifo(), min_success_prob=0.9)
        server = make_server(
            ServeConfig(sharded=sharded, queue_policy=gate),
            cluster=multinode_config(),
            scheduler=MiccoScheduler(ReuseBounds(0, 4, 0)),
        )
        node_loss = FaultPlan((FaultEvent(FaultKind.NODE_LOST, 1.5e-3, 0),))
        runs = [
            server.run(
                make_vectors(24), [i * 1e-3 for i in range(24)], seed=0, faults=node_loss
            )
            for _ in range(2)
        ]
        reasons = runs[0].report.drops_by_reason()
        assert reasons.get("predicted-infeasible", 0) > 0
        assert runs[0].faults["predicted_infeasible"] == reasons["predicted-infeasible"]
        assert runs[0].queue["policy"] == "fifo"
        assert runs[0].summary() == runs[1].summary()


class TestLinkLossDegradation:
    """``link_lost``: the node degrades (host-staged fetches), nothing dies."""

    def test_devices_stay_alive_and_run_completes(self):
        plan = FaultPlan((FaultEvent(FaultKind.LINK_LOST, 1e-4, 1),))
        server, result = run_multinode(plan)
        assert server.cluster.num_alive == 8  # nobody died
        assert result.faults["injected"]["link_lost"] == 1
        assert result.faults["link_losses"] == 1
        assert result.faults["device_losses"] == 0
        s = result.summary()
        assert s["completed"] + s["dropped"] == s["offered"]

    def test_cross_node_fetches_become_host_staged(self):
        # Repeated tensors make cross-node reuse likely; severing node 0's
        # links forces those fetches through the host instead.
        plan = FaultPlan((FaultEvent(FaultKind.LINK_LOST, 1e-4, 0),))
        _, degraded = run_multinode(plan)
        _, healthy = run_multinode(None)
        assert degraded.faults["host_staged_fetches"] > 0
        # Host staging replaces (never adds to) cross-node D2D traffic.
        assert (
            degraded.metrics.counts.cross_node_fetches
            <= healthy.metrics.counts.cross_node_fetches
        )

    def test_same_node_reuse_survives_link_loss(self):
        # Holders on the destination's own node stay reachable: the run
        # still gets reuse hits after every inter-node link is severed.
        plan = FaultPlan((
            FaultEvent(FaultKind.LINK_LOST, 1e-4, 0),
            FaultEvent(FaultKind.LINK_LOST, 1e-4, 4),
        ))
        _, result = run_multinode(plan)
        assert result.metrics.counts.reuse_hits > 0

    def test_duplicate_link_loss_is_idempotent(self):
        plan = FaultPlan((
            FaultEvent(FaultKind.LINK_LOST, 1e-4, 0),
            FaultEvent(FaultKind.LINK_LOST, 2e-4, 1),  # same node again
        ))
        _, result = run_multinode(plan)
        assert result.faults["link_losses"] == 1

    def test_generate_draws_link_lost_events(self):
        plan = FaultPlan.generate(
            7, num_devices=8, horizon_s=1.0, n_transient=0, n_transfer=0,
            n_straggler=0, n_device_lost=0, n_link_lost=3,
        )
        kinds = [e.kind for e in plan.events]
        assert kinds.count(FaultKind.LINK_LOST) == 3
        assert FaultPlan.from_dicts(plan.to_dicts()) == plan
