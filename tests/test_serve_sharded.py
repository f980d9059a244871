"""Two-level sharded control plane: routing, staleness, shard death."""

import dataclasses
import json

import pytest

from repro.core.config import MiccoConfig
from repro.errors import ConfigurationError
from repro.faults import FaultEvent, FaultKind, FaultPlan
from repro.gpusim import CostModel, Topology
from repro.gpusim.cluster import ClusterState
from repro.gpusim.trace import TraceConfig
from repro.schedulers.bounds import ReuseBounds
from repro.schedulers.micco import MiccoScheduler
from repro.serve import (
    HealthConfig,
    MiccoServer,
    PoissonArrivals,
    ServeConfig,
    ShardedServer,
    SloTargets,
    TenantSpec,
)
from repro.serve.sharded.node import ShardView
from repro.workloads import SyntheticWorkload, WorkloadParams

MIB = 1024**2

#: Non-default values the config-version ladder test loads for some
#: versioned fields; every other versioned field is loaded at its default.
VERSIONED_SAMPLES = {"sharded": True, "sync_interval_s": 0.01, "routing": "threshold-local"}


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


def run_sharded(*, serve=None, n=16, arrivals=None, seed=0, faults=None,
                num_devices=8, devices_per_node=4):
    server = ShardedServer(
        MiccoScheduler(ReuseBounds(0, 4, 0)),
        sharded_config(num_devices, devices_per_node),
        serve or ServeConfig(sharded=True),
    )
    return server, server.run(
        make_vectors(n),
        arrivals if arrivals is not None else PoissonArrivals(300.0),
        seed=seed, faults=faults,
    )


class TestShardView:
    """The view binds the cluster's never-rebound state once and caches
    its alive list; both must keep following the cluster."""

    def test_bound_state_survives_reset_and_device_loss(self):
        cluster = ClusterState.homogeneous(8, 64 * MIB)
        view = ShardView(cluster, [4, 5, 6, 7])
        bound = ("pools", "compute_s", "memop_s", "assigned_slots", "_holders")
        for name in bound:
            assert getattr(view, name) is getattr(cluster, name)
        cluster.fail_device(5)
        cluster.reset()
        for name in bound:
            assert getattr(view, name) is getattr(cluster, name)
        view.begin_vector(6)
        assert cluster.balance_num == 6 / 4  # delegated, rebound by the cluster

    def test_alive_ids_follow_the_cluster(self):
        cluster = ClusterState.homogeneous(8, 64 * MIB)
        view = ShardView(cluster, [4, 5, 6, 7])
        assert view.alive_ids() == [4, 5, 6, 7]
        cluster.fail_device(5)
        assert view.alive_ids() == [4, 6, 7]
        assert view.num_alive == 3
        cluster.retire_device(7)
        assert view.alive_ids() == [4, 6]
        cluster.transition(7, "warming")
        assert view.alive_ids() == [4, 6]
        cluster.transition(7, "active")
        assert view.alive_ids() == [4, 6, 7]
        cluster.flap_down([4, 6])
        assert view.alive_ids() == [7]
        cluster.flap_up(4)
        assert view.alive_ids() == [4, 7]
        cluster.flap_up(6)
        cluster.fail_device(1)  # another shard's loss leaves this view alone
        assert view.alive_ids() == [4, 6, 7]
        cluster.reset()
        assert view.alive_ids() == [4, 5, 6, 7]


class TestShardedServerBasics:
    def test_requires_topology(self):
        with pytest.raises(ConfigurationError, match="Topology"):
            ShardedServer(config=MiccoConfig(num_devices=4))

    def test_topology_must_cover_the_cluster(self):
        topo = Topology(num_devices=4, devices_per_node=2)
        cfg = MiccoConfig(num_devices=8, cost_model=CostModel(topology=topo))
        with pytest.raises(ConfigurationError, match="covers"):
            ShardedServer(config=cfg)

    def test_completes_everything_and_conserves_tickets(self):
        _, result = run_sharded()
        s = result.summary()
        assert s["completed"] + s["dropped"] == s["offered"] == 16
        assert s["dropped"] == 0

    def test_one_shard_per_topology_node(self):
        _, result = run_sharded(num_devices=8, devices_per_node=2)
        sh = result.sharding
        assert sh["num_shards"] == 4
        assert [x["devices"] for x in sh["shards"]] == [
            [0, 1], [2, 3], [4, 5], [6, 7]
        ]

    def test_every_ticket_is_routed_to_some_shard(self):
        _, result = run_sharded()
        sh = result.sharding
        assert sum(x["routed"] for x in sh["shards"]) == 16
        # The report records which shard dispatched every round.
        assert all("shard" in rnd for rnd in result.rounds)

    def test_digest_syncs_happen_on_the_configured_interval(self):
        serve = ServeConfig(sharded=True, sync_interval_s=0.005)
        _, fine = run_sharded(serve=serve)
        _, coarse = run_sharded(serve=ServeConfig(sharded=True, sync_interval_s=0.5))
        assert fine.sharding["syncs"] > coarse.sharding["syncs"]

    def test_placements_stay_inside_the_routed_shard(self):
        # Without faults every member's devices lie in its round's shard.
        server, result = run_sharded()
        topo = server.topology
        shard_of_round = {r["round_id"]: r["shard"] for r in result.rounds}
        for rec in result.report.completed:
            assert rec.devices, rec
            nodes = {topo.node_of(d) for d in rec.devices}
            assert nodes == {shard_of_round[rec.round_id]}

    def test_vectors_pay_cross_node_fetches_not_colocation(self):
        # Shared tensors routed to different shards show up as real
        # cross-node traffic in the metrics, never free co-location.
        _, result = run_sharded()
        assert result.sharding["cross_node_fetches"] == (
            result.metrics.counts.cross_node_fetches
        )


class TestForwarding:
    def full_cluster(self, n=10):
        # One round per shard in flight (max_inflight=1), one queue slot
        # each, and a dispatch latency far past the arrival burst: after
        # 4 tickets every shard is saturated and the rest face all-full
        # queues.
        serve = ServeConfig(
            sharded=True, queue_capacity=1, max_inflight=1,
            schedule_latency_per_pair_s=1.0,
        )
        return run_sharded(serve=serve, n=n, arrivals=[0.0] * n)

    def test_all_queues_full_sheds_exactly_once(self):
        _, result = self.full_cluster()
        s = result.summary()
        assert s["completed"] + s["dropped"] == s["offered"] == 10
        assert s["dropped"] == 6  # 2 dispatched + 2 queued, rest shed
        reasons = result.report.drops_by_reason()
        assert reasons.get("queue-full", 0) == 6

    def test_one_routing_attempt_visits_each_shard_at_most_once(self):
        _, result = self.full_cluster()
        sh = result.sharding
        # Every shed ticket was offered to each of the 2 full shards
        # exactly once — no bouncing between previously-tried shards.
        assert sh["forwards"] == 2 * result.summary()["dropped"]

    def test_all_full_shed_is_deterministic(self):
        summaries = {
            json.dumps(self.full_cluster()[1].summary(), sort_keys=True)
            for _ in range(2)
        }
        assert len(summaries) == 1


class TestShardedDeterminism:
    def test_same_seed_gives_byte_identical_reports(self, tmp_path):
        paths = []
        for i in range(2):
            serve = ServeConfig(sharded=True, max_batch_vectors=4)
            _, result = run_sharded(serve=serve, seed=5)
            p = tmp_path / f"run{i}.json"
            result.to_json(p)
            paths.append(p.read_bytes())
        assert paths[0] == paths[1]

    def test_same_seed_is_deterministic_under_node_loss(self):
        plan = FaultPlan((FaultEvent(FaultKind.NODE_LOST, 0.02, 5),))
        summaries = []
        for _ in range(2):
            _, result = run_sharded(faults=plan, seed=2)
            summaries.append(json.dumps(result.summary(), sort_keys=True))
        assert summaries[0] == summaries[1]

    def test_different_routing_policies_change_placement(self):
        outcomes = set()
        for routing in ("least-loaded", "residency-affinity", "threshold-local"):
            # Back-to-back arrivals with a visible dispatch latency so
            # backlog, residency and hashing actually pull apart.
            serve = ServeConfig(
                sharded=True, routing=routing,
                schedule_latency_per_pair_s=1e-3, sync_interval_s=0.002,
            )
            _, result = run_sharded(
                serve=serve, seed=1, n=24, arrivals=[i * 5e-4 for i in range(24)]
            )
            outcomes.add(tuple(r["shard"] for r in result.rounds))
        assert len(outcomes) > 1  # policies actually disagree somewhere


class TestShardedTracing:
    def test_full_trace_records_device_events_on_every_node(self):
        serve = ServeConfig(sharded=True, trace=TraceConfig(mode="full"))
        _, result = run_sharded(serve=serve, n=24, arrivals=PoissonArrivals(3000.0))
        trace = result.engine_trace
        assert trace is not None and len(trace) > 0
        topo = sharded_config().cost_model.topology
        nodes = {topo.node_of(e.device) for e in trace.events if e.device >= 0}
        assert len(nodes) >= 2

    def test_trace_off_renders_nothing(self):
        _, result = run_sharded(serve=ServeConfig(sharded=True, trace=TraceConfig(mode="off")))
        assert len(result.to_trace()) == 0


class TestShardDeath:
    @pytest.mark.parametrize("victim", [1, 9])
    def test_node_loss_during_a_flap_rehomes_off_the_flapped_shard(self, victim):
        # Node 1 is flapped down when another node dies: that node's
        # orphans must re-home on a shard with devices, never node 1.
        plan = FaultPlan((
            FaultEvent(FaultKind.NODE_FLAP, 0.004, 5, duration_s=0.004),
            FaultEvent(FaultKind.NODE_LOST, 0.005, victim),
        ))
        for seed in range(8):
            _, result = run_sharded(
                n=40, seed=seed, faults=plan, arrivals=PoissonArrivals(4000.0),
                num_devices=12, serve=ServeConfig(sharded=True, max_inflight=2),
            )
            s = result.summary()
            assert s["completed"] + s["dropped"] == s["offered"] == 40

    def test_node_loss_kills_exactly_one_shard(self):
        plan = FaultPlan((FaultEvent(FaultKind.NODE_LOST, 0.01, 5),))
        server, result = run_sharded(faults=plan, n=24)
        sh = result.sharding
        dead = [x for x in sh["shards"] if x["dead"]]
        alive = [x for x in sh["shards"] if not x["dead"]]
        assert [x["node"] for x in dead] == [1]
        assert all(x["alive"] == 4 for x in alive)
        assert server.cluster.num_alive == 4

    def test_orphans_reroute_through_the_global_tier(self):
        # Saturate so shard 1 has queued + in-flight work when it dies.
        serve = ServeConfig(sharded=True, schedule_latency_per_pair_s=2e-3)
        plan = FaultPlan((FaultEvent(FaultKind.NODE_LOST, 0.05, 5),))
        _, result = run_sharded(
            serve=serve, faults=plan, n=32,
            arrivals=[i * 2e-3 for i in range(32)],
        )
        sh = result.sharding
        assert sh["rerouted"] > 0
        survivor = next(x for x in sh["shards"] if not x["dead"])
        assert survivor["rerouted_in"] == sh["rerouted"]
        s = result.summary()
        assert s["completed"] + s["dropped"] == s["offered"]

    def test_all_nodes_dead_sheds_the_rest(self):
        plan = FaultPlan((
            FaultEvent(FaultKind.NODE_LOST, 1e-3, 0),
            FaultEvent(FaultKind.NODE_LOST, 1e-3, 4),
        ))
        _, result = run_sharded(faults=plan, n=12, arrivals=[i * 1e-3 for i in range(12)])
        s = result.summary()
        assert s["completed"] + s["dropped"] == s["offered"]
        assert result.report.drops_by_reason().get("fault-abandoned", 0) > 0

    def test_partial_loss_keeps_the_shard_serving(self):
        # device_lost inside a shard shrinks it without killing it.
        plan = FaultPlan((FaultEvent(FaultKind.DEVICE_LOST, 0.01, 5),))
        _, result = run_sharded(faults=plan, n=24)
        sh = result.sharding
        hurt = next(x for x in sh["shards"] if x["node"] == 1)
        assert not hurt["dead"]
        assert hurt["alive"] == 3
        assert result.summary()["completed"] > 0

    def test_link_lost_degrades_without_killing_the_shard(self):
        plan = FaultPlan((FaultEvent(FaultKind.LINK_LOST, 1e-3, 0),))
        _, result = run_sharded(faults=plan, n=24)
        assert all(not x["dead"] for x in result.sharding["shards"])
        assert all(x["alive"] == 4 for x in result.sharding["shards"])
        assert result.faults["link_losses"] == 1


class TestShardedTenancyAndScaling:
    def tenants(self):
        return (
            TenantSpec(
                "heavy", PoissonArrivals(400.0),
                WorkloadParams(num_vectors=12, vector_size=8, tensor_size=64, batch=2),
                weight=3.0, slo=SloTargets(p99_s=0.5),
            ),
            TenantSpec(
                "light", PoissonArrivals(200.0),
                WorkloadParams(num_vectors=6, vector_size=8, tensor_size=64, batch=2),
                weight=1.0,
            ),
        )

    def test_tenant_streams_route_across_shards(self):
        serve = ServeConfig(sharded=True, tenants=self.tenants())
        server = ShardedServer(
            MiccoScheduler(ReuseBounds(0, 4, 0)), sharded_config(), serve
        )
        result = server.run(seed=0)
        assert result.tenants is not None
        assert set(result.tenants) == {"heavy", "light"}
        s = result.summary()
        assert s["completed"] + s["dropped"] == s["offered"] == 18
        # Weighted-fair dispatch runs inside every shard's queue.
        assert all(
            x["queue"]["policy"] == "weighted"
            for x in result.sharding["shards"]
        )

    def test_tenants_mode_rejects_explicit_vectors(self):
        serve = ServeConfig(sharded=True, tenants=self.tenants())
        server = ShardedServer(
            MiccoScheduler(ReuseBounds(0, 4, 0)), sharded_config(), serve
        )
        with pytest.raises(ConfigurationError, match="tenants"):
            server.run(make_vectors(4), [0.0] * 4)

    def test_per_shard_autoscaler_is_clamped_to_the_shard(self):
        from repro.serve import AutoscalerConfig

        serve = ServeConfig(
            sharded=True,
            autoscaler=AutoscalerConfig(
                min_devices=1, max_devices=8, initial_devices=1,
                up_queue_depth=2, down_queue_depth=0, warmup_s=1e-3,
                cooldown_s=1e-3,
            ),
        )
        _, result = run_sharded(serve=serve, n=48, arrivals=[i * 1e-4 for i in range(48)])
        scale = result.autoscale
        assert scale is not None
        # Each 4-device shard grows from 1 to its own 4 devices, not to 8.
        assert set(scale["per_shard"]) == {"0", "1"}
        assert all(x["scale_ups"] == 3 for x in scale["per_shard"].values())
        assert all(a["alive_after"] <= 4 for a in scale["actions"])
        # Scaling only ever touches the shard's own devices.
        for a in scale["actions"]:
            if a["action"] in ("up", "down"):
                node = int(a["reason"].split()[1])
                assert a["device"] // 4 == node, a
        s = result.summary()
        assert s["completed"] + s["dropped"] == s["offered"]


class TestServeConfigV5:
    def test_v5_round_trip(self, tmp_path):
        cfg = ServeConfig(
            sharded=True, sync_interval_s=0.01, routing="threshold-local",
            health=HealthConfig(hedging=True, probation_beats=5),
        )
        path = tmp_path / "cfg.json"
        cfg.to_json(path)
        on_disk = json.loads(path.read_text())
        assert on_disk["version"] == ServeConfig.CONFIG_VERSION == 8
        assert ServeConfig.from_json(path) == cfg

    def test_v3_file_loads_with_later_defaults(self, tmp_path):
        path = tmp_path / "v3.json"
        path.write_text(json.dumps({"version": 3, "max_batch_vectors": 2}))
        cfg = ServeConfig.from_json(path)
        assert cfg.sharded is False
        assert cfg.sync_interval_s == 0.05
        assert cfg.routing == "least-loaded"
        assert cfg.health is None

    @pytest.mark.parametrize("key, value", [
        (f.name, VERSIONED_SAMPLES.get(f.name, ServeConfig().to_dict()[f.name]))
        for f in dataclasses.fields(ServeConfig)
        if f.metadata.get("since", 1) > 1
    ])
    def test_v4_keys_rejected_in_version_3_file(self, tmp_path, key, value):
        # Every versioned field, read from its ``since`` metadata: a file
        # one version older than the field rejects it, a file at that
        # version accepts it.
        since = ServeConfig.__dataclass_fields__[key].metadata["since"]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"version": since - 1, key: value}))
        with pytest.raises(ConfigurationError, match=f"'{key}' needs version {since}"):
            ServeConfig.from_json(path)
        path.write_text(json.dumps({"version": since, key: value}))
        assert ServeConfig.from_json(path).to_dict()[key] == value

    def test_v5_key_rejected_in_version_4_file(self, tmp_path):
        path = tmp_path / "v4.json"
        path.write_text(
            json.dumps({"version": 4, "health": HealthConfig().to_dict()})
        )
        with pytest.raises(ConfigurationError):
            ServeConfig.from_json(path)

    def test_v4_file_loads_without_health(self, tmp_path):
        path = tmp_path / "v4.json"
        path.write_text(json.dumps({"version": 4, "sharded": True}))
        cfg = ServeConfig.from_json(path)
        assert cfg.sharded is True
        assert cfg.health is None

    def test_fields_validate(self):
        with pytest.raises(ConfigurationError):
            ServeConfig(sync_interval_s=0.0)
        with pytest.raises(ConfigurationError):
            ServeConfig(routing="random")
        with pytest.raises(ConfigurationError):
            ServeConfig(health={"hedging": True})  # not a HealthConfig

    def test_health_requires_sharded(self):
        # Health checks run on the sharded control plane only; a
        # one-shard config carrying them is rejected, not ignored.
        with pytest.raises(ConfigurationError, match="sharded=True"):
            ServeConfig(health=HealthConfig())
        with pytest.raises(ConfigurationError, match="sharded=True"):
            ServeConfig.from_dict({"health": HealthConfig().to_dict()})
        assert ServeConfig(sharded=True, health=HealthConfig()).health == HealthConfig()


class TestDeadlineAwareBatching:
    def two_tenant_serve(self, p99_s):
        return ServeConfig(
            tenants=(
                TenantSpec(
                    "slo", PoissonArrivals(500.0),
                    WorkloadParams(num_vectors=12, vector_size=8, tensor_size=64,
                                   batch=2),
                    slo=SloTargets(p99_s=p99_s),
                ),
            ),
            max_batch_vectors=8,
            # Make round assembly the dominant latency so the deadline
            # cutoff visibly limits round growth.
            schedule_latency_per_pair_s=5e-3,
        )

    def mean_round_size(self, result):
        sizes = [len(r["members"]) for r in result.rounds]
        return sum(sizes) / len(sizes)

    def test_tight_deadlines_cut_rounds_short(self):
        tight = MiccoServer(
            MiccoScheduler(ReuseBounds(0, 4, 0)),
            MiccoConfig(num_devices=4, memory_bytes=64 * MIB),
            self.two_tenant_serve(p99_s=0.05),
        ).run(seed=0)
        loose = MiccoServer(
            MiccoScheduler(ReuseBounds(0, 4, 0)),
            MiccoConfig(num_devices=4, memory_bytes=64 * MIB),
            self.two_tenant_serve(p99_s=60.0),
        ).run(seed=0)
        assert self.mean_round_size(tight) < self.mean_round_size(loose)

    def test_no_deadline_never_constrains_growth(self):
        # Single-stream tickets carry no deadline: batching is bounded
        # only by shape, memory and max_batch_vectors.
        serve = ServeConfig(max_batch_vectors=8, schedule_latency_per_pair_s=5e-3)
        server = MiccoServer(
            MiccoScheduler(ReuseBounds(0, 4, 0)),
            MiccoConfig(num_devices=4, memory_bytes=64 * MIB),
            serve,
        )
        result = server.run(make_vectors(12), [0.0] * 12)
        assert max(len(r["members"]) for r in result.rounds) > 1
