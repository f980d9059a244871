"""Routing policies under stale digests, forwarding, SLO accounting."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.serve import (
    PoissonArrivals,
    ServeConfig,
    ShardedServer,
    SloTargets,
    TenantSpec,
)
from repro.serve.sharded.routing import (
    ROUTING_POLICIES,
    LeastLoaded,
    ResidencyAffinity,
    ShardSnapshot,
    ThresholdLocal,
    make_routing_policy,
    rank_shards,
)
from repro.schedulers.bounds import ReuseBounds
from repro.schedulers.micco import MiccoScheduler
from repro.workloads import WorkloadParams
from tests.conftest import make_vector
from tests.test_serve_sharded import make_vectors, run_sharded, sharded_config


def snap(node, depth=0, inflight=0, linkless=False, residency=None, pending=0):
    return ShardSnapshot(
        node=node, alive=4, queue_depth=depth, inflight=inflight,
        linkless=linkless, residency=residency or {}, pending=pending,
    )


@st.composite
def shard_fleets(draw):
    """1-20 snapshots with shuffled node ids, and maybe a parallel overlap."""
    n = draw(st.integers(1, 20))
    nodes = draw(st.permutations(range(n)))
    small = st.integers(0, 3)
    snapshots = [
        ShardSnapshot(
            node=node, alive=4, queue_depth=draw(small), inflight=draw(small),
            linkless=draw(st.booleans()), suspect=draw(st.booleans()),
            pending=draw(small),
        )
        for node in nodes
    ]
    overlap = draw(st.none() | st.lists(st.integers(0, 3), min_size=n, max_size=n))
    return snapshots, overlap


class TestRankShards:
    @given(shard_fleets())
    @settings(max_examples=400, deadline=None)
    def test_pick_is_the_documented_key_minimum(self, fleet):
        """Narrow the fleet key by key: (suspect, -overlap, linkless, backlog, node)."""
        snapshots, overlap = fleet
        weights = overlap or [0] * len(snapshots)
        left = list(zip(snapshots, weights))
        for key in (
            lambda sw: sw[0].suspect,
            lambda sw: -sw[1],
            lambda sw: sw[0].linkless,
            lambda sw: sw[0].backlog,
            lambda sw: sw[0].node,
        ):
            best = min(map(key, left))
            left = [sw for sw in left if key(sw) == best]
        assert len(left) == 1
        assert rank_shards(snapshots, overlap) == left[0][0].node

    def test_missing_overlap_counts_as_zero(self):
        snapshots = [snap(3, depth=1), snap(1, depth=1), snap(2, depth=0, linkless=True)]
        assert rank_shards(snapshots) == rank_shards(snapshots, [0, 0, 0]) == 1


class TestLeastLoaded:
    def test_picks_smallest_backlog(self):
        chosen = LeastLoaded().choose(
            make_vector(), [snap(0, depth=3), snap(1, depth=1), snap(2, depth=2)]
        )
        assert chosen == 1

    def test_pending_corrects_stale_digests(self):
        # Shard 1's digest says empty, but the router already sent it 5
        # tickets since the sync: the correction outweighs the digest.
        chosen = LeastLoaded().choose(
            make_vector(), [snap(0, depth=2), snap(1, depth=0, pending=5)]
        )
        assert chosen == 0

    def test_ties_break_on_lowest_node(self):
        assert LeastLoaded().choose(make_vector(), [snap(2), snap(0), snap(1)]) == 0

    def test_linkless_loses_ties(self):
        chosen = LeastLoaded().choose(
            make_vector(), [snap(0, linkless=True), snap(1, depth=0)]
        )
        assert chosen == 1

    def test_healthy_beats_linkless_even_when_busier(self):
        chosen = LeastLoaded().choose(
            make_vector(), [snap(0, linkless=True, depth=0), snap(1, depth=9)]
        )
        assert chosen == 1

    def test_all_linkless_falls_back_to_backlog_order(self):
        chosen = LeastLoaded().choose(
            make_vector(),
            [snap(0, linkless=True, depth=3), snap(1, linkless=True, depth=1)],
        )
        assert chosen == 1


class TestResidencyAffinity:
    def test_routes_to_the_shard_holding_the_bytes(self):
        v = make_vector(n_pairs=2)
        uids = {s.uid: s.nbytes for p in v.pairs for s in p.inputs}
        some_uid = next(iter(uids))
        chosen = ResidencyAffinity().choose(
            v, [snap(0), snap(1, residency={some_uid: uids[some_uid]})]
        )
        assert chosen == 1

    def test_stale_residency_is_merely_suboptimal(self):
        # A digest advertising since-evicted tensors still yields a valid
        # (alive) shard choice — staleness can't break correctness.
        v = make_vector(n_pairs=2)
        ghost = {10**9: 1}  # uid the vector never references
        chosen = ResidencyAffinity().choose(v, [snap(0, residency=ghost), snap(1)])
        assert chosen in (0, 1)

    def test_zero_overlap_falls_back_to_least_loaded(self):
        v = make_vector(n_pairs=2)
        chosen = ResidencyAffinity().choose(v, [snap(0, depth=4), snap(1, depth=1)])
        assert chosen == 1

    def test_more_bytes_beats_less(self):
        v = make_vector(n_pairs=2)
        uids = {s.uid: s.nbytes for p in v.pairs for s in p.inputs}
        items = sorted(uids.items())
        small = dict(items[:1])
        chosen = ResidencyAffinity().choose(
            v, [snap(0, residency=small), snap(1, residency=dict(items))]
        )
        assert chosen == 1


class TestThresholdLocal:
    def test_home_shard_hashes_by_vector_id(self):
        snaps = [snap(0), snap(1), snap(2)]
        policy = ThresholdLocal(threshold=4)
        assert policy.choose(make_vector(vector_id=0), snaps) == 0
        assert policy.choose(make_vector(vector_id=1), snaps) == 1
        assert policy.choose(make_vector(vector_id=5), snaps) == 2

    def test_overloaded_home_falls_back_to_least_loaded(self):
        snaps = [snap(0, depth=9), snap(1, depth=1), snap(2, depth=5)]
        assert ThresholdLocal(threshold=4).choose(make_vector(vector_id=0), snaps) == 1

    def test_linkless_home_is_avoided(self):
        snaps = [snap(0, linkless=True), snap(1)]
        assert ThresholdLocal(threshold=4).choose(make_vector(vector_id=0), snaps) == 1

    def test_threshold_validates(self):
        with pytest.raises(ConfigurationError):
            ThresholdLocal(threshold=-1)


class TestRegistry:
    def test_make_routing_policy_covers_the_registry(self):
        for name in ROUTING_POLICIES:
            assert make_routing_policy(name).name == name

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError):
            make_routing_policy("hash-ring")


class TestStaleness:
    def test_very_stale_digests_still_complete_everything(self):
        # One sync per ~minute of simulated time: the router flies blind
        # on its own corrections, yet every ticket lands and completes.
        serve = ServeConfig(sharded=True, sync_interval_s=60.0)
        _, result = run_sharded(serve=serve, n=24)
        s = result.summary()
        assert s["completed"] == s["offered"] == 24
        assert result.sharding["syncs"] <= 2  # initial + at most one more

    def test_stale_routing_is_suboptimal_not_invalid(self):
        # Fine vs coarse sync: tail latency may differ (stale = worse
        # decisions) but both conserve and complete every ticket.
        fine = run_sharded(
            serve=ServeConfig(sharded=True, sync_interval_s=0.001), n=24
        )[1]
        coarse = run_sharded(
            serve=ServeConfig(sharded=True, sync_interval_s=60.0), n=24
        )[1]
        for result in (fine, coarse):
            s = result.summary()
            assert s["completed"] + s["dropped"] == s["offered"]
        assert fine.sharding["syncs"] > coarse.sharding["syncs"]


class TestForwardingSlo:
    def test_full_shards_forward_and_keep_tenant_accounting_exact(self):
        # Tiny per-shard queues force full-queue forwards; per-tenant
        # offered/completed/dropped must still add up exactly.
        tenants = (
            TenantSpec(
                "a", PoissonArrivals(2000.0),
                WorkloadParams(num_vectors=16, vector_size=8, tensor_size=64,
                               batch=2),
                weight=2.0, slo=SloTargets(p99_s=1.0),
            ),
            TenantSpec(
                "b", PoissonArrivals(2000.0),
                WorkloadParams(num_vectors=16, vector_size=8, tensor_size=64,
                               batch=2),
            ),
        )
        serve = ServeConfig(
            sharded=True, tenants=tenants, queue_capacity=2,
            schedule_latency_per_pair_s=2e-3,
        )
        server = ShardedServer(
            MiccoScheduler(ReuseBounds(0, 4, 0)), sharded_config(), serve
        )
        result = server.run(seed=0)
        sh = result.sharding
        assert sh["forwards"] > 0
        for name in ("a", "b"):
            rep = result.tenant_report(name)
            assert len(rep.completed) + len(rep.dropped) == rep.offered == 16
        # Global conservation across forwards and shards.
        s = result.summary()
        assert s["completed"] + s["dropped"] == s["offered"] == 32
        assert sum(x["forwarded_in"] for x in sh["shards"]) <= sh["forwards"]

    def test_forwarded_tickets_keep_arrival_timestamps(self):
        # Forwarding must never reset the latency clock: every completed
        # record's latency spans arrival -> completion.
        serve = ServeConfig(
            sharded=True, queue_capacity=1, schedule_latency_per_pair_s=2e-3
        )
        _, result = run_sharded(
            serve=serve, n=24, arrivals=[i * 1e-4 for i in range(24)]
        )
        for rec in result.report.completed:
            assert rec.latency_s == pytest.approx(rec.complete_s - rec.arrival_s)
