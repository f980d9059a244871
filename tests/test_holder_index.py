"""The holder index (``ClusterState._holders``) is one device bitmask per uid.

A hypothesis oracle drives a 16-device, 4x4 cluster (so devices >= 8
carry high bits) through registers with evictions, drops, engine pairs
that copy inputs without migrating them (multi-holder masks), drains,
pre-warms, every device lifecycle move and clones.  After each step the
mask index must equal a set index rebuilt from the pools.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import FaultEvent, FaultInjector, FaultKind, FaultPlan
from repro.gpusim.cluster import EDGES, mask_ids
from repro.gpusim.costmodel import CostModel
from repro.gpusim.engine import ExecutionEngine
from repro.gpusim.metrics import ExecutionMetrics
from repro.gpusim.topology import Topology
from repro.schedulers.micco import MiccoScheduler
from repro.serve.sharded.node import ShardView
from repro.tensor.spec import TensorPair, VectorSpec
from tests.conftest import make_cluster, make_tensor
from tests.micco_oracle import build_candidates, select

N = 16
TOPOLOGY = Topology(num_devices=N, devices_per_node=4)
#: Room for a handful of tensors per device, so registers evict.
DEVICE_BYTES = 36 * 1024


def set_index(cluster) -> dict[int, set[int]]:
    """The holder index rebuilt from the pools, as sets."""
    index: dict[int, set[int]] = {}
    for dev, pool in enumerate(cluster.pools):
        for uid in pool._resident:
            index.setdefault(uid, set()).add(dev)
    return index


def assert_index_matches_pools(cluster, uids) -> None:
    cluster.check_invariants()
    expected = set_index(cluster)
    assert {uid: set(mask_ids(m)) for uid, m in cluster._holders.items()} == expected
    for uid in uids:
        assert cluster.devices_holding(uid) == frozenset(expected.get(uid, ()))
    for mask in cluster._holders.values():
        if mask & (mask - 1) == 0:
            # A single holder stores the device's shared bit object.
            assert mask is cluster._bits[mask.bit_length() - 1]


DEVICE = st.integers(0, N - 1)
TENSOR = st.integers(0, 11)
STEP = st.one_of(
    st.tuples(st.just("register"), TENSOR, DEVICE),
    st.tuples(st.just("drop"), TENSOR, DEVICE),
    st.tuples(st.just("pair"), TENSOR, TENSOR, DEVICE),
    st.tuples(st.just("drain"), DEVICE),
    st.tuples(st.just("prewarm"), TENSOR, DEVICE),
    # One lifecycle edge of the device: the k-th legal one, if any.
    st.tuples(st.just("move"), DEVICE, st.integers(0, 4)),
    st.tuples(st.just("clone")),
)


class TestMaskIndexOracle:
    @settings(max_examples=150, deadline=None)
    @given(steps=st.lists(STEP, min_size=1, max_size=40))
    def test_mask_index_equals_pool_sets(self, steps):
        cluster = make_cluster(num_devices=N, memory_bytes=DEVICE_BYTES)
        # Mesons (1 KiB) and baryons (8 KiB), so evictions free uneven room.
        inputs = [make_tensor(size=8, rank=2 + i % 2) for i in range(12)]
        uids = [t.uid for t in inputs]
        # Non-migrating D2D copies leave the source's copy in place.
        cost_model = CostModel(topology=TOPOLOGY, d2d_moves=False)
        outputs: list[tuple[TensorPair, int]] = []
        for step in steps:
            kind = step[0]
            if kind == "register":
                _, t, dev = step
                if cluster.is_alive(dev):
                    cluster.register(inputs[t], dev)
            elif kind == "drop":
                _, t, dev = step
                cluster.drop(inputs[t].uid, dev)
            elif kind == "pair":
                _, lt, rt, dev = step
                if cluster.is_alive(dev):
                    pair = TensorPair.make(inputs[lt], inputs[rt])
                    uids.append(pair.out.uid)
                    engine = ExecutionEngine(cluster, cost_model)
                    engine.execute_pair(pair, dev, ExecutionMetrics(num_devices=N))
                    outputs.append((pair, dev))
            elif kind == "drain":
                _, dev = step
                mine = [(p, d) for p, d in outputs if d == dev]
                if mine:
                    vector = VectorSpec(pairs=[p for p, _ in mine])
                    ExecutionEngine(cluster, cost_model).drain_outputs(
                        vector, [dev] * len(mine), ExecutionMetrics(num_devices=N)
                    )
                    outputs = [(p, d) for p, d in outputs if d != dev]
            elif kind == "prewarm":
                _, t, dev = step
                cluster.prewarm(inputs[t].uid, inputs[t].nbytes, dev)
            elif kind == "move":
                _, dev, k = step
                edges = sorted(EDGES[cluster.state(dev)])
                if edges:
                    cluster.transition(dev, edges[k % len(edges)])
            else:
                clone = cluster.clone()
                assert clone._holders == cluster._holders
                assert clone._holders is not cluster._holders
                cluster = clone
            assert_index_matches_pools(cluster, uids)
            # A shard view over the last node (devices 12-15) scopes
            # holder masks by its ``_device_mask`` the way its
            # ``devices_holding`` scopes sets.
            view = ShardView(cluster, TOPOLOGY.devices_of_node(3))
            for uid in uids[:12]:
                assert view.devices_holding(uid) == cluster.devices_holding(uid) & {12, 13, 14, 15}
            if view.alive_ids():
                view.begin_vector(8)
                sched = MiccoScheduler()
                pair = TensorPair.make(inputs[0], inputs[1])
                assert sched.choose(pair, view) == select(
                    sched, build_candidates(sched, pair, view), pair, view
                )

    def test_high_device_bits(self):
        cluster = make_cluster(num_devices=N)
        t = make_tensor()
        cluster.register(t, 15)
        assert cluster._holders[t.uid] is cluster._bits[15]
        cluster.register(t, 9)
        assert cluster._holders[t.uid] == (1 << 15) | (1 << 9)
        assert cluster.devices_holding(t.uid) == {9, 15}
        cluster.drop(t.uid, 15)
        # One holder left: the entry is the shared bit again.
        assert cluster._holders[t.uid] is cluster._bits[9]
        assert cluster.is_resident(t.uid, 9) and not cluster.is_resident(t.uid, 15)
        cluster.fail_device(9)
        assert t.uid not in cluster._holders


def old_reachable(holders, dst, linkless) -> frozenset[int]:
    """The set rule masks replaced: same node, or neither end link-lost."""
    return frozenset(
        h
        for h in holders
        if TOPOLOGY.same_node(h, dst) or (h not in linkless and dst not in linkless)
    )


class TestLinkLostMasks:
    @settings(max_examples=300, deadline=None)
    @given(
        holders=st.integers(1, (1 << N) - 1),
        dst=DEVICE,
        cut=st.sets(st.integers(0, TOPOLOGY.num_nodes - 1)),
    )
    def test_reachable_holders_match_the_set_rule(self, holders, dst, cut):
        cluster = make_cluster(num_devices=N)
        injector = FaultInjector(FaultPlan(()))
        for node in sorted(cut):
            event = FaultEvent(FaultKind.LINK_LOST, 0.0, 4 * node)
            injector.apply(event, cluster, topology=TOPOLOGY)
        linkless = injector.linkless_devices
        assert linkless == {d for node in cut for d in TOPOLOGY.devices_of_node(node)}
        expected = old_reachable(mask_ids(holders), dst, linkless)
        reachable = injector.reachable_holders(holders, dst, TOPOLOGY)
        assert frozenset(mask_ids(reachable)) == expected
        # The host-staged decision: no reachable holder.
        assert (reachable == 0) == (not expected)

    @settings(max_examples=100, deadline=None)
    @given(holders=st.sets(DEVICE, min_size=1), dst=DEVICE, cut=st.integers(0, 3))
    def test_engine_stages_through_the_host_by_the_set_rule(self, holders, dst, cut):
        holders.discard(dst)
        cluster = make_cluster(num_devices=N)
        t = make_tensor()
        for dev in holders:
            cluster.register(t, dev)
        injector = FaultInjector(FaultPlan(()))
        injector.apply(FaultEvent(FaultKind.LINK_LOST, 0.0, 4 * cut), cluster, topology=TOPOLOGY)
        engine = ExecutionEngine(cluster, CostModel(topology=TOPOLOGY, d2d_moves=False))
        engine.injector = injector
        metrics = ExecutionMetrics(num_devices=N)
        engine.execute_pair(TensorPair.make(t, t), dst, metrics)
        reachable = old_reachable(holders, dst, injector.linkless_devices)
        assert injector.stats.host_staged_fetches == (1 if holders and not reachable else 0)
        assert metrics.counts.d2d_transfers == (1 if reachable else 0)
        if reachable:
            # The cheapest reachable source, ties to the lowest id.
            source = min(reachable, key=lambda h: (not TOPOLOGY.same_node(h, dst), h))
            assert metrics.counts.cross_node_fetches == (0 if TOPOLOGY.same_node(source, dst) else 1)
