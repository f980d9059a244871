"""Property tests: production placement against the paper-faithful oracle.

``MiccoScheduler.choose`` fuses Alg. 1 (candidate queue) and Alg. 2
(eviction-sensitive pick) into one pass with a scalar arm for narrow
candidate sets and a ``CostModel.score_batch`` arm for wide ones.
``build_candidates`` + ``select`` are the plain per-candidate form of
the same algorithm.  On random cluster states — residency, slots,
compute, free memory, lost devices, shard views — the two must pick the
same device.  The same holds for CostGreedy's batch estimate against its
scalar estimate, and for Groute against a plain lowest-busy scan.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.gpusim.cluster import ClusterState
from repro.gpusim.costmodel import CostModel
from repro.gpusim.device import DeviceSpec
from repro.gpusim.topology import Topology
from repro.schedulers.bounds import ReuseBounds
from repro.schedulers.costgreedy import CostGreedyScheduler
from repro.schedulers.groute import GrouteScheduler
from repro.schedulers.micco import VECTOR_MIN_CANDIDATES, MiccoScheduler
from repro.serve.sharded.node import ShardView
from repro.tensor.spec import TensorPair
from tests.conftest import make_tensor

KIB = 1024


@st.composite
def cluster_states(draw, min_devices=2, max_devices=32, max_slots=6, sizes=(8, 16, 32), max_lost=None):
    """A random cluster mid-vector, plus a pair to place on it.

    Structure (device count, sizes, which devices are lost, whether the
    pair repeats one tensor) is drawn by hypothesis; the per-device
    details come from a numpy generator seeded by a drawn integer.
    Compute and busy times are drawn from a few levels so ties happen.
    """
    n = draw(st.integers(min_devices, max_devices))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    size = draw(st.sampled_from(sizes))  # 8, 16, 32 -> 1, 4, 16 KiB per tensor
    cluster = ClusterState([
        DeviceSpec(
            device_id=g,
            memory_bytes=int(rng.choice([16, 32, 64, 128])) * KIB,
            peak_gflops=float(rng.choice([500.0, 1000.0])),
        )
        for g in range(n)
    ])
    pool = [make_tensor(size=size) for _ in range(int(rng.integers(2, 3 * n + 3)))]
    for _ in range(int(rng.integers(0, 4 * n + 1))):
        cluster.register(pool[int(rng.integers(len(pool)))], int(rng.integers(n)))
    cluster.compute_s[:] = rng.choice([0.0, 1e-3, 2e-3, 5e-3], size=n)
    cluster.memop_s[:] = rng.choice([0.0, 1e-3, 3e-3], size=n)
    max_lost = n // 2 if max_lost is None else max_lost
    lost = draw(st.lists(st.integers(0, n - 1), max_size=max_lost, unique=True))
    for g in lost:
        cluster.fail_device(g)
    cluster.assigned_slots[:] = rng.integers(0, max_slots + 1, size=n)
    cluster.balance_num = float(rng.choice([0.0, 0.5, 1.0, 2.0, 4.0]))

    left = pool[int(rng.integers(len(pool)))] if rng.random() < 0.8 else make_tensor(size=size)
    if draw(st.booleans()):
        right = left
    elif rng.random() < 0.8:
        right = pool[int(rng.integers(len(pool)))]
    else:
        right = make_tensor(size=size)
    return cluster, TensorPair.make(left, right), rng


def bounds_from(rng) -> ReuseBounds:
    return ReuseBounds(*(float(b) for b in rng.integers(0, 4, size=3)))


def shard_of(cluster: ClusterState, rng):
    """A ShardView over a random part of the cluster with a live device."""
    alive = cluster.alive_ids()
    devices = {alive[int(rng.integers(len(alive)))]}
    devices |= {g for g in range(cluster.num_devices) if rng.random() < 0.5}
    return ShardView(cluster, devices)


def oracle_pick(pair, view, bounds, **flags):
    oracle = MiccoScheduler(bounds, **flags)
    candidates = oracle.build_candidates(pair, view)
    return oracle.select(candidates, pair, view), candidates, oracle.pattern_counts


class TestMiccoChooseMatchesOracle:
    @given(cluster_states(), st.booleans(), st.booleans(), st.booleans())
    @settings(max_examples=1000, deadline=None)
    def test_choose_equals_select_of_build_candidates(
        self, state, pattern_aware, eviction_sensitive, sharded
    ):
        cluster, pair, rng = state
        view = shard_of(cluster, rng) if sharded else cluster
        bounds = bounds_from(rng)
        flags = dict(pattern_aware=pattern_aware, eviction_sensitive=eviction_sensitive)
        fused = MiccoScheduler(bounds, **flags)
        expected, candidates, oracle_counts = oracle_pick(pair, view, bounds, **flags)

        assert fused.choose(pair, view) == expected
        assert fused.pattern_counts == oracle_counts
        assert set(candidates) <= set(view.alive_ids())

    @given(
        cluster_states(min_devices=16, max_devices=32, max_slots=0, sizes=(8, 16), max_lost=4),
        st.booleans(), st.booleans(), st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_wide_candidate_sets_take_the_batch_scorer(
        self, state, pattern_aware, eviction_sensitive, spread
    ):
        # No slots assigned yet and a positive balance share, so every
        # surviving device (at least 12) passes each tier's test.  Either
        # both inputs sit on every survivor (tier 0 is wide) or neither
        # is resident anywhere (tier 2 is wide).
        cluster, pair, rng = state
        cluster.balance_num = 2.0
        if spread:
            for g in cluster.alive_ids():
                cluster.register(pair.left, g)
                cluster.register(pair.right, g, protect={pair.left.uid})
        else:
            pair = TensorPair.make(make_tensor(size=pair.left.size), make_tensor(size=pair.left.size))
        bounds = bounds_from(rng)
        flags = dict(pattern_aware=pattern_aware, eviction_sensitive=eviction_sensitive)
        fused = MiccoScheduler(bounds, **flags)
        expected, candidates, _ = oracle_pick(pair, cluster, bounds, **flags)
        assert len(candidates) >= VECTOR_MIN_CANDIDATES

        assert fused.choose(pair, cluster) == expected


class TestBaselinesMatchScalarForms:
    @given(cluster_states(), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_costgreedy_batch_estimate_is_exactly_the_scalar_one(self, state, topo):
        cluster, pair, _ = state
        n = cluster.num_devices
        cost_model = (
            CostModel(topology=Topology(num_devices=n, devices_per_node=2))
            if topo and n % 2 == 0 else CostModel()
        )
        sched = CostGreedyScheduler(cost_model)
        batch = sched.estimate_added_time_batch(pair, cluster)
        scalar = [sched.estimate_added_time(pair, g, cluster) for g in cluster.alive_ids()]
        assert batch.tolist() == scalar

        busy = cluster.busy_s
        totals = [busy[g] + t for g, t in zip(cluster.alive_ids(), scalar)]
        assert sched.choose(pair, cluster) == min(zip(totals, cluster.alive_ids()))[1]

    @given(cluster_states(), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_groute_picks_lowest_id_least_busy_survivor(self, state, sharded):
        cluster, pair, rng = state
        view = shard_of(cluster, rng) if sharded else cluster
        busy = view.busy_s
        expected = min(view.alive_ids(), key=lambda g: (busy[g], g))
        assert GrouteScheduler().choose(pair, view) == expected
