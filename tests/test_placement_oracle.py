"""Property tests: production placement against the paper-faithful oracle.

``MiccoScheduler.choose`` fuses Alg. 1 (candidate queue) and Alg. 2
(eviction-sensitive pick) into one pass with a scalar arm for narrow
candidate sets and a ``CostModel.score_batch`` arm for wide ones.
``build_candidates`` + ``select`` (``tests/micco_oracle.py``) are the
plain per-candidate form of the same algorithm.  On random cluster states — residency, slots,
compute, free memory, lost devices, shard views — the two must pick the
same device.  The same holds for CostGreedy's batch estimate against its
scalar estimate, and for Groute against a plain lowest-busy scan.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import MiccoConfig
from repro.errors import ConfigurationError
from repro.gpusim.cluster import ClusterState
from repro.gpusim.costmodel import CostModel
from repro.gpusim.device import DeviceSpec
from repro.gpusim.topology import Topology
from repro.schedulers.bounds import ReuseBounds
from repro.schedulers.costgreedy import CostGreedyScheduler
from repro.schedulers.groute import GrouteScheduler
from repro.schedulers.micco import VECTOR_MIN_CANDIDATES, MiccoScheduler
from repro.serve import BurstyArrivals, ServeConfig, TenantSpec, make_server
from repro.serve.sharded.node import ShardView
from repro.tensor.spec import TensorPair
from repro.workloads import WorkloadParams
from tests.conftest import make_tensor
from tests.micco_oracle import build_candidates, select

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
    candidates = build_candidates(oracle, pair, view)
    return select(oracle, candidates, pair, view), candidates, oracle.pattern_counts


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
        st.sampled_from(["both", "one", "split", "none"]),
        st.booleans(), st.booleans(), st.booleans(), st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_wide_candidate_sets_take_the_batch_scorer(
        self, state, layout, pattern_aware, eviction_sensitive, sharded, tight
    ):
        # No slots assigned yet and a positive balance share, so every
        # surviving device (at least 12) passes each tier's test.  The
        # layout decides which tier is wide: both inputs on every
        # survivor (tier 0), one input on every survivor and the other
        # nowhere (tier 1), the two inputs on disjoint halves of the
        # survivors (tier 1, incoming bytes differ per candidate), or
        # neither resident anywhere (tier 2).  ``tight`` fills some
        # survivors until the pair's output alone would evict there.
        cluster, pair, rng = state
        cluster.balance_num = 2.0
        size = pair.left.size
        if layout != "both":
            pair = TensorPair.make(make_tensor(size=size), make_tensor(size=size))
        alive = cluster.alive_ids()
        for g in alive:
            if layout in ("both", "one") or (layout == "split" and g % 2 == 0):
                cluster.register(pair.left, g)
            if layout == "both" or (layout == "split" and g % 2 == 1):
                cluster.register(pair.right, g, protect={pair.left.uid})
        if tight:
            inputs = {pair.left.uid, pair.right.uid}
            for g in alive:
                if rng.random() < 0.3:
                    while cluster.free_bytes(g) >= pair.out.nbytes:
                        cluster.register(make_tensor(size=8), g, protect=inputs)
        view = cluster
        if sharded:
            # At least 12 survivors, plus any subset of the rest.
            keep = set(rng.choice(alive, size=VECTOR_MIN_CANDIDATES, replace=False).tolist())
            keep |= {g for g in range(cluster.num_devices) if rng.random() < 0.5}
            view = ShardView(cluster, keep)
        bounds = bounds_from(rng)
        flags = dict(pattern_aware=pattern_aware, eviction_sensitive=eviction_sensitive)
        spy = ScoreBatchSpy()
        fused = MiccoScheduler(bounds, cost_model=spy, **flags)
        expected, candidates, _ = oracle_pick(pair, view, bounds, **flags)
        assert len(candidates) >= VECTOR_MIN_CANDIDATES

        assert fused.choose(pair, view) == expected
        assert spy.widths == [len(candidates)]


class ScoreBatchSpy:
    """A cost model that records the width of every ``score_batch`` call."""

    def __init__(self):
        self.widths: list[int] = []

    def score_batch(self, device_ids, *args, **kwargs):
        self.widths.append(len(device_ids))
        return CostModel().score_batch(device_ids, *args, **kwargs)


@st.composite
def scored_candidates(draw):
    """Parallel candidate lists with forced ties on compute and free bytes."""
    n = draw(st.integers(1, 24))
    ids = draw(st.lists(st.integers(0, 63), min_size=n, max_size=n, unique=True))
    ids = sorted(ids) if draw(st.booleans()) else ids
    compute = draw(st.lists(st.sampled_from([0.0, 1e-3, 2e-3]), min_size=n, max_size=n))
    free = draw(st.lists(st.sampled_from([0, KIB, 2 * KIB]), min_size=n, max_size=n))
    incoming = draw(st.lists(st.sampled_from([0, KIB, 2 * KIB, 4 * KIB]), min_size=n, max_size=n))
    tie = draw(st.sampled_from(["none", "compute", "free", "both"]))
    if tie in ("compute", "both"):
        compute = [compute[0]] * n
    if tie in ("free", "both"):
        free = [free[0]] * n
    return ids, incoming, free, compute


class TestScoreBatch:
    @given(scored_candidates(), st.booleans())
    @settings(max_examples=500, deadline=None)
    def test_plain_lists_pick_the_tuple_key_minimum(self, lists, eviction_sensitive):
        ids, incoming, free, compute = lists
        n = len(ids)
        evict = eviction_sensitive and any(i > f for i, f in zip(incoming, free))
        if evict:
            key = lambda k: (-free[k], compute[k], ids[k])
        else:
            key = lambda k: (compute[k], -free[k], ids[k])
        expected = ids[min(range(n), key=key)]

        got = CostModel().score_batch(
            ids, incoming, free, compute, eviction_sensitive=eviction_sensitive
        )
        assert got == expected

    def test_empty_candidate_set_is_rejected(self):
        with pytest.raises(ConfigurationError, match="at least one candidate"):
            CostModel().score_batch([], [], [], [])


class TestCostModelLayerPin:
    """Only wide clusters reach ``CostModel.score_batch``, and only with
    wide candidate sets (the tier-1 form of the benchmark's call pin)."""

    @staticmethod
    def widths(monkeypatch, num_devices: int) -> list[int]:
        widths: list[int] = []
        score_batch = CostModel.score_batch

        def spy(self, device_ids, *args, **kwargs):
            widths.append(len(device_ids))
            return score_batch(self, device_ids, *args, **kwargs)

        monkeypatch.setattr(CostModel, "score_batch", spy)
        stream = WorkloadParams(num_vectors=30, vector_size=8, tensor_size=64, batch=2)
        arrivals = BurstyArrivals(1000.0, 200.0, mean_on_s=0.2, mean_off_s=0.2)
        config = ServeConfig(
            max_batch_vectors=4,
            schedule_latency_per_pair_s=1e-4,
            tenants=(
                TenantSpec("heavy", arrivals, stream, weight=3.0),
                TenantSpec("light", arrivals, stream, weight=1.0),
            ),
        )
        topo = Topology(num_devices=num_devices, devices_per_node=4)
        cluster = MiccoConfig(
            num_devices=num_devices, memory_bytes=64 * 1024 * KIB,
            cost_model=CostModel(topology=topo),
        )
        result = make_server(config, cluster=cluster).run(seed=11)
        assert result.summary()["completed"] == 60
        return widths

    def test_sixteen_devices_score_only_wide_sets(self, monkeypatch):
        widths = self.widths(monkeypatch, 16)
        assert widths
        assert min(widths) >= VECTOR_MIN_CANDIDATES

    def test_eight_devices_never_reach_the_cost_model(self, monkeypatch):
        assert self.widths(monkeypatch, 8) == []


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
        scalar = [sched.estimate_added_time(pair, g, cluster) for g in cluster.alive_ids()]
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
