"""Property-based tests (hypothesis) on core invariants."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.gpusim.costmodel import CostModel
from repro.gpusim.engine import ExecutionEngine
from repro.gpusim.memory import MemoryPool
from repro.ml.metrics import _rank, r2_score, spearmanr
from repro.schedulers.bounds import ReuseBounds
from repro.schedulers.groute import GrouteScheduler
from repro.schedulers.micco import MiccoScheduler
from repro.schedulers.roundrobin import RoundRobinScheduler
from repro.core.session import run_stream
from repro.tensor.spec import TensorPair, TensorSpec, VectorSpec, next_uid
from repro.workloads.synth import SyntheticWorkload, WorkloadParams
from tests.conftest import make_cluster

# ---------------------------------------------------------------- strategies

tensor_sizes = st.integers(min_value=2, max_value=64)


@st.composite
def alloc_sequences(draw):
    """A sequence of (uid, nbytes) allocations within one pool's scale."""
    n = draw(st.integers(min_value=1, max_value=30))
    return [
        (draw(st.integers(0, 10)), draw(st.integers(min_value=1, max_value=40)))
        for _ in range(n)
    ]


@st.composite
def vector_streams(draw):
    """A small synthetic stream with drawn characteristics."""
    params = WorkloadParams(
        vector_size=draw(st.sampled_from([4, 8, 12])),
        tensor_size=draw(st.sampled_from([8, 16])),
        repeated_rate=draw(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0])),
        distribution=draw(st.sampled_from(["uniform", "gaussian"])),
        num_vectors=draw(st.integers(1, 4)),
        batch=2,
    )
    return SyntheticWorkload(params, seed=draw(st.integers(0, 10_000))).vectors()


# ----------------------------------------------------------------- MemoryPool


class TestMemoryPoolProperties:
    @given(alloc_sequences())
    @settings(max_examples=60, deadline=None)
    def test_used_bytes_never_exceed_capacity(self, seq):
        pool = MemoryPool(100)
        for uid, nbytes in seq:
            pool.allocate(uid, nbytes)
            assert 0 <= pool.used_bytes <= pool.capacity_bytes
            assert pool.used_bytes == sum(pool.nbytes_of(u) for u in pool.resident_uids())

    @given(alloc_sequences())
    @settings(max_examples=60, deadline=None)
    def test_resident_set_consistent(self, seq):
        pool = MemoryPool(100)
        for uid, nbytes in seq:
            pool.allocate(uid, nbytes)
        for uid in pool.resident_uids():
            assert uid in pool


# ------------------------------------------------------------------ scheduler


SCHEDULERS = [
    lambda: MiccoScheduler(ReuseBounds(0, 0, 0)),
    lambda: MiccoScheduler(ReuseBounds(2, 2, 2)),
    lambda: GrouteScheduler(),
    lambda: RoundRobinScheduler(),
]


class TestSchedulerProperties:
    @given(vector_streams(), st.integers(0, 3), st.integers(1, 4))
    @settings(max_examples=40, deadline=None)
    def test_counter_conservation(self, vectors, sched_idx, num_devices):
        """Across any schedule: input slots = hits + h2d + d2d, and every
        pair executes exactly once on a valid device."""
        cluster = make_cluster(num_devices=num_devices)
        engine = ExecutionEngine(cluster, CostModel())
        result = run_stream(vectors, SCHEDULERS[sched_idx](), cluster, engine)
        total_pairs = sum(len(v.pairs) for v in vectors)
        total_slots = sum(v.num_tensors for v in vectors)
        c = result.metrics.counts
        assert result.metrics.pairs_executed == total_pairs
        assert c.reuse_hits + c.h2d_transfers + c.d2d_transfers == total_slots
        assert sum(result.metrics.pairs_per_device) == total_pairs

    @given(vector_streams(), st.integers(0, 3))
    @settings(max_examples=30, deadline=None)
    def test_makespan_bounds_total_work(self, vectors, sched_idx):
        """makespan <= total busy time <= num_devices * makespan."""
        cluster = make_cluster(num_devices=2)
        engine = ExecutionEngine(cluster, CostModel())
        result = run_stream(vectors, SCHEDULERS[sched_idx](), cluster, engine)
        total = float(result.metrics.device_time_s.sum())
        span = result.metrics.makespan_s
        assert span <= total + 1e-12
        assert total <= 2 * span + 1e-12

    @given(vector_streams())
    @settings(max_examples=30, deadline=None)
    def test_micco_naive_respects_balance(self, vectors):
        """With zero bounds, no device exceeds the balanced share
        (ceil to pair granularity) in any vector."""
        cluster = make_cluster(num_devices=2)
        engine = ExecutionEngine(cluster, CostModel())
        result = run_stream(vectors, MiccoScheduler(ReuseBounds.zeros()), cluster, engine)
        for rec, vector in zip(result.per_vector, vectors):
            balance = vector.num_tensors / 2
            counts = np.bincount(rec["assignment"], minlength=2) * 2
            assert counts.max() <= balance + 2  # last pair may straddle


# -------------------------------------------------------------------- metrics


class TestMetricProperties:
    @given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=50))
    @settings(max_examples=100)
    def test_rank_is_permutation_sum(self, xs):
        ranks = _rank(np.asarray(xs))
        assert ranks.sum() == np.arange(1, len(xs) + 1).sum()

    @given(st.lists(st.floats(-1e3, 1e3), min_size=3, max_size=40, unique=True))
    @settings(max_examples=60)
    def test_spearman_symmetric_and_bounded(self, xs):
        rng = np.random.default_rng(0)
        ys = rng.permutation(np.asarray(xs))
        a = spearmanr(xs, ys)
        b = spearmanr(ys, xs)
        assert a == b
        assert -1.0 - 1e-9 <= a <= 1.0 + 1e-9

    @given(st.lists(st.floats(-1e3, 1e3), min_size=3, max_size=40))
    @settings(max_examples=60)
    def test_spearman_self_correlation(self, xs):
        arr = np.asarray(xs)
        if len(set(xs)) == 1:  # constant sample (std() underflows on subnormals)
            assert spearmanr(arr, arr) == 0.0
        else:
            assert abs(spearmanr(arr, arr) - 1.0) < 1e-9

    @given(st.lists(st.floats(-100, 100), min_size=2, max_size=40))
    @settings(max_examples=60)
    def test_r2_of_exact_prediction_is_one(self, ys):
        assert r2_score(ys, ys) == 1.0


# ------------------------------------------------------------------- tensors


class TestTensorProperties:
    @given(tensor_sizes, st.integers(1, 8), st.sampled_from([2, 3]))
    @settings(max_examples=60)
    def test_nbytes_consistent_with_shape(self, size, batch, rank):
        t = TensorSpec(uid=next_uid(), size=size, batch=batch, rank=rank)
        assert t.nbytes == int(np.prod(t.shape)) * t.dtype_bytes

    @given(st.integers(1, 6), tensor_sizes)
    @settings(max_examples=40)
    def test_vector_demand_nonnegative_monotone(self, n_pairs, size):
        pairs = [
            TensorPair.make(
                TensorSpec(uid=next_uid(), size=size, batch=2),
                TensorSpec(uid=next_uid(), size=size, batch=2),
            )
            for _ in range(n_pairs)
        ]
        v = VectorSpec(pairs=pairs)
        assert v.input_bytes_unique() == 2 * n_pairs * pairs[0].left.nbytes
        assert v.output_bytes() > 0
