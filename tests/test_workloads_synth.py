"""Unit tests for the synthetic workload generator."""

import itertools

import pytest

from repro.errors import WorkloadError
from repro.tensor.spec import next_uid, reserve_uids, reset_uid_counter
from repro.workloads.synth import SyntheticWorkload, WorkloadParams, generate_stream


class TestWorkloadParams:
    def test_defaults_valid(self):
        WorkloadParams()

    def test_odd_vector_size_rejected(self):
        with pytest.raises(WorkloadError):
            WorkloadParams(vector_size=7)

    def test_bad_rate_rejected(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            WorkloadParams(repeated_rate=1.5)

    def test_bad_distribution_rejected(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            WorkloadParams(distribution="zipf")

    def test_with_overrides(self):
        p = WorkloadParams().with_(tensor_size=128)
        assert p.tensor_size == 128
        assert p.vector_size == WorkloadParams().vector_size


class TestGeneration:
    def test_vector_shape(self):
        wl = SyntheticWorkload(WorkloadParams(vector_size=16, num_vectors=3), seed=0)
        vecs = wl.vectors()
        assert len(vecs) == 3
        assert all(len(v.pairs) == 8 for v in vecs)
        assert all(v.num_tensors == 16 for v in vecs)

    def test_first_vector_all_new(self):
        wl = SyntheticWorkload(WorkloadParams(vector_size=8, repeated_rate=1.0), seed=0)
        v = wl.next_vector()
        assert v.meta["measured_repeated_rate"] == 0.0

    def test_measured_rate_close_to_declared(self):
        params = WorkloadParams(vector_size=64, repeated_rate=0.5, num_vectors=6)
        vecs = SyntheticWorkload(params, seed=1).vectors()
        for v in vecs[1:]:
            assert v.meta["measured_repeated_rate"] == pytest.approx(0.5, abs=0.01)

    @pytest.mark.parametrize("distribution", ["uniform", "gaussian"])
    @pytest.mark.parametrize("rate", [0.0, 0.3, 0.5, 0.75, 1.0])
    def test_measured_rate_is_the_recounted_rate(self, rate, distribution):
        """``measured_repeated_rate`` equals the share of slots whose uid
        appeared in an earlier vector, counted from the stream itself."""
        params = WorkloadParams(
            vector_size=14, repeated_rate=rate, distribution=distribution, num_vectors=8
        )
        seen: set[int] = set()
        for v in SyntheticWorkload(params, seed=5).vectors():
            slots = [s.uid for pair in v.pairs for s in pair.inputs]
            recount = sum(1 for uid in slots if uid in seen) / len(slots)
            assert v.meta["measured_repeated_rate"] == recount
            seen.update(slots)

    def test_zero_rate_all_unique(self):
        params = WorkloadParams(vector_size=16, repeated_rate=0.0, num_vectors=4)
        vecs = SyntheticWorkload(params, seed=1).vectors()
        uids = set()
        for v in vecs:
            new = v.unique_input_uids()
            assert not (uids & new)
            uids |= new

    def test_full_rate_reuses_pool_only(self):
        params = WorkloadParams(vector_size=16, repeated_rate=1.0, num_vectors=4)
        wl = SyntheticWorkload(params, seed=1)
        vecs = wl.vectors()
        pool_uids = set(wl.pool)
        assert len(pool_uids) == 16  # only the first vector created tensors
        for v in vecs[1:]:
            assert v.unique_input_uids() <= pool_uids

    def test_deterministic_given_seed(self):
        from repro.tensor.spec import reset_uid_counter

        params = WorkloadParams(vector_size=8, num_vectors=3)
        reset_uid_counter()
        a = [v.unique_input_uids() for v in SyntheticWorkload(params, seed=9).vectors()]
        reset_uid_counter()
        b = [v.unique_input_uids() for v in SyntheticWorkload(params, seed=9).vectors()]
        assert a == b

    def test_meta_fields(self):
        v = SyntheticWorkload(WorkloadParams(), seed=0).next_vector()
        for key in ("declared_repeated_rate", "measured_repeated_rate", "distribution", "tensor_size", "vector_size"):
            assert key in v.meta

    def test_vector_ids_sequential(self):
        vecs = generate_stream(WorkloadParams(num_vectors=4), seed=0)
        assert [v.vector_id for v in vecs] == [0, 1, 2, 3]

    def test_iter_protocol(self):
        wl = SyntheticWorkload(WorkloadParams(num_vectors=5), seed=0)
        assert len(list(wl)) == 5

    def test_tensor_properties_propagate(self):
        params = WorkloadParams(tensor_size=48, batch=4, rank=3)
        v = SyntheticWorkload(params, seed=0).next_vector()
        t = v.pairs[0].left
        assert (t.size, t.batch, t.rank) == (48, 4, 3)


class TestUidBlocks:
    @pytest.mark.parametrize("vector_size", [2, 8, 10])
    @pytest.mark.parametrize("rate", [0.0, 0.3, 0.5, 1.0])
    @pytest.mark.parametrize("num_vectors", [1, 7])
    def test_stream_uids_counts_every_allocation(self, vector_size, rate, num_vectors):
        params = WorkloadParams(
            vector_size=vector_size, repeated_rate=rate, num_vectors=num_vectors, tensor_size=16
        )
        uids = set()
        for v in generate_stream(params, seed=3):
            for p in v.pairs:
                uids.update((p.left.uid, p.right.uid, p.out.uid))
        assert len(uids) == params.stream_uids()

    def test_reserved_block_reproduces_the_global_counter(self):
        params = WorkloadParams(vector_size=8, repeated_rate=0.5, num_vectors=6, tensor_size=16)

        def uids(vectors):
            return [(p.left.uid, p.right.uid, p.out.uid) for v in vectors for p in v.pairs]

        reset_uid_counter()
        eager = uids(generate_stream(params, seed=3))
        reset_uid_counter()
        block = itertools.count(reserve_uids(params.stream_uids()))
        assert next_uid() == params.stream_uids()  # the block is taken off the counter
        assert uids(SyntheticWorkload(params, seed=3, uids=block).vectors()) == eager


def eager_reference(params: WorkloadParams, seed, n: int, uids) -> list:
    """The generator as it was when the pool held every input ``TensorSpec``.

    Same RNG draws in the same order; repeat picks index the list of
    specs.  Used as the oracle for the packed uid pool.
    """
    from repro.tensor.spec import TensorPair, TensorSpec
    from repro.utils.rng import as_generator
    from repro.workloads.distributions import make_picker

    rng = as_generator(seed)
    picker = make_picker(params.distribution, sigma_frac=params.sigma_frac)
    pool: list[TensorSpec] = []
    out = []
    for _ in range(n):
        n_repeat = params.repeat_slots if pool else 0
        slots = []
        if n_repeat:
            slots.extend(pool[i] for i in picker.pick(len(pool), n_repeat, rng))
        for _ in range(params.vector_size - n_repeat):
            t = TensorSpec(
                next(uids), params.tensor_size, params.batch, params.rank,
                params.dtype_bytes, f"t{len(pool)}",
            )
            pool.append(t)
            slots.append(t)
        order = rng.permutation(params.vector_size).tolist()
        slots = [slots[i] for i in order]
        out.append([
            TensorPair.make(slots[2 * i], slots[2 * i + 1], uid=next(uids))
            for i in range(params.vector_size // 2)
        ])
    return out


def spec_fields(t):
    return (t.uid, t.size, t.batch, t.rank, t.dtype_bytes, t.label, t.elements, t.nbytes)


class TestPackedPool:
    @pytest.mark.parametrize("distribution", ["uniform", "gaussian"])
    @pytest.mark.parametrize("on_demand", [True, False])
    def test_matches_the_eager_reference(self, distribution, on_demand):
        params = WorkloadParams(
            vector_size=10, repeated_rate=0.6, distribution=distribution,
            num_vectors=40, tensor_size=24, batch=3, rank=3, dtype_bytes=16,
        )
        wl = SyntheticWorkload(params, seed=5, uids=itertools.count(1000))
        if on_demand:
            vectors = [wl.next_vector() for _ in range(params.num_vectors)]
        else:
            vectors = wl.vectors()
        reference = eager_reference(params, 5, params.num_vectors, itertools.count(1000))
        for vec, ref in zip(vectors, reference, strict=True):
            for p, q in zip(vec.pairs, ref, strict=True):
                assert spec_fields(p.left) == spec_fields(q.left)
                assert spec_fields(p.right) == spec_fields(q.right)
                assert spec_fields(p.out) == spec_fields(q.out)
        assert len(wl.pool) == params.stream_uids() - params.num_vectors * params.vector_size // 2

    @pytest.mark.parametrize("materialise", [lambda wl: wl.vectors(), list])
    def test_materialised_stream_shares_one_object_per_tensor(self, materialise):
        params = WorkloadParams(vector_size=8, repeated_rate=0.75, num_vectors=30, tensor_size=16)
        wl = SyntheticWorkload(params, seed=2)
        wl.next_vector()  # a list built after on-demand draws shares too
        by_uid = {}
        for v in materialise(wl):
            for p in v.pairs:
                for t in p.inputs:
                    assert by_uid.setdefault(t.uid, t) is t

    def test_on_demand_stream_keeps_at_most_16_bytes_per_fresh_input(self):
        import gc
        import tracemalloc

        params = WorkloadParams(
            vector_size=8, repeated_rate=0.5, num_vectors=10**6, tensor_size=16, batch=2
        )
        wl = SyntheticWorkload(params, seed=4)
        for _ in range(50):
            wl.next_vector()
        gc.collect()
        tracemalloc.start()
        try:
            before, fresh = tracemalloc.get_traced_memory()[0], len(wl.pool)
            for _ in range(5000):
                wl.next_vector()
            gc.collect()
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert kept / (len(wl.pool) - fresh) <= 16
