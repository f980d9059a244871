"""Unit tests for the MICCO heuristic (Alg. 1 + Alg. 2)."""

import pytest

from repro.errors import SchedulingError
from repro.gpusim.costmodel import CostModel
from repro.gpusim.engine import ExecutionEngine
from repro.gpusim.metrics import ExecutionMetrics
from repro.schedulers.bounds import ReuseBounds
from repro.schedulers.micco import MiccoScheduler
from repro.schedulers.reuse_patterns import ReusePattern
from repro.tensor.spec import TensorPair, VectorSpec
from tests.conftest import MIB, make_cluster, make_pair, make_tensor, make_vector
from tests.micco_oracle import build_candidates, incoming_bytes, select, would_evict


class TestIncomingBytes:
    def test_counts_non_resident_inputs_and_output(self):
        cl = make_cluster()
        p = make_pair()
        assert incoming_bytes(p, 0, cl) == p.left.nbytes + p.right.nbytes + p.out.nbytes

    def test_resident_inputs_excluded(self):
        cl = make_cluster()
        p = make_pair()
        cl.register(p.left, 0)
        assert incoming_bytes(p, 0, cl) == p.right.nbytes + p.out.nbytes

    def test_duplicate_input_counted_once(self):
        cl = make_cluster()
        t = make_tensor()
        p = TensorPair.make(t, t)
        assert incoming_bytes(p, 0, cl) == t.nbytes + p.out.nbytes

    def test_would_evict_tracks_free_bytes(self):
        p = make_pair(size=64, batch=8)
        tight = make_cluster(memory_bytes=2 * p.left.nbytes)
        roomy = make_cluster(memory_bytes=64 * MIB)
        assert would_evict(p, 0, tight)
        assert not would_evict(p, 0, roomy)


class TestCandidateQueue:
    """Alg. 1 steps I-III over explicit residency layouts."""

    def setup_method(self):
        self.cl = make_cluster(num_devices=4)
        self.cl.begin_vector(16)  # balance 4 slots/device

    def test_two_repeated_same_yields_holder(self):
        sched = MiccoScheduler()
        p = make_pair()
        self.cl.register(p.left, 2)
        self.cl.register(p.right, 2)
        assert build_candidates(sched, p, self.cl) == [2]

    def test_two_repeated_diff_yields_both_holders(self):
        sched = MiccoScheduler()
        p = make_pair()
        self.cl.register(p.left, 1)
        self.cl.register(p.right, 3)
        assert build_candidates(sched, p, self.cl) == [1, 3]

    def test_one_repeated_yields_holder(self):
        sched = MiccoScheduler()
        p = make_pair()
        self.cl.register(p.right, 0)
        assert build_candidates(sched, p, self.cl) == [0]

    def test_two_new_yields_all_available(self):
        sched = MiccoScheduler()
        assert build_candidates(sched, make_pair(), self.cl) == [0, 1, 2, 3]

    def test_unavailable_holder_falls_through_to_tier1(self):
        """A twoRepeatedSame holder over the tier-0 bound is skipped;
        tier 1 then still considers holders of one tensor."""
        sched = MiccoScheduler(ReuseBounds(0, 8, 8))
        p = make_pair()
        self.cl.register(p.left, 2)
        self.cl.register(p.right, 2)
        self.cl.assigned_slots[2] = 4  # at balance -> tier-0 unavailable
        candi = build_candidates(sched, p, self.cl)
        assert candi == [2]  # tier-1 bound (8) readmits the holder

    def test_full_fallback_when_all_over(self):
        sched = MiccoScheduler()
        self.cl.assigned_slots[:] = [100] * self.cl.num_devices
        assert build_candidates(sched, make_pair(), self.cl) == [0, 1, 2, 3]

    def test_shard_view_scopes_holders_to_the_shard(self):
        """Holders outside a ShardView never become candidates."""
        from repro.serve.sharded.node import ShardView

        view = ShardView(self.cl, [0, 1])
        view.begin_vector(8)
        p = make_pair()
        self.cl.register(p.left, 3)
        self.cl.register(p.right, 3)
        self.cl.register(p.left, 1)
        sched = MiccoScheduler()
        assert build_candidates(sched, p, view) == [1]
        assert sched.pattern_counts[ReusePattern.ONE_REPEATED] == 1
        assert MiccoScheduler().choose(p, view) == 1

    def test_pattern_counts_updated(self):
        sched = MiccoScheduler()
        p = make_pair()
        self.cl.register(p.left, 0)
        build_candidates(sched, p, self.cl)
        assert sched.pattern_counts[ReusePattern.ONE_REPEATED] == 1
        sched.reset_stats()
        assert sched.pattern_counts[ReusePattern.ONE_REPEATED] == 0


class TestSelect:
    def test_least_compute_wins_without_pressure(self):
        cl = make_cluster(num_devices=3)
        cl.begin_vector(8)
        cl.compute_s[:] = [3.0, 1.0, 2.0]
        sched = MiccoScheduler()
        assert select(sched, [0, 1, 2], make_pair(), cl) == 1

    def test_most_free_memory_wins_under_pressure(self):
        p = make_pair(size=64, batch=8)
        cl = make_cluster(num_devices=2, memory_bytes=4 * p.left.nbytes)
        cl.begin_vector(4)
        # Fill device 0 so placing the pair there would evict.
        cl.register(make_tensor(size=64, batch=8), 0)
        cl.register(make_tensor(size=64, batch=8), 0)
        cl.compute_s[:] = [0.0, 10.0]  # device 0 has less compute...
        sched = MiccoScheduler()
        # ...but the eviction-sensitive policy picks the roomier device 1.
        assert select(sched, [0, 1], p, cl) == 1

    def test_empty_queue_raises(self):
        cl = make_cluster()
        with pytest.raises(SchedulingError):
            select(MiccoScheduler(), [], make_pair(), cl)

    def test_deterministic_tie_break_lowest_id(self):
        cl = make_cluster(num_devices=3)
        cl.begin_vector(8)
        sched = MiccoScheduler()
        assert select(sched, [2, 0, 1], make_pair(), cl) == 0


class TestEndToEnd:
    def test_reuses_resident_pair_location(self):
        """Repeating the same pair twice lands on the same device."""
        cl = make_cluster()
        engine = ExecutionEngine(cl, CostModel())
        sched = MiccoScheduler(ReuseBounds(4, 4, 4))
        t1, t2 = make_tensor(), make_tensor()
        v = VectorSpec(pairs=[TensorPair.make(t1, t2), TensorPair.make(t1, t2)])
        cl.begin_vector(v.num_tensors)
        m = ExecutionMetrics(num_devices=cl.num_devices)
        devices = []
        for p in v.pairs:
            g = sched.choose(p, cl)
            engine.execute_pair(p, g, m)
            devices.append(g)
        assert devices[0] == devices[1]
        assert m.counts.reuse_hits >= 2

    def test_naive_bounds_spread_work(self):
        """With bounds 0, a vector's pairs cannot pile on one device."""
        cl = make_cluster(num_devices=2)
        engine = ExecutionEngine(cl, CostModel())
        sched = MiccoScheduler(ReuseBounds.zeros())
        v = make_vector(n_pairs=4)
        cl.begin_vector(v.num_tensors)  # balance: 4 slots/device
        m = ExecutionMetrics(num_devices=2)
        for p in v.pairs:
            engine.execute_pair(p, sched.choose(p, cl), m)
        assert list(m.pairs_per_device) == [2, 2]

    def test_set_bounds_changes_behaviour(self):
        sched = MiccoScheduler()
        assert sched.bounds.as_tuple() == (0.0, 0.0, 0.0)
        sched.set_bounds(ReuseBounds(2, 2, 2))
        assert sched.bounds.as_tuple() == (2.0, 2.0, 2.0)
