"""Unit tests for the ExecutionEngine: counters, residency, costs."""

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SchedulingError
from repro.faults import FaultPlan
from repro.faults.injector import FaultInjector
from repro.gpusim.costmodel import CostModel
from repro.gpusim.engine import ExecutionEngine
from repro.gpusim.metrics import ExecutionMetrics
from repro.gpusim.topology import Topology
from repro.gpusim.trace import FullSink, TraceRecorder
from repro.integrity import IntegrityConfig, IntegrityState
from repro.tensor.flops import pair_flops
from repro.tensor.spec import TensorPair, VectorSpec
from repro.tensor.storage import TensorStore
from tests.conftest import make_cluster, make_pair, make_tensor, make_vector


def fresh(num_devices=2, memory_mib=64, **cm_kwargs):
    cluster = make_cluster(num_devices=num_devices, memory_bytes=memory_mib * 1024**2)
    engine = ExecutionEngine(cluster, CostModel(**cm_kwargs))
    return cluster, engine


class TestSinglePair:
    def test_new_pair_two_h2d_three_allocs(self):
        cluster, engine = fresh()
        m = ExecutionMetrics(num_devices=2)
        cluster.begin_vector(2)
        engine.execute_pair(make_pair(), 0, m)
        assert m.counts.h2d_transfers == 2
        assert m.counts.d2d_transfers == 0
        assert m.counts.allocations == 3  # two inputs + output
        assert m.counts.reuse_hits == 0

    def test_resident_input_is_reuse_hit(self):
        cluster, engine = fresh()
        m = ExecutionMetrics(num_devices=2)
        p = make_pair()
        cluster.register(p.left, 0)
        cluster.begin_vector(2)
        engine.execute_pair(p, 0, m)
        assert m.counts.reuse_hits == 1
        assert m.counts.h2d_transfers == 1

    def test_remote_input_is_d2d(self):
        cluster, engine = fresh()
        m = ExecutionMetrics(num_devices=2)
        p = make_pair()
        cluster.register(p.left, 1)
        cluster.begin_vector(2)
        engine.execute_pair(p, 0, m)
        assert m.counts.d2d_transfers == 1
        assert m.counts.h2d_transfers == 1

    def test_d2d_moves_source_copy(self):
        cluster, engine = fresh()  # default cost model: d2d_moves=True
        m = ExecutionMetrics(num_devices=2)
        p = make_pair()
        cluster.register(p.left, 1)
        cluster.begin_vector(2)
        engine.execute_pair(p, 0, m)
        assert cluster.devices_holding(p.left.uid) == {0}

    def test_d2d_copy_semantics_keeps_source(self):
        cluster, engine = fresh(d2d_moves=False)
        m = ExecutionMetrics(num_devices=2)
        p = make_pair()
        cluster.register(p.left, 1)
        cluster.begin_vector(2)
        engine.execute_pair(p, 0, m)
        assert cluster.devices_holding(p.left.uid) == {0, 1}

    def test_duplicate_input_fetched_once(self):
        cluster, engine = fresh()
        m = ExecutionMetrics(num_devices=2)
        t = make_tensor()
        p = TensorPair.make(t, t)
        cluster.begin_vector(2)
        engine.execute_pair(p, 0, m)
        assert m.counts.h2d_transfers == 1
        assert m.counts.reuse_hits == 1

    def test_output_registered_on_device(self):
        cluster, engine = fresh()
        m = ExecutionMetrics(num_devices=2)
        p = make_pair()
        cluster.begin_vector(2)
        engine.execute_pair(p, 1, m)
        assert cluster.is_resident(p.out.uid, 1)

    def test_flops_and_compute_time(self):
        cluster, engine = fresh()
        m = ExecutionMetrics(num_devices=2)
        p = make_pair()
        cluster.begin_vector(2)
        engine.execute_pair(p, 0, m)
        assert m.total_flops == pair_flops(p)
        assert m.compute_s[0] > 0
        assert m.compute_s[1] == 0

    def test_invalid_device_raises(self):
        cluster, engine = fresh()
        with pytest.raises(SchedulingError):
            engine.execute_pair(make_pair(), 5, ExecutionMetrics(num_devices=2))

    def test_slot_accounting(self):
        cluster, engine = fresh()
        m = ExecutionMetrics(num_devices=2)
        cluster.begin_vector(4)
        engine.execute_pair(make_pair(), 0, m)
        engine.execute_pair(make_pair(), 0, m)
        assert cluster.assigned_slots[0] == 4


class TestEvictions:
    def test_oversubscription_triggers_eviction(self):
        t = make_tensor(size=64, batch=8)
        cluster, engine = fresh(memory_mib=int(3.2 * t.nbytes / 1024**2) or 1)
        # Capacity ~3 tensors; a pair needs 3 (two inputs + output).
        m = ExecutionMetrics(num_devices=2)
        cluster.begin_vector(4)
        p1 = make_pair(size=64, batch=8)
        p2 = make_pair(size=64, batch=8)
        engine.execute_pair(p1, 0, m)
        engine.execute_pair(p2, 0, m)
        assert m.counts.evictions > 0
        assert m.counts.eviction_bytes > 0

    def test_current_pair_tensors_protected(self):
        t = make_tensor(size=64, batch=8)
        cluster, engine = fresh(memory_mib=max(1, int(3.2 * t.nbytes / 1024**2)))
        m = ExecutionMetrics(num_devices=2)
        cluster.begin_vector(2)
        p = make_pair(size=64, batch=8)
        engine.execute_pair(p, 0, m)
        # All three tensors of the pair survived its own execution.
        assert cluster.is_resident(p.left.uid, 0)
        assert cluster.is_resident(p.right.uid, 0)
        assert cluster.is_resident(p.out.uid, 0)


class TestVectorExecution:
    def test_counter_invariant(self):
        """Every input slot is exactly one of: reuse hit, h2d, d2d."""
        cluster, engine = fresh()
        v = make_vector(n_pairs=6)
        m = engine.execute_vector(v, [0, 1, 0, 1, 0, 1])
        c = m.counts
        assert c.reuse_hits + c.h2d_transfers + c.d2d_transfers == v.num_tensors

    def test_assignment_length_checked(self):
        cluster, engine = fresh()
        with pytest.raises(SchedulingError):
            engine.execute_vector(make_vector(n_pairs=3), [0, 1])

    def test_outputs_drained_by_default(self):
        cluster, engine = fresh()
        v = make_vector(n_pairs=2)
        engine.execute_vector(v, [0, 0])
        for p in v.pairs:
            assert cluster.devices_holding(p.out.uid) == frozenset()

    def test_keep_outputs(self):
        cluster, engine = fresh()
        v = make_vector(n_pairs=2)
        engine.execute_vector(v, [0, 1], keep_outputs=True)
        assert cluster.is_resident(v.pairs[0].out.uid, 0)
        assert cluster.is_resident(v.pairs[1].out.uid, 1)

    def test_pairs_per_device(self):
        cluster, engine = fresh()
        v = make_vector(n_pairs=4)
        m = engine.execute_vector(v, [0, 0, 0, 1])
        assert list(m.pairs_per_device) == [3, 1]

    def test_reuse_across_vectors(self):
        """A tensor left resident by vector 1 is a reuse hit in vector 2."""
        cluster, engine = fresh()
        t1, t2 = make_tensor(), make_tensor()
        v1 = VectorSpec(pairs=[TensorPair.make(t1, t2)], vector_id=0)
        v2 = VectorSpec(pairs=[TensorPair.make(t1, make_tensor())], vector_id=1)
        engine.execute_vector(v1, [0])
        m = engine.execute_vector(v2, [0])
        assert m.counts.reuse_hits == 1

    def test_numeric_validation_via_store(self):
        store = TensorStore(seed=0)
        cluster = make_cluster()
        engine = ExecutionEngine(cluster, CostModel(), store=store)
        v = make_vector(n_pairs=2, size=6)
        engine.execute_vector(v, [0, 1])
        for p in v.pairs:
            assert p.out.uid in store

    def test_makespan_is_max_device_time(self):
        cluster, engine = fresh()
        v = make_vector(n_pairs=4)
        m = engine.execute_vector(v, [0, 0, 0, 0])
        assert m.makespan_s == pytest.approx(float(m.device_time_s[0]))
        assert m.device_time_s[1] == 0


class TestD2DSourceSelection:
    def test_cheapest_holder_wins_on_topology(self):
        """With a multi-node topology the intra-node holder is the source."""
        from repro.gpusim.topology import Topology

        cluster, engine = fresh(num_devices=4, topology=Topology(num_devices=4, devices_per_node=2))
        shared = make_tensor()
        cluster.register(shared, 0)  # node 0 (remote to target)
        cluster.register(shared, 3)  # node 1 (local to target)
        p = make_pair(left=shared, right=make_tensor())
        m = ExecutionMetrics(num_devices=4)
        cluster.begin_vector(2)
        engine.execute_pair(p, 2, m)
        assert m.counts.d2d_transfers == 1
        # Single-residency runtime: the chosen source (device 3) moved;
        # the remote copy on device 0 is untouched.
        assert cluster.devices_holding(shared.uid) == frozenset({0, 2})

    def test_lowest_id_breaks_cost_ties(self):
        """Without a topology all holders cost the same: lowest id wins."""
        cluster, engine = fresh(num_devices=4)
        shared = make_tensor()
        cluster.register(shared, 3)
        cluster.register(shared, 1)
        p = make_pair(left=shared, right=make_tensor())
        m = ExecutionMetrics(num_devices=4)
        cluster.begin_vector(2)
        engine.execute_pair(p, 0, m)
        assert cluster.devices_holding(shared.uid) == frozenset({0, 3})


class TestDrainOutputs:
    def test_writeback_charged_exactly_once(self):
        from repro.gpusim.trace import TraceRecorder

        cluster = make_cluster()
        trace = TraceRecorder()
        engine = ExecutionEngine(cluster, CostModel(drain_writeback=True), trace=trace)
        v = make_vector(n_pairs=3)
        assignment = [0, 1, 0]
        m = engine.execute_vector(v, assignment, keep_outputs=True)
        memop_before = np.array(m.memop_s)
        engine.drain_outputs(v, assignment, m)
        drains = trace.events_of("drain")
        assert len(drains) == 3
        expected = sum(
            engine.cost_model.interconnect.d2h_time(p.out.nbytes) for p in v.pairs
        )
        assert float((np.asarray(m.memop_s) - memop_before).sum()) == pytest.approx(expected)
        # Outputs are gone; a second drain is a no-op.
        engine.drain_outputs(v, assignment, m)
        assert len(trace.events_of("drain")) == 3
        assert float((np.asarray(m.memop_s) - memop_before).sum()) == pytest.approx(expected)

    def test_already_evicted_output_skipped(self):
        from repro.gpusim.trace import TraceRecorder

        cluster = make_cluster()
        trace = TraceRecorder()
        engine = ExecutionEngine(cluster, CostModel(drain_writeback=True), trace=trace)
        v = make_vector(n_pairs=2)
        assignment = [0, 0]
        m = engine.execute_vector(v, assignment, keep_outputs=True)
        cluster.drop(v.pairs[0].out.uid, 0)  # as if evicted under pressure
        engine.drain_outputs(v, assignment, m)
        drains = trace.events_of("drain")
        assert len(drains) == 1
        assert drains[0].uid == v.pairs[1].out.uid

    def test_no_writeback_mode_only_frees(self):
        cluster, engine = fresh()  # drain_writeback defaults to False
        v = make_vector(n_pairs=2)
        m = engine.execute_vector(v, [0, 1], keep_outputs=True)
        memop_before = list(m.memop_s)
        engine.drain_outputs(v, [0, 1], m)
        assert m.memop_s == memop_before
        for p in v.pairs:
            assert cluster.devices_holding(p.out.uid) == frozenset()


# --------------------------------------------------------------- attachments
TENSOR_BYTES = 16 * 16 * 2 * 8  # make_tensor(): 16x16, batch 2, complex64


@st.composite
def pair_runs(draw):
    """A cluster shape plus a pair sequence over a small reused tensor pool.

    Devices hold 3-6 tensors, so most fetches evict; reused inputs make
    reuse hits and D2D fetches (cross-node ones when a topology is on).
    """
    num_devices = draw(st.integers(2, 8))
    per_node = draw(st.sampled_from([d for d in (1, 2, 4) if num_devices % d == 0]))
    topology = draw(st.booleans())
    capacity = draw(st.integers(3, 6)) * TENSOR_BYTES
    pool_size = draw(st.integers(2, 10))
    steps = draw(
        st.lists(
            st.tuples(
                st.integers(0, pool_size - 1),
                st.integers(0, pool_size - 1),
                st.integers(0, num_devices - 1),
            ),
            min_size=1,
            max_size=40,
        )
    )
    return num_devices, per_node if topology else None, capacity, pool_size, steps


def _run_pairs(run, attach=None):
    """Execute ``run`` on a fresh cluster; returns (metrics, cluster)."""
    num_devices, per_node, capacity, pairs = run
    cluster = make_cluster(num_devices=num_devices, memory_bytes=capacity)
    topo = None if per_node is None else Topology(num_devices=num_devices, devices_per_node=per_node)
    engine = ExecutionEngine(cluster, CostModel(topology=topo))
    if attach is not None:
        attach(engine, num_devices)
    m = ExecutionMetrics(num_devices=num_devices)
    for pair, dev in pairs:
        engine.execute_pair(pair, dev, m)
    return m, cluster


def _attach_trace(engine, n):
    engine.trace = TraceRecorder(FullSink())


def _attach_injector(engine, n):
    engine.injector = FaultInjector(FaultPlan(), num_devices=n)


def _attach_integrity(engine, n):
    engine.integrity = IntegrityState(IntegrityConfig(mode="spot"), n)


class TestAttachmentsChangeNothing:
    """The one executor computes the same simulation whatever is attached."""

    @staticmethod
    def _materialise(drawn):
        num_devices, per_node, capacity, pool_size, steps = drawn
        pool = [make_tensor() for _ in range(pool_size)]
        pairs = [(make_pair(left=pool[a], right=pool[b]), dev) for a, b, dev in steps]
        return num_devices, per_node, capacity, pairs

    @given(pair_runs(), st.sampled_from([_attach_trace, _attach_injector, _attach_integrity]))
    @settings(max_examples=150, deadline=None)
    def test_same_metrics_costs_and_residency(self, drawn, attach):
        run = self._materialise(drawn)
        bare_m, bare_cl = _run_pairs(run)
        m, cl = _run_pairs(run, attach)
        assert m.counts == bare_m.counts
        assert m.total_flops == bare_m.total_flops
        assert m.pairs_executed == bare_m.pairs_executed
        assert np.array_equal(m.pairs_per_device, bare_m.pairs_per_device)
        assert np.array_equal(m.compute_s, bare_m.compute_s)
        assert np.array_equal(m.memop_s, bare_m.memop_s)
        assert np.array_equal(cl.compute_s, bare_cl.compute_s)
        assert np.array_equal(cl.memop_s, bare_cl.memop_s)
        assert cl._holders == bare_cl._holders
        assert [list(p._resident.items()) for p in cl.pools] == [
            list(p._resident.items()) for p in bare_cl.pools
        ]
        cl.check_invariants()

    @given(pair_runs())
    @settings(max_examples=100, deadline=None)
    def test_lane_event_order_per_pair(self, drawn):
        # Per pair, the device lane reads: for each fetched input its
        # evictions, then its alloc, then its copy; then the output's
        # evictions and alloc; then the kernel.
        num_devices, per_node, capacity, pairs = self._materialise(drawn)
        cluster = make_cluster(num_devices=num_devices, memory_bytes=capacity)
        topo = None if per_node is None else Topology(num_devices=num_devices, devices_per_node=per_node)
        trace = TraceRecorder(FullSink())
        engine = ExecutionEngine(cluster, CostModel(topology=topo), trace=trace)
        m = ExecutionMetrics(num_devices=num_devices)
        pattern = re.compile(r"((evict )*alloc (h2d|d2d) )*(evict )*alloc kernel ")
        for pair, dev in pairs:
            evictions = m.counts.evictions
            start = len(trace)
            engine.execute_pair(pair, dev, m)
            events = trace.events[start:]
            assert {e.device for e in events} == {dev}
            kinds = "".join(e.kind + " " for e in events)
            assert pattern.fullmatch(kinds), kinds
            assert kinds.count("evict") == m.counts.evictions - evictions
