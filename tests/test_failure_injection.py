"""Failure-injection tests: the system degrades loudly, not silently."""

import pytest

from repro.errors import CapacityError, SchedulingError
from repro.gpusim.costmodel import CostModel
from repro.gpusim.engine import ExecutionEngine
from repro.gpusim.metrics import ExecutionMetrics
from repro.schedulers.bounds import ReuseBounds
from repro.schedulers.micco import MiccoScheduler
from repro.tensor.spec import TensorPair, VectorSpec
from tests.conftest import make_cluster, make_pair, make_tensor


class TestCapacityFailures:
    def test_pair_larger_than_device_raises(self):
        big = make_pair(size=256, batch=64)  # ~100 MiB inputs
        cluster = make_cluster(memory_bytes=big.left.nbytes // 2)
        engine = ExecutionEngine(cluster, CostModel())
        cluster.begin_vector(2)
        with pytest.raises(CapacityError):
            engine.execute_pair(big, 0, ExecutionMetrics(num_devices=2))

    def test_protected_working_set_exceeding_capacity_raises(self):
        """Inputs + output alone exceeding capacity is a hard error —
        the simulator refuses to fake progress."""
        t = make_tensor(size=128, batch=16)
        pair = TensorPair.make(t, make_tensor(size=128, batch=16))
        cluster = make_cluster(memory_bytes=2 * t.nbytes + t.nbytes // 2)
        engine = ExecutionEngine(cluster, CostModel())
        cluster.begin_vector(2)
        with pytest.raises(CapacityError):
            engine.execute_pair(pair, 0, ExecutionMetrics(num_devices=2))

    def test_partial_state_after_failure_is_inspectable(self):
        big = make_pair(size=256, batch=64)
        cluster = make_cluster(memory_bytes=big.left.nbytes // 2)
        engine = ExecutionEngine(cluster, CostModel())
        cluster.begin_vector(2)
        try:
            engine.execute_pair(big, 0, ExecutionMetrics(num_devices=2))
        except CapacityError:
            pass
        # The cluster is still queryable and consistent.
        assert cluster.used_bytes(0) <= cluster.pools[0].capacity_bytes


class TestSchedulerMisuse:
    def test_engine_rejects_out_of_range_device(self):
        cluster = make_cluster()
        engine = ExecutionEngine(cluster, CostModel())
        with pytest.raises(SchedulingError):
            engine.execute_pair(make_pair(), 99, ExecutionMetrics(num_devices=2))

    def test_micco_survives_corrupted_counters(self):
        """Even with absurd external counter state, a device is returned."""
        cluster = make_cluster()
        cluster.begin_vector(4)
        cluster.assigned_slots[:] = [10**9] * cluster.num_devices
        sched = MiccoScheduler(ReuseBounds.zeros())
        g = sched.choose(make_pair(), cluster)
        assert 0 <= g < cluster.num_devices

    def test_vector_assignment_mismatch(self):
        cluster = make_cluster()
        engine = ExecutionEngine(cluster, CostModel())
        v = VectorSpec(pairs=[make_pair()])
        with pytest.raises(SchedulingError):
            engine.execute_vector(v, [0, 1])


class TestDegenerateWorkloads:
    def test_single_pair_vector(self):
        cluster = make_cluster()
        engine = ExecutionEngine(cluster, CostModel())
        v = VectorSpec(pairs=[make_pair()])
        m = engine.execute_vector(v, [0])
        assert m.pairs_executed == 1

    def test_all_pairs_identical_tensor(self):
        """A vector of pairs all referencing one tensor twice."""
        cluster = make_cluster()
        engine = ExecutionEngine(cluster, CostModel())
        t = make_tensor()
        v = VectorSpec(pairs=[TensorPair.make(t, t) for _ in range(4)])
        m = engine.execute_vector(v, [0, 1, 0, 1])
        # One h2d per device (move semantics bounce it between them).
        assert m.counts.h2d_transfers + m.counts.d2d_transfers <= 4
        assert m.counts.reuse_hits >= 4

    def test_one_device_cluster_runs_everything(self):
        cluster = make_cluster(num_devices=1)
        engine = ExecutionEngine(cluster, CostModel())
        sched = MiccoScheduler(ReuseBounds(2, 2, 2))
        v = VectorSpec(pairs=[make_pair() for _ in range(3)])
        cluster.begin_vector(v.num_tensors)
        m = ExecutionMetrics(num_devices=1)
        for p in v.pairs:
            engine.execute_pair(p, sched.choose(p, cluster), m)
        assert m.pairs_per_device[0] == 3


class TestErrorHierarchy:
    def test_capacity_error_is_a_runtime_error(self):
        """Callers using bare ``except RuntimeError`` keep working."""
        from repro.errors import ReproError

        assert issubclass(CapacityError, RuntimeError)
        assert issubclass(CapacityError, ReproError)

    def test_fault_errors_are_runtime_errors(self):
        from repro.errors import DeviceLostError, FaultError, ReproError, TransientFaultError

        for exc_type in (FaultError, TransientFaultError, DeviceLostError):
            assert issubclass(exc_type, RuntimeError)
            assert issubclass(exc_type, ReproError)
        assert issubclass(TransientFaultError, FaultError)
        assert issubclass(DeviceLostError, FaultError)


class TestDeadDeviceReferences:
    def test_execute_vector_on_dead_device_raises_device_lost(self):
        """A stale assignment referencing a lost device fails loudly
        with the device id and the offending pair index — never a
        KeyError/IndexError from some internal map."""
        from repro.errors import DeviceLostError

        cluster = make_cluster()
        engine = ExecutionEngine(cluster, CostModel())
        cluster.fail_device(0)
        v = VectorSpec(pairs=[make_pair(), make_pair()])
        with pytest.raises(DeviceLostError) as exc:
            engine.execute_vector(v, [1, 0])
        assert exc.value.device_id == 0
        assert exc.value.pair_index == 1

    def test_partial_vector_state_remains_consistent(self):
        from repro.errors import DeviceLostError

        cluster = make_cluster()
        engine = ExecutionEngine(cluster, CostModel())
        cluster.fail_device(1)
        v = VectorSpec(pairs=[make_pair(), make_pair()])
        try:
            engine.execute_vector(v, [0, 1])
        except DeviceLostError:
            pass
        cluster.check_invariants()
        assert cluster.used_bytes(1) == 0
