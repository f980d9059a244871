"""Unit tests for Groute and RoundRobin baselines."""

from repro.gpusim.costmodel import CostModel
from repro.gpusim.engine import ExecutionEngine
from repro.gpusim.metrics import ExecutionMetrics
from repro.schedulers.groute import GrouteScheduler
from repro.schedulers.roundrobin import RoundRobinScheduler
from tests.conftest import make_cluster, make_pair, make_vector


class TestGroute:
    def test_picks_least_busy(self):
        cl = make_cluster(num_devices=3)
        cl.compute_s[0] += 2.0
        cl.compute_s[1] += 0.5
        cl.compute_s[2] += 1.0
        assert GrouteScheduler().choose(make_pair(), cl) == 1

    def test_memops_count_toward_busy(self):
        cl = make_cluster(num_devices=2)
        cl.compute_s[0] += 1.0
        cl.memop_s[1] += 2.0
        assert GrouteScheduler().choose(make_pair(), cl) == 0

    def test_tie_breaks_lowest_id(self):
        cl = make_cluster(num_devices=4)
        assert GrouteScheduler().choose(make_pair(), cl) == 0

    def test_balances_over_a_vector(self):
        cl = make_cluster(num_devices=2)
        engine = ExecutionEngine(cl, CostModel())
        sched = GrouteScheduler()
        v = make_vector(n_pairs=6)
        cl.begin_vector(v.num_tensors)
        m = ExecutionMetrics(num_devices=2)
        for p in v.pairs:
            engine.execute_pair(p, sched.choose(p, cl), m)
        # Identical pairs -> strict alternation -> even split.
        assert list(m.pairs_per_device) == [3, 3]

    def test_ignores_residency(self):
        """Groute picks the idle device even when data lives elsewhere."""
        cl = make_cluster(num_devices=2)
        p = make_pair()
        cl.register(p.left, 0)
        cl.register(p.right, 0)
        cl.compute_s[0] += 1.0  # device 0 busier
        assert GrouteScheduler().choose(p, cl) == 1


class TestRoundRobin:
    def test_cycles_devices(self):
        cl = make_cluster(num_devices=3)
        sched = RoundRobinScheduler()
        picks = [sched.choose(make_pair(), cl) for _ in range(7)]
        assert picks == [0, 1, 2, 0, 1, 2, 0]

    def test_cursor_survives_begin_vector(self):
        cl = make_cluster(num_devices=2)
        sched = RoundRobinScheduler()
        sched.choose(make_pair(), cl)
        sched.begin_vector(make_vector(), cl)
        assert sched.choose(make_pair(), cl) == 1
