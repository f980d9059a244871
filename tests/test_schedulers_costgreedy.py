"""Unit tests for the cost-model-aware greedy scheduler."""

import pytest

from repro.core.config import MiccoConfig
from repro.core.framework import Micco
from repro.gpusim.costmodel import CostModel
from repro.schedulers.costgreedy import CostGreedyScheduler
from repro.schedulers.locality import RandomScheduler
from repro.workloads.synth import SyntheticWorkload, WorkloadParams
from tests.conftest import make_cluster, make_pair, make_tensor


class TestEstimate:
    def test_resident_inputs_cheaper(self):
        cl = make_cluster()
        sched = CostGreedyScheduler()
        p = make_pair()
        cl.register(p.left, 0)
        cl.register(p.right, 0)
        t_hot = sched.estimate_added_time(p, 0, cl)
        t_cold = sched.estimate_added_time(p, 1, cl)
        assert t_hot < t_cold

    def test_estimate_includes_eviction_overflow(self):
        p = make_pair(size=64, batch=8)
        tight = make_cluster(memory_bytes=2 * p.left.nbytes)
        roomy = make_cluster(memory_bytes=1024**3)
        sched = CostGreedyScheduler()
        assert sched.estimate_added_time(p, 0, tight) > sched.estimate_added_time(p, 0, roomy)

    def test_duplicate_input_counted_once(self):
        from repro.tensor.spec import TensorPair

        cl = make_cluster()
        sched = CostGreedyScheduler()
        t = make_tensor()
        single = sched.estimate_added_time(TensorPair.make(t, t), 0, cl)
        double = sched.estimate_added_time(make_pair(), 0, cl)
        assert single < double


class TestChoice:
    def test_prefers_holder_over_idle(self):
        cl = make_cluster(num_devices=2)
        p = make_pair()
        cl.register(p.left, 1)
        cl.register(p.right, 1)
        assert CostGreedyScheduler().choose(p, cl) == 1

    def test_busy_holder_eventually_avoided(self):
        cl = make_cluster(num_devices=2)
        p = make_pair()
        cl.register(p.left, 1)
        cl.register(p.right, 1)
        cl.add_compute(1, 1e9)  # holder is pathologically backed up
        assert CostGreedyScheduler().choose(p, cl) == 0

    def test_lost_device_never_chosen(self):
        """After a device loss the pick is a survivor, lowest id on ties."""
        from repro.schedulers.groute import GrouteScheduler

        cl = make_cluster(num_devices=3)
        cl.fail_device(0)
        p = make_pair()
        assert CostGreedyScheduler().choose(p, cl) == 1
        assert GrouteScheduler().choose(p, cl) == 1

    def test_beats_random_end_to_end(self):
        params = WorkloadParams(vector_size=32, tensor_size=128, batch=8, repeated_rate=0.75, num_vectors=6)
        vectors = SyntheticWorkload(params, seed=2).vectors()
        cfg = MiccoConfig(num_devices=4)
        greedy = Micco(cfg, scheduler=CostGreedyScheduler(cfg.cost_model)).run(vectors)
        rand = Micco(cfg, scheduler=RandomScheduler(seed=0)).run(vectors)
        assert greedy.gflops > rand.gflops
