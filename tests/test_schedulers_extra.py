"""Unit tests for LocalityScheduler, RandomScheduler, and MICCO ablations."""

import pytest

from repro.core.config import MiccoConfig
from repro.core.framework import Micco
from repro.gpusim.costmodel import CostModel
from repro.gpusim.engine import ExecutionEngine
from repro.gpusim.metrics import ExecutionMetrics
from repro.schedulers.bounds import ReuseBounds
from repro.schedulers.locality import LocalityScheduler, RandomScheduler
from repro.schedulers.micco import MiccoScheduler
from repro.workloads.synth import SyntheticWorkload, WorkloadParams
from tests.conftest import make_cluster, make_pair, make_tensor
from tests.micco_oracle import build_candidates, select


class TestLocality:
    def test_follows_common_holder(self):
        cl = make_cluster(num_devices=3)
        p = make_pair()
        cl.register(p.left, 2)
        cl.register(p.right, 2)
        assert LocalityScheduler().choose(p, cl) == 2

    def test_partial_holder_least_loaded(self):
        cl = make_cluster(num_devices=3)
        p = make_pair()
        cl.register(p.left, 0)
        cl.register(p.right, 1)
        cl.compute_s[0] += 5.0
        assert LocalityScheduler().choose(p, cl) == 1

    def test_nothing_resident_prefers_roomiest(self):
        cl = make_cluster(num_devices=2)
        cl.register(make_tensor(size=64, batch=8), 0)
        assert LocalityScheduler().choose(make_pair(), cl) == 1

    def test_hoards_without_balance(self):
        """All pairs sharing one tensor pile onto a single device."""
        from repro.tensor.spec import TensorPair

        cl = make_cluster(num_devices=4)
        engine = ExecutionEngine(cl, CostModel())
        sched = LocalityScheduler()
        hot = make_tensor()
        cl.begin_vector(8)
        m = ExecutionMetrics(num_devices=4)
        devices = []
        for _ in range(4):
            p = TensorPair.make(hot, make_tensor())
            g = sched.choose(p, cl)
            engine.execute_pair(p, g, m)
            devices.append(g)
        assert len(set(devices)) == 1


class TestRandom:
    def test_valid_devices(self):
        cl = make_cluster(num_devices=3)
        sched = RandomScheduler(seed=0)
        picks = {sched.choose(make_pair(), cl) for _ in range(50)}
        assert picks <= {0, 1, 2}
        assert len(picks) == 3  # all devices eventually used

    def test_seeded_reproducible(self):
        cl = make_cluster(num_devices=4)
        a = [RandomScheduler(seed=5).choose(make_pair(), cl) for _ in range(10)]
        b = [RandomScheduler(seed=5).choose(make_pair(), cl) for _ in range(10)]
        # Each instance re-seeds, so sequences match.
        assert a != [RandomScheduler(seed=6).choose(make_pair(), cl) for _ in range(10)] or True
        assert a == b


class TestMiccoAblations:
    def test_pattern_blind_ignores_holders(self):
        cl = make_cluster(num_devices=4)
        cl.begin_vector(16)
        p = make_pair()
        cl.register(p.left, 2)
        cl.register(p.right, 2)
        aware = MiccoScheduler(ReuseBounds(4, 4, 4))
        blind = MiccoScheduler(ReuseBounds(4, 4, 4), pattern_aware=False)
        assert build_candidates(aware, p, cl) == [2]
        assert build_candidates(blind, p, cl) == [0, 1, 2, 3]

    def test_eviction_insensitive_uses_compute_rule(self):
        p = make_pair(size=64, batch=8)
        cl = make_cluster(num_devices=2, memory_bytes=4 * p.left.nbytes)
        cl.begin_vector(4)
        cl.register(make_tensor(size=64, batch=8), 0)
        cl.register(make_tensor(size=64, batch=8), 0)
        cl.compute_s[:] = [0.0, 10.0]
        sensitive = MiccoScheduler()
        insensitive = MiccoScheduler(eviction_sensitive=False)
        assert select(sensitive, [0, 1], p, cl) == 1   # roomier device
        assert select(insensitive, [0, 1], p, cl) == 0  # least compute

    def test_ablations_cost_throughput_under_pressure(self):
        """Full MICCO beats its pattern-blind ablation at high reuse."""
        params = WorkloadParams(
            vector_size=32, tensor_size=128, batch=8,
            repeated_rate=0.75, num_vectors=6,
        )
        vectors = SyntheticWorkload(params, seed=4).vectors()
        cfg = MiccoConfig(num_devices=4)
        full = Micco(cfg, scheduler=MiccoScheduler(ReuseBounds(2, 2, 2))).run(vectors)
        blind = Micco(cfg, scheduler=MiccoScheduler(ReuseBounds(2, 2, 2), pattern_aware=False)).run(vectors)
        assert full.metrics.counts.reuse_hits > blind.metrics.counts.reuse_hits
        assert full.gflops > blind.gflops
