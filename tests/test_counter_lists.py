"""Per-device counters are plain lists of plain Python numbers.

``ClusterState`` and ``ExecutionMetrics`` keep ``compute_s``,
``memop_s``, ``busy_until``, ``assigned_slots`` and
``pairs_per_device`` as lists, so the per-pair updates never box numpy
scalars; numpy only appears where a whole counter is reduced.  These
tests pin the three things that design rests on:

* after real runs every entry is exactly ``float`` (or ``int``): one
  leaked ``np.float64`` would silently turn every later add back into a
  numpy scalar operation;
* a ``ShardView`` binds the cluster's lists once, so the cluster must
  clear them in place and never rebind them;
* the derived figures reduce through numpy and match an array-backed
  reference bit for bit.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import MiccoConfig
from repro.core.framework import Micco
from repro.faults import FaultEvent, FaultKind, FaultPlan
from repro.faults.injector import FaultInjector
from repro.gpusim import CostModel, Topology
from repro.gpusim.metrics import ExecutionMetrics
from repro.integrity import IntegrityConfig
from repro.redstar.datasets import f0d2
from repro.redstar.pipeline import RedstarPipeline
from repro.schedulers.bounds import ReuseBounds
from repro.schedulers.micco import MiccoScheduler
from repro.serve import PoissonArrivals, ServeConfig, make_server
from repro.serve.sharded.node import ShardView
from repro.workloads import SyntheticWorkload, WorkloadParams
from tests.conftest import make_cluster

MIB = 1024**2

FLOAT_COUNTERS = ("compute_s", "memop_s")


def _stream(seed, n):
    params = WorkloadParams(
        vector_size=8, tensor_size=64, repeated_rate=0.6, num_vectors=n, batch=2
    )
    return SyntheticWorkload(params, seed=seed).vectors()


def assert_plain_counters(cluster, metrics):
    for name in (*FLOAT_COUNTERS, "busy_until"):
        values = getattr(cluster, name)
        assert type(values) is list, f"cluster.{name} is {type(values).__name__}"
        bad = {type(v).__name__ for v in values if type(v) is not float}
        assert not bad, f"cluster.{name} holds {bad}"
    assert type(cluster.assigned_slots) is list
    assert all(type(v) is int for v in cluster.assigned_slots)
    for name in FLOAT_COUNTERS:
        values = getattr(metrics, name)
        assert type(values) is list, f"metrics.{name} is {type(values).__name__}"
        bad = {type(v).__name__ for v in values if type(v) is not float}
        assert not bad, f"metrics.{name} holds {bad}"
    assert type(metrics.pairs_per_device) is list
    assert all(type(v) is int for v in metrics.pairs_per_device)


class TestCountersStayPlain:
    def test_single_loop_with_straggler_and_spot_integrity(self, monkeypatch):
        factors = []
        original = FaultInjector.compute_factor

        def spy(self, device):
            factors.append(original(self, device))
            return factors[-1]

        monkeypatch.setattr(FaultInjector, "compute_factor", spy)
        plan = FaultPlan((
            FaultEvent(FaultKind.STRAGGLER, 1e-3, 1, duration_s=20e-3, slow_factor=4.0),
        ))
        cfg = ServeConfig(
            queue_capacity=32,
            integrity=IntegrityConfig(mode="spot", audit_fraction=0.5),
        )
        server = make_server(
            cfg, cluster=MiccoConfig(num_devices=4, memory_bytes=64 * MIB),
            scheduler=MiccoScheduler(ReuseBounds(0, 4, 0)),
        )
        result = server.run(
            _stream(7, 30), PoissonArrivals(2_000.0), seed=3, faults=plan
        )
        assert result.integrity["audited_pairs"] > 0
        assert 4.0 in factors  # some kernel ran inside the straggler window
        assert_plain_counters(server.cluster, result.metrics)
        assert any(b > 0.0 for b in server.cluster.busy_until)

    def test_sharded_run(self):
        topo = Topology(num_devices=8, devices_per_node=4)
        server = make_server(
            ServeConfig(sharded=True, routing="residency-affinity"),
            cluster=MiccoConfig(
                num_devices=8, memory_bytes=64 * MIB, cost_model=CostModel(topology=topo)
            ),
        )
        result = server.run(_stream(3, 24), PoissonArrivals(4_000.0), seed=12)
        assert result.metrics.pairs_executed > 0
        assert_plain_counters(server.cluster, result.metrics)

    def test_offline_run(self):
        vectors = RedstarPipeline(f0d2(time_slices=2)).vectors()
        micco = Micco.naive(MiccoConfig(num_devices=8, keep_outputs=True))
        result = micco.run(vectors)
        assert result.metrics.pairs_executed == sum(len(v.pairs) for v in vectors)
        assert_plain_counters(micco.cluster, result.metrics)


class TestShardViewAliasing:
    ALIASED = ("compute_s", "memop_s", "assigned_slots", "pools", "_holders")

    def assert_aliased(self, view, cluster):
        for name in self.ALIASED:
            assert getattr(view, name) is getattr(cluster, name), name
        assert view.busy_until is cluster.busy_until

    def test_view_keeps_the_cluster_lists(self):
        cluster = make_cluster(num_devices=8)
        view = ShardView(cluster, [4, 5, 6, 7])
        cluster.compute_s[5] += 1.5
        cluster.reset()
        self.assert_aliased(view, cluster)
        assert cluster.compute_s == [0.0] * 8
        cluster.begin_vector(16)
        self.assert_aliased(view, cluster)
        view.begin_vector(8)
        self.assert_aliased(view, cluster)
        cluster.record_assignment(6)
        assert view.assigned_slots[6] == 2
        cluster.fail_device(5)
        self.assert_aliased(view, cluster)
        view.begin_vector(6)
        assert view.assigned_slots == [0] * 8
        assert cluster.balance_num == 2.0
        self.assert_aliased(view, cluster)


# ------------------------------------------------------- bit identity
class ArrayMetrics:
    """The array-backed reference: the same figures, counters as ndarrays."""

    def __init__(self, compute, memop, pairs, flops):
        self.compute_s = np.array(compute, dtype=np.float64)
        self.memop_s = np.array(memop, dtype=np.float64)
        self.pairs_per_device = np.array(pairs, dtype=np.int64)
        self.total_flops = flops

    def merge(self, other):
        self.compute_s += other.compute_s
        self.memop_s += other.memop_s
        self.pairs_per_device += other.pairs_per_device
        self.total_flops += other.total_flops

    def figures(self):
        t = self.compute_s + self.memop_s
        span = float(t.max())
        mean = float(t.mean())
        busy = float(t.sum())
        return {
            "device_time_s": [float(x) for x in t],
            "makespan_s": span,
            "gflops": self.total_flops / span / 1e9 if span > 0 else 0.0,
            "load_imbalance": float(t.max()) / mean if mean > 0 else 1.0,
            "memop_fraction": float(self.memop_s.sum()) / busy if busy > 0 else 0.0,
        }


def list_figures(m: ExecutionMetrics) -> dict:
    return {
        "device_time_s": [float(x) for x in m.device_time_s],
        "makespan_s": m.makespan_s,
        "gflops": m.gflops,
        "load_imbalance": m.load_imbalance,
        "memop_fraction": m.memop_fraction,
    }


def hexed(figures: dict) -> dict:
    return {
        k: [x.hex() for x in v] if isinstance(v, list) else float(v).hex()
        for k, v in figures.items()
    }


# Magnitudes spread over many binades so summation order shows in the bits.
seconds = st.one_of(
    st.just(0.0),
    st.floats(min_value=1e-9, max_value=1e-3),
    st.floats(min_value=1e-3, max_value=1e4),
)


@st.composite
def metric_pairs(draw):
    n = draw(st.integers(1, 16))
    side = lambda: (
        draw(st.lists(seconds, min_size=n, max_size=n)),
        draw(st.lists(seconds, min_size=n, max_size=n)),
        draw(st.lists(st.integers(0, 10**6), min_size=n, max_size=n)),
        draw(st.integers(0, 10**18)),
    )
    return n, side(), side()


@given(metric_pairs())
@settings(max_examples=300, deadline=None)
def test_list_metrics_match_array_reference_bit_for_bit(case):
    n, a, b = case
    listed = ExecutionMetrics(
        num_devices=n, compute_s=list(a[0]), memop_s=list(a[1]),
        pairs_per_device=list(a[2]), total_flops=a[3],
    )
    other = ExecutionMetrics(
        num_devices=n, compute_s=list(b[0]), memop_s=list(b[1]),
        pairs_per_device=list(b[2]), total_flops=b[3],
    )
    ref = ArrayMetrics(*a)
    assert hexed(list_figures(listed)) == hexed(ref.figures())
    listed.merge(other)
    ref.merge(ArrayMetrics(*b))
    assert [x.hex() for x in listed.compute_s] == [float(x).hex() for x in ref.compute_s]
    assert [x.hex() for x in listed.memop_s] == [float(x).hex() for x in ref.memop_s]
    assert listed.pairs_per_device == ref.pairs_per_device.tolist()
    assert hexed(list_figures(listed)) == hexed(ref.figures())
    assert all(type(x) is float for x in listed.compute_s + listed.memop_s)
