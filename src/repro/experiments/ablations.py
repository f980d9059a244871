"""Ablation studies on MICCO's design choices (beyond the paper's tables).

Four ablations, each isolating one mechanism:

* **policy** — MICCO vs its pattern-blind and eviction-insensitive
  variants, plus the locality-only and random poles (which of the three
  toggling policies earns the speedup?).
* **eviction** — LRU vs FIFO vs largest-first victim selection under
  oversubscription, on a stream mixing two tensor sizes (with one size
  largest-first ties everywhere and degenerates to FIFO).
* **overlap** — the async-copy/prefetch future-work model: how much of
  the memory-op wall does overlap recover, and does the scheduler gap
  persist once transfers hide behind kernels?
* **multinode** — the multi-node future-work extension: 8 devices as
  1×8, 2×4 and 4×2 nodes; cross-node transfers make reuse-blind
  placement progressively more expensive.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.core.config import MiccoConfig
from repro.core.framework import Micco
from repro.experiments.common import pressured_config
from repro.experiments.report import Table
from repro.gpusim.costmodel import CostModel
from repro.gpusim.topology import Topology
from repro.schedulers.bounds import ReuseBounds
from repro.schedulers.costgreedy import CostGreedyScheduler
from repro.schedulers.groute import GrouteScheduler
from repro.schedulers.locality import LocalityScheduler, RandomScheduler
from repro.schedulers.micco import MiccoScheduler
from repro.workloads.synth import SyntheticWorkload, WorkloadParams

#: Shared workload: the Fig. 7 sweet spot (reuse matters, balance binds).
DEFAULT_PARAMS = WorkloadParams(
    vector_size=64, tensor_size=384, repeated_rate=0.75,
    distribution="gaussian", num_vectors=10, batch=32,
)


@dataclass
class AblationResult:
    title: str
    rows: list[dict] = field(default_factory=list)

    def gflops(self, name: str) -> float:
        for r in self.rows:
            if r["variant"] == name:
                return r["gflops"]
        raise KeyError(name)

    def table(self) -> Table:
        t = Table(self.title, ["variant", "gflops", "reuse hits", "transfers", "evictions"])
        for r in self.rows:
            t.add_row(r["variant"], r["gflops"], r["reuse_hits"], r["transfers"], r["evictions"])
        return t


def _row(name: str, result) -> dict:
    c = result.metrics.counts
    return {
        "variant": name,
        "gflops": result.gflops,
        "reuse_hits": c.reuse_hits,
        "transfers": c.input_fetches,
        "evictions": c.evictions,
    }


def run_policy_ablation(
    params: WorkloadParams = DEFAULT_PARAMS,
    *,
    num_devices: int = 8,
    subscription: float | None = 1.1,
    bounds: ReuseBounds = ReuseBounds(0, 4, 0),
    seed: int = 7,
) -> AblationResult:
    """Which scheduling policy earns the win?  Runs MICCO, its two
    ablated variants, and the balance-only / locality-only / random
    poles on one stream."""
    vectors = SyntheticWorkload(params, seed=seed).vectors()
    config = pressured_config(vectors, MiccoConfig(num_devices=num_devices), subscription)
    variants = {
        "micco (full)": MiccoScheduler(bounds),
        "micco - patterns": MiccoScheduler(bounds, pattern_aware=False),
        "micco - eviction policy": MiccoScheduler(bounds, eviction_sensitive=False),
        "cost-greedy (full model)": CostGreedyScheduler(config.cost_model),
        "groute (balance only)": GrouteScheduler(),
        "locality only": LocalityScheduler(),
        "random": RandomScheduler(seed=seed),
    }
    result = AblationResult("Ablation — scheduling policies (GFLOPS)")
    for name, sched in variants.items():
        run = Micco(config, scheduler=sched).run(vectors)
        result.rows.append(_row(name, run))
    return result


def run_eviction_ablation(
    params: WorkloadParams = DEFAULT_PARAMS,
    *,
    num_devices: int = 8,
    subscription: float = 1.5,
    bounds: ReuseBounds = ReuseBounds(0, 4, 0),
    seed: int = 7,
) -> AblationResult:
    """Victim-selection policy under 150 % oversubscription.

    The stream interleaves ``params`` vectors with vectors of half its
    tensor size, so victims differ in size and largest-first has a
    choice to make.
    """
    vectors = mixed_size_stream(params, seed)
    base = pressured_config(vectors, MiccoConfig(num_devices=num_devices), subscription)
    result = AblationResult(f"Ablation — eviction policy at {subscription:.0%} subscription (GFLOPS)")
    for policy in ("lru", "fifo", "largest"):
        config = base.with_(eviction_policy=policy)
        run = Micco(config, scheduler=MiccoScheduler(bounds)).run(vectors)
        result.rows.append(_row(policy, run))
    return result


def mixed_size_stream(params: WorkloadParams, seed: int) -> list:
    """``params`` vectors alternating with vectors of half the tensor
    size (seeded ``seed + 1``), renumbered in stream order."""
    large = SyntheticWorkload(params, seed=seed).vectors()
    small_params = params.with_(tensor_size=params.tensor_size // 2)
    small = SyntheticWorkload(small_params, seed=seed + 1).vectors()
    mixed = [v for pair in zip(large, small) for v in pair]
    return [replace(v, vector_id=i) for i, v in enumerate(mixed)]


def run_overlap_ablation(
    params: WorkloadParams = DEFAULT_PARAMS,
    *,
    num_devices: int = 8,
    fractions=(0.0, 0.5, 1.0),
    bounds: ReuseBounds = ReuseBounds(0, 4, 0),
    seed: int = 7,
) -> AblationResult:
    """Async-copy overlap (future work): throughput vs overlap fraction,
    for MICCO and Groute."""
    vectors = SyntheticWorkload(params, seed=seed).vectors()
    result = AblationResult("Ablation — transfer/compute overlap (GFLOPS)")
    for frac in fractions:
        config = MiccoConfig(num_devices=num_devices, cost_model=CostModel(overlap_fraction=frac))
        micco = Micco(config, scheduler=MiccoScheduler(bounds)).run(vectors)
        groute = Micco(config, scheduler=GrouteScheduler()).run(vectors)
        result.rows.append(_row(f"micco overlap={frac:.1f}", micco))
        result.rows.append(_row(f"groute overlap={frac:.1f}", groute))
    return result


def run_multinode_ablation(
    params: WorkloadParams = DEFAULT_PARAMS,
    *,
    num_devices: int = 8,
    nodes=(1, 2, 4),
    bounds: ReuseBounds = ReuseBounds(0, 4, 0),
    seed: int = 7,
) -> AblationResult:
    """Multi-node extension (future work): same 8 devices split across
    1, 2 or 4 nodes; cross-node D2D pays network bandwidth."""
    vectors = SyntheticWorkload(params, seed=seed).vectors()
    result = AblationResult("Ablation — multi-node topology (GFLOPS)")
    for n_nodes in nodes:
        topo = None
        if n_nodes > 1:
            topo = Topology(num_devices=num_devices, devices_per_node=num_devices // n_nodes)
        config = MiccoConfig(num_devices=num_devices, cost_model=CostModel(topology=topo))
        micco = Micco(config, scheduler=MiccoScheduler(bounds)).run(vectors)
        groute = Micco(config, scheduler=GrouteScheduler()).run(vectors)
        result.rows.append(_row(f"micco {n_nodes}x{num_devices // n_nodes}", micco))
        result.rows.append(_row(f"groute {n_nodes}x{num_devices // n_nodes}", groute))
    return result


def run(*, quick: bool = True, seed: int = 7) -> list[AblationResult]:
    """All four ablations on the shared default workload."""
    params = DEFAULT_PARAMS if not quick else DEFAULT_PARAMS.with_(num_vectors=8, batch=16)
    return [
        run_policy_ablation(params, seed=seed),
        run_eviction_ablation(params, seed=seed),
        run_overlap_ablation(params, seed=seed),
        run_multinode_ablation(params, seed=seed),
    ]


def main(quick: bool = True) -> str:
    return "\n\n".join(r.table().to_text() for r in run(quick=quick))
