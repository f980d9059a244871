"""Execution counters and simulated timing.

Counters are integer-exact and independent of the float cost model, so
invariant tests can assert on them without tolerance games: e.g.
``reuse_hits + h2d_transfers + d2d_transfers == input slots``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class MemoryOpCounts:
    """Integer-exact memory-operation counters."""

    reuse_hits: int = 0
    h2d_transfers: int = 0
    d2d_transfers: int = 0
    allocations: int = 0
    evictions: int = 0
    eviction_bytes: int = 0
    transferred_bytes: int = 0
    #: D2D transfers that crossed a node boundary (multi-node topology
    #: only; a subset of ``d2d_transfers``).  In sharded serving this is
    #: the cost a mis-routed or forwarded vector pays for fetching
    #: tensors resident on another shard's node.
    cross_node_fetches: int = 0

    def merge(self, other: "MemoryOpCounts") -> None:
        self.reuse_hits += other.reuse_hits
        self.h2d_transfers += other.h2d_transfers
        self.d2d_transfers += other.d2d_transfers
        self.allocations += other.allocations
        self.evictions += other.evictions
        self.eviction_bytes += other.eviction_bytes
        self.transferred_bytes += other.transferred_bytes
        self.cross_node_fetches += other.cross_node_fetches

    @property
    def input_fetches(self) -> int:
        """Input-slot resolutions that required a copy."""
        return self.h2d_transfers + self.d2d_transfers


@dataclass
class ExecutionMetrics:
    """Per-run metrics for one scheduled workload.

    Timing is *simulated* seconds per device, split into compute and
    memory-operation buckets.  The headline figure matches the paper's:
    ``GFLOPS = total_flops / makespan``.

    The per-device counters are plain lists (the engine adds to one
    entry per pair); the derived figures reduce them through numpy, so
    their float results match an array-backed reduction bit for bit.
    """

    num_devices: int
    compute_s: list[float] = field(default=None)  # type: ignore[assignment]
    memop_s: list[float] = field(default=None)  # type: ignore[assignment]
    counts: MemoryOpCounts = field(default_factory=MemoryOpCounts)
    total_flops: int = 0
    pairs_executed: int = 0
    pairs_per_device: list[int] = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if self.compute_s is None:
            self.compute_s = [0.0] * self.num_devices
        if self.memop_s is None:
            self.memop_s = [0.0] * self.num_devices
        if self.pairs_per_device is None:
            self.pairs_per_device = [0] * self.num_devices

    # --------------------------------------------------------------- derived
    @property
    def device_time_s(self) -> np.ndarray:
        """Total busy time per device (compute + memory ops)."""
        return np.asarray(self.compute_s) + np.asarray(self.memop_s)

    @property
    def makespan_s(self) -> float:
        """Simulated wall-clock: slowest device's busy time."""
        return float(self.device_time_s.max()) if self.num_devices else 0.0

    @property
    def gflops(self) -> float:
        """Throughput: total flops over makespan, in GFLOP/s."""
        span = self.makespan_s
        return self.total_flops / span / 1e9 if span > 0 else 0.0

    @property
    def load_imbalance(self) -> float:
        """max/mean device busy time; 1.0 is perfectly balanced."""
        t = self.device_time_s
        mean = float(t.mean())
        return float(t.max()) / mean if mean > 0 else 1.0

    @property
    def memop_fraction(self) -> float:
        """Fraction of total busy time spent on memory operations."""
        busy = float(self.device_time_s.sum())
        return float(np.asarray(self.memop_s).sum()) / busy if busy > 0 else 0.0

    def merge(self, other: "ExecutionMetrics") -> None:
        """Accumulate another run executed on the same cluster."""
        if other.num_devices != self.num_devices:
            raise ValueError("cannot merge metrics from different cluster sizes")
        self.compute_s[:] = [a + b for a, b in zip(self.compute_s, other.compute_s)]
        self.memop_s[:] = [a + b for a, b in zip(self.memop_s, other.memop_s)]
        self.counts.merge(other.counts)
        self.total_flops += other.total_flops
        self.pairs_executed += other.pairs_executed
        self.pairs_per_device[:] = [
            a + b for a, b in zip(self.pairs_per_device, other.pairs_per_device)
        ]

    def summary(self) -> dict:
        """Flat dict for experiment tables / JSON dumps."""
        return {
            "gflops": self.gflops,
            "makespan_s": self.makespan_s,
            "total_flops": self.total_flops,
            "pairs": self.pairs_executed,
            "reuse_hits": self.counts.reuse_hits,
            "h2d": self.counts.h2d_transfers,
            "d2d": self.counts.d2d_transfers,
            "allocations": self.counts.allocations,
            "evictions": self.counts.evictions,
            "load_imbalance": self.load_imbalance,
            "memop_fraction": self.memop_fraction,
        }
