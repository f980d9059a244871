"""Kernel and memory-operation cost model.

Three cost families, matching the paper's breakdown (§III-B): *kernel
computation*, *memory allocation*, and *data communication*.  Kernel
time uses a saturation model — small tensors achieve a fraction of
peak because launch overhead and low arithmetic intensity dominate;
the fraction approaches 1 as the tensor size grows.  This reproduces
the paper's observation that at tensor size 384 "memory operation
impacts more than computation".
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from operator import gt

import numpy as np

from repro.errors import ConfigurationError
from repro.gpusim.device import DeviceSpec
from repro.gpusim.interconnect import Interconnect
from repro.gpusim.topology import Topology
from repro.tensor.spec import TensorPair, TensorSpec
from repro.tensor.flops import pair_flops
from repro.utils.validation import check_non_negative, check_positive


@dataclass(frozen=True)
class CostModel:
    """Maps scheduling events to simulated seconds.

    Parameters
    ----------
    interconnect:
        Transfer model (H2D / D2D / D2H).
    kernel_launch_s:
        Fixed overhead per contraction kernel.
    alloc_latency_s:
        Fixed overhead per device allocation.
    alloc_bandwidth:
        Bytes/second cost of touching freshly allocated memory.
    efficiency_half_size:
        Tensor size at which kernels reach 50 % of peak (saturation
        half-point of the efficiency curve).
    eviction_writeback:
        If True, evicting a tensor pays a D2H writeback; otherwise only
        a free-latency cost (clean pages dropped).
    eviction_latency_s:
        Fixed bookkeeping cost per eviction.
    drain_writeback:
        If True, draining a vector's outputs to the host charges a D2H
        transfer each.  Off by default: result collection overlaps with
        the next vector's compute in real runtimes and is identical for
        every scheduler, so it only dilutes comparisons.
    d2d_moves:
        If True (default), a device-to-device fetch *moves* the tensor —
        the source copy is freed.  This matches the paper's single-
        residency model (each tensor lives on one GPU; Fig. 2 and the
        local-reuse-pattern definitions assume it).  Set False for a
        replicating runtime.
    topology:
        Optional multi-node :class:`~repro.gpusim.topology.Topology`.
        When set, device-to-device cost depends on whether source and
        destination share a node (the paper's multi-node future work).
    overlap_fraction:
        Async-copy/prefetch model (the paper's other future-work item):
        a pair's memory operations overlap with its kernel, hiding up
        to ``overlap_fraction × kernel_time`` of memory-op time.  0.0
        (default) is fully synchronous; 1.0 is a perfect pipeline.
    """

    interconnect: Interconnect = field(default_factory=Interconnect)
    kernel_launch_s: float = 5e-6
    alloc_latency_s: float = 8e-6
    alloc_bandwidth: float = 400e9
    efficiency_half_size: int = 256
    eviction_writeback: bool = True
    eviction_latency_s: float = 8e-6
    drain_writeback: bool = False
    d2d_moves: bool = True
    topology: "Topology | None" = None
    overlap_fraction: float = 0.0

    def __post_init__(self):
        check_non_negative("kernel_launch_s", self.kernel_launch_s)
        check_non_negative("alloc_latency_s", self.alloc_latency_s)
        check_positive("alloc_bandwidth", self.alloc_bandwidth)
        check_positive("efficiency_half_size", self.efficiency_half_size)
        check_non_negative("eviction_latency_s", self.eviction_latency_s)
        if not 0.0 <= self.overlap_fraction <= 1.0:
            raise ConfigurationError(
                f"overlap_fraction must be in [0, 1], got {self.overlap_fraction}"
            )

    # ---------------------------------------------------------------- kernels
    def kernel_efficiency(self, size: int) -> float:
        """Fraction of peak achieved at tensor size ``size`` (in (0, 1))."""
        return size / (size + self.efficiency_half_size)

    def kernel_time(self, pair: TensorPair, device: DeviceSpec) -> float:
        """Seconds to run ``pair``'s contraction on ``device``."""
        flops = pair_flops(pair)
        rate = device.peak_gflops * 1e9 * self.kernel_efficiency(pair.left.size)
        return self.kernel_launch_s + flops / rate

    # ------------------------------------------------------------- memory ops
    def alloc_time(self, nbytes: int) -> float:
        """Seconds to allocate (and fault in) ``nbytes`` on a device."""
        return self.alloc_latency_s + nbytes / self.alloc_bandwidth

    def h2d_time(self, nbytes: int) -> float:
        return self.interconnect.h2d_time(nbytes)

    def d2d_time(self, nbytes: int, src: int | None = None, dst: int | None = None) -> float:
        """Device-to-device copy time; topology-aware when endpoints are
        known and a :class:`Topology` is configured."""
        if self.topology is not None and src is not None and dst is not None:
            return self.topology.d2d_time(src, dst, nbytes, self.interconnect.latency_s)
        return self.interconnect.d2d_time(nbytes)

    def effective_memop_time(self, memop_s: float, kernel_s: float) -> float:
        """Memory-op seconds visible on the device timeline after
        overlapping with the pair's kernel (async-copy model)."""
        return max(memop_s - self.overlap_fraction * kernel_s, 0.0)

    def eviction_time(self, nbytes: int) -> float:
        """Seconds to evict ``nbytes`` (optionally writing back to host)."""
        t = self.eviction_latency_s
        if self.eviction_writeback:
            t += self.interconnect.d2h_time(nbytes)
        return t

    # ----------------------------------------------------------- composite
    def fetch_time(self, spec: TensorSpec, *, from_device: bool) -> float:
        """Alloc + copy cost of bringing ``spec`` onto a device."""
        copy = self.d2d_time(spec.nbytes) if from_device else self.h2d_time(spec.nbytes)
        return self.alloc_time(spec.nbytes) + copy

    # ------------------------------------------------------- batch scoring
    def score_batch(
        self,
        device_ids: Sequence[int],
        incoming_bytes: Sequence[int],
        free_bytes: Sequence[int],
        compute_s: Sequence[float],
        *,
        eviction_sensitive: bool = True,
    ) -> int:
        """Alg. 2 selection over a wide candidate set in one pass.

        :meth:`MiccoScheduler.choose
        <repro.schedulers.micco.MiccoScheduler.choose>` calls it for
        candidate sets of at least ``VECTOR_MIN_CANDIDATES`` devices.

        All four sequences are parallel over the candidate set:
        ``device_ids`` the candidate device ids, ``incoming_bytes`` the
        new bytes the pair would bring to each candidate,
        ``free_bytes`` each candidate's free memory, ``compute_s`` its
        accumulated computation.  Returns the winning *device id*.

        The decision is exactly the paper's: normally least computation
        (ties → most free memory → lowest id); when placing the pair
        would evict on some candidate and ``eviction_sensitive`` is on,
        most free memory (ties → least computation → lowest id).  One
        strict-comparison scan over plain values replaces the per-
        candidate key tuples of :meth:`MiccoScheduler.select
        <repro.schedulers.micco.MiccoScheduler.select>`; the id is only
        compared when both keys tie, so the pick is the same for any
        candidate order.
        """
        n = len(device_ids)
        if n == 0:
            raise ConfigurationError("score_batch needs at least one candidate")
        evict = eviction_sensitive and any(map(gt, incoming_bytes, free_bytes))
        best = 0
        bf = free_bytes[0]
        bc = compute_s[0]
        if evict:
            for i in range(1, n):
                f = free_bytes[i]
                if f < bf:
                    continue
                c = compute_s[i]
                if f > bf or c < bc or (c == bc and device_ids[i] < device_ids[best]):
                    best, bf, bc = i, f, c
        else:
            for i in range(1, n):
                c = compute_s[i]
                if c > bc:
                    continue
                f = free_bytes[i]
                if c < bc or f > bf or (f == bf and device_ids[i] < device_ids[best]):
                    best, bf, bc = i, f, c
        return device_ids[best]


def lex_argmin(*keys: np.ndarray) -> int:
    """Index of the lexicographically smallest tuple across key arrays.

    ``keys`` are parallel arrays, most significant first — the
    vectorised equivalent of ``min(range(n), key=lambda i: tuple_i)``.
    Shared by CostGreedy's batch placement and the sharded router's
    digest scoring.
    """
    idx = None
    for key in keys:
        k = key if idx is None else key[idx]
        m = np.flatnonzero(k == k.min())
        idx = m if idx is None else idx[m]
        if idx.size == 1:
            break
    return int(idx[0])
