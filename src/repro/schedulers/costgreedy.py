"""Cost-model-aware greedy scheduler (an upper baseline for MICCO).

For each pair, estimates the *actual completion time* on every device —
current busy time plus the fetches this placement would trigger, the
output allocation, predicted eviction cost, and the kernel — and picks
the minimum.  This is what an oracle-with-perfect-cost-model greedy
can do: stronger than Groute (it sees data placement) and than MICCO's
O(1)-per-candidate tests (it prices each candidate exactly), but
correspondingly heavier: every decision walks all devices and touches
the full cost model.

MICCO's pitch is getting most of this quality at a fraction of the
decision cost; the ablation bench quantifies both sides.
"""

from __future__ import annotations

import numpy as np

from repro.gpusim.cluster import ClusterState
from repro.gpusim.costmodel import CostModel, lex_argmin
from repro.schedulers.base import Scheduler
from repro.tensor.spec import TensorPair


class CostGreedyScheduler(Scheduler):
    """Minimum-estimated-completion-time placement.

    Parameters
    ----------
    cost_model:
        Must match the engine's cost model for the estimates to be
        exact (they are, up to eviction-victim prediction).
    """

    name = "cost-greedy"

    def __init__(self, cost_model: CostModel | None = None):
        self.cost_model = cost_model or CostModel()

    def estimate_added_time(self, pair: TensorPair, device_id: int, cluster: ClusterState) -> float:
        """Simulated seconds this placement adds to ``device_id``."""
        cm = self.cost_model
        added = cm.kernel_time(pair, cluster.devices[device_id])
        incoming = pair.out.nbytes
        memop = cm.alloc_time(pair.out.nbytes)
        seen: set[int] = set()
        for spec in pair.inputs:
            if spec.uid in seen or cluster.is_resident(spec.uid, device_id):
                continue
            seen.add(spec.uid)
            holders = cluster.devices_holding(spec.uid)
            if holders:
                src = min(holders)
                memop += cm.alloc_time(spec.nbytes) + cm.d2d_time(spec.nbytes, src=src, dst=device_id)
            else:
                memop += cm.alloc_time(spec.nbytes) + cm.h2d_time(spec.nbytes)
            incoming += spec.nbytes
        # Predicted eviction cost: bytes that must leave to fit.
        overflow = incoming - cluster.free_bytes(device_id)
        if overflow > 0:
            memop += cm.eviction_time(overflow)
        return added + cm.effective_memop_time(memop, added)

    def estimate_added_time_batch(self, pair: TensorPair, cluster: ClusterState) -> "np.ndarray":
        """:meth:`estimate_added_time` for every *surviving* device, vectorised.

        Entry ``i`` is the estimate for ``cluster.alive_ids()[i]``.
        Kernel time and the output allocation are device-independent,
        so they are computed once; per-device terms (input fetches,
        predicted eviction overflow) come from the cluster's batch
        reads and one array pass through the cost model.
        """
        cm = self.cost_model
        alive = cluster.alive_ids()
        n = len(alive)
        added = np.fromiter(
            (cm.kernel_time(pair, cluster.devices[g]) for g in alive),
            dtype=np.float64, count=n,
        )
        incoming = np.full(n, pair.out.nbytes, dtype=np.int64)
        memop = np.full(n, cm.alloc_time(pair.out.nbytes), dtype=np.float64)
        left, right = pair.left, pair.right
        inputs = (left,) if right.uid == left.uid else (left, right)
        for spec in inputs:
            holders = cluster.devices_holding(spec.uid)
            alloc = cm.alloc_time(spec.nbytes)
            if holders:
                src = min(holders)
                for i, g in enumerate(alive):
                    if g in holders:
                        continue
                    memop[i] += alloc + cm.d2d_time(spec.nbytes, src=src, dst=g)
                    incoming[i] += spec.nbytes
            else:
                memop += alloc + cm.h2d_time(spec.nbytes)
                incoming += spec.nbytes
        overflow = incoming - cluster.free_bytes_batch(alive)
        for i in np.flatnonzero(overflow > 0):
            memop[i] += cm.eviction_time(int(overflow[i]))
        return added + np.maximum(memop - cm.overlap_fraction * added, 0.0)

    def choose(self, pair: TensorPair, cluster: ClusterState) -> int:
        # Lost devices are never candidates; alive is ascending, so the
        # first minimum is the lowest id.
        alive = cluster.alive_ids()
        totals = cluster.busy_s[alive] + self.estimate_added_time_batch(pair, cluster)
        return alive[lex_argmin(totals)]
