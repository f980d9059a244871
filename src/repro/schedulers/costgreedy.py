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

from repro.gpusim.cluster import ClusterState
from repro.gpusim.costmodel import CostModel
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

    def choose(self, pair: TensorPair, cluster: ClusterState) -> int:
        compute = cluster.compute_s
        memop = cluster.memop_s
        # Lost devices are never candidates; alive is ascending and
        # ``min`` keeps the first minimum, so ties go to the lowest id.
        return min(
            cluster.alive_ids(),
            key=lambda g: compute[g] + memop[g] + self.estimate_added_time(pair, g, cluster),
        )
