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

from repro.gpusim.cluster import ClusterState, lowest_id
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
        """The alive device with the least busy time plus
        :meth:`estimate_added_time`, ties to the lowest id.

        The terms that do not depend on the device (the output
        allocation, each distinct input's holders, source, allocation
        and host-copy time, the kernel time per peak rate) are taken
        once per pair; per device the estimate adds them in the same
        order as :meth:`estimate_added_time`, so every score has the
        same bits.
        """
        cm = self.cost_model
        compute = cluster.compute_s
        memop_s = cluster.memop_s
        devices = cluster.devices
        out_nbytes = pair.out.nbytes
        out_alloc = cm.alloc_time(out_nbytes)
        holders_map = cluster._holders
        # A ShardView narrows the mask to its devices, as its
        # ``devices_holding`` does.
        dmask = cluster._device_mask
        # (holder mask, nbytes, alloc seconds, nearest source or None,
        # host copy seconds or None) per distinct input.
        fetches = []
        seen: set[int] = set()
        for spec in pair.inputs:
            if spec.uid in seen:
                continue
            seen.add(spec.uid)
            holders = holders_map.get(spec.uid, 0) & dmask
            nbytes = spec.nbytes
            if holders:
                fetches.append((holders, nbytes, cm.alloc_time(nbytes), lowest_id(holders), None))
            else:
                fetches.append((holders, nbytes, cm.alloc_time(nbytes), None, cm.h2d_time(nbytes)))
        # ``kernel_time`` reads only the device's peak rate.
        kernel: dict[float, float] = {}
        best, best_t = None, 0.0
        # Lost devices are never candidates; alive is ascending and only
        # a strictly smaller score replaces the pick, so ties go to the
        # lowest id.
        for g in cluster.alive_ids():
            device = devices[g]
            added = kernel.get(device.peak_gflops)
            if added is None:
                added = kernel[device.peak_gflops] = cm.kernel_time(pair, device)
            incoming = out_nbytes
            memop = out_alloc
            for holders, nbytes, alloc, src, h2d in fetches:
                if holders >> g & 1:
                    continue
                if src is None:
                    memop += alloc + h2d
                else:
                    memop += alloc + cm.d2d_time(nbytes, src=src, dst=g)
                incoming += nbytes
            overflow = incoming - cluster.free_bytes(g)
            if overflow > 0:
                memop += cm.eviction_time(overflow)
            t = compute[g] + memop_s[g] + (added + cm.effective_memop_time(memop, added))
            if best is None or t < best_t:
                best, best_t = g, t
        if best is None:
            raise ValueError("no alive device to place the pair on")
        return best
