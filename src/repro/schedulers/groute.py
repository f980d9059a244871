"""Groute-style baseline: earliest-available-device load balancing.

Models the scheduling discipline of Groute [Ben-Nun et al. 2017] and
similar multi-GPU frameworks as characterized by the paper: "assigns
jobs and associated data on the earliest available device to achieve
good load balance" — i.e. each incoming pair goes to the device that
will be free soonest (least accumulated busy time), with no awareness
of where the pair's tensors are resident.
"""

from __future__ import annotations

from repro.gpusim.cluster import ClusterState
from repro.schedulers.base import Scheduler
from repro.tensor.spec import TensorPair


class GrouteScheduler(Scheduler):
    """Earliest-available-device assignment (reuse-blind)."""

    name = "groute"

    def choose(self, pair: TensorPair, cluster: ClusterState) -> int:
        compute = cluster.compute_s
        memop = cluster.memop_s
        # Lowest busy time among surviving devices; alive is ascending
        # and ``min`` keeps the first minimum, so ties go to the lowest id.
        return min(cluster.alive_ids(), key=lambda g: compute[g] + memop[g])
