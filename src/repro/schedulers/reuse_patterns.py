"""Local reuse patterns (paper §III-B1, Fig. 4).

An incoming tensor pair is classified against current GPU residency
into one of four patterns.  The pattern selects which reuse-bound tier
governs the availability test and which mappings (pair→GPU placements)
are considered.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.gpusim.cluster import ClusterState
from repro.tensor.spec import TensorPair


class ReusePattern(enum.Enum):
    """The four local reuse patterns of Fig. 4."""

    TWO_REPEATED_SAME = "twoRepeatedSame"
    TWO_REPEATED_DIFF = "twoRepeatedDiff"
    ONE_REPEATED = "oneRepeated"
    TWO_NEW = "twoNew"

    @property
    def tier(self) -> int:
        """Reuse-bound tier governing this pattern (Table II)."""
        if self is ReusePattern.TWO_REPEATED_SAME:
            return 0
        if self is ReusePattern.TWO_NEW:
            return 2
        return 1


#: The patterns in declaration order; a pattern's index here is its
#: integer code (``MiccoScheduler`` counts patterns by code).
PATTERNS: tuple[ReusePattern, ...] = tuple(ReusePattern)


@dataclass(frozen=True)
class PairClassification:
    """Classification result: pattern plus the holder sets it came from."""

    pattern: ReusePattern
    left_holders: frozenset[int]
    right_holders: frozenset[int]

    @property
    def common_holders(self) -> frozenset[int]:
        """Devices holding *both* tensors (mapping 1 candidates)."""
        return self.left_holders & self.right_holders

    @property
    def any_holders(self) -> frozenset[int]:
        """Devices holding at least one tensor (mapping 2–3 candidates)."""
        return self.left_holders | self.right_holders


def classify_pair(pair: TensorPair, cluster: ClusterState) -> PairClassification:
    """Classify ``pair`` against the cluster's current residency.

    ``twoRepeatedSame`` requires a single device holding both tensors;
    a pair whose tensors are resident only on *different* devices is
    ``twoRepeatedDiff``.  A pair referencing the same tensor twice is
    ``twoRepeatedSame`` wherever that tensor is resident.
    """
    left = cluster.devices_holding(pair.left.uid)
    right = cluster.devices_holding(pair.right.uid)
    if left & right:
        pattern = ReusePattern.TWO_REPEATED_SAME
    elif left and right:
        pattern = ReusePattern.TWO_REPEATED_DIFF
    elif left or right:
        pattern = ReusePattern.ONE_REPEATED
    else:
        pattern = ReusePattern.TWO_NEW
    return PairClassification(pattern=pattern, left_holders=left, right_holders=right)
