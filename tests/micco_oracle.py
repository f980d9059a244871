"""The paper-faithful form of MICCO's Alg. 1 + Alg. 2, for tests.

``MiccoScheduler.choose`` fuses the candidate queue (Alg. 1) and the
eviction-sensitive pick (Alg. 2) into one pass over holder masks.  The
functions here are the plain per-candidate form of the same algorithm:
one availability test and one residency probe per candidate.  The
property tests check that ``choose`` and
``select(sched, build_candidates(sched, ...), ...)`` always pick the
same device.  ``build_candidates`` counts the pair's reuse pattern on
``sched`` as ``choose`` does.
"""

from __future__ import annotations

from repro.errors import SchedulingError
from repro.gpusim.cluster import ClusterState
from repro.schedulers.micco import MiccoScheduler
from repro.schedulers.reuse_patterns import PATTERNS, classify_pair
from repro.tensor.spec import TensorPair


def incoming_bytes(pair: TensorPair, device_id: int, cluster: ClusterState) -> int:
    """New device bytes needed to run ``pair`` on ``device_id``.

    Counts each non-resident distinct input once plus the output.
    """
    total = pair.out.nbytes
    seen: set[int] = set()
    for spec in pair.inputs:
        if spec.uid in seen:
            continue
        seen.add(spec.uid)
        if not cluster.is_resident(spec.uid, device_id):
            total += spec.nbytes
    return total


def would_evict(pair: TensorPair, device_id: int, cluster: ClusterState) -> bool:
    """True if placing ``pair`` on ``device_id`` would trigger evictions."""
    return incoming_bytes(pair, device_id, cluster) > cluster.free_bytes(device_id)


def available(sched: MiccoScheduler, device_id: int, tier: int, cluster: ClusterState) -> bool:
    """The paper's availability test for reuse-bound ``tier``."""
    return cluster.assigned_slots[device_id] < sched.bounds[tier] + cluster.balance_num


def build_candidates(sched: MiccoScheduler, pair: TensorPair, cluster: ClusterState) -> list[int]:
    """Alg. 1 steps I–II: the candidate queue for ``pair``.

    Returned device ids are unique and in ascending order (the order
    itself never matters — Alg. 2 selects by cost, ties by id).
    """
    cls = classify_pair(pair, cluster)
    sched._pattern_tally[PATTERNS.index(cls.pattern)] += 1
    if sched.pattern_aware:
        # Step I: devices holding both tensors, under the tier-0 bound.
        candi = [g for g in sorted(cls.common_holders) if available(sched, g, 0, cluster)]
        if candi:
            return candi
        # Step II: devices holding one tensor, under the tier-1 bound.
        candi = [g for g in sorted(cls.any_holders) if available(sched, g, 1, cluster)]
        if candi:
            return candi
    # Fallback: any *surviving* device under the tier-2 bound.
    # (Steps I–II are alive-safe for free: lost devices hold no
    # tensors, so they never appear among the holders.)
    candi = [g for g in cluster.alive_ids() if available(sched, g, 2, cluster)]
    if candi:
        return candi
    # Defensive: with bounds >= 0 some device is always below the
    # balanced share mid-vector, but guard against degenerate
    # configurations (e.g. externally mutated counters).
    return cluster.alive_ids()


def select(
    sched: MiccoScheduler, candidates: list[int], pair: TensorPair, cluster: ClusterState
) -> int:
    """Alg. 2: computation-centric vs memory-eviction-sensitive pick."""
    if not candidates:
        raise SchedulingError("empty candidate queue")
    evict_flag = sched.eviction_sensitive and any(
        would_evict(pair, g, cluster) for g in candidates
    )
    compute = cluster.compute_s
    if not evict_flag:
        # Least computation; ties -> most free memory; ties -> lowest id.
        key = lambda g: (compute[g], -cluster.free_bytes(g), g)
    else:
        # Most free memory; ties -> least computation; ties -> lowest id.
        key = lambda g: (-cluster.free_bytes(g), compute[g], g)
    return min(candidates, key=key)
