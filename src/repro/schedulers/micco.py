"""MICCO's heuristic scheduling algorithm (paper Alg. 1 + Alg. 2).

Step I–II (Alg. 1) build the candidate queue: first devices that hold
*both* tensors (data-centric, tier-0 bound), then devices holding one
tensor (tier-1), then any device (tier-2).  A device enters the queue
only if it passes the availability test
``assigned_slots[g] < reuseBd[tier] + balanceNum``.

Step III (Alg. 2) picks from the queue: normally the least-loaded
candidate (computation-centric policy); when assigning the pair would
oversubscribe some candidate, the candidate with the most free memory
(memory-eviction-sensitive policy).  Ties break on the secondary
criterion and then on the lowest device id — deterministic where the
paper uses ``random()``, so experiment runs are reproducible.
"""

from __future__ import annotations

from repro.errors import SchedulingError
from repro.gpusim.cluster import ClusterState
from repro.gpusim.costmodel import CostModel
from repro.schedulers.base import Scheduler
from repro.schedulers.bounds import ReuseBounds
from repro.schedulers.reuse_patterns import PATTERNS, ReusePattern, classify_pair
from repro.tensor.spec import TensorPair, VectorSpec

#: Shared default scoring model — Alg. 2 scoring only reads cluster
#: state, so a parameterless model serves every scheduler instance.
_DEFAULT_COST_MODEL = CostModel()

#: Candidate-set width from which Alg. 2 is scored by the cost-model
#: layer (:meth:`CostModel.score_batch`) instead of inline.  Both are the
#: same plain-value scan; the split only routes wide sets through the
#: cost-model layer entry, where the benchmark times it on its own.
#: Sending 2-11 wide sets through the same strict scan read 3 % slower
#: on the redstar-f0d2 bench workload, so narrow sets stay inline.
VECTOR_MIN_CANDIDATES = 12

#: Shared empty holder set for the classification fast path.
_EMPTY_SET: frozenset[int] = frozenset()


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


class MiccoScheduler(Scheduler):
    """The MICCO heuristic.

    Parameters
    ----------
    bounds:
        Initial reuse bounds.  ``ReuseBounds.zeros()`` gives the paper's
        *MICCO-naive*; per-vector bounds from the regression model give
        *MICCO-optimal* (set via :meth:`set_bounds`, typically by the
        driving session before each vector).
    pattern_aware:
        Ablation switch: when False, steps I–II are skipped and every
        pair is treated as ``twoNew`` (pure balance-constrained
        placement) — isolates the contribution of the data-centric
        policy.
    eviction_sensitive:
        Ablation switch: when False, Alg. 2 always uses the
        computation-centric selection, even when a candidate would
        evict — isolates the memory-eviction-sensitive policy.
    """

    name = "micco"

    def __init__(
        self,
        bounds: ReuseBounds | None = None,
        *,
        pattern_aware: bool = True,
        eviction_sensitive: bool = True,
        cost_model: CostModel | None = None,
    ):
        self.bounds = bounds if bounds is not None else ReuseBounds.zeros()
        self.pattern_aware = pattern_aware
        self.eviction_sensitive = eviction_sensitive
        #: Scoring model for the vectorised Alg. 2 selection.
        self.cost_model = cost_model or _DEFAULT_COST_MODEL
        # Pattern histogram: slot i counts ``PATTERNS[i]``.  An int list
        # indexed by a pattern code skips ``Enum.__hash__`` per pair.
        self._pattern_tally = [0] * len(PATTERNS)

    @property
    def pattern_counts(self) -> dict[ReusePattern, int]:
        """Pattern histogram, for introspection/experiments (a fresh dict)."""
        return dict(zip(PATTERNS, self._pattern_tally))

    def set_bounds(self, bounds: ReuseBounds) -> None:
        """Install the reuse bounds for subsequent decisions."""
        self.bounds = bounds

    def begin_vector(self, vector: VectorSpec, cluster: ClusterState) -> None:
        # Per-vector balance counters are reset by the engine via
        # ``cluster.begin_vector``; nothing else to do here.
        pass

    # -------------------------------------------------------------- Alg. 1
    def _available(self, device_id: int, tier: int, cluster: ClusterState) -> bool:
        """The paper's availability test for reuse-bound ``tier``."""
        return cluster.assigned_slots[device_id] < self.bounds[tier] + cluster.balance_num

    def build_candidates(self, pair: TensorPair, cluster: ClusterState) -> list[int]:
        """Alg. 1 steps I–II: the candidate queue for ``pair``.

        The plain paper-faithful form, one availability test per
        candidate.  :meth:`choose` fuses this with :meth:`select`; the
        two must always agree.  Returned device ids are unique and in
        ascending order (the order itself never matters — Alg. 2 selects
        by cost, ties by id).
        """
        cls = classify_pair(pair, cluster)
        self._pattern_tally[PATTERNS.index(cls.pattern)] += 1
        if self.pattern_aware:
            # Step I: devices holding both tensors, under the tier-0 bound.
            candi = [g for g in sorted(cls.common_holders) if self._available(g, 0, cluster)]
            if candi:
                return candi
            # Step II: devices holding one tensor, under the tier-1 bound.
            candi = [g for g in sorted(cls.any_holders) if self._available(g, 1, cluster)]
            if candi:
                return candi
        # Fallback: any *surviving* device under the tier-2 bound.
        # (Steps I–II are alive-safe for free: lost devices hold no
        # tensors, so they never appear among the holders.)
        candi = [g for g in cluster.alive_ids() if self._available(g, 2, cluster)]
        if candi:
            return candi
        # Defensive: with bounds >= 0 some device is always below the
        # balanced share mid-vector, but guard against degenerate
        # configurations (e.g. externally mutated counters).
        return cluster.alive_ids()

    # -------------------------------------------------------------- Alg. 2
    def select(self, candidates: list[int], pair: TensorPair, cluster: ClusterState) -> int:
        """Alg. 2: computation-centric vs memory-eviction-sensitive pick."""
        if not candidates:
            raise SchedulingError("empty candidate queue")
        evict_flag = self.eviction_sensitive and any(
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

    def choose(self, pair: TensorPair, cluster: ClusterState) -> int:
        """Alg. 1 + Alg. 2 fused: one pass from holder sets to device.

        Equivalent to ``select(build_candidates(pair, cluster), ...)``
        (``tests/test_placement_oracle.py`` checks that on random
        cluster states), but the holder sets are read once and the
        candidate tier is remembered: tier-0 candidates hold *both*
        inputs, so their incoming bytes are the output alone and the
        per-candidate residency probes collapse to a constant.  Narrow
        candidate sets are scored inline; from
        :data:`VECTOR_MIN_CANDIDATES` devices up, by
        :meth:`CostModel.score_batch` on the same plain values.
        """
        holders_map = cluster._holders
        # A ShardView carries ``_device_set``; its ``devices_holding``
        # scopes holders to the shard, and reading the raw holder map
        # must apply the same scoping or candidates leak off-shard.
        dset = getattr(cluster, "_device_set", None)
        left_spec, right_spec = pair.left, pair.right
        lu = left_spec.uid
        ru = right_spec.uid
        left = holders_map.get(lu) or _EMPTY_SET
        if dset is not None and left:
            left = left & dset
        if ru == lu:
            right = left
        else:
            right = holders_map.get(ru) or _EMPTY_SET
            if dset is not None and right:
                right = right & dset
        # Pattern codes index ``PATTERNS``: twoRepeatedSame,
        # twoRepeatedDiff, oneRepeated, twoNew.
        if left and right:
            common = left & right
            self._pattern_tally[0 if common else 1] += 1
        else:
            common = _EMPTY_SET
            self._pattern_tally[2 if (left or right) else 3] += 1

        slots = cluster.assigned_slots
        balance = cluster.balance_num
        bounds = self.bounds
        candidates = None
        tier = 2
        if self.pattern_aware:
            if common:
                thr = bounds[0] + balance
                candi = [g for g in sorted(common) if slots[g] < thr]
                if candi:
                    candidates, tier = candi, 0
            if candidates is None and (left or right):
                any_h = left | right
                thr = bounds[1] + balance
                candi = [g for g in sorted(any_h) if slots[g] < thr]
                if candi:
                    candidates, tier = candi, 1
        if candidates is None:
            thr = bounds[2] + balance
            candi = [g for g in cluster.alive_ids() if slots[g] < thr]
            candidates = candi if candi else cluster.alive_ids()

        n = len(candidates)
        if n == 1:
            return candidates[0]
        pools = cluster.pools
        free = [pools[g].free_bytes for g in candidates]
        compute = cluster.compute_s
        out_b = pair.out.nbytes
        if n >= VECTOR_MIN_CANDIDATES:
            if tier == 0:
                incoming = [out_b] * n
            else:
                l_nb = left_spec.nbytes
                r_nb = right_spec.nbytes if ru != lu else 0
                incoming = [
                    out_b + (0 if g in left else l_nb) + (0 if g in right else r_nb)
                    for g in candidates
                ]
            return self.cost_model.score_batch(
                candidates,
                incoming,
                free,
                [compute[g] for g in candidates],
                eviction_sensitive=self.eviction_sensitive,
            )

        evict = False
        if self.eviction_sensitive:
            if tier == 0:
                # Both inputs resident on every candidate.
                for i in range(n):
                    if out_b > free[i]:
                        evict = True
                        break
            else:
                two = ru != lu
                l_nb = left_spec.nbytes
                r_nb = right_spec.nbytes
                for i, g in enumerate(candidates):
                    inc = out_b
                    if g not in left:
                        inc += l_nb
                    if two and g not in right:
                        inc += r_nb
                    if inc > free[i]:
                        evict = True
                        break
        best = None
        best_key = None
        for i, g in enumerate(candidates):
            key = (-free[i], compute[g], g) if evict else (compute[g], -free[i], g)
            if best_key is None or key < best_key:
                best, best_key = g, key
        return best

    def reset_stats(self) -> None:
        self._pattern_tally[:] = [0] * len(PATTERNS)
