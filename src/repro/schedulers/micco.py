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

from repro.gpusim.cluster import ClusterState, mask_ids
from repro.gpusim.costmodel import CostModel
from repro.schedulers.base import Scheduler
from repro.schedulers.bounds import ReuseBounds
from repro.schedulers.reuse_patterns import PATTERNS, ReusePattern
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
        self.set_bounds(bounds if bounds is not None else ReuseBounds.zeros())
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
        # ``choose`` reads a tier on every decision: indexing a plain
        # tuple skips a ``ReuseBounds.__getitem__`` call each time.
        self._thresholds = bounds.as_tuple()

    def begin_vector(self, vector: VectorSpec, cluster: ClusterState) -> None:
        # Per-vector balance counters are reset by the engine via
        # ``cluster.begin_vector``; nothing else to do here.
        pass

    def choose(self, pair: TensorPair, cluster: ClusterState) -> int:
        """Alg. 1 + Alg. 2 fused: one pass from holder masks to device.

        Equivalent to the plain per-candidate form of Alg. 1 and
        Alg. 2, one availability test and one residency probe per
        candidate (``tests/micco_oracle.py``; the property test in
        ``tests/test_placement_oracle.py`` checks the two agree on
        random cluster states).  Here the holder masks are read once and
        the candidate tier is remembered: tier-0 candidates hold *both*
        inputs, so their incoming bytes are the output alone and the
        per-candidate residency probes collapse to a constant.  Narrow
        candidate sets are scored inline; from
        :data:`VECTOR_MIN_CANDIDATES` devices up, by
        :meth:`CostModel.score_batch` on the same plain values.
        """
        holders_map = cluster._holders
        # A ShardView narrows ``_device_mask`` to its devices, as its
        # ``devices_holding`` does, so candidates never leave the shard.
        dmask = cluster._device_mask
        left_spec, right_spec = pair.left, pair.right
        lu = left_spec.uid
        ru = right_spec.uid
        left = holders_map.get(lu, 0) & dmask
        right = left if ru == lu else holders_map.get(ru, 0) & dmask
        # Pattern codes index ``PATTERNS``: twoRepeatedSame,
        # twoRepeatedDiff, oneRepeated, twoNew.
        if left and right:
            common = left & right
            self._pattern_tally[0 if common else 1] += 1
        else:
            common = 0
            self._pattern_tally[2 if (left or right) else 3] += 1

        slots = cluster.assigned_slots
        balance = cluster.balance_num
        bounds = self._thresholds
        candidates = None
        tier = 2
        if self.pattern_aware:
            if common:
                thr = bounds[0] + balance
                candi = [g for g in mask_ids(common) if slots[g] < thr]
                if candi:
                    candidates, tier = candi, 0
            if candidates is None and (left or right):
                thr = bounds[1] + balance
                candi = [g for g in mask_ids(left | right) if slots[g] < thr]
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
                    out_b + (0 if left >> g & 1 else l_nb) + (0 if right >> g & 1 else r_nb)
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
                    if not left >> g & 1:
                        inc += l_nb
                    if two and not right >> g & 1:
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
