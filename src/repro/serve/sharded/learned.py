"""Online learned routing: per-shard completion-latency prediction.

The three static policies in :mod:`repro.serve.sharded.routing` rank
shards by digest arithmetic — they can only see what a digest carries,
and digests are deliberately stale.  A shard silently slowed by a gray
fault (straggler, flapping node) looks exactly as attractive as a
healthy one until its queue depth finally shows up at the next
``DigestSync``.

:class:`LearnedRouting` closes that gap by *learning* each shard's
completion latency online.  Every placement snapshots a feature vector
(digest fields, their age, and the PR 7/9 health signals: suspicion
score, quarantine history, breaker state, corruption-blame EWMA, plus
ticket shape and residency overlap); when the ticket completes, the
observed route→completion latency labels the sample and feeds that
shard's :class:`~repro.ml.online.SlidingWindowRegressor`.  Routing
then goes to the argmin *predicted* latency.  A straggling shard
learns a high intercept within a handful of completions — long before
its digest betrays it — which is what makes ``sync_interval_s`` a
measurable staleness/accuracy knob.

Determinism contract: all randomness comes from one seeded
``numpy.random.Generator`` handed in by the server (derived from the
run seed), and exploration draws happen on a fixed schedule — exactly
one ``random()`` draw per warm ``choose`` call, none while cold — so
fixed-seed runs replay byte-identically.  Cold start (< ``min_samples``
observations on any candidate shard) falls back to the least-loaded
ranking without drawing RNG state.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.ml.online import SlidingWindowRegressor
from repro.serve.sharded.routing import (
    RoutingPolicy,
    ShardSnapshot,
    rank_shards,
    residency_overlap,
    vector_input_bytes,
)
from repro.utils.rng import as_generator

#: Feature vector layout, in order (one row per candidate shard).
FEATURE_NAMES = (
    "queue_depth",
    "inflight",
    "pending",
    "alive",
    "linkless",
    "suspect",
    "age_s",
    "suspicion",
    "quarantines",
    "breaker",
    "blame",
    "num_pairs",
    "num_tensors",
    "overlap_mib",
)

_MIB = 1024**2


def route_features(
    vector,
    snap: ShardSnapshot,
    uids: dict[int, int] | None = None,
    overlap: int | None = None,
) -> np.ndarray:
    """Feature row for placing ``vector`` on the shard behind ``snap``.

    ``uids`` is :func:`vector_input_bytes` of ``vector`` and ``overlap``
    its :func:`residency_overlap` with ``snap.residency``; callers that
    already have them pass them in to build them once.
    """
    if uids is None:
        uids = vector_input_bytes(vector)
    if overlap is None:
        overlap = residency_overlap(uids, snap.residency)
    return np.array(
        (
            snap.queue_depth,
            snap.inflight,
            snap.pending,
            snap.alive,
            float(snap.linkless),
            float(snap.suspect),
            snap.age_s,
            snap.suspicion,
            snap.quarantines,
            snap.breaker,
            snap.blame,
            len(vector.pairs),
            len(uids),
            overlap / _MIB,
        ),
        dtype=np.float64,
    )


class LearnedRouting(RoutingPolicy):
    """Route to the argmin predicted completion latency.

    One :class:`~repro.ml.online.SlidingWindowRegressor` per shard maps
    the placement-time feature row to the observed route→completion
    latency; per-shard models (rather than one global model with a
    shard id feature) let a single slow shard earn a high intercept
    without dragging its neighbours' predictions with it.

    While any candidate's model has fewer than ``min_samples``
    observations, ``choose`` falls back to the least-loaded ranking —
    and draws no RNG state, keeping the draw schedule deterministic.
    Once warm, each call draws once: with probability ``explore_floor``
    the pick is uniform over the candidates (so every shard keeps
    getting sampled and a recovered shard can be re-discovered),
    otherwise it is the argmin prediction, ties broken on the lowest
    node id.
    """

    name = "learned"
    wants_features = True

    def __init__(
        self,
        explore_floor: float = 0.05,
        min_samples: int = 24,
        refit_interval: int = 16,
        window: int = 512,
        seed=0,
    ):
        if not 0.0 <= explore_floor < 1.0:
            raise ConfigurationError(
                f"explore_floor must be in [0, 1), got {explore_floor}"
            )
        if min_samples < 2:
            raise ConfigurationError(
                f"min_samples must be >= 2, got {min_samples}"
            )
        if refit_interval < 1:
            raise ConfigurationError(
                f"refit_interval must be >= 1, got {refit_interval}"
            )
        self.explore_floor = float(explore_floor)
        self.min_samples = int(min_samples)
        self.refit_interval = int(refit_interval)
        self.window = int(window)
        self._rng = as_generator(seed)
        self._models: dict[int, SlidingWindowRegressor] = {}
        #: Decision counters, broken out by how the pick was made.
        self.decisions = 0
        self.learned_decisions = 0
        self.fallback_decisions = 0
        self.explored = 0
        #: Per-shard |predicted - observed| accumulators.
        self._abs_err: dict[int, float] = {}
        self._err_n: dict[int, int] = {}
        #: Trace-worthy moments (refits, warm-up) for the routing lanes.
        self.events: list[dict] = []
        self._warm = False
        self._last_kind = "fallback"
        # The last vector scored, its vector_input_bytes() and its
        # overlap with each shard's digest residency (node -> (residency,
        # overlap)): choose() and the note_placed() that follows share
        # one build of each.
        self._scored = (None, None, None)

    def _features(self, vector, snap: ShardSnapshot) -> np.ndarray:
        """:func:`route_features`, reusing the last vector's input map
        and its overlap with an unchanged digest."""
        last, uids, overlaps = self._scored
        if last is not vector:
            uids, overlaps = vector_input_bytes(vector), {}
            self._scored = (vector, uids, overlaps)
        residency = snap.residency
        hit = overlaps.get(snap.node)
        if hit is not None and hit[0] is residency:
            overlap = hit[1]
        else:
            overlap = residency_overlap(uids, residency)
            overlaps[snap.node] = (residency, overlap)
        return route_features(vector, snap, uids, overlap)

    def model(self, node: int) -> SlidingWindowRegressor:
        m = self._models.get(node)
        if m is None:
            m = SlidingWindowRegressor(
                window=max(self.window, self.min_samples),
                refit_interval=self.refit_interval,
                min_samples=max(2, min(self.min_samples, self.window)),
            )
            self._models[node] = m
        return m

    def choose(self, vector, snapshots: list[ShardSnapshot]) -> int:
        self.decisions += 1
        models = []
        for s in snapshots:
            # Models are created on first sight, so the scan stops at
            # the first cold one exactly as an ``any()`` would.
            m = self.model(s.node)
            if m.samples < self.min_samples:
                self.fallback_decisions += 1
                self._last_kind = "fallback"
                return rank_shards(snapshots)
            models.append(m)
        if self.explore_floor > 0.0:
            draw = float(self._rng.random())
        else:
            draw = 1.0
        if draw < self.explore_floor:
            self.explored += 1
            self._last_kind = "explore"
            pick = int(self._rng.integers(len(snapshots)))
            return snapshots[pick].node
        self.learned_decisions += 1
        self._last_kind = "learned"
        best_node, best_pred = None, None
        for snap, model in zip(snapshots, models):
            pred = model.predict_one(self._features(vector, snap))
            if pred is None:  # pragma: no cover - warm models always predict
                pred = float("inf")
            if (
                best_pred is None
                or pred < best_pred
                or (pred == best_pred and snap.node < best_node)
            ):
                best_node, best_pred = snap.node, pred
        return best_node

    # -- Router callbacks -------------------------------------------------

    def note_placed(self, ticket, snap: ShardSnapshot, now: float) -> None:
        """Record the pending sample for a just-placed ticket."""
        x = self._features(ticket.vector, snap)
        pred = self.model(snap.node).predict_one(x)
        ticket.route_sample = (snap.node, now, x, pred, self._last_kind)

    def note_outcome(self, ticket, now: float, *, completed: bool) -> None:
        """Label (or drop) the pending sample when the ticket resolves.

        Sheds, abandons, hedge-loser cancellations and reroutes arrive
        with ``completed=False``: their latency is not a completion
        latency, so the sample is dropped rather than poisoning the
        model.
        """
        sample = ticket.route_sample
        ticket.route_sample = None
        if sample is None or not completed:
            return
        node, t0, x, pred, kind = sample
        latency = now - t0
        model = self.model(node)
        was_cold = not self._warm
        refit = model.observe(x, latency)
        if pred is not None:
            self._abs_err[node] = self._abs_err.get(node, 0.0) + abs(
                pred - latency
            )
            self._err_n[node] = self._err_n.get(node, 0) + 1
        if refit:
            self.events.append({
                "time_s": now,
                "node": node,
                "kind": "refit",
                "label": (
                    f"refit #{model.refits} ({len(self._models)} models, "
                    f"{model.samples} samples)"
                ),
            })
        if was_cold and all(
            m.samples >= self.min_samples for m in self._models.values()
        ) and len(self._models) > 1:
            self._warm = True
            self.events.append({
                "time_s": now,
                "node": node,
                "kind": "warm",
                "label": f"cold start over: {len(self._models)} shard models "
                         f"at >= {self.min_samples} samples",
            })

    def summary(self) -> dict:
        """The ``result.routing`` report section."""
        per_shard = {}
        for node in sorted(self._models):
            m = self._models[node]
            n_err = self._err_n.get(node, 0)
            per_shard[str(node)] = {
                "samples": m.samples,
                "refits": m.refits,
                "mean_abs_err_ms": (
                    round(self._abs_err[node] / n_err * 1e3, 6)
                    if n_err else None
                ),
            }
        return {
            "policy": self.name,
            "explore_floor": self.explore_floor,
            "min_samples": self.min_samples,
            "refit_interval": self.refit_interval,
            "decisions": self.decisions,
            "learned": self.learned_decisions,
            "fallback": self.fallback_decisions,
            "explored": self.explored,
            "per_shard": per_shard,
        }

    def __repr__(self):
        return (
            f"LearnedRouting(explore_floor={self.explore_floor}, "
            f"min_samples={self.min_samples}, "
            f"refit_interval={self.refit_interval})"
        )
