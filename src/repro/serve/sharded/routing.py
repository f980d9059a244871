"""Global-tier routing policies for the sharded control plane.

The :class:`~repro.serve.sharded.GlobalScheduler` routes each arriving
vector to one node shard.  It sees the cluster only through
:class:`ShardSnapshot` records — per-node digests refreshed every
``sync_interval_s`` simulated seconds plus the router's own count of
tickets it sent since the last sync — so every policy here must behave
under *stale* information: a digest may undercount a shard's backlog or
advertise residency that has since been evicted.  Policies therefore
only ever *rank* candidates; correctness (the ticket lands on an alive
shard with queue space, or is forwarded) is the router's job.

This module is intentionally a leaf — it imports nothing from the
serving loop — so :class:`~repro.serve.config.ServeConfig` can validate
routing names without a circular import.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field

from repro.errors import ConfigurationError

#: Routing policy names accepted by ``ServeConfig.routing`` and
#: ``micco serve --routing``.
ROUTING_POLICIES = (
    "least-loaded", "residency-affinity", "threshold-local", "learned"
)


def vector_input_bytes(vector) -> dict[int, int]:
    """``uid -> nbytes`` over the vector's distinct input tensors."""
    uids: dict[int, int] = {}
    for pair in vector.pairs:
        for spec in pair.inputs:
            uids.setdefault(spec.uid, spec.nbytes)
    return uids


def residency_overlap(uids: dict[int, int], residency: dict) -> int:
    """Bytes of the ``uids`` inputs resident in a digest's ``residency``."""
    # An integer sum, exact in any order.  ``uids`` is a vector's few
    # inputs and ``residency`` a node's hundreds of tensors: probing the
    # digest per input beats building a key-set intersection.
    return sum([nbytes for uid, nbytes in uids.items() if uid in residency])


def rank_shards(snapshots: list[ShardSnapshot], overlap: list[int] | None = None) -> int:
    """Winning node id under the shared lexicographic digest ranking.

    The key is ``(suspect, -overlap, linkless, backlog, node)`` —
    healthy before suspect, largest residency overlap first (a missing
    ``overlap`` counts as 0 everywhere), well-linked before degraded,
    smallest backlog, lowest node id.
    """
    if overlap is None:
        overlap = [0] * len(snapshots)
    best = min(
        range(len(snapshots)),
        key=lambda i: (
            snapshots[i].suspect,
            -overlap[i],
            snapshots[i].linkless,
            snapshots[i].backlog,
            snapshots[i].node,
        ),
    )
    return snapshots[best].node


@dataclass(slots=True)
class ShardSnapshot:
    """The router's (possibly stale) view of one node shard.

    Built for every candidate shard at every routing decision, so it is
    a plain slotted record: a frozen dataclass costs about three times as
    much to construct.  The scheduler fills the enriched fields right
    after construction; policies must treat it as read-only.

    ``queue_depth``/``inflight``/``residency`` come from the shard's
    last digest; ``pending`` is the router-side correction — tickets it
    routed to the shard *since* that digest — so the estimated backlog
    does not collapse to zero between syncs.  ``linkless`` marks a node
    degraded by a ``link_lost`` fault: alive, but every fetch into or
    out of it is host-staged, so policies deprioritise it.  ``suspect``
    marks a shard the health monitor no longer fully trusts (missed
    heartbeats); every policy ranks suspect shards after healthy ones,
    ahead only of link-degraded suspects.
    """

    node: int
    #: Alive devices the digest reported.
    alive: int
    queue_depth: int
    inflight: int
    linkless: bool = False
    #: Health monitor doubts this shard (suspicion above threshold).
    suspect: bool = False
    #: uid -> resident bytes on the shard's devices (digest summary).
    residency: dict = field(default_factory=dict)
    #: Tickets routed to this shard since its digest was taken.
    pending: int = 0
    #: --- Enriched features (filled only for ``wants_features`` policies;
    #: static policies never pay for them and never see them). ---
    #: Seconds since the digest was taken (staleness of everything above).
    age_s: float = 0.0
    #: Phi-accrual suspicion score from the health monitor.
    suspicion: float = 0.0
    #: Times this shard has entered quarantine so far.
    quarantines: int = 0
    #: Forwarding circuit-breaker state: 0 closed, 1 half-open, 2 open.
    breaker: int = 0
    #: Max corruption-blame EWMA over the shard's devices.
    blame: float = 0.0

    @property
    def backlog(self) -> int:
        """Estimated queued + in-flight work, stale-corrected."""
        return self.queue_depth + self.inflight + self.pending


class RoutingPolicy(ABC):
    """Ranks candidate shards for one vector.

    ``choose`` receives the candidate snapshots (already filtered to
    alive shards the router has not yet tried for this ticket) and must
    return one of their node ids.  Determinism rule: break every tie on
    the lowest node id, so fixed-seed runs replay bit for bit.
    """

    name: str = "?"
    #: Policies that opt in receive snapshots carrying the enriched
    #: feature fields (age, suspicion, quarantines, breaker, blame) and
    #: placement/outcome callbacks from the router.  Static policies
    #: leave this ``False`` so their snapshots — and artifacts — stay
    #: byte-identical to the pre-learned-routing code path.
    wants_features: bool = False

    @abstractmethod
    def choose(self, vector, snapshots: list[ShardSnapshot]) -> int:
        """Pick the target node id for ``vector`` from ``snapshots``."""

    def __repr__(self):
        return f"{type(self).__name__}()"


class LeastLoaded(RoutingPolicy):
    """Route to the shard with the smallest estimated backlog.

    Link-degraded nodes rank strictly after healthy ones (host-staged
    fetches are expensive): they receive traffic only when every
    candidate is degraded, or through full-queue forwarding.
    """

    name = "least-loaded"

    def choose(self, vector, snapshots: list[ShardSnapshot]) -> int:
        return rank_shards(snapshots)


class ResidencyAffinity(RoutingPolicy):
    """Route to the shard already holding the most referenced bytes.

    Overlap is summed over the vector's *distinct* input tensors
    against the digest's residency summary; a stale digest merely makes
    the overlap estimate wrong, never the placement invalid.  Ties (and
    zero-overlap vectors) fall back to least-loaded order.
    """

    name = "residency-affinity"

    def choose(self, vector, snapshots: list[ShardSnapshot]) -> int:
        uids = vector_input_bytes(vector)
        overlap = [residency_overlap(uids, snap.residency) for snap in snapshots]
        return rank_shards(snapshots, overlap)


class ThresholdLocal(RoutingPolicy):
    """Delegate to a home shard unless its backlog exceeds a bound.

    The home shard is a deterministic hash of the vector id over the
    candidate set, so steady-state traffic spreads without any load
    information at all; the router only pays attention (falling back to
    least-loaded) when the home's estimated backlog crosses
    ``threshold`` — the cheapest policy in control-plane work.
    """

    name = "threshold-local"

    def __init__(self, threshold: int = 4):
        if threshold < 0:
            raise ConfigurationError(f"threshold must be >= 0, got {threshold}")
        self.threshold = threshold

    def choose(self, vector, snapshots: list[ShardSnapshot]) -> int:
        ordered = sorted(snapshots, key=lambda s: s.node)
        home = ordered[vector.vector_id % len(ordered)]
        if not home.suspect and not home.linkless and home.backlog <= self.threshold:
            return home.node
        return rank_shards(snapshots)

    def __repr__(self):
        return f"ThresholdLocal(threshold={self.threshold})"


def make_routing_policy(name: str, **kwargs) -> RoutingPolicy:
    """Build a routing policy from its registry name."""
    if name == "least-loaded":
        return LeastLoaded()
    if name == "residency-affinity":
        return ResidencyAffinity()
    if name == "threshold-local":
        return ThresholdLocal(**kwargs)
    if name == "learned":
        # Imported lazily: learned.py pulls in repro.ml (numpy model
        # stack), and this module must stay a leaf for ServeConfig's
        # parse-time validation.
        from repro.serve.sharded.learned import LearnedRouting

        return LearnedRouting(**kwargs)
    raise ConfigurationError(
        f"unknown routing policy {name!r}; expected one of {ROUTING_POLICIES}"
    )
