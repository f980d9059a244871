"""Two-level sharded control plane: a global router over node schedulers.

:class:`ShardedServer` splits the single serving control loop into a
*global tier* (:class:`GlobalScheduler`: admission + routing from stale
per-node digests) and one :class:`~repro.serve.sharded.node.NodeRuntime`
per topology node, each running its own admission queue, MICCO
reuse-bound placement and batching over only its node's devices.  The
whole plane still executes on one deterministic
:class:`~repro.serve.timeline.Timeline`, so fixed-seed runs replay bit
for bit; what changes is the *scope* of every control decision:

* arrivals are routed (``least-loaded`` / ``residency-affinity`` /
  ``threshold-local`` / ``learned`` — see
  :mod:`repro.serve.sharded.learned`) to a shard, forwarded to the
  next-best shard when the target's queue is full;
* each shard batches and places only over its own devices — the
  balance share, the reuse bounds and the candidate tiers are all
  shard-local;
* node runtimes report load/residency digests every
  :attr:`~repro.serve.config.ServeConfig.sync_interval_s`; between
  syncs the router works from stale summaries, corrected only by its
  own routing decisions;
* a ``node_lost`` fault kills exactly one shard — its queued tickets
  re-route through the global tier (arrival timestamps intact, so
  per-tenant SLO accounting stays exact) and its in-flight work is
  re-executed on a surviving shard chosen by the router;
* a ``link_lost`` fault degrades a shard without killing it: the
  router deprioritises it and its cross-node fetches are host-staged.

Tensors still live in one shared
:class:`~repro.gpusim.cluster.ClusterState`; a vector routed away from
its data pays real ``cross_node_fetches`` through the cost model
rather than being silently co-located.
"""

from __future__ import annotations

import copy

import numpy as np

from repro.core.config import MiccoConfig
from repro.errors import ConfigurationError
from repro.schedulers.base import Scheduler
# Kept as module globals although the loop and the stream set-up live in
# repro.serve.server: bench/layers.py traces batching and workload
# generation by patching them in both modules.
from repro.schedulers.batching import merge_vectors, split_assignment  # noqa: F401
from repro.serve.health import CircuitBreaker, HealthMonitor
from repro.serve.queueing import AdmissionQueue
from repro.serve.config import ServeConfig
from repro.serve.server import MiccoServer
from repro.serve.sharded.node import NodeRuntime, ShardView
from repro.serve.sharded.routing import RoutingPolicy, ShardSnapshot, make_routing_policy
from repro.serve.tenancy import build_streams  # noqa: F401
from repro.serve.timeline import Ticket
from repro.tensor.spec import VectorSpec
from repro.workloads.characteristics import CharacteristicsTracker

#: Circuit-breaker state encoded as a routing feature.
_BREAKER_CODE = {
    CircuitBreaker.CLOSED: 0,
    CircuitBreaker.HALF_OPEN: 1,
    CircuitBreaker.OPEN: 2,
}


class GlobalScheduler:
    """The global routing tier: stale digests in, shard choices out.

    Holds the per-node digests refreshed at every
    :class:`~repro.serve.timeline.DigestSync` and the routing policy.
    Between syncs each shard's estimated backlog is its last digest
    plus the tickets routed there since (``routed_since_sync``) — the
    router corrects for its *own* actions but not for completions it
    has not heard about, exactly the coordination gap of a real
    two-level control plane.

    Announced shard *death* is visible immediately (fail-stop faults
    carry their own notification): a dead shard never receives traffic,
    however stale its last digest.  *Gray* failures are not announced —
    an unreachable shard's digest simply stops refreshing (see
    :meth:`sync`) and only the attached :class:`HealthMonitor` can get
    the shard out of the routing set.
    """

    def __init__(
        self,
        shards: dict[int, NodeRuntime],
        policy: RoutingPolicy,
        sync_interval_s: float,
    ):
        self.shards = shards
        self.policy = policy
        self.sync_interval_s = sync_interval_s
        #: node -> last :class:`NodeDigest` (dropped when a shard dies).
        self.digests: dict = {}
        #: Optional :class:`~repro.serve.health.HealthMonitor`; when set,
        #: suspect shards are deprioritized and quarantined/probation
        #: shards excluded from routing (with a never-strand fallback).
        self.monitor: HealthMonitor | None = None
        #: Per-node forwarding breakers (set by the server when health
        #: is on); read here only as a ``wants_features`` routing input.
        self.breakers: dict[int, CircuitBreaker] = {}
        #: Optional ``node -> corruption-blame EWMA`` callable (set by
        #: the server when the integrity layer is on).
        self.blame_of = None
        #: Digest refreshes performed.
        self.syncs = 0
        #: Full-queue forward hops (ticket bounced to the next shard).
        self.forwards = 0
        #: Tickets re-homed after their shard died.
        self.reroutes = 0
        # (now, candidate snapshots) of the last route(): the charge()
        # that commits its pick reuses the chosen shard's snapshot.
        self._routed = (None, ())

    def sync(self, now: float, linkless_devices=frozenset(), unreachable=frozenset()) -> None:
        """Refresh every *reachable* live shard's digest.

        ``unreachable`` names shards that exist but cannot report right
        now (gray failures: every device down in a ``node_flap`` phase,
        or silenced by ``heartbeat_loss``).  Their digests are kept
        *stale* rather than refreshed or dropped — the router keeps
        routing on old information, exactly the failure mode health
        inference exists to catch.  Router-side ``routed_since_sync``
        corrections are likewise kept for unreachable shards.
        """
        self.syncs += 1
        for node in sorted(self.shards):
            shard = self.shards[node]
            if shard.dead:
                self.digests.pop(node, None)
                continue
            if node in unreachable:
                continue
            self.digests[node] = shard.digest(now, linkless_devices)
            shard.routed_since_sync = 0
            shard.completed_since_sync = 0
            shard.sync_epoch += 1

    def _snapshot(self, node: int, digest, now: float) -> ShardSnapshot:
        """The last digest plus the router-side ``routed_since_sync``
        correction, enriched only for ``wants_features`` policies (static
        policies get the enriched fields' defaults)."""
        monitor = self.monitor
        # Positional, in field order (node, alive, queue_depth, inflight,
        # linkless, suspect, residency, pending): passing the eight by
        # keyword costs more than twice as much, once per candidate shard
        # per routing decision.
        snap = ShardSnapshot(
            node,
            digest.alive,
            digest.queue_depth,
            digest.inflight,
            digest.linkless,
            monitor is not None and monitor.is_suspect(node),
            digest.residency,
            self.shards[node].routed_since_sync,
        )
        if not self.policy.wants_features:
            return snap
        snap.age_s = max(now - digest.time_s, 0.0)
        if monitor is not None:
            snap.suspicion = monitor.suspicion(node, now)
            snap.quarantines = monitor.quarantine_count(node)
        breaker = self.breakers.get(node)
        if breaker is not None:
            snap.breaker = _BREAKER_CODE[breaker.state]
        if self.blame_of is not None:
            snap.blame = self.blame_of(node)
        return snap

    def route(self, vector: VectorSpec, now: float, exclude=frozenset()) -> int | None:
        """Choose a live shard for ``vector``; ``None`` when none remain.

        Routing state is *not* charged here: the caller commits the
        choice (queue offer or direct dispatch) and calls
        :meth:`charge` only on success, so a full-queue rejection does
        not inflate the shard's estimated backlog.

        With a health monitor attached, quarantined/probation/dead
        shards are excluded outright and suspect shards are flagged so
        every policy deprioritizes them; when exclusion would leave no
        candidate at all, the excluded set is used as a fallback —
        routing never strands a ticket that some shard could still take.
        """
        monitor = self.monitor
        routable: list = []
        avoided: list = []
        for node, digest in sorted(self.digests.items()):
            if node in exclude or self.shards[node].dead:
                continue
            snap = self._snapshot(node, digest, now)
            if monitor is not None and monitor.is_unroutable(node):
                avoided.append(snap)
            else:
                routable.append(snap)
        candidates = routable or avoided
        if not candidates:
            return None
        self._routed = (now, candidates)
        return self.policy.choose(vector, candidates)

    # ------------------------------------------- between-sync charge ledger
    def charge(self, ticket: Ticket, node: int, now: float) -> None:
        """Count a committed placement in the shard's stale correction.

        Every successful placement charges — direct dispatch, queue
        admission, forward landings, re-routes and hedge clones alike —
        because all of them are load the digest has not seen yet.  The
        ticket records which shard (and which digest epoch) it charged
        so :meth:`discharge` can reverse exactly this correction if the
        ticket later leaves the shard without completing.
        """
        shard = self.shards[node]
        shard.routed_since_sync += 1
        ticket.charge_node = node
        ticket.charge_epoch = shard.sync_epoch
        if self.policy.wants_features:
            digest = self.digests.get(node)
            if digest is not None:
                self.policy.note_placed(ticket, self._placed_snapshot(node, digest, now), now)

    def _placed_snapshot(self, node: int, digest, now: float) -> ShardSnapshot:
        """The snapshot :meth:`route` built for ``node`` at ``now``,
        brought up to date, or a fresh one when there is none.

        Between a ``route`` and the ``charge`` that commits its pick,
        ``place()`` changes only the router's ``pending`` count (this
        charge) and the shard's forwarding breaker (``allow`` and
        ``record_success``); digests, health and blame stay as they
        were, so only those two fields are refreshed.
        """
        routed_at, candidates = self._routed
        self._routed = (None, ())
        if routed_at == now:
            for snap in candidates:
                if snap.node == node:
                    snap.pending = self.shards[node].routed_since_sync
                    breaker = self.breakers.get(node)
                    if breaker is not None:
                        snap.breaker = _BREAKER_CODE[breaker.state]
                    return snap
        return self._snapshot(node, digest, now)

    def discharge(self, ticket: Ticket, now: float) -> None:
        """Reverse a ticket's pending charge (shed/abandon/cancel/reroute).

        A charge stamped under a superseded digest epoch was already
        wiped by the sync-time counter reset, so only a current-epoch
        charge decrements; either way the ticket's charge is cleared
        and any pending learned-routing sample is dropped (its latency
        would not be a completion latency).
        """
        node = ticket.charge_node
        if node is None:
            return
        ticket.charge_node = None
        shard = self.shards.get(node)
        if (
            shard is not None
            and not shard.dead
            and ticket.charge_epoch == shard.sync_epoch
            and shard.routed_since_sync > 0
        ):
            shard.routed_since_sync -= 1
        ticket.charge_epoch = -1
        if self.policy.wants_features:
            self.policy.note_outcome(ticket, now, completed=False)

    def note_completion(self, ticket: Ticket, now: float) -> None:
        """Settle a charged ticket's ledger entry on completion.

        The completion does *not* decrement ``routed_since_sync`` —
        the router deliberately never corrects for completions it has
        not heard about (the two-level coordination gap) — it only
        moves the charge to ``completed_since_sync`` so the sync-time
        conservation audit can reconcile the counters exactly.
        """
        node = ticket.charge_node
        if node is not None:
            shard = self.shards.get(node)
            if (
                shard is not None
                and not shard.dead
                and ticket.charge_epoch == shard.sync_epoch
            ):
                shard.completed_since_sync += 1
            ticket.charge_node = None
            ticket.charge_epoch = -1
        if self.policy.wants_features:
            self.policy.note_outcome(ticket, now, completed=True)


class ShardedServer(MiccoServer):
    """Sharded-control-plane mode of :class:`MiccoServer`.

    Requires a multi-node :class:`~repro.gpusim.topology.Topology` on
    the cost model — each topology node becomes one shard.  The serving
    knobs come from the same :class:`~repro.serve.config.ServeConfig`
    (``sync_interval_s``, ``routing``); tenants and the autoscaler are
    applied *per shard* (weighted-fair admission inside each shard's
    queue, the autoscaler config clamped to each shard's device count).
    The event loop and :meth:`~repro.serve.server.MiccoServer.run` are
    shared with :class:`MiccoServer`; this class only supplies the
    topology shards and the :class:`GlobalScheduler` in front of them.

    Example
    -------
    >>> topo = Topology(num_devices=8, devices_per_node=4)
    >>> cfg = MiccoConfig(num_devices=8, cost_model=CostModel(topology=topo))
    >>> serve = ServeConfig(sharded=True, routing="residency-affinity")
    >>> result = make_server(serve, cluster=cfg).run(vectors, arrivals)
    >>> result.sharding["shards"][0]["routed"]
    """

    def __init__(
        self,
        scheduler: Scheduler | None = None,
        config: MiccoConfig | None = None,
        serve: ServeConfig | None = None,
        predictor=None,
    ):
        super().__init__(scheduler, config, serve, predictor)
        topo = self.config.cost_model.topology
        if topo is None:
            raise ConfigurationError(
                "ShardedServer needs a multi-node Topology on the cost model "
                "(set CostModel(topology=Topology(...)) on MiccoConfig)"
            )
        if topo.num_devices != self.cluster.num_devices:
            raise ConfigurationError(
                f"topology covers {topo.num_devices} devices but the cluster "
                f"has {self.cluster.num_devices}"
            )
        self.topology = topo

    # ----------------------------------------------------------- shard set-up
    def _build_shards(self, streams) -> dict[int, NodeRuntime]:
        """One :class:`NodeRuntime` per topology node."""
        cfg = self.serve_config
        shards: dict[int, NodeRuntime] = {}
        for node in range(self.topology.num_nodes):
            devices = self.topology.devices_of_node(node)
            shards[node] = NodeRuntime(
                node=node,
                devices=devices,
                view=ShardView(self.cluster, devices),
                scheduler=copy.deepcopy(self.scheduler),
                queue=AdmissionQueue(cfg.queue_capacity, self._resolve_policy(streams)),
                tracker=CharacteristicsTracker(),
                autoscaler=cfg.autoscaler,
            )
        return shards

    def _make_router(self, shards: dict[int, NodeRuntime], seed) -> GlobalScheduler:
        cfg = self.serve_config
        policy_kwargs = {}
        if cfg.routing == "learned":
            # The exploration stream derives from the run seed, so the
            # learned policy replays byte-identically at a fixed seed.
            entropy = (seed if isinstance(seed, int) else 0) & 0xFFFF_FFFF
            policy_kwargs = dict(
                explore_floor=cfg.explore_floor,
                min_samples=cfg.min_samples,
                refit_interval=cfg.refit_interval,
                seed=np.random.SeedSequence([0x1EA4, entropy]),
            )
        return GlobalScheduler(
            shards, make_routing_policy(cfg.routing, **policy_kwargs), cfg.sync_interval_s
        )
