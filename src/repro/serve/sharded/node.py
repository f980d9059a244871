"""Per-node local scheduling runtime for the sharded control plane.

A :class:`NodeRuntime` is one node's slice of the serving machinery:
its own bounded :class:`~repro.serve.queueing.AdmissionQueue`, its own
copy of the placement scheduler (MICCO reuse-bound state is per-shard),
and a :class:`ShardView` that scopes the shared
:class:`~repro.gpusim.cluster.ClusterState` down to the node's devices.
The runtime never sees other nodes' queues; coordination happens only
through the digests it reports to the global tier
(:meth:`NodeRuntime.digest`) on the configured sync interval.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import SchedulingError
from repro.gpusim.cluster import ClusterState, mask_ids
from repro.serve.autoscale import Autoscaler, AutoscalerConfig
from repro.serve.queueing import AdmissionQueue


class ShardView:
    """A node-scoped façade over the shared :class:`ClusterState`.

    Schedulers run unmodified against this view: every attribute
    delegates to the global cluster, but the *candidate-generating*
    surface — ``alive_ids``, ``num_alive``, ``devices_holding`` and the
    per-vector balance window (``begin_vector``) — is restricted to the
    shard's devices, so MICCO's Alg. 1/2 can only ever place pairs
    inside the shard.  The balance share ``balanceNum`` spreads each
    vector over the shard's survivors, not the whole cluster.

    The view is safe because the sharded server reuses the *single*
    deterministic timeline: exactly one scheduling round runs at a
    time, so the global ``assigned_slots``/``balance_num`` counters the
    view resets are never shared between concurrent rounds.
    """

    def __init__(self, cluster: ClusterState, devices):
        self._cluster = cluster
        self.devices = tuple(sorted(int(d) for d in devices))
        if not self.devices:
            raise SchedulingError("a shard view needs at least one device")
        # The placement hot path reads these per pair.  The cluster never
        # rebinds its counter lists (``reset()`` and ``begin_vector()``
        # clear them in place), so they are bound once instead of
        # delegated through ``__getattr__``.
        # ``balance_num`` and ``journal`` are rebound, so they are read
        # through on every access.
        self.pools = cluster.pools
        self.compute_s = cluster.compute_s
        self.memop_s = cluster.memop_s
        self.assigned_slots = cluster.assigned_slots
        self._holders = cluster._holders
        # Bitmask of the shard's devices: ``devices_holding`` and the
        # schedulers that read holder masks directly narrow them with it.
        self._device_mask = sum(1 << d for d in set(self.devices))
        # (the shard's alive mask, its ids): rebuilt when the mask moves.
        self._alive_memo = (None, [])

    def __getattr__(self, name):
        # Anything not shard-scoped (free_bytes, is_resident,
        # record_assignment, journal, ...) is the global state.
        return getattr(self._cluster, name)

    @property
    def balance_num(self) -> float:
        # Read per placement; a property skips the failed lookup that
        # precedes every ``__getattr__`` fallback.
        return self._cluster.balance_num

    # ---------------------------------------------------- shard-scoped surface
    def alive_ids(self) -> list[int]:
        """The shard's alive device ids, ascending (cached; read-only)."""
        mask = self._cluster.alive_mask & self._device_mask
        key, ids = self._alive_memo
        if key != mask:
            ids = list(mask_ids(mask))
            self._alive_memo = (mask, ids)
        return ids

    @property
    def num_alive(self) -> int:
        return len(self.alive_ids())

    def devices_holding(self, uid: int) -> frozenset[int]:
        """Holders *inside the shard* — candidates must stay local.

        The execution engine still fetches from the globally cheapest
        holder, so a vector routed away from its data pays the
        cross-node transfer through the cost model rather than being
        silently co-located.
        """
        return frozenset(mask_ids(self._holders.get(uid, 0) & self._device_mask))

    def begin_vector(self, num_tensors: int) -> None:
        """Shard-local balance window: spread over the shard's survivors."""
        if num_tensors <= 0:
            raise SchedulingError(
                f"vector must have positive tensor slots, got {num_tensors}"
            )
        alive = self.num_alive
        if alive == 0:
            raise SchedulingError("cannot begin a vector: the shard has no alive devices")
        self.assigned_slots[:] = [0] * len(self.assigned_slots)
        self._cluster.balance_num = num_tensors / alive


@dataclass(frozen=True)
class NodeDigest:
    """One shard's load/residency report to the global tier.

    Built by :meth:`NodeRuntime.digest` at sync time and *not* updated
    in between — the router's view is deliberately stale by up to one
    sync interval (plus its own routed-since-sync correction).
    """

    node: int
    time_s: float
    alive: int
    queue_depth: int
    inflight: int
    linkless: bool
    #: uid -> resident bytes across the shard's alive devices.
    residency: dict


class NodeRuntime:
    """One node's local scheduler: queue + placement over its devices.

    Parameters
    ----------
    node:
        Topology node id (also the shard id).
    devices:
        The node's device ids (from ``Topology.devices_of_node``).
    view:
        Cluster view the local scheduler places through: a
        :class:`ShardView` for a topology node, or the
        :class:`~repro.gpusim.cluster.ClusterState` itself for the one
        shard spanning the cluster (no delegation cost).
    scheduler:
        This shard's *own* scheduler instance (per-shard reuse-bound
        state; never shared with other shards).
    queue:
        This shard's bounded admission queue.
    tracker:
        Per-shard workload-characteristics tracker (bounds prediction).
    autoscaler:
        Optional autoscaler config; :attr:`scaler` clamps it to the shard.
    """

    def __init__(self, node, devices, view, scheduler, queue: AdmissionQueue,
                 tracker, autoscaler: AutoscalerConfig | None = None):
        self.node = int(node)
        self.devices = tuple(sorted(int(d) for d in devices))
        self.view: ShardView | ClusterState = view
        self.scheduler = scheduler
        self.queue = queue
        self.tracker = tracker
        #: The shard's pool size and membership (None: a fixed pool).
        self.scaler = None if autoscaler is None else Autoscaler(autoscaler, self.devices, node)
        #: Scheduling rounds dispatched and not yet fully settled.
        self.inflight = 0
        #: True once the node's failure domain died; a dead shard takes
        #: no more traffic and its queued work re-routes globally.
        self.dead = False
        #: Tickets the router sent here since the last digest sync.
        #: Charged at placement (direct dispatch, queue admission,
        #: forward landings and hedge clones alike) and *discharged*
        #: when a charged ticket leaves the shard without completing —
        #: shed, abandoned, hedge-cancelled, quarantine-drained or
        #: rerouted — so the correction never counts work the shard no
        #: longer holds.
        self.routed_since_sync = 0
        #: Charged tickets that completed since the last sync.  Kept so
        #: the conservation invariant is checkable at every sync:
        #: ``routed_since_sync == completed_since_sync + charged tickets
        #: still queued or in flight here``.
        self.completed_since_sync = 0
        #: Bumped at every digest refresh; charges stamp the epoch they
        #: were made under so a stale charge (made before the counter
        #: reset) is never double-reversed.
        self.sync_epoch = 0
        #: id(ticket) -> ticket for every member dispatched on this
        #: shard and not yet settled (the audit-side complement of the
        #: ``inflight`` round counter).
        self.inflight_tickets: dict[int, object] = {}
        #: (bounds, alive-count) anchor for per-shard bound rescaling.
        self.bounds_anchor: tuple | None = None
        #: (alive-id list, byte budget) of the last batched round.
        self.budget_cache: tuple | None = None
        # ----- counters for the report's sharding section -----
        #: Tickets placed on this shard (queued or directly dispatched).
        self.routed = 0
        #: Of those, tickets that arrived after >= 1 full-queue forward.
        self.forwarded_in = 0
        #: Tickets re-homed here after their original shard died.
        self.rerouted_in = 0
        #: Tickets drained *out* of this shard's queue by quarantine.
        self.drained_out = 0
        #: Speculative hedge clones placed on this shard.
        self.hedged_in = 0

    def rescale_bounds(self) -> None:
        """Re-apply the reuse bounds for the view's current pool size.

        Rescaling always derives from the *anchor* — the (bounds, pool
        size) pair captured when the run started — never by chaining
        ``rescaled()`` off the previous rescale's output.  Chained
        rescales compound float rounding: after a few shrink/grow
        cycles that return to the original pool size, the bounds end up
        at e.g. ``4.9999999999999964`` instead of ``5.0``, silently
        shifting the availability test.  From the anchor, returning to
        any previously seen pool size reproduces bit-identical bounds
        (rescaling is evaluated once per target size, so it is
        idempotent and composition-free by construction).  Call it after
        every pool-size change.

        Skipped without an anchor (a predictor re-derives bounds per
        vector anyway, or the scheduler has no bounds to scale) and for
        an empty pool, which places nothing.
        """
        alive = self.view.num_alive
        if alive > 0 and self.bounds_anchor is not None:
            bounds0, alive0 = self.bounds_anchor
            if alive == alive0:
                self.scheduler.set_bounds(bounds0)
            else:
                self.scheduler.set_bounds(bounds0.rescaled(alive0, alive))

    # ------------------------------------------------------------------ digest
    def digest(self, now: float, linkless_devices=frozenset()) -> NodeDigest:
        """Snapshot this shard's load and residency for the global tier."""
        residency: dict[int, int] = {}
        pools = self.view.pools
        for d in self.view.alive_ids():
            # The pool's uid -> nbytes map, least recently used first.
            residency.update(pools[d]._resident)
        return NodeDigest(
            node=self.node,
            time_s=now,
            alive=self.view.num_alive,
            queue_depth=len(self.queue),
            inflight=self.inflight,
            linkless=any(d in linkless_devices for d in self.devices),
            residency=residency,
        )

    def drain_queue(self):
        """Pop every queued ticket (policy order) — shard-death re-routing."""
        out = []
        while True:
            t = self.queue.pop()
            if t is None:
                return out
            out.append(t)
