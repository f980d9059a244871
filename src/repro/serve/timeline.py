"""Discrete-event timeline for the online serving simulator.

A :class:`Timeline` is a heap-ordered event queue that advances
simulated wall-clock time.  Three event kinds drive a serving run
(mirroring gym-sparksched's timeline structure):

* :class:`VectorArrival` — a vector enters the system,
* :class:`SchedulingDone` — the dispatcher finished assigning the
  vector's pairs to devices,
* :class:`VectorCompletion` — the last device finished the vector,
* :class:`DeviceOnline` — a scaled-up device finished warming up and
  joins the schedulable pool (no ticket attached),
* :class:`DigestSync` — the sharded control plane's global router
  refreshes its per-node load/residency digests (no ticket attached),
* :class:`HealthTick` — the health monitor samples heartbeats and
  re-evaluates per-shard suspicion (no ticket attached),
* :class:`DeviceRestore` — a flapped device's node comes back up and
  the device rejoins the pool cold (no ticket attached).

Ties at the same timestamp resolve in push order (a monotonic sequence
number), so event processing is fully deterministic.  A caller that
feeds events lazily can :meth:`Timeline.reserve` a block of sequence
numbers up front and push each event later with its reserved number:
it then pops exactly where an eager push at reservation time would
have.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.errors import ConfigurationError
from repro.tensor.spec import VectorSpec

if TYPE_CHECKING:
    from repro.serve.tenancy import TenantStream


@dataclass
class Ticket:
    """Mutable per-vector lifecycle record threaded through events.

    Timestamps are simulated seconds; ``None`` until the corresponding
    stage happens.  ``devices`` lists the device ids the vector's pairs
    ran on (filled at scheduling time).
    """

    vector: VectorSpec
    arrival_s: float
    #: Owning tenant name (``None`` for single-tenant runs).
    tenant: str | None = None
    dispatch_s: float | None = None
    sched_done_s: float | None = None
    complete_s: float | None = None
    devices: list[int] = field(default_factory=list)
    #: Full pair→device assignment (index-aligned with ``vector.pairs``);
    #: recovery rewrites entries when orphaned pairs are re-scheduled.
    #: For a batched round this is the ticket's *own slice* of the merged
    #: assignment, so per-member fault recovery needs no round context.
    assignment: list[int] = field(default_factory=list)
    #: Bumped each time recovery supersedes the ticket's completion
    #: event; stale :class:`VectorCompletion` events are skipped.
    epoch: int = 0
    #: Scheduling round this ticket was dispatched in (``None`` before
    #: dispatch) and how many member vectors that round coalesced.
    round_id: int | None = None
    round_size: int = 1
    #: Live reference to the in-flight :class:`BatchRound`; cleared when
    #: the ticket settles (completes or is shed) so the round's
    #: scheduling slot is released exactly once per member.
    round: "BatchRound | None" = None
    #: Node shard the global router assigned the ticket to (``None``
    #: outside sharded serving, and before routing).
    shard: int | None = None
    #: Times the ticket was forwarded to another shard because its
    #: routed shard's queue was full (sharded serving only).
    forwards: int = 0
    #: Absolute completion deadline derived from the owning tenant's
    #: SLO (``arrival_s + p99 target``); ``None`` when no target is
    #: configured.  Batch assembly stops growing a round when adding a
    #: member would push the earliest deadline past this.
    deadline_s: float | None = None
    #: Hedge linkage (:class:`~repro.serve.health.HedgePair`) shared by
    #: a primary and its clone; ``None`` for unhedged tickets.
    hedge: object | None = None
    #: Set when the ticket lost a hedge race (or was a redundant clone
    #: that could not be placed) — cancelled tickets settle their round
    #: slot but record neither a completion nor a drop.
    cancelled: bool = False
    #: Shard currently charged for this ticket in the router's
    #: between-sync ``routed_since_sync`` correction, and the charged
    #: shard's digest epoch at charge time (sharded serving only).  The
    #: pair lets the router discharge exactly the corrections it made:
    #: on shed/abandon/cancel/reroute the charge is reversed, keeping
    #: ``pending`` reconciled with the shard's true backlog (a charge
    #: from a superseded epoch is simply dropped — its counter was
    #: already reset at the sync).
    charge_node: int | None = None
    charge_epoch: int = -1
    #: Pending learned-routing sample ``(node, t0, features, predicted,
    #: decision kind)``; labeled with the observed latency at completion,
    #: dropped when the ticket sheds, reroutes or loses a hedge race.
    route_sample: tuple | None = None
    #: Set when an audit repaired the ticket's result, so its superseding
    #: completion reports without a second audit; cleared when its work
    #: moves off a quarantined device and must be audited again.
    verified: bool = False


@dataclass
class BatchRound:
    """One scheduling round: the batch of tickets dispatched together.

    The serving loop may coalesce several mergeable queued vectors into
    one round (see :attr:`~repro.serve.config.ServeConfig.max_batch_vectors`);
    their pairs are scheduled as a single merged vector so repeated
    tensors across the members are placed once, then each member gets
    its own :class:`VectorCompletion` event.  ``remaining`` counts the
    members still in flight — the round's scheduling slot is released
    only when every member has completed or been shed.
    """

    round_id: int
    members: list["Ticket"]
    #: Members not yet completed/abandoned (inits to ``len(members)``).
    remaining: int = -1

    def __post_init__(self):
        if not self.members:
            raise ConfigurationError("a scheduling round needs at least one ticket")
        if self.remaining < 0:
            self.remaining = len(self.members)

    @property
    def num_pairs(self) -> int:
        return sum(len(t.vector.pairs) for t in self.members)


@dataclass(frozen=True)
class Event:
    """Base timeline event: something happens at ``time_s``.

    ``ticket`` is the vector lifecycle record the event belongs to;
    pool-management events (:class:`DeviceOnline`) carry none.
    """

    time_s: float
    ticket: Ticket | None = None

    # Control events (digest syncs, health ticks) re-arm themselves and
    # must not keep the run alive on their own; Timeline counts them so
    # drivers can ask Timeline.work_remaining.  Class attribute, not a
    # dataclass field — subclasses override it.
    is_control = False

    def __post_init__(self):
        # Written so NaN fails too: it compares false with everything.
        if not self.time_s >= 0:
            raise ConfigurationError(f"event time must be >= 0, got {self.time_s}")


@dataclass(frozen=True)
class VectorArrival(Event):
    """A vector arrives and requests admission.

    ``stream`` is the :class:`~repro.serve.tenancy.TenantStream` the
    vector came from; the serving loop feeds that stream's next arrival
    when this one pops.
    """

    stream: "TenantStream | None" = None


@dataclass(frozen=True)
class SchedulingDone(Event):
    """The dispatcher finished the round's pair→GPU assignment.

    ``round`` carries the full :class:`BatchRound` when the serving loop
    dispatched a batched round; ``ticket`` stays the round's head member
    so single-vector consumers keep working unchanged.
    """

    round: "BatchRound | None" = None


@dataclass(frozen=True)
class VectorCompletion(Event):
    """Every device involved in the vector finished its share.

    ``epoch`` snapshots the ticket's epoch at push time; if recovery
    re-schedules the vector afterwards (device loss), the ticket's
    epoch moves on and this event is recognised as stale and skipped.
    """

    epoch: int = 0


@dataclass(frozen=True)
class DigestSync(Event):
    """The sharded control plane refreshes its per-node digests.

    Fired every :attr:`~repro.serve.config.ServeConfig.sync_interval_s`
    simulated seconds by :class:`~repro.serve.sharded.ShardedServer`.
    Between syncs the global router deliberately works from stale
    summaries (corrected only by its own routing decisions since the
    last sync), modelling the coordination gap of a real two-level
    control plane.  No ticket attached.
    """

    is_control = True


@dataclass(frozen=True)
class HealthTick(Event):
    """The health monitor samples heartbeats and suspicion levels.

    Fired every ``health.heartbeat_interval_s`` simulated seconds when
    health checking is enabled: reachable shards beat, suspicion scores
    are re-evaluated, quarantine/probation transitions fire, and overdue
    queued tickets on suspect shards are hedged.  No ticket attached.
    """

    is_control = True


@dataclass(frozen=True)
class DeviceOnline(Event):
    """A scaling-up device finished its warm-up and becomes schedulable.

    Pushed by the autoscaler at decision time plus the configured
    warm-up delay; a device still ``warming`` joins with a cold memory
    pool (no resident tensors).
    """

    device: int = -1

    def __post_init__(self):
        super().__post_init__()
        if self.device < 0:
            raise ConfigurationError(f"device must be >= 0, got {self.device}")


@dataclass(frozen=True)
class DeviceRestore(Event):
    """A flapped device's node comes back up (``node_flap`` up phase).

    Pushed for every device a flap took down, at ``fault.time_s +
    duration_s``; :meth:`~repro.gpusim.cluster.ClusterState.flap_up`
    returns it to its old state, and one back in the pool rejoins it
    cold (plus journal-driven warm restore when enabled).  A *work* event — a run
    must not end while a restore is still due, or conservation breaks.
    """

    device: int = -1

    def __post_init__(self):
        super().__post_init__()
        if self.device < 0:
            raise ConfigurationError(f"device must be >= 0, got {self.device}")


class Timeline:
    """Heap-based event loop state: pending events + current time.

    ``pop`` never runs backwards — popping an event advances ``now`` to
    the event's timestamp; pushing an event earlier than ``now`` is a
    programming error and raises.
    """

    def __init__(self):
        self._heap: list[tuple[float, int, Event]] = []
        self._seq = itertools.count()
        self._control = 0
        #: Current simulated time (timestamp of the last popped event).
        self.now = 0.0

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    @property
    def work_remaining(self) -> bool:
        """True while any pending event is *not* a self-re-arming control
        timer.  Two periodic control events (digest sync + health tick)
        that each re-arm ``if timeline`` would keep each other alive
        forever; re-arming ``if timeline.work_remaining`` lets the run
        drain."""
        return len(self._heap) > self._control

    def reserve(self, n: int) -> int:
        """Take the next ``n`` sequence numbers; returns the first.

        Pass them to :meth:`push` as ``seq`` to break timestamp ties as
        if the events had been pushed now.
        """
        if n < 0:
            raise ConfigurationError(f"cannot reserve {n} sequence numbers")
        first = next(self._seq)
        self._seq = itertools.count(first + n)
        return first

    def push(self, event: Event, seq: int | None = None) -> None:
        """Schedule ``event``; must not be in the simulated past.

        ``seq`` is a number from :meth:`reserve`; by default the event
        takes the next unreserved one.
        """
        time_s = event.time_s
        # NaN fails this comparison, so it cannot corrupt heap order.
        if not time_s >= self.now:
            raise ConfigurationError(
                f"cannot schedule event at {time_s} before now={self.now}"
            )
        heapq.heappush(self._heap, (time_s, next(self._seq) if seq is None else seq, event))
        if event.is_control:
            self._control += 1

    def pop(self) -> Event:
        """Remove and return the earliest event, advancing ``now``."""
        if not self._heap:
            raise IndexError("pop from an empty timeline")
        time_s, _, event = heapq.heappop(self._heap)
        self.now = time_s
        if event.is_control:
            self._control -= 1
        return event

    def peek_time(self) -> float:
        """Timestamp of the next event without popping it."""
        if not self._heap:
            raise IndexError("peek on an empty timeline")
        return self._heap[0][0]
