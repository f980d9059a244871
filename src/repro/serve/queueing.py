"""Bounded admission queue with pluggable ordering and shed counters.

The server holds arrived-but-not-yet-dispatched vectors here.  When
the queue is full the offered vector is *shed* (dropped at admission,
never executed) — the counters make overload visible to the SLO report
and to backpressure-aware clients.

Ordering is a :class:`QueuePolicy` object mapping each ticket to a heap
key; three implementations ship:

* :class:`Fifo` — arrival order,
* :class:`Sjf`  — shortest-vector-first (fewest tensor slots dispatches
  first; FIFO among equals), a classic tail-latency lever when vector
  sizes are heterogeneous,
* :class:`WeightedFair` — weighted fair queueing across tenants: each
  tenant's sub-stream is dispatched in proportion to its weight under
  saturation (see the class docstring).

:class:`FaultAware` is not an ordering of its own but a *wrapper* over
any of them: it keeps the inner policy's dispatch order and adds an
admission gate that estimates each vector's completion probability from
the live fault rate (an EWMA over the fault events the injector has
recorded) and the surviving pool fraction, shedding doomed vectors at
admission (reason ``"predicted-infeasible"``) instead of wasting
execution on work that will be fault-abandoned mid-run.

:class:`AdmissionQueue` takes policy objects only; :func:`make_policy`
builds one from a registry name.
"""

from __future__ import annotations

import heapq
import itertools
import math
from abc import ABC, abstractmethod

from repro.errors import ConfigurationError
from repro.serve.timeline import Ticket

#: Names accepted where a policy is configured by string (CLI, JSON).
QUEUE_POLICIES = ("fifo", "sjf", "weighted")


class QueuePolicy(ABC):
    """Dispatch-order policy: maps a ticket to a sortable heap key.

    The :class:`AdmissionQueue` pops tickets in ascending key order.
    ``seq`` is the queue's monotonically increasing offer counter —
    include it (last) in the key so ties resolve in arrival order and
    ordering stays fully deterministic.

    Stateful policies (e.g. :class:`WeightedFair`'s per-tenant virtual
    clocks) additionally override :meth:`observe_pop` and :meth:`reset`.
    """

    #: Name used in counters/reports and for string lookup.
    name: str = "policy"

    @abstractmethod
    def key(self, ticket: Ticket, seq: int) -> tuple:
        """Heap key for ``ticket`` offered as the ``seq``-th ticket.

        MUST be side-effect free: the queue may compute a key and then
        shed the ticket without enqueueing it, and batch assembly may
        probe keys while scanning.  Stateful policies commit any state
        the key implies in :meth:`observe_offer`, which runs only once
        the ticket has actually entered the queue.
        """

    def observe_offer(self, ticket: Ticket, key: tuple) -> None:
        """Hook called after ``ticket`` successfully enqueued under ``key``.

        This is where stateful policies commit what :meth:`key`
        computed tentatively (e.g. :class:`WeightedFair` advances the
        tenant's virtual finish clock here).  A ticket shed before
        enqueueing — queue full, or an admission gate rejected it —
        never reaches this hook and therefore charges nothing.
        """

    def admit(self, ticket: Ticket, now: float) -> bool:
        """Admission gate consulted before a ticket enters the system.

        The default admits everything; :class:`FaultAware` overrides it
        to shed vectors unlikely to complete under the live fault rate.
        A False return sheds the ticket with reason
        ``"predicted-infeasible"`` (it never queues or executes).
        """
        return True

    def observe_pop(self, key: tuple) -> None:
        """Hook called with the key of each popped ticket (default no-op)."""

    def reset(self) -> None:
        """Clear any accumulated state (called when a queue is built)."""

    def counters(self) -> dict:
        """Policy-specific counters merged into the queue's report section.

        The default has none; wrappers (:class:`FaultAware`) must merge
        the wrapped policy's counters into their own.
        """
        return {}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name!r}>"


class Fifo(QueuePolicy):
    """Dispatch in arrival order."""

    name = "fifo"

    def key(self, ticket: Ticket, seq: int) -> tuple:
        return (seq,)


class Sjf(QueuePolicy):
    """Shortest-vector-first: fewest tensor slots dispatches first."""

    name = "sjf"

    def key(self, ticket: Ticket, seq: int) -> tuple:
        return (ticket.vector.num_tensors, seq)


class WeightedFair(QueuePolicy):
    """Weighted fair queueing over per-tenant sub-streams.

    Start-time fair queueing: each tenant keeps a virtual clock that
    advances by ``num_tensors / weight`` per ticket it offers, floored
    at the queue-wide virtual time (the largest finish tag dispatched
    so far, so an idle tenant cannot bank credit and later monopolise
    the queue).  Tickets dispatch in ascending finish-tag order, which
    realises the same proportional shares as deficit round-robin over
    per-tenant sub-queues — each tenant's clock *is* its sub-queue's
    deficit counter — while fitting the single-heap queue.

    Under saturation (every tenant backlogged) tenant ``i`` receives a
    ``w_i / Σw`` share of dispatches; an idle tenant's share is
    redistributed to the backlogged ones.

    Parameters
    ----------
    weights:
        Tenant name → positive weight.  Tickets from unknown tenants
        (or untagged single-tenant traffic) use ``default_weight``.
    """

    name = "weighted"

    def __init__(self, weights: dict[str, float] | None = None, default_weight: float = 1.0):
        weights = dict(weights or {})
        for tenant, w in weights.items():
            if not math.isfinite(w) or w <= 0:
                raise ConfigurationError(
                    f"tenant {tenant!r} weight must be finite and > 0, got {w}"
                )
        if not math.isfinite(default_weight) or default_weight <= 0:
            raise ConfigurationError(
                f"default_weight must be finite and > 0, got {default_weight}"
            )
        self.weights = weights
        self.default_weight = float(default_weight)
        self._finish: dict[str | None, float] = {}
        self._vtime = 0.0

    def weight_of(self, tenant: str | None) -> float:
        return self.weights.get(tenant, self.default_weight)

    def key(self, ticket: Ticket, seq: int) -> tuple:
        # Tentative: the finish tag is computed without touching the
        # tenant's clock.  Charging happens in observe_offer, so a
        # ticket shed before enqueueing (queue full, admission gate)
        # cannot skew its tenant's share under saturation.
        cost = ticket.vector.num_tensors / self.weight_of(ticket.tenant)
        start = max(self._vtime, self._finish.get(ticket.tenant, 0.0))
        return (start + cost, seq)

    def observe_offer(self, ticket: Ticket, key: tuple) -> None:
        self._finish[ticket.tenant] = key[0]

    def observe_pop(self, key: tuple) -> None:
        self._vtime = max(self._vtime, key[0])

    def reset(self) -> None:
        self._finish.clear()
        self._vtime = 0.0


class FaultAware(QueuePolicy):
    """Fault-aware admission gate wrapped around any :class:`QueuePolicy`.

    Dispatch order is delegated to ``inner`` untouched; what changes is
    *admission*: each offered vector's completion probability is
    estimated and vectors below ``min_success_prob`` are shed up front
    (shed reason ``"predicted-infeasible"``) rather than admitted,
    executed, and fault-abandoned mid-run — under a hostile fault plan
    that mid-run abandonment is pure wasted work.

    The estimate is deliberately simple and fully deterministic.  The
    serving loop feeds :meth:`observe` the injector's cumulative fault
    count (transient failures + device losses + transfer re-fetches
    from :class:`~repro.faults.recovery.FaultStats`) plus the live pool
    size; the wrapper maintains an exponentially weighted fault *rate*
    ``λ`` (events/second, time constant ``tau_s``).  A vector with
    ``P`` pairs then survives with

    ``p = exp(-λ · exposure_s_per_pair · P / alive_fraction)``

    — more pairs mean more exposure, and a shrunken pool both stretches
    the run and concentrates faults on the survivors.

    Parameters
    ----------
    inner:
        The dispatch-order policy to wrap.
    tau_s:
        EWMA time constant of the fault rate; shorter forgets faster.
    min_success_prob:
        Admission threshold on the estimated completion probability.
    exposure_s_per_pair:
        Seconds of fault exposure one pair contributes (scale knob
        matching the cost model's per-pair service time).
    """

    def __init__(
        self,
        inner: QueuePolicy,
        *,
        tau_s: float = 0.25,
        min_success_prob: float = 0.5,
        exposure_s_per_pair: float = 2e-3,
    ):
        if not isinstance(inner, QueuePolicy):
            raise ConfigurationError(f"inner must be a QueuePolicy, got {inner!r}")
        if isinstance(inner, FaultAware):
            raise ConfigurationError("FaultAware cannot wrap another FaultAware")
        if not math.isfinite(tau_s) or tau_s <= 0:
            raise ConfigurationError(f"tau_s must be finite and > 0, got {tau_s}")
        if not 0 < min_success_prob < 1:
            raise ConfigurationError(
                f"min_success_prob must be in (0, 1), got {min_success_prob}"
            )
        if not math.isfinite(exposure_s_per_pair) or exposure_s_per_pair <= 0:
            raise ConfigurationError(
                f"exposure_s_per_pair must be finite and > 0, got {exposure_s_per_pair}"
            )
        self.inner = inner
        self.name = f"fault-aware({inner.name})"
        self.tau_s = float(tau_s)
        self.min_success_prob = float(min_success_prob)
        self.exposure_s_per_pair = float(exposure_s_per_pair)
        self._rate = 0.0
        self._t_last = 0.0
        self._events_seen = 0
        self._alive_frac = 1.0
        #: Vectors this gate shed (mirrors the report's shed reason).
        self.shed_predicted = 0

    # -------------------------------------------------------------- signals
    def observe(self, now: float, fault_events: int, alive: int, total: int) -> None:
        """Feed the live fault picture (cumulative events, pool size)."""
        fresh = max(fault_events - self._events_seen, 0)
        self._events_seen = max(fault_events, self._events_seen)
        dt = max(now - self._t_last, 0.0)
        self._t_last = max(now, self._t_last)
        self._rate *= math.exp(-dt / self.tau_s)
        self._rate += fresh / self.tau_s
        self._alive_frac = alive / total if total > 0 else 0.0

    def fault_rate(self, now: float) -> float:
        """Decayed EWMA fault rate (events/second) as of ``now``."""
        dt = max(now - self._t_last, 0.0)
        return self._rate * math.exp(-dt / self.tau_s)

    def success_probability(self, ticket: Ticket, now: float) -> float:
        """Estimated probability the vector completes un-aborted."""
        if self._alive_frac <= 0.0:
            return 0.0
        hazard = (
            self.fault_rate(now)
            * self.exposure_s_per_pair
            * len(ticket.vector.pairs)
            / self._alive_frac
        )
        return math.exp(-hazard)

    # ------------------------------------------------------------ policy API
    def admit(self, ticket: Ticket, now: float) -> bool:
        ok = self.success_probability(ticket, now) >= self.min_success_prob
        if not ok:
            self.shed_predicted += 1
        return ok

    def key(self, ticket: Ticket, seq: int) -> tuple:
        return self.inner.key(ticket, seq)

    def observe_offer(self, ticket: Ticket, key: tuple) -> None:
        self.inner.observe_offer(ticket, key)

    def observe_pop(self, key: tuple) -> None:
        self.inner.observe_pop(key)

    def reset(self) -> None:
        self.inner.reset()
        self._rate = 0.0
        self._t_last = 0.0
        self._events_seen = 0
        self._alive_frac = 1.0
        self.shed_predicted = 0

    def counters(self) -> dict:
        return {**self.inner.counters(), "shed_predicted": self.shed_predicted}


_POLICY_FACTORIES = {"fifo": Fifo, "sjf": Sjf, "weighted": WeightedFair}


def make_policy(name: str, *, weights: dict[str, float] | None = None) -> QueuePolicy:
    """Build a :class:`QueuePolicy` from its registry name.

    ``weights`` only applies to ``"weighted"`` (ignored otherwise).
    """
    if name not in _POLICY_FACTORIES:
        raise ConfigurationError(
            f"unknown queue policy {name!r}; expected one of {QUEUE_POLICIES}"
        )
    if name == "weighted":
        return WeightedFair(weights)
    return _POLICY_FACTORIES[name]()


class AdmissionQueue:
    """Bounded buffer of :class:`~repro.serve.timeline.Ticket`\\ s.

    Parameters
    ----------
    capacity:
        Maximum queued tickets; offers beyond it are shed.
    policy:
        A :class:`QueuePolicy` instance (default: :class:`Fifo`); build
        one from a registry name with :func:`make_policy`.
    """

    def __init__(self, capacity: int = 64, policy: QueuePolicy | None = None):
        if capacity <= 0:
            raise ConfigurationError(f"queue capacity must be > 0, got {capacity}")
        if policy is None:
            policy = Fifo()
        if not isinstance(policy, QueuePolicy):
            raise ConfigurationError(
                "policy must be a QueuePolicy instance (Fifo(), Sjf(), "
                f"WeightedFair(...), FaultAware(...)), got {policy!r}; "
                "make_policy(name) builds one from a name"
            )
        self.capacity = capacity
        self.policy = policy
        self.policy.reset()
        self._heap: list[tuple] = []
        self._seq = itertools.count()
        #: Tickets accepted into the queue.
        self.admitted = 0
        #: Tickets shed because the queue was full.
        self.dropped = 0
        #: High-water mark of queue depth.
        self.peak_depth = 0

    def __len__(self) -> int:
        return len(self._heap)

    @property
    def is_full(self) -> bool:
        return len(self._heap) >= self.capacity

    def offer(self, ticket: Ticket) -> bool:
        """Try to enqueue; returns False (and counts a drop) when full.

        The policy key is computed tentatively and committed via
        :meth:`QueuePolicy.observe_offer` only once the ticket is
        actually in the heap, so shed tickets charge no policy state
        (e.g. no weighted-fair virtual time).
        """
        if self.is_full:
            self.dropped += 1
            return False
        seq = next(self._seq)
        key = self.policy.key(ticket, seq)
        heapq.heappush(self._heap, (*key, ticket))
        self.policy.observe_offer(ticket, key)
        self.admitted += 1
        self.peak_depth = max(self.peak_depth, len(self._heap))
        return True

    def tickets(self) -> list[Ticket]:
        """Queued tickets in policy (pop) order, without removing them.

        Used by the hedging sweep to find overdue tickets still waiting
        on a suspect shard.  Policy keys end in a unique sequence
        number, so sorting on the key prefix is total and deterministic
        (the trailing :class:`Ticket` never participates in comparison).
        """
        return [e[-1] for e in sorted(self._heap, key=lambda e: e[:-1])]

    def pop(self) -> Ticket | None:
        """Remove and return the next ticket per policy; None when empty."""
        if not self._heap:
            return None
        entry = heapq.heappop(self._heap)
        self.policy.observe_pop(entry[:-1])
        return entry[-1]

    def pop_batch(self, limit: int, accept=None) -> list[Ticket]:
        """Pop up to ``limit`` tickets for one scheduling round.

        The head ticket (first in policy order) is always taken.  The
        remaining queue is then scanned *in policy order*; each
        candidate is offered to ``accept(members, candidate)`` and
        either joins the batch or is left queued.  Skipped tickets are
        re-inserted under their original keys, so their relative
        dispatch order — including weighted-fair finish tags — is
        preserved exactly.  Returns ``[]`` when the queue is empty.
        """
        if limit < 1:
            raise ConfigurationError(f"batch limit must be >= 1, got {limit}")
        if not self._heap:
            return []
        first = heapq.heappop(self._heap)
        self.policy.observe_pop(first[:-1])
        members = [first[-1]]
        if limit > 1 and self._heap:
            skipped: list[tuple] = []
            while self._heap and len(members) < limit:
                entry = heapq.heappop(self._heap)
                if accept is None or accept(members, entry[-1]):
                    self.policy.observe_pop(entry[:-1])
                    members.append(entry[-1])
                else:
                    skipped.append(entry)
            for entry in skipped:
                heapq.heappush(self._heap, entry)
        return members

    def counters(self) -> dict:
        """Snapshot of the admission counters for reports.

        Policy-specific counters (e.g. :class:`FaultAware`'s
        ``shed_predicted``) merge in alongside the queue's own.
        """
        return {
            "capacity": self.capacity,
            "policy": self.policy.name,
            "admitted": self.admitted,
            "dropped": self.dropped,
            "peak_depth": self.peak_depth,
            **self.policy.counters(),
        }
