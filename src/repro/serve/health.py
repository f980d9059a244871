"""Gray-failure health inference for the sharded control plane.

Everything the framework survived before this module was *announced*:
the injector told the server the instant a device or node died, so
recovery was always perfectly informed.  Real clusters mostly suffer
gray failures — nodes that flap, go silent, or stall without ever
reporting dead — and the control plane has to *infer* health from the
one signal it owns: heartbeats on the shared deterministic timeline.

Three deterministic state machines live here:

* :class:`HealthMonitor` — a phi-accrual-style failure detector per
  shard.  Each heartbeat updates an EWMA of inter-arrival gaps; the
  suspicion score is the current silence measured in mean gaps
  (``(now - last_beat) / mean_gap``).  Crossing
  ``suspect_threshold`` demotes a shard to SUSPECT (routing
  deprioritizes it), crossing ``quarantine_threshold`` demotes it to
  QUARANTINED (routing excludes it and its queue is drained through the
  global tier — the shard is *not* killed), and a beat from quarantine
  starts PROBATION: ``probation_beats`` consecutive on-time beats
  re-admit it to HEALTHY.
* :class:`CircuitBreaker` — per-shard breaker on the forwarding path.
  ``breaker_threshold`` consecutive full-queue rejections open it;
  after ``breaker_probe_interval_s`` it half-opens and lets exactly one
  probe ticket through; a successful probe closes it, a rejected probe
  re-opens it.
* :class:`HedgePair` — the linkage for hedged dispatch: a ticket queued
  past ``hedge_deadline_s`` on a non-healthy shard is cloned to the
  next-best shard; first completion wins and the loser is cancelled
  with exactly-once accounting.

Deliberately a leaf module (imports only :mod:`repro.errors`) so the
router, the node runtimes, and the CLI can all use it without cycles.
Every transition is a pure function of (config, observed event times),
so fixed-seed runs replay byte-for-byte.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum

from repro.errors import ConfigurationError
from repro.utils.codec import JsonConfig


@dataclass(frozen=True)
class HealthConfig(JsonConfig):
    """Knobs for heartbeat health tracking, breakers and hedging.

    Attributes
    ----------
    heartbeat_interval_s:
        Period of the :class:`~repro.serve.timeline.HealthTick` control
        event: reachable shards beat and suspicion is re-evaluated every
        this many simulated seconds.
    alpha:
        EWMA smoothing for heartbeat inter-arrival gaps (higher = more
        reactive to the latest gap).
    suspect_threshold:
        Suspicion level (silence measured in mean gaps) at which a
        HEALTHY shard becomes SUSPECT and routing deprioritizes it.
    quarantine_threshold:
        Suspicion level at which a SUSPECT shard is QUARANTINED: removed
        from routing and its queue drained through the global tier.
        Must exceed ``suspect_threshold``.
    probation_beats:
        Consecutive on-time heartbeats a PROBATION shard needs before
        re-admission to HEALTHY.
    hedging:
        Enable hedged dispatch for tickets stuck on non-healthy shards.
    hedge_deadline_s:
        Queue age past which a ticket on a non-healthy shard is cloned
        to the next-best shard.  With ``adaptive_hedging`` off this is
        the deadline; with it on, this fixed value stays as the
        override/fallback used until a tenant's latency window has
        ``hedge_min_samples`` observations.
    adaptive_hedging:
        Derive the hedge deadline from observed per-tenant completion
        latencies instead of the fixed ``hedge_deadline_s``: each
        tenant keeps a sliding window of its last ``hedge_window``
        latencies and the deadline is ``hedge_multiplier`` times the
        window's ``hedge_quantile`` quantile — so hedging fires when a
        ticket has waited well past what this tenant's traffic
        normally takes, wherever that happens to sit.
    hedge_quantile:
        Latency quantile the adaptive deadline is anchored to.
    hedge_window:
        Sliding-window capacity (latency observations per tenant).
    hedge_multiplier:
        Deadline = this multiple of the windowed quantile.
    hedge_min_samples:
        Observations a tenant's window needs before the adaptive
        deadline replaces the fixed fallback.
    breaker_threshold:
        Consecutive full-queue rejections that open a shard's
        forwarding circuit breaker.
    breaker_probe_interval_s:
        Open time after which the breaker half-opens and admits one
        probe ticket.
    """

    BLOCK = "health"

    heartbeat_interval_s: float = 0.01
    alpha: float = 0.3
    suspect_threshold: float = 2.0
    quarantine_threshold: float = 4.0
    probation_beats: int = 3
    hedging: bool = False
    hedge_deadline_s: float = 0.05
    adaptive_hedging: bool = False
    hedge_quantile: float = 0.95
    hedge_window: int = 64
    hedge_multiplier: float = 2.0
    hedge_min_samples: int = 8
    breaker_threshold: int = 3
    breaker_probe_interval_s: float = 0.05

    def __post_init__(self):
        if self.heartbeat_interval_s <= 0:
            raise ConfigurationError(
                f"heartbeat_interval_s must be > 0, got {self.heartbeat_interval_s}"
            )
        if not 0.0 < self.alpha <= 1.0:
            raise ConfigurationError(f"alpha must be in (0, 1], got {self.alpha}")
        if self.suspect_threshold <= 1.0:
            raise ConfigurationError(
                f"suspect_threshold must be > 1, got {self.suspect_threshold}"
            )
        if self.quarantine_threshold <= self.suspect_threshold:
            raise ConfigurationError(
                f"quarantine_threshold must exceed suspect_threshold "
                f"({self.suspect_threshold}), got {self.quarantine_threshold}"
            )
        if self.probation_beats < 1:
            raise ConfigurationError(
                f"probation_beats must be >= 1, got {self.probation_beats}"
            )
        if self.hedge_deadline_s <= 0:
            raise ConfigurationError(
                f"hedge_deadline_s must be > 0, got {self.hedge_deadline_s}"
            )
        if not 0.0 < self.hedge_quantile <= 1.0:
            raise ConfigurationError(
                f"hedge_quantile must be in (0, 1], got {self.hedge_quantile}"
            )
        if self.hedge_window < 1:
            raise ConfigurationError(
                f"hedge_window must be >= 1, got {self.hedge_window}"
            )
        if self.hedge_multiplier <= 0:
            raise ConfigurationError(
                f"hedge_multiplier must be > 0, got {self.hedge_multiplier}"
            )
        if self.hedge_min_samples < 1:
            raise ConfigurationError(
                f"hedge_min_samples must be >= 1, got {self.hedge_min_samples}"
            )
        if self.breaker_threshold < 1:
            raise ConfigurationError(
                f"breaker_threshold must be >= 1, got {self.breaker_threshold}"
            )
        if self.breaker_probe_interval_s <= 0:
            raise ConfigurationError(
                f"breaker_probe_interval_s must be > 0, "
                f"got {self.breaker_probe_interval_s}"
            )


class ShardHealthState(str, Enum):
    """Lifecycle of one shard in the health monitor's eyes."""

    HEALTHY = "healthy"
    SUSPECT = "suspect"
    QUARANTINED = "quarantined"
    PROBATION = "probation"
    DEAD = "dead"


#: States that take no new primary traffic, bound once: the router asks
#: per candidate shard per decision, and an enum member lookup costs
#: several times an identity test.
_UNROUTABLE = (
    ShardHealthState.QUARANTINED,
    ShardHealthState.PROBATION,
    ShardHealthState.DEAD,
)


class HealthMonitor:
    """Phi-accrual-style suspicion tracking over shard heartbeats.

    One monitor per run; the driver calls :meth:`beat` for every shard
    that was reachable at a health tick, then :meth:`evaluate` once per
    tick.  All iteration is over sorted shard ids, so the transition
    log — and everything downstream of it — is deterministic.
    """

    def __init__(self, nodes, config: HealthConfig):
        self.config = config
        self.nodes = tuple(sorted(nodes))
        self.state: dict[int, ShardHealthState] = {
            n: ShardHealthState.HEALTHY for n in self.nodes
        }
        #: Last heartbeat time per shard (run start counts as a beat).
        self.last_beat: dict[int, float] = {n: 0.0 for n in self.nodes}
        #: EWMA of heartbeat inter-arrival gaps, seeded at the interval.
        self.mean_gap: dict[int, float] = {
            n: config.heartbeat_interval_s for n in self.nodes
        }
        self._clean: dict[int, int] = {n: 0 for n in self.nodes}
        #: External suspicion floor per shard (see :meth:`raise_suspicion`).
        self._floor: dict[int, float] = {n: 0.0 for n in self.nodes}
        self.beats: int = 0
        self.missed: int = 0
        #: ``{time_s, node, from, to, suspicion}`` state transitions.
        self.transitions: list[dict] = []
        #: ``(time_s, node, suspicion)`` samples from :meth:`evaluate`.
        self.suspicion_samples: list[tuple[float, int, float]] = []
        #: ``{node, start_s, end_s}``; ``end_s is None`` while open.
        self.quarantine_episodes: list[dict] = []
        self._quarantines: dict[int, int] = {n: 0 for n in self.nodes}

    # -------------------------------------------------------------- signals
    def beat(self, node: int, now: float) -> None:
        """Record one delivered heartbeat from ``node`` at ``now``."""
        st = self.state[node]
        if st is ShardHealthState.DEAD:
            return
        self.beats += 1
        gap = now - self.last_beat[node]
        cfg = self.config
        if st in (ShardHealthState.HEALTHY, ShardHealthState.SUSPECT):
            # Outlier rejection: quarantine silences must not inflate
            # the gap estimate, or re-admitted shards start numb.
            a = cfg.alpha
            self.mean_gap[node] = (1 - a) * self.mean_gap[node] + a * max(
                gap, 1e-12
            )
        self.last_beat[node] = now
        if st is ShardHealthState.QUARANTINED:
            self._transition(node, ShardHealthState.PROBATION, now, 0.0)
            self._clean[node] = 0
        elif st is ShardHealthState.PROBATION:
            if gap <= 1.5 * cfg.heartbeat_interval_s:
                self._clean[node] += 1
                if self._clean[node] >= cfg.probation_beats:
                    self._transition(node, ShardHealthState.HEALTHY, now, 0.0)
            else:
                self._clean[node] = 0

    def miss(self) -> None:
        """Count one heartbeat that should have arrived but did not."""
        self.missed += 1

    def mark_dead(self, node: int, now: float) -> None:
        """An announced (fail-stop) death — no inference needed."""
        if self.state[node] is not ShardHealthState.DEAD:
            self._transition(node, ShardHealthState.DEAD, now, float("inf"))

    def raise_suspicion(self, node: int, floor: float) -> None:
        """Raise an external suspicion floor for ``node``.

        Heartbeats cannot see *silent* corruption — a node producing
        garbage still beats on time — so out-of-band evidence (the
        integrity subsystem blaming one of the node's devices, see
        :mod:`repro.integrity`) feeds a floor that :meth:`suspicion`
        folds in with ``max``.  The floor is consumed when the node is
        quarantined: from there the normal probation cycle decides
        re-admission, so a blamed node pays one quarantine per blame
        rather than being exiled forever.
        """
        self._floor[node] = max(self._floor[node], float(floor))

    def suspicion(self, node: int, now: float) -> float:
        """Current silence of ``node`` measured in mean heartbeat gaps.

        Folded with any external floor from :meth:`raise_suspicion`.
        """
        gap = max(self.mean_gap[node], 1e-12)
        return max(
            max(now - self.last_beat[node], 0.0) / gap, self._floor[node]
        )

    # ----------------------------------------------------------- evaluation
    def evaluate(self, now: float) -> list[int]:
        """Re-score every shard; returns shards newly QUARANTINED.

        The caller must drain each returned shard's queue through the
        global tier — quarantine removes a shard from routing without
        killing it, so its queued work has to move.
        """
        cfg = self.config
        newly_quarantined: list[int] = []
        for node in self.nodes:
            st = self.state[node]
            if st is ShardHealthState.DEAD:
                continue
            phi = self.suspicion(node, now)
            self.suspicion_samples.append((now, node, phi))
            if st is ShardHealthState.HEALTHY and phi >= cfg.suspect_threshold:
                self._transition(node, ShardHealthState.SUSPECT, now, phi)
            elif st is ShardHealthState.SUSPECT:
                if phi >= cfg.quarantine_threshold:
                    self._transition(node, ShardHealthState.QUARANTINED, now, phi)
                    newly_quarantined.append(node)
                elif phi < cfg.suspect_threshold:
                    self._transition(node, ShardHealthState.HEALTHY, now, phi)
            elif st is ShardHealthState.PROBATION and phi >= cfg.suspect_threshold:
                # Went silent again mid-probation: straight back out.
                self._transition(node, ShardHealthState.QUARANTINED, now, phi)
                newly_quarantined.append(node)
        return newly_quarantined

    def _transition(
        self, node: int, to: ShardHealthState, now: float, phi: float
    ) -> None:
        frm = self.state[node]
        self.state[node] = to
        self.transitions.append(
            {
                "time_s": float(now),
                "node": node,
                "from": frm.value,
                "to": to.value,
                "suspicion": phi if phi != float("inf") else -1.0,
            }
        )
        if to is ShardHealthState.QUARANTINED:
            # The floor's purpose (force one quarantine) is served; from
            # here probation beats decide re-admission on merit.
            self._floor[node] = 0.0
            self._quarantines[node] += 1
            self.quarantine_episodes.append(
                {"node": node, "start_s": float(now), "end_s": None}
            )
        elif frm is ShardHealthState.QUARANTINED:
            for ep in reversed(self.quarantine_episodes):
                if ep["node"] == node and ep["end_s"] is None:
                    ep["end_s"] = float(now)
                    break

    # -------------------------------------------------------------- queries
    def is_unroutable(self, node: int) -> bool:
        """Quarantined/probation/dead shards take no *new* primary traffic.

        Probation shards keep serving what they already hold but must
        prove themselves over ``probation_beats`` ticks before routing
        trusts them again.
        """
        return self.state[node] in _UNROUTABLE

    def is_suspect(self, node: int) -> bool:
        """Anything short of HEALTHY is deprioritized by routing."""
        return self.state[node] is not ShardHealthState.HEALTHY

    def quarantine_count(self, node: int) -> int:
        """Times ``node`` has entered quarantine so far (routing feature)."""
        return self._quarantines[node]

    def summary(self) -> dict:
        """JSON-ready health section for the serve report."""
        return {
            "states": {str(n): self.state[n].value for n in self.nodes},
            "beats": self.beats,
            "missed": self.missed,
            "transitions": list(self.transitions),
            "suspicion_timeline": [
                {"time_s": t, "node": n, "suspicion": phi}
                for t, n, phi in self.suspicion_samples
            ],
            "quarantine_episodes": [dict(ep) for ep in self.quarantine_episodes],
        }


class CircuitBreaker:
    """Per-shard breaker on the global router's forwarding path.

    A shard whose queue keeps rejecting forwards is wasting routing
    attempts every ticket; after ``threshold`` *consecutive* rejections
    the breaker opens and the router stops offering to that shard.
    After ``probe_interval_s`` it half-opens: exactly one probe ticket
    is allowed through, and its fate decides — success closes the
    breaker, rejection re-opens it (restarting the probe clock).
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"

    def __init__(
        self,
        node: int,
        threshold: int,
        probe_interval_s: float,
        transitions: list | None = None,
    ):
        self.node = node
        self.threshold = threshold
        self.probe_interval_s = probe_interval_s
        self.state = self.CLOSED
        self.failures = 0
        self.opened_at = 0.0
        self.opens = 0
        #: Shared transition log (``{time_s, node, from, to}``).
        self.transitions = transitions if transitions is not None else []

    def allow(self, now: float) -> bool:
        """May the router offer a ticket to this shard right now?"""
        if self.state == self.CLOSED:
            return True
        if self.state == self.OPEN:
            if now - self.opened_at >= self.probe_interval_s:
                self._transition(self.HALF_OPEN, now)
                return True
            return False
        # HALF_OPEN: the single probe is already in flight this attempt.
        return False

    def record_rejection(self, now: float) -> None:
        """The shard's queue rejected an offered ticket (full)."""
        self.failures += 1
        if self.state == self.HALF_OPEN or (
            self.state == self.CLOSED and self.failures >= self.threshold
        ):
            self._transition(self.OPEN, now)
            self.opened_at = now
            self.opens += 1

    def record_success(self, now: float) -> None:
        """The shard accepted an offered ticket."""
        self.failures = 0
        if self.state == self.HALF_OPEN:
            self._transition(self.CLOSED, now)

    def _transition(self, to: str, now: float) -> None:
        self.transitions.append(
            {"time_s": float(now), "node": self.node, "from": self.state, "to": to}
        )
        self.state = to


@dataclass
class HedgePair:
    """Linkage between a hedged ticket and its speculative clone.

    Both tickets point at the same pair; the first completion resolves
    it (``winner`` set, ``resolved`` True) and the loser is cancelled —
    it settles its round slot but records neither a completion nor a
    drop, keeping SLO accounting exactly-once.
    """

    primary: object
    clone: object
    resolved: bool = False
    winner: object | None = None

    def other(self, ticket) -> object:
        return self.clone if ticket is self.primary else self.primary


class LatencyWindow:
    """Sliding window of observed latencies with nearest-rank quantiles.

    Bounded (``capacity`` most recent observations) and fully
    deterministic: the quantile is the classic nearest-rank statistic
    over a sorted copy of the window, so replays see identical values.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ConfigurationError(f"window capacity must be >= 1, got {capacity}")
        self._values: deque[float] = deque(maxlen=capacity)

    def __len__(self) -> int:
        return len(self._values)

    def observe(self, latency_s: float) -> None:
        self._values.append(latency_s)

    def quantile(self, q: float) -> float:
        """Nearest-rank ``q``-quantile of the window (window non-empty)."""
        if not self._values:
            raise ConfigurationError("quantile of an empty window")
        ordered = sorted(self._values)
        # ceil(q*n) as int arithmetic; rank is 1-based, clamp to bounds.
        n = len(ordered)
        rank = -(-int(q * n * 10**9) // 10**9)  # ceil without float drift
        return ordered[min(max(rank, 1), n) - 1]


class AdaptiveHedgeDeadline:
    """Per-tenant hedge deadlines from observed completion latencies.

    The serving loop feeds every completion's latency into the owning
    tenant's :class:`LatencyWindow`; :meth:`deadline_for` answers with
    ``hedge_multiplier × quantile`` once the window holds
    ``hedge_min_samples`` observations, and with the fixed
    ``hedge_deadline_s`` fallback until then.  Single-stream runs (no
    tenants) share one window under the ``None`` key.
    """

    def __init__(self, config: HealthConfig):
        self.config = config
        self._windows: dict[str | None, LatencyWindow] = {}

    def observe(self, tenant: str | None, latency_s: float) -> None:
        window = self._windows.get(tenant)
        if window is None:
            window = self._windows[tenant] = LatencyWindow(self.config.hedge_window)
        window.observe(latency_s)

    def deadline_for(self, tenant: str | None) -> float:
        cfg = self.config
        window = self._windows.get(tenant)
        if window is None or len(window) < cfg.hedge_min_samples:
            return cfg.hedge_deadline_s
        return cfg.hedge_multiplier * window.quantile(cfg.hedge_quantile)

    def summary(self) -> dict:
        """Current per-tenant deadlines for the health report."""
        return {
            str(tenant): {
                "samples": len(window),
                "deadline_s": self.deadline_for(tenant),
            }
            for tenant, window in sorted(
                self._windows.items(), key=lambda kv: str(kv[0])
            )
        }


def hedge_shielded(ticket) -> bool:
    """Would dropping ``ticket`` lose work its hedge partner still covers?

    True while the pair is unresolved and the partner is still live —
    the drop becomes a silent cancellation instead of an SLO drop, since
    the vector's other copy is still racing toward completion.
    """
    pair = ticket.hedge
    if pair is None or pair.resolved:
        return False
    return not pair.other(ticket).cancelled
