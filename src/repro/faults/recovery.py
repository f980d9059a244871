"""Recovery policy and fault accounting.

:class:`RetryPolicy` bounds how hard the engine fights a transient
fault — capped attempts with exponential backoff *in simulated time*
(backoff seconds are charged to the faulting device, so retries show up
in makespans and tail latencies exactly like real waiting would).

:class:`FaultStats` is the single accounting object threaded through
the injector, the engine and the serving loop; its :meth:`summary`
feeds the SLO report's fault section.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import ConfigurationError
from repro.reporting import dump_json


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential-backoff retry budget for transient faults.

    Attempt ``k`` (1-based) that fails waits
    ``backoff_base_s * backoff_factor**(k-1)`` simulated seconds before
    the next try; after ``max_attempts`` failed tries the engine gives
    up and raises :class:`~repro.errors.TransientFaultError`.
    """

    max_attempts: int = 4
    backoff_base_s: float = 1e-3
    backoff_factor: float = 2.0

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ConfigurationError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.backoff_base_s < 0:
            raise ConfigurationError(
                f"backoff_base_s must be >= 0, got {self.backoff_base_s}"
            )
        if self.backoff_factor < 1.0:
            raise ConfigurationError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}"
            )

    def backoff_s(self, attempt: int) -> float:
        """Simulated wait after failed attempt number ``attempt`` (1-based)."""
        if attempt < 1:
            raise ConfigurationError(f"attempt must be >= 1, got {attempt}")
        return self.backoff_base_s * self.backoff_factor ** (attempt - 1)


@dataclass
class FaultStats:
    """Counters and timelines accumulated over one chaos run.

    ``injected`` counts plan events by kind as they come due, whether
    or not they take effect (a link cut on an already-dead node counts
    too); ``node_losses``, ``link_losses`` and ``heartbeat_losses``
    count only what took effect.  ``recovery_latency_s`` maps fault kind to the simulated seconds each
    recovered fault cost: wasted work + backoff for transients, wasted
    copy + host re-fetch for transfers, and fault-to-new-completion time
    for device losses.  ``events`` is the replayable fault/retry/
    recovery event log rendered into Chrome traces.
    """

    injected: dict[str, int] = field(
        default_factory=lambda: {
            "transient": 0,
            "device_lost": 0,
            "straggler": 0,
            "transfer": 0,
            "node_lost": 0,
            "link_lost": 0,
            "heartbeat_loss": 0,
            "node_flap": 0,
            "data_corruption": 0,
            "tensor_bitflip": 0,
        }
    )
    transient_failures: int = 0
    transient_recovered: int = 0
    transient_abandoned: int = 0
    transfer_refetches: int = 0
    device_losses: int = 0
    #: Correlated failure domains applied (each may kill several devices).
    node_losses: int = 0
    #: Nodes that lost their inter-node links while staying alive.
    link_losses: int = 0
    #: Gray silences applied: nodes that stayed alive but stopped
    #: reporting (``heartbeat_loss``).
    heartbeat_losses: int = 0
    #: Devices brought back after a non-permanent loss (``node_flap``
    #: restore phases).
    device_restores: int = 0
    #: D2D fetches forced through the host because every holder sat
    #: behind a severed inter-node link (``link_lost`` degradation).
    host_staged_fetches: int = 0
    orphaned_tensors: int = 0
    rescheduled_pairs: int = 0
    #: D2D fetches that crossed a node boundary (recovery traffic on the
    #: slow inter-node link; only counted while a topology is configured).
    cross_node_fetches: int = 0
    #: Tensors pre-warmed onto (re)activated devices by journal replay.
    prewarmed_tensors: int = 0
    #: Vectors shed at admission by fault-aware completion-probability
    #: estimates (shed reason ``"predicted-infeasible"``).
    predicted_infeasible: int = 0
    recovery_latency_s: dict[str, list[float]] = field(
        default_factory=lambda: {"transient": [], "device_lost": [], "transfer": []}
    )
    events: list[dict] = field(default_factory=list)
    #: device id -> simulated time of *first* loss.  Kept so that
    #: manually-constructed stats still work; availability is
    #: charged from ``down_windows`` when any exist for the device.
    lost_at: dict[int, float] = field(default_factory=dict)
    #: ``[device, start_s, end_s]`` down windows; ``end_s is None``
    #: while the device is still down (closed by restore or clipped to
    #: the makespan).  Repeated loss/restore of one device appends one
    #: window per down phase, so availability sums disjoint windows
    #: instead of charging loss-to-makespan once per loss.
    down_windows: list[list] = field(default_factory=list)
    #: (device, start_s, end_s, slow_factor) straggler windows seen.
    straggler_windows: list[tuple[int, float, float, float]] = field(default_factory=list)
    #: Run context bound by :meth:`finalize` so :meth:`summary` needs no
    #: arguments (the common :class:`~repro.reporting.Report` surface).
    makespan_s: float = 0.0
    num_devices: int = 0

    # -------------------------------------------------------------- recording
    def record_event(
        self, kind: str, device: int, time_s: float, duration_s: float, label: str = ""
    ) -> None:
        """Append one fault/retry/recovery event to the replay log."""
        self.events.append(
            {
                "kind": kind,
                "device": device,
                "time_s": float(time_s),
                "duration_s": float(duration_s),
                "label": label,
            }
        )

    def record_recovery(self, fault_kind: str, latency_s: float) -> None:
        self.recovery_latency_s.setdefault(fault_kind, []).append(float(latency_s))

    def open_down_window(self, device: int, time_s: float) -> None:
        """Mark ``device`` down at ``time_s`` (idempotent while open)."""
        for w in self.down_windows:
            if w[0] == device and w[2] is None:
                return
        self.down_windows.append([int(device), float(time_s), None])

    def close_down_window(self, device: int, time_s: float) -> None:
        """Close ``device``'s open down window at ``time_s`` (restore)."""
        for w in self.down_windows:
            if w[0] == device and w[2] is None:
                w[2] = float(time_s)
                return

    def finalize(self, makespan_s: float, num_devices: int) -> "FaultStats":
        """Bind the run context availability accounting needs.

        Called once at the end of a run; afterwards :meth:`summary` and
        :meth:`to_json` work without arguments.  Returns ``self`` for
        chaining.
        """
        self.makespan_s = float(makespan_s)
        self.num_devices = int(num_devices)
        return self

    # ------------------------------------------------------------- aggregates
    def availability(self, makespan_s: float, num_devices: int) -> float:
        """Healthy device-seconds over total device-seconds, in percent.

        Dead time is the union of each device's down windows clipped to
        ``[0, makespan]`` — a window still open at the end of the run
        (permanent loss) extends to the makespan, and repeated
        loss/restore cycles (``node_flap``) sum *disjoint* windows
        instead of charging loss-to-makespan once per loss.  A device in
        ``lost_at`` with no recorded window (manually constructed stats)
        falls back to the legacy charge ``makespan - lost_at[device]``.
        Straggling degrades but does not remove capacity, so it is
        reported separately (:meth:`degraded_device_s`), not charged here.
        """
        if makespan_s <= 0 or num_devices <= 0:
            return 100.0
        per_device: dict[int, list[tuple[float, float]]] = {}
        for dev, start, end in self.down_windows:
            lo = min(max(start, 0.0), makespan_s)
            hi = makespan_s if end is None else min(max(end, 0.0), makespan_s)
            if hi > lo:
                per_device.setdefault(dev, []).append((lo, hi))
        for dev, t in self.lost_at.items():
            if dev not in per_device and not any(w[0] == dev for w in self.down_windows):
                lo = min(max(t, 0.0), makespan_s)
                if makespan_s > lo:
                    per_device.setdefault(dev, []).append((lo, makespan_s))
        dead = _union_length(per_device)
        return 100.0 * (1.0 - dead / (makespan_s * num_devices))

    def degraded_device_s(self, makespan_s: float) -> float:
        """Device-seconds spent inside straggler windows (clipped to the run).

        Overlapping windows on the *same* device are merged before
        summing — two windows covering the same second degrade that
        device-second once, not twice (the slowdown compounds, the time
        does not).  Windows on different devices still add up.
        """
        per_device: dict[int, list[tuple[float, float]]] = {}
        for dev, start, end, _ in self.straggler_windows:
            lo, hi = min(start, makespan_s), min(end, makespan_s)
            if hi > lo:
                per_device.setdefault(dev, []).append((lo, hi))
        return _union_length(per_device)

    def summary(self, makespan_s: float | None = None, num_devices: int | None = None) -> dict:
        """Deterministic, JSON-ready fault section for the SLO report.

        With no arguments, uses the context bound by :meth:`finalize`
        (the uniform :class:`~repro.reporting.Report` call shape);
        explicit arguments override it.
        """
        makespan_s = self.makespan_s if makespan_s is None else makespan_s
        num_devices = self.num_devices if num_devices is None else num_devices
        latencies = {
            kind: [float(v) for v in vals]
            for kind, vals in sorted(self.recovery_latency_s.items())
        }
        return {
            "injected": {k: self.injected[k] for k in sorted(self.injected)},
            "transient_failures": self.transient_failures,
            "transient_recovered": self.transient_recovered,
            "transient_abandoned": self.transient_abandoned,
            "transfer_refetches": self.transfer_refetches,
            "device_losses": self.device_losses,
            "node_losses": self.node_losses,
            "link_losses": self.link_losses,
            "heartbeat_losses": self.heartbeat_losses,
            "device_restores": self.device_restores,
            "host_staged_fetches": self.host_staged_fetches,
            "orphaned_tensors": self.orphaned_tensors,
            "rescheduled_pairs": self.rescheduled_pairs,
            "cross_node_fetches": self.cross_node_fetches,
            "prewarmed_tensors": self.prewarmed_tensors,
            "predicted_infeasible": self.predicted_infeasible,
            "recovery_latency_s": latencies,
            "availability_pct": self.availability(makespan_s, num_devices),
            "degraded_device_s": self.degraded_device_s(makespan_s),
        }

    def to_json(self, path: str | Path) -> None:
        """Write summary + the replayable fault/retry/recovery event log."""
        dump_json(path, {"summary": self.summary(), "events": list(self.events)})


def _union_length(per_device: dict[int, list[tuple[float, float]]]) -> float:
    """Summed length of each device's merged intervals (sorted in place).

    Overlapping intervals on one device count once; devices add up, in
    ``per_device`` order, so the float sum is reproducible bit for bit.
    """
    total = 0.0
    for intervals in per_device.values():
        intervals.sort()
        cur_lo, cur_hi = intervals[0]
        for lo, hi in intervals[1:]:
            if lo > cur_hi:
                total += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        total += cur_hi - cur_lo
    return total
