"""Execution tracing: columnar event recording and Chrome-trace export.

Attach a :class:`TraceRecorder` to an :class:`ExecutionEngine` to
capture every simulated event (fetches, evictions, kernels) with its
device placement and simulated timestamps.  ``to_chrome_trace`` writes
the standard ``chrome://tracing`` / Perfetto JSON so schedules can be
inspected visually; ``summary_by_device`` gives quick aggregates.

Recording is *columnar*: each event appends one element to a set of
parallel arrays (kind, device, start, duration, uid, nbytes, label)
instead of constructing a :class:`TraceEvent` object per event.  The
object view (:attr:`TraceRecorder.events`) and every rendered export
(Chrome trace, records) are materialized lazily on first access — a
run that records a million events but never renders them pays only the
appends.

What gets recorded is governed by a :class:`TraceSink`:

* :class:`FullSink` — keep every event (default),
* :class:`SamplingSink` — keep a deterministic 1-in-``stride`` subset,
* :class:`NullSink` — keep nothing (clock bookkeeping only).

Serving surfaces the same choice through :class:`TraceConfig` (the
``trace`` block of ``ServeConfig``, schema v6).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Protocol, runtime_checkable

from repro.errors import ConfigurationError

#: Event kinds emitted by the engine, plus the serving layer's
#: per-vector lifecycle spans (wait → schedule → execute), the chaos
#: layer's fault lifecycle (fault → retry → recovery) and flap-cycle
#: restores (restore), the failure-domain layer's cross-node
#: re-fetches (xnode) and warm restores (prewarm), the autoscaler's
#: pool changes (scale-up → scale-online → scale-down), the
#: dispatcher's batched scheduling rounds (batch), the health
#: subsystem's lifecycle / hedge / breaker transitions
#: (health, hedge, breaker), the integrity subsystem's audit
#: recomputations, taint invalidations and blame transitions
#: (audit, taint, blame), and the learned routing policy's per-shard
#: predictor refits and warm-up transition (routing-refit,
#: routing-warm).
EVENT_KINDS = (
    "batch",
    "h2d",
    "d2d",
    "alloc",
    "evict",
    "kernel",
    "drain",
    "wait",
    "schedule",
    "execute",
    "fault",
    "retry",
    "recovery",
    "restore",
    "xnode",
    "prewarm",
    "scale-up",
    "scale-down",
    "scale-online",
    "health",
    "hedge",
    "breaker",
    "audit",
    "taint",
    "blame",
    "routing-refit",
    "routing-warm",
)

#: Kinds a sampling sink must never thin: fault and integrity events are
#: rare, individually meaningful (one event = one injected fault, one
#: audit, one taint invalidation, one blame transition), and consumed by
#: accounting — dropping any of them would make a sampled trace lie.
ALWAYS_KEPT_KINDS = frozenset({"fault", "audit", "taint", "blame"})

_EVENT_KIND_SET = frozenset(EVENT_KINDS)


@dataclass(frozen=True)
class TraceEvent:
    """One simulated device event."""

    kind: str
    device: int
    start_s: float
    duration_s: float
    uid: int = -1
    nbytes: int = 0
    label: str = ""

    @property
    def end_s(self) -> float:
        return self.start_s + self.duration_s


# ------------------------------------------------------------------ sinks
@runtime_checkable
class TraceSink(Protocol):
    """Decides, per event, whether the recorder keeps it.

    ``keep()`` is consulted once per recorded event *after* validation
    but before the columnar append; rejected events still advance the
    device clock (simulated time is not a function of what is kept).
    Implementations must be deterministic — replaying the same event
    sequence must keep the same subset — so fixed-seed runs stay
    reproducible.
    """

    def keep(self, kind: str, device: int) -> bool: ...


class FullSink:
    """Keep every event (the default sink)."""

    name = "full"

    def keep(self, kind: str, device: int) -> bool:
        return True


class NullSink:
    """Keep nothing — device clocks advance, columns stay empty."""

    name = "null"

    def keep(self, kind: str, device: int) -> bool:
        return False


class SamplingSink:
    """Keep a deterministic 1-in-``stride`` subset of events.

    The counter is global across devices (not per-kind), so the kept
    subset is a uniform thinning of the event stream in record order —
    and, being a plain counter, identical across replays.

    :data:`ALWAYS_KEPT_KINDS` (``fault``/``audit``/``taint``/``blame``)
    bypass the counter entirely: they are always kept and do not advance
    the stride position, so the thinned subset of the remaining kinds is
    unaffected by how many fault/integrity events interleave with them.
    """

    name = "sampling"

    def __init__(self, stride: int = 16):
        if stride < 1:
            raise ConfigurationError(f"sampling stride must be >= 1, got {stride}")
        self.stride = stride
        self._count = 0

    def keep(self, kind: str, device: int) -> bool:
        if kind in ALWAYS_KEPT_KINDS:
            return True
        kept = self._count % self.stride == 0
        self._count += 1
        return kept


#: Serving-layer trace modes (the ``TraceConfig.mode`` values).
TRACE_MODES = ("report", "full", "sampling", "off")


@dataclass(frozen=True)
class TraceConfig:
    """The ``trace`` block of ``ServeConfig`` (schema v6).

    Parameters
    ----------
    mode:
        * ``"report"`` (default) — no recorder is attached to the
          engine; Chrome traces are rendered lazily from the latency
          report, exactly as before this block existed.
        * ``"full"`` — attach a :class:`TraceRecorder` with a
          :class:`FullSink` for the run; every engine event is kept
          (``ServeResult.engine_trace``).  The engine's one executor
          records the events; simulated results are unchanged.
        * ``"sampling"`` — as ``"full"`` but with a
          :class:`SamplingSink` keeping 1 in ``sample_stride`` events.
        * ``"off"`` — no recorder *and* ``ServeResult.to_trace()``
          renders nothing (the fully trace-free fast path).
    sample_stride:
        Thinning factor for ``"sampling"`` mode.
    """

    mode: str = "report"
    sample_stride: int = 16

    def __post_init__(self):
        if self.mode not in TRACE_MODES:
            raise ConfigurationError(
                f"unknown trace mode {self.mode!r}; expected one of {TRACE_MODES}"
            )
        if self.sample_stride < 1:
            raise ConfigurationError(
                f"sample_stride must be >= 1, got {self.sample_stride}"
            )

    def make_sink(self) -> "TraceSink | None":
        """The sink for this mode; ``None`` when no recorder attaches."""
        if self.mode == "full":
            return FullSink()
        if self.mode == "sampling":
            return SamplingSink(self.sample_stride)
        return None

    def to_dict(self) -> dict:
        return {"mode": self.mode, "sample_stride": self.sample_stride}

    @classmethod
    def from_dict(cls, d: dict) -> "TraceConfig":
        if not isinstance(d, dict):
            raise ConfigurationError(f"trace config must be a JSON object, got {d!r}")
        unknown = set(d) - {"mode", "sample_stride"}
        if unknown:
            raise ConfigurationError(f"unknown trace config keys: {sorted(unknown)}")
        return cls(
            mode=d.get("mode", "report"),
            sample_stride=d.get("sample_stride", 16),
        )


# --------------------------------------------------------------- recorder
class TraceRecorder:
    """Collects simulated events during a run, column-wise.

    The engine clocks each device independently (events on one device
    are serialized; devices run in parallel), matching how the
    simulator accumulates time.

    Parameters
    ----------
    sink:
        Event filter; defaults to :class:`FullSink` (keep everything).
    """

    def __init__(self, sink: "TraceSink | None" = None):
        self.sink = sink if sink is not None else FullSink()
        self._kinds: list[str] = []
        self._devices: list[int] = []
        self._starts: list[float] = []
        self._durations: list[float] = []
        self._uids: list[int] = []
        self._nbytes: list[int] = []
        self._labels: list[str] = []
        self._device_clock: dict[int, float] = {}
        #: Cached object view (invalidated by length change).
        self._events_cache: list[TraceEvent] | None = None

    def __len__(self) -> int:
        return len(self._kinds)

    @property
    def events(self) -> list[TraceEvent]:
        """Object view of the recorded events (materialized lazily).

        Treat as read-only: it is rebuilt from the columns whenever
        events were recorded since the last access.
        """
        cache = self._events_cache
        if cache is None or len(cache) != len(self._kinds):
            cache = [
                TraceEvent(
                    kind=k, device=d, start_s=s, duration_s=du,
                    uid=u, nbytes=nb, label=lb,
                )
                for k, d, s, du, u, nb, lb in zip(
                    self._kinds, self._devices, self._starts, self._durations,
                    self._uids, self._nbytes, self._labels,
                )
            ]
            self._events_cache = cache
        return cache

    def record(self, kind: str, device: int, duration_s: float, *, uid: int = -1, nbytes: int = 0, label: str = "") -> None:
        """Append an event at the device's current simulated time.

        A negative duration is rejected (as in :meth:`record_at`): it
        would run the lane's clock backwards.
        """
        if kind not in _EVENT_KIND_SET:
            raise ValueError(f"unknown trace event kind {kind!r}; expected one of {EVENT_KINDS}")
        if duration_s < 0:
            raise ValueError(f"event duration must be >= 0, got {duration_s}")
        clock = self._device_clock
        start = clock.get(device, 0.0)
        clock[device] = start + duration_s
        if not self.sink.keep(kind, device):
            return
        self._kinds.append(kind)
        self._devices.append(device)
        self._starts.append(start)
        self._durations.append(duration_s)
        self._uids.append(uid)
        self._nbytes.append(nbytes)
        self._labels.append(label)

    def record_at(
        self, kind: str, device: int, start_s: float, duration_s: float, *, uid: int = -1, nbytes: int = 0, label: str = ""
    ) -> None:
        """Append an event with an explicit start time.

        Used by externally clocked producers (the serving simulator's
        wall-clock spans) instead of the per-device running clock.  The
        device clock is still advanced past the event's end so that
        later :meth:`record` calls on the same lane never run backwards.
        """
        if kind not in _EVENT_KIND_SET:
            raise ValueError(f"unknown trace event kind {kind!r}; expected one of {EVENT_KINDS}")
        if duration_s < 0:
            raise ValueError(f"event duration must be >= 0, got {duration_s}")
        clock = self._device_clock
        end = start_s + duration_s
        if end > clock.get(device, 0.0):
            clock[device] = end
        if not self.sink.keep(kind, device):
            return
        self._kinds.append(kind)
        self._devices.append(device)
        self._starts.append(start_s)
        self._durations.append(duration_s)
        self._uids.append(uid)
        self._nbytes.append(nbytes)
        self._labels.append(label)

    def clear(self) -> None:
        self._kinds.clear()
        self._devices.clear()
        self._starts.clear()
        self._durations.clear()
        self._uids.clear()
        self._nbytes.clear()
        self._labels.clear()
        self._device_clock.clear()
        self._events_cache = None

    # ------------------------------------------------------------- summaries
    def events_of(self, kind: str) -> list[TraceEvent]:
        return [e for e in self.events if e.kind == kind]

    def summary_by_device(self) -> dict[int, dict[str, float]]:
        """Per-device totals: seconds per event kind plus event count."""
        out: dict[int, dict[str, float]] = {}
        for k, d, du in zip(self._kinds, self._devices, self._durations):
            dev = out.get(d)
            if dev is None:
                dev = out[d] = {kind: 0.0 for kind in EVENT_KINDS} | {"events": 0}
            dev[k] += du
            dev["events"] += 1
        return out

    # -------------------------------------------------------------- exports
    def to_chrome_trace(self) -> list[dict]:
        """Chrome-tracing 'X' (complete) events, microsecond timestamps.

        Rendered from the columns on call — nothing is pre-formatted at
        record time.
        """
        return [
            {
                "name": f"{k}" + (f" {lb}" if lb else ""),
                "cat": k,
                "ph": "X",
                "ts": s * 1e6,
                "dur": du * 1e6,
                "pid": 0,
                "tid": d,
                "args": {"uid": u, "nbytes": nb},
            }
            for k, d, s, du, u, nb, lb in zip(
                self._kinds, self._devices, self._starts, self._durations,
                self._uids, self._nbytes, self._labels,
            )
        ]

    def save_chrome_trace(self, path: str | Path) -> None:
        """Write a ``chrome://tracing``-loadable JSON file."""
        Path(path).write_text(json.dumps({"traceEvents": self.to_chrome_trace()}))

    def to_records(self) -> list[dict]:
        """Plain dict records (e.g. for DataFrame construction)."""
        return [asdict(e) for e in self.events]
