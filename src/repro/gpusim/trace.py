"""Execution tracing: packed event recording and Chrome-trace export.

Attach a :class:`TraceRecorder` to an :class:`ExecutionEngine` to
capture every simulated event (fetches, evictions, kernels) with its
device placement and simulated timestamps.  ``save_chrome_trace`` writes
the standard ``chrome://tracing`` / Perfetto JSON so schedules can be
inspected visually; ``summary_by_device`` gives quick aggregates.

Recording is *packed*: each kept event becomes one 37-byte row (kind
code, lane, start, duration, uid, nbytes) written in place into a
4 096-row ``bytearray`` chunk, plus one reference in the chunk's label
list.  Only one chunk lives in memory: when it is full and another
event is kept, its rows and one ``marshal`` blob of its labels are
appended to an anonymous temporary file and the chunk is reused, so a
recorder holds one chunk (~148 KiB) and its labels however many events
it has kept (a recorder of at most 4 096 events never opens a file).
Every read (:attr:`TraceRecorder.events`, ``events_of``,
``summary_by_device``, ``to_records``, ``to_chrome_trace``) is rendered
on call, streaming the spilled chunks back with ``os.pread`` and then
the live one; no object view is cached.  ``save_chrome_trace`` streams
the file one event at a time, so writing a trace costs no more memory
than recording it.  Times must be finite: a NaN or infinite duration or
start is rejected before it can reach a lane clock or the JSON file,
and a lane, uid or nbytes that does not fit its row field is rejected
the same way.

What gets recorded is governed by a :class:`TraceSink`:

* :class:`FullSink` — keep every event (default),
* :class:`SamplingSink` — keep a deterministic 1-in-``stride`` subset,
* :class:`NullSink` — keep nothing (clock bookkeeping only).

Serving surfaces the same choice through :class:`TraceConfig` (the
``trace`` block of ``ServeConfig``, schema v6).
"""

from __future__ import annotations

import json
import marshal
import numbers
import operator
import os
import struct
import tempfile
import weakref
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Protocol, runtime_checkable

from repro.errors import ConfigurationError
from repro.utils.codec import JsonConfig

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

#: Kind name -> the code stored in a packed row (its index in
#: :data:`EVENT_KINDS`); a missing key is an unknown kind.
_KIND_CODE = {kind: code for code, kind in enumerate(EVENT_KINDS)}


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
    but before the row is packed (a :class:`FullSink` is not consulted
    at all); rejected events still advance the
    device clock (simulated time is not a function of what is kept).
    Implementations must be deterministic — replaying the same event
    sequence must keep the same subset — so fixed-seed runs stay
    reproducible.
    """

    def keep(self, kind: str, device: int) -> bool: ...


def _check_stride(name: str, stride) -> None:
    """A sampling stride is an int >= 1 (a bool, float or NaN is not)."""
    if isinstance(stride, bool) or not isinstance(stride, numbers.Integral) or stride < 1:
        raise ConfigurationError(f"{name} must be an int >= 1, got {stride!r}")


class FullSink:
    """Keep every event (the default sink)."""

    name = "full"

    def keep(self, kind: str, device: int) -> bool:
        return True


class NullSink:
    """Keep nothing — device clocks advance, no row is stored."""

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
        _check_stride("stride", stride)
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
class TraceConfig(JsonConfig):
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

    BLOCK = "trace"

    mode: str = "report"
    sample_stride: int = 16

    def __post_init__(self):
        if self.mode not in TRACE_MODES:
            raise ConfigurationError(
                f"unknown trace mode {self.mode!r}; expected one of {TRACE_MODES}"
            )
        _check_stride("sample_stride", self.sample_stride)

    def make_sink(self) -> "TraceSink | None":
        """The sink for this mode; ``None`` when no recorder attaches."""
        if self.mode == "full":
            return FullSink()
        if self.mode == "sampling":
            return SamplingSink(self.sample_stride)
        return None


# --------------------------------------------------------------- recorder
#: One packed event: kind code, lane, start and duration (simulated
#: seconds), uid, nbytes.  Little-endian with no padding: 37 bytes.
_ROW = struct.Struct("<Biddqq")
_ROW_SIZE = _ROW.size
_pack_into = _ROW.pack_into
#: Rows per storage chunk (~148 KiB); full chunks are spilled to disk.
_CHUNK_ROWS = 4096
_CHUNK_BYTES = _CHUNK_ROWS * _ROW_SIZE
_INF = float("inf")
#: :meth:`TraceRecorder.to_records` keys: the :class:`TraceEvent` fields.
_RECORD_KEYS = tuple(f.name for f in fields(TraceEvent))


def _row_error(lane, uid, nbytes) -> ValueError:
    """The error for a row ``struct`` could not pack, naming the field."""
    for name, value, bits in (("lane", lane, 32), ("uid", uid, 64), ("nbytes", nbytes, 64)):
        limit = 1 << (bits - 1)
        try:
            fits = -limit <= operator.index(value) < limit
        except TypeError:
            fits = False
        if not fits:
            return ValueError(f"trace event {name} must be an int that fits int{bits}, got {value!r}")
    return ValueError(f"trace event cannot be packed: lane {lane!r}, uid {uid!r}, nbytes {nbytes!r}")


def _chrome_event(kind: str, lane: int, start: float, duration: float, uid: int, nbytes: int, label: str) -> dict:
    """One Chrome-tracing 'X' (complete) event, microsecond timestamps."""
    return {
        "name": kind + (f" {label}" if label else ""),
        "cat": kind,
        "ph": "X",
        "ts": start * 1e6,
        "dur": duration * 1e6,
        "pid": 0,
        "tid": lane,
        "args": {"uid": uid, "nbytes": nbytes},
    }


class TraceRecorder:
    """Collects simulated events during a run as packed rows.

    The engine clocks each device independently (events on one device
    are serialized; devices run in parallel), matching how the
    simulator accumulates time.  A lane must fit a signed 32-bit int,
    ``uid`` and ``nbytes`` a signed 64-bit int; an event that does not
    is rejected with a ``ValueError`` naming the field, and the lane's
    clock is left as it was.

    Rows are packed into one in-memory chunk.  When it is full and
    another kept event arrives, its rows and labels are appended to an
    anonymous temporary file (opened at the first spill) and the chunk
    is reused, so the recorder holds one chunk however long the run.
    :meth:`clear` closes the file, and so does collecting the recorder.

    Parameters
    ----------
    sink:
        Event filter; defaults to :class:`FullSink` (keep everything).
        It may be swapped mid-recording through :attr:`sink`.
    """

    def __init__(self, sink: "TraceSink | None" = None):
        self.sink = sink if sink is not None else FullSink()
        #: The in-memory chunk and the byte offset of its next free row (a
        #: full offset means a chunk is due: none is held until needed).
        self._chunk = bytearray()
        self._off = _CHUNK_BYTES
        #: One label per row of the in-memory chunk.
        self._labels: list[str] = []
        #: The spill file, the finalizer that closes it, and the file
        #: offset where each spilled chunk ends (its rows, then one
        #: ``marshal`` blob of its labels).
        self._file = None
        self._close: weakref.finalize | None = None
        self._ends: list[int] = []
        self._device_clock: dict[int, float] = {}

    @property
    def sink(self) -> TraceSink:
        return self._sink

    @sink.setter
    def sink(self, sink: TraceSink) -> None:
        self._sink = sink
        # A FullSink keeps everything: skip the per-event call.
        self._keep = None if type(sink) is FullSink else sink.keep

    def __len__(self) -> int:
        return len(self._ends) * _CHUNK_ROWS + len(self._labels)

    def _next_chunk(self) -> None:
        """Make room for a row: spill the full chunk, or allocate the first."""
        if self._labels:
            fh = self._file
            if fh is None:
                fh = self._file = tempfile.TemporaryFile()
                self._close = weakref.finalize(self, fh.close)
            fh.write(self._chunk)
            fh.write(marshal.dumps(self._labels))
            fh.flush()
            self._ends.append(fh.tell())
            self._labels.clear()
        else:
            self._chunk = bytearray(_CHUNK_BYTES)
        self._off = 0

    def record(self, kind: str, device: int, duration_s: float, *, uid: int = -1, nbytes: int = 0, label: str = "") -> None:
        """Append an event at the device's current simulated time.

        A negative, NaN or infinite duration is rejected and the lane's
        clock is left as it was.
        """
        code = _KIND_CODE.get(kind)
        if code is None:
            raise ValueError(f"unknown trace event kind {kind!r}; expected one of {EVENT_KINDS}")
        if not 0.0 <= duration_s < _INF:
            raise ValueError(f"event duration must be >= 0 and finite, got {duration_s}")
        clock = self._device_clock
        start = clock.get(device, 0.0)
        keep = self._keep
        if keep is None or keep(kind, device):
            off = self._off
            if off == _CHUNK_BYTES:
                self._next_chunk()
                off = 0
            try:
                _pack_into(self._chunk, off, code, device, start, duration_s, uid, nbytes)
            except struct.error:
                raise _row_error(device, uid, nbytes) from None
            self._off = off + _ROW_SIZE
            self._labels.append(label)
        clock[device] = start + duration_s

    def record_at(
        self, kind: str, device: int, start_s: float, duration_s: float, *, uid: int = -1, nbytes: int = 0, label: str = ""
    ) -> None:
        """Append an event with an explicit start time.

        Used by externally clocked producers (the serving simulator's
        wall-clock spans) instead of the per-device running clock.  The
        device clock is still advanced past the event's end so that
        later :meth:`record` calls on the same lane never run backwards.
        A non-finite start, or a negative or non-finite duration, is
        rejected and the lane's clock is left as it was.
        """
        code = _KIND_CODE.get(kind)
        if code is None:
            raise ValueError(f"unknown trace event kind {kind!r}; expected one of {EVENT_KINDS}")
        # One chained comparison: finite start, finite duration >= 0.
        if not -_INF < start_s < _INF > duration_s >= 0.0:
            raise ValueError(
                f"event start must be finite and duration >= 0 and finite, "
                f"got start {start_s}, duration {duration_s}"
            )
        keep = self._keep
        if keep is None or keep(kind, device):
            off = self._off
            if off == _CHUNK_BYTES:
                self._next_chunk()
                off = 0
            try:
                _pack_into(self._chunk, off, code, device, start_s, duration_s, uid, nbytes)
            except struct.error:
                raise _row_error(device, uid, nbytes) from None
            self._off = off + _ROW_SIZE
            self._labels.append(label)
        clock = self._device_clock
        end = start_s + duration_s
        if end > clock.get(device, 0.0):
            clock[device] = end

    def clear(self) -> None:
        """Drop every event and lane clock and close the spill file."""
        if self._close is not None:
            self._close()
        self._file = self._close = None
        self._ends.clear()
        self._chunk = bytearray()
        self._off = _CHUNK_BYTES
        self._labels.clear()
        self._device_clock.clear()

    # ----------------------------------------------------------------- reads
    def _unpacked(self):
        """``(kind, lane, start, duration, uid, nbytes, label)`` per kept
        event, in record order — the :class:`TraceEvent` field order.

        The spilled chunks are read back one at a time with ``os.pread``
        (the write position never moves), then a copy of the live chunk:
        events recorded after the read starts are not part of it.
        """
        ends = self._ends[:]
        live = bytes(memoryview(self._chunk)[: self._off])
        live_labels = self._labels[:]
        fd = self._file.fileno() if ends else -1
        begin = 0
        for end in ends:
            blob = memoryview(os.pread(fd, end - begin, begin))
            labels = iter(marshal.loads(blob[_CHUNK_BYTES:]))
            for code, lane, start, duration, uid, nbytes in _ROW.iter_unpack(blob[:_CHUNK_BYTES]):
                yield EVENT_KINDS[code], lane, start, duration, uid, nbytes, next(labels)
            begin = end
        labels = iter(live_labels)
        for code, lane, start, duration, uid, nbytes in _ROW.iter_unpack(live):
            yield EVENT_KINDS[code], lane, start, duration, uid, nbytes, next(labels)

    @property
    def events(self) -> list[TraceEvent]:
        """The recorded events as :class:`TraceEvent` objects.

        Built from the packed rows on every access — no object view is
        kept, so a recorder never holds more than its one chunk.
        Read it once into a local rather than in a loop.
        """
        return [TraceEvent(*row) for row in self._unpacked()]

    def events_of(self, kind: str) -> list[TraceEvent]:
        """The recorded events of one kind, in record order."""
        return [TraceEvent(*row) for row in self._unpacked() if row[0] == kind]

    def summary_by_device(self) -> dict[int, dict[str, float]]:
        """Per-device totals: seconds per event kind plus event count."""
        out: dict[int, dict[str, float]] = {}
        for kind, lane, _, duration, _, _, _ in self._unpacked():
            dev = out.get(lane)
            if dev is None:
                dev = out[lane] = {k: 0.0 for k in EVENT_KINDS} | {"events": 0}
            dev[kind] += duration
            dev["events"] += 1
        return out

    # -------------------------------------------------------------- exports
    def to_chrome_trace(self) -> list[dict]:
        """Chrome-tracing 'X' (complete) events, microsecond timestamps."""
        return [_chrome_event(*row) for row in self._unpacked()]

    def save_chrome_trace(self, path: str | Path) -> None:
        """Write a ``chrome://tracing``-loadable JSON file.

        Streamed one event at a time; the bytes equal
        ``json.dumps({"traceEvents": self.to_chrome_trace()})``.
        """
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('{"traceEvents": [')
            sep = ""
            for row in self._unpacked():
                fh.write(sep + json.dumps(_chrome_event(*row)))
                sep = ", "
            fh.write("]}")

    def to_records(self) -> list[dict]:
        """Plain dict records (e.g. for DataFrame construction)."""
        return [dict(zip(_RECORD_KEYS, row)) for row in self._unpacked()]
