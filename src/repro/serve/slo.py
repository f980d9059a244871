"""Latency accounting and SLO metrics for online serving runs.

Each completed vector yields a :class:`VectorLatency` splitting its
sojourn time into queue wait, scheduling and execution; shed vectors
are recorded separately.  :class:`LatencyReport` aggregates them into
tail percentiles (p50/p95/p99), windowed throughput and drop rate, and
exports to JSON or to the existing Chrome-trace format
(:class:`~repro.gpusim.trace.TraceRecorder`) where every vector is one
lane showing its wait → schedule → execute spans.
"""

from __future__ import annotations

from array import array
from collections.abc import Sequence
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from repro.errors import ConfigurationError
from repro.gpusim.trace import TraceRecorder
from repro.reporting import dump_json
from repro.serve.timeline import Ticket
from repro.utils.rows import RaggedColumn, RowView, column, take


@dataclass(frozen=True)
class VectorLatency:
    """Latency breakdown of one served vector (simulated seconds)."""

    vector_id: int
    arrival_s: float
    dispatch_s: float
    sched_done_s: float
    complete_s: float
    pairs: int
    devices: tuple[int, ...] = ()
    #: Owning tenant name (``None`` for single-tenant runs).
    tenant: str | None = None
    #: Scheduling round the vector was dispatched in (``None`` for runs
    #: predating batched rounds) and how many vectors that round held.
    round_id: int | None = None
    round_size: int = 1

    @property
    def queue_wait_s(self) -> float:
        return self.dispatch_s - self.arrival_s

    @property
    def schedule_s(self) -> float:
        return self.sched_done_s - self.dispatch_s

    @property
    def execute_s(self) -> float:
        return self.complete_s - self.sched_done_s

    @property
    def latency_s(self) -> float:
        """End-to-end sojourn time: arrival → completion."""
        return self.complete_s - self.arrival_s


@dataclass(frozen=True)
class DroppedVector:
    """A vector shed without completing, with the reason it was shed.

    ``"queue-full"`` vectors were rejected at admission and never
    executed; ``"predicted-infeasible"`` vectors were shed by the
    fault-aware admission gate (completion probability under the live
    fault rate fell below threshold, see
    :class:`~repro.serve.queueing.FaultAware`) and never executed
    either; ``"fault-abandoned"`` vectors were admitted but could not
    be completed (retry budget exhausted, or no devices left).
    """

    vector_id: int
    arrival_s: float
    pairs: int
    reason: str = "queue-full"
    tenant: str | None = None


#: The flat completion columns of :class:`LatencyReport` (``_devices``
#: is ragged and taken separately).
_COLUMNS = (
    "_vector_id", "_arrival", "_dispatch", "_sched_done", "_complete",
    "_pairs", "_tenant", "_round_id", "_round_size",
)


class _Completions(RowView):
    """:attr:`LatencyReport.completed`: its columns rendered as records."""

    def __init__(self, report: "LatencyReport"):
        self._report = report

    def __len__(self) -> int:
        return len(self._report._vector_id)

    def _row(self, i: int) -> VectorLatency:
        r = self._report
        round_id = r._round_id[i]
        return VectorLatency(
            r._vector_id[i], r._arrival[i], r._dispatch[i], r._sched_done[i], r._complete[i],
            r._pairs[i], tuple(r._devices.row(i)), r._tenants[r._tenant[i]],
            None if round_id < 0 else round_id, r._round_size[i],
        )


class LatencyReport:
    """Aggregated per-vector latency records of one serving run.

    Completions are kept as packed columns, one ``array`` per
    :class:`VectorLatency` field (float64 timestamps, int64 vector and
    round ids, int32 counts and tenant code, devices as one flat int32
    column), about 80 B per vector; :attr:`completed` renders the
    records on access.  Shed vectors stay a list of
    :class:`DroppedVector`.
    """

    def __init__(self):
        self._vector_id = array("q")
        self._arrival = array("d")
        self._dispatch = array("d")
        self._sched_done = array("d")
        self._complete = array("d")
        self._pairs = array("i")
        self._devices = RaggedColumn("i")
        #: Index into :attr:`_tenants` (tenant names, ``None`` included).
        self._tenant = array("i")
        self._tenants: list[str | None] = []
        self._tenant_code: dict[str | None, int] = {}
        #: Round ids are non-negative; ``-1`` stands for ``None``.
        self._round_id = array("q")
        self._round_size = array("i")
        self.dropped: list[DroppedVector] = []

    @property
    def completed(self) -> Sequence[VectorLatency]:
        """The completed vectors' records, in completion order (read-only)."""
        return _Completions(self)

    # ------------------------------------------------------------- recording
    def add_completion(self, ticket: Ticket) -> VectorLatency:
        rec = VectorLatency(
            vector_id=ticket.vector.vector_id,
            arrival_s=ticket.arrival_s,
            dispatch_s=ticket.dispatch_s,
            sched_done_s=ticket.sched_done_s,
            complete_s=ticket.complete_s,
            pairs=len(ticket.vector.pairs),
            devices=tuple(ticket.devices),
            tenant=ticket.tenant,
            round_id=ticket.round_id,
            round_size=ticket.round_size,
        )
        self._vector_id.append(rec.vector_id)
        self._arrival.append(rec.arrival_s)
        self._dispatch.append(rec.dispatch_s)
        self._sched_done.append(rec.sched_done_s)
        self._complete.append(rec.complete_s)
        self._pairs.append(rec.pairs)
        self._devices.append(rec.devices)
        code = self._tenant_code.get(rec.tenant)
        if code is None:
            code = self._tenant_code[rec.tenant] = len(self._tenants)
            self._tenants.append(rec.tenant)
        self._tenant.append(code)
        self._round_id.append(-1 if rec.round_id is None else rec.round_id)
        self._round_size.append(rec.round_size)
        return rec

    def add_drop(self, ticket: Ticket, reason: str = "queue-full") -> DroppedVector:
        rec = DroppedVector(
            vector_id=ticket.vector.vector_id,
            arrival_s=ticket.arrival_s,
            pairs=len(ticket.vector.pairs),
            reason=reason,
            tenant=ticket.tenant,
        )
        self.dropped.append(rec)
        return rec

    # ---------------------------------------------------------- tenant views
    def tenant_names(self) -> list[str]:
        """Distinct tenant names seen in the records, sorted."""
        names = {self._tenants[code] for code in set(self._tenant)}
        names |= {r.tenant for r in self.dropped}
        return sorted(n for n in names if n is not None)

    def _subset(self, keep: np.ndarray, dropped: list[DroppedVector]) -> "LatencyReport":
        """Packed sub-report of the completions where the mask ``keep`` holds."""
        sub = LatencyReport()
        for name in _COLUMNS:
            setattr(sub, name, take(getattr(self, name), keep))
        sub._devices = self._devices.take(keep)
        sub._tenants = self._tenants[:]
        sub._tenant_code = dict(self._tenant_code)
        sub.dropped = dropped
        return sub

    def for_tenant(self, tenant: str | None) -> "LatencyReport":
        """Sub-report holding only ``tenant``'s records.

        A packed copy of the matching columns; drop records are shared
        with the parent.
        """
        code = self._tenant_code.get(tenant, -1)
        return self._subset(
            column(self._tenant) == code,
            [r for r in self.dropped if r.tenant == tenant],
        )

    def completed_after(self, t_s: float) -> "LatencyReport":
        """Sub-report of vectors that *completed* at or after ``t_s``.

        Built like :meth:`for_tenant`.  Chaos analyses use it to compare
        post-loss recovery latency (e.g. warm vs cold restore after a
        node dies) without the pre-fault steady state diluting the
        tail.  Drops are filtered on arrival time (a shed vector never
        completes).
        """
        return self._subset(
            column(self._complete) >= t_s,
            [r for r in self.dropped if r.arrival_s >= t_s],
        )

    def drops_by_reason(self) -> dict[str, int]:
        """Shed counts keyed by reason, keys sorted for stable JSON."""
        counts: dict[str, int] = {}
        for r in self.dropped:
            counts[r.reason] = counts.get(r.reason, 0) + 1
        return {k: counts[k] for k in sorted(counts)}

    # ------------------------------------------------------------ aggregates
    @property
    def offered(self) -> int:
        """Vectors that arrived (completed + shed)."""
        return len(self._complete) + len(self.dropped)

    @property
    def drop_rate(self) -> float:
        return len(self.dropped) / self.offered if self.offered else 0.0

    def latencies(self) -> np.ndarray:
        """End-to-end latencies in completion order (float64)."""
        return column(self._complete) - column(self._arrival)

    def percentile(self, p: float) -> float:
        """End-to-end latency percentile ``p`` (0–100); NaN when empty."""
        if not 0 <= p <= 100:
            raise ConfigurationError(f"percentile must be in [0, 100], got {p}")
        if not self._complete:
            return float("nan")
        return float(np.percentile(self.latencies(), p))

    @property
    def p50(self) -> float:
        return self.percentile(50)

    @property
    def p95(self) -> float:
        return self.percentile(95)

    @property
    def p99(self) -> float:
        return self.percentile(99)

    @property
    def mean_latency_s(self) -> float:
        return float(self.latencies().mean()) if self._complete else float("nan")

    @property
    def makespan_s(self) -> float:
        """Last completion timestamp (0 when nothing completed)."""
        return max(self._complete, default=0.0)

    def throughput_timeline(self, window_s: float) -> list[dict]:
        """Completions bucketed into ``window_s``-wide time windows.

        Returns one record per window from t=0 through the makespan:
        ``{"t_start_s", "t_end_s", "completions", "rate"}``.
        """
        if window_s <= 0:
            raise ConfigurationError(f"window_s must be > 0, got {window_s}")
        span = self.makespan_s
        if span <= 0:
            return []
        n_windows = int(np.ceil(span / window_s))
        counts = [0] * n_windows
        for complete_s in self._complete:
            counts[min(int(complete_s // window_s), n_windows - 1)] += 1
        return [
            {
                "t_start_s": i * window_s,
                "t_end_s": (i + 1) * window_s,
                "completions": c,
                "rate": c / window_s,
            }
            for i, c in enumerate(counts)
        ]

    def batching_summary(self) -> dict:
        """Batched-round occupancy and amortized-dispatch metrics.

        ``rounds`` counts distinct scheduling rounds among the
        completions; ``mean_round_vectors`` is the mean batch occupancy
        (vectors coalesced per round); ``amortized_schedule_s`` is the
        mean scheduling latency a vector pays *divided by its round's
        occupancy* — the per-vector dispatch cost after amortization
        across the round.  Unbatched runs degenerate to one round per
        vector and an amortized cost equal to the plain mean.
        """
        round_ids = column(self._round_id)
        in_round = round_ids >= 0
        ids = round_ids[in_round]
        sizes = column(self._round_size)[in_round]
        # Each round's occupancy: the largest size any member reports,
        # i.e. its last member once sorted by (id, size).  Dispatch sets
        # every member's size, so they agree on a served run.
        order = np.lexsort((sizes, ids))
        ids = ids[order]
        last = np.ones(len(ids), dtype=bool)
        last[:-1] = ids[1:] != ids[:-1]
        sizes = sizes[order[last]]
        n = len(sizes)
        return {
            "rounds": n,
            "batched_rounds": int(np.count_nonzero(sizes > 1)),
            "mean_round_vectors": (int(sizes.sum()) / n) if n else 0.0,
            "max_round_vectors": int(sizes.max()) if n else 0,
            "amortized_schedule_s": (
                float(np.mean(
                    (column(self._sched_done) - column(self._dispatch))
                    / column(self._round_size)
                ))
                if self._complete
                else float("nan")
            ),
        }

    def summary(self) -> dict:
        """Flat dict of the headline SLO numbers."""
        span = self.makespan_s
        return {
            "offered": self.offered,
            "completed": len(self._complete),
            "dropped": len(self.dropped),
            "dropped_by_reason": self.drops_by_reason(),
            "drop_rate": self.drop_rate,
            "p50_s": self.p50,
            "p95_s": self.p95,
            "p99_s": self.p99,
            "mean_latency_s": self.mean_latency_s,
            "mean_queue_wait_s": (
                float(np.mean(column(self._dispatch) - column(self._arrival)))
                if self._complete
                else float("nan")
            ),
            "makespan_s": span,
            "throughput_vps": len(self._complete) / span if span > 0 else 0.0,
            "batching": self.batching_summary(),
        }

    # --------------------------------------------------------------- exports
    def to_json(self, path: str | Path, *, extra: dict | None = None) -> None:
        """Write summary + per-vector records (and optional extras)."""
        payload = {
            "summary": self.summary(),
            "completed": [asdict(r) for r in self.completed],
            "dropped": [asdict(r) for r in self.dropped],
        }
        if extra:
            payload.update(extra)
        dump_json(path, payload)

    def to_trace(self) -> TraceRecorder:
        """Chrome-trace view: one lane per vector, wait→schedule→execute."""
        trace = TraceRecorder()
        for r in self.completed:
            lane = r.vector_id
            label = f"v{r.vector_id}"
            trace.record_at("wait", lane, r.arrival_s, r.queue_wait_s, label=label)
            trace.record_at("schedule", lane, r.dispatch_s, r.schedule_s, label=label)
            trace.record_at("execute", lane, r.sched_done_s, r.execute_s, label=label)
        return trace
