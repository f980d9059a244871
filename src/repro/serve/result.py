"""``ServeResult``: the outcome of one serving run and its report forms."""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from pathlib import Path

from repro.gpusim.metrics import ExecutionMetrics
from repro.gpusim.trace import TraceRecorder
from repro.reporting import dump_json
from repro.serve.slo import LatencyReport

#: Optional report sections, in report order: ``(section, event log)``.
#: A section is reported only when the run produced it (not ``None``);
#: its companion event log, if any, is written next to it by
#: :meth:`ServeResult.to_json`.
SECTIONS = (
    ("faults", "fault_events"),
    ("tenants", None),
    ("autoscale", None),
    ("journal", None),
    ("sharding", None),
    ("health", "health_events"),
    ("integrity", None),
    ("routing", "routing_events"),
)


@dataclass
class ServeResult:
    """Outcome of one online serving run."""

    report: LatencyReport
    metrics: ExecutionMetrics
    #: Admission-queue counter snapshot (admitted/dropped/peak depth).
    queue: dict = field(default_factory=dict)
    #: Absolute arrival timestamps actually offered (chronological).
    arrival_s: list[float] = field(default_factory=list)
    #: Fault section (``FaultStats.summary``); ``None`` without a plan.
    faults: dict | None = None
    #: Replayable fault/retry/recovery event log (empty without a plan).
    fault_events: list[dict] = field(default_factory=list)
    #: Per-tenant sections (summary + SLO attainment); ``None`` for
    #: single-tenant runs.
    tenants: dict | None = None
    #: Autoscaler section (actions, scale counts); ``None`` without one.
    autoscale: dict | None = None
    #: Residency-journal section (restores, prewarmed tensors);
    #: ``None`` unless :attr:`ServeConfig.warm_restore` was on.
    journal: dict | None = None
    #: Per-round dispatch log: one record per scheduling round
    #: (``round_id``, member vector ids, pair count, dispatch/sched-done
    #: timestamps).  Singleton rounds are logged too, so the log always
    #: covers every dispatch.
    rounds: list[dict] = field(default_factory=list)
    #: Sharded-control-plane section (routing counters, per-shard
    #: records); ``None`` for one-shard runs (no routing tier).
    sharding: dict | None = None
    #: Health-subsystem section (suspicion timeline, quarantine
    #: episodes, hedge/breaker counters); ``None`` unless
    #: :attr:`ServeConfig.health` was set.
    health: dict | None = None
    #: Replayable health/hedge/breaker event log (empty without the
    #: health subsystem).
    health_events: list[dict] = field(default_factory=list)
    #: Result-integrity section (injected/detected/escaped counters,
    #: audit overhead, blame log); ``None`` unless
    #: :attr:`ServeConfig.integrity` enabled a mode other than ``off``.
    integrity: dict | None = None
    #: Timeline events processed by the serving loop (control-plane
    #: work, the denominator of the events/sec benchmark figure).
    events_processed: int = 0
    #: Learned-routing section (decision/exploration counters, per-shard
    #: sample counts, refits and mean absolute prediction error);
    #: ``None`` unless :attr:`ServeConfig.routing` is ``"learned"``.
    routing: dict | None = None
    #: Replayable learned-routing event log — model refits and the
    #: cold-start→warm transition (empty for static policies).
    routing_events: list[dict] = field(default_factory=list)
    #: Engine-level event recorder for the run; populated only when
    #: :attr:`ServeConfig.trace` selects ``"full"`` or ``"sampling"``.
    engine_trace: TraceRecorder | None = None
    #: Trace mode the run was configured with (``TraceConfig.mode``).
    trace_mode: str = "report"

    @property
    def p99(self) -> float:
        return self.report.p99

    @property
    def dropped(self) -> int:
        return len(self.report.dropped)

    def tenant_report(self, name: str) -> LatencyReport:
        """Per-tenant latency-report view (see :meth:`LatencyReport.for_tenant`)."""
        return self.report.for_tenant(name)

    def summary(self) -> dict:
        """Headline SLO numbers plus engine counters."""
        out = self.report.summary()
        out["queue"] = dict(self.queue)
        out["gflops"] = self.metrics.gflops
        out["reuse_hits"] = self.metrics.counts.reuse_hits
        out["transfers"] = self.metrics.counts.input_fetches
        for name, _ in SECTIONS:
            section = getattr(self, name)
            if section is not None:
                out[name] = section
        out["events_processed"] = self.events_processed
        return out

    def to_json(self, path: str | Path, *, extra: dict | None = None) -> None:
        """Write the full result: summary, per-vector records, sections."""
        payload = {
            "summary": self.summary(),
            "completed": [asdict(r) for r in self.report.completed],
            "dropped": [asdict(r) for r in self.report.dropped],
        }
        for name, events in SECTIONS:
            section = getattr(self, name)
            if section is not None:
                payload[name] = section
                if events is not None:
                    payload[events] = getattr(self, events)
        if self.rounds:
            payload["rounds"] = self.rounds
        if extra:
            payload.update(extra)
        dump_json(path, payload)

    def to_trace(self) -> TraceRecorder:
        """Chrome-trace view: vector lifecycle lanes plus pool events.

        Fault and autoscale events render on lane ``-(device + 1)``,
        batched scheduling rounds on a ``batch`` lane block below the
        device lanes (``-(num_devices + 1 + round_id)``), and health /
        hedge / breaker events on a per-node lane block far below both
        (``-(100_000 + node)``), and learned-routing events (refits,
        warm-up) on their own per-node block below that
        (``-(200_000 + node)``), so none of them collide with the
        per-vector lanes (vector ids are non-negative).

        With :attr:`trace_mode` ``"off"`` an empty recorder is returned
        (nothing is rendered).  Engine-level device events, when
        recorded, stay on :attr:`engine_trace` — their device lanes use
        the same ids as the vector lanes, so they are deliberately not
        merged here.
        """
        if self.trace_mode == "off":
            return TraceRecorder()
        trace = self.report.to_trace()
        for rnd in self.rounds:
            if len(rnd["members"]) < 2:
                continue  # singleton rounds add nothing over the vector lanes
            trace.record_at(
                "batch",
                -(self.metrics.num_devices + 1 + rnd["round_id"]),
                rnd["dispatch_s"],
                rnd["sched_done_s"] - rnd["dispatch_s"],
                label=f"round {rnd['round_id']}: v{rnd['members']}",
            )
        for ev in self.fault_events:
            trace.record_at(
                ev["kind"],
                -(ev["device"] + 1),
                ev["time_s"],
                ev["duration_s"],
                label=ev["label"],
            )
        for act in (self.autoscale or {}).get("actions", ()):
            trace.record_at(
                f"scale-{act['action']}",
                -(act["device"] + 1),
                act["time_s"],
                0.0,
                label=act["reason"] or act["action"],
            )
        for ev in self.health_events:
            trace.record_at(
                ev["kind"],
                -(100_000 + ev["node"]),
                ev["time_s"],
                0.0,
                label=ev["label"],
            )
        for ev in self.routing_events:
            trace.record_at(
                f"routing-{ev['kind']}",
                -(200_000 + ev["node"]),
                ev["time_s"],
                0.0,
                label=ev["label"],
            )
        return trace
