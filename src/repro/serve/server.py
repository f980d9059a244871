"""Online serving: arrivals → admission queues → schedulers → devices.

Every serving mode runs one discrete-event loop, :class:`ServeRun`, over
the existing batch machinery (any
:class:`~repro.schedulers.base.Scheduler` plus the
:class:`~repro.gpusim.engine.ExecutionEngine`): vectors arrive over
simulated time, wait in bounded :class:`AdmissionQueue`\\ s, are
dispatched in scheduling rounds, and execute on devices whose busy-until
horizons are derived from the cost model — so device compute overlaps
later arrivals exactly as on real hardware.

The loop serves *shards*.  :class:`MiccoServer` runs one shard spanning
the whole cluster behind a :class:`PassThroughRouter`, serving either
one vector stream or several
:class:`~repro.serve.tenancy.TenantSpec` arrival streams interleaved and
admitted weighted-fair, the report then carrying per-tenant tails and
SLO attainment.  :class:`~repro.serve.sharded.ShardedServer` runs one
shard per topology node behind the stale-digest
:class:`~repro.serve.sharded.server.GlobalScheduler`.  An optional
:class:`~repro.serve.autoscale.Autoscaler` grows and shrinks each
shard's alive device pool from queue-depth and windowed-p99 signals.

Everything is simulated and seeded: a fixed seed reproduces the same
arrival trace, the same scheduling and scaling decisions and the same
latency percentiles, bit for bit.
"""

from __future__ import annotations

import copy
import itertools
from array import array

import numpy as np

from repro.core.config import MiccoConfig
from repro.errors import ConfigurationError, FaultError
from repro.faults.injector import FaultInjector
from repro.faults.journal import ResidencyJournal
from repro.faults.plan import FaultEvent, FaultKind, FaultPlan
from repro.gpusim.cluster import CONDEMNED, EDGES, POOL, QUARANTINED, ClusterState, up
from repro.gpusim.device import mi100_like
from repro.gpusim.engine import ExecutionEngine
from repro.gpusim.metrics import ExecutionMetrics
from repro.gpusim.trace import TraceRecorder
from repro.integrity import IntegrityState
from repro.schedulers.base import Scheduler
from repro.schedulers.batching import batch_shape_key, merge_vectors, split_assignment
from repro.schedulers.micco import MiccoScheduler
from repro.serve.arrivals import ArrivalProcess, TraceArrivals
from repro.serve.autoscale import autoscale_section
from repro.serve.config import ServeConfig
from repro.serve.health import (
    AdaptiveHedgeDeadline,
    CircuitBreaker,
    HealthMonitor,
    HedgePair,
    hedge_shielded,
)
from repro.serve.queueing import (
    AdmissionQueue,
    FaultAware,
    Fifo,
    QueuePolicy,
    WeightedFair,
    make_policy,
)
from repro.serve.result import RoundsLog, ServeResult
from repro.serve.slo import LatencyReport
from repro.serve.tenancy import TenantStream, build_streams, tenant_sections
from repro.serve.timeline import (
    BatchRound,
    DeviceOnline,
    DeviceRestore,
    DigestSync,
    HealthTick,
    SchedulingDone,
    Ticket,
    Timeline,
    VectorArrival,
    VectorCompletion,
)
from repro.tensor.spec import VectorSpec
from repro.utils.rows import ColumnView, merged_sorted
from repro.workloads.characteristics import CharacteristicsTracker


class PassThroughRouter:
    """The router of a one-shard run: every ticket goes to shard 0.

    Single-stream and multi-tenant serving are the sharded loop with one
    shard spanning the whole cluster.  This router keeps no digests and
    no charge ledger, so the loop schedules no
    :class:`~repro.serve.timeline.DigestSync` events for it and the
    report has no ``sharding`` section.  Once shard 0 is dead there is
    nowhere to route: work re-homed off it is shed.
    """

    #: No routing policy: nothing is learned or reported.
    policy = None
    #: No digests, so no periodic syncs.
    sync_interval_s = None

    def __init__(self, shards: dict):
        self.shards = shards
        self.forwards = 0
        self.reroutes = 0

    def route(self, vector: VectorSpec, now: float, exclude=frozenset()) -> int | None:
        return None if 0 in exclude or self.shards[0].dead else 0

    def charge(self, ticket: Ticket, node: int, now: float) -> None:
        pass

    def discharge(self, ticket: Ticket, now: float) -> None:
        pass

    def note_completion(self, ticket: Ticket, now: float) -> None:
        pass


class ServeRun:
    """State of one serving run; each timeline event kind is a method.

    The run owns the timeline, the shards (one
    :class:`~repro.serve.sharded.node.NodeRuntime` per topology node, or
    one spanning the cluster), the router in front of them and every
    per-run ledger: in-flight tickets, device busy horizons, the fault
    injector, the residency journal, integrity and health state.
    :meth:`execute` drains the timeline, dispatching each event to its
    ``on_*`` handler after applying due faults (the injector applies
    them to the cluster; the run recovers the orphaned tickets), blame
    quarantines and autoscaling.

    Every run follows the same conventions whatever its shard count:
    fault-aware admission is decided once, before routing; a shard with
    no alive device holds its queue and a dead shard re-homes its work
    through the router; recovery walks tickets in vector-id order.  What
    differs comes from the router the server supplies: a
    :class:`~repro.serve.sharded.server.GlobalScheduler` syncs stale
    digests, may run health checks and hedging and reports a
    ``sharding`` section, while a :class:`PassThroughRouter` does none
    of that.
    """

    def __init__(self, server: "MiccoServer", streams: list[TenantStream], faults, seed):
        cfg = server.serve_config
        cluster = server.cluster
        self.server = server
        self.cfg = cfg
        self.cluster = cluster
        self.engine = server.engine
        self.streams = streams
        self.timeline = Timeline()
        self.report = LatencyReport()
        self.total = ExecutionMetrics(num_devices=cluster.num_devices)
        # Slot-indexed device horizons live on the cluster (shared with
        # introspection/benchmarks); each run starts them fresh.
        self.busy_until = cluster.busy_until
        self.busy_until[:] = [0.0] * cluster.num_devices
        self.wants_bounds = server.predictor is not None and hasattr(
            server.scheduler, "set_bounds"
        )
        # Arming validates every plan event's device id against this
        # cluster — a plan aimed at a device we don't have fails here.
        self.injector = (
            FaultInjector(faults, cluster.num_devices) if faults is not None else None
        )
        self.journal = ResidencyJournal(cfg.journal_capacity) if cfg.warm_restore else None
        self.integ = (
            IntegrityState(cfg.integrity, cluster.num_devices)
            if cfg.integrity is not None and cfg.integrity.mode != "off"
            else None
        )
        #: Tickets dispatched and executed, completion event still ahead
        #: (the set device loss or scale-down can orphan work out of).
        self.pending: dict[int, Ticket] = {}
        self.round_ids = itertools.count()
        self.rounds_log = RoundsLog()
        self.events_processed = 0

        self.shards = server._build_shards(streams)
        self.ordered = [self.shards[n] for n in sorted(self.shards)]
        self.node_of = [0] * cluster.num_devices
        for shard in self.ordered:
            for d in shard.devices:
                self.node_of[d] = shard.node
        # Fault-aware admission runs once at the global tier, before
        # routing, so shed accounting is not split across shards.  A
        # FaultAware queue policy is itself the gate (its inner policy
        # orders each shard queue); reset, so fixed-seed replays match.
        self.gate = None
        if isinstance(cfg.queue_policy, FaultAware):
            self.gate = cfg.queue_policy
            self.gate.reset()
        elif cfg.fault_aware_admission:
            self.gate = FaultAware(Fifo(), min_success_prob=cfg.admission_min_success)
        self.router = server._make_router(self.shards, seed)

        # ----- health subsystem: monitor, breakers, hedging
        self.hcfg = hcfg = cfg.health
        self.monitor: HealthMonitor | None = None
        self.breakers: dict[int, CircuitBreaker] = {}
        self.breaker_log: list[dict] = []
        self.hstats = {
            "launched": 0,
            "won_by_primary": 0,
            "won_by_clone": 0,
            "cancelled": 0,
            "absorbed_drops": 0,
            "unplaced": 0,
        }
        self.health_events: list[dict] = []
        self.hedger = (
            AdaptiveHedgeDeadline(hcfg)
            if hcfg is not None and hcfg.hedging and hcfg.adaptive_hedging
            else None
        )
        if hcfg is not None:
            self.monitor = HealthMonitor(self.shards.keys(), hcfg)
            self.router.monitor = self.monitor
            self.breakers = {
                n: CircuitBreaker(
                    n,
                    hcfg.breaker_threshold,
                    hcfg.breaker_probe_interval_s,
                    transitions=self.breaker_log,
                )
                for n in sorted(self.shards)
            }
            self.router.breakers = self.breakers
        if self.integ is not None:
            # Capture what the callback reads, never the run: a closure
            # over ``self`` is a run -> router -> callback -> run cycle
            # that keeps every finished run alive until a full collection.
            integ, shards = self.integ, self.shards
            self.router.blame_of = lambda node: max(
                (integ.ewma[d] for d in shards[node].devices), default=0.0
            )

        # Anchor each shard's reuse bounds before any pool-size change so
        # every rescale derives from the run's original (bounds, pool).
        for shard in self.ordered:
            if server.predictor is None and server.built_bounds is not None:
                shard.bounds_anchor = (shard.scheduler.bounds, shard.view.num_alive)
        self.scaled = [s for s in self.ordered if s.scaler is not None]
        for shard in self.scaled:
            shard.scaler.shrink_to_initial(shard)

        # Arrivals are fed one per stream: each stream reserves its
        # arrivals' sequence numbers now, so equal timestamps pop in
        # stream-then-arrival order however late each one is pushed.
        for stream in streams:
            stream.first_seq = self.timeline.reserve(len(stream.times))
        for stream in streams:
            self.feed(stream)

    # ------------------------------------------------------------ event loop
    def execute(self) -> ServeResult:
        """Drain the timeline and assemble the run's :class:`ServeResult`."""
        cfg = self.cfg
        engine = self.engine
        timeline = self.timeline
        journal, injector, integ = self.journal, self.injector, self.integ
        # Config-selected engine tracing: "full"/"sampling" attach a
        # recorder for the run (routing execution through the traced
        # path); "report"/"off"/None leave the engine trace-free.
        trace_mode = cfg.trace.mode if cfg.trace is not None else "report"
        sink = cfg.trace.make_sink() if cfg.trace is not None else None
        recorder = TraceRecorder(sink) if sink is not None else None
        prev_trace = engine.trace
        if recorder is not None:
            engine.trace = recorder
        engine.injector = injector
        engine.integrity = integ
        self.cluster.journal = journal
        if self.router.sync_interval_s is not None:
            # Initial digests so routing works before the first sync fires.
            self.router.sync(0.0, self.linkless())
            timeline.push(DigestSync(self.router.sync_interval_s))
        if self.monitor is not None:
            timeline.push(HealthTick(self.hcfg.heartbeat_interval_s))
        handlers = {
            VectorArrival: self.on_arrival,
            SchedulingDone: self.on_scheduled,
            VectorCompletion: self.on_completion,
            DeviceOnline: self.on_device_online,
            DeviceRestore: self.on_device_restore,
            DigestSync: self.on_digest_sync,
            HealthTick: self.on_health_tick,
        }
        scaled = self.scaled
        topology = self.server.config.cost_model.topology
        try:
            while timeline:
                event = timeline.pop()
                now = timeline.now
                self.events_processed += 1
                if journal is not None:
                    journal.advance(now)
                if injector is not None:
                    for fault in injector.poll(now):
                        orphaned = injector.apply(
                            fault, self.cluster, topology=topology, integrity=integ
                        )
                        if orphaned:
                            self.recover(fault, orphaned, now)
                if integ is not None:
                    for dev in integ.poll_quarantines():
                        self.quarantine_device(dev, now)
                for shard in scaled:
                    shard.scaler.step(now, shard, timeline, self.drain_device)
                handlers[type(event)](event, now)
        finally:
            engine.injector = None
            engine.integrity = None
            engine.trace = prev_trace
            self.cluster.journal = None
        return self.result(recorder, trace_mode)

    def feed(self, stream: TenantStream) -> None:
        """Generate ``stream``'s next vector and push its arrival, if any remain."""
        k = stream.fed
        if k == len(stream.times):
            return
        stream.fed = k + 1
        t = stream.times[k]
        ticket = Ticket(vector=next(stream.vectors), arrival_s=t)
        spec = stream.spec
        if spec is not None:
            ticket.tenant = spec.name
            if spec.slo.p99_s is not None:
                ticket.deadline_s = t + spec.slo.p99_s
        self.timeline.push(VectorArrival(t, ticket, stream), seq=stream.first_seq + k)

    def on_arrival(self, event: VectorArrival, now: float) -> None:
        self.feed(event.stream)
        ticket = event.ticket
        gate = self.gate
        injector = self.injector
        if gate is not None:
            fault_events = 0
            if injector is not None:
                s = injector.stats
                fault_events = s.transient_failures + s.device_losses + s.transfer_refetches
            gate.observe(now, fault_events, self.cluster.num_alive, self.cluster.num_devices)
        if self.cluster.num_alive == 0:
            self.report.add_drop(ticket, reason="fault-abandoned")
        elif gate is not None and not gate.admit(ticket, now):
            self.report.add_drop(ticket, reason="predicted-infeasible")
            if injector is not None:
                injector.stats.predicted_infeasible += 1
        else:
            self.place(ticket, now)

    def on_scheduled(self, event: SchedulingDone, now: float) -> None:
        members = event.round.members if event.round is not None else [event.ticket]
        for t in members:
            t.sched_done_s = now
        shard = self.shards.get(members[0].shard)
        if shard is None or shard.dead or shard.view.num_alive == 0:
            # The shard died (or flapped down to zero alive devices)
            # between dispatch and sched-done.  A dead shard's inflight
            # was already zeroed; a flapped shard's round slot is
            # released here.
            if shard is not None and not shard.dead and shard.inflight > 0:
                shard.inflight -= 1
            for t in members:
                if t.cancelled:
                    t.round = None
                    if shard is not None:
                        shard.inflight_tickets.pop(id(t), None)
                    continue
                self.reroute(t, now)
            return
        # Hedge losers cancelled between dispatch and sched-done settle
        # here, releasing the round slot.
        for t in members:
            if t.cancelled:
                self.settle(t, now)
        members = [t for t in members if not t.cancelled]
        if not members:
            return
        merged = merge_vectors([t.vector for t in members])
        try:
            vec_metrics, assignment = self.schedule_round(shard, merged)
        except FaultError:
            # Retry budget exhausted (or the pool died under us): shed
            # the round, keep the cluster serving.
            for t in members:
                self.abandon(t, now)
            return
        # Per-device busy seconds this round added; members share the
        # round's horizon on the devices they use.
        busy_until = self.busy_until
        compute, memop = vec_metrics.compute_s, vec_metrics.memop_s
        for dev in sorted(set(assignment)):
            busy_until[dev] = max(busy_until[dev], now) + (compute[dev] + memop[dev])
        self.total.merge(vec_metrics)
        # De-multiplex: each member keeps its own assignment slice and
        # completes when its own devices drain.
        slices = split_assignment([t.vector for t in members], assignment)
        for t, sl in zip(members, slices):
            t.assignment = sl
            t.devices = sorted(set(sl))
            complete = max((busy_until[d] for d in t.devices), default=now)
            self.pending[id(t)] = t
            self.timeline.push(VectorCompletion(max(complete, now), t, epoch=t.epoch))

    def on_completion(self, event: VectorCompletion, now: float) -> None:
        ticket = event.ticket
        if event.epoch != ticket.epoch or ticket.cancelled:
            return  # superseded by recovery, abandoned or hedge-cancelled
        integ = self.integ
        if integ is not None and not ticket.verified:
            injector = self.injector
            action, ready = integ.audit(
                ticket.vector, ticket.assignment, now, self.cluster,
                self.server.config.cost_model, float(np.asarray(self.total.compute_s).sum()),
                injector.stats if injector is not None else None,
            )
            if action == "repair":
                # The audit recomputation on the clean auditor device *is*
                # the repaired result; the ticket completes when it lands.
                ticket.verified = True
                self.supersede(ticket, max(ready, now))
                return
            if action == "flag":
                # Audit budget (or auditor pool) exhausted: the result
                # cannot be verified — shed it rather than report a
                # possibly-wrong answer.  While a hedge partner still
                # races, this copy cancels silently instead.
                self.router.discharge(ticket, now)
                if hedge_shielded(ticket):
                    ticket.cancelled = True
                    self.hstats["absorbed_drops"] += 1
                else:
                    self.report.add_drop(ticket, reason="integrity-unverified")
                self.settle(ticket, now)
                return
        if integ is not None:
            integ.note_reported(ticket.vector, ticket.assignment)
        ticket.complete_s = now
        rec = self.report.add_completion(ticket)
        self.router.note_completion(ticket, now)
        if self.hedger is not None:
            self.hedger.observe(ticket.tenant, rec.latency_s)
        owner = self.shards.get(ticket.shard)
        if owner is not None and owner.scaler is not None:
            owner.scaler.observe_completion(now, rec.latency_s)
        pair = ticket.hedge
        self.settle(ticket, now)
        if pair is not None and not pair.resolved:
            self.resolve_hedge(pair, ticket, now)

    def on_device_online(self, event: DeviceOnline, now: float) -> None:
        """A warm-up completed: the shard's autoscaler brings the device in."""
        shard = self.shards[self.node_of[event.device]]
        shard.scaler.online(now, event.device, shard, self.rejoin)

    def on_device_restore(self, event: DeviceRestore, now: float) -> None:
        """A flap ended: the device returns to its old state; one back
        in the pool rejoins it, cold (or warm), and records the restore."""
        dev = event.device
        shard = self.shards[self.node_of[dev]]
        if shard.dead or not self.cluster.flap_up(dev):
            return
        restored = self.rejoin(shard, dev, now)
        injector = self.injector
        if injector is not None:
            injector.note_device_restored(dev, now)
            label = "node flap up"
            if restored:
                label += f", {restored} tensors pre-warmed"
            injector.stats.record_event("restore", dev, now, 0.0, label=label)
        self.refill(shard, now)

    def on_digest_sync(self, event: DigestSync, now: float) -> None:
        self.router.sync(now, self.linkless(), unreachable=self.unreachable_shards(now))
        if self.timeline.work_remaining:
            # Stop syncing once only control timers remain: digests with
            # no traffic left would tick forever.
            self.timeline.push(DigestSync(now + self.router.sync_interval_s))

    def on_health_tick(self, event: HealthTick, now: float) -> None:
        monitor, hcfg = self.monitor, self.hcfg
        injector = self.injector
        silent = injector.silent_devices(now) if injector is not None else frozenset()
        for shard in self.ordered:
            node = shard.node
            if shard.dead:
                monitor.mark_dead(node, now)
            elif shard.view.num_alive > 0 and not any(d in silent for d in shard.devices):
                monitor.beat(node, now)
            else:
                monitor.miss()
        for node in monitor.evaluate(now):
            # Newly quarantined: drain its queue through the global tier.
            # The shard itself is left running (quarantine is not death)
            # — only its *waiting* work moves to shards routing still
            # trusts.
            shard = self.shards[node]
            moved = 0
            for t in shard.drain_queue():
                if t.cancelled:
                    continue
                shard.drained_out += 1
                # The drain moves the ticket off this shard: reverse its
                # between-sync charge before the new placement charges
                # its destination.
                self.router.discharge(t, now)
                t.shard = None
                self.place(t, now)
                moved += 1
            self.health_event("health", node, now, f"quarantined, drained {moved} tickets")
        if hcfg.hedging:
            for shard in self.ordered:
                if not shard.dead and monitor.is_suspect(shard.node):
                    self.hedge_overdue(shard, now)
        if self.timeline.work_remaining:
            self.timeline.push(HealthTick(now + hcfg.heartbeat_interval_s))

    # ------------------------------------------------------ ticket lifecycle
    def dispatch(self, shard, members: list[Ticket], now: float) -> None:
        """Dispatch one scheduling round on ``shard``."""
        shard.inflight += 1
        rnd = BatchRound(round_id=next(self.round_ids), members=members)
        for t in members:
            t.dispatch_s = now
            t.round_id = rnd.round_id
            t.round_size = len(members)
            t.round = rnd
            t.shard = shard.node
            shard.inflight_tickets[id(t)] = t
        latency = self.cfg.schedule_latency_per_pair_s * rnd.num_pairs
        self.timeline.push(SchedulingDone(now + latency, members[0], round=rnd))
        self.rounds_log.append(
            rnd.round_id, shard.node, [t.vector.vector_id for t in members],
            rnd.num_pairs, now, now + latency,
        )

    def refill(self, shard, now: float) -> None:
        """Dispatch queued rounds while the shard has free round slots.

        A shard flapped down to zero devices holds its queue for the
        restore.
        """
        if shard.dead or shard.view.num_alive == 0:
            return
        while shard.inflight < self.cfg.max_inflight:
            members = self.pop_round(shard, now)
            if not members:
                break
            # Hedge losers cancelled while queued settle silently.
            members = [t for t in members if not t.cancelled]
            if members:
                self.dispatch(shard, members, now)

    def settle(self, ticket: Ticket, now: float) -> None:
        """A round member is done (completed or shed); the round's
        scheduling slot frees only when its last member settles."""
        self.pending.pop(id(ticket), None)
        # A settled ticket drops its hedge link (its pair still answers
        # for it to the partner), so no ticket <-> pair cycle outlives it.
        ticket.hedge = None
        owner = self.shards.get(ticket.shard) if ticket.shard is not None else None
        if owner is not None:
            owner.inflight_tickets.pop(id(ticket), None)
        rnd = ticket.round
        ticket.round = None
        if rnd is None:
            return  # never dispatched (e.g. dropped while queued)
        rnd.remaining -= 1
        if rnd.remaining > 0:
            return
        if owner is not None and not owner.dead:
            owner.inflight -= 1
            self.refill(owner, now)

    def abandon(self, ticket: Ticket, now: float) -> None:
        """Shed an admitted ticket that can no longer complete."""
        ticket.epoch += 1  # invalidate any queued completion event
        self.router.discharge(ticket, now)
        if hedge_shielded(ticket):
            # The vector's hedge partner is still racing: this copy
            # cancels silently instead of recording an SLO drop.
            ticket.cancelled = True
            self.hstats["absorbed_drops"] += 1
        else:
            self.report.add_drop(ticket, reason="fault-abandoned")
        self.settle(ticket, now)

    def supersede(self, ticket: Ticket, complete: float) -> None:
        """Replace the ticket's pending completion event by one at ``complete``."""
        ticket.epoch += 1
        self.timeline.push(VectorCompletion(complete, ticket, epoch=ticket.epoch))

    def place(
        self,
        ticket: Ticket,
        now: float,
        rerouted: bool = False,
        hedge_clone: bool = False,
        tried=None,
    ) -> None:
        """Route ``ticket`` to a shard; forward past full queues.

        The router proposes shards in policy order; a full shard costs
        one forward hop and joins ``tried``, which excludes *every*
        previously-rejected shard from the retry — one routing attempt
        visits each shard at most once, so a ticket facing all-full
        queues sheds deterministically instead of bouncing.  Shards
        whose forwarding circuit breaker is open are skipped without an
        offer; if only breaker-skipped shards remain they get one bypass
        pass (last resort beats stranding).  When every live shard is
        full the ticket is shed ``queue-full``; with no live shard at
        all it is ``fault-abandoned`` — unless a hedge partner still
        covers the vector, in which case this copy cancels silently.
        """
        if ticket.cancelled:
            return
        router = self.router
        tried = set() if tried is None else set(tried)
        skipped: set[int] = set()
        bypass = False
        while True:
            node = router.route(ticket.vector, now, exclude=tried | skipped)
            if node is None:
                if skipped and not bypass:
                    bypass = True
                    skipped.clear()
                    continue
                if hedge_clone or hedge_shielded(ticket):
                    ticket.cancelled = True
                    self.hstats["unplaced" if hedge_clone else "absorbed_drops"] += 1
                elif tried:
                    self.report.add_drop(ticket)  # every live shard was full
                else:
                    self.report.add_drop(ticket, reason="fault-abandoned")
                ticket.hedge = None  # never dispatched: it leaves the run here
                return
            shard = self.shards[node]
            breaker = self.breakers.get(node)
            if breaker is not None and not bypass and not breaker.allow(now):
                skipped.add(node)
                continue
            if (
                shard.inflight < self.cfg.max_inflight
                and not len(shard.queue)
                and shard.view.num_alive > 0
            ):
                self.dispatch(shard, [ticket], now)
            elif not shard.queue.offer(ticket):
                if breaker is not None:
                    breaker.record_rejection(now)
                tried.add(node)
                ticket.forwards += 1
                router.forwards += 1
                continue
            else:
                ticket.shard = node
            if breaker is not None:
                breaker.record_success(now)
            shard.routed += 1
            router.charge(ticket, node, now)
            if ticket.forwards:
                shard.forwarded_in += 1
            if rerouted:
                shard.rerouted_in += 1
            if hedge_clone:
                shard.hedged_in += 1
            return

    def reroute(self, ticket: Ticket, now: float) -> None:
        """Re-home a ticket whose shard died (arrival clock intact)."""
        if ticket.shard is not None:
            old = self.shards.get(ticket.shard)
            if old is not None:
                old.inflight_tickets.pop(id(ticket), None)
        self.router.discharge(ticket, now)
        ticket.round = None
        ticket.round_id = None
        ticket.dispatch_s = None
        ticket.sched_done_s = None
        ticket.shard = None
        self.router.reroutes += 1
        self.place(ticket, now, rerouted=True)

    # --------------------------------------------------------------- hedging
    def hedge_overdue(self, shard, now: float) -> None:
        """Clone every overdue ticket queued on a suspect shard elsewhere."""
        hcfg = self.hcfg
        node = shard.node
        for t in shard.queue.tickets():
            if t.cancelled or t.hedge is not None:
                continue
            deadline = (
                self.hedger.deadline_for(t.tenant)
                if self.hedger is not None
                else hcfg.hedge_deadline_s
            )
            if now - t.arrival_s < deadline:
                continue
            clone = Ticket(
                vector=t.vector,
                arrival_s=t.arrival_s,
                tenant=t.tenant,
                deadline_s=t.deadline_s,
            )
            pair = HedgePair(primary=t, clone=clone)
            t.hedge = pair
            clone.hedge = pair
            self.hstats["launched"] += 1
            self.health_event(
                "hedge", node, now, f"vector {t.vector.vector_id} hedged off shard {node}"
            )
            self.place(clone, now, hedge_clone=True, tried={node})

    def resolve_hedge(self, pair: HedgePair, winner: Ticket, now: float) -> None:
        """First completion wins; the loser is cancelled exactly once
        (its round slot settles, no completion, no drop)."""
        pair.resolved = True
        pair.winner = winner
        clone_won = winner is pair.clone
        self.hstats["won_by_clone" if clone_won else "won_by_primary"] += 1
        loser = pair.other(winner)
        if loser.cancelled:
            return
        loser.cancelled = True
        loser.hedge = None  # it may sit in a queue until popped; unlink now
        loser.epoch += 1
        self.router.discharge(loser, now)
        self.hstats["cancelled"] += 1
        self.health_event(
            "hedge",
            loser.shard if loser.shard is not None else -1,
            now,
            f"vector {winner.vector.vector_id}: "
            + ("clone won, primary cancelled" if clone_won else "primary won, clone cancelled"),
        )
        if id(loser) in self.pending:
            self.settle(loser, now)

    def health_event(self, kind: str, node: int, now: float, label: str) -> None:
        self.health_events.append({"kind": kind, "node": node, "time_s": now, "label": label})

    # ------------------------------------------------------ shard reachability
    def linkless(self) -> frozenset[int]:
        return self.injector.linkless_devices if self.injector is not None else frozenset()

    def unreachable_shards(self, now: float) -> frozenset[int]:
        """Live shards that cannot report right now (gray failures)."""
        silent = (
            self.injector.silent_devices(now) if self.injector is not None else frozenset()
        )
        return frozenset(
            s.node
            for s in self.ordered
            if not s.dead
            and (s.view.num_alive == 0 or any(d in silent for d in s.devices))
        )

    def down_shards(self) -> frozenset[int]:
        """Live shards with every device flapped down (unschedulable)."""
        return frozenset(
            s.node for s in self.ordered if not s.dead and s.view.num_alive == 0
        )

    # ------------------------------------------------------------- placement
    def pop_round(self, shard, now: float) -> list[Ticket]:
        """Pop the next scheduling round's members from the shard queue.

        With :attr:`ServeConfig.max_batch_vectors` at 1 this is a plain
        policy-order pop.  Otherwise the queue head anchors the round
        and later entries (still visited in policy order, so
        weighted-fair and fault-aware ordering is respected) join it
        while they share the head's workload shape family, the round's
        combined unique-tensor footprint stays within
        :attr:`ServeConfig.batch_memory_frac` of the shard's alive
        memory, and growing the round would not push its earliest-
        deadline member past its SLO (see :meth:`batch_accept`).
        Non-mergeable entries are skipped, not dropped — they keep their
        queue position for later rounds.
        """
        cfg = self.cfg
        if cfg.max_batch_vectors <= 1:
            nxt = shard.queue.pop()
            return [nxt] if nxt is not None else []
        # ``ClusterState.alive_ids`` and ``ShardView.alive_ids`` both
        # return one cached list per alive-set change, so its identity
        # keys the budget cache — steady-state rounds skip the
        # per-device memory sum.
        alive = shard.view.alive_ids()
        cache = shard.budget_cache
        if cache is not None and cache[0] is alive:
            budget = cache[1]
        else:
            budget = cfg.batch_memory_frac * sum(
                self.cluster.devices[d].memory_bytes for d in alive
            )
            shard.budget_cache = (alive, budget)
        return shard.queue.pop_batch(cfg.max_batch_vectors, accept=self.batch_accept(budget, now))

    def batch_accept(self, budget: float, now: float):
        """Build the batch-membership predicate for one round assembly.

        A candidate joins the round only when (a) it shares the head's
        workload shape family, (b) the combined unique-tensor footprint
        stays within ``budget`` bytes, and (c) — the deadline-aware
        cutoff — the grown round's scheduling latency would not push its
        earliest-deadline member past that member's SLO deadline.
        Tickets without a deadline (no tenant p99 target) never
        constrain growth.
        """
        latency_per_pair = self.cfg.schedule_latency_per_pair_s
        # One closure per round: the head's shape key and the accepted
        # members' footprint/deadline state accumulate incrementally
        # instead of being recomputed from scratch per candidate
        # (members only ever grow within one ``pop_batch`` call).  The
        # totals are integer-exact sums, so they match the from-scratch
        # computation term for term.
        head_key = None
        seen: dict[int, int] = {}
        in_bytes = 0
        out_bytes = 0
        pairs_cov = 0
        covered = 0
        min_deadline: float | None = None

        def accept(members: list[Ticket], candidate: Ticket) -> bool:
            nonlocal head_key, in_bytes, out_bytes, pairs_cov, covered, min_deadline
            if head_key is None:
                head_key = batch_shape_key(members[0].vector)
            if batch_shape_key(candidate.vector) != head_key:
                return False
            while covered < len(members):
                t = members[covered]
                covered += 1
                for p in t.vector.pairs:
                    lu = p.left.uid
                    if lu not in seen:
                        seen[lu] = 1
                        in_bytes += p.left.nbytes
                    ru = p.right.uid
                    if ru not in seen:
                        seen[ru] = 1
                        in_bytes += p.right.nbytes
                    out_bytes += p.out.nbytes
                pairs_cov += len(t.vector.pairs)
                dl = t.deadline_s
                if dl is not None and (min_deadline is None or dl < min_deadline):
                    min_deadline = dl
            cv = candidate.vector
            add = 0
            c_out = 0
            c_seen: set[int] = set()
            for p in cv.pairs:
                lu = p.left.uid
                if lu not in seen and lu not in c_seen:
                    c_seen.add(lu)
                    add += p.left.nbytes
                ru = p.right.uid
                if ru not in seen and ru not in c_seen:
                    c_seen.add(ru)
                    add += p.right.nbytes
                c_out += p.out.nbytes
            if in_bytes + add + out_bytes + c_out > budget:
                return False
            c_dl = candidate.deadline_s
            if min_deadline is not None or c_dl is not None:
                worst = (
                    min_deadline
                    if c_dl is None
                    else (c_dl if min_deadline is None else min(min_deadline, c_dl))
                )
                if now + latency_per_pair * (pairs_cov + len(cv.pairs)) > worst:
                    return False
            return True

        return accept

    def schedule_round(self, shard, vector: VectorSpec) -> tuple[ExecutionMetrics, list[int]]:
        """One merged round through the shard's scheduler and view."""
        scheduler, view = shard.scheduler, shard.view
        if self.wants_bounds:
            # The tracker's running reuse statistics only feed the bounds
            # predictor, so without one the observation (an O(pairs) uid
            # scan per round) is skipped entirely.
            chars = shard.tracker.observe(vector)
            scheduler.set_bounds(self.server.predictor.predict_bounds(chars))
        view.begin_vector(vector.num_tensors)
        scheduler.begin_vector(vector, view)
        vec_metrics = ExecutionMetrics(num_devices=self.cluster.num_devices)
        assignment: list[int] = []
        choose = scheduler.choose
        execute = self.engine.pair_runner()
        append = assignment.append
        for pair in vector.pairs:
            dev = choose(pair, view)
            execute(pair, dev, vec_metrics)
            append(dev)
        if not self.server.config.keep_outputs:
            self.engine.drain_outputs(vector, assignment, vec_metrics)
        return vec_metrics, assignment

    def reschedule_orphans(self, ticket: Ticket, dead: set[int], now: float, shard) -> float:
        """Re-execute a ticket's ``dead``-device pairs on ``shard``.

        ``dead`` is the retired device (scale-down drain, quarantine) or
        the devices a loss took down.  Recovered pairs are placed by the
        target shard's scheduler over its view, so they land only on
        that shard's devices.  Returns the vector's new completion
        timestamp.  The surviving devices' original shares are already
        in the busy horizons; only the re-executed pairs' time is
        appended.
        """
        stats = self.injector.stats if self.injector is not None else None
        scheduler, view = shard.scheduler, shard.view
        orphan_idx = [i for i, dev in enumerate(ticket.assignment) if dev in dead]
        vector = ticket.vector
        # Fresh balance window sized to the re-scheduled slice (two
        # tensor slots per pair, matching record_assignment).
        view.begin_vector(2 * len(orphan_idx))
        scheduler.begin_vector(vector, view)
        vec_metrics = ExecutionMetrics(num_devices=self.cluster.num_devices)
        for i in orphan_idx:
            pair = vector.pairs[i]
            dev = scheduler.choose(pair, view)
            self.engine.execute_pair(pair, dev, vec_metrics)
            ticket.assignment[i] = dev
            if stats is not None:
                stats.rescheduled_pairs += 1
        self.total.merge(vec_metrics)
        busy_until = self.busy_until
        compute, memop = vec_metrics.compute_s, vec_metrics.memop_s
        for dev in sorted({ticket.assignment[i] for i in orphan_idx}):
            busy_until[dev] = max(busy_until[dev], now) + (compute[dev] + memop[dev])
        ticket.devices = sorted(set(ticket.assignment))
        complete = now
        for dev in ticket.devices:
            if self.cluster.is_alive(dev):
                complete = max(complete, busy_until[dev])
        return complete

    def affected(self, dead: set[int]) -> list[Ticket]:
        """In-flight tickets with pairs on ``dead`` devices, by vector id."""
        out = [t for t in self.pending.values() if not dead.isdisjoint(t.assignment)]
        out.sort(key=lambda t: t.vector.vector_id)
        return out

    def drain_device(self, shard, dev: int, now: float, *, reaudit: bool = False) -> int:
        """Move in-flight pairs off a just-retired device; returns vectors moved.

        With ``reaudit`` (blame quarantine) the moved tickets' audit
        status resets so the re-executed work is audited again.
        """
        moved = 0
        for ticket in self.affected({dev}):
            try:
                complete = self.reschedule_orphans(ticket, {dev}, now, shard)
            except FaultError:
                self.abandon(ticket, now)
                continue
            if reaudit:
                ticket.verified = False
            self.supersede(ticket, complete)
            moved += 1
        return moved

    def rejoin(self, shard, dev: int, now: float) -> int:
        """Common tail of a device (re)joining its shard's pool.

        The device starts idle at ``now``, cold; with a residency journal
        it is warm-restored first and the pre-warm cost charged to its
        horizon, off the next vectors' critical path.  Returns the
        number of tensors pre-warmed.
        """
        self.busy_until[dev] = now
        restored = 0
        journal = self.journal
        if journal is not None:
            cluster = self.cluster
            budget = self.cfg.prewarm_fraction * cluster.devices[dev].memory_bytes
            restored, cost = journal.warm_restore(
                dev, cluster, self.server.config.cost_model, budget
            )
            self.busy_until[dev] += cost
            injector = self.injector
            if restored and injector is not None:
                injector.stats.prewarmed_tensors += restored
                injector.stats.record_recovery("warm_restore", cost)
                injector.stats.record_event(
                    "prewarm", dev, now, cost,
                    label=f"warm restore: {restored} tensors",
                )
        shard.rescale_bounds()
        return restored

    # -------------------------------------------------------- fault recovery
    def recover(self, fault: FaultEvent, orphaned: dict[int, list[int]], now: float) -> None:
        """Re-run (or shed) the in-flight work a loss orphaned, per shard.

        ``orphaned`` is what :meth:`FaultInjector.apply` killed; every
        dead device already left the pool, so orphaned pairs only land
        on survivors.  Each shard that keeps devices rescales its reuse
        bounds and re-runs its orphaned pairs itself (or sheds them as
        ``fault-abandoned`` with recovery off).  A shard left with no
        device re-homes its in-flight work on a router-chosen shard; a
        ``node_lost`` also marks it dead and re-routes its queue, while
        a flap leaves it standing — unannounced, a gray fault — until
        the :class:`DeviceRestore` per device pushed here brings it back
        ``duration_s`` later.  The pass-through router of a one-shard
        run has no other shard, so there re-homed work is shed.  A
        shard's autoscaler may then request replacements for the devices
        it lost for good (:meth:`~repro.serve.autoscale.Autoscaler.replace_lost`).
        """
        cfg = self.cfg
        stats = self.injector.stats
        kind = fault.kind.value
        flap = fault.kind is FaultKind.NODE_FLAP
        if flap:
            # Every member comes back on its own; only the pool's had work.
            back = max(now, fault.time_s + fault.duration_s)
            for dev in sorted(orphaned):
                self.timeline.push(DeviceRestore(back, device=dev))
            orphaned = {d: o for d, o in orphaned.items() if up(self.cluster.state(d)) in POOL}
            if not orphaned:
                return
        by_shard: dict[int, set[int]] = {}
        for d in orphaned:
            by_shard.setdefault(self.node_of[d], set()).add(d)
        latest = now
        rescheduled = 0
        for node in sorted(by_shard):
            shard = self.shards[node]
            dead = by_shard[node]
            down = shard.view.num_alive == 0
            # A shard whose other devices are only flapping comes back.
            gone = down and not flap and all(
                up(self.cluster.state(d)) not in POOL for d in shard.devices
            )
            if not down:
                # The shard recovers on its own survivors, with its own
                # rescaled bounds.
                shard.rescale_bounds()
            elif gone:
                self.kill_shard(shard, now)
            for ticket in self.affected(dead):
                if gone:
                    # The charge cannot complete on the dead shard; drop
                    # it (and any learned sample) before the ticket
                    # re-homes.
                    self.router.discharge(ticket, now)
                if not cfg.recover_faults:
                    self.abandon(ticket, now)
                    continue
                target = shard
                if down:
                    target_node = self.router.route(
                        ticket.vector, now, exclude=self.down_shards()
                    )
                    if target_node is None:
                        self.abandon(ticket, now)
                        continue
                    target = self.shards[target_node]
                try:
                    complete = self.reschedule_orphans(ticket, dead, now, target)
                except FaultError:
                    self.abandon(ticket, now)
                    continue
                if down:
                    self.router.reroutes += 1
                    target.rerouted_in += 1
                self.supersede(ticket, complete)
                latest = max(latest, complete)
                rescheduled += 1
            if not flap and not down and shard.scaler is not None:
                shard.scaler.replace_lost(now, shard, self.timeline, len(dead))
        if not cfg.recover_faults:
            stats.record_recovery(kind, 0.0)
        else:
            stats.record_recovery(kind, latest - fault.time_s)
            if rescheduled or not flap:
                stats.record_event(
                    "recovery", fault.device, now, max(latest - now, 0.0),
                    label=f"rescheduled {rescheduled} vectors",
                )

    def kill_shard(self, shard, now: float) -> None:
        """A whole shard died: its queue re-routes through the global tier."""
        shard.dead = True
        shard.inflight = 0
        shard.inflight_tickets.clear()
        for t in shard.drain_queue():
            self.reroute(t, now)

    # ------------------------------------------------------ result integrity
    def quarantine_device(self, dev: int, now: float) -> None:
        """Blame crossed the threshold: retire the device from its shard.

        Its resident *corrupt* copies are invalidated first
        (:meth:`~repro.integrity.IntegrityState.invalidate_quarantined`);
        then the device drains like an autoscale scale-down, with the
        moved tickets' audit status reset so the re-executed work is
        audited again.  Quarantined devices never rejoin.  A health
        monitor, when present, takes the blame as a suspicion floor:
        corruption is exactly the gray failure heartbeats cannot see.
        The last alive device of the cluster or of a shard stays in the
        pool ``condemned`` (a degraded answer beats no answer; mandatory
        audits of its output flag what cannot be verified).
        """
        cluster = self.cluster
        shard = self.shards[self.node_of[dev]]
        stats = self.injector.stats if self.injector is not None else None
        self.integ.invalidate_quarantined(dev, now, cluster, stats)
        if self.monitor is not None:
            self.monitor.raise_suspicion(shard.node, self.hcfg.quarantine_threshold)
        self.health_event("blame", shard.node, now, f"device {dev} quarantined for corruption")
        state = cluster.state(dev)
        keep = state in POOL and (
            cluster.num_alive <= 1 or shard.dead or shard.view.num_alive <= 1
        )
        to = CONDEMNED if keep else QUARANTINED
        if to in EDGES[state]:  # not failed, quarantined or condemned already
            cluster.transition(dev, to)
        if keep or state not in POOL:  # it stays, or it was not in the pool: nothing to drain
            return
        shard.rescale_bounds()
        self.drain_device(shard, dev, now, reaudit=True)

    # ---------------------------------------------------------------- result
    def result(self, recorder: TraceRecorder | None, trace_mode: str) -> ServeResult:
        report = self.report
        fault_summary = None
        fault_events: list[dict] = []
        if self.injector is not None:
            self.injector.stats.finalize(report.makespan_s, self.cluster.num_devices)
            fault_summary = self.injector.stats.summary()
            fault_events = list(self.injector.stats.events)
        specs = [s.spec for s in self.streams if s.spec is not None]
        ordered = self.ordered
        queue = {
            "capacity": self.cfg.queue_capacity,
            "policy": ordered[0].queue.policy.name,
            "admitted": sum(s.queue.admitted for s in ordered),
            "dropped": sum(s.queue.dropped for s in ordered),
            "peak_depth": max(s.queue.peak_depth for s in ordered),
        }
        health, sharding, routing, routing_events = None, None, None, []
        if self.monitor is not None:
            health = self.health_section()
        policy = self.router.policy
        if policy is not None:
            sharding = self.sharding_section()
        if policy is not None and policy.wants_features:
            routing = policy.summary()
            routing_events = sorted(
                policy.events, key=lambda e: (e["time_s"], e["node"], e["kind"], e["label"])
            )
        return ServeResult(
            report=report,
            metrics=self.total,
            queue=queue,
            arrival_s=ColumnView(merged_sorted([s.times for s in self.streams])),
            faults=fault_summary,
            fault_events=fault_events,
            tenants=tenant_sections(report, specs) if specs else None,
            autoscale=autoscale_section([s.scaler for s in self.scaled]),
            journal=self.journal.summary() if self.journal is not None else None,
            rounds=self.rounds_log,
            sharding=sharding,
            health=health,
            health_events=self.health_events,
            integrity=(
                self.integ.summary(float(np.asarray(self.total.compute_s).sum()))
                if self.integ is not None
                else None
            ),
            events_processed=self.events_processed,
            routing=routing,
            routing_events=routing_events,
            engine_trace=recorder,
            trace_mode=trace_mode,
        )

    def sharding_section(self) -> dict:
        """Routing counters and per-shard records of a routed run."""
        router = self.router
        ordered = self.ordered
        return {
            "routing": router.policy.name,
            "sync_interval_s": router.sync_interval_s,
            "num_shards": len(ordered),
            "syncs": router.syncs,
            "forwards": router.forwards,
            "rerouted": router.reroutes,
            "cross_node_fetches": self.total.counts.cross_node_fetches,
            "shards": [
                {
                    "node": s.node,
                    "devices": list(s.devices),
                    "alive": s.view.num_alive,
                    "dead": s.dead,
                    "routed": s.routed,
                    "forwarded_in": s.forwarded_in,
                    "rerouted_in": s.rerouted_in,
                    "drained_out": s.drained_out,
                    "hedged_in": s.hedged_in,
                    "queue": s.queue.counters(),
                }
                for s in ordered
            ],
        }

    def health_section(self) -> dict:
        """Health section; also folds transitions into the event log."""
        monitor, breakers = self.monitor, self.breakers
        section = {
            **monitor.summary(),
            "hedges": dict(self.hstats),
            "adaptive_deadlines": self.hedger.summary() if self.hedger is not None else None,
            "breakers": {
                "states": {str(n): breakers[n].state for n in sorted(breakers)},
                "opens": sum(b.opens for b in breakers.values()),
                "transitions": list(self.breaker_log),
            },
        }
        for tr in monitor.transitions:
            self.health_event("health", tr["node"], tr["time_s"], f"{tr['from']} -> {tr['to']}")
        for tr in self.breaker_log:
            self.health_event(
                "breaker", tr["node"], tr["time_s"], f"breaker {tr['from']} -> {tr['to']}"
            )
        self.health_events.sort(key=lambda e: (e["time_s"], e["node"], e["kind"], e["label"]))
        return section


class MiccoServer:
    """An online serving instance: one scheduler on one simulated node.

    The run is a :class:`ServeRun` with one shard spanning the whole
    cluster behind a :class:`PassThroughRouter`; the shard's view is the
    :class:`~repro.gpusim.cluster.ClusterState` itself and its scheduler
    is :attr:`scheduler`.  The traffic is one vector stream, or — with
    :attr:`ServeConfig.tenants` set — every tenant's stream interleaved
    and admitted weighted-fair (unless :attr:`ServeConfig.queue_policy`
    overrides it), the result then carrying per-tenant p50/p95/p99,
    throughput, drop rate and SLO attainment alongside the global report.

    Parameters
    ----------
    scheduler:
        Any pair→GPU scheduler (default: :class:`MiccoScheduler`).
    config:
        Cluster + cost-model configuration shared with the batch path.
    serve:
        Serving-layer configuration (queue, inflight window, dispatch
        latency, tenants, autoscaler, fault plan).
    predictor:
        Optional reuse-bound predictor; consulted per vector when the
        scheduler exposes ``set_bounds`` (MICCO-optimal serving).

    Example
    -------
    >>> cfg = ServeConfig(tenants=(heavy, light), autoscaler=AutoscalerConfig())
    >>> result = make_server(cfg).run(seed=0)
    >>> result.summary()["tenants"]["heavy"]["slo"]["attained"]
    """

    def __init__(
        self,
        scheduler: Scheduler | None = None,
        config: MiccoConfig | None = None,
        serve: ServeConfig | None = None,
        predictor=None,
    ):
        self.config = config or MiccoConfig()
        self.serve_config = serve or ServeConfig()
        self.scheduler = scheduler if scheduler is not None else MiccoScheduler()
        #: The reuse bounds the scheduler was built with.  A run that
        #: resizes the pool leaves :attr:`scheduler` at rescaled bounds,
        #: so each reset run starts from these instead.
        self.built_bounds = (
            self.scheduler.bounds
            if hasattr(self.scheduler, "bounds") and hasattr(self.scheduler, "set_bounds")
            else None
        )
        self.predictor = predictor
        self.cluster = ClusterState(
            mi100_like(
                self.config.num_devices,
                memory_bytes=self.config.memory_bytes,
                peak_gflops=self.config.peak_gflops,
            ),
            eviction_policy=self.config.eviction_policy,
        )
        self.engine = ExecutionEngine(self.cluster, self.config.cost_model)

    # ------------------------------------------------------------------- run
    def run(
        self,
        vectors: list[VectorSpec] | None = None,
        arrivals=None,
        *,
        seed=0,
        reset: bool = True,
        faults: FaultPlan | None = None,
    ) -> ServeResult:
        """Serve one stream or the tenant roster; returns SLO metrics.

        Parameters
        ----------
        vectors:
            The request stream, in arrival order.  Omit it (and
            ``arrivals``) when :attr:`ServeConfig.tenants` is set: the
            streams then come from the tenant specs.
        arrivals:
            An :class:`~repro.serve.arrivals.ArrivalProcess` (sampled
            with ``seed``) or an explicit sequence of absolute arrival
            timestamps, one per vector.
        seed:
            Drives the arrival draws and the tenant workloads, and makes
            the whole run — scheduling, scaling, percentiles — replayable.
        reset:
            Start from an empty cluster, idle devices and the scheduler's
            built reuse bounds (default).
        faults:
            Optional :class:`~repro.faults.plan.FaultPlan`, taking
            precedence over :attr:`ServeConfig.faults`.  Due faults are
            applied as the event loop advances: transient/transfer
            faults and stragglers are handled inside the engine
            (retry + backoff, host re-fetch, stretched kernels); device
            losses shrink the pool — orphaned in-flight pairs are
            re-scheduled onto survivors (when
            :attr:`ServeConfig.recover_faults`), ``balanceNum`` and the
            reuse bounds are recomputed for the survivors, and the run
            keeps serving.  The result's ``faults`` section reports
            counts, recovery latencies and availability.
        """
        cfg = self.serve_config
        if cfg.tenants:
            if vectors is not None or arrivals is not None:
                raise ConfigurationError(
                    "ServeConfig.tenants is set: streams come from the tenant "
                    "specs, do not pass vectors/arrivals"
                )
            streams = build_streams(cfg.tenants, seed)
        else:
            if not vectors or arrivals is None:
                raise ConfigurationError(
                    "single-stream serving needs vectors and arrivals "
                    "(or a ServeConfig.tenants roster)"
                )
            streams = [self._stream(vectors, arrivals, seed)]
        if reset:
            self.cluster.reset()
            if self.built_bounds is not None:
                self.scheduler.set_bounds(self.built_bounds)
            if hasattr(self.scheduler, "reset_stats"):
                self.scheduler.reset_stats()
        if faults is None:
            faults = cfg.faults
        return ServeRun(self, streams, faults, seed).execute()

    @staticmethod
    def _stream(vectors, arrivals, seed) -> TenantStream:
        """One untenanted stream from vectors plus arrival process/timestamps."""
        if isinstance(arrivals, ArrivalProcess):
            times = arrivals.arrival_times(len(vectors), seed)
        else:
            # Explicit timestamps: validate through the trace process.
            times = TraceArrivals(list(arrivals)).arrival_times(len(vectors))
        return TenantStream(spec=None, vectors=iter(vectors), times=array("d", times))

    # ----------------------------------------------------------- shard set-up
    def _build_shards(self, streams: list[TenantStream]) -> dict:
        """One shard spanning the cluster, placing through ``scheduler``."""
        # Imported lazily: repro.serve.sharded imports this module.
        from repro.serve.sharded.node import NodeRuntime

        cfg = self.serve_config
        return {
            0: NodeRuntime(
                node=0,
                devices=range(self.cluster.num_devices),
                view=self.cluster,
                scheduler=self.scheduler,
                queue=AdmissionQueue(cfg.queue_capacity, self._resolve_policy(streams)),
                tracker=CharacteristicsTracker(),
                autoscaler=cfg.autoscaler,
            )
        }

    def _make_router(self, shards: dict, seed):
        return PassThroughRouter(shards)

    def _resolve_policy(self, streams: list[TenantStream]) -> QueuePolicy:
        """Build one shard queue's dispatch policy for this run's streams.

        ``"auto"`` picks weighted-fair when tenants are configured
        (their weights seed the policy) and FIFO otherwise; explicit
        names are honoured as-is.  A :class:`QueuePolicy` instance is
        deep-copied per shard; a :class:`FaultAware` one contributes its
        inner policy, since the run gates admission once at its global
        tier (see :class:`ServeRun`).
        """
        policy = self.serve_config.queue_policy
        if isinstance(policy, FaultAware):
            policy = policy.inner
        if isinstance(policy, QueuePolicy):
            return copy.deepcopy(policy)
        weights = {s.spec.name: s.spec.weight for s in streams if s.spec is not None}
        if policy == "auto":
            policy = "weighted" if weights else "fifo"
        return WeightedFair(weights) if policy == "weighted" else make_policy(policy)
