"""Online serving layer: event-driven simulation of live vector traffic.

The batch experiments replay a pre-collected vector stream; this
package answers the operational question instead — how does a scheduler
behave when vectors *arrive over time*?  It wires an arrival process
(:mod:`repro.serve.arrivals`), a bounded admission queue with pluggable
dispatch policies (:mod:`repro.serve.queueing`), any existing scheduler
and the execution engine into one deterministic discrete-event loop
(:mod:`repro.serve.timeline`, :mod:`repro.serve.server`) configured by
one :class:`ServeConfig` (:mod:`repro.serve.config`), and reports
latency SLO metrics — tail percentiles, windowed throughput, drop rate
(:mod:`repro.serve.slo`) — in a :class:`ServeResult`
(:mod:`repro.serve.result`).

Multi-tenant serving (:mod:`repro.serve.tenancy`, a
``ServeConfig.tenants`` roster) interleaves several weighted tenant
streams into one timeline with weighted-fair admission and per-tenant
SLO attainment, and an optional p99-driven autoscaler
(:mod:`repro.serve.autoscale`) grows and shrinks the device pool.
Every mode enters through :func:`repro.serve.serve` (or
:func:`repro.serve.make_server`).

Failure-domain resilience rides on top: correlated ``node_lost`` faults
kill whole nodes atomically (survivor rescheduling pays the slow
inter-node link), :class:`~repro.faults.journal.ResidencyJournal`
replay warm-restores replacement devices, and the
:class:`repro.serve.FaultAware` admission gate sheds vectors unlikely
to complete under the live fault rate (``"predicted-infeasible"``).

The two-level sharded control plane (:mod:`repro.serve.sharded`,
enabled with ``ServeConfig(sharded=True)``) replaces the one
whole-cluster shard with a global router over per-node local
schedulers coordinated through periodically synced load/residency
digests — same timeline, same determinism, distributed control
decisions.  Routing is pluggable:
three static digest heuristics plus ``"learned"``
(:mod:`repro.serve.sharded.learned`), an online per-shard
completion-latency predictor that routes to the argmin predicted
latency with a seeded exploration floor.

Gray-failure resilience (:mod:`repro.serve.health`, enabled with
``ServeConfig(health=HealthConfig())`` on sharded runs) handles the
faults that are *not* announced: ``heartbeat_loss`` (a node alive but
silent) and ``node_flap`` (repeated short down/up cycles).  A
phi-accrual-style :class:`repro.serve.HealthMonitor` on the global tier
turns missed heartbeats into a healthy → suspect → quarantined →
probation lifecycle, quarantined shards drain their queues through the
router without being killed, per-shard forwarding circuit breakers stop
hammering full shards, and optional hedged dispatch clones tickets
stuck on suspect shards (first completion wins, exactly-once
accounting).

Result integrity (:mod:`repro.integrity`, enabled with
``ServeConfig(integrity=IntegrityConfig(mode="spot"))``) closes the
last gap: faults that corrupt *data* instead of killing devices.
Checksum lineage tracks tainted copies through D2D propagation, spot
audits recompute sampled pair outputs on a second device (the
recompute doubling as the repair), and per-device blame EWMAs drive a
trusted → suspect → quarantined device lifecycle that feeds back into
health-aware routing.
"""

from repro.serve.arrivals import (
    ArrivalProcess,
    BurstyArrivals,
    PoissonArrivals,
    TraceArrivals,
    arrivals_from_dict,
)
from repro.serve.autoscale import Autoscaler, AutoscalerConfig
from repro.serve.health import (
    AdaptiveHedgeDeadline,
    CircuitBreaker,
    HealthConfig,
    HealthMonitor,
    HedgePair,
    LatencyWindow,
    ShardHealthState,
)
from repro.integrity import IntegrityConfig, IntegrityState
from repro.serve.queueing import (
    QUEUE_POLICIES,
    AdmissionQueue,
    FaultAware,
    Fifo,
    QueuePolicy,
    Sjf,
    WeightedFair,
    make_policy,
)
from repro.serve.config import ServeConfig
from repro.serve.result import ServeResult
from repro.serve.server import MiccoServer
from repro.serve.sharded import (
    ROUTING_POLICIES,
    GlobalScheduler,
    LearnedRouting,
    NodeRuntime,
    RoutingPolicy,
    ShardSnapshot,
    ShardView,
    ShardedServer,
    make_routing_policy,
)
from repro.serve.api import make_server, serve
from repro.serve.slo import DroppedVector, LatencyReport, VectorLatency
from repro.serve.tenancy import (
    SloTargets,
    TenantSpec,
    TenantStream,
    build_streams,
)
from repro.serve.timeline import (
    DeviceOnline,
    DeviceRestore,
    DigestSync,
    Event,
    HealthTick,
    SchedulingDone,
    Ticket,
    Timeline,
    VectorArrival,
    VectorCompletion,
)

__all__ = [
    "serve",
    "make_server",
    "ArrivalProcess",
    "PoissonArrivals",
    "BurstyArrivals",
    "TraceArrivals",
    "arrivals_from_dict",
    "AdmissionQueue",
    "QUEUE_POLICIES",
    "QueuePolicy",
    "Fifo",
    "Sjf",
    "WeightedFair",
    "FaultAware",
    "make_policy",
    "MiccoServer",
    "ServeConfig",
    "ServeResult",
    "TenantSpec",
    "TenantStream",
    "SloTargets",
    "build_streams",
    "Autoscaler",
    "AutoscalerConfig",
    "LatencyReport",
    "VectorLatency",
    "DroppedVector",
    "Timeline",
    "Ticket",
    "Event",
    "VectorArrival",
    "SchedulingDone",
    "VectorCompletion",
    "DeviceOnline",
    "DeviceRestore",
    "DigestSync",
    "HealthTick",
    "IntegrityConfig",
    "IntegrityState",
    "HealthConfig",
    "HealthMonitor",
    "ShardHealthState",
    "CircuitBreaker",
    "HedgePair",
    "AdaptiveHedgeDeadline",
    "LatencyWindow",
    "ShardedServer",
    "GlobalScheduler",
    "NodeRuntime",
    "ShardView",
    "ShardSnapshot",
    "RoutingPolicy",
    "ROUTING_POLICIES",
    "LearnedRouting",
    "make_routing_policy",
]
