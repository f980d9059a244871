"""``ServeConfig``: the serving layer's single source of truth.

Every knob of a serving run that is not a cluster or cost-model knob
lives here, and the whole object round-trips through JSON.  The JSON
form is derived from the dataclass fields by :mod:`repro.utils.codec`,
so adding a field is one line: declare it (with ``since(N)`` /
``since=N`` metadata when it is newer than version 1) and bump
:attr:`ServeConfig.CONFIG_VERSION` to ``N``.  Files written by older
versions keep loading, with every newer field at its default.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from repro.errors import ConfigurationError
from repro.faults.plan import FaultPlan
from repro.gpusim.trace import TraceConfig
from repro.integrity import IntegrityConfig
from repro.reporting import dump_json
from repro.serve.autoscale import AutoscalerConfig
from repro.serve.health import HealthConfig
from repro.serve.queueing import QUEUE_POLICIES, QueuePolicy
from repro.serve.tenancy import TenantSpec
from repro.utils.codec import JsonConfig, converted, nested, nested_tuple, since


@dataclass(frozen=True)
class ServeConfig(JsonConfig):
    """Single source of truth for a serving run (cluster knobs aside).

    Everything the serving layer needs nests here — queue and inflight
    knobs, the tenant roster, the autoscaler policy and a fault plan —
    and the whole object round-trips through JSON
    (:meth:`to_json` / :meth:`from_json`), which is what
    ``micco serve --config cfg.json`` loads.  Cluster and cost-model
    knobs stay in :class:`~repro.core.config.MiccoConfig`.  Schema
    version 2 added the resilience knobs, 3 batching, 4 the sharded
    control plane, 5 the ``health`` block, 6 ``trace``, 7 ``integrity``
    and 8 learned routing.

    Parameters
    ----------
    queue_capacity:
        Bounded admission-queue depth; arrivals beyond it are shed.
    queue_policy:
        A :class:`~repro.serve.queueing.QueuePolicy` instance or one of
        ``"auto"``, ``"fifo"``, ``"sjf"``, ``"weighted"``.  ``"auto"``
        resolves to FIFO for single-tenant runs and to weighted-fair
        (weights from the tenant specs) when tenants are configured.
    max_inflight:
        Vectors dispatched but not yet complete.  1 models the paper's
        single sequential scheduling thread; higher values pipeline
        scheduling of one vector under execution of the previous.
    schedule_latency_per_pair_s:
        Simulated scheduling cost per pair (Table V measures ~10µs-scale
        per-pair decision overhead); deterministic by construction so
        repeated runs produce identical latencies.
    recover_faults:
        When a fault plan is active and a device is lost, re-schedule
        the in-flight pairs that were assigned to it onto the survivors
        (default).  With recovery off, affected vectors are shed with
        reason ``"fault-abandoned"`` instead — the baseline a chaos run
        compares against.
    tenants:
        Tenant roster; non-empty makes :meth:`MiccoServer.run` draw the
        traffic from the tenant specs (multi-tenant serving).
    autoscaler:
        Pool autoscaling policy; ``None`` keeps the pool fixed.
    faults:
        Fault plan injected during the run (an explicit ``faults=``
        argument to :meth:`MiccoServer.run` takes precedence).
    warm_restore:
        Attach a :class:`~repro.faults.journal.ResidencyJournal` to the
        cluster for the run and replay it onto every device that comes
        online (autoscale warm-up, loss replacement): the journal's
        hottest currently-homeless tensors are pre-loaded into free
        memory before the device takes traffic, instead of each being
        re-fetched from the host on the next vectors' critical path.
    journal_capacity:
        Retained residency-delta window of the journal (entries).
    prewarm_fraction:
        At most this fraction of an activating device's memory may be
        filled by warm restore (the rest stays free for live traffic).
    fault_aware_admission:
        Wrap the dispatch policy in
        :class:`~repro.serve.queueing.FaultAware`: vectors whose
        estimated completion probability (from the live fault rate and
        the surviving pool fraction) falls below
        ``admission_min_success`` are shed at admission with reason
        ``"predicted-infeasible"`` instead of burning device time and
        being fault-abandoned mid-run.
    admission_min_success:
        Completion-probability threshold of the fault-aware gate.
    max_batch_vectors:
        Upper bound on queued vectors coalesced into one *scheduling
        round* at dispatch.  1 (default) disables batching; higher
        values let the dispatcher merge like-shaped vectors (same
        workload shape family, combined footprint within
        ``batch_memory_frac``) into one super-vector scheduled together
        — repeated tensors are placed once and reused across the round
        — then de-multiplexed back into per-vector completions so
        per-ticket latency, SLO and fault accounting stay exact.
    batch_memory_frac:
        Fraction of the *alive* pool's combined device memory a round's
        unique tensor footprint may occupy.  The batch assembler stops
        adding members when the next one would cross this budget.
    sharded:
        Run the two-level sharded control plane
        (:class:`~repro.serve.sharded.ShardedServer`): a global router
        admits and routes tickets to per-node local schedulers, each
        owning only its node's devices.  Requires a multi-node
        :class:`~repro.gpusim.topology.Topology` on the cost model.
    sync_interval_s:
        How often (simulated seconds) node runtimes report load/
        residency digests back to the global router.  Between syncs the
        router works from deliberately stale summaries.
    routing:
        Global routing policy name — one of
        :data:`~repro.serve.sharded.routing.ROUTING_POLICIES`
        (``"least-loaded"``, ``"residency-affinity"``,
        ``"threshold-local"``, ``"learned"``).  Unknown names fail at
        config-parse time, not after the run has started.
    explore_floor:
        Learned routing only: probability in ``[0, 1)`` that a warm
        decision picks a uniform-random candidate instead of the
        argmin predicted latency, so every shard keeps getting sampled
        (a recovered shard can be re-discovered).  Drawn from the
        run-seeded exploration stream — fixed seeds replay
        byte-identically.
    min_samples:
        Learned routing only: observed completions required on *every*
        candidate shard's model before predictions are trusted; below
        it routing falls back to the least-loaded ranking (cold start).
    refit_interval:
        Learned routing only: observations between incremental refits
        of a shard's sliding-window latency model.
    health:
        Gray-failure health subsystem
        (:class:`~repro.serve.health.HealthConfig`): heartbeat-driven
        suspicion tracking, quarantine/probation lifecycle, forwarding
        circuit breakers and (optionally) hedged dispatch on the
        sharded control plane, so it requires ``sharded=True``.
        ``None`` (default) disables health inference — gray faults then
        go entirely unnoticed by the router.
    trace:
        Engine trace recording (:class:`~repro.gpusim.trace.TraceConfig`):
        ``"report"`` (default, lazy report-derived Chrome traces, no
        recorder), ``"full"`` / ``"sampling"`` (attach a recorder with
        the matching sink — opts execution out of the trace-free fast
        path), or ``"off"`` (no traces at all).  ``None`` means
        ``"report"``.
    integrity:
        Result-integrity subsystem
        (:class:`~repro.integrity.IntegrityConfig`): checksum lineage
        over tensor copies, sampled audit recomputation of completed
        pairs on other devices (``spot`` / ``suspect-full``), taint
        invalidation + repair with exact SLO accounting, and per-device
        corruption blame with quarantine.  ``None`` (default) disables
        integrity checking — silent corruption then reaches reported
        completions unnoticed.
    """

    BLOCK = "serve config"
    #: Schema version :meth:`to_json` writes.  Older files still load,
    #: with every field newer than their version at its default.
    CONFIG_VERSION = 8

    queue_capacity: int = 64
    queue_policy: QueuePolicy | str = converted(
        lambda policy: policy if isinstance(policy, str) else policy.name, default="auto"
    )
    max_inflight: int = 1
    schedule_latency_per_pair_s: float = 2e-5
    recover_faults: bool = True
    tenants: tuple[TenantSpec, ...] = nested_tuple(TenantSpec, default=())
    autoscaler: AutoscalerConfig | None = nested(AutoscalerConfig, default=None)
    # An empty plan injects nothing, so it is written as null like no plan.
    faults: FaultPlan | None = converted(
        lambda plan: plan.to_dicts() or None,
        lambda records, path: FaultPlan.from_dicts(records),
        default=None,
    )
    warm_restore: bool = since(2, default=False)
    journal_capacity: int = since(2, default=4096)
    prewarm_fraction: float = since(2, default=0.5)
    fault_aware_admission: bool = since(2, default=False)
    admission_min_success: float = since(2, default=0.5)
    max_batch_vectors: int = since(3, default=1)
    batch_memory_frac: float = since(3, default=0.5)
    sharded: bool = since(4, default=False)
    sync_interval_s: float = since(4, default=0.05)
    routing: str = since(4, default="least-loaded")
    explore_floor: float = since(8, default=0.05)
    min_samples: int = since(8, default=24)
    refit_interval: int = since(8, default=16)
    health: HealthConfig | None = nested(HealthConfig, since=5, default=None)
    trace: TraceConfig | None = nested(TraceConfig, since=6, default=None)
    integrity: IntegrityConfig | None = nested(IntegrityConfig, since=7, default=None)

    def __post_init__(self):
        if self.queue_capacity <= 0:
            raise ConfigurationError(f"queue_capacity must be > 0, got {self.queue_capacity}")
        if isinstance(self.queue_policy, str):
            if self.queue_policy not in QUEUE_POLICIES + ("auto",):
                raise ConfigurationError(
                    f"unknown queue policy {self.queue_policy!r}; expected a QueuePolicy "
                    f"or one of {QUEUE_POLICIES + ('auto',)}"
                )
        elif not isinstance(self.queue_policy, QueuePolicy):
            raise ConfigurationError(
                f"queue_policy must be a QueuePolicy or a name, got {self.queue_policy!r}"
            )
        if self.max_inflight < 1:
            raise ConfigurationError(f"max_inflight must be >= 1, got {self.max_inflight}")
        if self.schedule_latency_per_pair_s < 0:
            raise ConfigurationError(
                f"schedule_latency_per_pair_s must be >= 0, got {self.schedule_latency_per_pair_s}"
            )
        if self.journal_capacity < 1:
            raise ConfigurationError(
                f"journal_capacity must be >= 1, got {self.journal_capacity}"
            )
        if not 0 < self.prewarm_fraction <= 1:
            raise ConfigurationError(
                f"prewarm_fraction must be in (0, 1], got {self.prewarm_fraction}"
            )
        if not 0 < self.admission_min_success < 1:
            raise ConfigurationError(
                f"admission_min_success must be in (0, 1), got {self.admission_min_success}"
            )
        if self.max_batch_vectors < 1:
            raise ConfigurationError(
                f"max_batch_vectors must be >= 1, got {self.max_batch_vectors}"
            )
        if not 0 < self.batch_memory_frac <= 1:
            raise ConfigurationError(
                f"batch_memory_frac must be in (0, 1], got {self.batch_memory_frac}"
            )
        if self.sync_interval_s <= 0:
            raise ConfigurationError(
                f"sync_interval_s must be > 0, got {self.sync_interval_s}"
            )
        # Imported lazily: repro.serve.sharded imports the serving loop,
        # which imports this module.
        from repro.serve.sharded.routing import ROUTING_POLICIES

        if self.routing not in ROUTING_POLICIES:
            raise ConfigurationError(
                f"unknown routing policy {self.routing!r}; expected one of {ROUTING_POLICIES}"
            )
        if not 0 <= self.explore_floor < 1:
            raise ConfigurationError(
                f"explore_floor must be in [0, 1), got {self.explore_floor}"
            )
        if self.min_samples < 2:
            raise ConfigurationError(
                f"min_samples must be >= 2, got {self.min_samples}"
            )
        if self.refit_interval < 1:
            raise ConfigurationError(
                f"refit_interval must be >= 1, got {self.refit_interval}"
            )
        if self.health is not None and not isinstance(self.health, HealthConfig):
            raise ConfigurationError(
                f"health must be a HealthConfig or None, got {self.health!r}"
            )
        if self.health is not None and not self.sharded:
            raise ConfigurationError(
                "health checks and hedging run on the sharded control plane: "
                "set sharded=True (micco serve --sharded) to use ServeConfig.health"
            )
        if self.trace is not None and not isinstance(self.trace, TraceConfig):
            raise ConfigurationError(
                f"trace must be a TraceConfig or None, got {self.trace!r}"
            )
        if self.integrity is not None and not isinstance(self.integrity, IntegrityConfig):
            raise ConfigurationError(
                f"integrity must be an IntegrityConfig or None, got {self.integrity!r}"
            )
        object.__setattr__(self, "tenants", tuple(self.tenants))
        for t in self.tenants:
            if not isinstance(t, TenantSpec):
                raise ConfigurationError(f"tenants entries must be TenantSpec, got {t!r}")
        names = [t.name for t in self.tenants]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"tenant names must be unique, got {names}")

    def to_json(self, path: str | Path) -> None:
        """Write the full config; :meth:`from_json` round-trips it."""
        dump_json(path, {"version": self.CONFIG_VERSION, **self.to_dict()})

    @classmethod
    def from_json(cls, path: str | Path) -> "ServeConfig":
        return cls.from_dict(json.loads(Path(path).read_text()))
