"""Multi-tenant serving: tenant specs, per-tenant streams and SLOs.

A :class:`TenantSpec` bundles everything one traffic source brings to a
shared cluster: a name, a weighted-fair admission weight, an arrival
process, a synthetic workload recipe (each tenant can have its own
tensor-size / repeated-rate / distribution regime — the MICCO
reuse-vs-balance tradeoff sharpens when tenants with different tensor
distributions compete for residency) and per-tenant SLO targets.

:func:`build_streams` materialises the specs into seeded
:class:`TenantStream`\\ s — per-tenant vectors and arrival timestamps
drawn from statistically independent generators spawned off one run
seed — which :meth:`~repro.serve.server.MiccoServer.run` interleaves
into a single simulated timeline when ``ServeConfig.tenants`` is set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.serve.arrivals import ArrivalProcess, arrivals_from_dict
from repro.serve.slo import LatencyReport
from repro.tensor.spec import VectorSpec
from repro.utils.codec import JsonConfig, converted, nested
from repro.utils.rng import spawn_generators
from repro.workloads import SyntheticWorkload, WorkloadParams


@dataclass(frozen=True)
class SloTargets(JsonConfig):
    """Per-tenant service-level objectives (all optional).

    Latency targets are on end-to-end sojourn time (arrival →
    completion), in simulated seconds; ``max_drop_rate`` bounds the
    shed fraction.  Unset targets are not evaluated (and vacuously
    attained).
    """

    BLOCK = "slo"

    p50_s: float | None = None
    p95_s: float | None = None
    p99_s: float | None = None
    max_drop_rate: float | None = None

    def __post_init__(self):
        for name in ("p50_s", "p95_s", "p99_s"):
            v = getattr(self, name)
            if v is not None and (not math.isfinite(v) or v <= 0):
                raise ConfigurationError(f"SLO target {name} must be > 0, got {v}")
        if self.max_drop_rate is not None and not 0 <= self.max_drop_rate <= 1:
            raise ConfigurationError(
                f"max_drop_rate must be in [0, 1], got {self.max_drop_rate}"
            )

    def attainment(self, report: LatencyReport) -> dict:
        """Evaluate the targets against a (per-tenant) latency report.

        Returns ``{"checks": {...}, "attained": bool}`` where each
        check carries target, actual and a ``met`` flag.  A target with
        no completions to measure against (NaN percentile) is unmet.
        """
        checks: dict[str, dict] = {}
        for name, target, actual in (
            ("p50_s", self.p50_s, report.p50),
            ("p95_s", self.p95_s, report.p95),
            ("p99_s", self.p99_s, report.p99),
        ):
            if target is not None:
                checks[name] = {
                    "target": target,
                    "actual": float(actual),
                    "met": bool(actual <= target),
                }
        if self.max_drop_rate is not None:
            checks["drop_rate"] = {
                "target": self.max_drop_rate,
                "actual": float(report.drop_rate),
                "met": bool(report.drop_rate <= self.max_drop_rate),
            }
        return {
            "checks": checks,
            "attained": all(c["met"] for c in checks.values()),
        }


@dataclass(frozen=True)
class TenantSpec(JsonConfig):
    """One traffic source sharing the cluster.

    Parameters
    ----------
    name:
        Tenant identity, unique within a run (keys reports and weights).
    arrivals:
        When the tenant's vectors reach the server.
    workload:
        What the tenant's vectors look like; ``workload.num_vectors``
        is the tenant's stream length.
    weight:
        Weighted-fair admission share (relative to the other tenants'
        weights under saturation).  Keyword-only, like ``slo``; it is
        declared second so the JSON form lists it right after ``name``.
    slo:
        Per-tenant latency / drop-rate targets.
    """

    BLOCK = "tenant"

    name: str
    weight: float = field(default=1.0, kw_only=True)
    arrivals: ArrivalProcess = converted(
        lambda arrivals: arrivals.to_dict(), lambda d, path: arrivals_from_dict(d)
    )
    workload: WorkloadParams = nested(WorkloadParams, default_factory=WorkloadParams)
    slo: SloTargets = nested(SloTargets, default_factory=SloTargets, kw_only=True)

    def __post_init__(self):
        if not self.name:
            raise ConfigurationError("tenant name must be non-empty")
        if not math.isfinite(self.weight) or self.weight <= 0:
            raise ConfigurationError(
                f"tenant {self.name!r} weight must be finite and > 0, got {self.weight}"
            )
        if not isinstance(self.arrivals, ArrivalProcess):
            raise ConfigurationError(
                f"tenant {self.name!r} arrivals must be an ArrivalProcess, "
                f"got {type(self.arrivals).__name__}"
            )

    @property
    def num_vectors(self) -> int:
        return self.workload.num_vectors


@dataclass
class TenantStream:
    """A materialised request stream for one run.

    ``spec`` is ``None`` for the anonymous single-tenant stream
    :meth:`~repro.serve.server.MiccoServer.run` builds internally.
    """

    spec: TenantSpec | None
    vectors: list[VectorSpec]
    times: list[float]


def build_streams(tenants, seed) -> list[TenantStream]:
    """Materialise each tenant's vectors and arrival times from one seed.

    Each tenant draws its workload and its arrivals from independent
    generators spawned off ``seed`` (no cross-tenant correlations, and
    adding a tenant does not perturb the others' streams beyond the
    spawn order).  Vector ids are renumbered globally so report and
    trace lanes stay unique across tenants.
    """
    tenants = list(tenants)
    if not tenants:
        raise ConfigurationError("multi-tenant run needs at least one TenantSpec")
    names = [t.name for t in tenants]
    if len(set(names)) != len(names):
        raise ConfigurationError(f"tenant names must be unique, got {names}")
    rngs = spawn_generators(seed, 2 * len(tenants))
    streams: list[TenantStream] = []
    next_id = 0
    for i, spec in enumerate(tenants):
        vectors = SyntheticWorkload(spec.workload, seed=rngs[2 * i]).vectors()
        for v in vectors:
            v.vector_id = next_id
            next_id += 1
        times = spec.arrivals.arrival_times(len(vectors), seed=rngs[2 * i + 1])
        streams.append(TenantStream(spec, vectors, times))
    return streams


def tenant_sections(report: LatencyReport, tenants) -> dict[str, dict]:
    """Per-tenant report section: latency summary + SLO attainment.

    One entry per tenant, keyed by name, each holding the tenant's
    weight, its :meth:`LatencyReport.summary` slice and the result of
    evaluating its :class:`SloTargets`.
    """
    sections: dict[str, dict] = {}
    for spec in tenants:
        sub = report.for_tenant(spec.name)
        sections[spec.name] = {
            "weight": spec.weight,
            "summary": sub.summary(),
            "slo": spec.slo.attainment(sub),
        }
    return sections
