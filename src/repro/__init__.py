"""MICCO reproduction: data-reuse-aware multi-GPU scheduling for
many-body correlation functions (Wang et al., IPDPS 2022).

Public API highlights
---------------------
* :class:`repro.Micco` — the framework facade (naive / optimal / baselines).
* :class:`repro.MiccoConfig` — cluster + cost-model configuration.
* :class:`repro.WorkloadParams` / :class:`repro.SyntheticWorkload` —
  synthetic vector streams with the paper's data characteristics.
* :mod:`repro.schedulers` — MICCO heuristic and baseline schedulers.
* :mod:`repro.serve` — online serving simulator (:func:`repro.serve`,
  :class:`repro.MiccoServer`): arrival processes, admission control,
  latency SLO metrics; tenant rosters (``ServeConfig.tenants``) with
  weighted-fair admission and a p99-driven device-pool autoscaler.
* :mod:`repro.faults` — seeded fault injection (:class:`repro.FaultPlan`)
  and recovery: chaos-hardened serving on a shrinking device pool.
* :mod:`repro.ml` — from-scratch regression models + reuse-bound tuner.
* :mod:`repro.redstar` — Redstar-analog contraction-graph pipeline.
* :mod:`repro.experiments` — one runner per paper table/figure.
"""

from repro.core import Micco, MiccoConfig, RunResult, compare, run_stream
from repro.faults import FaultEvent, FaultInjector, FaultKind, FaultPlan, FaultStats, RetryPolicy
from repro.gpusim import ClusterState, CostModel, ExecutionEngine, ExecutionMetrics
from repro.schedulers import (
    GrouteScheduler,
    MiccoScheduler,
    ReuseBounds,
    RoundRobinScheduler,
)
from repro.reporting import Report
from repro.serve import (
    AutoscalerConfig,
    BurstyArrivals,
    LatencyReport,
    MiccoServer,
    PoissonArrivals,
    ServeConfig,
    ServeResult,
    SloTargets,
    TenantSpec,
    TraceArrivals,
    make_server,
    serve,
)
from repro.tensor import TensorPair, TensorSpec, VectorSpec
from repro.workloads import SyntheticWorkload, WorkloadParams

__version__ = "1.0.0"

__all__ = [
    "Micco",
    "MiccoConfig",
    "RunResult",
    "compare",
    "run_stream",
    "ClusterState",
    "CostModel",
    "ExecutionEngine",
    "ExecutionMetrics",
    "FaultKind",
    "FaultEvent",
    "FaultPlan",
    "FaultInjector",
    "FaultStats",
    "RetryPolicy",
    "GrouteScheduler",
    "MiccoScheduler",
    "ReuseBounds",
    "RoundRobinScheduler",
    "serve",
    "make_server",
    "MiccoServer",
    "ServeConfig",
    "ServeResult",
    "TenantSpec",
    "SloTargets",
    "AutoscalerConfig",
    "Report",
    "PoissonArrivals",
    "BurstyArrivals",
    "TraceArrivals",
    "LatencyReport",
    "TensorPair",
    "TensorSpec",
    "VectorSpec",
    "SyntheticWorkload",
    "WorkloadParams",
    "__version__",
]
