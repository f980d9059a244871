"""Fault injection and recovery for chaos-hardened scheduling.

The paper's evaluation assumes eight healthy GPUs for the whole run; a
serving cluster does not get that luxury.  This package injects seeded,
deterministic faults into the simulator — transient kernel failures,
permanent device loss, stragglers, transfer failures — and provides the
recovery policy and accounting that let
:class:`~repro.serve.server.MiccoServer` keep serving on a shrinking
device pool:

* :mod:`repro.faults.plan` — declarative :class:`FaultPlan` (seeded
  generation, JSON round-trip, correlated ``node_lost`` failure
  domains),
* :mod:`repro.faults.injector` — :class:`FaultInjector`, the runtime
  state machine consulted by the engine and the serving loop.  The
  driver protocol is *poll, then apply; the run recovers tickets*:
  :meth:`~FaultInjector.poll` arms the engine-side faults and returns
  the rest, :meth:`~FaultInjector.apply` applies each returned event to
  the cluster and returns the devices it killed with their orphaned
  tensors, and the serving loop recovers the tickets in flight there,
* :mod:`repro.faults.recovery` — :class:`RetryPolicy` (exponential
  backoff in simulated time) and :class:`FaultStats` (the SLO report's
  fault section: injected/retried/recovered counts, recovery latencies,
  availability %),
* :mod:`repro.faults.journal` — :class:`ResidencyJournal`, a bounded
  placement/eviction log replayed to pre-warm replacement devices
  (:meth:`~ResidencyJournal.warm_restore`) instead of starting them
  cold.
"""

from repro.faults.injector import FaultInjector
from repro.faults.journal import ResidencyJournal
from repro.faults.plan import FaultEvent, FaultKind, FaultPlan
from repro.faults.recovery import FaultStats, RetryPolicy

__all__ = [
    "FaultKind",
    "FaultEvent",
    "FaultPlan",
    "FaultInjector",
    "RetryPolicy",
    "FaultStats",
    "ResidencyJournal",
]
