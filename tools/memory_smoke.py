#!/usr/bin/env python
"""Bounded-input memory smoke: traced peak growth per serving ticket.

Serves a two-tenant, tenants-burst-shaped roster (16 GPUs, on/off
bursty arrivals, 8-tensor vectors, batched rounds) at two stream
lengths under :mod:`tracemalloc` and reports the *marginal* traced peak
per ticket: ``(peak(long) - peak(short)) / (tickets(long) -
tickets(short))``.  The difference cancels the fixed cost of imports,
the cluster and the scheduler, leaving what each extra ticket keeps
alive during the run.  The roster runs twice: plain, and with full
engine-trace capture (``TraceConfig(mode="full")``), after one small
untraced warm-up run, so lazy imports and first-call caches land in
neither measurement.  Exits 1 when either is above
``MAX_BYTES_PER_TICKET``.

It also checks one fixed cost: after each long run, the traced bytes the
cluster's holder index (``uid -> device bitmask``) frees when cleared,
per resident tensor copy.  Exits 1 when that is above
``MAX_INDEX_BYTES_PER_COPY``.

Last, a finished run must keep nothing: one chaos-integrity-shaped
server (8 GPUs x 16 MiB, a generated fault plan, spot integrity audits,
full trace capture, warm restore) serves the same stream three times
with the garbage collector off, so only reference counting frees a run.
Exits 1 when the traced memory held after the third run exceeds that
after the first by more than ``MAX_RETAINED_BYTES`` — a reference cycle
through a run's state keeps the whole run alive, ~0.5 MiB each here.

Usage::

    PYTHONPATH=src python tools/memory_smoke.py                      # 2x2000 vs 2x8000
    PYTHONPATH=src python tools/memory_smoke.py --sizes 4000,16000   # 8000 vs 32000 tickets
"""

from __future__ import annotations

import argparse
import gc
import sys
import tracemalloc

from repro import MiccoConfig
from repro.faults import FaultPlan
from repro.gpusim import CostModel, Topology, TraceConfig
from repro.integrity import IntegrityConfig
from repro.serve import (
    BurstyArrivals,
    PoissonArrivals,
    ServeConfig,
    SloTargets,
    TenantSpec,
    make_server,
)
from repro.workloads import SyntheticWorkload, WorkloadParams

MIB = 1024**2
SEED = 11
#: Marginal traced peak per ticket above which the smoke fails: the
#: measured ~255 B (plain or fully traced) plus 25 %.  It was ~1.0 KB
#: while the generator kept a ``TensorSpec`` per fresh input, and 1.4 KB
#: plain / 2.8 KB fully traced with per-ticket record objects.
MAX_BYTES_PER_TICKET = 320
#: Traced holder-index bytes per resident copy above which the smoke
#: fails: the measured ~80 B (one dict slot; a single holder's mask is
#: its device's shared int) plus 25 %.  A ``set`` per entry read ~300 B.
MAX_INDEX_BYTES_PER_COPY = 100
#: Traced bytes a server may hold after its third run beyond what it
#: held after its first: ~0.2 KiB measured; a run kept alive by a
#: reference cycle left ~480 KiB per run of ``RETAIN_VECTORS``.
MAX_RETAINED_BYTES = 64 * 1024
#: Stream length of the chaos-integrity-shaped retention case: enough
#: that every generated fault lands and audits detect corruption.
RETAIN_VECTORS = 400
#: Per-tenant stream length of the warm-up run.
WARM_UP = 50
#: The two runs of the roster: name -> trace block.
TRACES = {"plain": TraceConfig(), "full trace": TraceConfig(mode="full")}


def traced_peak(per_tenant: int, trace: TraceConfig) -> tuple[int, int, float]:
    """Serve ``2 * per_tenant`` tickets.

    Returns (tickets offered, traced peak bytes, traced holder-index
    bytes per resident copy at the end of the run).
    """
    stream = WorkloadParams(num_vectors=per_tenant, vector_size=8, tensor_size=64, batch=2)
    arrivals = BurstyArrivals(1000.0, 200.0, mean_on_s=0.2, mean_off_s=0.2)
    slo = SloTargets(p99_s=0.020)
    config = ServeConfig(
        queue_capacity=8192,
        max_batch_vectors=4,
        schedule_latency_per_pair_s=1e-4,
        tenants=(
            TenantSpec("heavy", arrivals, stream, weight=3.0, slo=slo),
            TenantSpec("light", arrivals, stream, weight=1.0, slo=slo),
        ),
        trace=trace,
    )
    cluster = MiccoConfig(
        num_devices=16,
        memory_bytes=64 * MIB,
        cost_model=CostModel(topology=Topology(num_devices=16, devices_per_node=4)),
    )
    server = make_server(config, cluster=cluster)
    gc.collect()
    tracemalloc.start()
    try:
        result = server.run(seed=SEED)
        offered = result.summary()["offered"]
        current, peak = tracemalloc.get_traced_memory()
        # Clearing the index frees its table and whatever values it owns
        # alone; uid keys are shared with the pools and stay.
        copies = server.cluster.total_resident_tensors()
        server.cluster._holders.clear()
        index_bytes = current - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return offered, peak, index_bytes / copies


def retained_after_runs(runs: int = 3) -> list[int]:
    """Traced bytes held after each of ``runs`` runs of one
    chaos-integrity-shaped server, with the garbage collector off."""
    rate = 600.0
    params = WorkloadParams(
        num_vectors=RETAIN_VECTORS, vector_size=16, tensor_size=128, repeated_rate=0.75,
        distribution="gaussian", batch=2,
    )
    vectors = SyntheticWorkload(params, seed=SEED).vectors()
    faults = FaultPlan.generate(
        SEED, num_devices=8, horizon_s=RETAIN_VECTORS / rate, n_transient=2, n_transfer=2,
        n_straggler=1, n_device_lost=1, n_data_corruption=2, n_tensor_bitflip=2,
        corruption_prob=0.3,
    )
    config = ServeConfig(
        queue_capacity=128,
        schedule_latency_per_pair_s=1e-4,
        warm_restore=True,
        trace=TraceConfig(mode="full"),
        integrity=IntegrityConfig(mode="spot", audit_fraction=0.08),
    )
    server = make_server(config, cluster=MiccoConfig(num_devices=8, memory_bytes=16 * MIB))
    held = []
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        for _ in range(runs):
            server.run(vectors, PoissonArrivals(rate), seed=SEED, faults=faults)
            held.append(tracemalloc.get_traced_memory()[0])
    finally:
        tracemalloc.stop()
        gc.enable()
    return held


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sizes", default="2000,8000",
                    help="two per-tenant stream lengths, short,long (default 2000,8000)")
    args = ap.parse_args(argv)
    short, long_ = (int(s) for s in args.sizes.split(","))
    if not 0 < short < long_:
        ap.error(f"--sizes needs 0 < short < long, got {args.sizes}")
    traced_peak(WARM_UP, TraceConfig(mode="full"))
    failed = False
    for name, trace in TRACES.items():
        n_short, peak_short, _ = traced_peak(short, trace)
        n_long, peak_long, per_copy = traced_peak(long_, trace)
        per_ticket = (peak_long - peak_short) / (n_long - n_short)
        print(f"{name}: traced peak {n_short} tickets {peak_short / MIB:.1f} MiB, "
              f"{n_long} tickets {peak_long / MIB:.1f} MiB")
        print(f"{name}: marginal {per_ticket:.0f} B/ticket (limit {MAX_BYTES_PER_TICKET})")
        print(f"{name}: holder index {per_copy:.0f} B/resident copy "
              f"(limit {MAX_INDEX_BYTES_PER_COPY})")
        if per_ticket > MAX_BYTES_PER_TICKET:
            print(f"FAIL: {name} per-ticket memory grew past the limit", file=sys.stderr)
            failed = True
        if per_copy > MAX_INDEX_BYTES_PER_COPY:
            print(f"FAIL: {name} holder index grew past its per-copy limit", file=sys.stderr)
            failed = True
    held = retained_after_runs()
    grown = held[-1] - held[0]
    print(f"chaos-integrity server: {grown / 1024:.1f} KiB more held after run "
          f"{len(held)} than after run 1 (limit {MAX_RETAINED_BYTES // 1024} KiB)")
    if grown > MAX_RETAINED_BYTES:
        print("FAIL: finished runs stay alive (a reference cycle through run state)",
              file=sys.stderr)
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
