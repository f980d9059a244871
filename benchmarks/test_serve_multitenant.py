"""Bench: multi-tenant serving — weighted fairness and p99 autoscaling.

Two tenants with a 3:1 weight ratio saturate a small pool with
equal-rate, equal-size streams.  Weighted-fair admission must hold the
heavy tenant's share of early dispatches within 10% of its weight
ratio (0.75) while global FIFO — which ignores weights — does not.
Separately, a bursty tenant served on an autoscaled pool (min 1, max 4
devices, queue-depth + windowed-p99 signals) must see a better p99 than
on a fixed minimal pool, because the autoscaler absorbs the burst and
then retires the extra devices.  Everything is seeded: identical seeds
reproduce identical per-tenant reports and identical scaling-action
logs.
"""

import numpy as np

from benchmarks.conftest import run_once
from repro.core.config import MiccoConfig
from repro.serve import (
    AutoscalerConfig,
    BurstyArrivals,
    MiccoServer,
    PoissonArrivals,
    ServeConfig,
    TenantSpec,
)
from repro.workloads import WorkloadParams

SEED = 11
N_PER_TENANT = 24
SATURATING_RATE = 20_000.0
WEIGHT_RATIO = 3.0


def fairness_tenants():
    stream = WorkloadParams(num_vectors=N_PER_TENANT, vector_size=8, tensor_size=64, batch=2)
    return (
        TenantSpec("heavy", PoissonArrivals(SATURATING_RATE), stream, weight=WEIGHT_RATIO),
        TenantSpec("light", PoissonArrivals(SATURATING_RATE), stream, weight=1.0),
    )


def heavy_share(result):
    """Heavy tenant's fraction of the first half of dispatches."""
    order = sorted(result.report.completed, key=lambda r: (r.dispatch_s, r.vector_id))
    first_half = order[: N_PER_TENANT]
    return sum(1 for r in first_half if r.tenant == "heavy") / len(first_half)


def run_fairness(policy):
    cfg = ServeConfig(queue_capacity=128, queue_policy=policy, tenants=fairness_tenants())
    server = MiccoServer(config=MiccoConfig(num_devices=2), serve=cfg)
    return server.run(seed=SEED)


def bursty_tenants():
    burst = WorkloadParams(num_vectors=30, vector_size=8, tensor_size=64, batch=2)
    steady = WorkloadParams(num_vectors=10, vector_size=8, tensor_size=64, batch=2)
    return (
        TenantSpec(
            "bursty",
            BurstyArrivals(15_000.0, 100.0, mean_on_s=0.002, mean_off_s=0.01),
            burst,
            weight=2.0,
        ),
        TenantSpec("steady", PoissonArrivals(500.0), steady, weight=1.0),
    )


def run_autoscaled(autoscale: bool):
    scaler = AutoscalerConfig(
        min_devices=1,
        max_devices=4,
        p99_target_s=0.002,
        window_s=0.05,
        up_queue_depth=3,
        warmup_s=0.0005,
        cooldown_s=0.002,
    )
    cfg = ServeConfig(
        queue_capacity=128,
        tenants=bursty_tenants(),
        autoscaler=scaler if autoscale else None,
    )
    # The fixed baseline gets exactly the autoscaler's floor: one device.
    devices = 4 if autoscale else 1
    server = MiccoServer(config=MiccoConfig(num_devices=devices), serve=cfg)
    result = server.run(seed=SEED)
    server.cluster.check_invariants()
    return result


def sweep():
    return {
        "weighted": run_fairness("auto"),
        "weighted_replay": run_fairness("auto"),
        "fifo": run_fairness("fifo"),
        "autoscaled": run_autoscaled(True),
        "autoscaled_replay": run_autoscaled(True),
        "fixed_minimal": run_autoscaled(False),
    }


def test_multitenant_fairness_and_autoscaling(benchmark):
    results = run_once(benchmark, sweep)

    target = WEIGHT_RATIO / (WEIGHT_RATIO + 1.0)  # 0.75
    wf_share = heavy_share(results["weighted"])
    fifo_share = heavy_share(results["fifo"])
    scaled = results["autoscaled"]
    fixed = results["fixed_minimal"]
    p99_scaled = scaled.tenant_report("bursty").p99
    p99_fixed = fixed.tenant_report("bursty").p99

    print()
    print(f"heavy-tenant share of first {N_PER_TENANT} dispatches "
          f"(weights {WEIGHT_RATIO:g}:1, target {target:.2f}):")
    print(f"  weighted-fair {wf_share:.3f}   fifo {fifo_share:.3f}")
    print(f"bursty-tenant p99: autoscaled {p99_scaled * 1e3:.3f} ms "
          f"(ups {scaled.autoscale['scale_ups']}, downs {scaled.autoscale['scale_downs']})"
          f"   fixed 1-device pool {p99_fixed * 1e3:.3f} ms")

    # Weighted-fair admission realises the weight ratio under
    # saturation; global FIFO does not (it tracks arrival order).
    assert abs(wf_share - target) <= 0.10 * target
    assert abs(fifo_share - target) > 0.10 * target
    assert results["weighted"].queue["policy"] == "weighted"
    assert results["fifo"].queue["policy"] == "fifo"

    # Both tenants fully served in the fairness runs (capacity is ample).
    for key in ("weighted", "fifo"):
        s = results[key].summary()
        assert s["completed"] == s["offered"] == 2 * N_PER_TENANT

    # The autoscaler reacts to the burst and pays off in the tail.
    assert scaled.autoscale["scale_ups"] >= 1
    assert np.isfinite(p99_scaled) and np.isfinite(p99_fixed)
    assert p99_scaled < p99_fixed

    # Same seed → identical per-tenant sections and scaling actions.
    assert results["weighted_replay"].summary() == results["weighted"].summary()
    assert results["autoscaled_replay"].summary() == scaled.summary()
    assert results["autoscaled_replay"].autoscale["actions"] == scaled.autoscale["actions"]
