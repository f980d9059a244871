"""Digest-conservation property: the charge ledger reconciles at every sync.

The global router corrects each shard's stale digest by the tickets it
routed there since the last sync (``routed_since_sync``).  Every path a
ticket can take off a shard without completing — full-queue forwards,
hedge-loser cancellations, quarantine drains, integrity flags, shard
death, transient abandons — must *discharge* exactly the correction its
placement charged, or the router's load estimate drifts for the rest of
the run (the stale-digest accounting bugs this suite pins down).

The property checked at every :class:`DigestSync`, for every live
shard::

    routed_since_sync == completed_since_sync
                         + |charged tickets still queued or in flight|

by an auditor wrapped around :meth:`GlobalScheduler.sync`, which runs
before the sync resets the counters.
"""

import pytest

from repro.faults import FaultEvent, FaultKind, FaultPlan
from repro.serve import HealthConfig, PoissonArrivals, ServeConfig
from repro.serve.sharded.server import GlobalScheduler
from tests.test_serve_sharded import run_sharded

FAST_HEALTH = HealthConfig(
    heartbeat_interval_s=1e-3,
    suspect_threshold=2.0,
    quarantine_threshold=4.0,
    probation_beats=3,
)


class Auditor:
    """Records every conservation violation seen at any sync."""

    def __init__(self):
        self.syncs = 0
        self.violations = []

    def __call__(self, router, now, unreachable):
        self.syncs += 1
        for node in sorted(router.shards):
            shard = router.shards[node]
            if shard.dead:
                continue
            present = [
                t
                for t in (
                    list(shard.queue.tickets())
                    + list(shard.inflight_tickets.values())
                )
                if t.charge_node == node and t.charge_epoch == shard.sync_epoch
            ]
            expected = shard.completed_since_sync + len(present)
            if shard.routed_since_sync != expected:
                self.violations.append(
                    f"t={now:.6f} shard {node}: routed_since_sync="
                    f"{shard.routed_since_sync} but completed="
                    f"{shard.completed_since_sync} + present={len(present)}"
                )


def audited(monkeypatch, **kwargs):
    """run_sharded with every sync audited first; returns (auditor, result)."""
    auditor = Auditor()
    sync = GlobalScheduler.sync

    def audited_sync(router, now, linkless_devices=frozenset(), unreachable=frozenset()):
        auditor(router, now, unreachable)
        sync(router, now, linkless_devices, unreachable)

    monkeypatch.setattr(GlobalScheduler, "sync", audited_sync)
    _, result = run_sharded(**kwargs)
    s = result.summary()
    assert s["completed"] + s["dropped"] == s["offered"]
    assert auditor.syncs > 1  # the property was actually exercised
    assert auditor.violations == []
    return auditor, result


def gray_plan():
    """Straggler + flap + silence: the PR 7 gray-failure gauntlet."""
    return FaultPlan((
        FaultEvent(
            FaultKind.STRAGGLER, 1e-3, 4, duration_s=20e-3, slow_factor=6.0
        ),
        FaultEvent(
            FaultKind.NODE_FLAP, 2e-3, 5, duration_s=4e-3, count=3,
            period_s=5e-3,
        ),
        FaultEvent(FaultKind.HEARTBEAT_LOSS, 6.5e-3, 1, duration_s=6e-3),
    ))


class TestConservation:
    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_plain_routes(self, seed, monkeypatch):
        audited(monkeypatch, n=32, seed=seed, serve=ServeConfig(
            sharded=True, sync_interval_s=2e-3,
        ))

    @pytest.mark.parametrize("seed", [0, 3])
    def test_full_queue_forwards(self, seed, monkeypatch):
        # queue_capacity=1 bounces tickets between shards; each hop must
        # discharge the previous shard and charge the next.
        _, result = audited(
            monkeypatch,
            n=32, seed=seed,
            arrivals=[i * 1e-4 for i in range(32)],
            serve=ServeConfig(
                sharded=True, queue_capacity=1, sync_interval_s=2e-3,
                schedule_latency_per_pair_s=2e-3,
            ),
        )
        assert result.sharding["forwards"] > 0

    def test_quarantine_drain_and_hedges(self, monkeypatch):
        # Gray faults drive quarantine drains (discharge + re-place) and
        # hedge clones (the loser's charge must be reversed on cancel).
        health = FAST_HEALTH.with_(hedging=True, hedge_deadline_s=2e-3)
        audited(
            monkeypatch, n=48, seed=0,
            arrivals=PoissonArrivals(3000.0),
            faults=gray_plan(),
            serve=ServeConfig(
                sharded=True, health=health, sync_interval_s=1e-3,
            ),
        )

    def test_node_death_reroutes(self, monkeypatch):
        # A whole failure domain dies mid-run; rescheduled tickets leave
        # the dead shard's ledger and charge their new home.
        plan = FaultPlan((
            FaultEvent(FaultKind.NODE_LOST, 3e-3, 5),
        ))
        _, result = audited(
            monkeypatch, n=32, seed=2,
            arrivals=PoissonArrivals(3000.0),
            faults=plan,
            serve=ServeConfig(sharded=True, sync_interval_s=2e-3),
        )
        assert result.sharding["rerouted"] > 0

    @pytest.mark.parametrize("seed", [0, 5])
    def test_learned_routing_conserves_too(self, seed, monkeypatch):
        # The learned policy adds placement callbacks on the same charge
        # path; the ledger must balance identically.
        audited(monkeypatch, n=32, seed=seed, serve=ServeConfig(
            sharded=True, routing="learned", sync_interval_s=2e-3,
            min_samples=4, refit_interval=4, explore_floor=0.2,
        ))

    def test_very_stale_syncs_conserve_at_the_horizon(self, monkeypatch):
        # One mid-run sync: the counters accumulate for a long window
        # and still reconcile exactly when it finally fires.
        audited(monkeypatch, n=32, seed=0, serve=ServeConfig(
            sharded=True, sync_interval_s=30e-3,
        ))
