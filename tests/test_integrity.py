"""Result-integrity subsystem: config, ledger, blame, end-to-end runs.

Unit tests drive :class:`repro.integrity.IntegrityState` directly with
stub pairs; property tests (hypothesis) check the taint ledger's
closure/soundness invariants and replay determinism under arbitrary
operation sequences; the end-to-end tests run seeded chaos serves and
assert the ISSUE's acceptance criteria — high detection rate, the
``detected == repaired + flagged`` conservation, zero corrupt results
inside reported completions, and blame-driven device quarantine.
"""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.faults import FaultPlan
from repro.gpusim import CostModel, Topology
from repro.integrity import (
    BLAME_STATES,
    INTEGRITY_MODES,
    IntegrityConfig,
    IntegrityState,
    mix64,
)
from repro.core.config import MiccoConfig
from repro.schedulers.bounds import ReuseBounds
from repro.schedulers.micco import MiccoScheduler
from repro.serve import PoissonArrivals, ServeConfig, serve
from repro.workloads import SyntheticWorkload, WorkloadParams

MIB = 1024**2


def pair(left, right, out):
    """Minimal contraction-pair stub (only uids are consulted)."""
    return SimpleNamespace(
        left=SimpleNamespace(uid=left),
        right=SimpleNamespace(uid=right),
        out=SimpleNamespace(uid=out),
    )


# ------------------------------------------------------------------ config
class TestIntegrityConfig:
    def test_defaults(self):
        cfg = IntegrityConfig()
        assert cfg.mode == "off"
        assert 0 < cfg.audit_fraction <= 1
        assert cfg.verify_transfers is True

    def test_round_trip(self):
        cfg = IntegrityConfig(mode="suspect-full", audit_fraction=0.1,
                              audit_budget_frac=0.3, blame_threshold=0.5)
        assert IntegrityConfig.from_dict(cfg.to_dict()) == cfg

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown integrity"):
            IntegrityConfig.from_dict({"mode": "spot", "typo": 1})

    @pytest.mark.parametrize("kwargs", [
        {"mode": "paranoid"},
        {"audit_fraction": 0.0},
        {"audit_fraction": 1.5},
        {"audit_budget_frac": 0.0},
        {"blame_threshold": 0.0},
        {"blame_alpha": 1.0},
    ])
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            IntegrityConfig(**kwargs)

    def test_with_revalidates(self):
        cfg = IntegrityConfig(mode="spot")
        assert cfg.with_(audit_fraction=0.5).audit_fraction == 0.5
        with pytest.raises(ConfigurationError):
            cfg.with_(mode="nope")

    def test_modes_and_states_frozen(self):
        assert INTEGRITY_MODES == ("off", "spot", "suspect-full")
        assert BLAME_STATES == ("trusted", "suspect", "quarantined")


# ------------------------------------------------------------------- mix64
class TestMix64:
    def test_deterministic(self):
        assert mix64(1, 2, 3) == mix64(1, 2, 3)

    def test_order_sensitive(self):
        assert mix64(1, 2) != mix64(2, 1)

    def test_64_bit_range_and_spread(self):
        seen = {mix64(0xAD017, v, 7) for v in range(256)}
        assert len(seen) == 256
        assert all(0 <= h < 1 << 64 for h in seen)


# ------------------------------------------------------------------ ledger
def state(mode="spot", **kw):
    return IntegrityState(IntegrityConfig(mode=mode, **kw), num_devices=4)


class TestChecksumLedger:
    def test_clean_copy_hashes_true(self):
        s = state()
        assert s.copy_version(5, 0) == s.true_version(5)

    def test_corrupt_compute_diverges_checksum(self):
        s = state()
        s.note_compute(pair(1, 2, 10), device=0, corrupt=True, now=1.0)
        assert s.injected == 1
        assert s.copy_version(10, 0) != s.true_version(10)
        # Other devices' (nonexistent) copies would still hash clean.
        assert s.copy_version(10, 1) == s.true_version(10)

    def test_lineage_propagates_through_clean_compute(self):
        s = state()
        s.flip(7, 2, now=0.5)  # bitflip dirties uid 7 on device 2
        s.note_compute(pair(7, 8, 20), device=2, corrupt=False, now=1.0)
        entry = s.output_entry(20, 2)
        assert entry == (2, 7)  # blamed on the flipping device, root uid 7
        assert s.derived_version(20, 7, 8, 2) != s.derived_version(20, 7, 8, 1)

    def test_clean_compute_over_clean_inputs_clears_output(self):
        s = state()
        s.flip(20, 1, now=0.0)
        s.note_compute(pair(1, 2, 20), device=1, corrupt=False, now=1.0)
        assert s.output_entry(20, 1) is None

    def test_d2d_propagates_taint_h2d_cleans(self):
        s = state()
        s.note_compute(pair(1, 2, 10), device=0, corrupt=True, now=0.0)
        entry = s.note_d2d(10, src=0, dst=3)
        assert entry == (0, 10)
        assert s.copy_version(10, 3) != s.true_version(10)
        s.note_h2d(10, 3)
        assert s.copy_version(10, 3) == s.true_version(10)
        assert s.note_d2d(10, src=3, dst=1) is None  # clean source

    def test_transfer_detection_clears_and_blames(self):
        s = state()
        s.note_compute(pair(1, 2, 10), device=0, corrupt=True, now=0.0)
        entry = s.note_d2d(10, src=0, dst=3)
        s.transfer_detected(10, 0, 3, entry, now=2.0)
        assert s.detected == s.repaired == s.transfer_detections == 1
        assert s.copy_version(10, 0) == s.true_version(10)
        assert s.is_suspect(0)
        assert s.detection_latency_s == [2.0]

    def test_audit_detected_pops_all_copies(self):
        s = state()
        s.note_compute(pair(1, 2, 10), device=0, corrupt=True, now=0.0)
        s.note_d2d(10, src=0, dst=2)
        assert s.audit_detected(10, now=1.0) == [0, 2]
        assert s.output_entry(10, 0) is None
        assert s.detected == s.repaired == 1
        assert s.device_detections[0] == 1

    def test_flag_ticket_preserves_conservation(self):
        s = state()
        s.note_compute(pair(1, 2, 10), device=0, corrupt=True, now=0.0)
        s.audit_detected(10, now=1.0)
        s.flag_ticket(1)
        assert s.detected == s.repaired + s.flagged == 1
        assert s.flagged == 1 and s.unverified_tickets == 1

    def test_escaped_counts_reported_dirty_outputs(self):
        s = state()
        s.note_compute(pair(1, 2, 10), device=0, corrupt=True, now=0.0)
        vector = SimpleNamespace(pairs=[pair(1, 2, 10), pair(3, 4, 11)])
        s.note_reported(vector, [0, 1])
        assert s.escaped == 1

    def test_dirty_uids_on_sorted(self):
        s = state()
        s.flip(9, 1, now=0.0)
        s.flip(3, 1, now=0.0)
        s.flip(5, 0, now=0.0)
        assert s.dirty_uids_on(1) == [3, 9]


class TestBlameLifecycle:
    def test_two_detections_cross_default_threshold(self):
        s = state()  # alpha 0.25, threshold 0.4: 0.25 then 0.4375
        s._blame(1, now=0.0)
        assert s.blame_state[1] == "suspect"
        assert s.poll_quarantines() == []
        s._blame(1, now=1.0)
        assert s.blame_state[1] == "quarantined"
        assert s.poll_quarantines() == [1]
        assert s.poll_quarantines() == []  # delivered exactly once
        assert s.quarantined_devices() == [1]

    def test_clean_audit_decays_ewma(self):
        s = state()
        s._blame(2, now=0.0)
        before = s.ewma[2]
        s.clean_audit(2)
        assert s.ewma[2] == pytest.approx(before * 0.75)

    def test_quarantine_devices_flag_gates_retirement(self):
        s = IntegrityState(
            IntegrityConfig(mode="spot", quarantine_devices=False), 4
        )
        s._blame(0, now=0.0)
        s._blame(0, now=0.0)
        assert s.blame_state[0] == "quarantined"
        assert s.poll_quarantines() == []  # state changes, pool does not

    def test_transitions_logged(self):
        s = state()
        s._blame(3, now=0.5)
        s._blame(3, now=0.7)
        assert [t["to"] for t in s.blame_log] == ["suspect", "quarantined"]
        assert all(t["device"] == 3 for t in s.blame_log)


class TestAuditSampling:
    def test_deterministic(self):
        s, t = state(), state()
        draws = [(v, i) for v in range(50) for i in range(8)]
        assert [s.sampled(*d) for d in draws] == [t.sampled(*d) for d in draws]

    def test_tracks_audit_fraction(self):
        s = state(audit_fraction=0.25)
        hits = sum(s.sampled(v, i) for v in range(500) for i in range(8))
        assert 0.2 < hits / 4000 < 0.3

    def test_fraction_one_audits_everything(self):
        s = state(audit_fraction=1.0)
        assert all(s.sampled(v, i) for v in range(50) for i in range(4))


# -------------------------------------------------------- property tests
OPS = st.lists(
    st.one_of(
        st.tuples(st.just("flip"), st.integers(0, 7), st.integers(0, 3)),
        st.tuples(st.just("corrupt"), st.integers(0, 7), st.integers(0, 3)),
        st.tuples(st.just("compute"), st.integers(0, 7), st.integers(0, 3)),
        st.tuples(st.just("d2d"), st.integers(0, 7), st.integers(0, 3)),
        st.tuples(st.just("h2d"), st.integers(0, 7), st.integers(0, 3)),
    ),
    max_size=40,
)


def apply_ops(s: IntegrityState, ops) -> None:
    """Drive one state through an encoded op sequence (uids 0-7 inputs,
    outputs offset by 100 so compute chains reuse earlier outputs)."""
    for kind, uid, dev in ops:
        if kind == "flip":
            s.flip(uid, dev, now=0.0)
        elif kind == "corrupt":
            s.note_compute(pair(uid, (uid + 1) % 8, 100 + uid), dev, True, 0.0)
        elif kind == "compute":
            s.note_compute(pair(uid, 100 + uid, 200 + uid), dev, False, 0.0)
        elif kind == "d2d":
            s.note_d2d(uid, src=dev, dst=(dev + 1) % 4)
        elif kind == "h2d":
            s.note_h2d(uid, dev)


class TestTaintProperties:
    @settings(max_examples=60, deadline=None)
    @given(OPS)
    def test_soundness_every_taint_descends_from_injected_root(self, ops):
        """No copy is ever dirty without an injected ancestor, and its
        checksum diverges from the true version exactly when dirty."""
        s = state()
        apply_ops(s, ops)
        for uid, devs in s._dirty.items():
            for dev, (blame, root) in devs.items():
                assert root in s._injected_roots
                assert 0 <= blame < 4
                assert s.copy_version(uid, dev) != s.true_version(uid)

    @settings(max_examples=60, deadline=None)
    @given(OPS)
    def test_closure_clean_compute_over_dirty_input_is_dirty(self, ops):
        """Lineage closure: after any history, a clean kernel over a
        dirty input copy must produce a dirty output copy."""
        s = state()
        apply_ops(s, ops)
        for uid in range(8):
            for dev in range(4):
                input_dirty = dev in s._dirty.get(uid, {})
                s.note_compute(pair(uid, 999, 300 + uid), dev, False, 0.0)
                out_dirty = dev in s._dirty.get(300 + uid, {})
                # The stub's right input (999) is always clean, so the
                # output's taint equals the left input's.
                assert out_dirty == input_dirty

    @settings(max_examples=60, deadline=None)
    @given(OPS)
    def test_replay_determinism(self, ops):
        """Two states fed the same ops agree byte-for-byte — the whole
        subsystem is RNG-free (checksum determinism across cores)."""
        import json

        a, b = state(), state()
        apply_ops(a, ops)
        apply_ops(b, ops)
        assert json.dumps(a.summary(1.0), sort_keys=True) == json.dumps(
            b.summary(1.0), sort_keys=True
        )
        assert a._dirty == b._dirty


# ------------------------------------------------------------- end to end
def chaos_result(mode="spot", sharded=False, seed=0, n_vectors=60, **integ_kw):
    if sharded:
        topo = Topology(num_devices=8, devices_per_node=4)
        cluster = MiccoConfig(
            num_devices=8, memory_bytes=64 * MIB,
            cost_model=CostModel(topology=topo),
        )
        num_devices = 8
    else:
        cluster = MiccoConfig(num_devices=4, memory_bytes=64 * MIB)
        num_devices = 4
    plan = FaultPlan.generate(
        seed, num_devices=num_devices, horizon_s=n_vectors / 100.0,
        n_transient=1, n_data_corruption=1, n_tensor_bitflip=1,
        corruption_prob=0.6,
    )
    cfg = ServeConfig(
        queue_capacity=64, faults=plan, sharded=sharded,
        integrity=IntegrityConfig(mode=mode, **integ_kw),
    )
    params = WorkloadParams(
        vector_size=8, tensor_size=64, repeated_rate=0.6,
        num_vectors=n_vectors, batch=2,
    )
    vectors = SyntheticWorkload(params, seed=seed).vectors()
    return serve(
        cfg, cluster=cluster,
        scheduler=MiccoScheduler(ReuseBounds(0, 4, 0)),
        vectors=vectors, arrivals=PoissonArrivals(100.0), seed=seed,
    )


class TestEndToEnd:
    def test_acceptance_spot_mode(self):
        """The ISSUE's acceptance bar on a seeded spot-mode chaos run."""
        it = chaos_result("spot").integrity
        assert it is not None and it["mode"] == "spot"
        assert it["injected"] >= 2
        assert it["detection_rate"] >= 0.9
        assert it["detected"] == it["repaired"] + it["flagged"]
        assert it["escaped"] == 0  # zero corrupt results reported
        assert it["blame"]["quarantined"]  # the corruptor was retired
        assert any(t["to"] == "quarantined" for t in it["blame"]["transitions"])

    def test_integrity_off_reports_nothing(self):
        assert chaos_result("off").integrity is None

    def test_suspect_full_audits_at_least_as_much_as_spot(self):
        spot = chaos_result("spot").integrity
        full = chaos_result("suspect-full").integrity
        assert full["audited_pairs"] >= spot["audited_pairs"]
        assert full["detection_rate"] >= 0.9
        assert full["detected"] == full["repaired"] + full["flagged"]

    def test_sharded_mode_detects_and_reports(self):
        result = chaos_result("spot", sharded=True, seed=1)
        it = result.integrity
        assert it is not None
        assert it["detected"] > 0
        assert it["detected"] == it["repaired"] + it["flagged"]
        assert it["escaped"] == 0
        assert result.summary()["integrity"]["mode"] == "spot"

    def test_fixed_seed_replays_byte_identical(self):
        import json

        a = chaos_result("spot").summary()
        b = chaos_result("spot").summary()
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_tight_budget_degrades_to_flagging_not_storms(self):
        it = chaos_result("spot", audit_budget_frac=0.01).integrity
        assert it["audit_overhead_frac"] <= 0.011
        assert it["detected"] == it["repaired"] + it["flagged"]

    def test_serve_config_v7_round_trip(self, tmp_path):
        import json

        cfg = ServeConfig(integrity=IntegrityConfig(mode="spot", audit_fraction=0.1))
        path = tmp_path / "v7.json"
        cfg.to_json(path)
        on_disk = json.loads(path.read_text())
        assert on_disk["version"] == 8
        assert on_disk["integrity"]["mode"] == "spot"
        assert ServeConfig.from_json(path) == cfg

    @pytest.mark.parametrize("version", range(1, ServeConfig.CONFIG_VERSION + 1))
    def test_integrity_key_rejected_in_older_files(self, tmp_path, version):
        """A version-N file rejects every field newer than N (the
        ``integrity`` block before 7 among them) and accepts the rest."""
        import dataclasses
        import json

        path = tmp_path / "old.json"
        defaults = ServeConfig().to_dict()
        for f in dataclasses.fields(ServeConfig):
            value = {"mode": "spot"} if f.name == "integrity" else defaults[f.name]
            path.write_text(json.dumps({"version": version, f.name: value}))
            if f.metadata.get("since", 1) > version:
                with pytest.raises(ConfigurationError, match=f"'{f.name}' needs version"):
                    ServeConfig.from_json(path)
            else:
                ServeConfig.from_json(path)

    def test_drop_reason_surfaces_in_report(self):
        """Flagged tickets shed as integrity-unverified, never reported."""
        result = chaos_result("suspect-full")
        it = result.integrity
        assert it["unverified_tickets"] > 0
        reasons = {d.reason for d in result.report.dropped}
        assert "integrity-unverified" in reasons
        flagged_ids = {
            d.vector_id for d in result.report.dropped
            if d.reason == "integrity-unverified"
        }
        completed_ids = {r.vector_id for r in result.report.completed}
        assert not flagged_ids & completed_ids  # shed means never reported
