"""Unit tests for the residency journal (warm-restore substrate)."""

import json

import pytest

from repro.errors import ConfigurationError
from repro.faults import ResidencyJournal


class TestRecording:
    def test_entries_are_stamped_with_the_advanced_clock(self):
        j = ResidencyJournal()
        j.advance(1.5)
        j.note_put(7, 0, 1024)
        j.note_drop(7, 0)
        assert j.entries() == [
            {"op": "put", "time_s": 1.5, "uid": 7, "device": 0, "nbytes": 1024},
            {"op": "drop", "time_s": 1.5, "uid": 7, "device": 0, "nbytes": 0,
             "reason": "evict"},
        ]
        assert len(j) == 2 and j.total_recorded == 2

    def test_drop_reason_validated(self):
        j = ResidencyJournal()
        with pytest.raises(ConfigurationError, match="drop reason"):
            j.note_drop(1, 0, "misplaced")

    def test_clock_never_goes_backwards(self):
        j = ResidencyJournal()
        j.advance(2.0)
        j.advance(1.0)
        assert j.now == 2.0

    def test_capacity_bounds_the_ring(self):
        j = ResidencyJournal(capacity=3)
        for uid in range(5):
            j.note_put(uid, 0, 8)
        assert len(j) == 3
        assert [e["uid"] for e in j.entries()] == [2, 3, 4]  # oldest rotated out
        assert j.total_recorded == 5  # counter survives rotation

    def test_capacity_validated(self):
        with pytest.raises(ConfigurationError):
            ResidencyJournal(capacity=0)


class TestHotTensors:
    def test_ranked_by_put_count_then_recency(self):
        j = ResidencyJournal()
        j.advance(1.0)
        j.note_put(1, 0, 100)
        j.note_put(2, 0, 200)
        j.advance(2.0)
        j.note_put(1, 1, 100)  # uid 1: two puts
        j.note_put(3, 0, 300)  # uid 3: one put, most recent
        assert j.hot_tensors() == [(1, 100), (3, 300), (2, 200)]

    def test_drops_do_not_count_toward_hotness(self):
        j = ResidencyJournal()
        j.note_put(1, 0, 100)
        j.note_drop(1, 0, "lost")  # involuntary: stays ranked
        j.note_put(2, 0, 200)
        j.note_put(2, 1, 200)
        assert [uid for uid, _ in j.hot_tensors()] == [2, 1]

    def test_drained_never_reput_is_not_ranked(self):
        # A drain is an explicit this-data-is-finished free (completed
        # outputs): never ranked again unless re-put.
        j = ResidencyJournal()
        j.note_put(1, 0, 100)
        j.note_drop(1, 0, "drain")
        j.note_put(2, 0, 200)
        assert [uid for uid, _ in j.hot_tensors()] == [2]

    def test_evicted_tensor_stays_ranked(self):
        # Capacity eviction is a pressure signal, not a cold signal:
        # the evicted tensor is still a prewarm candidate.
        j = ResidencyJournal()
        j.note_put(1, 0, 100)
        j.note_drop(1, 0, "evict")
        assert [uid for uid, _ in j.hot_tensors()] == [1]

    def test_reput_after_drain_restores_ranking(self):
        j = ResidencyJournal()
        j.note_put(1, 0, 100)
        j.note_drop(1, 0, "drain")
        j.note_put(1, 1, 100)  # wanted again: back in the hot set
        assert [uid for uid, _ in j.hot_tensors()] == [1]

    def test_migrated_tensor_stays_ranked(self):
        # A d2d migration puts on the destination *then* drops the
        # source copy; the trailing drop must not read as "finished".
        j = ResidencyJournal()
        j.note_put(1, 1, 100)  # copy lands on the destination
        j.note_drop(1, 0, "migrate")  # source copy freed
        assert [uid for uid, _ in j.hot_tensors()] == [1]

    def test_lost_tensors_stay_ranked_for_warm_restore(self):
        j = ResidencyJournal()
        j.note_put(1, 0, 100)
        j.note_put(1, 1, 100)
        j.note_drop(1, 0, "lost")
        j.note_drop(1, 1, "lost")
        assert j.hot_tensors() == [(1, 100)]

    def test_empty_journal_has_no_hot_set(self):
        assert ResidencyJournal().hot_tensors() == []


class TestRestoreAccounting:
    def test_note_restore_accumulates(self):
        j = ResidencyJournal()
        j.note_restore(3, tensors=4, cost_s=0.25)
        j.note_restore(5, tensors=2, cost_s=0.5)
        s = j.summary()
        assert s["restores"] == 2
        assert s["prewarmed_tensors"] == 6
        assert s["prewarm_cost_s"] == pytest.approx(0.75)


class TestPersistence:
    def test_json_round_trip(self, tmp_path):
        j = ResidencyJournal(capacity=16)
        j.advance(0.5)
        j.note_put(1, 0, 100)
        j.note_drop(1, 0)
        j.note_restore(2, tensors=1, cost_s=0.1)
        path = tmp_path / "journal.json"
        j.to_json(path)
        back = ResidencyJournal.from_json(path)
        assert back.entries() == j.entries()
        assert back.capacity == 16
        assert back.summary() == j.summary()

    def test_from_json_rejects_non_object(self, tmp_path):
        path = tmp_path / "journal.json"
        path.write_text(json.dumps([1, 2, 3]))
        with pytest.raises(ConfigurationError):
            ResidencyJournal.from_json(path)

    def test_from_json_rejects_unknown_op(self, tmp_path):
        path = tmp_path / "journal.json"
        path.write_text(
            json.dumps({"log": [{"op": "swap", "time_s": 0.0, "uid": 1, "device": 0}]})
        )
        with pytest.raises(ConfigurationError, match="unknown op"):
            ResidencyJournal.from_json(path)

    def test_from_json_rejects_missing_fields(self, tmp_path):
        path = tmp_path / "journal.json"
        path.write_text(json.dumps({"log": [{"op": "put", "uid": 1}]}))
        with pytest.raises(ConfigurationError, match="entry 0"):
            ResidencyJournal.from_json(path)

    def test_from_json_coerces_numeric_strings(self, tmp_path):
        # The writers pass ints straight through; the reader is where a
        # non-int can enter, so it coerces.
        path = tmp_path / "journal.json"
        path.write_text(json.dumps({"log": [
            {"op": "put", "time_s": 0.0, "uid": "3", "device": "1", "nbytes": "64"},
            {"op": "drop", "time_s": 0.1, "uid": 3.0, "device": 1, "reason": "drain"},
        ]}))
        entries = ResidencyJournal.from_json(path).entries()
        assert [(e["uid"], e["device"], e["nbytes"]) for e in entries] == [(3, 1, 64), (3, 1, 0)]
        assert all(type(e[k]) is int for e in entries for k in ("uid", "device", "nbytes"))


class TestChaosRunJournal:
    def test_entries_are_plain_ints_and_round_trip(self, monkeypatch, tmp_path):
        from repro.serve import server as server_mod
        from tests import golden_modes

        made = []

        class Recorded(ResidencyJournal):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                made.append(self)

        monkeypatch.setattr(server_mod, "ResidencyJournal", Recorded)
        golden_modes.run("single-chaos", 12)  # warm restore under faults
        (journal,) = made
        raw = list(journal._entries)
        ops = {e[0] for e in raw}
        assert ops == {"put", "drop"} and journal.restores >= 1
        for _op, t, uid, device, nbytes, reason in raw:
            assert type(t) is float
            assert type(uid) is int and type(device) is int and type(nbytes) is int
            assert type(reason) is str
        path = tmp_path / "journal.json"
        journal.to_json(path)
        back = ResidencyJournal.from_json(path)
        assert list(back._entries) == raw
        assert back.entries() == journal.entries()
        assert back.summary() == journal.summary()
