"""Unit tests for the latency SLO report."""

import json
import math
from dataclasses import asdict

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.serve.slo import LatencyReport, VectorLatency
from repro.serve.timeline import Ticket
from tests.conftest import make_vector


def completed_ticket(vector_id=0, arrival=0.0, dispatch=1.0, sched=1.5, complete=3.0, devices=(0,)):
    t = Ticket(vector=make_vector(n_pairs=2, vector_id=vector_id), arrival_s=arrival)
    t.dispatch_s = dispatch
    t.sched_done_s = sched
    t.complete_s = complete
    t.devices = list(devices)
    return t


def report_with(latencies):
    """Report of vectors completing exactly ``latencies`` after arrival."""
    rep = LatencyReport()
    for i, lat in enumerate(latencies):
        rep.add_completion(
            completed_ticket(vector_id=i, arrival=0.0, dispatch=0.0, sched=0.0, complete=lat)
        )
    return rep


class TestVectorLatency:
    def test_breakdown_sums_to_total(self):
        rep = LatencyReport()
        rec = rep.add_completion(completed_ticket())
        assert rec.queue_wait_s == pytest.approx(1.0)
        assert rec.schedule_s == pytest.approx(0.5)
        assert rec.execute_s == pytest.approx(1.5)
        assert rec.latency_s == pytest.approx(
            rec.queue_wait_s + rec.schedule_s + rec.execute_s
        )


class TestPercentiles:
    def test_known_values(self):
        rep = report_with([float(i) for i in range(1, 101)])
        assert rep.p50 == pytest.approx(50.5)
        assert rep.percentile(100) == pytest.approx(100.0)
        assert rep.p99 <= 100.0

    def test_empty_is_nan(self):
        rep = LatencyReport()
        assert math.isnan(rep.p50) and math.isnan(rep.mean_latency_s)

    def test_out_of_range_rejected(self):
        with pytest.raises(ConfigurationError):
            report_with([1.0]).percentile(101)


class TestAggregates:
    def test_drop_rate(self):
        rep = report_with([1.0, 2.0])
        rep.add_drop(completed_ticket(vector_id=9))
        assert rep.offered == 3
        assert rep.drop_rate == pytest.approx(1 / 3)

    def test_empty_drop_rate_zero(self):
        assert LatencyReport().drop_rate == 0.0

    def test_throughput_timeline(self):
        rep = report_with([0.5, 1.5, 1.7, 2.5])
        windows = rep.throughput_timeline(1.0)
        assert [w["completions"] for w in windows] == [1, 2, 1]
        assert windows[1]["rate"] == pytest.approx(2.0)
        assert windows[-1]["t_end_s"] == pytest.approx(3.0)

    def test_throughput_empty(self):
        assert LatencyReport().throughput_timeline(1.0) == []

    def test_throughput_bad_window(self):
        with pytest.raises(ConfigurationError):
            report_with([1.0]).throughput_timeline(0.0)

    def test_summary_keys(self):
        s = report_with([1.0, 3.0]).summary()
        assert {
            "offered", "completed", "dropped", "drop_rate",
            "p50_s", "p95_s", "p99_s", "mean_latency_s",
            "mean_queue_wait_s", "makespan_s", "throughput_vps",
        } <= set(s)
        assert s["completed"] == 2
        assert s["throughput_vps"] == pytest.approx(2 / 3.0)


class TestExports:
    def test_json_roundtrip(self, tmp_path):
        rep = report_with([1.0, 2.0])
        rep.add_drop(completed_ticket(vector_id=5))
        path = tmp_path / "report.json"
        rep.to_json(path, extra={"config": {"rate": 10.0}})
        payload = json.loads(path.read_text())
        assert payload["summary"]["completed"] == 2
        assert len(payload["completed"]) == 2
        assert len(payload["dropped"]) == 1
        assert payload["config"]["rate"] == 10.0

    def test_to_trace_spans(self, tmp_path):
        rep = LatencyReport()
        rep.add_completion(completed_ticket(vector_id=3))
        trace = rep.to_trace()
        kinds = [e.kind for e in trace.events]
        assert kinds == ["wait", "schedule", "execute"]
        wait, sched, execute = trace.events
        assert wait.end_s == pytest.approx(sched.start_s)
        assert sched.end_s == pytest.approx(execute.start_s)
        assert all(e.device == 3 for e in trace.events)
        trace.save_chrome_trace(tmp_path / "t.json")
        assert json.loads((tmp_path / "t.json").read_text())["traceEvents"]


def _varied_report():
    """A report over mixed tenants, rounds and device sets, plus the
    records ``add_completion`` returned, in order."""
    rep = LatencyReport()
    records = []
    for i in range(23):
        t = completed_ticket(
            vector_id=100 + i,
            arrival=0.1 * i,
            dispatch=0.1 * i + 0.03 * (i % 4),
            sched=0.1 * i + 0.03 * (i % 4) + 0.07 * (i % 5) + 0.01,
            complete=0.1 * i + 0.5 + 0.013 * (i % 7),
            devices=tuple(range(i % 4)),
        )
        t.tenant = (None, "alpha", "βeta")[i % 3]
        t.round_id = None if i % 5 == 0 else i // 3
        t.round_size = 1 + i % 3
        records.append(rep.add_completion(t))
        if i % 6 == 0:
            d = completed_ticket(vector_id=900 + i, arrival=0.1 * i)
            d.tenant = t.tenant
            rep.add_drop(d, reason="queue-full")
    return rep, records


def _old_aggregates(records):
    """The aggregates as computed over a list of record objects."""
    rounds: dict[int, int] = {}
    for r in records:
        if r.round_id is not None:
            rounds[r.round_id] = max(rounds.get(r.round_id, 0), r.round_size)
    return {
        "latencies": np.array([r.latency_s for r in records]),
        "mean_queue_wait_s": float(np.mean([r.queue_wait_s for r in records])),
        "makespan_s": max((r.complete_s for r in records), default=0.0),
        "rounds": len(rounds),
        "batched_rounds": sum(1 for size in rounds.values() if size > 1),
        "mean_round_vectors": sum(rounds.values()) / len(rounds),
        "max_round_vectors": max(rounds.values()),
        "amortized_schedule_s": float(np.mean([r.schedule_s / r.round_size for r in records])),
    }


class TestPackedCompletions:
    def test_completed_renders_the_returned_records(self):
        rep, records = _varied_report()
        assert rep.completed == records
        assert list(rep.completed) == records
        assert [rep.completed[i] for i in range(len(records))] == records
        assert rep.completed[-1] == records[-1]
        assert rep.completed[3:9:2] == records[3:9:2]
        assert len(rep.completed) == 23
        with pytest.raises(IndexError):
            rep.completed[23]
        assert rep.completed[0].devices == () and rep.completed[3].devices == (0, 1, 2)
        assert rep.completed[0].round_id is None and rep.completed[1].round_id == 0

    def test_completed_is_read_only(self):
        rep, _ = _varied_report()
        with pytest.raises(AttributeError):
            rep.completed = []
        assert not hasattr(rep.completed, "append")

    def test_aggregates_are_bit_identical_to_record_lists(self):
        rep, records = _varied_report()
        old = _old_aggregates(records)
        assert rep.latencies().tobytes() == old["latencies"].tobytes()
        s = rep.summary()
        assert s["mean_queue_wait_s"] == old["mean_queue_wait_s"]
        assert s["makespan_s"] == old["makespan_s"]
        assert s["p99_s"] == float(np.percentile(old["latencies"], 99))
        assert s["mean_latency_s"] == float(old["latencies"].mean())
        batching = s["batching"]
        for key in ("rounds", "batched_rounds", "mean_round_vectors", "max_round_vectors", "amortized_schedule_s"):
            assert batching[key] == old[key], key
            assert type(batching[key]) is type(old[key]), key

    @pytest.mark.parametrize("tenant", [None, "alpha", "βeta", "absent"])
    def test_for_tenant(self, tenant):
        rep, records = _varied_report()
        sub = rep.for_tenant(tenant)
        mine = [r for r in records if r.tenant == tenant]
        assert sub.completed == mine
        assert sub.dropped == [r for r in rep.dropped if r.tenant == tenant]
        assert sub.tenant_names() == ([] if tenant in (None, "absent") else [tenant])
        if mine:
            assert sub.latencies().tobytes() == _old_aggregates(mine)["latencies"].tobytes()
        # The sub-report is a copy: recording into it leaves the parent alone.
        sub.add_completion(completed_ticket(vector_id=7))
        assert rep.completed == records

    @pytest.mark.parametrize("t_s", [0.0, 1.05, 2.6, 99.0])
    def test_completed_after(self, t_s):
        rep, records = _varied_report()
        sub = rep.completed_after(t_s)
        assert sub.completed == [r for r in records if r.complete_s >= t_s]
        assert sub.dropped == [r for r in rep.dropped if r.arrival_s >= t_s]

    def test_tenant_names(self):
        rep, _ = _varied_report()
        assert rep.tenant_names() == ["alpha", "βeta"]

    def test_json_equals_record_dicts(self, tmp_path):
        rep, records = _varied_report()
        path = tmp_path / "report.json"
        rep.to_json(path)
        payload = json.loads(path.read_text())
        assert payload["completed"] == json.loads(json.dumps([asdict(r) for r in records]))

    def test_trace_equals_record_spans(self):
        rep, records = _varied_report()
        expected = LatencyReport()
        for r in records:
            t = completed_ticket(r.vector_id, r.arrival_s, r.dispatch_s, r.sched_done_s, r.complete_s)
            expected.add_completion(t)
        assert rep.to_trace().events == expected.to_trace().events
