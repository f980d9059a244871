"""Unit tests for the trace recorder."""

import gc
import json
import math
import tracemalloc

import pytest

from repro.errors import ConfigurationError
from repro.gpusim.costmodel import CostModel
from repro.gpusim.engine import ExecutionEngine
from repro.gpusim.trace import (
    _CHUNK_ROWS,
    EVENT_KINDS,
    FullSink,
    NullSink,
    SamplingSink,
    TraceConfig,
    TraceEvent,
    TraceRecorder,
    TraceSink,
)
from tests.conftest import make_cluster, make_vector


def traced_run(n_pairs=4, assignment=None):
    cluster = make_cluster()
    trace = TraceRecorder()
    engine = ExecutionEngine(cluster, CostModel(), trace=trace)
    v = make_vector(n_pairs=n_pairs)
    engine.execute_vector(v, assignment or [i % 2 for i in range(n_pairs)])
    return trace, v


class TestRecorder:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            TraceRecorder().record("dma", 0, 1.0)

    def test_device_clock_serializes_events(self):
        tr = TraceRecorder()
        tr.record("alloc", 0, 1.0)
        tr.record("kernel", 0, 2.0)
        tr.record("alloc", 1, 5.0)
        a, k, other = tr.events
        assert a.end_s == k.start_s
        assert other.start_s == 0.0  # devices have independent clocks

    def test_negative_duration_rejected_and_lane_clock_kept(self):
        # A negative duration would run the lane clock backwards, so the
        # next event would overlap the ones already on the lane.
        tr = TraceRecorder()
        tr.record("kernel", 0, 1.0)
        with pytest.raises(ValueError, match="duration must be >= 0"):
            tr.record("kernel", 0, -0.5)
        tr.record("kernel", 0, 0.1)
        first, last = tr.events
        assert last.start_s == first.end_s == 1.0

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_duration_rejected_and_lane_clock_kept(self, bad):
        # NaN fails no "< 0" test; unless rejected it would turn the lane
        # clock NaN for every later event.
        tr = TraceRecorder()
        tr.record("kernel", 0, 1.0)
        with pytest.raises(ValueError, match="duration must be >= 0 and finite"):
            tr.record("kernel", 0, bad)
        tr.record("kernel", 0, 0.1)
        first, last = tr.events
        assert last.start_s == first.end_s == 1.0

    def test_clear(self):
        tr = TraceRecorder()
        tr.record("alloc", 0, 1.0)
        tr.clear()
        assert len(tr) == 0
        tr.record("alloc", 0, 1.0)
        assert tr.events[0].start_s == 0.0


class TestEngineIntegration:
    def test_kernel_per_pair(self):
        trace, v = traced_run(n_pairs=4)
        assert len(trace.events_of("kernel")) == 4

    def test_fetch_events_match_counters(self):
        trace, v = traced_run(n_pairs=3)
        h2d = trace.events_of("h2d")
        assert len(h2d) == 6  # all inputs fresh

    def test_summary_by_device(self):
        trace, _ = traced_run(n_pairs=4)
        summary = trace.summary_by_device()
        assert set(summary) == {0, 1}
        for dev in summary.values():
            assert dev["kernel"] > 0
            assert dev["events"] > 0

    def test_chrome_trace_schema(self, tmp_path):
        trace, _ = traced_run(n_pairs=2)
        path = tmp_path / "trace.json"
        trace.save_chrome_trace(path)
        payload = json.loads(path.read_text())
        events = payload["traceEvents"]
        assert events
        for e in events:
            assert e["ph"] == "X"
            assert e["dur"] >= 0
            assert e["tid"] in (0, 1)

    def test_records_roundtrip(self):
        trace, _ = traced_run(n_pairs=2)
        recs = trace.to_records()
        assert len(recs) == len(trace)
        assert {"kind", "device", "start_s", "duration_s"} <= set(recs[0])


class TestRecordAt:
    def test_explicit_start_and_clock_advance(self):
        tr = TraceRecorder()
        tr.record_at("wait", 0, 5.0, 1.0)
        tr.record("kernel", 0, 2.0)
        wait, kernel = tr.events
        assert wait.start_s == 5.0 and wait.end_s == 6.0
        assert kernel.start_s == 6.0  # clock advanced past record_at's end

    def test_does_not_rewind_clock(self):
        tr = TraceRecorder()
        tr.record("kernel", 0, 10.0)
        tr.record_at("wait", 0, 1.0, 2.0)
        tr.record("alloc", 0, 1.0)
        assert tr.events[-1].start_s == 10.0

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            TraceRecorder().record_at("dma", 0, 0.0, 1.0)

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            TraceRecorder().record_at("wait", 0, 0.0, -1.0)

    @pytest.mark.parametrize(
        "start, duration",
        [(math.nan, 1.0), (math.inf, 0.0), (-math.inf, 1.0), (1.0, math.nan), (1.0, math.inf)],
        ids=["nan-start", "inf-start", "minus-inf-start", "nan-duration", "inf-duration"],
    )
    def test_non_finite_times_rejected_and_lane_clock_kept(self, tmp_path, start, duration):
        tr = TraceRecorder()
        tr.record_at("wait", 0, 2.0, 1.0)
        with pytest.raises(ValueError, match="start must be finite and duration >= 0 and finite"):
            tr.record_at("wait", 0, start, duration)
        tr.record("kernel", 0, 0.5)
        assert tr.events[-1].start_s == 3.0
        # The file is strict JSON: no NaN/Infinity tokens.
        path = tmp_path / "t.json"
        tr.save_chrome_trace(path)
        json.loads(path.read_text(), parse_constant=lambda token: pytest.fail(token))

    def test_serve_kinds_accepted(self):
        tr = TraceRecorder()
        for kind in ("wait", "schedule", "execute"):
            tr.record_at(kind, 1, 0.0, 0.5)
        assert len(tr) == 3


class TestEventOrdering:
    def test_per_device_events_contiguous_and_monotonic(self):
        """Engine events on one device tile the device's busy timeline."""
        trace, _ = traced_run(n_pairs=4)
        for dev in (0, 1):
            events = [e for e in trace.events if e.device == dev]
            assert events, "both devices ran pairs"
            assert events[0].start_s == 0.0
            for a, b in zip(events, events[1:]):
                assert b.start_s == pytest.approx(a.end_s)

    def test_order_preserved_in_exports(self):
        trace, _ = traced_run(n_pairs=3)
        records = trace.to_records()
        chrome = trace.to_chrome_trace()
        assert [r["kind"] for r in records] == [e.kind for e in trace.events]
        assert [c["ts"] for c in chrome] == [e.start_s * 1e6 for e in trace.events]


class TestSinks:
    def test_full_sink_is_default(self):
        tr = TraceRecorder()
        assert isinstance(tr.sink, FullSink)
        assert tr.sink.keep("kernel", 0)

    def test_null_sink_keeps_nothing_but_advances_clock(self):
        tr = TraceRecorder(NullSink())
        tr.record("alloc", 0, 1.0)
        tr.record("kernel", 0, 2.0)
        assert len(tr) == 0
        # Clock bookkeeping is independent of what is kept: the next
        # kept event (after a sink swap) starts where the run left off.
        tr.sink = FullSink()
        tr.record("kernel", 0, 1.0)
        assert tr.events[0].start_s == pytest.approx(3.0)

    def test_sampling_sink_deterministic_thinning(self):
        tr = TraceRecorder(SamplingSink(stride=3))
        for _ in range(9):
            tr.record("kernel", 0, 1.0)
        assert len(tr) == 3
        assert [e.start_s for e in tr.events] == [0.0, 3.0, 6.0]

    def test_sampling_stride_one_keeps_everything(self):
        tr = TraceRecorder(SamplingSink(stride=1))
        for _ in range(5):
            tr.record("kernel", 0, 1.0)
        assert len(tr) == 5

    def test_sampling_bad_stride_rejected(self):
        with pytest.raises(ConfigurationError):
            SamplingSink(stride=0)

    @pytest.mark.parametrize("bad", [2.5, 4.0, True, math.nan, "4"])
    def test_sampling_stride_must_be_an_int(self, bad):
        with pytest.raises(ConfigurationError, match="stride must be an int >= 1"):
            SamplingSink(stride=bad)

    def test_sampling_sink_never_drops_integrity_or_fault_lanes(self):
        """fault/audit/taint/blame events are each individually
        meaningful; a sampled trace must keep every one of them."""
        from repro.gpusim.trace import ALWAYS_KEPT_KINDS

        tr = TraceRecorder(SamplingSink(stride=1000))
        kinds = sorted(ALWAYS_KEPT_KINDS)
        assert kinds == ["audit", "blame", "fault", "taint"]
        for _ in range(5):
            for kind in kinds:
                tr.record(kind, 0, 0.0)
            tr.record("kernel", 0, 1.0)
        kept = [e.kind for e in tr.events]
        for kind in kinds:
            assert kept.count(kind) == 5

    def test_always_kept_kinds_do_not_perturb_thinning(self):
        """The bypass must not advance the stride counter: the thinned
        subset of the other kinds is identical however many fault or
        integrity events interleave with them."""
        plain = TraceRecorder(SamplingSink(stride=3))
        noisy = TraceRecorder(SamplingSink(stride=3))
        for i in range(9):
            plain.record("kernel", 0, 1.0)
            noisy.record("fault", 0, 0.0)
            noisy.record("kernel", 0, 1.0)
            noisy.record("audit", 1, 0.0)
        assert [e.start_s for e in plain.events if e.kind == "kernel"] == [
            e.start_s for e in noisy.events if e.kind == "kernel"
        ]

    def test_sinks_satisfy_protocol(self):
        for sink in (FullSink(), NullSink(), SamplingSink()):
            assert isinstance(sink, TraceSink)

    def test_engine_run_with_sampling_sink(self):
        cluster = make_cluster()
        trace = TraceRecorder(SamplingSink(stride=2))
        engine = ExecutionEngine(cluster, CostModel(), trace=trace)
        full_cluster = make_cluster()
        full = TraceRecorder()
        full_engine = ExecutionEngine(full_cluster, CostModel(), trace=full)
        v = make_vector(n_pairs=4)
        assignment = [i % 2 for i in range(4)]
        engine.execute_vector(v, assignment)
        full_engine.execute_vector(v, assignment)
        # Every other event of the full stream, in order.
        assert [e.kind for e in trace.events] == [
            e.kind for e in full.events[::2]
        ]


def _spill_events(n: int) -> list[TraceEvent]:
    """``n`` distinct events with empty, ASCII and non-ASCII labels."""
    labels = ("", "v7", "ψ→χ ünï", "round 3: v[1, 2]")
    return [
        TraceEvent(EVENT_KINDS[i % len(EVENT_KINDS)], i % 5 - 2, 0.5 * i, 0.25, i - 1, 3 * i, labels[i % 4] * (i % 3))
        for i in range(n)
    ]


def _record_all(tr: TraceRecorder, events) -> None:
    for e in events:
        tr.record_at(e.kind, e.device, e.start_s, e.duration_s, uid=e.uid, nbytes=e.nbytes, label=e.label)


class TestSpill:
    @pytest.mark.parametrize("rows", [_CHUNK_ROWS, _CHUNK_ROWS + 1, 3 * _CHUNK_ROWS + 1])
    def test_round_trip(self, tmp_path, rows):
        expected = _spill_events(rows)
        tr = TraceRecorder()
        _record_all(tr, expected)
        assert len(tr) == rows
        # One chunk stays in memory: a file opens only past it.
        assert (tr._file is None) == (rows <= _CHUNK_ROWS)
        assert tr.events == expected
        assert tr.events == expected  # reading again reads the same rows
        assert tr.events_of("kernel") == [e for e in expected if e.kind == "kernel"]
        path = tmp_path / "trace.json"
        tr.save_chrome_trace(path)
        assert path.read_bytes() == json.dumps({"traceEvents": tr.to_chrome_trace()}).encode()

    def test_reads_while_recording_continues(self):
        expected = _spill_events(3 * _CHUNK_ROWS + 7)
        tr = TraceRecorder()
        for cut in (10, _CHUNK_ROWS + 3, 2 * _CHUNK_ROWS, len(expected)):
            _record_all(tr, expected[len(tr):cut])
            assert tr.events == expected[:cut]
        # A read that is under way sees the rows recorded before it began,
        # even when later rows spill and reuse the in-memory chunk.
        tr.clear()
        _record_all(tr, expected[: _CHUNK_ROWS + 5])
        rows = tr._unpacked()
        first = [next(rows) for _ in range(3)]
        _record_all(tr, expected[_CHUNK_ROWS + 5 :])
        seen = [TraceEvent(*row) for row in (*first, *rows)]
        assert seen == expected[: _CHUNK_ROWS + 5]
        assert tr.events == expected

    def test_clear_closes_file_and_recorder_is_reusable(self):
        tr = TraceRecorder()
        _record_all(tr, _spill_events(2 * _CHUNK_ROWS))
        fh = tr._file
        assert fh is not None and not fh.closed
        tr.clear()
        assert fh.closed and tr._file is None and len(tr) == 0 and tr.events == []
        again = _spill_events(_CHUNK_ROWS + 2)
        _record_all(tr, again)
        assert tr.events == again and not tr._file.closed

    def test_collecting_recorder_closes_file(self):
        tr = TraceRecorder()
        _record_all(tr, _spill_events(_CHUNK_ROWS + 1))
        fh = tr._file
        del tr
        gc.collect()
        assert fh.closed

    def test_null_sink_never_opens_a_file(self):
        tr = TraceRecorder(NullSink())
        for i in range(3 * _CHUNK_ROWS):
            tr.record("kernel", i % 4, 1.0)
        assert len(tr) == 0 and tr._file is None

    def test_recording_200k_events_stays_under_one_mib(self):
        tr = TraceRecorder()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for i in range(200_000):
                tr.record("kernel", i % 8, 0.5, uid=i, nbytes=64 * i, label=f"p{i % 50}")
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(tr) == 200_000
        assert grown < 2**20
        assert tr.events[-1] == TraceEvent("kernel", 7, 24_999 * 0.5, 0.5, 199_999, 64 * 199_999, "p49")


class TestTraceConfig:
    def test_defaults(self):
        cfg = TraceConfig()
        assert cfg.mode == "report"
        assert cfg.make_sink() is None

    def test_mode_sinks(self):
        assert isinstance(TraceConfig(mode="full").make_sink(), FullSink)
        sink = TraceConfig(mode="sampling", sample_stride=4).make_sink()
        assert isinstance(sink, SamplingSink)
        assert sink.stride == 4
        assert TraceConfig(mode="off").make_sink() is None

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            TraceConfig(mode="verbose")
        with pytest.raises(ConfigurationError):
            TraceConfig(sample_stride=0)

    @pytest.mark.parametrize("bad", [2.5, 16.0, True, False, math.nan, -1, None])
    def test_sample_stride_must_be_an_int(self, bad):
        with pytest.raises(ConfigurationError, match="sample_stride must be an int >= 1"):
            TraceConfig(mode="sampling", sample_stride=bad)
        with pytest.raises(ConfigurationError, match="sample_stride"):
            TraceConfig.from_dict({"mode": "sampling", "sample_stride": bad})

    def test_sample_stride_from_json_text(self):
        for text in ('{"sample_stride": 2.5}', '{"sample_stride": true}', '{"sample_stride": NaN}'):
            with pytest.raises(ConfigurationError, match="sample_stride"):
                TraceConfig.from_dict(json.loads(text))
        assert TraceConfig.from_dict(json.loads('{"sample_stride": 3}')).sample_stride == 3

    def test_round_trip(self):
        cfg = TraceConfig(mode="sampling", sample_stride=8)
        assert TraceConfig.from_dict(cfg.to_dict()) == cfg

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigurationError):
            TraceConfig.from_dict({"mode": "full", "rate": 2})
        with pytest.raises(ConfigurationError):
            TraceConfig.from_dict("full")


def _edge_events() -> list[TraceEvent]:
    """Events at the edges of every packed field, in record order."""
    return [
        TraceEvent("routing-refit", -(200_000 + 7), 0.25, 0.0, -1, 0, "refit ψ→χ"),
        TraceEvent("health", -(100_000 + 3), 1e300, 5e-324, 2**62, 2**32, "ünïcödé \"q\""),
        TraceEvent("kernel", 0, 0.0, 1.5, 0, 2**40 + 1, ""),
        TraceEvent("h2d", 2**31 - 1, 3.0, 2.2250738585072014e-308, -(2**63), 2**63 - 1, "t\n"),
        TraceEvent("fault", -1, 7.125, 0.0, 12, 0, "device lost"),
    ]


class TestPackedStorage:
    N = 50_000

    def test_recording_costs_at_most_64_bytes_per_event(self):
        # A packed row plus its label reference costs 45 B; the bound
        # leaves room for the label list's over-allocation.
        tr = TraceRecorder()
        label = "pair"
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for i in range(self.N):
                tr.record("kernel", i % 8, 1e-6 * (i % 13), uid=100_000 + i, nbytes=4096 * i, label=label)
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(tr) == self.N
        assert grown / self.N <= 64

    def test_streamed_export_peak_stays_under_one_mib(self, tmp_path):
        tr = TraceRecorder()
        for i in range(self.N):
            tr.record_at("execute", i % 64, 1e-3 * i, 1e-4, uid=i, nbytes=i, label=f"v{i % 97}")
        path = tmp_path / "trace.json"
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tr.save_chrome_trace(path)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert len(json.loads(path.read_text())["traceEvents"]) == self.N

    def test_edge_values_round_trip_exactly(self):
        expected = _edge_events()
        tr = TraceRecorder()
        for e in expected:
            tr.record_at(e.kind, e.device, e.start_s, e.duration_s, uid=e.uid, nbytes=e.nbytes, label=e.label)
        # A running-clock event lands right after the lane's last end.
        tr.record("evict", 0, 0.0, uid=-1)
        expected.append(TraceEvent("evict", 0, 1.5, 0.0, -1, 0, ""))
        assert tr.events == expected
        assert tr.events_of("health") == [expected[1]]
        assert tr.events_of("drain") == []
        assert tr.to_chrome_trace() == [
            {
                "name": e.kind + (f" {e.label}" if e.label else ""),
                "cat": e.kind,
                "ph": "X",
                "ts": e.start_s * 1e6,
                "dur": e.duration_s * 1e6,
                "pid": 0,
                "tid": e.device,
                "args": {"uid": e.uid, "nbytes": e.nbytes},
            }
            for e in expected
        ]
        summary: dict = {}
        for e in expected:
            dev = summary.setdefault(e.device, {k: 0.0 for k in EVENT_KINDS} | {"events": 0})
            dev[e.kind] += e.duration_s
            dev["events"] += 1
        assert tr.summary_by_device() == summary
        assert tr.to_records() == [vars(e) for e in expected]

    @pytest.mark.parametrize("rows", [_CHUNK_ROWS, _CHUNK_ROWS + 1])
    def test_chunk_boundaries(self, rows):
        tr = TraceRecorder()
        assert len(tr._chunk) == 0  # storage is allocated on the first row
        for i in range(rows):
            tr.record_at("kernel", i % 3, float(i), 0.5, uid=i, nbytes=2 * i, label=str(i))
        assert len(tr) == rows
        # One full chunk stays in memory; only a row past it spills.
        assert len(tr._ends) == (rows - 1) // _CHUNK_ROWS
        assert tr.events == [
            TraceEvent("kernel", i % 3, float(i), 0.5, i, 2 * i, str(i)) for i in range(rows)
        ]
        tr.clear()
        assert len(tr) == 0 and tr.events == [] and len(tr._chunk) == 0 and tr._file is None
        tr.record("alloc", 0, 1.0)
        assert tr.events == [TraceEvent("alloc", 0, 0.0, 1.0)]

    def test_rejected_row_leaves_storage_consistent(self):
        tr = TraceRecorder()
        with pytest.raises(ValueError, match="lane"):
            tr.record("kernel", 2**40, 1.0)  # lane does not fit a row
        tr.record("kernel", 0, 1.0)
        assert tr.events == [TraceEvent("kernel", 0, 0.0, 1.0)]

    def test_unpackable_row_leaves_lane_clock(self):
        tr = TraceRecorder()
        tr.record("kernel", 0, 1.0)
        with pytest.raises(ValueError, match="nbytes"):
            tr.record("kernel", 0, 1.0, nbytes=2**63)
        with pytest.raises(ValueError, match="uid"):
            tr.record("kernel", 0, 1.0, uid=-(2**63) - 1)
        tr.record("kernel", 0, 1.0)
        assert [e.start_s for e in tr.events] == [0.0, 1.0]
        with pytest.raises(ValueError, match="lane"):
            tr.record_at("kernel", 2**31, 0.0, 5.0)
        with pytest.raises(ValueError, match="nbytes"):
            tr.record_at("kernel", 0, 7.0, 5.0, nbytes=2.5)
        assert tr._device_clock == {0: 2.0}
        assert len(tr) == 2

    @pytest.mark.parametrize("case", ["empty", "one", "mixed"])
    def test_streamed_file_equals_json_dumps(self, tmp_path, case):
        tr = TraceRecorder()
        if case == "one":
            tr.record("kernel", 1, 0.25, uid=3, nbytes=64, label="ψ")
        elif case == "mixed":
            for e in _edge_events():
                tr.record_at(e.kind, e.device, e.start_s, e.duration_s, uid=e.uid, nbytes=e.nbytes, label=e.label)
            traced, _ = traced_run(n_pairs=3)
            for e in traced.events:
                tr.record(e.kind, e.device, e.duration_s, uid=e.uid, nbytes=e.nbytes, label=e.label)
        path = tmp_path / "trace.json"
        tr.save_chrome_trace(path)
        assert path.read_bytes() == json.dumps({"traceEvents": tr.to_chrome_trace()}).encode()

    def test_sink_swap_takes_effect(self):
        tr = TraceRecorder()
        tr.record("kernel", 0, 1.0)
        tr.sink = NullSink()
        tr.record("kernel", 0, 1.0)
        tr.sink = FullSink()
        tr.record("kernel", 0, 1.0)
        assert [e.start_s for e in tr.events] == [0.0, 2.0]
