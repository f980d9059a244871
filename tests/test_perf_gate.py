"""tools/perf_gate.py: the throughput gauges, including the gray run."""

import importlib.util
from pathlib import Path

spec = importlib.util.spec_from_file_location(
    "perf_gate", Path(__file__).resolve().parents[1] / "tools" / "perf_gate.py"
)
perf_gate = importlib.util.module_from_spec(spec)
spec.loader.exec_module(perf_gate)


def payload(events_per_cal=100.0, gray=None):
    throughput = {
        "fast": {"events_per_s_wall": 1000.0, "peak_rss_mib": 60.0},
        "events_per_cal": events_per_cal,
    }
    if gray is not None:
        throughput["gray"] = {"events_per_cal": gray}
    return {"throughput": throughput}


class TestGrayGauge:
    def test_within_tolerance_passes(self):
        assert perf_gate.check(payload(gray=90.0), payload(gray=100.0), 0.2) == []

    def test_drop_beyond_tolerance_fails(self):
        failures = perf_gate.check(payload(gray=70.0), payload(gray=100.0), 0.2)
        assert len(failures) == 1 and failures[0].startswith("gray events per calibration loop")

    def test_baseline_without_gray_passes_with_a_note(self, capsys):
        assert perf_gate.check(payload(gray=10.0), payload(), 0.2) == []
        assert "no gray.events_per_cal" in capsys.readouterr().out

    def test_fresh_payload_must_carry_the_gray_run(self):
        assert perf_gate.check(payload(), payload(gray=100.0), 0.2) == [
            "fresh throughput section has no gray run"
        ]
