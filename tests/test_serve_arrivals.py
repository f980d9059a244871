"""Unit tests for arrival processes (Poisson, bursty, trace replay)."""

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.serve.arrivals import (
    BurstyArrivals,
    PoissonArrivals,
    TraceArrivals,
    arrivals_from_dict,
)


def assert_valid_times(times, n):
    assert len(times) == n
    assert all(t >= 0 for t in times)
    assert all(b >= a for a, b in zip(times, times[1:]))


class TestPoisson:
    def test_count_and_monotonic(self):
        assert_valid_times(PoissonArrivals(10.0).arrival_times(100, seed=0), 100)

    def test_deterministic_per_seed(self):
        p = PoissonArrivals(5.0)
        assert p.arrival_times(50, seed=7) == p.arrival_times(50, seed=7)
        assert p.arrival_times(50, seed=7) != p.arrival_times(50, seed=8)

    def test_mean_rate_approximate(self):
        times = PoissonArrivals(100.0).arrival_times(4000, seed=1)
        rate = len(times) / times[-1]
        assert rate == pytest.approx(100.0, rel=0.1)

    def test_rejects_bad_rate(self):
        with pytest.raises(WorkloadError):
            PoissonArrivals(0.0)
        with pytest.raises(WorkloadError):
            PoissonArrivals(-1.0)

    def test_rejects_bad_count(self):
        with pytest.raises(WorkloadError):
            PoissonArrivals(1.0).arrival_times(0)


class TestBursty:
    def test_count_and_monotonic(self):
        b = BurstyArrivals(rate_on=50.0, rate_off=0.0, mean_on_s=0.2, mean_off_s=0.2)
        assert_valid_times(b.arrival_times(200, seed=4), 200)

    def test_deterministic_per_seed(self):
        b = BurstyArrivals(rate_on=20.0, rate_off=1.0)
        assert b.arrival_times(40, seed=2) == b.arrival_times(40, seed=2)

    def test_burstier_than_poisson(self):
        """On/off gaps give a higher inter-arrival CV than Poisson (CV=1)."""
        b = BurstyArrivals(rate_on=200.0, rate_off=0.0, mean_on_s=0.05, mean_off_s=0.5)
        gaps = np.diff(b.arrival_times(2000, seed=5))
        assert gaps.std() / gaps.mean() > 1.3

    def test_silent_off_phase_produces_gaps(self):
        b = BurstyArrivals(rate_on=1000.0, rate_off=0.0, mean_on_s=0.01, mean_off_s=1.0)
        gaps = np.diff(b.arrival_times(300, seed=6))
        assert gaps.max() > 0.1  # an OFF phase passed with no arrivals

    def test_validation(self):
        with pytest.raises(WorkloadError):
            BurstyArrivals(rate_on=0.0)
        with pytest.raises(WorkloadError):
            BurstyArrivals(rate_on=1.0, rate_off=-0.5)
        with pytest.raises(WorkloadError):
            BurstyArrivals(rate_on=1.0, mean_on_s=0.0)


class TestTrace:
    def test_replay_prefix(self):
        tr = TraceArrivals([0.0, 0.5, 1.25, 9.0])
        assert tr.arrival_times(3) == [0.0, 0.5, 1.25]
        assert len(tr) == 4

    def test_seed_ignored(self):
        tr = TraceArrivals([0.1, 0.2])
        assert tr.arrival_times(2, seed=1) == tr.arrival_times(2, seed=99)

    def test_too_many_requested(self):
        with pytest.raises(WorkloadError):
            TraceArrivals([0.1]).arrival_times(2)

    def test_validation(self):
        with pytest.raises(WorkloadError):
            TraceArrivals([])
        with pytest.raises(WorkloadError):
            TraceArrivals([-0.1, 0.2])
        with pytest.raises(WorkloadError):
            TraceArrivals([0.5, 0.1])

    def test_json_roundtrip(self, tmp_path):
        path = tmp_path / "arrivals.json"
        TraceArrivals([0.0, 0.25, 1.5]).to_json(path)
        back = TraceArrivals.from_json(path)
        assert back.times == [0.0, 0.25, 1.5]

    def test_from_json_bad_payload(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"nope": []}')
        with pytest.raises(WorkloadError):
            TraceArrivals.from_json(path)


NAN, INF = float("nan"), float("inf")


class TestNonFinite:
    """NaN passes every ordered comparison check and inf every positivity
    check; either would corrupt the serving timeline's heap order."""

    @pytest.mark.parametrize("rate", [NAN, INF])
    def test_poisson_rate(self, rate):
        with pytest.raises(WorkloadError, match="rate must be finite"):
            PoissonArrivals(rate)

    @pytest.mark.parametrize(
        "field", ["rate_on", "rate_off", "mean_on_s", "mean_off_s"]
    )
    @pytest.mark.parametrize("value", [NAN, INF])
    def test_bursty_fields(self, field, value):
        kwargs = {"rate_on": 10.0, "rate_off": 1.0, "mean_on_s": 0.1, "mean_off_s": 0.1}
        kwargs[field] = value
        with pytest.raises(WorkloadError, match=f"{field} must be finite"):
            BurstyArrivals(**kwargs)

    @pytest.mark.parametrize("value", [NAN, INF])
    def test_trace_times(self, value):
        with pytest.raises(WorkloadError, match=r"times\[1\]"):
            TraceArrivals([0.0, value, 1.0])

    @pytest.mark.parametrize(
        "spec",
        [
            {"kind": "poisson", "rate": NAN},
            {"kind": "bursty", "rate_on": 5.0, "mean_on_s": INF},
            {"kind": "trace", "times": [0.0, INF]},
        ],
    )
    def test_json_configs(self, spec):
        with pytest.raises(WorkloadError, match="must be finite"):
            arrivals_from_dict(spec)

    @pytest.mark.parametrize("value", [NAN, INF])
    def test_explicit_serve_timestamps(self, value):
        from repro.serve import ServeConfig, serve
        from tests.conftest import make_vector

        vectors = [make_vector(n_pairs=2, vector_id=i) for i in range(4)]
        with pytest.raises(WorkloadError, match="must be finite"):
            serve(ServeConfig(), vectors=vectors, arrivals=[0.0, value, 0.001, 0.002])
