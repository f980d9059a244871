"""SlidingWindowRegressor: incremental refits over a bounded window."""

from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ModelError
from repro.ml import SlidingWindowRegressor
from repro.ml.linear import LinearRegression


def feed_line(model, n, slope=2.0, intercept=1.0, start=0):
    """Feed n samples of y = slope*x + intercept."""
    for i in range(start, start + n):
        x = float(i)
        model.observe([x], slope * x + intercept)


class TestValidation:
    def test_window_too_small(self):
        with pytest.raises(ModelError, match="window"):
            SlidingWindowRegressor(window=1)

    def test_refit_interval_too_small(self):
        with pytest.raises(ModelError, match="refit_interval"):
            SlidingWindowRegressor(refit_interval=0)

    def test_min_samples_too_small(self):
        with pytest.raises(ModelError, match="min_samples"):
            SlidingWindowRegressor(min_samples=1)

    def test_min_samples_cannot_exceed_window(self):
        with pytest.raises(ModelError, match="cannot exceed"):
            SlidingWindowRegressor(window=4, min_samples=8)


class TestColdStart:
    def test_predicts_none_until_min_samples(self):
        m = SlidingWindowRegressor(min_samples=4)
        assert m.predict_one([0.0]) is None
        feed_line(m, 3)
        assert not m.fitted
        assert m.predict_one([0.0]) is None

    def test_first_fit_at_min_samples(self):
        m = SlidingWindowRegressor(min_samples=4, refit_interval=16)
        feed_line(m, 3)
        assert m.refits == 0
        m.observe([3.0], 7.0)  # 4th sample of y = 2x + 1
        assert m.fitted and m.refits == 1
        assert m.predict_one([10.0]) == pytest.approx(21.0)


class TestRefitCadence:
    def test_refits_every_interval_once_warm(self):
        m = SlidingWindowRegressor(min_samples=2, refit_interval=4)
        refit_at = [i for i in range(20) if (m.observe([float(i)], float(i)))]
        # First fit at sample index 1 (min_samples reached), then every
        # 4th observation after it.
        assert refit_at == [1, 5, 9, 13, 17]
        assert m.refits == 5
        assert m.samples == 20

    def test_observe_reports_refits(self):
        m = SlidingWindowRegressor(min_samples=2, refit_interval=2)
        assert m.observe([0.0], 0.0) is False
        assert m.observe([1.0], 1.0) is True
        assert m.observe([2.0], 2.0) is False
        assert m.observe([3.0], 3.0) is True


class TestWindow:
    def test_old_samples_fall_off_and_drift_is_tracked(self):
        # First regime y = x; second regime y = x + 100.  After the
        # window fills with regime-2 samples, predictions must follow
        # the new line with no memory of the old one.
        m = SlidingWindowRegressor(window=8, min_samples=2, refit_interval=1)
        for i in range(8):
            m.observe([float(i)], float(i))
        for i in range(8):
            m.observe([float(i)], float(i) + 100.0)
        assert m.predict_one([4.0]) == pytest.approx(104.0)

    def test_window_bounds_retained_samples(self):
        m = SlidingWindowRegressor(window=4, min_samples=2, refit_interval=1)
        feed_line(m, 100)
        assert m.samples == 100
        assert m.retained == 4
        X, y = m.window_samples()
        assert X.shape == (4, 1) and y.shape == (4,)


class TestDeterminism:
    def test_same_feed_same_predictions(self):
        a = SlidingWindowRegressor(min_samples=3, refit_interval=2)
        b = SlidingWindowRegressor(min_samples=3, refit_interval=2)
        rng = np.random.default_rng(7)
        xs = rng.normal(size=(32, 2))
        ys = xs @ [1.5, -0.5] + rng.normal(scale=0.1, size=32)
        for x, y in zip(xs, ys):
            a.observe(x, y)
            b.observe(x, y)
        probe = [0.3, -0.2]
        assert a.predict_one(probe) == b.predict_one(probe)
        assert a.refits == b.refits


class TestRingBuffer:
    """The ring buffers refit exactly as a deque window + np.stack would."""

    @pytest.mark.parametrize("refit_interval", [1, 3])
    def test_refits_bit_identical_to_a_deque_reference(self, refit_interval):
        window = 8
        m = SlidingWindowRegressor(window=window, min_samples=3, refit_interval=refit_interval)
        ref = deque(maxlen=window)
        rng = np.random.default_rng(11)
        refits = 0
        for _ in range(5 * window):  # four wraparounds past the first fill
            x = rng.normal(size=3)
            y = float(rng.normal())
            ref.append((x.copy(), y))
            refit = m.observe(x, y)
            X, Y = m.window_samples()
            ref_X = np.stack([a for a, _ in ref])
            ref_Y = np.array([b for _, b in ref])
            assert np.array_equal(X, ref_X) and np.array_equal(Y, ref_Y)
            assert X.flags.c_contiguous and Y.flags.c_contiguous
            assert m.retained == len(ref)
            if refit:
                refits += 1
                expected = LinearRegression().fit(ref_X, ref_Y)
                assert np.array_equal(m._model.coef_, expected.coef_)
                assert np.array_equal(m._model.intercept_, expected.intercept_)
                probe = rng.normal(size=3)
                assert m.predict_one(probe) == float(expected.predict(probe).reshape(-1)[0])
        assert refits >= 5 * window // refit_interval - 2

    def test_feature_shape_change_rejected(self):
        m = SlidingWindowRegressor(min_samples=2)
        m.observe([1.0, 2.0], 0.0)
        with pytest.raises(ModelError, match="feature shape"):
            m.observe([1.0], 0.0)


@st.composite
def windows(draw):
    """A random regression window shaped like the routing ones: 2-600
    rows, 1-16 columns with magnitudes from 1e-3 to 1e4, some columns
    constant (zero variance)."""
    n = draw(st.integers(2, 600))
    k = draw(st.integers(1, 16))
    constant = draw(st.lists(st.booleans(), min_size=k, max_size=k))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** rng.uniform(-3.0, 4.0, size=k)
    X = rng.normal(size=(n, k)) * scale + rng.normal(size=k) * scale
    for j, const in enumerate(constant):
        if const:
            X[:, j] = float(rng.integers(0, 5))
    y = X @ rng.normal(size=k) + rng.normal(scale=10.0 ** rng.uniform(-3.0, 1.0), size=n)
    return X, y, rng


def reference_fit(X, y):
    """The textbook fit: ``X.std`` and an ``np.hstack`` design matrix."""
    X = np.asarray(X, dtype=np.float64)
    Y = np.asarray(y, dtype=np.float64)
    if Y.ndim == 1:
        Y = Y[:, None]
    mu = X.mean(axis=0)
    sd = X.std(axis=0)
    sd[sd == 0] = 1.0
    Xs = (X - mu) / sd
    A = np.hstack([Xs, np.ones((X.shape[0], 1))])
    W, *_ = np.linalg.lstsq(A, Y, rcond=None)
    coef = (W[:-1].T / sd).T
    return coef, W[-1] - (mu / sd) @ W[:-1]


def hexes(a):
    return [float(v).hex() for v in np.ravel(a)]


class TestExactness:
    """The fast paths give the same bits as the plain formulas."""

    @given(windows(), st.integers(0, 600))
    @settings(max_examples=80, deadline=None)
    def test_predict_one_is_linear_regression_predict(self, window, extra):
        X, y, rng = window
        n = len(X)
        extra = min(extra, n)  # samples past the first fill: the ring wraps
        m = SlidingWindowRegressor(
            window=n, min_samples=n, refit_interval=max(extra, 1)
        )
        rows = np.concatenate((X, X[:extra] * 1.5)) if extra else X
        targets = np.concatenate((y, y[:extra] - 1.0)) if extra else y
        refits = [m.observe(x, t) for x, t in zip(rows, targets)]
        assert refits[-1] and m.refits == (2 if extra else 1)
        # The reference fit sees the last n rows, oldest first, as plain
        # slices: a ring that unrolls them in any other order or set
        # gives other bits.
        model = LinearRegression().fit(rows[-n:], targets[-n:])
        probes = np.concatenate((rows[-8:], rng.normal(size=(8, X.shape[1])) * X.std(axis=0)))
        for x in probes:
            expected = float(model.predict(x)[0, 0])
            assert m.predict_one(x).hex() == expected.hex()

    @given(windows(), st.integers(1, 3))
    @settings(max_examples=60, deadline=None)
    def test_fit_is_the_reference_formula(self, window, outputs):
        X, y, rng = window
        Y = y if outputs == 1 else np.column_stack([y] + [
            y * rng.normal() for _ in range(outputs - 1)
        ])
        model = LinearRegression().fit(X, Y)
        coef, intercept = reference_fit(X, Y)
        assert hexes(model.coef_) == hexes(coef)
        assert hexes(model.intercept_) == hexes(intercept)
