"""Incremental refit support: a sliding-window online regressor.

The offline models in this package (:mod:`repro.ml.linear`,
:mod:`repro.ml.forest`, ...) are batch learners: one ``fit`` over a
materialized training set.  Online consumers — the learned routing
policy in :mod:`repro.serve.sharded.learned` — instead observe one
``(features, target)`` sample at a time and want predictions that
track a drifting target (a shard slowing down mid-run) without paying
a full refit per observation.

:class:`SlidingWindowRegressor` puts a
:class:`~repro.ml.linear.LinearRegression` behind a bounded sample
window and an amortized refit schedule: samples land in preallocated
ring buffers holding the last ``window`` observations, and the model is
refit from them every ``refit_interval`` observations (and once
immediately when ``min_samples`` is first reached).  Everything is
deterministic: no RNG is drawn, and the refit cadence is a pure
function of the observation sequence.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ModelError
from repro.ml.linear import LinearRegression


class SlidingWindowRegressor:
    """A linear regression refit incrementally over a bounded window.

    A fresh :class:`~repro.ml.linear.LinearRegression` is fit per refit,
    so stale coefficients never leak across windows.

    Parameters
    ----------
    window:
        Maximum samples retained; older samples fall off the far end.
    refit_interval:
        Observations between refits once the model is warm.
    min_samples:
        Observations required before the first fit (at least 2 — the
        linear model refuses to fit a line through fewer points).
    """

    def __init__(
        self,
        *,
        window: int = 512,
        refit_interval: int = 16,
        min_samples: int = 8,
    ):
        if window < 2:
            raise ModelError(f"window must be >= 2, got {window}")
        if refit_interval < 1:
            raise ModelError(
                f"refit_interval must be >= 1, got {refit_interval}"
            )
        if min_samples < 2:
            raise ModelError(f"min_samples must be >= 2, got {min_samples}")
        if min_samples > window:
            raise ModelError(
                f"min_samples ({min_samples}) cannot exceed window ({window})"
            )
        self.window = int(window)
        # Ring buffers over the last ``window`` samples (``_X`` is sized
        # at the first observation); ``_next`` is the slot written next.
        self._X: np.ndarray | None = None
        self._y = np.empty(self.window, dtype=np.float64)
        self._next = 0
        self.retained = 0  #: samples currently in the window
        self.refit_interval = int(refit_interval)
        self.min_samples = int(min_samples)
        self._model: LinearRegression | None = None
        # The fitted model's coefficient column as a contiguous vector
        # and its intercept as a float: what ``predict_one`` reads.
        self._coef: np.ndarray | None = None
        self._intercept = 0.0
        self._since_fit = 0
        self.samples = 0  #: total observations ever fed in
        self.refits = 0  #: completed refits

    @property
    def fitted(self) -> bool:
        return self._model is not None

    def observe(self, x, y: float) -> bool:
        """Feed one sample; returns ``True`` when a refit happened."""
        x = np.asarray(x, dtype=np.float64)
        if self._X is None:
            self._X = np.empty((self.window,) + x.shape, dtype=np.float64)
        elif x.shape != self._X.shape[1:]:
            raise ModelError(f"feature shape {x.shape} != the window's {self._X.shape[1:]}")
        slot = self._next
        self._X[slot] = x
        self._y[slot] = float(y)
        self._next = (slot + 1) % self.window
        self.retained = min(self.retained + 1, self.window)
        self.samples += 1
        self._since_fit += 1
        warm_enough = self.retained >= self.min_samples
        due = self._model is None or self._since_fit >= self.refit_interval
        if not (warm_enough and due):
            return False
        model = LinearRegression().fit(*self.window_samples())
        self._model = model
        self._coef = np.ascontiguousarray(model.coef_[:, 0])
        self._intercept = float(model.intercept_[0])
        self._since_fit = 0
        self.refits += 1
        return True

    def window_samples(self) -> tuple[np.ndarray, np.ndarray]:
        """The retained samples as C-contiguous ``(X, y)``, oldest first.

        A full ring is unrolled into fresh arrays; a partial one is
        returned as views of the buffers, which the caller must not
        write to.
        """
        X, y = self._X, self._y
        if X is None:
            return np.empty((0, 0)), np.empty(0)
        if self.retained < self.window:
            return X[: self.retained], y[: self.retained]
        start = self._next
        return (
            np.concatenate((X[start:], X[:start])),
            np.concatenate((y[start:], y[:start])),
        )

    def predict_one(self, x) -> float | None:
        """Predicted target for one feature row, ``None`` while cold.

        Bit-identical to ``LinearRegression.predict`` of the row: a
        ``(1, n) @ (n, 1)`` matmul runs the same BLAS ``ddot`` as this
        1-D ``np.dot``, and adding the intercept as a Python float is
        the same double addition.  A Python-level sum would not be: the
        BLAS kernel reorders and fuses its products.
        """
        if self._coef is None:
            return None
        return float(np.dot(x, self._coef)) + self._intercept
