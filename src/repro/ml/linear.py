"""Ordinary-least-squares linear regression (multi-output).

The paper's weakest baseline model (Table IV, R² ≈ 0.57): the
characteristics→bounds relationship is non-linear, which is the whole
argument for the tree ensembles.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ModelError
from repro.ml.shapes import fit_arrays, predict_rows


class LinearRegression:
    """``y = X w + b`` fit by ``numpy.linalg.lstsq``.

    Features are standardized internally for numerical conditioning;
    coefficients are reported in original units via ``coef_`` /
    ``intercept_``.
    """

    def __init__(self):
        self.coef_: np.ndarray | None = None
        self.intercept_: np.ndarray | None = None

    def fit(self, X, y) -> "LinearRegression":
        X, Y = fit_arrays(X, y)
        if X.shape[0] < 2:
            raise ModelError("need at least 2 samples to fit a line")
        n, k = X.shape
        mu = X.mean(axis=0)
        d = X - mu
        # ``X.std(axis=0)`` runs exactly these ops internally; taking the
        # deviations once serves both the spread and the scaling below.
        sd = np.sqrt(np.add.reduce(d * d, axis=0) / n)
        sd[sd == 0] = 1.0
        A = np.empty((n, k + 1))
        np.divide(d, sd, out=A[:, :k])
        A[:, k] = 1.0
        W, *_ = np.linalg.lstsq(A, Y, rcond=None)
        w_std = W[:-1]
        b_std = W[-1]
        self.coef_ = (w_std.T / sd).T
        self.intercept_ = b_std - (mu / sd) @ w_std
        return self

    def predict(self, X) -> np.ndarray:
        X = predict_rows(X, None if self.coef_ is None else len(self.coef_))
        return X @ self.coef_ + self.intercept_
