"""Input checks shared by every model's ``fit`` and ``predict``."""

from __future__ import annotations

import numpy as np

from repro.errors import ModelError


def fit_arrays(X, y) -> tuple[np.ndarray, np.ndarray]:
    """``(X, Y)`` as float64 matrices (a 1-d ``y`` is one column), one row per sample."""
    X = np.asarray(X, dtype=np.float64)
    Y = np.asarray(y, dtype=np.float64)
    if Y.ndim == 1:
        Y = Y[:, None]
    if X.ndim != 2 or X.shape[0] != Y.shape[0]:
        raise ModelError(f"shape mismatch: X {X.shape}, y {Y.shape}")
    if X.shape[0] == 0:
        raise ModelError("cannot fit on an empty dataset")
    return X, Y


def predict_rows(X, n_features: int | None) -> np.ndarray:
    """``X`` (a 1-d ``X`` is one row) as a float64 matrix of the fitted ``n_features``."""
    if n_features is None:
        raise ModelError("predict called before fit")
    X = np.asarray(X, dtype=np.float64)
    if X.ndim == 1:
        X = X[None, :]
    if X.shape[1] != n_features:
        raise ModelError(f"expected {n_features} features, got {X.shape[1]}")
    return X
