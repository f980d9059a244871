"""Permutation feature importance for the reuse-bound models.

Explains *why* the model predicts what it does — the quantitative
companion to the paper's Fig. 5 narrative (which characteristics drive
the optimal bounds).  Importance of a feature = the drop in R² when
that feature's column is shuffled, averaged over repeats.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ModelError
from repro.ml.metrics import r2_score
from repro.ml.shapes import fit_arrays
from repro.utils.rng import as_generator


def permutation_importance(
    model,
    X,
    y,
    *,
    n_repeats: int = 10,
    seed=0,
) -> np.ndarray:
    """Mean R² drop per feature when it is permuted.

    Parameters
    ----------
    model:
        Fitted regressor with ``predict``.
    X, y:
        Held-out evaluation data.
    n_repeats:
        Shuffles averaged per feature.

    Returns
    -------
    Array of shape ``(n_features,)``; larger = more important.  Values
    can be slightly negative for irrelevant features (noise).
    """
    # Models in this package always predict 2-d; the target is aligned.
    X, Y = fit_arrays(X, y)
    if n_repeats < 1:
        raise ModelError(f"n_repeats must be >= 1, got {n_repeats}")
    rng = as_generator(seed)
    base = r2_score(Y, model.predict(X))
    importances = np.zeros(X.shape[1])
    for j in range(X.shape[1]):
        drops = []
        for _ in range(n_repeats):
            Xp = X.copy()
            Xp[:, j] = rng.permutation(Xp[:, j])
            drops.append(base - r2_score(Y, model.predict(Xp)))
        importances[j] = float(np.mean(drops))
    return importances


def rank_features(names, importances) -> list[tuple[str, float]]:
    """``(name, importance)`` pairs sorted most-important first."""
    if len(names) != len(importances):
        raise ModelError(
            f"{len(names)} names but {len(importances)} importances"
        )
    order = np.argsort(importances)[::-1]
    return [(names[i], float(importances[i])) for i in order]
