"""Gradient-boosting regressor: shallow trees on squared-loss residuals.

The paper's runner-up model (Table IV, R² ≈ 0.91, 150 stages,
learning rate 0.1).  Multi-output: one boosted ensemble per target
column, all trained in a single residual loop.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ModelError
from repro.ml.shapes import fit_arrays, predict_rows
from repro.ml.tree import DecisionTreeRegressor, NodeTable
from repro.utils.rng import spawn_generators


class GradientBoostingRegressor:
    """Boosted regression trees for (possibly multi-output) targets.

    Parameters
    ----------
    n_estimators:
        Boosting stages (paper: 150).
    learning_rate:
        Shrinkage per stage (paper: 0.1).
    max_depth:
        Depth of each weak learner.  The default (5) is deeper than
        the textbook 3: the 4-feature bound-prediction target is
        dominated by 3–4-way feature interactions.
    subsample:
        Row fraction per stage (stochastic gradient boosting).
    seed:
        Reproducible subsampling.
    """

    def __init__(
        self,
        n_estimators: int = 150,
        learning_rate: float = 0.1,
        max_depth: int = 5,
        min_samples_leaf: int = 2,
        subsample: float = 1.0,
        seed=0,
    ):
        if n_estimators < 1:
            raise ModelError(f"n_estimators must be >= 1, got {n_estimators}")
        if not 0 < learning_rate <= 1:
            raise ModelError(f"learning_rate must be in (0, 1], got {learning_rate}")
        if not 0 < subsample <= 1:
            raise ModelError(f"subsample must be in (0, 1], got {subsample}")
        self.n_estimators = n_estimators
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.subsample = subsample
        self.seed = seed
        self.base_: np.ndarray | None = None
        self.table_: NodeTable | None = None
        self.n_features_: int | None = None

    def fit(self, X, y) -> "GradientBoostingRegressor":
        X, Y = fit_arrays(X, y)
        n = X.shape[0]
        self.base_ = Y.mean(axis=0)
        pred = np.tile(self.base_, (n, 1))
        tables = []
        for rng in spawn_generators(self.seed, self.n_estimators):
            residual = Y - pred
            if self.subsample < 1.0:
                rows = rng.choice(n, size=max(2, int(self.subsample * n)), replace=False)
            else:
                rows = np.arange(n)
            tree = DecisionTreeRegressor(
                max_depth=self.max_depth, min_samples_leaf=self.min_samples_leaf
            )
            tree.fit(X[rows], residual[rows])
            pred += self.learning_rate * tree.predict(X)
            tables.append(tree.table_)
        self.table_ = NodeTable.concat(tables)
        self.n_features_ = X.shape[1]
        return self

    def predict(self, X) -> np.ndarray:
        X = predict_rows(X, self.n_features_)
        steps = self.learning_rate * self.table_.value[self.table_.leaves(X)]
        # Base row first, then one stage at a time as fit added them; a
        # pairwise sum would give other bits.
        base = np.broadcast_to(self.base_, (X.shape[0], 1, len(self.base_)))
        return np.cumsum(np.concatenate([base, steps], axis=1), axis=1)[:, -1]
