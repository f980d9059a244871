"""Random-forest regressor: bagged CART trees with feature subsampling.

The paper's selected model (Table IV, R² ≈ 0.95, 150 trees).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ModelError
from repro.ml.shapes import fit_arrays, predict_rows
from repro.ml.tree import DecisionTreeRegressor, NodeTable
from repro.utils.rng import spawn_generators


class RandomForestRegressor:
    """Bootstrap-aggregated regression trees (multi-output).

    Parameters
    ----------
    n_estimators:
        Number of trees (paper uses 150).
    max_depth, min_samples_leaf:
        Per-tree limits.
    max_features:
        Features per split; default all — the feature space is tiny
        (4 features) and every one is load-bearing, so subsampling
        splits only injects noise; tree diversity comes from the
        bootstrap.
    seed:
        Reproducible bootstrap/feature sampling.
    """

    def __init__(
        self,
        n_estimators: int = 150,
        max_depth: int = 12,
        min_samples_leaf: int = 1,
        max_features=None,
        seed=0,
    ):
        if n_estimators < 1:
            raise ModelError(f"n_estimators must be >= 1, got {n_estimators}")
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.seed = seed
        self.table_: NodeTable | None = None
        self.n_features_: int | None = None

    def fit(self, X, y) -> "RandomForestRegressor":
        X, Y = fit_arrays(X, y)
        n = X.shape[0]
        tables = []
        for rng in spawn_generators(self.seed, self.n_estimators):
            rows = rng.integers(0, n, size=n)  # bootstrap sample
            tree = DecisionTreeRegressor(
                max_depth=self.max_depth,
                min_samples_leaf=self.min_samples_leaf,
                max_features=self.max_features,
                rng=rng,
            )
            tables.append(tree.fit(X[rows], Y[rows]).table_)
        self.table_ = NodeTable.concat(tables)
        self.n_features_ = X.shape[1]
        return self

    def predict(self, X) -> np.ndarray:
        X = predict_rows(X, self.n_features_)
        per_tree = self.table_.value[self.table_.leaves(X)]
        # A running sum adds the trees one at a time in tree order; a
        # pairwise sum would give other bits.
        return np.cumsum(per_tree, axis=1)[:, -1] / len(self.table_.roots)
