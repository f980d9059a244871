"""CART regression tree (multi-output, variance-reduction splits).

Implementation notes (per the HPC guides: vectorize, avoid per-row
Python work): split search evaluates every threshold of a feature in
one vectorized pass using prefix sums of the sorted targets, giving
O(n_features · n · log n) per node instead of O(n_features · n²).

Every fitted tree model (this tree, the forest, the boosted ensemble)
stores its trees as one flat :class:`NodeTable`, and
:meth:`NodeTable.leaves` walks all rows through all trees at once.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.errors import ModelError
from repro.ml.shapes import fit_arrays, predict_rows


class NodeTable(NamedTuple):
    """Fitted trees as flat arrays, one entry per node, each tree in preorder.

    ``feature`` is ``-1`` at a leaf, whose ``left``/``right`` are ``-1``
    too; an internal node's child ids always exceed its own.  ``value``
    holds the leaf means (zeros at internal nodes) and ``roots`` each
    tree's root id, in tree order: a single tree is the one-root case.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray
    roots: np.ndarray

    @classmethod
    def concat(cls, tables: list["NodeTable"]) -> "NodeTable":
        """One table holding the single-tree ``tables``' trees, in order."""
        sizes = [len(t.feature) for t in tables]
        starts = np.cumsum([0] + sizes[:-1])
        shift = np.repeat(starts, sizes)
        feature, threshold, left, right, value = map(np.concatenate, zip(*(t[:5] for t in tables)))
        inner = feature >= 0
        left, right = (np.where(inner, side + shift, -1) for side in (left, right))
        return cls(feature, threshold, left, right, value, starts)

    def leaves(self, X: np.ndarray) -> np.ndarray:
        """Leaf id that each row of ``X`` reaches in each tree, ``(rows, trees)``.

        Level-synchronous: every (row, tree) steps down one level per
        iteration; rows already at a leaf stay put.
        """
        node = np.tile(self.roots, (X.shape[0], 1))
        rows = np.arange(X.shape[0])[:, None]
        feature = self.feature[node]
        inner = feature >= 0
        while inner.any():
            go_left = X[rows, feature] <= self.threshold[node]
            node = np.where(inner, np.where(go_left, self.left[node], self.right[node]), node)
            feature = self.feature[node]
            inner = feature >= 0
        return node

    def sizes(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-tree node count and depth (a lone leaf has depth 0), in tree order."""
        n = len(self.feature)
        depth = np.zeros(n, dtype=np.int64)
        level, d = self.roots, 0
        while level.size:
            depth[level] = d
            inner = level[self.feature[level] >= 0]
            level, d = np.concatenate([self.left[inner], self.right[inner]]), d + 1
        tree = np.searchsorted(self.roots, np.arange(n), side="right") - 1
        depths = np.zeros(len(self.roots), dtype=np.int64)
        np.maximum.at(depths, tree, depth)
        return np.diff(self.roots, append=n), depths


def _best_split(X: np.ndarray, Y: np.ndarray, feature_ids: np.ndarray, min_leaf: int):
    """Find the (feature, threshold) minimizing summed child SSE.

    Returns ``(feature, threshold, gain)`` or ``None`` if no valid
    split exists.  SSE is computed over all output columns jointly.
    """
    n = X.shape[0]
    total_sse = float(((Y - Y.mean(axis=0)) ** 2).sum())
    best = None
    best_sse = total_sse
    for f in feature_ids:
        order = np.argsort(X[:, f], kind="stable")
        xs = X[order, f]
        ys = Y[order]
        # Prefix sums over sorted targets: child SSEs for every cut in O(n).
        csum = np.cumsum(ys, axis=0)
        csum2 = np.cumsum(ys**2, axis=0)
        tot = csum[-1]
        tot2 = csum2[-1]
        counts = np.arange(1, n + 1, dtype=np.float64)
        left_sse = (csum2 - csum**2 / counts[:, None]).sum(axis=1)
        rc = n - counts
        with np.errstate(divide="ignore", invalid="ignore"):
            right_sse = ((tot2 - csum2) - (tot - csum) ** 2 / rc[:, None]).sum(axis=1)
        # Valid cut positions: between distinct x values, leaves >= min_leaf.
        cut = np.arange(1, n)  # left gets rows [0, cut), i.e. cut rows
        valid = (xs[cut] > xs[cut - 1]) & (cut >= min_leaf) & ((n - cut) >= min_leaf)
        if not valid.any():
            continue
        sse = left_sse[cut - 1] + right_sse[cut - 1]
        sse = np.where(valid, sse, np.inf)
        i = int(np.argmin(sse))
        if sse[i] < best_sse - 1e-12:
            best_sse = float(sse[i])
            thr = 0.5 * (xs[cut[i]] + xs[cut[i] - 1])
            best = (int(f), float(thr), total_sse - best_sse)
    return best


class DecisionTreeRegressor:
    """Multi-output CART regressor.

    Parameters
    ----------
    max_depth:
        Maximum tree depth (root = depth 0).
    min_samples_leaf:
        Minimum rows per leaf.
    max_features:
        Features considered per split: ``None`` (all), an int, or a
        fraction in (0, 1].  Randomized subsets need ``rng``.
    rng:
        Generator for feature subsampling (random-forest use).
    """

    def __init__(self, max_depth: int = 8, min_samples_leaf: int = 2, max_features=None, rng=None):
        if max_depth < 0:
            raise ModelError(f"max_depth must be >= 0, got {max_depth}")
        if min_samples_leaf < 1:
            raise ModelError(f"min_samples_leaf must be >= 1, got {min_samples_leaf}")
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.rng = rng
        self.table_: NodeTable | None = None
        self.n_features_: int | None = None

    def _split_features(self, n_features: int) -> np.ndarray:
        """Feature ids one split may use: all, or a fresh ``rng`` subset."""
        mf = self.max_features
        if mf is None:
            k = n_features
        elif isinstance(mf, float):
            k = max(1, int(round(mf * n_features)))
        else:
            k = max(1, min(int(mf), n_features))
        if k == n_features:
            return np.arange(n_features)
        if self.rng is None:
            raise ModelError("max_features subsampling requires an rng")
        return self.rng.choice(n_features, size=k, replace=False)

    def fit(self, X, y) -> "DecisionTreeRegressor":
        X, Y = fit_arrays(X, y)
        self.n_features_ = X.shape[1]
        nodes: list[list] = []
        self._grow(X, Y, 0, nodes)
        self.table_ = NodeTable(*map(np.array, zip(*nodes)), roots=np.zeros(1, dtype=np.int64))
        return self

    def _grow(self, X: np.ndarray, Y: np.ndarray, depth: int, nodes: list) -> int:
        """Append the subtree fit to ``(X, Y)`` to ``nodes`` in preorder; return its id."""
        node_id = len(nodes)
        split = None
        if (
            depth < self.max_depth
            and X.shape[0] >= 2 * self.min_samples_leaf
            and not np.allclose(Y, Y[0])
        ):
            feats = self._split_features(X.shape[1])
            split = _best_split(X, Y, feats, self.min_samples_leaf)
        if split is None:
            nodes.append([-1, 0.0, -1, -1, Y.mean(axis=0)])
            return node_id
        f, thr, _gain = split
        node = [f, thr, -1, -1, np.zeros(Y.shape[1])]
        nodes.append(node)
        mask = X[:, f] <= thr
        node[2] = self._grow(X[mask], Y[mask], depth + 1, nodes)
        node[3] = self._grow(X[~mask], Y[~mask], depth + 1, nodes)
        return node_id

    def predict(self, X) -> np.ndarray:
        X = predict_rows(X, self.n_features_)
        return self.table_.value[self.table_.leaves(X)[:, 0]]
