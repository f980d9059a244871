"""Unit tests for the CART regression tree."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ModelError
from repro.ml.forest import RandomForestRegressor
from repro.ml.gbm import GradientBoostingRegressor
from repro.ml.tree import DecisionTreeRegressor, NodeTable


class TestFit:
    def test_perfect_fit_on_step_function(self, rng):
        X = rng.uniform(0, 1, size=(200, 1))
        y = (X[:, 0] > 0.5).astype(float)
        tree = DecisionTreeRegressor(max_depth=3, min_samples_leaf=1)
        tree.fit(X, y)
        pred = tree.predict(X)[:, 0]
        np.testing.assert_allclose(pred, y)

    def test_depth_zero_predicts_mean(self, rng):
        X = rng.uniform(0, 1, size=(50, 2))
        y = rng.uniform(0, 1, size=50)
        tree = DecisionTreeRegressor(max_depth=0)
        tree.fit(X, y)
        np.testing.assert_allclose(tree.predict(X)[:, 0], y.mean())

    def test_multi_output(self, rng):
        X = rng.uniform(-1, 1, size=(100, 2))
        Y = np.stack([X[:, 0] > 0, X[:, 1] > 0], axis=1).astype(float)
        tree = DecisionTreeRegressor(max_depth=4)
        tree.fit(X, Y)
        assert tree.predict(X).shape == (100, 2)
        np.testing.assert_allclose(tree.predict(X), Y)

    def test_min_samples_leaf_respected(self, rng):
        X = rng.uniform(0, 1, size=(20, 1))
        y = rng.uniform(0, 1, size=20)
        tree = DecisionTreeRegressor(max_depth=10, min_samples_leaf=10)
        tree.fit(X, y)
        _, depths = tree.table_.sizes()
        assert depths[0] <= 1

    def test_constant_target_single_leaf(self):
        X = np.arange(10, dtype=float)[:, None]
        tree = DecisionTreeRegressor().fit(X, np.ones(10))
        counts, depths = tree.table_.sizes()
        assert counts.tolist() == [1] and depths.tolist() == [0]

    def test_empty_data_rejected(self):
        with pytest.raises(ModelError):
            DecisionTreeRegressor().fit(np.empty((0, 2)), np.empty(0))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ModelError):
            DecisionTreeRegressor().fit(np.zeros((5, 2)), np.zeros(4))

    def test_bad_hyperparams_rejected(self):
        with pytest.raises(ModelError):
            DecisionTreeRegressor(max_depth=-1)
        with pytest.raises(ModelError):
            DecisionTreeRegressor(min_samples_leaf=0)


class TestPredict:
    def test_before_fit_raises(self):
        with pytest.raises(ModelError):
            DecisionTreeRegressor().predict(np.zeros((1, 2)))

    def test_wrong_feature_count_rejected(self, rng):
        tree = DecisionTreeRegressor().fit(rng.uniform(size=(20, 3)), rng.uniform(size=20))
        with pytest.raises(ModelError):
            tree.predict(np.zeros((1, 2)))

    def test_single_row_convenience(self, rng):
        tree = DecisionTreeRegressor().fit(rng.uniform(size=(20, 2)), rng.uniform(size=20))
        assert tree.predict(np.zeros(2)).shape == (1, 1)

    def test_predictions_within_target_range(self, rng):
        """Tree predictions are means of training targets."""
        X = rng.uniform(size=(100, 2))
        y = rng.uniform(2.0, 3.0, size=100)
        tree = DecisionTreeRegressor(max_depth=6).fit(X, y)
        pred = tree.predict(rng.uniform(size=(50, 2)))
        assert pred.min() >= 2.0 and pred.max() <= 3.0

    def test_feature_subsampling_needs_rng(self, rng):
        tree = DecisionTreeRegressor(max_features=1)
        with pytest.raises(ModelError):
            tree.fit(rng.uniform(size=(30, 3)), rng.uniform(size=30))

    def test_feature_subsampling_with_rng(self, rng):
        tree = DecisionTreeRegressor(max_features=0.5, rng=np.random.default_rng(0))
        tree.fit(rng.uniform(size=(30, 4)), rng.uniform(size=30))
        assert tree.predict(rng.uniform(size=(5, 4))).shape == (5, 1)


class TestSplitQuality:
    def test_prefers_informative_feature(self, rng):
        """Split chooses the feature that actually explains the target."""
        X = rng.uniform(size=(200, 2))
        y = (X[:, 1] > 0.3).astype(float)  # only feature 1 matters
        table = DecisionTreeRegressor(max_depth=1).fit(X, y).table_
        root = table.roots[0]
        assert table.feature[root] == 1
        assert table.threshold[root] == pytest.approx(0.3, abs=0.05)


def walk(table: NodeTable, x: np.ndarray, root: int) -> int:
    """The oracle: one row down one tree, node by node."""
    node = root
    while table.feature[node] >= 0:
        go_left = x[table.feature[node]] <= table.threshold[node]
        node = table.left[node] if go_left else table.right[node]
    return int(node)


class TestNodeTable:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 60),
        n_features=st.integers(1, 4),
        max_depth=st.integers(0, 6),
        n_trees=st.integers(1, 4),
    )
    def test_leaves_match_the_node_walk(self, seed, n, n_features, max_depth, n_trees):
        rng = np.random.default_rng(seed)
        # Few distinct values, so ties and threshold hits are common.
        X = rng.integers(0, 5, size=(n, n_features)).astype(float)
        y = rng.uniform(size=(n, 2))
        table = RandomForestRegressor(
            n_estimators=n_trees, max_depth=max_depth, min_samples_leaf=1,
            max_features=0.5, seed=seed,
        ).fit(X, y).table_
        probe = np.vstack([X, rng.integers(-1, 6, size=(8, n_features)).astype(float)])
        want = [[walk(table, x, r) for r in table.roots] for x in probe]
        assert table.leaves(probe).tolist() == want
        assert (table.feature[table.leaves(probe)] == -1).all()

    def test_children_follow_parents(self, rng):
        X = rng.uniform(size=(80, 3))
        table = GradientBoostingRegressor(n_estimators=5, seed=0).fit(X, X[:, 0]).table_
        inner = np.flatnonzero(table.feature >= 0)
        assert (table.left[inner] > inner).all() and (table.right[inner] > inner).all()
        leaf = table.feature == -1
        assert (table.left[leaf] == -1).all() and (table.right[leaf] == -1).all()

    def test_sizes_count_every_tree(self, rng):
        X = rng.uniform(size=(50, 2))
        table = RandomForestRegressor(n_estimators=3, max_depth=2, seed=1).fit(X, X[:, 1]).table_
        counts, depths = table.sizes()
        assert counts.sum() == len(table.feature) and len(counts) == 3
        assert depths.tolist() == [2, 2, 2]
