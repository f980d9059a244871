"""Unit tests for the predictor wrapper and JSON persistence."""

import json

import numpy as np
import pytest

from repro.errors import ModelError
from repro.ml.forest import RandomForestRegressor
from repro.ml.gbm import GradientBoostingRegressor
from repro.ml.linear import LinearRegression
from repro.experiments import common
from repro.gpusim.memory import EVICTION_SEMANTICS
from repro.ml.persistence import (
    FORMAT,
    load_predictor,
    model_from_dict,
    model_to_dict,
    save_predictor,
)
from repro.ml.predictor import ReuseBoundPredictor
from repro.ml.tree import DecisionTreeRegressor
from repro.schedulers.bounds import ReuseBounds
from repro.workloads.characteristics import DataCharacteristics

CHARS = DataCharacteristics(vector_size=16, tensor_size=128, distribution=0.0, repeated_rate=0.5)


def fitted_models(rng):
    X = rng.uniform(0, 10, size=(60, 4))
    Y = np.stack([X[:, 0] % 3, X[:, 1] % 2, np.zeros(60)], axis=1)
    return X, Y, [
        DecisionTreeRegressor(max_depth=4).fit(X, Y),
        RandomForestRegressor(n_estimators=4, seed=0).fit(X, Y),
        GradientBoostingRegressor(n_estimators=4, seed=0).fit(X, Y),
        LinearRegression().fit(X, Y),
    ]


class TestPredictor:
    def test_rounds_and_clips(self):
        class Stub:
            def predict(self, X):
                return np.array([[1.4, -0.3, 7.9]])

        pred = ReuseBoundPredictor(Stub(), clip_max=4.0)
        b = pred.predict_bounds(CHARS)
        assert b.as_tuple() == (1.0, 0.0, 4.0)

    def test_no_clip(self):
        class Stub:
            def predict(self, X):
                return np.array([[10.0, 0.0, 0.0]])

        assert ReuseBoundPredictor(Stub()).predict_bounds(CHARS)[0] == 10.0

    def test_wrong_output_arity_rejected(self):
        class Stub:
            def predict(self, X):
                return np.array([[1.0, 2.0]])

        with pytest.raises(ModelError):
            ReuseBoundPredictor(Stub()).predict_bounds(CHARS)

    def test_returns_reuse_bounds(self):
        class Stub:
            def predict(self, X):
                return np.zeros((1, 3))

        assert isinstance(ReuseBoundPredictor(Stub()).predict_bounds(CHARS), ReuseBounds)


class TestPersistence:
    def test_roundtrip_all_model_kinds(self, rng):
        X, Y, models = fitted_models(rng)
        probe = rng.uniform(0, 10, size=(20, 4))
        for model in models:
            clone = model_from_dict(json.loads(json.dumps(model_to_dict(model))))
            np.testing.assert_array_equal(clone.predict(probe), model.predict(probe))

    def test_unfitted_tree_rejected(self):
        with pytest.raises(ModelError):
            model_to_dict(DecisionTreeRegressor())

    def test_unknown_kind_rejected(self):
        with pytest.raises(ModelError):
            model_from_dict({"kind": "svm"})

    def test_unknown_model_type_rejected(self):
        with pytest.raises(ModelError):
            model_to_dict(object())

    def test_file_roundtrip(self, rng, tmp_path):
        X, Y, models = fitted_models(rng)
        pred = ReuseBoundPredictor(models[1], clip_max=4.0)
        path = tmp_path / "model.json"
        save_predictor(pred, path)
        loaded = load_predictor(path)
        assert loaded.clip_max == 4.0
        got = loaded.predict_bounds(CHARS)
        want = pred.predict_bounds(CHARS)
        assert got.as_tuple() == want.as_tuple()


def tree_dict(rng) -> dict:
    """A fitted depth-2 tree, serialized: nodes 0 (root), 1, 2, 3, 4, ..."""
    X = rng.uniform(0, 10, size=(60, 2))
    model = DecisionTreeRegressor(max_depth=2, min_samples_leaf=1).fit(X, X[:, 0])
    return json.loads(json.dumps(model_to_dict(model)))


class TestMalformedTable:
    """A table :meth:`NodeTable.leaves` could not walk never loads."""

    def rejects(self, d, match):
        with pytest.raises(ModelError, match=match):
            model_from_dict(d)

    def test_lengths_differ(self, rng):
        d = tree_dict(rng)
        d["table"]["threshold"].append(0.5)
        self.rejects(d, "differ in length")

    def test_self_loop(self, rng):
        d = tree_dict(rng)
        d["table"]["left"][0] = 0
        self.rejects(d, r"node 0: children 0, \d+ not in")

    def test_child_points_back(self, rng):
        d = tree_dict(rng)
        inner = [i for i, f in enumerate(d["table"]["feature"]) if f >= 0]
        d["table"]["right"][inner[-1]] = inner[0]
        self.rejects(d, f"node {inner[-1]}: children")

    def test_child_past_the_end(self, rng):
        d = tree_dict(rng)
        d["table"]["right"][0] = len(d["table"]["feature"])
        self.rejects(d, "node 0: children")

    def test_root_out_of_range(self, rng):
        d = tree_dict(rng)
        d["table"]["roots"] = [len(d["table"]["feature"])]
        self.rejects(d, "root ids")

    def test_feature_out_of_range(self, rng):
        d = tree_dict(rng)
        d["table"]["feature"][0] = d["n_features"]
        self.rejects(d, "feature ids")

    def test_nested_tree_rejected(self):
        d = {"kind": "tree", "n_features": 1, "n_outputs": 1, "root": {"value": [1.0]}}
        self.rejects(d, "no node table")


class TestFormat:
    def test_saved_predictor_names_its_format(self, rng, tmp_path):
        _, _, models = fitted_models(rng)
        path = tmp_path / "model.json"
        save_predictor(ReuseBoundPredictor(models[1]), path)
        assert json.loads(path.read_text())["format"] == FORMAT

    def test_nested_format_file_rejected(self, tmp_path):
        path = tmp_path / "old.json"
        nested = {"kind": "tree", "n_features": 4, "n_outputs": 3,
                  "root": {"value": [1.0, 2.0, 3.0]}}
        path.write_text(json.dumps({"clip_max": None, "model": nested}))
        with pytest.raises(ModelError, match="predictor format 1"):
            load_predictor(path)

    def test_cache_key_carries_the_format(self, monkeypatch, tmp_path):
        monkeypatch.setattr(common, "cache_dir", lambda: tmp_path)
        monkeypatch.setattr(common, "_PREDICTOR_CACHE", {})
        trained = []

        def fake_train(config, *, n_samples, seed, n_estimators):
            trained.append(n_estimators)
            X = np.arange(12.0).reshape(3, 4)
            return ReuseBoundPredictor(DecisionTreeRegressor().fit(X, X[:, :3])), None

        monkeypatch.setattr(common, "train_default_predictor", fake_train)
        common.get_default_predictor(seed=5)
        (saved,) = tmp_path.glob("predictor-*.json")
        # A file written under another format sits under another key:
        # never loaded, so the predictor is retrained rather than crashing.
        monkeypatch.setattr(common, "_PREDICTOR_CACHE", {})
        monkeypatch.setattr(common, "FORMAT", FORMAT + 1)
        common.get_default_predictor(seed=5)
        assert len(trained) == 2 and len(list(tmp_path.glob("predictor-*.json"))) == 2
        monkeypatch.setattr(common, "_PREDICTOR_CACHE", {})
        monkeypatch.setattr(common, "FORMAT", FORMAT)
        loaded = common.get_default_predictor(seed=5)
        assert len(trained) == 2 and loaded.model.table_ is not None
        assert saved.exists()

    def test_cache_key_carries_the_eviction_semantics(self, monkeypatch, tmp_path):
        # Training labels are simulated runs: a predictor trained before
        # eviction changed its victims must be retrained, not loaded.
        monkeypatch.setattr(common, "cache_dir", lambda: tmp_path)
        monkeypatch.setattr(common, "_PREDICTOR_CACHE", {})
        trained = []

        def fake_train(config, *, n_samples, seed, n_estimators):
            trained.append(seed)
            X = np.arange(12.0).reshape(3, 4)
            return ReuseBoundPredictor(DecisionTreeRegressor().fit(X, X[:, :3])), None

        monkeypatch.setattr(common, "train_default_predictor", fake_train)
        monkeypatch.setattr(common, "EVICTION_SEMANTICS", "recency-only")
        common.get_default_predictor(seed=5)
        monkeypatch.setattr(common, "_PREDICTOR_CACHE", {})
        monkeypatch.setattr(common, "EVICTION_SEMANTICS", EVICTION_SEMANTICS)
        common.get_default_predictor(seed=5)
        assert len(trained) == 2 and len(list(tmp_path.glob("predictor-*.json"))) == 2
        monkeypatch.setattr(common, "_PREDICTOR_CACHE", {})
        common.get_default_predictor(seed=5)
        assert len(trained) == 2
