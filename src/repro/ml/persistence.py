"""JSON persistence for the from-scratch models.

Training the reuse-bound model is an offline step (the paper trains
once up front); these helpers let a trained model ship with an
application and load in milliseconds.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.errors import ModelError
from repro.ml.forest import RandomForestRegressor
from repro.ml.gbm import GradientBoostingRegressor
from repro.ml.linear import LinearRegression
from repro.ml.predictor import ReuseBoundPredictor
from repro.ml.tree import DecisionTreeRegressor, NodeTable

#: Layout of saved predictors.  Format 2 stores each tree model as its
#: flat node table; format 1 (files without a number) nested one dict
#: per node.
FORMAT = 2

#: Serialized kind of each tree model; all three keep one node table.
TREE_KINDS = {
    "tree": DecisionTreeRegressor,
    "forest": RandomForestRegressor,
    "gbm": GradientBoostingRegressor,
}


def _checked_table(d: dict, n_features: int) -> NodeTable:
    """The node table ``d`` holds, or :class:`ModelError` if it cannot be walked.

    :meth:`NodeTable.leaves` steps until every row reaches a leaf, so a
    child id that does not move forward (a cycle) would never return.
    """
    table = NodeTable(*(
        np.asarray(d[name], dtype=np.float64 if name in ("threshold", "value") else np.int64)
        for name in NodeTable._fields
    ))
    n = len(table.feature)
    if {len(a) for a in table[:5]} != {n} or table.value.ndim != 2:
        raise ModelError(f"node table arrays differ in length: {[len(a) for a in table[:5]]}")
    inner = np.flatnonzero(table.feature >= 0)
    kids = np.stack([table.left[inner], table.right[inner]])
    bad = inner[((kids <= inner) | (kids >= n)).any(axis=0)]
    if bad.size:
        i = int(bad[0])
        raise ModelError(f"node {i}: children {table.left[i]}, {table.right[i]} not in ({i}, {n})")
    if table.roots.size == 0 or ((table.roots < 0) | (table.roots >= n)).any():
        raise ModelError(f"root ids {table.roots.tolist()} out of range for {n} nodes")
    if ((table.feature < -1) | (table.feature >= n_features)).any():
        raise ModelError(f"feature ids out of range for {n_features} features")
    return table


# ---------------------------------------------------------------- model <-> dict
def model_to_dict(model) -> dict:
    """Serialize any of the four regressors to a JSON-safe dict."""
    if isinstance(model, LinearRegression):
        return {
            "kind": "linear",
            "coef": np.asarray(model.coef_).tolist(),
            "intercept": np.asarray(model.intercept_).tolist(),
        }
    kind = next((k for k, cls in TREE_KINDS.items() if isinstance(model, cls)), None)
    if kind is None:
        raise ModelError(f"cannot serialize model of type {type(model).__name__}")
    if model.table_ is None:
        raise ModelError(f"cannot serialize an unfitted {kind}")
    d = {
        "kind": kind,
        "n_features": model.n_features_,
        "table": {name: a.tolist() for name, a in model.table_._asdict().items()},
    }
    if kind == "gbm":
        d.update(learning_rate=model.learning_rate, base=model.base_.tolist())
    return d


def model_from_dict(d: dict):
    """Inverse of :func:`model_to_dict`."""
    kind = d.get("kind")
    if kind == "linear":
        model = LinearRegression()
        model.coef_ = np.asarray(d["coef"], dtype=np.float64)
        model.intercept_ = np.asarray(d["intercept"], dtype=np.float64)
        return model
    if kind not in TREE_KINDS:
        raise ModelError(f"unknown serialized model kind {kind!r}")
    if "table" not in d:
        raise ModelError(f"serialized {kind} has no node table")
    if kind == "gbm":
        model = GradientBoostingRegressor(learning_rate=float(d["learning_rate"]))
        model.base_ = np.asarray(d["base"], dtype=np.float64)
    else:
        model = TREE_KINDS[kind]()
    model.n_features_ = int(d["n_features"])
    model.table_ = _checked_table(d["table"], model.n_features_)
    return model


# -------------------------------------------------------------------- file I/O
def save_predictor(predictor: ReuseBoundPredictor, path: str | Path) -> None:
    """Write a predictor (model + clip ceiling) to a JSON file."""
    payload = {
        "format": FORMAT,
        "clip_max": predictor.clip_max,
        "model": model_to_dict(predictor.model),
    }
    Path(path).write_text(json.dumps(payload))


def load_predictor(path: str | Path) -> ReuseBoundPredictor:
    """Load a predictor saved by :func:`save_predictor`."""
    payload = json.loads(Path(path).read_text())
    fmt = payload.get("format", 1)
    if fmt != FORMAT:
        raise ModelError(
            f"{path}: predictor format {fmt!r}, but this version reads format {FORMAT}"
            " (format 1 nested one dict per tree node); retrain and save it again"
        )
    return ReuseBoundPredictor(
        model_from_dict(payload["model"]),
        clip_max=payload.get("clip_max"),
    )
