"""Frozen golden fixture for the tree models.

``tests/golden/ml-models.json`` pins a feature-subsampling tree, a
multi-output and a single-output forest and a subsampled GBM
(:func:`tests.golden_modes.ml_models`): every tree's node count and
depth, and every probe prediction as ``float.hex``.  A change to split
search, the RNG draws, the descent or the order trees are summed in
moves a bit here, and so does a save/load round trip that loses one.
Regenerate deliberately with ``python tools/regen_golden.py --write ml-models``.
"""

import json

import pytest

from repro.ml.persistence import model_from_dict, model_to_dict
from tests import golden_modes as golden

MODELS = ("tree", "forest", "forest-1out", "gbm")


@pytest.fixture(scope="module")
def fresh():
    return golden.ml_fingerprint()


@pytest.mark.parametrize("name", MODELS)
def test_model_matches_fixture(name, fresh):
    assert fresh["models"][name] == golden.load_ml()["models"][name]


def test_saved_models_predict_the_same_bits():
    probe, models = golden.ml_models()
    stored = golden.load_ml()["models"]
    for name, model in models.items():
        clone = model_from_dict(json.loads(json.dumps(model_to_dict(model))))
        assert golden.hex_rows(clone.predict(probe)) == stored[name]["predictions"], name


def test_fixture_names_exactly_these_models():
    assert set(golden.load_ml()["models"]) == set(MODELS)
