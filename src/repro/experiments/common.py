"""Shared experiment plumbing: scheduler line-ups and predictor caching.

Every experiment compares the same three systems on identical simulated
hardware (the paper's line-up):

* ``groute``        — earliest-available-device baseline,
* ``micco-naive``   — MICCO heuristic, reuse bounds pinned to zero,
* ``micco-optimal`` — MICCO heuristic with per-vector predicted bounds.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro.core.config import MiccoConfig
from repro.core.framework import Micco
from repro.core.session import RunResult
from repro.gpusim.memory import EVICTION_SEMANTICS
from repro.ml.persistence import FORMAT, load_predictor, save_predictor
from repro.ml.predictor import ReuseBoundPredictor, train_default_predictor
from repro.schedulers.groute import GrouteScheduler
from repro.tensor.spec import VectorSpec
from repro.workloads.oversub import capacity_for_oversubscription

#: In-process predictor cache keyed by training parameters.
_PREDICTOR_CACHE: dict[tuple, ReuseBoundPredictor] = {}


def cache_dir() -> Path:
    d = Path.home() / ".cache" / "repro-micco"
    d.mkdir(parents=True, exist_ok=True)
    return d


def get_default_predictor(
    config: MiccoConfig | None = None,
    *,
    quick: bool = True,
    seed: int = 0,
    use_disk_cache: bool = True,
) -> ReuseBoundPredictor:
    """A trained reuse-bound predictor, cached in-process and on disk.

    ``quick=True`` trains a reduced model (fewer tuning samples and
    trees) suitable for benchmark targets; ``quick=False`` reproduces
    the paper's full 300-sample training run.
    """
    config = config or MiccoConfig()
    n_samples = 60 if quick else 300
    n_estimators = 40 if quick else 150
    key = (config.num_devices, n_samples, n_estimators, seed)
    pred = _PREDICTOR_CACHE.get(key)
    if pred is not None:
        return pred

    # The file layout and the eviction semantics the training labels
    # were simulated under are part of the key, so a file saved in
    # another format or under other semantics is never picked up.
    disk_key = hashlib.sha256(
        json.dumps([*key, FORMAT, EVICTION_SEMANTICS]).encode()
    ).hexdigest()[:16]
    disk_path = cache_dir() / f"predictor-{disk_key}.json"
    if use_disk_cache and disk_path.exists():
        pred = load_predictor(disk_path)
        _PREDICTOR_CACHE[key] = pred
        return pred

    pred, _ts = train_default_predictor(
        config, n_samples=n_samples, seed=seed, n_estimators=n_estimators
    )
    _PREDICTOR_CACHE[key] = pred
    if use_disk_cache:
        save_predictor(pred, disk_path)
    return pred


def pressured_config(
    vectors: list[VectorSpec], base: MiccoConfig, subscription: float | None
) -> MiccoConfig:
    """Derive per-cell device memory for a target subscription level.

    ``None`` keeps the base (paper-hardware) capacity.
    """
    if subscription is None:
        return base
    cap = capacity_for_oversubscription(vectors, base.num_devices, subscription)
    return base.with_(memory_bytes=cap)


def run_comparison(
    vectors: list[VectorSpec],
    config: MiccoConfig,
    predictor: ReuseBoundPredictor | None = None,
    *,
    include=("groute", "micco-naive", "micco-optimal"),
) -> dict[str, RunResult]:
    """Run the standard scheduler line-up on one stream."""
    results: dict[str, RunResult] = {}
    for name in include:
        if name == "groute":
            system = Micco.baseline(GrouteScheduler(), config)
        elif name == "micco-naive":
            system = Micco.naive(config)
        elif name == "micco-optimal":
            system = Micco.optimal(predictor or get_default_predictor(config), config)
        else:
            raise ValueError(f"unknown system {name!r}")
        results[name] = system.run(vectors)
    return results
