"""Offline runs do only per-pair work; per-vector records come on demand.

``run_stream`` keeps each vector's metrics, characteristics (when a
predictor needed them), bounds and assignment, and
``RunResult.per_vector`` builds the summary dicts on first read.  The
eager reference below is the loop that built every record while the
stream ran (tracker on every vector, one summary per vector); the lazy
records must equal it bit for bit.
"""

import dataclasses

import pytest

from repro.core.config import MiccoConfig
from repro.core.framework import Micco
from repro.core.session import last_uses
from repro.gpusim.cluster import ClusterState
from repro.gpusim.metrics import ExecutionMetrics
from repro.redstar.datasets import f0d2
from repro.redstar.pipeline import RedstarPipeline
from repro.schedulers.bounds import ReuseBounds
from repro.workloads.characteristics import CharacteristicsTracker
from repro.workloads.synth import SyntheticWorkload, WorkloadParams


class BoundsFromCharacteristics:
    """A predictor whose bounds move with every measured feature."""

    def predict_bounds(self, chars):
        return ReuseBounds(
            4.0 * chars.repeated_rate, 2.0 * chars.distribution, chars.vector_size / 16.0
        )


def eager_run(vectors, system: Micco, *, reset: bool = True) -> list[dict]:
    """``system.run(vectors)`` with every per-vector record built in the loop."""
    scheduler, cluster, engine = system.scheduler, system.cluster, system.engine
    keep_outputs = system.config.keep_outputs
    predictor = system.predictor
    if reset:
        cluster.reset()
        scheduler.reset_stats()
    tracker = CharacteristicsTracker()
    wants_bounds = predictor is not None and hasattr(scheduler, "set_bounds")
    per_vector = []
    for vector, last in zip(vectors, last_uses(vectors, keep_outputs)):
        chars = tracker.observe(vector)
        bounds_used = None
        if wants_bounds:
            bounds = predictor.predict_bounds(chars)
            scheduler.set_bounds(bounds)
            bounds_used = bounds.as_tuple()
        cluster.begin_vector(vector.num_tensors)
        scheduler.begin_vector(vector, cluster)
        metrics = ExecutionMetrics(num_devices=cluster.num_devices)
        assignment = []
        for pair, dead in zip(vector.pairs, last):
            g = scheduler.choose(pair, cluster)
            engine.execute_pair(pair, g, metrics)
            assignment.append(g)
            for code, spec in ((1, pair.left), (2, pair.right), (4, pair.out)):
                if dead & code:
                    cluster.demote(spec.uid)
        if not keep_outputs:
            engine.drain_outputs(vector, assignment, metrics)
        summary = metrics.summary()
        summary["vector_id"] = vector.vector_id
        summary["characteristics"] = chars
        summary["bounds"] = bounds_used
        summary["assignment"] = assignment
        per_vector.append(summary)
    return per_vector


def exact(value):
    """``value`` with every float spelled by ``float.hex``."""
    if isinstance(value, float):
        return value.hex()
    if dataclasses.is_dataclass(value):
        return (type(value).__name__, exact(dataclasses.asdict(value)))
    if isinstance(value, dict):
        return {k: exact(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return type(value)(exact(v) for v in value)
    return value


def redstar_stream():
    return RedstarPipeline(f0d2(time_slices=2)).vectors()


def synthetic_stream():
    params = WorkloadParams(
        vector_size=16, tensor_size=32, batch=4, num_vectors=12, repeated_rate=0.6
    )
    return SyntheticWorkload(params, seed=3).vectors()


def make_system(keep_outputs: bool, with_predictor: bool, memory_bytes: int) -> Micco:
    config = MiccoConfig(num_devices=4, keep_outputs=keep_outputs, memory_bytes=memory_bytes)
    if with_predictor:
        return Micco.optimal(BoundsFromCharacteristics(), config)
    return Micco.naive(config)


#: Each stream with a device size small enough that it evicts.
STREAMS = {
    "redstar": (redstar_stream, 8 << 30),
    "synthetic": (synthetic_stream, 256 << 10),
}


@pytest.mark.parametrize("stream", sorted(STREAMS))
@pytest.mark.parametrize("with_predictor", [False, True])
@pytest.mark.parametrize("keep_outputs", [True, False])
class TestOnDemandRecordsEqualEager:
    def test_records_match(self, stream, with_predictor, keep_outputs):
        build, memory = STREAMS[stream]
        vectors = build()
        lazy = make_system(keep_outputs, with_predictor, memory)
        eager = make_system(keep_outputs, with_predictor, memory)
        result = lazy.run(vectors)
        reference = eager_run(vectors, eager)
        assert result.metrics.counts.evictions > 0
        used = [rec["bounds"] is not None for rec in result.per_vector]
        assert used == [with_predictor] * len(vectors)
        assert exact(result.per_vector) == exact(reference)
        assert result.per_vector is result.per_vector

    def test_second_stream_without_reset(self, stream, with_predictor, keep_outputs):
        """A ``reset=False`` run starts a fresh tracker, as its records do."""
        build, memory = STREAMS[stream]
        vectors = build()
        first, second = vectors[: len(vectors) // 2], vectors[len(vectors) // 2 :]
        lazy = make_system(keep_outputs, with_predictor, memory)
        eager = make_system(keep_outputs, with_predictor, memory)
        lazy_first = lazy.run(first)
        lazy_second = lazy.run(second, reset=False)
        eager_first = eager_run(first, eager)
        eager_second = eager_run(second, eager, reset=False)
        assert exact(lazy_second.per_vector) == exact(eager_second)
        assert exact(lazy_first.per_vector) == exact(eager_first)


class TestOfflineLoopWork:
    def test_no_predictor_run_does_only_per_pair_work(self, monkeypatch):
        """Without a predictor a run measures no characteristics, builds no
        per-vector summary and makes no ``ClusterState.drop`` call; reading
        ``per_vector`` then does the per-vector work once."""
        calls = {"observe": 0, "summary": 0, "drop": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(
            CharacteristicsTracker, "observe", counted("observe", CharacteristicsTracker.observe)
        )
        monkeypatch.setattr(
            ExecutionMetrics, "summary", counted("summary", ExecutionMetrics.summary)
        )
        monkeypatch.setattr(ClusterState, "drop", counted("drop", ClusterState.drop))
        vectors = redstar_stream()
        result = Micco.naive(MiccoConfig(num_devices=4, keep_outputs=True)).run(vectors)
        # The run migrates copies (single-residency D2D moves), which
        # ``execute_pair`` frees inline.
        assert result.metrics.counts.d2d_transfers > 0
        assert calls == {"observe": 0, "summary": 0, "drop": 0}
        assert len(result.per_vector) == len(vectors)
        assert calls == {"observe": len(vectors), "summary": len(vectors), "drop": 0}
