"""Smoke tests for the experiment runners (tiny configurations)."""

import numpy as np
import pytest

from repro.core.config import MiccoConfig
from repro.experiments import EXPERIMENTS, Table
from repro.experiments import (
    ablations,
    fig5_spearman,
    fig7_overall,
    fig8_bounds,
    fig9_scalability,
    fig10_tensor_size,
    fig11_oversubscription,
    tab4_regression,
    tab5_overhead,
    tab6_redstar,
)
from repro.experiments.common import pressured_config, run_comparison
from repro.ml.dataset import build_training_set
from repro.schedulers.bounds import ReuseBounds
from repro.workloads.synth import SyntheticWorkload, WorkloadParams

TINY = dict(num_devices=2, num_vectors=3, batch=2, seed=1)


class StubPredictor:
    def predict_bounds(self, chars):
        return ReuseBounds(2, 2, 0)


class TestTable:
    def test_render(self):
        t = Table("T", ["a", "bb"])
        t.add_row(1, 2.5)
        t.add_row("x", 0.001)
        text = t.to_text()
        assert "T" in text and "bb" in text and "0.0010" in text

    def test_registry_complete(self):
        assert set(EXPERIMENTS) == {
            "fig5", "fig7", "fig8", "fig9", "fig10", "fig11",
            "tab4", "tab5", "tab6", "ablations", "sensitivity",
        }
        for mod in EXPERIMENTS.values():
            assert hasattr(mod, "run") and hasattr(mod, "main")


class TestCommon:
    def test_run_comparison_line_up(self):
        vectors = SyntheticWorkload(WorkloadParams(vector_size=8, tensor_size=16, batch=2, num_vectors=2), seed=0).vectors()
        runs = run_comparison(
            vectors, MiccoConfig(num_devices=2), StubPredictor(),
        )
        assert set(runs) == {"groute", "micco-naive", "micco-optimal"}

    def test_run_comparison_unknown_system(self):
        vectors = SyntheticWorkload(WorkloadParams(vector_size=8, tensor_size=16, batch=2, num_vectors=1), seed=0).vectors()
        with pytest.raises(ValueError):
            run_comparison(vectors, MiccoConfig(num_devices=2), StubPredictor(), include=("slurm",))

    def test_pressured_config(self):
        vectors = SyntheticWorkload(WorkloadParams(vector_size=8, tensor_size=16, batch=2, num_vectors=2), seed=0).vectors()
        base = MiccoConfig(num_devices=2)
        assert pressured_config(vectors, base, None) is base
        tight = pressured_config(vectors, base, 2.0)
        assert tight.memory_bytes < base.memory_bytes


class TestFig7:
    def test_tiny_run(self):
        res = fig7_overall.run(
            distributions=("uniform",), vector_sizes=(8,), repeated_rates=(0.5,),
            tensor_size=16, **TINY, quick=True, subscription=None, predictor=StubPredictor(),
        )
        assert len(res.rows) == 1
        row = res.rows[0]
        assert row["groute"] > 0 and row["speedup"] > 0
        assert res.table().to_text()
        assert res.geomean_speedup("uniform") == pytest.approx(row["speedup"])


class TestFig8:
    def test_tiny_run(self):
        res = fig8_bounds.run(tensor_size=16, num_devices=2, num_vectors=2, batch=2, subscription=None, seed=0)
        assert len(res.cases) == 3
        assert all(len(c["sweep"]) == 13 for c in res.cases)
        name, g = res.best_setting(0)
        assert g == max(res.cases[0]["sweep"].values())

    def test_slot_scaling(self):
        assert fig8_bounds.slot_scaled(ReuseBounds(0, 2, 1)).as_tuple() == (0.0, 4.0, 2.0)


class TestFig9:
    def test_tiny_run(self):
        res = fig9_scalability.run(
            device_counts=(1, 2), distributions=("uniform",),
            vector_size=8, tensor_size=16, num_vectors=2, batch=2,
            subscription=None, seed=0, quick=True, predictor=StubPredictor(),
        )
        assert [r["num_devices"] for r in res.rows] == [1, 2]
        assert res.rows[0]["speedup"] == pytest.approx(1.0)  # 1 GPU: no choice


class TestFig10:
    def test_tiny_run(self):
        res = fig10_tensor_size.run(
            tensor_sizes=(16, 32), distributions=("uniform",),
            vector_size=8, num_devices=2, num_vectors=2, batch=2,
            subscription=None, seed=0, quick=True, predictor=StubPredictor(),
        )
        gf = res.series("uniform", "micco-optimal")
        assert gf[1] > gf[0]  # bigger tensors -> higher GFLOPS


class TestFig11:
    def test_tiny_run(self):
        res = fig11_oversubscription.run(
            rates=(1.25, 2.0), distributions=("uniform",),
            vector_size=8, tensor_size=32, num_devices=2, num_vectors=3, batch=4,
            seed=0, quick=True, predictor=StubPredictor(),
        )
        assert len(res.rows) == 2
        assert res.rows[1]["evictions_groute"] >= res.rows[0]["evictions_groute"]


class TestFig5AndTab4:
    @pytest.fixture(scope="class")
    def tiny_ts(self):
        return build_training_set(
            8, MiccoConfig(num_devices=2), seed=0,
            fractions=(0.0, 0.5), n_seeds=1, num_vectors=3, batch=2,
        )

    def test_fig5_matrix(self, tiny_ts):
        res = fig5_spearman.from_training_set(tiny_ts)
        assert res.matrix.shape == (8, 8)
        np.testing.assert_allclose(np.diag(res.matrix), 1.0)
        assert -1.001 <= res.matrix.min() and res.matrix.max() <= 1.001
        assert res.corr("gflops", "tensor_size") == res.matrix[-1, 1]

    def test_tab4_scores(self, tiny_ts):
        res = tab4_regression.evaluate_models(tiny_ts, n_estimators=4, seed=0)
        assert set(res.scores) == {"linear", "gradient-boosting", "random-forest"}
        assert res.table().to_text()


class TestTab5:
    def test_tiny_run(self, monkeypatch):
        monkeypatch.setattr(
            "repro.experiments.tab5_overhead.get_default_predictor",
            lambda *a, **k: StubPredictor(),
        )
        res = tab5_overhead.run(
            distributions=("uniform",), vector_size=8, tensor_size=16,
            num_devices=2, num_vectors=2, batch=2, subscription=None, seed=0,
        )
        row = res.rows[0]
        assert row["schedule_ms"] > 0
        assert 0 <= row["overhead_fraction"] < 1


class TestTab6:
    def test_tiny_correlator(self, monkeypatch):
        monkeypatch.setattr(
            "repro.experiments.tab6_redstar.get_default_predictor",
            lambda *a, **k: StubPredictor(),
        )
        res = tab6_redstar.run(functions=("a1_rhopi",), num_devices=2, time_slices=2, seed=0)
        row = res.rows[0]
        assert row["tensor_size"] == 128
        assert row["num_graphs"] > 0
        assert row["speedup"] > 0


class TestEvictionAblation:
    def test_stream_mixes_two_tensor_sizes(self):
        params = ablations.DEFAULT_PARAMS.with_(num_vectors=2, batch=2)
        vectors = ablations.mixed_size_stream(params, seed=7)
        assert [v.tensor_size for v in vectors] == [384, 192, 384, 192]
        assert [v.vector_id for v in vectors] == [0, 1, 2, 3]

    def test_largest_first_is_not_fifo(self):
        # With one tensor size largest-first ties everywhere and falls
        # back to oldest-first, printing FIFO's row.
        params = ablations.DEFAULT_PARAMS.with_(num_vectors=8, batch=16)
        rows = {r["variant"]: r for r in ablations.run_eviction_ablation(params).rows}
        assert rows["largest"] != {**rows["fifo"], "variant": "largest"}
        assert rows["largest"]["evictions"] != rows["fifo"]["evictions"]
