"""Unit tests for repeated-tensor selection distributions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import WorkloadError
from repro.workloads.distributions import (
    GaussianPicker,
    UniformPicker,
    make_picker,
    sample_multiplicities,
)


class TestUniformPicker:
    def test_indices_in_range(self, rng):
        idx = UniformPicker().pick(100, 1000, rng)
        assert min(idx) >= 0 and max(idx) < 100

    def test_covers_pool_roughly_evenly(self, rng):
        counts = np.bincount(UniformPicker().pick(10, 10_000, rng), minlength=10)
        assert counts.min() > 800  # expectation 1000 each

    def test_empty_pool_rejected(self, rng):
        with pytest.raises(WorkloadError):
            UniformPicker().pick(0, 5, rng)


class TestGaussianPicker:
    def test_indices_in_range(self, rng):
        idx = GaussianPicker(0.05).pick(100, 1000, rng)
        assert min(idx) >= 0 and max(idx) < 100

    def test_more_concentrated_than_uniform(self):
        """Top-decile mass of gaussian picks far exceeds uniform's."""
        pool, n = 200, 4000
        cu = np.sort(sample_multiplicities(UniformPicker(), pool, n, seed=7))[::-1]
        cg = np.sort(sample_multiplicities(GaussianPicker(0.03), pool, n, seed=7))[::-1]
        top = pool // 10
        assert cg[:top].sum() > 2 * cu[:top].sum()

    def test_smaller_sigma_is_more_biased(self):
        pool, n = 200, 4000
        tight = np.sort(sample_multiplicities(GaussianPicker(0.01), pool, n, seed=3))[::-1]
        loose = np.sort(sample_multiplicities(GaussianPicker(0.2), pool, n, seed=3))[::-1]
        assert tight[:10].sum() > loose[:10].sum()

    def test_center_varies_between_calls(self):
        """Per-call random centers: two draws cluster in different places."""
        rng = np.random.default_rng(0)
        p = GaussianPicker(0.02)
        means = [np.mean(p.pick(1000, 50, rng)) for _ in range(8)]
        assert np.std(means) > 50

    def test_sigma_frac_validated(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            GaussianPicker(0.0)

    def test_empty_pool_rejected(self, rng):
        with pytest.raises(WorkloadError):
            GaussianPicker().pick(0, 5, rng)


class TestFactory:
    def test_uniform(self):
        assert isinstance(make_picker("uniform"), UniformPicker)

    def test_gaussian_passes_sigma(self):
        p = make_picker("gaussian", sigma_frac=0.1)
        assert isinstance(p, GaussianPicker)
        assert p.sigma_frac == 0.1

    def test_unknown_rejected(self):
        with pytest.raises(WorkloadError):
            make_picker("zipf")


class TestPickFormulas:
    """Both pickers are pinned to the numpy formulas they replace:
    ``integers(0, pool_size, size=n)`` and
    ``clip(rint(normal(center, sigma, n)).astype(int64), 0, pool_size - 1)``."""

    @staticmethod
    def uniform_reference(pool_size, n, rng):
        return rng.integers(0, pool_size, size=n)

    @staticmethod
    def gaussian_reference(picker, pool_size, n, rng):
        center = rng.uniform(0, pool_size - 1)
        sigma = max(picker.sigma_frac * pool_size, 0.5)
        idx = np.rint(rng.normal(center, sigma, size=n)).astype(np.int64)
        return np.clip(idx, 0, pool_size - 1)

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        pool_size=st.integers(1, 5_000),
        n=st.integers(0, 50),
        sigma_frac=st.sampled_from([0.0001, 0.01, 0.05, 0.3, 0.99]),
    )
    def test_same_draws_as_numpy_formulas(self, seed, pool_size, n, sigma_frac):
        def rng():
            return np.random.default_rng(seed)

        uniform = UniformPicker().pick(pool_size, n, rng())
        assert uniform == self.uniform_reference(pool_size, n, rng()).tolist()
        picker = GaussianPicker(sigma_frac)
        gaussian = picker.pick(pool_size, n, rng())
        assert gaussian == self.gaussian_reference(picker, pool_size, n, rng()).tolist()
        assert all(type(i) is int for i in uniform + gaussian)

    def test_half_way_draws_round_to_even(self):
        """``round`` and ``np.rint`` agree on exact halves (banker's rounding)."""
        halves = [0.5, 1.5, 2.5, -0.5, 3.5, 1e6 + 0.5]
        assert [round(x) for x in halves] == np.rint(halves).astype(np.int64).tolist()
