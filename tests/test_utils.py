"""Unit tests for utility modules."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.utils.rng import as_generator, spawn_generators
from repro.utils.timing import Stopwatch
from repro.utils.validation import check_fraction, check_in, check_non_negative, check_positive


class TestRng:
    def test_int_seed_deterministic(self):
        a = as_generator(42).integers(0, 100, 10)
        b = as_generator(42).integers(0, 100, 10)
        np.testing.assert_array_equal(a, b)

    def test_generator_passthrough(self):
        g = np.random.default_rng(0)
        assert as_generator(g) is g

    def test_spawn_independent_streams(self):
        gens = spawn_generators(7, 3)
        draws = [g.integers(0, 10**9) for g in gens]
        assert len(set(draws)) == 3

    def test_spawn_deterministic(self):
        a = [g.integers(0, 10**6) for g in spawn_generators(5, 4)]
        b = [g.integers(0, 10**6) for g in spawn_generators(5, 4)]
        assert a == b

    def test_spawn_from_generator(self):
        gens = spawn_generators(np.random.default_rng(0), 2)
        assert len(gens) == 2

    def test_spawn_negative_rejected(self):
        with pytest.raises(ValueError):
            spawn_generators(0, -1)


class TestStopwatch:
    def test_measure_accumulates(self):
        sw = Stopwatch()
        sw.add("x", 1.0)
        with sw.measure("x"):
            pass
        assert sw.total("x") >= 1.0

    def test_unknown_bucket_zero(self):
        assert Stopwatch().total("missing") == 0.0

    def test_add_direct(self):
        sw = Stopwatch()
        sw.add("y", 1.5)
        sw.add("y", 0.5)
        assert sw.total("y") == pytest.approx(2.0)

    def test_reset(self):
        sw = Stopwatch()
        sw.add("z", 1.0)
        sw.reset()
        assert sw.total("z") == 0.0

    def test_exception_still_recorded(self):
        sw = Stopwatch()
        with pytest.raises(RuntimeError):
            with sw.measure("boom"):
                raise RuntimeError
        assert "boom" in sw.buckets


class TestValidation:
    def test_check_positive(self):
        check_positive("x", 1)
        with pytest.raises(ConfigurationError):
            check_positive("x", 0)

    def test_check_non_negative(self):
        check_non_negative("x", 0)
        with pytest.raises(ConfigurationError):
            check_non_negative("x", -1)

    def test_check_fraction(self):
        check_fraction("x", 0.5)
        check_fraction("x", 0.0)
        with pytest.raises(ConfigurationError):
            check_fraction("x", 1.01)
        with pytest.raises(ConfigurationError):
            check_fraction("x", 0.0, inclusive=False)

    def test_check_in(self):
        check_in("x", "a", ("a", "b"))
        with pytest.raises(ConfigurationError):
            check_in("x", "c", ("a", "b"))
