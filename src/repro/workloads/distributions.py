"""Selection distributions for repeated tensors.

The paper synthesizes repeated data two ways: *Uniform* — every
previously seen tensor is equally likely to reappear — and *Gaussian* —
a biased pick concentrated on a narrow band of the history, so a few
tensors reappear many times.  Bias is what stresses the reuse/balance
trade-off: clustered repeats pull work toward whichever GPU holds the
popular tensors.
"""

from __future__ import annotations

import numpy as np

from repro.errors import WorkloadError
from repro.utils.rng import as_generator
from repro.utils.validation import check_fraction


class UniformPicker:
    """Uniformly random indices into the tensor history."""

    name = "uniform"

    def pick(self, pool_size: int, n: int, rng: np.random.Generator) -> list[int]:
        """``n`` indices in ``[0, pool_size)``, as Python ints: the
        generator indexes lists with them, and indexing by a numpy scalar
        pays ``__index__`` per lookup."""
        if pool_size <= 0:
            raise WorkloadError("cannot pick repeated tensors from an empty pool")
        # Same draws as integers(0, pool_size, size=n), without the low
        # bound's argument handling.
        return rng.integers(pool_size, size=n).tolist()


class GaussianPicker:
    """Gaussian-biased indices concentrated around a per-call center.

    Bias means *concentration*: within one vector, picks cluster on a
    narrow band of the history so a few tensors repeat many times.  The
    band's center is redrawn uniformly per call — the popular tensors
    shift between vectors, as they do when different contraction graphs
    share different hadron nodes.

    Parameters
    ----------
    sigma_frac:
        Standard deviation as a fraction of the pool size.  Smaller
        values concentrate the picks (stronger bias).
    """

    name = "gaussian"

    def __init__(self, sigma_frac: float = 0.05):
        check_fraction("sigma_frac", sigma_frac, inclusive=False)
        self.sigma_frac = sigma_frac

    def pick(self, pool_size: int, n: int, rng: np.random.Generator) -> list[int]:
        """``n`` indices in ``[0, pool_size)``, as Python ints (see
        :meth:`UniformPicker.pick`)."""
        if pool_size <= 0:
            raise WorkloadError("cannot pick repeated tensors from an empty pool")
        center = rng.uniform(0, pool_size - 1)
        sigma = max(self.sigma_frac * pool_size, 0.5)
        # Python's round() is round-half-even like np.rint, so this is
        # clip(rint(normal(...)), 0, pool_size - 1) bit for bit, without
        # three numpy calls on a dozen elements.
        hi = pool_size - 1
        out = []
        for x in rng.normal(center, sigma, size=n).tolist():
            i = round(x)
            out.append(0 if i < 0 else hi if i > hi else i)
        return out


def make_picker(distribution: str, sigma_frac: float = 0.05):
    """Factory: ``'uniform'`` or ``'gaussian'`` → picker instance."""
    if distribution == "uniform":
        return UniformPicker()
    if distribution == "gaussian":
        return GaussianPicker(sigma_frac=sigma_frac)
    raise WorkloadError(f"unknown distribution {distribution!r}; use 'uniform' or 'gaussian'")


def sample_multiplicities(picker, pool_size: int, n: int, seed=0) -> np.ndarray:
    """Histogram of pick counts — used by tests to verify bias."""
    rng = as_generator(seed)
    idx = picker.pick(pool_size, n, rng)
    return np.bincount(idx, minlength=pool_size)
