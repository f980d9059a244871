"""Numeric hadron-contraction kernels (real math, NumPy-backed).

These kernels are what the simulated GPUs "run".  The meson kernel is a
batched complex matrix multiply; the baryon kernel contracts two
batched rank-3 tensors over their trailing two modes.  Both are pure
``matmul``/``einsum`` calls — fully vectorized, no Python loops over
the batch — per the HPC guide idioms.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.tensor.spec import TensorSpec, _spec_unchecked, next_uid


def output_rank(left_rank: int, right_rank: int) -> int:
    """Rank of the contraction output.

    * meson × meson (2, 2): one shared mode → rank 2,
    * baryon × baryon (3, 3): two shared modes → rank 2,
    * mixed (2, 3) / (3, 2): one shared mode → rank 3 (arises mid-way
      through multi-baryon graph contraction, where a rank-2
      intermediate meets a remaining baryon node).
    """
    if (left_rank, right_rank) in ((2, 2), (3, 3)):
        return 2
    if (left_rank, right_rank) in ((2, 3), (3, 2)):
        return 3
    raise ConfigurationError(f"cannot contract rank {left_rank} with rank {right_rank}")


def output_spec(
    left: TensorSpec, right: TensorSpec, label: str = "", *, uid: int | None = None
) -> TensorSpec:
    """Derive the output tensor spec for contracting ``left`` × ``right``.

    The output takes ``uid`` when given, a fresh :func:`next_uid` otherwise.
    """
    if left.size != right.size or left.batch != right.batch:
        raise ConfigurationError("contraction operands must share size and batch")
    # Operand fields already passed validation, so the unchecked spec
    # builder is safe (hot: one output per generated pair).
    return _spec_unchecked(
        next_uid() if uid is None else uid,
        left.size,
        left.batch,
        output_rank(left.rank, right.rank),
        left.dtype_bytes,
        label or f"({left.label}*{right.label})",
    )


def meson_contract(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Batched meson contraction: ``(B, N, N) @ (B, N, N) -> (B, N, N)``."""
    if a.ndim != 3 or b.ndim != 3:
        raise ConfigurationError(f"meson contraction expects rank-3 arrays (batch, N, N), got {a.ndim=} {b.ndim=}")
    if a.shape != b.shape:
        raise ConfigurationError(f"shape mismatch {a.shape} vs {b.shape}")
    return np.matmul(a, b)


def baryon_contract(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Batched baryon contraction over two shared modes.

    ``(B, N, N, N) x (B, N, N, N) -> (B, N, N)`` via
    ``einsum('bxyz,bwyz->bxw')`` — the y/z quark-index pair is summed,
    leaving one free mode per operand.
    """
    if a.ndim != 4 or b.ndim != 4:
        raise ConfigurationError(f"baryon contraction expects rank-4 arrays (batch, N, N, N), got {a.ndim=} {b.ndim=}")
    if a.shape != b.shape:
        raise ConfigurationError(f"shape mismatch {a.shape} vs {b.shape}")
    return np.einsum("bxyz,bwyz->bxw", a, b, optimize=True)


def mixed_contract(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Rank-2 × rank-3 contraction over one shared mode.

    ``(B, N, N) x (B, N, N, N) -> (B, N, N, N)`` via
    ``einsum('bxy,byzw->bxzw')`` (and the mirrored form for the
    rank-3 × rank-2 order).
    """
    if a.ndim == 3 and b.ndim == 4:
        return np.einsum("bxy,byzw->bxzw", a, b, optimize=True)
    if a.ndim == 4 and b.ndim == 3:
        return np.einsum("bxyz,bzw->bxyw", a, b, optimize=True)
    raise ConfigurationError(f"mixed contraction expects ranks (2,3) or (3,2), got ndims {a.ndim=} {b.ndim=}")


def contract_pair(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dispatch on operand ranks: meson, baryon, or mixed."""
    if a.ndim == 3 and b.ndim == 3:
        return meson_contract(a, b)
    if a.ndim == 4 and b.ndim == 4:
        return baryon_contract(a, b)
    if {a.ndim, b.ndim} == {3, 4}:
        return mixed_contract(a, b)
    raise ConfigurationError(f"unsupported operand dimensionality {a.ndim}/{b.ndim}")
