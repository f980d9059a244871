"""FLOP and byte accounting for hadron contractions.

The paper reports throughput in GFLOPS; the simulator computes it as
``total_flops / simulated_makespan``.  Counting conventions:

* A complex multiply-add is 8 real flops (4 mul + 4 add).
* Meson contraction = batched matmul of two ``(N, N)`` matrices:
  ``batch * 8 * N**3`` real flops.
* Baryon contraction = batched rank-3 × rank-3 contraction over two
  shared modes (``bxyz,bwyz->bxw``): ``batch * 8 * N**4`` real flops.
* Mixed rank-2 × rank-3 = one shared mode, rank-3 output
  (``bxy,byzw->bxzw``): ``batch * 8 * N**4`` real flops.
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.tensor.spec import TensorPair, VectorSpec

#: Real flops per complex multiply-add.
COMPLEX_MAC_FLOPS = 8


def contraction_flops(size: int, batch: int, rank: int, right_rank: int | None = None) -> int:
    """Real flops of one batched hadron contraction.

    ``rank`` (and optionally ``right_rank``) select the kernel: meson
    (2, 2) costs ``8·B·N³``; baryon (3, 3) and mixed (2, 3)/(3, 2)
    cost ``8·B·N⁴``.
    """
    rr = rank if right_rank is None else right_rank
    if (rank, rr) == (2, 2):
        return batch * COMPLEX_MAC_FLOPS * size**3
    if (rank, rr) in ((3, 3), (2, 3), (3, 2)):
        return batch * COMPLEX_MAC_FLOPS * size**4
    raise ConfigurationError(f"unsupported rank combination ({rank}, {rr})")


def pair_flops(pair: TensorPair) -> int:
    """Real flops to execute ``pair``'s contraction kernel."""
    t = pair.left
    return contraction_flops(t.size, t.batch, t.rank, pair.right.rank)


def pair_bytes(pair: TensorPair) -> int:
    """Bytes touched by ``pair``: both inputs plus the output."""
    return pair.left.nbytes + pair.right.nbytes + pair.out.nbytes


def vector_flops(vector: VectorSpec) -> int:
    """Total real flops of every contraction in ``vector``."""
    return sum(pair_flops(p) for p in vector.pairs)
