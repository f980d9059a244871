"""Symbolic tensor metadata — the currency of the scheduling layer.

A *tensor* here is what the paper attaches to a hadron node: a batched
matrix (meson systems, rank 2) or a batched rank-3 tensor (baryon
systems).  Identity matters more than value for scheduling: two pairs
that reference the same :class:`TensorSpec` ``uid`` can reuse a single
GPU-resident copy, which is exactly the data-reuse opportunity MICCO
exploits.
"""

from __future__ import annotations

import itertools
import threading
from collections.abc import Mapping
from dataclasses import dataclass, field

from repro.errors import ConfigurationError

#: Bytes per element for single-precision complex (the Redstar default).
COMPLEX64_BYTES = 8
#: Bytes per element for double-precision complex.
COMPLEX128_BYTES = 16

_uid_lock = threading.Lock()
_uid_counter = itertools.count()


def next_uid() -> int:
    """Return a process-unique tensor id (thread-safe, monotonic).

    ``itertools.count.__next__`` is a single C-level step, so it is
    atomic under the GIL — no lock needed on this hot path.  The lock
    only guards the counter *swap* in :func:`reset_uid_counter`.
    """
    return next(_uid_counter)


def reserve_uids(n: int) -> int:
    """Take the next ``n`` uids off the process-wide counter; return the first.

    The caller hands out ``first .. first + n - 1`` itself, so a block
    reserved now keeps its numbers however late they are used.
    """
    global _uid_counter
    with _uid_lock:
        first = next(_uid_counter)
        _uid_counter = itertools.count(first + n)
    return first


def reset_uid_counter() -> None:
    """Reset uid allocation — test isolation only."""
    global _uid_counter
    with _uid_lock:
        _uid_counter = itertools.count()


@dataclass(frozen=True, slots=True)
class TensorSpec:
    """Metadata for one batched hadron tensor.

    Parameters
    ----------
    uid:
        Unique identity.  Reuse analysis is identity-based: the same
        ``uid`` appearing in two pairs is the same physical tensor.
    size:
        Dimension length ``N`` of each mode (the paper's *tensor size*,
        e.g. 128–768).
    batch:
        Leading batch dimension (number of time-slice / momentum
        combinations contracted together in one kernel launch).
    rank:
        2 for mesons (matrices), 3 for baryons.
    dtype_bytes:
        Bytes per element; complex64 by default.
    label:
        Optional human-readable name (hadron node id).
    """

    uid: int
    size: int
    batch: int = 32
    rank: int = 2
    dtype_bytes: int = COMPLEX64_BYTES
    label: str = ""
    #: Total element count including the batch dimension (derived,
    #: computed once — these sit on the scheduler's hottest paths).
    elements: int = field(init=False, repr=False, compare=False)
    #: Device memory footprint in bytes (derived, computed once).
    nbytes: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.size <= 0:
            raise ConfigurationError(f"tensor size must be > 0, got {self.size}")
        if self.batch <= 0:
            raise ConfigurationError(f"tensor batch must be > 0, got {self.batch}")
        if self.rank not in (2, 3):
            raise ConfigurationError(f"tensor rank must be 2 (meson) or 3 (baryon), got {self.rank}")
        if self.dtype_bytes <= 0:
            raise ConfigurationError(f"dtype_bytes must be > 0, got {self.dtype_bytes}")
        elements, nbytes = _derived_ints(self.size, self.batch, self.rank, self.dtype_bytes)
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "nbytes", nbytes)

    @property
    def shape(self) -> tuple[int, ...]:
        """NumPy shape ``(batch, size, ..., size)``."""
        return (self.batch,) + (self.size,) * self.rank

    def derived(self, *, rank: int | None = None, label: str = "") -> "TensorSpec":
        """A fresh tensor spec with the same size/batch but a new uid.

        Used for contraction outputs.  ``self`` already passed
        validation, so the copy skips it.
        """
        return _spec_unchecked(
            next_uid(),
            self.size,
            self.batch,
            self.rank if rank is None else rank,
            self.dtype_bytes,
            label,
        )


def _spec_unchecked(
    uid: int, size: int, batch: int, rank: int, dtype_bytes: int, label: str
) -> TensorSpec:
    """Build a :class:`TensorSpec` bypassing ``__init__`` validation.

    Stream generation constructs tens of thousands of specs whose
    fields were already validated upstream (workload params, an
    existing spec); re-running the dataclass ``__init__`` +
    ``__post_init__`` checks roughly doubles construction cost.
    Callers MUST guarantee the arguments satisfy the class invariants.
    """
    self = _new_spec(TensorSpec)
    _set_uid(self, uid)
    _set_size(self, size)
    _set_batch(self, batch)
    _set_rank(self, rank)
    _set_dtype_bytes(self, dtype_bytes)
    _set_label(self, label)
    elements, nbytes = _derived_ints(size, batch, rank, dtype_bytes)
    _set_elements(self, elements)
    _set_nbytes(self, nbytes)
    return self


# The slot descriptors' setters write a frozen spec's fields directly,
# skipping the by-name lookup of ``object.__setattr__``; the generator
# builds one spec per slot of every vector.
_new_spec = TensorSpec.__new__
(
    _set_uid, _set_size, _set_batch, _set_rank, _set_dtype_bytes, _set_label,
    _set_elements, _set_nbytes,
) = (
    TensorSpec.__dict__[name].__set__
    for name in ("uid", "size", "batch", "rank", "dtype_bytes", "label", "elements", "nbytes")
)


#: ``(size, batch, rank, dtype_bytes) -> (elements, nbytes)``.  Every
#: spec of one shape shares the same two int objects instead of
#: allocating its own (64 B per spec); a run sees a handful of shapes.
_DERIVED: dict[tuple[int, int, int, int], tuple[int, int]] = {}


def _derived_ints(size: int, batch: int, rank: int, dtype_bytes: int) -> tuple[int, int]:
    key = (size, batch, rank, dtype_bytes)
    hit = _DERIVED.get(key)
    if hit is not None:
        return hit
    elements = batch * (size * size if rank == 2 else size * size * size)
    hit = _DERIVED[key] = (elements, elements * dtype_bytes)
    return hit


@dataclass(frozen=True, slots=True)
class TensorPair:
    """One hadron contraction: two input tensors and one output.

    The pair is the paper's scheduling unit — both inputs and the output
    land on the same GPU (a contraction kernel runs on one device).
    """

    left: TensorSpec
    right: TensorSpec
    out: TensorSpec

    def __post_init__(self):
        if self.left.size != self.right.size:
            raise ConfigurationError(
                f"contraction requires equal tensor sizes, got {self.left.size} vs {self.right.size}"
            )
        if self.left.batch != self.right.batch:
            raise ConfigurationError(
                f"contraction requires equal batch sizes, got {self.left.batch} vs {self.right.batch}"
            )

    @property
    def inputs(self) -> tuple[TensorSpec, TensorSpec]:
        return (self.left, self.right)

    @property
    def input_uids(self) -> tuple[int, int]:
        return (self.left.uid, self.right.uid)

    @classmethod
    def make(
        cls, left: TensorSpec, right: TensorSpec, label: str = "", *, uid: int | None = None
    ) -> "TensorPair":
        """Build a pair, deriving the output spec (uid ``uid``, default fresh) from the inputs."""
        global _output_spec
        if _output_spec is None:
            # Deferred to dodge the spec↔contraction import cycle, but
            # resolved exactly once (``make`` sits on the stream-
            # generation hot path).
            from repro.tensor.contraction import output_spec as _os

            _output_spec = _os
        # output_spec rejects size/batch mismatches before the pair is
        # assembled, so the dataclass re-validation can be skipped.
        out = _output_spec(left, right, label=label, uid=uid)
        pair = cls.__new__(cls)
        _set = object.__setattr__
        _set(pair, "left", left)
        _set(pair, "right", right)
        _set(pair, "out", out)
        return pair


#: Cache for :func:`repro.tensor.contraction.output_spec` (import cycle).
_output_spec = None


class _Weakrefable:
    """Slot base giving a ``slots=True`` dataclass a ``__weakref__``
    (``weakref_slot=True`` needs Python 3.11)."""

    __slots__ = ("__weakref__",)


@dataclass(slots=True)
class VectorSpec(_Weakrefable):
    """One *vector*: a batch of independent tensor pairs (one stage slice).

    Mirrors the paper's input unit (Fig. 6): the scheduler receives one
    vector at a time, extracts its data characteristics, obtains reuse
    bounds, then assigns each pair to a GPU.

    ``meta`` carries generator-declared characteristics (repeated rate,
    distribution, ...) for experiment bookkeeping; schedulers must not
    read it — they only see measured state.  A generator may share one
    read-only mapping among many vectors (see
    :class:`~repro.workloads.synth.SyntheticWorkload`).
    """

    pairs: list[TensorPair]
    vector_id: int = 0
    meta: Mapping = field(default_factory=dict)

    def __post_init__(self):
        if not self.pairs:
            raise ConfigurationError("a vector must contain at least one tensor pair")

    def __len__(self) -> int:
        return len(self.pairs)

    def __iter__(self):
        return iter(self.pairs)

    @property
    def num_tensors(self) -> int:
        """The paper's ``numTensor``: input-tensor slots (2 per pair)."""
        return 2 * len(self.pairs)

    @property
    def tensor_size(self) -> int:
        """Common dimension length of the vector's tensors."""
        return self.pairs[0].left.size

    def unique_input_uids(self) -> set[int]:
        """Distinct input-tensor identities referenced by this vector."""
        uids: set[int] = set()
        for p in self.pairs:
            uids.add(p.left.uid)
            uids.add(p.right.uid)
        return uids

    def input_bytes_unique(self) -> int:
        """Bytes of the distinct input tensors (working set, inputs only)."""
        seen: dict[int, int] = {}
        for p in self.pairs:
            seen[p.left.uid] = p.left.nbytes
            seen[p.right.uid] = p.right.nbytes
        return sum(seen.values())

    def output_bytes(self) -> int:
        """Bytes of all contraction outputs of this vector."""
        return sum(p.out.nbytes for p in self.pairs)
