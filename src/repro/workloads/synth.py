"""Synthetic vector-stream generator.

Each generated vector has ``vector_size`` input-tensor slots: a
``repeated_rate`` fraction is drawn from the history of previously used
tensors (via the configured distribution picker), the rest are fresh
tensors.  Slots are shuffled and paired consecutively into contraction
pairs — matching the paper's evaluation setup where vector size,
tensor size, repeated rate and distribution are the swept knobs.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterator
from dataclasses import dataclass, replace
from types import MappingProxyType

import numpy as np

from repro.errors import WorkloadError
from repro.tensor.spec import TensorPair, TensorSpec, VectorSpec, _spec_unchecked, next_uid
from repro.utils.rng import as_generator
from repro.utils.validation import check_fraction, check_in, check_positive
from repro.workloads.distributions import make_picker


@dataclass(frozen=True)
class WorkloadParams:
    """Knobs of the synthetic workload (the paper's Table I columns).

    Parameters
    ----------
    vector_size:
        Tensors per vector (paper sweeps 8–64).  Must be even: slots
        pair up into contractions.
    tensor_size:
        Dimension length N (paper sweeps 128–768; default 384).
    repeated_rate:
        Fraction of slots drawn from previously seen tensors.
    distribution:
        ``'uniform'`` or ``'gaussian'`` selection of repeated tensors.
    num_vectors:
        Stream length.
    batch, rank, dtype_bytes:
        Forwarded to :class:`TensorSpec`.
    sigma_frac:
        Gaussian picker concentration.
    """

    vector_size: int = 64
    tensor_size: int = 384
    repeated_rate: float = 0.5
    distribution: str = "uniform"
    num_vectors: int = 10
    batch: int = 32
    rank: int = 2
    dtype_bytes: int = 8
    sigma_frac: float = 0.05

    def __post_init__(self):
        check_positive("vector_size", self.vector_size)
        if self.vector_size % 2:
            raise WorkloadError(f"vector_size must be even (slots pair up), got {self.vector_size}")
        check_positive("tensor_size", self.tensor_size)
        check_fraction("repeated_rate", self.repeated_rate)
        check_in("distribution", self.distribution, ("uniform", "gaussian"))
        check_positive("num_vectors", self.num_vectors)
        check_positive("batch", self.batch)
        check_in("rank", self.rank, (2, 3))
        check_positive("dtype_bytes", self.dtype_bytes)

    @property
    def repeat_slots(self) -> int:
        """Slots per vector drawn from the history (every vector but the first)."""
        return int(round(self.repeated_rate * self.vector_size))

    def stream_uids(self) -> int:
        """Tensor uids a whole stream allocates: fresh inputs plus pair outputs.

        The first vector's slots are all fresh; each later vector adds
        ``vector_size - repeat_slots`` fresh inputs.  Every pair adds
        one output.
        """
        pairs = self.vector_size // 2
        later = self.vector_size - self.repeat_slots + pairs
        return self.vector_size + pairs + (self.num_vectors - 1) * later

    def with_(self, **kwargs) -> "WorkloadParams":
        """Copy with overrides — convenient for experiment sweeps."""
        return replace(self, **kwargs)


class SyntheticWorkload:
    """Deterministic stream of vectors with controlled characteristics.

    Example
    -------
    >>> wl = SyntheticWorkload(WorkloadParams(vector_size=8, num_vectors=3), seed=0)
    >>> vectors = list(wl)
    >>> [len(v.pairs) for v in vectors]
    [4, 4, 4]
    """

    def __init__(self, params: WorkloadParams, seed=0, *, uids: Iterator[int] | None = None):
        self.params = params
        #: Tensor uid source: the process-wide counter, or ``uids`` (a
        #: block reserved up front, see :meth:`WorkloadParams.stream_uids`).
        self._next_uid = next_uid if uids is None else uids.__next__
        self._rng = as_generator(seed)
        self._picker = make_picker(params.distribution, sigma_frac=params.sigma_frac)
        #: Uid of every input tensor ever emitted (the pick pool), in
        #: emission order.  Entry ``i`` is the tensor labelled ``t{i}``;
        #: every other field comes from ``params``, so a repeat pick
        #: rebuilds its spec exactly from the uid.
        self.pool = array("q")
        self._emitted = 0
        #: Repeat count -> the read-only ``meta`` every vector with that
        #: many repeated slots shares: 0 for the first vector,
        #: ``repeat_slots`` for every later one.  Every repeated slot
        #: comes from the pool (seen before its vector) and every fresh
        #: tensor has a brand-new uid, so the measured rate is exactly
        #: ``n_repeat / vector_size``.
        self._meta = {
            n: MappingProxyType({
                "declared_repeated_rate": params.repeated_rate,
                "measured_repeated_rate": n / params.vector_size,
                "distribution": params.distribution,
                "tensor_size": params.tensor_size,
                "vector_size": params.vector_size,
            })
            for n in (0, params.repeat_slots)
        }

    def next_vector(self) -> VectorSpec:
        """Generate the next vector in the stream.

        A repeated slot gets a fresh spec object equal to the one its
        tensor was first emitted with (same uid, fields and label).
        """
        return self._next_vector(None)

    def _next_vector(self, built: list[TensorSpec] | None) -> VectorSpec:
        # ``built``, when given, holds the spec of every pool entry and
        # is extended with each fresh tensor, so repeat picks reuse
        # one object per tensor instead of rebuilding it.  Params are
        # validated at WorkloadParams construction, so the unchecked
        # spec builder is safe here (hot: one per slot).
        p = self.params
        pool = self.pool
        size, batch, rank, dtype_bytes = p.tensor_size, p.batch, p.rank, p.dtype_bytes
        n_slots = p.vector_size
        n_repeat = p.repeat_slots if pool else 0
        n_new = n_slots - n_repeat

        slots: list[TensorSpec] = []
        if n_repeat:
            idx = self._picker.pick(len(pool), n_repeat, self._rng)
            if built is None:
                slots = [
                    _spec_unchecked(pool[i], size, batch, rank, dtype_bytes, f"t{i}")
                    for i in idx
                ]
            else:
                slots = [built[i] for i in idx]
        for _ in range(n_new):
            uid = self._next_uid()
            t = _spec_unchecked(uid, size, batch, rank, dtype_bytes, f"t{len(pool)}")
            pool.append(uid)
            if built is not None:
                built.append(t)
            slots.append(t)

        order = self._rng.permutation(n_slots).tolist()
        slots = [slots[i] for i in order]
        pairs = [
            TensorPair.make(slots[2 * i], slots[2 * i + 1], uid=self._next_uid())
            for i in range(n_slots // 2)
        ]

        vec = VectorSpec(pairs=pairs, vector_id=self._emitted, meta=self._meta[n_repeat])
        self._emitted += 1
        return vec

    def _generate(self, n: int) -> Iterator[VectorSpec]:
        """``n`` vectors sharing one spec object per tensor among them."""
        p = self.params
        built = [
            _spec_unchecked(uid, p.tensor_size, p.batch, p.rank, p.dtype_bytes, f"t{i}")
            for i, uid in enumerate(self.pool)
        ]
        for _ in range(n):
            yield self._next_vector(built)

    def vectors(self, n: int | None = None) -> list[VectorSpec]:
        """Generate ``n`` vectors (default: ``params.num_vectors``).

        Every slot holding one tensor holds the same spec object, as a
        materialised stream always did.
        """
        return list(self._generate(self.params.num_vectors if n is None else n))

    def __iter__(self):
        return self._generate(self.params.num_vectors - self._emitted)


def generate_stream(params: WorkloadParams, seed=0) -> list[VectorSpec]:
    """One-shot helper: build a workload and materialize its stream."""
    return SyntheticWorkload(params, seed=seed).vectors()
