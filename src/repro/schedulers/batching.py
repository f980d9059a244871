"""Cross-vector batching: merge like-shaped vectors into one scheduling round.

MICCO's reuse-vs-balance tradeoff is normally evaluated one vector at a
time, but under serving load the admission queue routinely holds several
vectors whose tensor sets overlap — scheduling them independently
forfeits exactly the cross-pair reuse the paper's patterns (Fig. 4,
Table II) are built to capture.  This module provides the merged-vector
entry point the serving loop batches through:

* :func:`merge_vectors` concatenates the member vectors' pairs into one
  *super-vector*.  Scheduling it through the unchanged per-pair MICCO
  path preserves the ReuseBounds semantics over the **combined** tensor
  count: ``ClusterState.begin_vector`` receives the merged
  ``num_tensors``, so ``balanceNum = Σ numTensor / numAliveGPU`` and the
  availability test ``assigned[g] < reuseBd[k] + balanceNum`` bound each
  GPU's share of the whole round, not of any single member.
* :func:`split_assignment` de-multiplexes the merged pair→device
  assignment back into per-member slices (index-aligned with each
  member's own ``pairs``), so per-vector completion, latency and fault
  recovery accounting stay exact.
* :func:`batch_shape_key` / :func:`batch_footprint_bytes` are the
  merge predicates: only vectors of the same workload shape
  family merge, within a combined device-memory footprint budget.
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.tensor.spec import VectorSpec


def batch_shape_key(vector: VectorSpec) -> tuple[int, int, int, int]:
    """Workload shape family of a vector: ``(size, batch, rank, dtype)``.

    Two vectors may share a scheduling round only when their tensors
    agree on all four — mixing tensor sizes would skew ``balanceNum``
    (slots of very different cost would count equally) and mixing
    dtypes/batches would skew the footprint arithmetic.
    """
    t = vector.pairs[0].left
    return (t.size, t.batch, t.rank, t.dtype_bytes)


def batch_footprint_bytes(vectors) -> int:
    """Combined device footprint of a candidate batch, in bytes.

    Distinct input tensors count once across *all* members (that
    dedup is the whole point of batching: a tensor shared by two member
    vectors is placed once and reused) plus every contraction output.
    """
    seen: dict[int, int] = {}
    out_bytes = 0
    for v in vectors:
        for p in v.pairs:
            seen[p.left.uid] = p.left.nbytes
            seen[p.right.uid] = p.right.nbytes
            out_bytes += p.out.nbytes
    return sum(seen.values()) + out_bytes


def merge_vectors(vectors) -> VectorSpec:
    """Merge like-shaped vectors into one super-vector for a round.

    The members' pairs are concatenated in member order, so index
    ``i`` of the merged assignment maps back to a member pair through
    :func:`split_assignment`.  The merged vector carries the member ids
    in ``meta["batch_members"]`` for bookkeeping; a single-member
    "merge" returns the member itself untouched.
    """
    vectors = list(vectors)
    if not vectors:
        raise ConfigurationError("merge_vectors needs at least one vector")
    if len(vectors) == 1:
        return vectors[0]
    key0 = batch_shape_key(vectors[0])
    for v in vectors[1:]:
        if batch_shape_key(v) != key0:
            raise ConfigurationError(
                f"cannot merge vectors of different shape families: "
                f"{key0} vs {batch_shape_key(v)} (vector {v.vector_id})"
            )
    return VectorSpec(
        pairs=[p for v in vectors for p in v.pairs],
        vector_id=vectors[0].vector_id,
        meta={"batch_members": [v.vector_id for v in vectors]},
    )


def split_assignment(vectors, assignment) -> list[list[int]]:
    """De-multiplex a merged pair→device assignment into member slices.

    Returns one ``list[int]`` per member, index-aligned with that
    member's own ``pairs`` — exactly the shape per-vector fault
    recovery (:meth:`~repro.serve.server.ServeRun.reschedule_orphans`)
    expects on each ticket.
    """
    vectors = list(vectors)
    total = sum(len(v.pairs) for v in vectors)
    if len(assignment) != total:
        raise ConfigurationError(
            f"assignment length {len(assignment)} does not match the "
            f"batch's {total} pairs"
        )
    slices: list[list[int]] = []
    offset = 0
    for v in vectors:
        slices.append(list(assignment[offset : offset + len(v.pairs)]))
        offset += len(v.pairs)
    return slices
