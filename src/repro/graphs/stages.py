"""Dependency-analysis stage partitioning (paper Fig. 1).

All contraction steps of a correlator's graphs are grouped by
dependency depth: stage *k* holds steps whose inputs are original
hadrons or stage-<k outputs.  Steps within a stage are independent, so
each stage becomes one or more scheduler vectors.  Steps are
deduplicated by output tensor — an interned intermediate shared by many
graphs is computed once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import GraphError
from repro.graphs.contraction_graph import ContractionStep
from repro.tensor.spec import TensorPair, VectorSpec
from repro.utils.validation import check_positive


@dataclass
class StagePlan:
    """Steps grouped into sequential stages of independent contractions."""

    stages: list[list[ContractionStep]] = field(default_factory=list)

    @property
    def total_steps(self) -> int:
        return sum(len(s) for s in self.stages)

    def validate(self) -> None:
        """Check the stage invariant: every input of a stage-k step is
        produced strictly earlier (or is an original hadron)."""
        produced_by_stage: dict[int, int] = {}
        for k, stage in enumerate(self.stages):
            for step in stage:
                produced_by_stage[step.out.uid] = k
        for k, stage in enumerate(self.stages):
            for step in stage:
                for uid in (step.left.uid, step.right.uid):
                    born = produced_by_stage.get(uid)
                    if born is not None and born >= k:
                        raise GraphError(
                            f"stage {k} consumes tensor {uid} produced in stage {born}"
                        )


def build_stage_plan(steps: list[ContractionStep]) -> StagePlan:
    """Group deduplicated steps by depth into a :class:`StagePlan`."""
    seen: set[int] = set()
    by_depth: dict[int, list[ContractionStep]] = {}
    for step in steps:
        if step.out.uid in seen:
            continue  # interned intermediate already planned
        seen.add(step.out.uid)
        by_depth.setdefault(step.depth, []).append(step)
    plan = StagePlan(stages=[by_depth[d] for d in sorted(by_depth)])
    plan.validate()
    return plan


def stages_to_vectors(plan: StagePlan, max_vector_size: int = 64, start_id: int = 0) -> list[VectorSpec]:
    """Chunk each stage into vectors of at most ``max_vector_size`` tensors.

    ``max_vector_size`` counts tensor slots (2 per pair), matching the
    paper's vector-size definition.
    """
    check_positive("max_vector_size", max_vector_size)
    max_pairs = max(1, max_vector_size // 2)
    vectors: list[VectorSpec] = []
    vid = start_id
    for stage_idx, stage in enumerate(plan.stages):
        for i in range(0, len(stage), max_pairs):
            chunk = stage[i : i + max_pairs]
            pairs = [s.to_pair() for s in chunk]
            vectors.append(
                VectorSpec(pairs=pairs, vector_id=vid, meta={"stage": stage_idx})
            )
            vid += 1
    return vectors
