"""Redstar pipeline: correlator spec → per-time-slice vector stream.

For each sink time slice the pipeline instantiates the sink hadron
tensors (the source side is built once and shared across slices),
contracts every Wick diagram of every (source op, sink op, momentum
combination) cell with a shared intern table, deduplicates interned
intermediates, stage-partitions the surviving steps and chunks them
into scheduler vectors.

Each cell's diagrams and their merge orders are built once, by the
first slice that reaches the cell, and replayed on every later slice's
sink tensors; only cells whose diagrams are sampled with a
slice-dependent seed are rebuilt per slice.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

from repro.graphs.contraction_graph import (
    ContractionGraph,
    InternTable,
    reduction_order,
    replay_reduction,
)
from repro.graphs.hadron import HadronNode
from repro.graphs.stages import build_stage_plan, stages_to_vectors
from repro.tensor.spec import TensorSpec, VectorSpec, next_uid
from repro.redstar.correlator import CorrelatorSpec, Operator, conjugate
from repro.redstar.wick import diagrams_for, pairings_are_seed_free


@dataclass
class PipelineStats:
    """Bookkeeping for one materialized pipeline."""

    num_graphs: int = 0
    num_steps: int = 0
    num_hadron_tensors: int = 0
    num_intermediate_tensors: int = 0
    input_bytes: int = 0
    intermediate_bytes: int = 0

    @property
    def total_bytes(self) -> int:
        """Device footprint of all inputs and intermediates (Table VI's
        "total memory" column)."""
        return self.input_bytes + self.intermediate_bytes


class RedstarPipeline:
    """Generates the scheduler workload of one correlation function.

    Parameters
    ----------
    spec:
        The correlator to compute.
    seed:
        Seed for diagram sampling in oversized permutation spaces.
    """

    def __init__(self, spec: CorrelatorSpec, seed=0):
        self.spec = spec
        self.seed = seed
        self._hadron_registry: dict[tuple, HadronNode] = {}
        self._intern = InternTable()
        self._depths: dict[int, int] = {}
        #: cell index → one merge plan per diagram, for seed-free cells.
        self._plans: dict[int, list[list[tuple[int, int]]]] = {}
        self.stats = PipelineStats()

    # ------------------------------------------------------------ hadron pool
    def _hadron(self, side: str, op: Operator, h_idx: int, mom: int, t: int) -> HadronNode:
        """Interned hadron node; identical identity → identical tensor."""
        content = op.hadrons[h_idx] if side == "src" else conjugate(op.hadrons[h_idx])
        key = (side, op.name, h_idx, mom, t, content)
        node = self._hadron_registry.get(key)
        if node is None:
            spec = self.spec
            tensor = TensorSpec(
                uid=next_uid(),
                size=spec.tensor_size,
                batch=spec.batch,
                rank=len(content),
                dtype_bytes=spec.dtype_bytes,
                label=f"{side}:{op.name}.{h_idx}.p{mom}@t{t}",
            )
            node = HadronNode(name=tensor.label, quarks=content, tensor=tensor)
            self._hadron_registry[key] = node
            self.stats.num_hadron_tensors += 1
            self.stats.input_bytes += tensor.nbytes
        return node

    def _cell_hadrons(self, t: int) -> list[list[HadronNode]]:
        """Hadron-node lists for every (src op, snk op, momenta) cell.

        Source hadrons are pinned to time slice 0 (shared across all
        sink slices); sink hadrons live on slice ``t``.
        """
        cells = []
        for src_op, snk_op in product(self.spec.operators, repeat=2):
            for src_mom in range(src_op.momenta):
                for snk_mom in range(snk_op.momenta):
                    nodes = [
                        self._hadron("src", src_op, i, src_mom, 0)
                        for i in range(len(src_op.hadrons))
                    ]
                    nodes += [
                        self._hadron("snk", snk_op, i, snk_mom, t)
                        for i in range(len(snk_op.hadrons))
                    ]
                    cells.append(nodes)
        return cells

    # --------------------------------------------------------------- diagrams
    def _seed(self, t: int, c_idx: int) -> int:
        return (self.seed, t, c_idx).__hash__() & 0x7FFFFFFF

    def diagrams(self, t: int) -> list[ContractionGraph]:
        """All Wick diagrams of time slice ``t``."""
        graphs: list[ContractionGraph] = []
        for c_idx, nodes in enumerate(self._cell_hadrons(t)):
            graphs.extend(
                diagrams_for(
                    nodes,
                    max_diagrams=self.spec.max_diagrams,
                    seed=self._seed(t, c_idx),
                    graph_id_base=len(graphs),
                )
            )
        return graphs

    def _cell_plans(self, t: int, c_idx: int, nodes: list[HadronNode]) -> list[list[tuple[int, int]]]:
        """One merge plan per diagram of cell ``c_idx``, over ``nodes``' indices.

        A plan built on one slice is exact on every slice.  Within a
        cell, any two hadron names differ before their ``@t{t}`` suffix
        (in side, operator, hadron index or momentum), so every name
        comparison :func:`reduction_order` makes — on hadron names and
        on the ``"(a+b)"`` names built from them — is decided there,
        and comes out the same whatever the sink slice.  The pairings
        are the same too unless they are sampled with a seed that
        includes ``t``; those cells are rebuilt on every slice.
        """
        plans = self._plans.get(c_idx)
        if plans is None:
            graphs = diagrams_for(nodes, max_diagrams=self.spec.max_diagrams, seed=self._seed(t, c_idx))
            names = [h.name for h in nodes]
            plans = [reduction_order(names, g.edges) for g in graphs]
            contents = [(h.name, h.quarks) for h in nodes]
            if pairings_are_seed_free(contents, self.spec.max_diagrams):
                self._plans[c_idx] = plans
        return plans

    # ----------------------------------------------------------------- stream
    def vectors_for_slice(self, t: int, already_computed: set[int] | None = None) -> list[VectorSpec]:
        """Scheduler vectors of time slice ``t`` (stage order)."""
        steps = []
        for c_idx, nodes in enumerate(self._cell_hadrons(t)):
            tensors = [h.tensor for h in nodes]
            plans = self._cell_plans(t, c_idx, nodes)
            self.stats.num_graphs += len(plans)
            for merges in plans:
                steps.extend(replay_reduction(merges, tensors, self._intern, self._depths))
        if already_computed is not None:
            fresh = [s for s in steps if s.out.uid not in already_computed]
        else:
            fresh = steps
        plan = build_stage_plan(fresh)
        for stage in plan.stages:
            for step in stage:
                self.stats.num_steps += 1
                self.stats.num_intermediate_tensors += 1
                self.stats.intermediate_bytes += step.out.nbytes
                if already_computed is not None:
                    already_computed.add(step.out.uid)
        vectors = stages_to_vectors(plan, max_vector_size=self.spec.max_vector_size, start_id=t * 10_000)
        for v in vectors:
            v.meta["time_slice"] = t
        return vectors

    def vectors(self) -> list[VectorSpec]:
        """The full stream: all time slices, slices in order."""
        computed: set[int] = set()
        out: list[VectorSpec] = []
        for t in range(self.spec.time_slices):
            out.extend(self.vectors_for_slice(t, already_computed=computed))
        return out
