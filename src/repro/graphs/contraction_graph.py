"""Contraction graphs and the edge-reduction (graph contraction) process.

A graph's nodes carry tensors; its edges are quark propagations.  One
*contraction step* merges the two endpoints of an edge — a hadron
contraction of their tensors — consuming every parallel edge between
them.  Steps repeat until two nodes remain (the paper's stopping rule);
the final two-node contraction plus trace is the correlator value and
is evaluated host-side.

Intermediate tensors are *interned*: merging the same pair of input
tensors anywhere (same graph or another diagram) yields the same output
:class:`TensorSpec`.  Overlapping reduction paths across the thousands
of diagrams of one correlator therefore share intermediates — the
data-reuse structure MICCO exploits.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import GraphError
from repro.tensor.contraction import output_spec
from repro.tensor.spec import TensorPair, TensorSpec


@dataclass(frozen=True)
class ContractionStep:
    """One hadron contraction produced by graph contraction."""

    left: TensorSpec
    right: TensorSpec
    out: TensorSpec
    depth: int

    def to_pair(self) -> TensorPair:
        return TensorPair(left=self.left, right=self.right, out=self.out)


class InternTable:
    """Hash-consing of contraction outputs across graphs.

    Keyed by the unordered input-uid pair; the stored spec carries the
    canonical operand order (smaller uid first) so numeric evaluation
    is reproducible.
    """

    def __init__(self):
        self._table: dict[tuple[int, int], TensorSpec] = {}
        self.hits = 0

    def output_for(self, a: TensorSpec, b: TensorSpec) -> TensorSpec:
        key = (a.uid, b.uid) if a.uid <= b.uid else (b.uid, a.uid)
        spec = self._table.get(key)
        if spec is not None:
            self.hits += 1
            return spec
        spec = output_spec(a, b, label=f"i{len(self._table)}")
        self._table[key] = spec
        return spec

    def __len__(self) -> int:
        return len(self._table)


@dataclass
class ContractionGraph:
    """An undirected multigraph of hadron tensors.

    Parameters
    ----------
    nodes:
        node id → tensor.
    edges:
        List of ``(node_id, node_id)`` quark propagations; parallel
        edges allowed, self-loops not (a self-loop is an internal trace
        handled inside the hadron's own tensor).
    graph_id:
        Diagram index within its correlator.
    """

    nodes: dict[str, TensorSpec]
    edges: list[tuple[str, str]]
    graph_id: int = 0

    def __post_init__(self):
        if len(self.nodes) < 2:
            raise GraphError(f"graph {self.graph_id} needs at least 2 nodes, got {len(self.nodes)}")
        for a, b in self.edges:
            if a not in self.nodes or b not in self.nodes:
                raise GraphError(f"edge ({a!r}, {b!r}) references unknown node")
            if a == b:
                raise GraphError(f"self-loop on {a!r}: internal traces are not graph edges")

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def canonical_key(self) -> tuple:
        """Isomorphism-robust-enough dedup key: sorted edge multiset
        over tensor uids (node identity is the tensor)."""
        uid = {n: t.uid for n, t in self.nodes.items()}
        pairs = sorted(tuple(sorted((uid[a], uid[b]))) for a, b in self.edges)
        return tuple(pairs)


def reduction_order(names: list[str], edges: list[tuple[str, str]]) -> list[tuple[int, int]]:
    """The merges that reduce a graph to two nodes, as term indices.

    Terms ``0 .. len(names) - 1`` are the nodes in ``names`` order; the
    ``k``-th merge creates term ``len(names) + k``.  Strategy: repeatedly
    merge the node pair connected by the most parallel edges (ties
    broken lexicographically on the name pair) — heavy pairs first
    shrinks intermediate fan-out, mirroring Redstar's "optimal
    evaluation strategy" preprocessing.  The merged node is named
    ``"(a+b)"``.  Only names are read, so the order depends on nothing
    but the names and the edge multiset.
    """
    term = {name: k for k, name in enumerate(names)}
    next_term = len(names)
    # Multiplicity map over unordered node-name pairs.
    mult: dict[tuple[str, str], int] = {}
    for a, b in edges:
        key = (a, b) if a <= b else (b, a)
        mult[key] = mult.get(key, 0) + 1

    merges: list[tuple[int, int]] = []
    while len(term) > 2 and mult:
        (a, b), _ = max(mult.items(), key=lambda kv: (kv[1], kv[0]))
        merges.append((term.pop(a), term.pop(b)))
        merged = f"({a}+{b})"
        term[merged] = next_term
        next_term += 1
        new_mult: dict[tuple[str, str], int] = {}
        for (x, y), m in mult.items():
            if {x, y} == {a, b}:
                continue  # consumed by this contraction
            nx = merged if x in (a, b) else x
            ny = merged if y in (a, b) else y
            if nx == ny:
                continue  # became an internal trace
            key = (nx, ny) if nx <= ny else (ny, nx)
            new_mult[key] = new_mult.get(key, 0) + m
        mult = new_mult
    return merges


def replay_reduction(
    merges: list[tuple[int, int]],
    tensors: list[TensorSpec],
    intern: InternTable,
    depths: dict[int, int] | None = None,
) -> list[ContractionStep]:
    """Apply :func:`reduction_order` merges to ``tensors``; return the steps.

    ``tensors[k]`` is term ``k``'s tensor; each merge appends its
    interned output as the next term.  ``depths`` maps tensor uid →
    dependency depth and is shared across graphs so interned
    intermediates keep one consistent depth.
    """
    if depths is None:
        depths = {}
    terms = list(tensors)
    steps: list[ContractionStep] = []
    for i, j in merges:
        left, right = terms[i], terms[j]
        if left.uid > right.uid:
            left, right = right, left
        out = intern.output_for(left, right)
        depth = max(depths.get(left.uid, 0), depths.get(right.uid, 0)) + 1
        prior = depths.get(out.uid)
        depths[out.uid] = depth if prior is None else max(prior, depth)
        steps.append(ContractionStep(left=left, right=right, out=out, depth=depths[out.uid]))
        terms.append(out)
    return steps


def contract_graph(graph: ContractionGraph, intern: InternTable, depths: dict[int, int] | None = None) -> list[ContractionStep]:
    """Reduce ``graph`` to two nodes; return the contraction steps.

    The merge order is :func:`reduction_order` over the graph's node
    names and edges, replayed on its tensors by :func:`replay_reduction`.
    """
    merges = reduction_order(list(graph.nodes), graph.edges)
    return replay_reduction(merges, list(graph.nodes.values()), intern, depths)
