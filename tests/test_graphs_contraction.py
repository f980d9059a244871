"""Unit tests for hadron nodes, contraction graphs, and graph contraction."""

import pytest

from repro.errors import GraphError
from repro.graphs.contraction_graph import (
    ContractionGraph,
    InternTable,
    contract_graph,
    reduction_order,
    replay_reduction,
)
from repro.graphs.hadron import HadronNode, baryon, meson
from repro.tensor.spec import TensorSpec, next_uid
from tests.conftest import make_tensor


def simple_graph(n_nodes=4, ring=True, graph_id=0, size=8):
    nodes = {f"h{i}": make_tensor(size=size, label=f"h{i}") for i in range(n_nodes)}
    names = list(nodes)
    edges = [(names[i], names[(i + 1) % n_nodes]) for i in range(n_nodes if ring else n_nodes - 1)]
    return ContractionGraph(nodes=nodes, edges=edges, graph_id=graph_id)


class TestHadron:
    def test_meson_builder(self):
        h = meson("pi+", "u", "dbar", size=16)
        assert h.is_meson and not h.is_baryon
        assert h.tensor.rank == 2

    def test_baryon_builder(self):
        h = baryon("p", "u", "u", "d", size=16)
        assert h.is_baryon
        assert h.tensor.rank == 3

    def test_rejects_wrong_quark_count(self):
        t = make_tensor()
        with pytest.raises(GraphError):
            HadronNode(name="x", quarks=("u",), tensor=t)

    def test_rejects_unknown_flavor(self):
        t = make_tensor()
        with pytest.raises(GraphError):
            HadronNode(name="x", quarks=("u", "cbar"), tensor=t)

    def test_rejects_rank_mismatch(self):
        t = make_tensor(rank=2)
        with pytest.raises(GraphError):
            HadronNode(name="x", quarks=("u", "u", "d"), tensor=t)


class TestContractionGraph:
    def test_valid_graph(self):
        g = simple_graph()
        assert g.num_nodes == 4 and g.num_edges == 4

    def test_rejects_single_node(self):
        with pytest.raises(GraphError):
            ContractionGraph(nodes={"a": make_tensor()}, edges=[])

    def test_rejects_unknown_edge_endpoint(self):
        with pytest.raises(GraphError):
            ContractionGraph(
                nodes={"a": make_tensor(), "b": make_tensor()}, edges=[("a", "zzz")]
            )

    def test_rejects_self_loop(self):
        with pytest.raises(GraphError):
            ContractionGraph(
                nodes={"a": make_tensor(), "b": make_tensor()}, edges=[("a", "a")]
            )

    def test_canonical_key_ignores_edge_order(self):
        a, b, c = (make_tensor() for _ in range(3))
        g1 = ContractionGraph(nodes={"a": a, "b": b, "c": c}, edges=[("a", "b"), ("b", "c")])
        g2 = ContractionGraph(nodes={"a": a, "b": b, "c": c}, edges=[("c", "b"), ("b", "a")])
        assert g1.canonical_key() == g2.canonical_key()


class TestInternTable:
    def test_same_pair_same_output(self):
        table = InternTable()
        a, b = make_tensor(), make_tensor()
        out1 = table.output_for(a, b)
        out2 = table.output_for(b, a)  # unordered key
        assert out1.uid == out2.uid
        assert table.hits == 1
        assert len(table) == 1

    def test_distinct_pairs_distinct_outputs(self):
        table = InternTable()
        a, b, c = (make_tensor() for _ in range(3))
        assert table.output_for(a, b).uid != table.output_for(a, c).uid


class TestContractGraph:
    def test_reduces_to_two_nodes(self):
        g = simple_graph(n_nodes=5)
        steps = contract_graph(g, InternTable())
        # 5 nodes -> 2 nodes needs exactly 3 merges.
        assert len(steps) == 3

    def test_two_node_graph_no_steps(self):
        g = simple_graph(n_nodes=2, ring=False)
        assert contract_graph(g, InternTable()) == []

    def test_depths_monotone(self):
        g = simple_graph(n_nodes=6)
        steps = contract_graph(g, InternTable())
        for step in steps:
            assert step.depth >= 1

    def test_consumes_parallel_edges_in_one_step(self):
        a, b, c = (make_tensor() for _ in range(3))
        g = ContractionGraph(
            nodes={"a": a, "b": b, "c": c},
            edges=[("a", "b"), ("a", "b"), ("b", "c")],
        )
        steps = contract_graph(g, InternTable())
        assert len(steps) == 1  # a+b merged once; 2 nodes remain
        assert {steps[0].left.uid, steps[0].right.uid} == {a.uid, b.uid}

    def test_merge_prefers_heaviest_pair(self):
        a, b, c, d = (make_tensor() for _ in range(4))
        g = ContractionGraph(
            nodes={"a": a, "b": b, "c": c, "d": d},
            edges=[("a", "b"), ("c", "d"), ("c", "d"), ("b", "c")],
        )
        steps = contract_graph(g, InternTable())
        first = {steps[0].left.uid, steps[0].right.uid}
        assert first == {c.uid, d.uid}

    def test_shared_intermediates_across_graphs(self):
        """Two graphs with the same first merge intern one output."""
        a, b, c, d = (make_tensor() for _ in range(4))
        table = InternTable()
        g1 = ContractionGraph(nodes={"a": a, "b": b, "c": c}, edges=[("a", "b"), ("a", "b"), ("b", "c")], graph_id=0)
        g2 = ContractionGraph(nodes={"a": a, "b": b, "d": d}, edges=[("a", "b"), ("a", "b"), ("b", "d")], graph_id=1)
        depths = {}
        s1 = contract_graph(g1, table, depths)
        s2 = contract_graph(g2, table, depths)
        assert s1[0].out.uid == s2[0].out.uid
        assert table.hits >= 1

    def test_disconnected_components_both_contracted(self):
        a, b, c, d = (make_tensor() for _ in range(4))
        g = ContractionGraph(
            nodes={"a": a, "b": b, "c": c, "d": d},
            edges=[("a", "b"), ("c", "d")],
        )
        steps = contract_graph(g, InternTable())
        assert len(steps) == 2  # each component merges once -> 2 nodes total

    def test_merges_index_terms_and_merged_nodes_follow(self):
        g = simple_graph(n_nodes=5)
        merges = reduction_order(list(g.nodes), g.edges)
        # Ring of 5: the first merge takes the heaviest, lexicographically
        # largest pair; later merges may name its output, term 5.
        assert merges[0] == (3, 4)
        assert len(merges) == 3
        assert all(i < 5 + k and j < 5 + k for k, (i, j) in enumerate(merges))

    def test_one_order_replays_on_other_tensors(self):
        """The order reads names only, so it holds for any tensors."""
        g = simple_graph(n_nodes=6)
        merges = reduction_order(list(g.nodes), g.edges)
        other = ContractionGraph(
            nodes={name: make_tensor() for name in g.nodes}, edges=g.edges
        )
        table, depths = InternTable(), {}
        replayed = replay_reduction(merges, list(other.nodes.values()), table, depths)
        assert replayed == contract_graph(other, table, dict(depths))

