"""Wick-style diagram enumeration.

A diagram is a flavor-conserving pairing of quark slots with antiquark
slots across the hadrons of a (source operator, sink operator) cell:
every ``u`` pairs with a ``ubar`` somewhere else, etc.  Each pairing
defines a contraction graph — hadrons as nodes, quark lines as edges.
Pairings that would connect a hadron to itself (internal traces) are
excluded, matching the connected-diagram construction; duplicate edge
multisets are deduplicated.
"""

from __future__ import annotations

import math
from itertools import permutations

from repro.errors import GraphError
from repro.graphs.hadron import HadronNode
from repro.graphs.contraction_graph import ContractionGraph
from repro.utils.rng import as_generator

#: Flavor base of a slot (``"ubar"`` → ``"u"``) and whether it is an antiquark.
def _slot(flavor: str) -> tuple[str, bool]:
    if flavor.endswith("bar"):
        return flavor[:-3], True
    return flavor, False


def _flavor_sites(hadrons) -> tuple[dict[str, list[int]], dict[str, list[int]]] | None:
    """Hadron index of every quark and antiquark slot, per flavor base;
    ``None`` when the flavors cannot balance."""
    quarks: dict[str, list[int]] = {}
    antis: dict[str, list[int]] = {}
    for i, (_name, content) in enumerate(hadrons):
        for flavor in content:
            base, is_anti = _slot(flavor)
            (antis if is_anti else quarks).setdefault(base, []).append(i)
    if set(quarks) != set(antis) or any(len(quarks[f]) != len(antis[f]) for f in quarks):
        return None
    return quarks, antis


def _sampled(quarks: dict[str, list[int]], max_diagrams: int) -> bool:
    """Whether the permutation space is too large to enumerate in full."""
    return math.prod(math.factorial(len(s)) for s in quarks.values()) > 4 * max_diagrams


def pairings_are_seed_free(hadrons, max_diagrams: int = 64) -> bool:
    """Whether :func:`enumerate_pairings` returns the same pairings for
    every seed — true unless it samples an oversized space."""
    sites = _flavor_sites(hadrons)
    return sites is None or not _sampled(sites[0], max_diagrams)


def enumerate_pairings(
    hadrons: list[tuple[str, tuple[str, ...]]],
    max_diagrams: int = 64,
    seed=0,
) -> list[list[tuple[int, int]]]:
    """All distinct connected quark-line pairings of ``hadrons``.

    Parameters
    ----------
    hadrons:
        ``(name, quark content)`` per hadron (order defines indices).
    max_diagrams:
        Cap on returned pairings; when the permutation space is larger,
        a seeded random subset of permutations is sampled instead of the
        full product (the only case that reads ``seed``).

    Returns
    -------
    list of edge lists; an edge ``(i, j)`` is one quark line between
    hadron ``i`` and hadron ``j``.  Empty if flavors cannot balance.
    """
    sites = _flavor_sites(hadrons)
    if sites is None:
        return []
    quarks, antis = sites
    flavors = sorted(quarks)

    seen: set[tuple] = set()
    out: list[list[tuple[int, int]]] = []

    def pairing_from(perm_by_flavor: dict[str, tuple[int, ...]]):
        edges: list[tuple[int, int]] = []
        for f in flavors:
            q_sites = quarks[f]
            a_sites = antis[f]
            for qi, pi in enumerate(perm_by_flavor[f]):
                a, b = q_sites[qi], a_sites[pi]
                if a == b:
                    return None  # internal trace: not a connected diagram
                edges.append((a, b) if a <= b else (b, a))
        return edges

    def consider(perm_by_flavor) -> None:
        edges = pairing_from(perm_by_flavor)
        if edges is None:
            return
        key = tuple(sorted(edges))
        if key in seen:
            return
        seen.add(key)
        out.append(edges)

    if not _sampled(quarks, max_diagrams):
        # Full enumeration over the product of per-flavor permutations.
        def rec(idx: int, acc: dict):
            if len(out) >= max_diagrams:
                return
            if idx == len(flavors):
                consider(acc)
                return
            f = flavors[idx]
            for perm in permutations(range(len(quarks[f]))):
                acc[f] = perm
                rec(idx + 1, acc)
                if len(out) >= max_diagrams:
                    return

        rec(0, {})
    else:
        # Seeded random sampling of the huge permutation space.
        rng = as_generator(seed)
        attempts = 0
        while len(out) < max_diagrams and attempts < 50 * max_diagrams:
            attempts += 1
            acc = {f: tuple(rng.permutation(len(quarks[f]))) for f in flavors}
            consider(acc)
    return out


def diagrams_for(
    hadron_nodes: list[HadronNode],
    max_diagrams: int = 64,
    seed=0,
    graph_id_base: int = 0,
) -> list[ContractionGraph]:
    """Contraction graphs for one cell's hadron nodes.

    Node tensors come from the supplied :class:`HadronNode` objects, so
    the same node reused across cells shares its tensor (the reuse the
    scheduler exploits).
    """
    contents = [(h.name, h.quarks) for h in hadron_nodes]
    pairings = enumerate_pairings(contents, max_diagrams=max_diagrams, seed=seed)
    graphs = []
    for k, edges in enumerate(pairings):
        nodes = {h.name: h.tensor for h in hadron_nodes}
        named_edges = [(hadron_nodes[a].name, hadron_nodes[b].name) for a, b in edges]
        try:
            graphs.append(
                ContractionGraph(nodes=nodes, edges=named_edges, graph_id=graph_id_base + k)
            )
        except GraphError:
            continue
    return graphs
