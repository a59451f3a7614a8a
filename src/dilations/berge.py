"""Berge witnesses: embedding a graph edge-by-edge into a hypergraph.

A hypergraph H hosts a copy of G when there is an injection of V(G) into
V(H) and a bijection of E(G) onto E(H) such that each graph edge lands
inside its image hyperedge. Verification is direct. Search injects one graph
vertex per level in a loop over an explicit stack, in the preorder a
recursive search would visit, and prunes a node unless the containment
relation still has a perfect matching. Graph edge uv may map to the
hyperedges in incidence[x] & incidence[y] of H's cached incidence masks,
where x and y are the images of u and v and an uninjected vertex stands for
every edge. Neither the search nor the matching recurses, so every graph
the package accepts (up to K64's 2,016 edges) is bounded by the node cap.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from .errors import ParseError, SearchBudgetExceeded, StructuralError
from .graphs import Graph
from .hypergraphs import Hypergraph
from .invariants import DEFAULT_NODE_CAP


@dataclass(frozen=True)
class BergeWitness:
    """injection[v] is the image of graph vertex v; edge_map[i] the hyperedge
    assigned to graph edge i (in Graph.edges() order)."""

    injection: tuple[int, ...]
    edge_map: tuple[int, ...]

    def to_json(self) -> dict:
        return {"injection": list(self.injection), "edge_map": list(self.edge_map)}

    @classmethod
    def from_json(cls, data) -> "BergeWitness":
        """Raises ParseError unless `data` is an object whose "injection" and
        "edge_map" are lists of integers."""
        if not isinstance(data, dict):
            raise ParseError("witness must be a JSON object")
        fields = []
        for key in ("injection", "edge_map"):
            value = data.get(key)
            if not isinstance(value, list) or any(type(x) is not int for x in value):
                raise ParseError(f"witness {key!r} must be a list of integers")
            fields.append(tuple(value))
        return cls(*fields)


def natural_berge_witness(block_witness) -> BergeWitness:
    """The Berge witness every dilation carries: supports + edge correspondence."""
    return BergeWitness(tuple(block_witness.support_map), tuple(block_witness.edge_map))


def verify_berge_witness(g: Graph, h: Hypergraph, w: BergeWitness) -> bool:
    """True iff the injection is injective, the edge map bijective, and every
    graph edge is contained in its image hyperedge."""
    if g.edge_count != h.edge_count:
        raise StructuralError(
            f"edge counts differ: graph has {g.edge_count}, hypergraph has {h.edge_count}")
    if len(w.injection) != g.n or len(w.edge_map) != g.edge_count:
        return False
    if any(not (0 <= x < h.m) for x in w.injection):
        return False
    if len(set(w.injection)) != g.n:
        return False
    if sorted(w.edge_map) != list(range(h.edge_count)):
        return False
    for i, (u, v) in enumerate(g.edges()):
        mask = (1 << w.injection[u]) | (1 << w.injection[v])
        if h.edge_masks[w.edge_map[i]] & mask != mask:
            return False
    return True


def _perfect_matching(rows: list[int]) -> Optional[tuple[int, ...]]:
    """A perfect matching of a square relation, left i to a right in the
    bitmask rows[i], as the right of each left; None if there is none.

    Kuhn's augmenting paths (Kuhn 1955), each kept on an explicit stack: the
    lefts are matched in order, each path tries rights in increasing order,
    and the first left with no augmenting path ends the search, since no
    later path can match it."""
    owner = [-1] * len(rows)  # the left matched to each right
    for left, untried in enumerate(rows):
        seen = 0
        path = []  # (left, its untried rights, the right it passes on) per step
        while True:
            untried &= ~seen
            if not untried:
                if not path:
                    return None
                left, untried, _ = path.pop()
                continue
            bit = untried & -untried
            seen |= bit
            right = bit.bit_length() - 1
            if owner[right] == -1:
                break
            path.append((left, untried ^ bit, right))
            left = owner[right]
            untried = rows[left]
        owner[right] = left
        for left, _, right in path:
            owner[right] = left
    matched = [0] * len(rows)
    for right, left in enumerate(owner):
        matched[left] = right
    return tuple(matched)


def search_berge_witness(g: Graph, h: Hypergraph,
                         node_cap: int = DEFAULT_NODE_CAP) -> Optional[BergeWitness]:
    """Find a verified Berge witness, or return None when none exists.

    Injects the graph vertices in descending graph-degree order, each into
    the host vertices in increasing order; a partial injection survives only
    if the graph-edge / hyperedge containment relation still admits a
    perfect matching. A node is (injection, depth), with -1 for a vertex not
    yet injected.
    """
    if g.edge_count != h.edge_count:
        raise StructuralError(
            f"edge counts differ: graph has {g.edge_count}, hypergraph has {h.edge_count}")
    if g.n > h.m:
        return None
    edges = g.edges()
    incidence = h.incidence()
    every_edge = (1 << h.edge_count) - 1  # what an uninjected vertex may lie in
    degrees = [mask.bit_count() for mask in incidence]
    order = [v for _, v in sorted((-g.degree(v), v) for v in range(g.n))]
    nodes = 0
    stack = [((-1,) * g.n, 0)]
    while stack:
        injection, depth = stack.pop()
        nodes += 1
        if nodes > node_cap:
            partial = {v: injection[v] for v in order[:depth]}
            raise SearchBudgetExceeded(
                f"berge search exceeded {node_cap} nodes at depth {depth};"
                f" partial injection {partial}",
                node_count=nodes)
        masks = [every_edge if x == -1 else incidence[x] for x in injection]
        edge_map = _perfect_matching([masks[u] & masks[v] for u, v in edges])
        if edge_map is None:
            continue
        if depth == g.n:
            witness = BergeWitness(injection, edge_map)
            if not verify_berge_witness(g, h, witness):
                raise RuntimeError("internal error: search produced an invalid witness")
            return witness
        v = order[depth]
        need = g.degree(v)
        used = set(injection)
        for x in reversed(range(h.m)):
            if x not in used and degrees[x] >= need:
                stack.append((injection[:v] + (x,) + injection[v + 1:], depth + 1))
    return None


def random_berge(g: Graph, k: int, seed: int, pool: int = 4) -> tuple[Hypergraph, BergeWitness]:
    """A deterministic Berge host: each graph edge grows into a hyperedge of
    size at most k by adding vertices from a shared pool (so distinct
    hyperedges may share added vertices, unlike dilation blocks)."""
    rng = random.Random(f"berge|{seed}|{g.n}|{g.adj}|{k}|{pool}")
    extras = list(range(g.n, g.n + pool))
    raw_edges = []
    used: set[int] = set()
    for (u, v) in g.edges():
        extra_count = rng.randint(0, max(0, min(k - 2, pool)))
        chosen = rng.sample(extras, extra_count) if extra_count else []
        used.update(chosen)
        raw_edges.append((u, v, chosen))
    remap = {x: g.n + i for i, x in enumerate(sorted(used))}
    m = g.n + len(used)
    hyperedges = []
    for (u, v, chosen) in raw_edges:
        mask = (1 << u) | (1 << v)
        for x in chosen:
            mask |= 1 << remap[x]
        hyperedges.append(mask)
    h = Hypergraph(m, hyperedges)
    witness = BergeWitness(tuple(range(g.n)), tuple(range(len(hyperedges))))
    return h, witness
