"""Berge witnesses: embedding a graph edge-by-edge into a hypergraph.

A hypergraph H hosts a copy of G when there is an injection of V(G) into
V(H) and a bijection of E(G) onto E(H) such that each graph edge lands
inside its image hyperedge. Verification is direct; search backtracks over
vertex injections, pruning with a bipartite-matching feasibility test on the
edge containment relation.
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


def _max_matching(adjacency: list[list[int]], n_right: int) -> tuple[int, list[int]]:
    """Kuhn's augmenting-path matching; returns (size, right->left assignment)."""
    match_right = [-1] * n_right

    def augment(left: int, seen: list[bool]) -> bool:
        for r in adjacency[left]:
            if not seen[r]:
                seen[r] = True
                if match_right[r] == -1 or augment(match_right[r], seen):
                    match_right[r] = left
                    return True
        return False

    size = 0
    for left in range(len(adjacency)):
        if augment(left, [False] * n_right):
            size += 1
    return size, match_right


def search_berge_witness(g: Graph, h: Hypergraph,
                         node_cap: int = DEFAULT_NODE_CAP) -> Optional[BergeWitness]:
    """Find a verified Berge witness, or return None when none exists.

    Backtracks over vertex injections in descending graph-degree order; a
    partial injection survives only if the graph-edge / hyperedge containment
    relation still admits a perfect matching.
    """
    if g.edge_count != h.edge_count:
        raise StructuralError(
            f"edge counts differ: graph has {g.edge_count}, hypergraph has {h.edge_count}")
    if g.n > h.m:
        return None
    edges = g.edges()
    n_edges = len(edges)
    h_degrees = [h.degree(x) for x in range(h.m)]
    order = sorted(range(g.n), key=lambda v: (-g.degree(v), v))
    injection = [-1] * g.n
    used = [False] * h.m
    nodes = 0

    def feasible() -> Optional[list[int]]:
        compat: list[list[int]] = []
        for (u, v) in edges:
            row = []
            for j, mask in enumerate(h.edge_masks):
                if injection[u] != -1 and not (mask >> injection[u] & 1):
                    continue
                if injection[v] != -1 and not (mask >> injection[v] & 1):
                    continue
                row.append(j)
            if not row:
                return None
            compat.append(row)
        size, match_right = _max_matching(compat, n_edges)
        if size < n_edges:
            return None
        assignment = [-1] * n_edges
        for j, left in enumerate(match_right):
            if left != -1:
                assignment[left] = j
        return assignment

    def backtrack(pos: int) -> Optional[BergeWitness]:
        nonlocal nodes
        nodes += 1
        if nodes > node_cap:
            partial = {order[i]: injection[order[i]] for i in range(pos)}
            raise SearchBudgetExceeded(
                f"berge search exceeded {node_cap} nodes at depth {pos};"
                f" partial injection {partial}",
                node_count=nodes)
        assignment = feasible()
        if assignment is None:
            return None
        if pos == g.n:
            witness = BergeWitness(tuple(injection), tuple(assignment))
            if not verify_berge_witness(g, h, witness):
                raise RuntimeError("internal error: search produced an invalid witness")
            return witness
        v = order[pos]
        need = g.degree(v)
        for x in range(h.m):
            if used[x] or h_degrees[x] < need:
                continue
            injection[v] = x
            used[x] = True
            found = backtrack(pos + 1)
            injection[v] = -1
            used[x] = False
            if found is not None:
                return found
        return None

    return backtrack(0)


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
