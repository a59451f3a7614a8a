"""The dilation construction: copy blocks per vertex, additional blocks per edge.

A dilation of a graph G replaces each vertex v_i by a copy block of size s_i
(containing v_i) and each edge e = v_i v_j by the hyperedge
block(v_i) ∪ block(v_j) ∪ block(e), where block(e) holds a_e additional
vertices and all blocks are pairwise disjoint. Generalized powers are the
uniform special case s_i ≡ s, a_e ≡ k - 2s.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass
from typing import Optional

from .errors import ConstraintError, DomainError, FeasibilityError, WitnessError
from .graphs import Graph, _mask
from .hypergraphs import Hypergraph


class RankDeficitWarning(UserWarning):
    """Not emitted: dilations need not be uniform, so a rank below the declared
    cap is an ordinary result, read as `h.rank < w.declared_rank`. Kept so
    that code which filters it by name still imports it."""


class DilationClass(enum.Enum):
    GAMMA0 = "gamma0"  # no additional vertices anywhere
    GAMMA1 = "gamma1"  # at least one additional vertex in every hyperedge
    MIXED = "mixed"


@dataclass(frozen=True)
class DilationSpec:
    """Declared rank cap k, copy-block sizes s (per vertex), additional-block
    sizes a (per edge, aligned with Graph.edges() order)."""

    k: int
    s: tuple[int, ...]
    a: tuple[int, ...]

    @classmethod
    def uniform(cls, g: Graph, k: int, s: int) -> "DilationSpec":
        return cls(k, (s,) * g.n, (k - 2 * s,) * g.edge_count)

    def validate(self, g: Graph) -> None:
        if self.k < 3:
            raise ConstraintError(f"declared rank must be at least 3, got {self.k}")
        if len(self.s) != g.n:
            raise ConstraintError(f"expected {g.n} copy-block sizes, got {len(self.s)}")
        edges = g.edges()
        if len(self.a) != len(edges):
            raise ConstraintError(f"expected {len(edges)} additional-block sizes, got {len(self.a)}")
        for v, sv in enumerate(self.s):
            if sv < 1:
                raise ConstraintError(f"copy-block size of vertex {v} must be positive, got {sv}")
        for idx, (u, v) in enumerate(edges):
            if self.a[idx] < 0:
                raise ConstraintError(f"additional-block size of edge {(u, v)} must be >= 0")
            if self.s[u] + self.s[v] > self.k:
                raise ConstraintError(
                    f"edge {(u, v)}: s_{u} + s_{v} = {self.s[u] + self.s[v]} exceeds k = {self.k}")
            if self.s[u] + self.s[v] + self.a[idx] > self.k:
                raise ConstraintError(
                    f"edge {(u, v)}: block sizes sum to {self.s[u] + self.s[v] + self.a[idx]}"
                    f" which exceeds k = {self.k}")


@dataclass(frozen=True)
class BlockWitness:
    """Certifies the block structure of a dilation.

    support_map[v] is the image of graph vertex v; copy_blocks[v] lists the
    whole copy block (support vertex included); edge_blocks[i] lists the
    additional vertices of graph edge i; edge_map[i] is the hypergraph edge
    built from graph edge i.
    """

    support_map: tuple[int, ...]
    copy_blocks: tuple[tuple[int, ...], ...]
    edge_blocks: tuple[tuple[int, ...], ...]
    edge_map: tuple[int, ...]
    declared_rank: int

    def block_sizes(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(s, a) recovered from the blocks."""
        return (tuple(len(b) for b in self.copy_blocks),
                tuple(len(b) for b in self.edge_blocks))

    def validate(self, g: Graph, h: Hypergraph) -> None:
        """Check that the blocks build h from g. The shape check makes the
        blocks partition V(H) and edge_map a bijection onto the hyperedges;
        the union check makes hyperedge edge_map[i] equal block(u) ∪ block(v)
        ∪ block(e_i) for graph edge e_i = uv. So a copy vertex of v lies in
        exactly the hyperedges of v's edges, giving degree deg_G(v), and an
        additional vertex in one hyperedge only: degrees need no check."""
        n = g.n
        edges = g.edges()
        if len(self.support_map) != n or len(self.copy_blocks) != n:
            raise WitnessError("witness vertex blocks do not match the graph")
        if len(self.edge_blocks) != len(edges) or len(self.edge_map) != len(edges):
            raise WitnessError("witness edge blocks do not match the graph")
        self.validate_shape(h)
        for v in range(n):
            if self.support_map[v] not in self.copy_blocks[v]:
                raise WitnessError(f"support vertex of {v} missing from its copy block")
        block_masks = [_mask(blk) for blk in self.copy_blocks]
        for i, (u, v) in enumerate(edges):
            expected = block_masks[u] | block_masks[v] | _mask(self.edge_blocks[i])
            if h.edge_masks[self.edge_map[i]] != expected:
                raise WitnessError(f"hyperedge for graph edge {(u, v)} is not the union of its blocks")

    def validate_shape(self, h: Hypergraph) -> None:
        """Graph-free consistency: the edge correspondence is a bijection
        onto the hyperedges and the blocks partition V(H). Full validation
        (block unions) needs the graph."""
        if len(self.edge_blocks) != len(self.edge_map):
            raise WitnessError("edge blocks and edge correspondence differ in length")
        if sorted(self.edge_map) != list(range(h.edge_count)):
            raise WitnessError("edge correspondence is not a bijection onto the hyperedges")
        union = 0
        for blk in (*self.copy_blocks, *self.edge_blocks):
            mask = _mask(blk)
            if union & mask:
                raise WitnessError("blocks are not pairwise disjoint")
            union |= mask
        if union != (1 << h.m) - 1:
            raise WitnessError("blocks do not partition the hypergraph vertex set")

    def to_json(self) -> dict:
        return {
            "support_map": list(self.support_map),
            "copy_blocks": [list(b) for b in self.copy_blocks],
            "edge_blocks": [list(b) for b in self.edge_blocks],
            "edge_map": list(self.edge_map),
            "declared_rank": self.declared_rank,
        }


def dilate(g: Graph, spec: DilationSpec) -> tuple[Hypergraph, BlockWitness]:
    """Build the dilation of g described by spec, with its block witness.

    Vertex layout: support vertices first (graph vertex v maps to v), then
    copy vertices grouped by owner, then additional vertices grouped by edge
    in Graph.edges() order. Hyperedges may stay below the cap spec.k, as
    dilations need not be uniform; h.rank < w.declared_rank then shows it.
    """
    spec.validate(g)
    edges = g.edges()
    if not edges:
        raise DomainError("dilation requires a graph with at least one edge")
    nxt = g.n
    copy_blocks = []
    for v in range(g.n):
        block = [v]
        for _ in range(spec.s[v] - 1):
            block.append(nxt)
            nxt += 1
        copy_blocks.append(tuple(block))
    edge_blocks = []
    for i in range(len(edges)):
        block = []
        for _ in range(spec.a[i]):
            block.append(nxt)
            nxt += 1
        edge_blocks.append(tuple(block))
    block_masks = [_mask(block) for block in copy_blocks]
    hyperedges = [block_masks[u] | block_masks[v] | _mask(edge_blocks[i])
                  for i, (u, v) in enumerate(edges)]
    h = Hypergraph(nxt, hyperedges)
    witness = BlockWitness(
        support_map=tuple(range(g.n)),
        copy_blocks=tuple(copy_blocks),
        edge_blocks=tuple(edge_blocks),
        edge_map=tuple(range(len(edges))),
        declared_rank=spec.k,
    )
    return h, witness


def generalized_power(g: Graph, k: int, s: int) -> tuple[Hypergraph, BlockWitness]:
    """The k-uniform dilation with copy blocks of size s and edge blocks of size k-2s."""
    if k < 3:
        raise DomainError(f"generalized power requires k >= 3, got {k}")
    if not (1 <= s <= k / 2):
        raise DomainError(f"generalized power requires 1 <= s <= k/2, got s={s}, k={k}")
    return dilate(g, DilationSpec.uniform(g, k, s))


def classify_dilation(h: Hypergraph, w: BlockWitness) -> DilationClass:
    """Gamma0 if no edge has additional vertices, Gamma1 if all do, Mixed otherwise."""
    w.validate_shape(h)
    _, a = w.block_sizes()
    if all(x == 0 for x in a):
        return DilationClass.GAMMA0
    if all(x >= 1 for x in a):
        return DilationClass.GAMMA1
    return DilationClass.MIXED


@dataclass(frozen=True)
class DilationPropertyReport:
    """The four basic structural facts every dilation must satisfy."""

    two_supports_per_edge: bool
    adjacency_preserved: bool
    disjointness_preserved: bool
    connectivity_preserved: bool

    @property
    def all_ok(self) -> bool:
        return (self.two_supports_per_edge and self.adjacency_preserved
                and self.disjointness_preserved and self.connectivity_preserved)


def check_dilation_properties(g: Graph, h: Hypergraph, w: BlockWitness) -> DilationPropertyReport:
    """Check the four dilation facts: two supports per hyperedge, adjacency of
    supports matches, edge disjointness matches, connectivity matches.
    A valid witness implies the first three; they are read from the edges of
    G and H, not from the blocks, to cross-check validate. Disjointness is
    checked per edge: the edges meeting a graph edge must map to the
    hyperedges meeting its image. Connectivity can differ: a one-vertex graph
    whose copy block has two or more vertices gives a disconnected
    hypergraph with no edges."""
    w.validate(g, h)
    support_mask = _mask(w.support_map)

    two_supports = all((e & support_mask).bit_count() == 2 for e in h.edge_masks)

    incidence = h.incidence()
    supports = [incidence[x] for x in w.support_map]
    adjacency = all(bool(supports[u] & supports[v]) == g.has_edge(u, v)
                    for u in range(g.n) for v in range(u + 1, g.n))

    edges = g.edges()
    mapped_at = [0] * g.n  # per graph vertex, the images of its edges
    for (u, v), j in zip(edges, w.edge_map):
        mapped_at[u] |= 1 << j
        mapped_at[v] |= 1 << j
    meets = [0] * h.edge_count  # per hyperedge, the hyperedges that meet it
    for edges_at in incidence:
        rest = edges_at
        while rest:
            j = rest.bit_length() - 1
            rest ^= 1 << j
            meets[j] |= edges_at
    disjointness = all(meets[j] == mapped_at[u] | mapped_at[v]
                       for (u, v), j in zip(edges, w.edge_map))

    connectivity = g.is_connected() == h.is_connected()
    return DilationPropertyReport(two_supports, adjacency, disjointness, connectivity)


def random_dilation(g: Graph, k: int, seed: int,
                    cls: str = "any") -> tuple[Hypergraph, BlockWitness]:
    """Sample a dilation deterministically from (g, k, seed, cls).

    cls "gamma0" forces every additional block empty, "gamma1" forces every
    additional block non-empty, and "any" draws block sizes freely.
    """
    key = cls.lower()
    if key == "any":
        requested: Optional[DilationClass] = None
    elif key in ("gamma0", "gamma1"):
        requested = DilationClass(key)
    else:
        raise DomainError(f"unknown dilation class {cls!r}; use any, gamma0 or gamma1")
    if k < 3:
        raise FeasibilityError(f"dilations require k >= 3, got {k}")
    if g.edge_count == 0:
        raise FeasibilityError("dilations require at least one edge")
    rng = random.Random(f"{seed}|{g.n}|{g.adj}|{k}|{key}")
    edges = g.edges()
    if requested is DilationClass.GAMMA1:
        s_cap = max(1, (k - 1) // 2)
    else:
        s_cap = max(1, k // 2)
    s = tuple(rng.randint(1, s_cap) for _ in range(g.n))
    a = []
    for u, v in edges:
        room = k - s[u] - s[v]
        if requested is DilationClass.GAMMA0:
            a.append(0)
        elif requested is DilationClass.GAMMA1:
            if room < 1:
                raise FeasibilityError(f"no room for an additional vertex on edge {(u, v)}")
            a.append(rng.randint(1, room))
        else:
            a.append(rng.randint(0, room))
    return dilate(g, DilationSpec(k, s, tuple(a)))
