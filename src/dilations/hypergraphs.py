"""Hypergraphs with labeled vertices 0..m-1 and an ordered edge list.

Edges are stored as int bitmasks; duplicate edges are allowed and order is
preserved, since dilation edges correspond positionally to graph edges. Of
the tables derived from the masks, only the incidence table is kept.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .errors import DomainError, ParseError
from .graphs import Graph, _mask, _mask_to_list


class Hypergraph:
    """Immutable hypergraph; no size cap beyond what fits in memory."""

    __slots__ = ("m", "edge_masks", "_incidence")

    def __init__(self, m: int, edge_masks: Sequence[int]):
        if m < 0:
            raise DomainError("vertex count must be non-negative")
        full = (1 << m) - 1
        for i, e in enumerate(edge_masks):
            if e == 0:
                raise DomainError(f"edge {i} is empty; hyperedges must be non-empty")
            if e & ~full:
                raise DomainError(f"edge {i} references vertices outside 0..{m - 1}")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "edge_masks", tuple(edge_masks))
        object.__setattr__(self, "_incidence", None)  # built by incidence()

    def __setattr__(self, name, value):
        raise AttributeError("Hypergraph is immutable")

    def __reduce__(self):
        return (Hypergraph, (self.m, self.edge_masks))

    @classmethod
    def from_edge_sets(cls, m: int, edges: Iterable[Iterable[int]]) -> "Hypergraph":
        return cls(m, [_mask(edge) for edge in edges])

    @classmethod
    def from_graph(cls, g: Graph) -> "Hypergraph":
        """The graph viewed as a 2-uniform hypergraph; edges in sorted pair order."""
        return cls(g.n, [1 << u | 1 << v for u, v in g.edges()])

    @property
    def edge_count(self) -> int:
        return len(self.edge_masks)

    @property
    def rank(self) -> int:
        return max((e.bit_count() for e in self.edge_masks), default=0)

    def edge_vertices(self, i: int) -> list[int]:
        return _mask_to_list(self.edge_masks[i])

    def edge_sets(self) -> list[list[int]]:
        return [_mask_to_list(e) for e in self.edge_masks]

    def is_uniform(self, k: int) -> bool:
        return all(e.bit_count() == k for e in self.edge_masks)

    def degree(self, v: int) -> int:
        bit = 1 << v
        return sum(1 for e in self.edge_masks if e & bit)

    def vertex_lists(self) -> tuple[tuple[int, ...], ...]:
        """Per edge, its vertices in increasing order; built on each call."""
        return tuple(tuple(_mask_to_list(e)) for e in self.edge_masks)

    def incidence(self) -> tuple[int, ...]:
        """Per vertex, the mask of the edges that contain it; built on first
        use and kept, so every solver on this instance shares the table."""
        if self._incidence is None:
            incidence = [0] * self.m
            for i, e in enumerate(self.edge_masks):
                while e:  # from the top bit down, as in _mask_to_list
                    v = e.bit_length() - 1
                    e ^= 1 << v
                    incidence[v] |= 1 << i
            object.__setattr__(self, "_incidence", tuple(incidence))
        return self._incidence

    def closed_neighborhoods(self) -> list[int]:
        """Per-vertex mask of the vertex itself plus all co-occurring vertices."""
        nbhd = [1 << v for v in range(self.m)]
        for e in self.edge_masks:
            rest = e
            while rest:
                v = rest.bit_length() - 1
                rest ^= 1 << v
                nbhd[v] |= e
        return nbhd

    def is_connected(self) -> bool:
        """Connectivity of the co-occurrence structure; isolated vertices
        disconnect. A walk from vertex 0 over the incidence table: each edge
        is entered once, so no per-vertex neighbourhood is built."""
        if self.m <= 1:
            return True
        incidence = self.incidence()
        reached = frontier = 1
        entered = 0
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            new_edges = incidence[low.bit_length() - 1] & ~entered
            entered |= new_edges
            while new_edges:
                bit = new_edges & -new_edges
                new_edges ^= bit
                new = self.edge_masks[bit.bit_length() - 1] & ~reached
                reached |= new
                frontier |= new
        return reached == (1 << self.m) - 1

    def __eq__(self, other):
        return (isinstance(other, Hypergraph) and self.m == other.m
                and self.edge_masks == other.edge_masks)

    def __hash__(self):
        return hash((self.m, self.edge_masks))

    def __repr__(self):
        return f"Hypergraph(m={self.m}, edges={self.edge_count}, rank={self.rank})"


def parse_hypergraph(text: str) -> Hypergraph:
    """Parse the text format: first line ``m <count>``, then one edge per line."""
    lines = text.splitlines()
    header = None
    edges = []
    for lineno, raw in enumerate(lines, 1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = stripped.split()
        if header is None:
            if parts[0] != "m" or len(parts) != 2:
                raise ParseError(f"line {lineno}: expected header 'm <vertex count>'")
            try:
                header = int(parts[1])
            except ValueError:
                raise ParseError(f"line {lineno}: vertex count is not an integer") from None
            if header < 0:
                raise ParseError(f"line {lineno}: negative vertex count")
            continue
        mask = 0
        for tok in parts:
            try:
                v = int(tok)
            except ValueError:
                raise ParseError(f"line {lineno}: non-integer vertex index {tok!r}") from None
            if not (0 <= v < header):
                raise ParseError(f"line {lineno}: vertex {v} out of range 0..{header - 1}")
            if mask >> v & 1:
                raise ParseError(f"line {lineno}: vertex {v} repeated within the edge")
            mask |= 1 << v
        if mask == 0:
            raise ParseError(f"line {lineno}: empty edge")
        edges.append(mask)
    if header is None:
        raise ParseError("missing 'm <vertex count>' header")
    return Hypergraph(header, edges)


def to_hypergraph_text(h: Hypergraph) -> str:
    lines = [f"m {h.m}"]
    lines.extend(" ".join(str(v) for v in h.edge_vertices(i)) for i in range(h.edge_count))
    return "\n".join(lines) + "\n"


def builtin_hypergraph(name: str) -> Hypergraph:
    """Fixed named instances; currently only the 7-point Fano incidence structure."""
    if name == "fano":
        lines = [(0, 1, 2), (0, 3, 4), (0, 5, 6), (1, 3, 5), (1, 4, 6), (2, 3, 6), (2, 4, 5)]
        return Hypergraph.from_edge_sets(7, lines)
    raise DomainError(f"unknown builtin hypergraph {name!r}")
