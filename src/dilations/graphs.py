"""Finite simple graphs on 0..n-1 with bitmask adjacency rows.

Provides the core immutable `Graph` type, graph6 / edge-list codecs, the
family generators used throughout the package (cycles, completes, coronas,
the amalgamated triangle families, ...), vertex amalgamation, and structural
profiles (degrees, bipartition, leaves and stems).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .errors import CapacityError, DomainError, ParseError

MAX_VERTICES = 64


class Graph:
    """Immutable simple graph; adjacency stored as one int bitmask per vertex."""

    __slots__ = ("n", "adj", "labels")

    def __init__(self, n: int, adj: Sequence[int], labels: Optional[Sequence[str]] = None):
        if n < 0:
            raise DomainError("vertex count must be non-negative")
        if n > MAX_VERTICES:
            raise CapacityError(f"graph has {n} vertices; the core supports at most {MAX_VERTICES}")
        if len(adj) != n:
            raise ValueError("adjacency row count does not match vertex count")
        mask_all = (1 << n) - 1
        for v, row in enumerate(adj):
            if row & ~mask_all:
                raise ValueError(f"adjacency row {v} references vertices outside 0..{n - 1}")
            if row >> v & 1:
                raise ValueError(f"self-loop at vertex {v}")
        for v in range(n):
            for u in range(v + 1, n):
                if (adj[v] >> u & 1) != (adj[u] >> v & 1):
                    raise ValueError(f"adjacency not symmetric between {v} and {u}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "adj", tuple(adj))
        object.__setattr__(self, "labels", tuple(labels) if labels is not None else None)

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    def __reduce__(self):
        return (Graph, (self.n, self.adj, self.labels))

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]],
                   labels: Optional[Sequence[str]] = None) -> "Graph":
        if n > MAX_VERTICES:
            raise CapacityError(f"graph has {n} vertices; the core supports at most {MAX_VERTICES}")
        rows = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise DomainError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return cls(n, rows, labels)

    # -- basic accessors ---------------------------------------------------

    def edges(self) -> list[tuple[int, int]]:
        """Edges as sorted (u, v) pairs with u < v."""
        out = []
        for u, row in enumerate(self.adj):
            rest = row >> (u + 1) << (u + 1)
            while rest:
                low = rest & -rest
                rest ^= low
                out.append((u, low.bit_length() - 1))
        return out

    @property
    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def degrees(self) -> tuple[int, ...]:
        return tuple(row.bit_count() for row in self.adj)

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def neighbors(self, v: int) -> list[int]:
        return _mask_to_list(self.adj[v])

    def relabel(self, perm: Sequence[int]) -> "Graph":
        """Relabel: vertex v of self becomes perm[v] in the result."""
        return Graph(self.n, _relabel_rows(self.adj, perm))

    def induced_subgraph(self, vertices: Sequence[int]) -> "Graph":
        """Subgraph on the given vertices, relabeled 0..k-1 in the given order."""
        index = {v: i for i, v in enumerate(vertices)}
        if len(index) != len(vertices):
            raise DomainError("duplicate vertices in induced_subgraph")
        edges = []
        for i, v in enumerate(vertices):
            for u in _mask_to_list(self.adj[v]):
                j = index.get(u)
                if j is not None and i < j:
                    edges.append((i, j))
        return Graph.from_edges(len(vertices), edges)

    def components(self) -> list[list[int]]:
        """Connected components as sorted vertex lists, ordered by minimum vertex."""
        comps = []
        left = (1 << self.n) - 1
        while left:
            comp = _reach(self.adj, left & -left, left)
            left ^= comp
            comps.append(_mask_to_list(comp))
        return comps

    def is_connected(self) -> bool:
        full = (1 << self.n) - 1
        return self.n <= 1 or _reach(self.adj, 1, full) == full

    def __eq__(self, other):
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self):
        return hash((self.n, self.adj))

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.edge_count})"


def _mask(vertices: Iterable[int]) -> int:
    mask = 0
    for v in vertices:
        mask |= 1 << v
    return mask


def _mask_to_list(mask: int) -> list[int]:
    # top bit first: on a wide mask that is cheaper than isolating the lowest
    out = []
    while mask:
        v = mask.bit_length() - 1
        out.append(v)
        mask ^= 1 << v
    out.reverse()
    return out


def _reach(rows: Sequence[int], seed: int, within: int) -> int:
    """The vertices of the mask `within` that paths inside `within` reach from
    the mask `seed`, on the graph with adjacency rows `rows`. `seed` must lie
    inside `within`."""
    reached = frontier = seed
    while frontier:
        low = frontier & -frontier
        frontier ^= low
        new = rows[low.bit_length() - 1] & within & ~reached
        reached |= new
        frontier |= new
    return reached


def _relabel_rows(rows: Sequence[int], perm: Sequence[int]) -> list[int]:
    """The adjacency rows `rows` with vertex v renamed perm[v]."""
    out = [0] * len(rows)
    for v, m in enumerate(rows):
        new = 0
        while m:
            low = m & -m
            new |= 1 << perm[low.bit_length() - 1]
            m ^= low
        out[perm[v]] = new
    return out


# -- graph6 codec ----------------------------------------------------------

def to_graph6(g: Graph) -> str:
    """Encode as a standard graph6 string (no header, no trailing newline)."""
    return _rows_to_graph6(g.adj)


def _rows_to_graph6(rows: Sequence[int]) -> str:
    """graph6 string of the graph whose adjacency rows are `rows`."""
    n = len(rows)
    chunks = []
    if n <= 62:
        chunks.append(n + 63)
    else:
        chunks.append(126)
        chunks.extend([((n >> 12) & 63) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63])
    bits = []
    for j in range(1, n):
        col = rows[j]
        for i in range(j):
            bits.append(col >> i & 1)
    while len(bits) % 6:
        bits.append(0)
    for i in range(0, len(bits), 6):
        val = 0
        for b in bits[i:i + 6]:
            val = (val << 1) | b
        chunks.append(val + 63)
    return "".join(chr(c) for c in chunks)


def parse_graph6(text: str) -> Graph:
    """Decode a graph6 string (optionally prefixed with the '>>graph6<<' header)."""
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    if not s:
        raise ParseError("empty graph6 string")
    data = [ord(c) - 63 for c in s]
    if any(d < 0 or d > 63 for d in data):
        raise ParseError("graph6 string contains characters outside the printable range")
    if data[0] == 63:  # '~' extended size
        if len(data) < 4:
            raise ParseError("truncated graph6 size field")
        if data[1] == 63:
            raise ParseError("graph6 sizes above 2^18 are not supported")
        n = (data[1] << 12) | (data[2] << 6) | data[3]
        body = data[4:]
    else:
        n = data[0]
        body = data[1:]
    if n > MAX_VERTICES:
        raise CapacityError(f"graph6 input has {n} vertices; the core supports at most {MAX_VERTICES}")
    need = (n * (n - 1) // 2 + 5) // 6
    if len(body) != need:
        raise ParseError(f"graph6 body has {len(body)} groups, expected {need} for n={n}")
    bits = []
    for val in body:
        for shift in range(5, -1, -1):
            bits.append(val >> shift & 1)
    rows = [0] * n
    idx = 0
    for j in range(1, n):
        for i in range(j):
            if bits[idx]:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            idx += 1
    if any(bits[idx:]):
        raise ParseError("graph6 padding bits are not zero")
    return Graph(n, rows)


# -- edge-list codec ---------------------------------------------------------

def parse_edge_list(text: str) -> Graph:
    """Parse whitespace-separated edge pairs, one per line.

    An optional first line ``n <count>`` fixes the vertex count, in which case
    endpoints must be integer indices in range. Without it, endpoint tokens are
    relabeled 0..n-1 in first-appearance order and kept as labels.
    """
    declared_n = None
    index: dict[str, int] = {}
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for lineno, raw in enumerate(text.splitlines(), 1):
        parts = raw.split()
        if not parts or parts[0].startswith("#"):
            continue
        if parts[0] == "n" and declared_n is None and not index:  # no content line yet
            if len(parts) != 2:
                raise ParseError(f"line {lineno}: malformed vertex-count header")
            try:
                declared_n = int(parts[1])
            except ValueError:
                raise ParseError(f"line {lineno}: vertex count is not an integer") from None
            if declared_n < 0:
                raise ParseError(f"line {lineno}: negative vertex count")
            if declared_n > MAX_VERTICES:
                raise CapacityError(f"edge list declares {declared_n} vertices; "
                                    f"the core supports at most {MAX_VERTICES}")
            continue
        if len(parts) != 2:
            raise ParseError(f"line {lineno}: expected two endpoints, got {len(parts)}")
        if declared_n is None:
            u, v = (index.setdefault(tok, len(index)) for tok in parts)
            if len(index) > MAX_VERTICES:
                raise CapacityError(f"edge list uses more than {MAX_VERTICES} distinct vertices")
        else:
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError:
                raise ParseError(f"line {lineno}: non-integer endpoint with declared vertex count") from None
            if not (0 <= u < declared_n and 0 <= v < declared_n):
                raise ParseError(f"line {lineno}: endpoint out of range 0..{declared_n - 1}")
        _append_edge(edges, seen, u, v, lineno)
    if declared_n is None:
        return Graph.from_edges(len(index), edges, labels=list(index))
    return Graph.from_edges(declared_n, edges)


def _append_edge(edges, seen, u, v, lineno):
    if u == v:
        raise ParseError(f"line {lineno}: self-loop at vertex {u} (simple graphs only)")
    key = (min(u, v), max(u, v))
    if key in seen:
        raise ParseError(f"line {lineno}: duplicate edge {key} (simple graphs only)")
    seen.add(key)
    edges.append(key)


def to_edge_list(g: Graph) -> str:
    """Serialize as an edge list with an explicit ``n <count>`` header."""
    lines = [f"n {g.n}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def parse_graph(fmt: str, text: str) -> Graph:
    if fmt == "graph6":
        return parse_graph6(text)
    if fmt == "edge_list":
        return parse_edge_list(text)
    raise ParseError(f"unknown graph format {fmt!r}")


def serialize_graph(fmt: str, g: Graph) -> str:
    if fmt == "graph6":
        return to_graph6(g)
    if fmt == "edge_list":
        return to_edge_list(g)
    raise ParseError(f"unknown graph format {fmt!r}")


# -- family generators -------------------------------------------------------

def cycle(p: int) -> Graph:
    if p < 3:
        raise DomainError(f"cycle requires p >= 3, got {p}")
    return Graph.from_edges(p, [(i, (i + 1) % p) for i in range(p)])


def path(p: int) -> Graph:
    if p < 1:
        raise DomainError(f"path requires p >= 1, got {p}")
    return Graph.from_edges(p, [(i, i + 1) for i in range(p - 1)])


def complete(m: int) -> Graph:
    if m < 1:
        raise DomainError(f"complete requires m >= 1, got {m}")
    return Graph.from_edges(m, [(i, j) for i in range(m) for j in range(i + 1, m)])


def complete_bipartite(a: int, b: int) -> Graph:
    if a < 1 or b < 1:
        raise DomainError(f"complete_bipartite requires both sides >= 1, got ({a}, {b})")
    return Graph.from_edges(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def star(m: int) -> Graph:
    if m < 1:
        raise DomainError(f"star requires m >= 1 leaves, got {m}")
    return Graph.from_edges(m + 1, [(0, i) for i in range(1, m + 1)])


def corona(base: Graph) -> Graph:
    """Attach one pendant vertex to every vertex of the base graph."""
    edges = list(base.edges())
    edges.extend((v, base.n + v) for v in range(base.n))
    return Graph.from_edges(2 * base.n, edges)


def complete_minus_clique(n: int, r: int) -> Graph:
    """K_{2n} with the edges of one K_r (on vertices 0..r-1) removed."""
    if n < 2:
        raise DomainError(f"complete_minus_clique requires n >= 2, got {n}")
    if not (2 <= r <= n - 1):
        raise DomainError(f"complete_minus_clique requires 2 <= r <= n-1, got r={r} for n={n}")
    edges = [(i, j) for i in range(2 * n) for j in range(i + 1, 2 * n) if not (i < r and j < r)]
    return Graph.from_edges(2 * n, edges)


def vertex_amalgam(g1: Graph, v1: int, g2: Graph, v2: int) -> Graph:
    """Glue g2 onto g1 by identifying v2 of g2 with v1 of g1.

    Vertices of g1 keep their indices; the remaining vertices of g2 follow in
    increasing original order.
    """
    if not (0 <= v1 < g1.n):
        raise DomainError(f"vertex {v1} out of range for first graph")
    if not (0 <= v2 < g2.n):
        raise DomainError(f"vertex {v2} out of range for second graph")
    remap = {}
    nxt = g1.n
    for v in range(g2.n):
        if v == v2:
            remap[v] = v1
        else:
            remap[v] = nxt
            nxt += 1
    edges = list(g1.edges())
    edges.extend((min(remap[u], remap[v]), max(remap[u], remap[v])) for u, v in g2.edges())
    return Graph.from_edges(g1.n + g2.n - 1, edges)


def cp_vee_cq(p: int, q: int) -> Graph:
    """Two cycles C_p and C_q sharing exactly one vertex (vertex 0)."""
    return vertex_amalgam(cycle(p), 0, cycle(q), 0)


def t1() -> Graph:
    """Triangle {0,1,2} with one pendant vertex 3 attached at 0."""
    return Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (0, 3)])


def t2() -> Graph:
    """Triangle {0,1,2} with pendant 3 at 0 and pendant 4 at 1.

    The two pendant edges attach at distinct triangle vertices, leaving
    vertex 2 with degree 2; that is the vertex used when several copies
    are amalgamated.
    """
    return Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 4)])


def _g_nr_common(n: int, r: int) -> None:
    if n <= 2:
        raise DomainError(f"amalgamated triangle families require n > 2, got {n}")
    if not (1 <= r <= (n - 1) // 2):
        raise DomainError(f"requires 1 <= r <= floor((n-1)/2) = {(n - 1) // 2}, got r={r}")


def g_nr(n: int, r: int) -> Graph:
    """n-2r triangles and r double-pendant triangles sharing vertex 0.

    Vertex 0 is the shared degree-2-per-block vertex; triangle blocks come
    first, then the double-pendant blocks.
    """
    _g_nr_common(n, r)
    return _triangle_fan([0] * (n - 2 * r) + [2] * r)


def ghat_nr(n: int, r: int) -> Graph:
    """Like g_nr but one double-pendant block is replaced by a single-pendant one."""
    _g_nr_common(n, r)
    return _triangle_fan([0] * (n - 2 * r) + [2] * (r - 1) + [1])


def _triangle_fan(pendants: list[int]) -> Graph:
    """Triangles sharing vertex 0, one block per entry of `pendants`; a block
    with p pendants hangs one leaf on each of its first p triangle vertices."""
    edges = []
    nxt = 1
    for p in pendants:
        a, b = nxt, nxt + 1
        edges += [(0, a), (0, b), (a, b)]
        nxt += 2
        for x in (a, b)[:p]:
            edges.append((x, nxt))
            nxt += 1
    return Graph.from_edges(nxt, edges)


@dataclass(frozen=True)
class FamilySpec:
    """A named graph family with integer parameters; corona nests a base spec."""

    name: str
    args: tuple[int, ...] = ()
    base: Optional["FamilySpec"] = None

    def __str__(self) -> str:
        if self.name == "corona":
            return f"corona:{self.base}"
        if self.args:
            return f"{self.name}:{','.join(str(a) for a in self.args)}"
        return self.name


# name -> (builder, parameter count); corona nests a base spec instead
_FAMILIES = {
    "cycle": (cycle, 1), "path": (path, 1), "complete": (complete, 1), "star": (star, 1),
    "complete_bipartite": (complete_bipartite, 2),
    "complete_minus_clique": (complete_minus_clique, 2),
    "g_nr": (g_nr, 2), "ghat_nr": (ghat_nr, 2), "cp_vee_cq": (cp_vee_cq, 2),
    "t1": (t1, 0), "t2": (t2, 0),
}


def parse_family(text: str) -> FamilySpec:
    """Parse the mini-grammar ``name:arg1,arg2`` with nesting for corona.

    Each corona doubles the vertex count, so more than six of them would
    build a graph over MAX_VERTICES even from one vertex; they raise
    CapacityError before anything is built."""
    coronas = 0
    name, colon, rest = text.strip().partition(":")
    while name.strip() == "corona":
        if not rest:
            raise ParseError("corona requires a base family, e.g. corona:cycle:3")
        coronas += 1
        if 1 << coronas > MAX_VERTICES:
            raise CapacityError(f"more than {coronas - 1} nested coronas would build"
                                f" a graph over {MAX_VERTICES} vertices")
        name, colon, rest = rest.strip().partition(":")
    name = name.strip()
    if name not in _FAMILIES:
        raise ParseError(f"unknown family {name!r}")
    arity = _FAMILIES[name][1]
    if arity == 0 and colon:
        raise ParseError(f"family {name!r} takes no parameters")
    parts = rest.split(",") if rest else []
    if len(parts) != arity:
        raise ParseError(f"family {name!r} takes {arity} parameter(s), got {len(parts)}")
    try:
        spec = FamilySpec(name, tuple(int(p) for p in parts))
    except ValueError:
        raise ParseError(f"family {name!r} parameters must be integers") from None
    for _ in range(coronas):
        spec = FamilySpec("corona", base=spec)
    return spec


def generate(spec: FamilySpec) -> Graph:
    """Build the graph described by a FamilySpec."""
    if spec.name == "corona":
        return corona(generate(spec.base))
    if spec.name not in _FAMILIES:
        raise DomainError(f"unknown family {spec.name!r}")
    return _FAMILIES[spec.name][0](*spec.args)


def graph_from_family_string(text: str) -> Graph:
    return generate(parse_family(text))


# -- structure profile --------------------------------------------------------

@dataclass(frozen=True)
class StructureProfile:
    degrees: tuple[int, ...]
    degree_sequence: tuple[int, ...]  # non-increasing
    min_degree: int
    max_degree: int
    is_connected: bool
    bipartition: Optional[tuple[tuple[int, ...], tuple[int, ...]]]
    leaves: tuple[int, ...]
    stems: tuple[int, ...]


def structure_profile(g: Graph) -> StructureProfile:
    """Degrees, connectivity, 2-coloring bipartition (if any), leaves and stems."""
    degs = g.degrees()
    bipartition = _two_coloring(g)
    leaves = tuple(v for v in range(g.n) if degs[v] == 1)
    leaf_mask = _mask(leaves)
    stems = tuple(v for v in range(g.n) if g.adj[v] & leaf_mask)
    return StructureProfile(
        degrees=degs,
        degree_sequence=tuple(sorted(degs, reverse=True)),
        min_degree=min(degs) if degs else 0,
        max_degree=max(degs) if degs else 0,
        is_connected=g.is_connected(),
        bipartition=bipartition,
        leaves=leaves,
        stems=stems,
    )


def _two_coloring(g: Graph) -> Optional[tuple[tuple[int, ...], tuple[int, ...]]]:
    """2-color each component from its minimum vertex; None if an odd cycle exists.

    For connected graphs the sides are swapped if needed so that |V1| <= |V2|
    (ties keep vertex 0 in V1).
    """
    color = [-1] * g.n
    roots = 0
    for s in range(g.n):
        if color[s] != -1:
            continue
        roots += 1
        color[s] = 0
        stack = [s]
        while stack:
            v = stack.pop()
            for u in _mask_to_list(g.adj[v]):
                if color[u] == -1:
                    color[u] = 1 - color[v]
                    stack.append(u)
                elif color[u] == color[v]:
                    return None
    side0 = tuple(v for v in range(g.n) if color[v] == 0)
    side1 = tuple(v for v in range(g.n) if color[v] == 1)
    if roots == 1 and len(side0) > len(side1):
        side0, side1 = side1, side0
    return (side0, side1)
