"""Independent brute-force oracles used to pin expected values in tests.

Everything here works on plain Python sets and itertools enumeration, on
purpose: these functions must not share code paths with the library solvers
they are used to check.
"""

from itertools import combinations, permutations


def edge_sets(h):
    """Hyperedges as a list of frozensets (works for Graph via .edges too)."""
    if hasattr(h, "edge_sets"):
        return [frozenset(e) for e in h.edge_sets()]
    return [frozenset(e) for e in h.edges()]


def brute_nu(h):
    """Maximum number of pairwise disjoint edges, by subset enumeration."""
    edges = edge_sets(h)
    best = 0
    for size in range(len(edges), 0, -1):
        if size <= best:
            break
        for combo in combinations(range(len(edges)), size):
            union = set()
            ok = True
            for i in combo:
                if union & edges[i]:
                    ok = False
                    break
                union |= edges[i]
            if ok:
                return size
    return best


def brute_tau(h):
    """Minimum vertex set meeting every edge, by subset enumeration."""
    edges = edge_sets(h)
    m = h.m if hasattr(h, "m") else h.n
    if not edges:
        return 0
    for size in range(m + 1):
        for combo in combinations(range(m), size):
            chosen = set(combo)
            if all(e & chosen for e in edges):
                return size
    raise AssertionError("unreachable: full vertex set is always a transversal")


def brute_gamma(h):
    """Minimum dominating set under shared-edge adjacency, by enumeration."""
    edges = edge_sets(h)
    m = h.m if hasattr(h, "m") else h.n
    neighbors = {v: {v} for v in range(m)}
    for e in edges:
        for v in e:
            neighbors[v] |= e
    for size in range(m + 1):
        for combo in combinations(range(m), size):
            covered = set()
            for v in combo:
                covered |= neighbors[v]
            if len(covered) == m:
                return size
    raise AssertionError("unreachable: full vertex set always dominates")


def brute_connected_labeled_count(n, canon):
    """Number of isomorphism classes of connected graphs on n labeled vertices,
    by filtering all labeled graphs and deduplicating with the given canonical
    function."""
    from dilations.graphs import Graph

    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    seen = set()
    for mask in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
        g = Graph.from_edges(n, edges)
        if not g.is_connected():
            continue
        seen.add(canon(g))
    return len(seen)


def brute_connected_permutation_count(n):
    """Same count for small n, deduplicating by min-over-all-permutations
    edge sets (no canonical-form code involved)."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    perms = list(permutations(range(n)))

    def connected(edges):
        if n == 1:
            return True
        adj = {v: set() for v in range(n)}
        for u, v in edges:
            adj[u].add(v)
            adj[v].add(u)
        seen = {0}
        stack = [0]
        while stack:
            v = stack.pop()
            for u in adj[v]:
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
        return len(seen) == n

    reps = set()
    for mask in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
        if not connected(edges):
            continue
        key = min(
            tuple(sorted((min(p[u], p[v]), max(p[u], p[v])) for u, v in edges))
            for p in perms
        )
        reps.add(key)
    return len(reps)


def unpruned_connected_classes(n, canon):
    """Representatives of the connected graphs on n vertices by plain vertex
    augmentation: attach a new vertex to every non-empty neighbourhood of
    every representative on n - 1 vertices, keep the first candidate of each
    `canon` code, and order by code. No automorphism pruning."""
    from dilations.graphs import Graph

    if n == 1:
        return [Graph(1, [0])]
    seen = {}
    for base in unpruned_connected_classes(n - 1, canon):
        for nbhd in range(1, 1 << (n - 1)):
            edges = base.edges() + [(v, n - 1) for v in range(n - 1) if nbhd >> v & 1]
            cand = Graph.from_edges(n, edges)
            seen.setdefault(canon(cand), cand)
    return [seen[code] for code in sorted(seen)]


def profile_without(adj, u=None):
    """The profile of the graph on adjacency rows `adj` less vertex u (the
    whole graph when u is None), from scratch: the sorted (degree, sum of
    neighbour degrees) pairs over the vertices left. The reference for the
    enumeration's incremental profiles."""
    rest = [v for v in range(len(adj)) if v != u]
    nbrs = {v: {w for w in rest if adj[v] >> w & 1} for v in rest}
    return sorted((len(nbrs[v]), sum(len(nbrs[w]) for w in nbrs[v])) for v in rest)


def brute_berge_exists(g, h):
    """Does h host a copy of g? Enumerate all vertex injections; for each,
    assign distinct containing hyperedges to the graph edges by plain DFS."""
    g_edges = g.edges()
    h_edges = edge_sets(h)
    if len(g_edges) != len(h_edges):
        raise ValueError("edge counts differ")
    m = h.m

    def assign(i, image, used):
        if i == len(g_edges):
            return True
        u, v = g_edges[i]
        for j in range(len(h_edges)):
            if j in used:
                continue
            if image[u] in h_edges[j] and image[v] in h_edges[j]:
                used.add(j)
                if assign(i + 1, image, used):
                    return True
                used.remove(j)
        return False

    for image in permutations(range(m), g.n):
        if assign(0, image, set()):
            return True
    return False


def full_refine(adj, cells):
    """Equitable refinement that counts neighbours into every cell each round:
    the reference that splitter-cell refinement must reproduce, cell order
    included."""
    from dilations.graphs import _mask

    while True:
        masks = [_mask(cell) for cell in cells]
        new_cells: list[list[int]] = []
        changed = False
        for cell in cells:
            if len(cell) == 1:
                new_cells.append(cell)
                continue
            keyed: dict[tuple, list[int]] = {}
            for v in cell:
                row = adj[v]
                key = tuple([(row & m).bit_count() for m in masks])
                keyed.setdefault(key, []).append(v)
            if len(keyed) == 1:
                new_cells.append(cell)
            else:
                changed = True
                for key in sorted(keyed):
                    new_cells.append(keyed[key])
        cells = new_cells
        if not changed:
            return cells


def greedy_transversal_nu(h):
    """The nu branch and bound bounded by the greedy transversal alone: the
    reference that any stronger bound must match in value and witness and
    never exceed in nodes. Returns (value, witness, value_nodes,
    witness_nodes)."""
    masks = [sum(1 << v for v in e) for e in edge_sets(h)]
    n_edges = len(masks)
    m = h.m if hasattr(h, "m") else h.n
    nodes = 0

    incidence = [0] * m
    for i, e in enumerate(masks):
        for v in range(m):
            if e >> v & 1:
                incidence[v] |= 1 << i
    edge_vertices = [[v for v in range(m) if e >> v & 1] for e in masks]
    conflicts = []  # conflicts[i]: the edges that meet edge i, itself included
    for verts in edge_vertices:
        c = 0
        for v in verts:
            c |= incidence[v]
        conflicts.append(c)

    def bound(cands: int, limit: int) -> int:
        count = 0
        while cands and count < limit:
            i = (cands & -cands).bit_length() - 1
            best, best_size = 0, 0
            for v in edge_vertices[i]:
                hit = incidence[v] & cands
                size = hit.bit_count()
                if size > best_size:
                    best, best_size = hit, size
            cands &= ~best
            count += 1
        return count

    # greedy initial packing
    best_value = 0
    acc = 0
    for i in range(n_edges):
        if not (acc & masks[i]):
            best_value += 1
            acc |= masks[i]

    def descend(cands: int, count: int):
        nonlocal best_value, nodes
        nodes += 1
        if not cands:
            best_value = max(best_value, count)
            return
        if count + bound(cands, best_value - count + 1) <= best_value:
            return
        low = cands & -cands
        descend(cands & ~conflicts[low.bit_length() - 1], count + 1)
        descend(cands ^ low, count)

    descend((1 << n_edges) - 1, 0)
    value_nodes = nodes

    # lexicographic reconstruction: first packing of optimal size in subset order
    target = best_value
    witness = None

    def lex(cands: int, chosen: list):
        nonlocal witness, nodes
        nodes += 1
        remaining = target - len(chosen)
        if not remaining:
            witness = tuple(chosen)
            return
        if bound(cands, remaining) < remaining:
            return
        m = cands
        while m.bit_count() >= remaining:
            low = m & -m
            m ^= low
            i = low.bit_length() - 1
            chosen.append(i)
            lex(cands & ~conflicts[i] & ~(low - 1), chosen)
            chosen.pop()
            if witness is not None:
                return

    lex((1 << n_edges) - 1, [])
    return target, witness, value_nodes, nodes - value_nodes


def cover_reductions(cover_sets, universe):
    """Element and set dominance of a set system, from the definitions, pair
    by pair. cover_sets[s] is the set of elements that set s covers.

    Returns (kept, dropped). An element e of `universe` is dropped when some
    other element f has coverers(f) a proper subset of coverers(e), or equal
    coverers and f < e. A set is dropped when its restriction to the kept
    elements is empty or lies inside the restriction of a lower-index set."""
    coverers = {e: frozenset(s for s, cs in enumerate(cover_sets) if e in cs)
                for e in universe}
    kept = {e for e in universe
            if not any(coverers[f] < coverers[e] or (coverers[f] == coverers[e] and f < e)
                       for f in universe)}
    restricted = [frozenset(cs) & kept for cs in cover_sets]
    dropped = {s for s, r in enumerate(restricted)
               if not r or any(r <= restricted[t] for t in range(s))}
    return kept, dropped
