"""Exact domination, matching, and transversal numbers with certificates.

All three invariants are computed by deterministic branch and bound over
bitmask state, and by default every certificate holds the lexicographically
smallest optimal witness, so certificates are reproducible across runs. For
gamma, and for tau outside graph instances, a witness pass decides that
witness once the value is known; the nu search, and the tau search on a graph
instance, pass through it on the way to the value. Callers that read only
the value pass lex_witness=False to the gamma and tau solvers, which then
skip the witness pass and certify the optimal cover the value search found,
sorted; it is just as deterministic, but not always the smallest. An
exhaustive mode (plain subset enumeration) is available as a slow reference
path; it ignores lex_witness. Every search is a loop over an explicit stack
that pushes a node's children last first, so it visits nodes in the preorder a
recursive search would, and its depth is bounded by memory and the node cap,
not by Python's recursion limit.

Domination uses co-occurrence adjacency: two hypergraph vertices are
adjacent when some hyperedge contains both. A vertex lying in no hyperedge
can only be dominated by itself and is therefore forced into every
dominating set. On a Graph the closed neighbourhood N[v] is v's adjacency row
plus v, so gamma reads its cover instance from the rows and builds no
hypergraph; the instance is the one the graph's 2-uniform hypergraph gives.

Both covering problems, gamma and tau, go through one minimum set cover
search, except tau on a graph instance (below). Its set-up takes three steps,
none of which changes the value, the witness or the nodes the search visits:
1. Drop dominated elements (the classic set-cover reduction; Weihe 1998,
   Fomin, Grandoni & Kratsch 2009): an element whose coverer set contains
   another element's is covered whenever that other element is, and of two
   elements with equal coverer sets the lower index is kept. One pass in
   index order drops them; it skips each element already dropped, whose
   dominator drops all that it would. For tau this drops every hyperedge that
   contains another hyperedge; on a gamma1 dilation of G the reduced gamma
   instance is vertex cover of G, which is how gamma(H) = tau(G) shows in the
   search. The feasible covers are unchanged, and a minimum cover never holds
   a set that adds nothing to the reduced universe.
2. Take the greedy cover as the first incumbent. If the packing bound
   (below) of the whole reduced universe reaches its size, the search prunes
   its root and returns it, in one node.
3. Drop dominated sets: a set whose restriction to the reduced universe is
   empty, or lies inside the restriction of a lower-index set. A cover
   holding such a set stays a cover when the set is swapped for its
   dominator, and the result is smaller, or as small and lexicographically
   smaller; a dominator of higher index would not do. The greedy never takes
   a dropped set, since its dominator gains as much and wins the tie on
   index, so step 2 may come first. The value search, and the decisions of
   the witness pass, start with the dropped sets forbidden. On the
   gamma1 dilation of K12 minus an edge, gamma takes 121 nodes (29,027
   without this), and tau on corona(C9)^(5,2) 19 (38,247).

The cover search has one branching rule, the minimum-remaining-values choice
of Knuth's Algorithm X: branch on the uncovered element with the fewest
coverers (lowest index on ties), and try its coverers by uncovered gain, then
by index. For gamma the coverers of v are N[v]; for tau they are the vertices
of the edge. The set-up groups the reduced elements by their number of
coverers that set dominance keeps, one mask per count, fewest first; a node
ANDs these masks with its uncovered elements in turn and branches on the
lowest bit of the first that is not empty, which is the least (count, index)
pair. Each
node is bounded by a greedy packing of uncovered elements no two of which
share a coverer, since each of them needs a set of its own. The packing drops
each chosen element's whole union mask at once, an exact rewrite of the plain
greedy, so it prunes the same nodes.

The cover witness pass decides the sets in index order until the universe is
covered, keeping an optimal cover W that extends every decision (at first the
value search's). A set in W is taken. Another set is skipped if it is
forbidden or covers nothing uncovered; else the value search runs from the
node that takes it, and if it finds a cover of the optimal size, that cover
becomes W and the set is taken, and if not, the set is forbidden. On a seeded
G(50, 0.1) gamma's pass takes 12,915 nodes, a walk in subset order 457,194.

Tau on a graph instance runs its own search. A vertex set meets every edge of
a graph iff the other vertices are independent, so tau = n - alpha, and the
minimum covers are the complements of the maximum independent sets. A graph
instance is a Graph, or a hypergraph with at most MAX_VERTICES vertices whose
every edge has two (repeats allowed); exhaustive mode, and every other
instance, keep the cover search. The limit is the graph core's: each node of
this search walks the adjacency rows of its candidates, and its first path
takes a node per vertex, while the cover search settles 1,100 disjoint edges
on 2,200 vertices at its root in 0.2 s, where this search takes 3,301 nodes
and 0.75 s. The search is one stack loop over candidate masks, and it bounds a
node by a greedy clique cover of its candidates (Tomita & Kameda 2007; San
Segundo, Rodríguez-Losada & Jiménez 2011): grow a clique from the lowest
candidate by the lowest common neighbour, remove it, repeat. An independent
set meets each clique at most once. The bound is taken with the vertices
relabelled once by ascending degree (index on ties), so each node carries its
candidates in both orders.

The one search finds the value and the lexicographically smallest minimum
cover together, with no self-reduction. For covers C1, C2 of one size,
C1 < C2 iff min(C1 Δ C2) is in C1; their complements I1, I2 have the same
symmetric difference, so that holds iff I2 < I1, and the smallest cover is
the complement of the lexicographically largest maximum independent set. The
search branches exclude first on the lowest candidate in index order, so it
reaches the independent sets of one size from the largest down. Its
incumbent starts one below the size of the greedy independent set of the
degree order; it prunes a node whose count plus bound is at most the
incumbent, and only a strict improvement replaces the incumbent. Until the
first set of size alpha is reached the incumbent is below alpha, so no node
on the path to that set is pruned, and the set kept is that first one: the
lexicographically largest. An isolated branch vertex gets no exclude child,
since a set without it has room for it; its one child passes the bound as its
parent did (the vertex is a clique of its own and leaves the others as they
were), so the loop takes a run of such vertices without bounding them. On a
seeded G(64, 0.2) the cover search took 197,491 value and 52,664 witness
nodes (1.2 s), and this search takes 876 (0.005 s).

The nu search keeps its candidates as one bitmask over the edges and branches
on the lowest candidate: take it, which drops every edge meeting it, or drop
it. Each node is bounded first by a count of shared vertices, the vertices
that lie in two or more edges. Pairwise disjoint edges hold disjoint sets of
them, so a packing has at most the lonely candidates (edges with no shared
vertex, which meet no other edge) plus the shared vertices the other
candidates meet, divided by the fewest shared vertices of any edge that is not
lonely. The set-up lists the incidence mask of each shared vertex, the edges
that hold it, none of them lonely; a node counts the masks that meet its
candidates. Every edge of a dilation holds two disjoint copy blocks, which is
why nu(H) = nu(G), and on cliques this count alone settles the search: nu on
K12^(4,1) takes one value node, where the bound below alone took 25,103. When
the count does not prune, the node is bounded by a greedy transversal of the
candidates (the packing side of covering/packing duality): take the lowest
uncovered candidate, add the vertex of it that meets the most uncovered
candidates, and repeat. Pairwise disjoint edges meet a transversal in distinct
vertices, so its size bounds what can still be added. The count only adds
pruning to the transversal, so values, witnesses and the best value at every
visited node are those of the transversal alone, with no more nodes.

The nu search needs no witness pass. It tries take before drop on the lowest
candidate, so it reaches packings of one size in the lexicographic order of
their sorted edge lists, and its first leaf is the greedy packing it starts
from. Until it reaches the first packing of size nu, the best value is below
nu, and both bounds are sound, so no node on the path to that packing is
pruned. Only a strict improvement replaces the witness, so the witness kept
is that first maximum packing, the lexicographically smallest. On C31^(4,1)
nu takes 1 node, where counting distinct lowest vertices took 98,319; a
random G(18, 0.3) graph takes 43, against 1,551 with the transversal alone
and 44,929 before it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Union

from .errors import DomainError, SearchBudgetExceeded
from .graphs import MAX_VERTICES, Graph, _mask, _mask_to_list, _relabel_rows
from .hypergraphs import Hypergraph

DEFAULT_NODE_CAP = 10**8

Instance = Union[Graph, Hypergraph]


@dataclass(frozen=True)
class Certificate:
    """An invariant value plus an optimal witness.

    witness holds vertex indices for gamma/tau and edge indices for nu; it is
    the lexicographically smallest optimal witness under that order, except
    from a gamma/tau solve with lex_witness=False, whose witness is the
    sorted optimal cover the value search found.
    node_count is every search node; witness_nodes is the part of it spent
    by the searches that decide the gamma/tau witness after the value was
    known (0 for nu, whose value search finds the witness, 0 with
    lex_witness=False, and 0 in exhaustive mode).
    """

    parameter: str  # "gamma" | "nu" | "tau"
    value: int
    witness: tuple[int, ...]
    mode: str  # "exhaustive" | "branch_and_bound"
    node_count: int
    witness_nodes: int = 0

    def to_json(self) -> dict:
        return {
            "parameter": self.parameter,
            "value": self.value,
            "witness": list(self.witness),
            "mode": self.mode,
            "node_count": self.node_count,
        }


def _as_hypergraph(x: Instance) -> Hypergraph:
    return Hypergraph.from_graph(x) if isinstance(x, Graph) else x


def _check_mode(mode: str) -> None:
    if mode not in ("exhaustive", "branch_and_bound"):
        raise DomainError(f"unknown mode {mode!r}: use 'exhaustive' or 'branch_and_bound'")


class _Budget:
    """Search nodes counted against a cap; the nodes ticked after
    `start_witness()` belong to the witness decisions."""

    __slots__ = ("cap", "nodes", "value_nodes")

    def __init__(self, cap: int):
        self.cap = cap
        self.nodes = 0
        self.value_nodes = None

    def start_witness(self):
        self.value_nodes = self.nodes

    @property
    def witness_nodes(self) -> int:
        return 0 if self.value_nodes is None else self.nodes - self.value_nodes

    def tick(self, best=None):
        self.nodes += 1
        if self.nodes > self.cap:
            raise SearchBudgetExceeded(
                f"search exceeded node cap {self.cap}",
                best_bound=best, node_count=self.nodes)


# -- generic minimum set cover (serves gamma and tau) ------------------------

def _reduce_universe(cover_masks: list[int], coverer_masks: list[int],
                     universe: int) -> tuple[int, list[int]]:
    """Drop dominated elements from `universe`, and give for each kept element
    the elements that share a coverer with it (what `_packing_bound` blocks).

    The AND of the masks of e's coverers holds e and the elements it
    dominates, those whose coverer set contains e's. An element with the
    coverers of a lower-index one is dropped before the pass reaches it, so
    the pass needs no tie rule."""
    union_masks = [0] * universe.bit_length()
    dominated = 0
    m = universe
    while m:
        low = m & -m
        e = low.bit_length() - 1
        union, common = 0, universe
        c = coverer_masks[e]
        while c:
            bit = c & -c
            c ^= bit
            mask = cover_masks[bit.bit_length() - 1]
            union |= mask
            common &= mask
        union_masks[e] = union
        m &= ~common  # e and what it dominates: the pass skips them
        dominated |= common ^ low
    return universe & ~dominated, union_masks


def _packing_bound(union_masks: list[int], uncovered: int) -> int:
    """Greedy count of uncovered elements no two of which share a coverer.

    Each element is in its own union mask, so removing that mask drops the
    element together with every element it blocks."""
    count = 0
    m = uncovered
    while m:
        count += 1
        m &= ~union_masks[(m & -m).bit_length() - 1]
    return count


def _dominated_sets(cover_masks: list[int], coverer_masks: list[int], universe: int) -> int:
    """The sets whose restriction to `universe` is empty or lies inside the
    restriction of a lower-index set.

    A dominator must cover the lowest element of the restriction, so only
    that element's lower-index coverers are tried."""
    dropped = 0
    for s, mask in enumerate(cover_masks):
        restricted = mask & universe
        if restricted:
            lower = coverer_masks[(restricted & -restricted).bit_length() - 1] & ((1 << s) - 1)
            while lower:
                bit = lower & -lower
                lower ^= bit
                if not restricted & ~cover_masks[bit.bit_length() - 1]:
                    break
            else:
                continue  # no lower-index set holds it
        dropped |= 1 << s
    return dropped


def _min_cover(cover_masks: list[int], coverer_masks: list[int],
               universe: int, budget: _Budget, lex_witness: bool) -> tuple[int, ...]:
    """The fewest cover sets whose union is the universe: the
    lexicographically smallest such cover if `lex_witness`, else the one the
    value search found, sorted.

    coverer_masks[e] is the bitmask of the sets that cover element e.
    """
    if universe == 0:
        return ()
    universe, union_masks = _reduce_universe(cover_masks, coverer_masks, universe)
    # the greedy cover, the first incumbent, takes no set that set dominance drops
    best_cover = []
    uncovered = universe
    while uncovered:
        best_s, best_gain = -1, 0
        for s, mask in enumerate(cover_masks):
            gain = (mask & uncovered).bit_count()
            if gain > best_gain:
                best_s, best_gain = s, gain
        if best_s == -1:  # uncoverable element: caller guarantees this cannot happen
            raise ValueError("universe not coverable")
        best_cover.append(best_s)
        uncovered &= ~cover_masks[best_s]
    best_value = len(best_cover)
    dropped = _dominated_sets(cover_masks, coverer_masks, universe)
    # the branching order: one mask of elements per count of coverers not
    # dropped, fewest first
    by_count = [0] * (len(cover_masks) + 1)
    m = universe
    while m:
        low = m & -m
        m ^= low
        by_count[(coverer_masks[low.bit_length() - 1] & ~dropped).bit_count()] |= low
    classes = [c for c in by_count if c]

    def search(root, best_value, best_cover, first):
        """Among the covers extending `chosen` and avoiding `forbidden` (a node
        is (covered, forbidden, chosen)), the smallest with fewer than
        `best_value` sets, or with `first` the first found with at most that
        many; `best_cover` if there is none. Branching on the i-th candidate
        forbids the earlier ones, so no cover is explored twice."""
        limit = best_value + 1 if first else best_value
        stack = [root]
        while stack:
            covered, forbidden, chosen = stack.pop()
            budget.tick(best_value)
            uncovered = universe & ~covered
            if not uncovered:
                if len(chosen) < limit:
                    if first:
                        return chosen
                    best_value = limit = len(chosen)
                    best_cover = chosen
                continue
            if len(chosen) + _packing_bound(union_masks, uncovered) >= limit:
                continue
            for c in classes:
                c &= uncovered
                if c:
                    break
            e = (c & -c).bit_length() - 1
            usable = []
            c = coverer_masks[e] & ~forbidden
            while c:
                bit = c & -c
                c ^= bit
                s = bit.bit_length() - 1
                usable.append((-(cover_masks[s] & uncovered).bit_count(), s))
            usable.sort()
            children = []
            for _, s in usable:
                children.append((covered | cover_masks[s], forbidden, chosen + (s,)))
                forbidden |= 1 << s
            stack += reversed(children)
        return best_cover

    # no search branches on a dropped set or takes it
    best_cover = search((0, dropped, ()), best_value, best_cover, False)
    if not lex_witness:
        return tuple(sorted(best_cover))

    # the lexicographically smallest cover of the optimal size: decide the sets
    # in index order, keeping an optimal cover (a mask) that extends every
    # decision; a set outside it is taken if an optimal cover extending the
    # decisions so far takes it
    budget.start_witness()
    best_value = len(best_cover)
    extension = _mask(best_cover)
    covered, forbidden, chosen = 0, dropped, ()
    for s, mask in enumerate(cover_masks):
        uncovered = universe & ~covered
        if not uncovered:
            break
        if not extension >> s & 1:
            if forbidden >> s & 1 or not mask & uncovered:
                continue  # no search takes it
            found = search((covered | mask, forbidden, chosen + (s,)), best_value, None, True)
            if found is None:
                forbidden |= 1 << s
                continue
            extension = _mask(found)
        covered |= mask
        chosen += (s,)
    return chosen


def _first_combination(n: int, sizes, accept, budget: _Budget) -> tuple[int, ...]:
    """The first combination of range(n) that `accept` takes, trying sizes in
    the order of `sizes` and each size in subset order; one node per try."""
    for size in sizes:
        for combo in combinations(range(n), size):
            budget.tick()
            if accept(combo):
                return combo
    raise ValueError("no combination accepted")


def _union(masks: list[int], combo: tuple[int, ...]) -> int:
    acc = 0
    for i in combo:
        acc |= masks[i]
    return acc


def _solve_cover(parameter: str, cover_masks: list[int], coverer_masks: list[int],
                 universe: int, mode: str, node_cap: int, lex_witness: bool) -> Certificate:
    """The minimum cover in `mode`, as a certificate for `parameter`."""
    _check_mode(mode)
    budget = _Budget(node_cap)
    if mode == "exhaustive":
        n_sets = len(cover_masks)
        witness = _first_combination(
            n_sets, range(n_sets + 1),
            lambda combo: _union(cover_masks, combo) & universe == universe, budget)
    else:
        witness = _min_cover(cover_masks, coverer_masks, universe, budget, lex_witness)
    return Certificate(parameter, len(witness), witness, mode, budget.nodes,
                       budget.witness_nodes)


# -- gamma ------------------------------------------------------------------

def domination_number(x: Instance, mode: str = "branch_and_bound",
                      node_cap: int = DEFAULT_NODE_CAP, *,
                      lex_witness: bool = True) -> Certificate:
    """Minimum set of vertices such that every vertex is chosen or adjacent
    to a chosen one (adjacency = co-occurrence in a hyperedge).

    With lex_witness=False the witness is the optimal cover the value search
    found, not the lexicographically smallest one."""
    if isinstance(x, Graph):
        nbhd = [row | 1 << v for v, row in enumerate(x.adj)]
    else:
        nbhd = x.closed_neighborhoods()
    # u dominates v iff u in N[v], and co-occurrence is symmetric, so N[v] is
    # both what v covers and the set of v's coverers
    return _solve_cover("gamma", nbhd, nbhd, (1 << len(nbhd)) - 1, mode, node_cap, lex_witness)


# -- tau ----------------------------------------------------------------------

def _graph_rows(x: Instance):
    """The adjacency rows of a graph instance: a Graph, or a hypergraph with
    at most MAX_VERTICES vertices whose every edge has two; else None."""
    if isinstance(x, Graph):
        return x.adj
    if x.m > MAX_VERTICES or any(e.bit_count() != 2 for e in x.edge_masks):
        return None
    rows = [0] * x.m
    for u, v in x.vertex_lists():
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return rows


def _clique_cover(rows, cands: int, limit: int) -> int:
    """Greedy count of cliques that cover `cands`, stopped at `limit`.

    Each clique grows from the lowest vertex left by the lowest common
    neighbour; an independent set meets each clique at most once."""
    count = 0
    while cands and count < limit:
        clique = cands & -cands
        common = cands & rows[clique.bit_length() - 1]
        while common:
            bit = common & -common
            clique |= bit
            common &= rows[bit.bit_length() - 1]
        cands &= ~clique
        count += 1
    return count


def _max_independent_set(rows, budget: _Budget) -> int:
    """The lexicographically largest maximum independent set, as a mask."""
    n = len(rows)
    full = (1 << n) - 1
    if not any(rows):
        return full
    order = sorted(range(n), key=lambda v: (rows[v].bit_count(), v))
    pos = [0] * n
    for i, v in enumerate(order):
        pos[v] = i
    drows = _relabel_rows(rows, pos)
    # the incumbent starts one below the greedy set of the degree order, so the
    # first set that large replaces it; until then the node cap reports the
    # greedy set's bound
    alpha, cands = -1, full
    while cands:
        low = cands & -cands
        alpha += 1
        cands &= ~(drows[low.bit_length() - 1] | low)
    best = 0
    stack = [(full, full, 0, 0)]  # (candidates, relabelled candidates, chosen, count)
    while stack:
        cands, dcands, chosen, count = stack.pop()
        budget.tick(n - alpha - (not best))
        if count + _clique_cover(drows, dcands, alpha - count + 1) <= alpha:
            continue
        # a run of isolated branch vertices: one include child each, bounded
        # as this node was
        while cands:
            low = cands & -cands
            v = low.bit_length() - 1
            if rows[v] & cands:
                break
            cands ^= low
            dcands ^= 1 << pos[v]
            chosen |= low
            count += 1
            budget.tick(n - alpha - (not best))
        if not cands:  # a leaf the bound let through: it beats the incumbent
            best, alpha = chosen, count
            continue
        dlow = 1 << pos[v]
        stack.append((cands & ~(rows[v] | low), dcands & ~(drows[pos[v]] | dlow),
                      chosen | low, count + 1))
        stack.append((cands ^ low, dcands ^ dlow, chosen, count))
    return best


def transversal_number(x: Instance, mode: str = "branch_and_bound",
                       node_cap: int = DEFAULT_NODE_CAP, *,
                       lex_witness: bool = True) -> Certificate:
    """Minimum set of vertices meeting every hyperedge; lex_witness as for
    domination_number, except that a graph instance in branch_and_bound
    mode always gets the lexicographically smallest witness, which its one
    search finds."""
    rows = _graph_rows(x) if mode == "branch_and_bound" else None
    if rows is not None:
        budget = _Budget(node_cap)
        independent = _max_independent_set(rows, budget)
        witness = tuple(_mask_to_list((1 << len(rows)) - 1 & ~independent))
        return Certificate("tau", len(witness), witness, mode, budget.nodes)
    h = _as_hypergraph(x)
    # the vertices of edge i are the sets that cover element i
    return _solve_cover("tau", h.incidence(), h.edge_masks, (1 << h.edge_count) - 1,
                        mode, node_cap, lex_witness)


# -- nu -------------------------------------------------------------------------

def _max_packing(h: Hypergraph, budget: _Budget) -> tuple[int, ...]:
    """The lexicographically smallest maximum set of pairwise disjoint edges."""
    masks = h.edge_masks
    incidence = h.incidence()
    edge_vertices = h.vertex_lists()
    conflicts = []  # conflicts[i]: the edges that meet edge i, itself included
    for verts in edge_vertices:
        c = 0
        for v in verts:
            c |= incidence[v]
        conflicts.append(c)
    seen = shared = 0  # shared: the vertices in two or more edges
    for e in masks:
        shared |= seen & e
        seen |= e
    # lonely edges hold no shared vertex, so they meet no other edge; `share`
    # is the fewest shared vertices in any other edge (it stays h.m if there
    # is none, and then no shared vertex is ever met)
    lonely, share = 0, h.m
    for i, e in enumerate(masks):
        s = (e & shared).bit_count()
        if not s:
            lonely |= 1 << i
        elif s < share:
            share = s
    # per shared vertex, the edges that hold it; none of them is lonely
    shared_incidence = [incidence[v] for v in _mask_to_list(shared)]

    def bound(cands: int, limit: int) -> int:
        # counting bound: pairwise disjoint edges hold disjoint sets of shared
        # vertices, at least `share` each unless lonely
        met = 0
        for edges in shared_incidence:
            if edges & cands:
                met += 1
        count = (cands & lonely).bit_count() + met // share
        if count < limit:
            return count
        # greedy transversal of the candidate edges: pairwise disjoint edges
        # meet it in distinct vertices, so its size bounds the packing; the
        # count stops at `limit`, past which no caller prunes
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

    # the greedy packing is the first leaf of the search, and the witness until
    # a leaf beats it
    greedy = []
    acc = 0
    for i, e in enumerate(masks):
        if not acc & e:
            greedy.append(i)
            acc |= e
    witness = tuple(greedy)
    best_value = len(witness)
    stack = [((1 << len(masks)) - 1, ())]  # (candidates, chosen)
    while stack:
        cands, chosen = stack.pop()
        budget.tick(best_value)
        count = len(chosen)
        if not cands:
            if count > best_value:
                best_value, witness = count, chosen
            continue
        if count + bound(cands, best_value - count + 1) <= best_value:
            continue
        low = cands & -cands
        i = low.bit_length() - 1
        stack.append((cands ^ low, chosen))  # drop, popped after every take below
        stack.append((cands & ~conflicts[i], chosen + (i,)))  # take
    return witness


def matching_number(x: Instance, mode: str = "branch_and_bound",
                    node_cap: int = DEFAULT_NODE_CAP) -> Certificate:
    """Maximum number of pairwise disjoint hyperedges; witness is a set of
    edge indices."""
    _check_mode(mode)
    h = _as_hypergraph(x)
    budget = _Budget(node_cap)
    if mode == "exhaustive":
        masks = h.edge_masks
        # pairwise disjoint: no vertex is counted twice
        witness = _first_combination(
            len(masks), range(len(masks), -1, -1),
            lambda combo: _union(masks, combo).bit_count() == sum(
                masks[i].bit_count() for i in combo), budget)
    else:
        witness = _max_packing(h, budget)
    return Certificate("nu", len(witness), witness, mode, budget.nodes)


# -- certificate checking and KEG ------------------------------------------------

def check_certificate(x: Instance, cert: Certificate) -> bool:
    """Re-verify that the witness has the claimed size and defining property
    (not optimality: that is what the value search established)."""
    h = _as_hypergraph(x)
    if cert.parameter == "nu":
        if len(cert.witness) != cert.value:
            return False
        acc = 0
        for i in cert.witness:
            if not (0 <= i < h.edge_count) or acc & h.edge_masks[i]:
                return False
            acc |= h.edge_masks[i]
        return True
    if len(cert.witness) != cert.value:
        return False
    chosen = 0
    for v in cert.witness:
        if not (0 <= v < h.m):
            return False
        chosen |= 1 << v
    if chosen.bit_count() != cert.value:  # a repeated vertex
        return False
    if cert.parameter == "tau":
        return all(e & chosen for e in h.edge_masks)
    if cert.parameter == "gamma":
        covered = chosen
        for e in h.edge_masks:
            if e & chosen:
                covered |= e
        return covered == (1 << h.m) - 1
    return False


@dataclass(frozen=True)
class KegVerdict:
    """Whether tau equals nu, with both certificates."""

    keg: bool
    tau: Certificate
    nu: Certificate

    def to_json(self) -> dict:
        return {"keg": self.keg, "tau": self.tau.to_json(), "nu": self.nu.to_json()}


def is_keg(g: Graph, node_cap: int = DEFAULT_NODE_CAP) -> KegVerdict:
    """König-Egerváry test: transversal number equals matching number."""
    tau = transversal_number(g, node_cap=node_cap)
    nu = matching_number(g, node_cap=node_cap)
    return KegVerdict(tau.value == nu.value, tau, nu)
