import gc
import hashlib
import random
from functools import lru_cache, partial
from itertools import combinations

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from dilations.errors import DomainError, SearchBudgetExceeded
from dilations.graphs import (Graph, complete, complete_minus_clique, corona,
                              cp_vee_cq, cycle, g_nr, ghat_nr, star)
from dilations.dilation import generalized_power
from dilations.hypergraphs import Hypergraph, builtin_hypergraph
from dilations import invariants
from dilations.invariants import (Certificate, check_certificate,
                                  domination_number, is_keg, matching_number,
                                  transversal_number)
from dilations.isomorphism import canonical_labeling, enumerate_connected
from oracles import (brute_gamma, brute_nu, brute_tau, cover_reductions,
                     greedy_transversal_nu)


@st.composite
def hypergraphs(draw, max_m=9, max_edges=7):
    m = draw(st.integers(min_value=1, max_value=max_m))
    n_edges = draw(st.integers(min_value=0, max_value=max_edges))
    edges = []
    for _ in range(n_edges):
        size = draw(st.integers(min_value=1, max_value=min(4, m)))
        edges.append(draw(st.sets(st.integers(min_value=0, max_value=m - 1),
                                  min_size=size, max_size=size)))
    return Hypergraph.from_edge_sets(m, edges)


@st.composite
def dominance_instances(draw):
    """Instances on which the element-dominance reduction fires: a small graph
    raised to a generalized power, or a hypergraph with nested and repeated
    edges (an edge containing another one is dominated for tau)."""
    if draw(st.booleans()):
        n = draw(st.integers(min_value=2, max_value=5))
        edges = draw(st.lists(st.sampled_from(list(combinations(range(n), 2))),
                              min_size=1, max_size=6, unique=True))
        k, s = draw(st.sampled_from([(3, 1), (4, 1), (4, 2)]))
        h, _ = generalized_power(Graph.from_edges(n, edges), k, s)
        return h
    m = draw(st.integers(min_value=1, max_value=7))
    vertex_sets = st.sets(st.integers(min_value=0, max_value=m - 1),
                          min_size=1, max_size=min(3, m))
    edges = draw(st.lists(vertex_sets, min_size=1, max_size=4))
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        extra = draw(st.sets(st.integers(min_value=0, max_value=m - 1), max_size=2))
        edges.append(draw(st.sampled_from(edges)) | extra)
    return Hypergraph.from_edge_sets(m, draw(st.permutations(edges)))


@st.composite
def lonely_instances(draw):
    """Hypergraphs with lonely edges (edges that meet no other edge), among
    them singleton edges, next to edges that share vertices."""
    m = draw(st.integers(min_value=0, max_value=5))
    edges = []
    if m:
        vertex_sets = st.sets(st.integers(min_value=0, max_value=m - 1),
                              min_size=1, max_size=min(3, m))
        edges = draw(st.lists(vertex_sets, max_size=4))
    for size in draw(st.lists(st.integers(min_value=1, max_value=2), min_size=1, max_size=3)):
        edges.append(set(range(m, m + size)))
        m += size
    return Hypergraph.from_edge_sets(m, draw(st.permutations(edges)))


class TestAgainstOracles:
    @settings(max_examples=150, deadline=None)
    @given(h=hypergraphs())
    def test_values_match_bruteforce(self, h):
        assert domination_number(h).value == brute_gamma(h)
        assert matching_number(h).value == brute_nu(h)
        assert transversal_number(h).value == brute_tau(h)

    @settings(max_examples=120, deadline=None)
    @given(h=st.one_of(hypergraphs(max_m=7, max_edges=6), dominance_instances(),
                       lonely_instances()))
    def test_modes_agree_including_witness(self, h):
        for fn in (domination_number, matching_number, transversal_number):
            bb = fn(h)
            ex = fn(h, mode="exhaustive")
            assert bb.value == ex.value
            assert bb.witness == ex.witness
            assert bb.mode == "branch_and_bound" and ex.mode == "exhaustive"

    def test_modes_agree_on_every_small_connected_graph(self):
        # both cover searches share one branching rule, and nu prunes with two
        # bounds; each witness pass must still find exhaustive mode's
        # lexicographically first witness
        for n in range(1, 7):
            for g in enumerate_connected(n):
                for fn in (domination_number, transversal_number, matching_number):
                    bb = fn(g)
                    ex = fn(g, mode="exhaustive")
                    assert (bb.value, bb.witness) == (ex.value, ex.witness), (fn, g.edges())

    @pytest.mark.parametrize("fn", [domination_number, matching_number, transversal_number])
    def test_unknown_mode_rejected(self, fn):
        with pytest.raises(DomainError, match="exhastive"):
            fn(cycle(4), mode="exhastive")

    @settings(max_examples=100, deadline=None)
    @given(h=hypergraphs())
    def test_general_inequalities(self, h):
        # gamma <= tau needs every vertex to lie in some edge: an isolated
        # vertex is forced into every dominating set but no transversal
        covered = 0
        for e in h.edge_masks:
            covered |= e
        gamma = domination_number(h).value
        nu = matching_number(h).value
        tau = transversal_number(h).value
        assert nu <= tau
        if covered == (1 << h.m) - 1:
            assert gamma <= tau
        else:
            isolated = h.m - covered.bit_count()
            assert gamma <= tau + isolated


class TestWitnesses:
    @settings(max_examples=60, deadline=None)
    @given(h=hypergraphs(max_m=7, max_edges=6))
    def test_certificates_recheck(self, h):
        for fn in (domination_number, matching_number, transversal_number):
            cert = fn(h)
            assert check_certificate(h, cert)
            assert len(cert.witness) == cert.value

    @settings(max_examples=80, deadline=None)
    @given(h=st.one_of(hypergraphs(max_m=6, max_edges=5), dominance_instances()))
    def test_witness_is_lex_smallest(self, h):
        gamma = domination_number(h)
        assert gamma.witness == _lex_min_cover_witness(h, "gamma", gamma.value)
        tau = transversal_number(h)
        assert tau.witness == _lex_min_cover_witness(h, "tau", tau.value)
        nu = matching_number(h)
        assert nu.witness == _lex_min_packing_witness(h, nu.value)

    def test_tampered_certificate_rejected(self):
        h = Hypergraph.from_graph(cycle(5))
        cert = transversal_number(h)
        bad = Certificate("tau", cert.value, cert.witness[:-1] + (0,),
                          cert.mode, cert.node_count)
        assert not check_certificate(h, bad)

    @pytest.mark.parametrize("parameter", ["gamma", "tau"])
    def test_repeated_vertex_rejected(self, parameter):
        # {0} covers star(3) both ways, but the witness claims two vertices
        cert = Certificate(parameter, 2, (0, 0), "branch_and_bound", 1)
        assert not check_certificate(star(3), cert)


@lru_cache(maxsize=1)
def _graphs_and_powers():
    """Every connected graph with n <= 7, each followed by its (4,1) and (4,2)
    powers when it has an edge."""
    out = []
    for n in range(1, 8):
        for g in enumerate_connected(n):
            out.append(g)
            if g.edge_count:
                out += [generalized_power(g, 4, 1)[0], generalized_power(g, 4, 2)[0]]
    return tuple(out)


class TestGoldenWitnesses:
    # Pins the value and the witness of every solve: a search change that keeps
    # the values but reaches another optimal witness shows here.
    @pytest.mark.parametrize("fn, digest", [
        (domination_number, "9a9ba63fed866a9060865b1aae26d97d4cc575949f6c60910e97598586546d40"),
        (matching_number, "c7232ecbc9dc6cde84a5098da52f757f1869d9494723c34849492a546a970a8a"),
        (transversal_number, "284969a11c2f9d06c3cf3f7490e4f439b553633edb3de5eee934fb44c0561a2c"),
    ], ids=["gamma", "nu", "tau"])
    def test_graphs_and_powers_up_to_n7(self, fn, digest):
        instances = _graphs_and_powers()
        assert len(instances) == 2986
        lines = [f"{c.value} {','.join(map(str, c.witness))}" for c in map(fn, instances)]
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == digest


def _lex_min_cover_witness(h, parameter, value):
    check = (lambda c: _dominates(h, c)) if parameter == "gamma" else (
        lambda c: all(e & _mask(c) for e in h.edge_masks))
    for combo in combinations(range(h.m), value):
        if check(combo):
            return combo
    raise AssertionError("no witness of the claimed size")


def _mask(combo):
    out = 0
    for v in combo:
        out |= 1 << v
    return out


def _dominates(h, combo):
    chosen = _mask(combo)
    covered = chosen
    for e in h.edge_masks:
        if e & chosen:
            covered |= e
    return covered == (1 << h.m) - 1


def _lex_min_packing_witness(h, value):
    for combo in combinations(range(h.edge_count), value):
        acc = 0
        ok = True
        for i in combo:
            if acc & h.edge_masks[i]:
                ok = False
                break
            acc |= h.edge_masks[i]
        if ok:
            return combo
    raise AssertionError("no packing of the claimed size")


class TestFrozenValues:
    def test_matching_examples(self):
        assert matching_number(cp_vee_cq(5, 3)).value == 3
        assert matching_number(complete(2)).value == 1
        assert matching_number(g_nr(4, 1)).value == 4
        assert matching_number(builtin_hypergraph("fano")).value == 1

    def test_transversal_examples(self):
        assert transversal_number(cp_vee_cq(4, 3)).value == 3
        assert transversal_number(complete_minus_clique(3, 2)).value == 4
        assert transversal_number(Hypergraph(4, [])).value == 0

    def test_domination_examples(self):
        assert domination_number(g_nr(3, 1)).value == 3
        assert domination_number(ghat_nr(3, 1)).value == 2
        assert domination_number(star(7)).value == 1
        h1, _ = generalized_power(cycle(5), 4, 1)
        assert domination_number(h1).value == 3
        h0, _ = generalized_power(cycle(5), 4, 2)
        assert domination_number(h0).value == 2

    def test_isolated_vertices_forced(self):
        # three isolated vertices forced, plus one endpoint of the edge
        h = Hypergraph.from_edge_sets(5, [[0, 1]])
        cert = domination_number(h)
        assert cert.value == 4
        assert set(cert.witness) >= {2, 3, 4}
        assert cert.witness == (0, 2, 3, 4)  # lexicographically smallest

    def test_empty_hypergraph(self):
        h = Hypergraph(0, [])
        assert domination_number(h).value == 0
        assert matching_number(h).value == 0
        assert transversal_number(h).value == 0


class TestKeg:
    def test_examples(self):
        assert is_keg(cycle(4)).keg
        v = is_keg(cp_vee_cq(4, 3))
        assert v.keg and v.tau.value == 3 and v.nu.value == 3
        v = is_keg(cp_vee_cq(3, 3))
        assert not v.keg and v.tau.value == 3 and v.nu.value == 2
        v = is_keg(complete(5))
        assert not v.keg and v.tau.value == 4 and v.nu.value == 2
        assert v.tau == transversal_number(complete(5))
        assert v.nu == matching_number(complete(5))

    def test_koenig_on_connected_bipartite(self):
        # every connected bipartite graph satisfies tau = nu
        for n in range(2, 9):
            for g in enumerate_connected(n, bipartite=True):
                assert is_keg(g).keg, g.edges()


class TestHereditarySamples:
    def test_200_sampled_dilation_pairs(self):
        from dilations.dilation import random_dilation
        rng = random.Random(314)
        pairs = 0
        while pairs < 200:
            n = rng.randint(2, 8)
            edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                     if rng.random() < 0.45]
            if not edges:
                continue
            g = Graph.from_edges(n, edges)
            if min(g.degrees()) == 0:
                continue  # the identities presuppose every vertex has an edge
            h, _ = random_dilation(g, 4 + pairs % 3, seed=pairs)
            assert matching_number(h).value == matching_number(g).value
            assert transversal_number(h).value == transversal_number(g).value
            gamma_g = domination_number(g).value
            gamma_h = domination_number(h).value
            assert gamma_g <= gamma_h <= transversal_number(g).value
            pairs += 1


class TestGamma1BlowUps:
    # the witnesses are pinned from an uncapped search without element
    # dominance, which took 3.0M nodes (C31) and 13.5M nodes (corona(C13))
    @pytest.mark.parametrize("g, k, s, witness", [
        (cycle(31), 4, 1, (0, 1, 3, 5, 7, 9, 11, 13, 15, 17, 19, 21, 23, 25, 27, 29)),
        (corona(cycle(13)), 5, 2, (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12)),
    ], ids=["C31_4_1", "corona_C13_5_2"])
    def test_gamma_equals_tau_of_support_within_small_cap(self, g, k, s, witness):
        h, _ = generalized_power(g, k, s)
        cert = domination_number(h, node_cap=10_000)
        assert cert.value == transversal_number(g).value
        assert check_certificate(h, cert)
        assert cert.witness == witness


    def test_nu_equals_nu_of_support_within_small_cap(self):
        # pinned from an uncapped search bounded only by the count of distinct
        # lowest vertices, which took 98,319 nodes
        h, _ = generalized_power(cycle(31), 4, 1)
        cert = matching_number(h, node_cap=1_000)
        assert cert.value == matching_number(cycle(31)).value == 15
        assert check_certificate(h, cert)
        assert cert.witness == (0, 3, 5, 7, 9, 11, 13, 15, 17, 19, 21, 23, 25, 27, 29)


def _phases(cert):
    return cert.node_count - cert.witness_nodes, cert.witness_nodes


def _gnp(n, p, seed=7):
    rng = random.Random(seed)
    return Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                                if rng.random() < p])


_G50 = _gnp(50, 0.1)  # 134 edges, connected
_G64 = _gnp(64, 0.08)  # tau 37, gamma 13
_DISJOINT_EDGES = Hypergraph.from_edge_sets(2200, [[i, i + 1] for i in range(0, 2200, 2)])
_ODD_FIRST_PATH = Hypergraph.from_edge_sets(
    1002, [[i, i + 1] for i in range(1, 1001, 2)] + [[i, i + 1] for i in range(0, 1001, 2)])


class TestNodeCounts:
    # Node counts are deterministic, so a change that keeps every witness but
    # searches more (a bound that prunes late, a cut that fires one step late) still
    # shows here. A change that moves a count must explain the move.
    def test_phase_totals_on_small_graphs_and_powers(self):
        totals = {fn: [0, 0] for fn in (domination_number, transversal_number,
                                         matching_number)}
        for n in range(1, 7):
            for g in enumerate_connected(n):
                instances = [g]
                if g.edge_count:
                    instances += [generalized_power(g, 4, 1)[0], generalized_power(g, 4, 2)[0]]
                for x in instances:
                    for fn, total in totals.items():
                        value_nodes, witness_nodes = _phases(fn(x))
                        total[0] += value_nodes
                        total[1] += witness_nodes
        assert totals[domination_number] == [981, 448]
        assert totals[transversal_number] == [2203, 556]
        assert totals[matching_number] == [519, 402]

    @pytest.mark.parametrize("fn, x, phases", [
        (transversal_number, cycle(25), (28, 0)),  # (3, 23) by the cover search
        (transversal_number, generalized_power(corona(cycle(9)), 5, 2)[0], (9, 0)),
        (domination_number, generalized_power(cycle(23), 4, 1)[0], (3, 21)),
        # nu on a kernel that is a graph: the greedy matching is maximum and
        # lexicographically smallest, so no search runs
        (matching_number, generalized_power(cycle(31), 4, 1)[0], (0, 0)),
        (matching_number, generalized_power(complete(12), 4, 1)[0], (0, 0)),
        (domination_number, generalized_power(complete_minus_clique(6, 2), 4, 1)[0], (45, 65)),
        # large witnesses: gamma 999, tau and gamma 1,100, whose value search's
        # cover settles every decision with no search (2,200 vertices keep tau
        # on the cover search, past MAX_VERTICES); and nu 501 after the
        # greedy's 500 (odd edges listed first): one search walks the path,
        # and each odd edge is dropped by one pop from its isolated partner
        (domination_number, Hypergraph.from_edge_sets(1000, [[0, 999]]), (1, 0)),
        (transversal_number, _DISJOINT_EDGES, (1, 0)),
        (domination_number, _DISJOINT_EDGES, (1, 0)),
        (matching_number, _ODD_FIRST_PATH, (501, 500)),
        # large enough that the per-node cost shows in the time; tau runs the
        # independent-set search, where the cover search took (14,090, 14,317)
        (transversal_number, _G64, (1637, 0)),
        (domination_number, _G64, (20997, 18790)),
        # the branch and bound took 21 nodes here, 1,057 without its count
        (matching_number, _gnp(18, 0.3), (5, 4)),
    ], ids=["tau_C25", "tau_corona_C9_5_2", "gamma_C23_4_1", "nu_C31_4_1", "nu_K12_4_1",
            "gamma_K12_minus_edge_4_1", "gamma_m1000_one_edge", "tau_1100_disjoint_edges",
            "gamma_1100_disjoint_edges", "nu_path_1002_odd_edges_first", "tau_G64_0_08",
            "gamma_G64_0_08", "nu_G18_0_3"])
    def test_named_instances(self, fn, x, phases):
        cert = fn(x)
        assert _phases(cert) == phases
        assert cert.to_json()["node_count"] == sum(phases)
        assert "witness_nodes" not in cert.to_json()

    @pytest.mark.parametrize("fn, witness, phases", [
        (domination_number, (0, 3, 5, 8, 14, 18, 23, 26, 32, 40), (13342, 12915)),
        (transversal_number, (0, 1, 2, 3, 5, 7, 9, 10, 11, 12, 15, 18, 19, 20, 22, 23, 24,
                              26, 31, 32, 33, 36, 40, 42, 43, 44, 45, 47, 48, 49),
         (290, 0)),
    ], ids=["gamma", "tau"])
    def test_witness_decisions_on_random_graph(self, fn, witness, phases):
        # a walk over the covers in subset order took 457,194 (gamma) and
        # 69,120 (tau) witness nodes here; the witnesses are pinned from it.
        # tau runs the independent-set search; the cover search took (6,398,
        # 3,445)
        cert = fn(_G50, node_cap=50_000)
        assert cert.witness == witness
        assert _phases(cert) == phases

    def test_exhaustive_mode_has_no_witness_phase(self):
        assert domination_number(cycle(5), mode="exhaustive").witness_nodes == 0


def _cover_system(h, parameter):
    """(cover_masks, coverer_masks, universe) of the gamma or tau cover solve."""
    if parameter == "gamma":
        nbhd = h.closed_neighborhoods()
        return nbhd, nbhd, (1 << h.m) - 1
    return h.incidence(), h.edge_masks, (1 << h.edge_count) - 1


def _bits(mask):
    return {i for i in range(mask.bit_length()) if mask >> i & 1}


class TestCoverReductions:
    # The cover solver's element pass and set dominance must give what the
    # pairwise definitions give, on set systems with twin elements and with
    # duplicate, nested and empty sets, and on dilations.
    @staticmethod
    def _check(cover_masks, coverer_masks, universe):
        kept, dropped = cover_reductions([_bits(m) for m in cover_masks], _bits(universe))
        reduced, union_masks = invariants._reduce_universe(cover_masks, coverer_masks, universe)
        assert _bits(reduced) == kept
        for e in kept:
            union = 0
            for s in _bits(coverer_masks[e]):
                union |= cover_masks[s]
            assert union_masks[e] == union
        assert _bits(invariants._dominated_sets(cover_masks, coverer_masks, reduced)) == dropped
        return len(_bits(universe)) - len(kept), len(dropped)

    def test_seeded_random_set_systems(self):
        rng = random.Random(1998)
        drops = [0, 0]
        for _ in range(2000):
            n_elements = rng.randint(1, 9)
            sets = [set(rng.sample(range(n_elements), rng.randint(0, n_elements)))
                    for _ in range(rng.randint(1, 6))]
            for _ in range(rng.randint(0, 3)):  # a duplicate, a nested or an empty set
                c = sorted(rng.choice(sets))
                sets.append(rng.choice([set(c), set(rng.sample(c, rng.randint(0, len(c)))),
                                        set(c) | {rng.randrange(n_elements)}, set()]))
            for e in range(n_elements):  # every element has a coverer
                if not any(e in cs for cs in sets):
                    rng.choice(sets).add(e)
            for _ in range(rng.randint(0, 2)):  # a twin: an element with e's coverers
                e = rng.randrange(n_elements)
                for cs in sets:
                    if e in cs:
                        cs.add(n_elements)
                n_elements += 1
            rng.shuffle(sets)
            cover_masks = [sum(1 << e for e in cs) for cs in sets]
            coverer_masks = [sum(1 << s for s, cs in enumerate(sets) if e in cs)
                             for e in range(n_elements)]
            for i, d in enumerate(self._check(cover_masks, coverer_masks, (1 << n_elements) - 1)):
                drops[i] += d
        assert drops[0] > 0 and drops[1] > 0

    def test_powers_of_small_graphs(self):
        for n in range(2, 6):
            for g in enumerate_connected(n):
                for k, s in ((4, 1), (4, 2)):
                    h, _ = generalized_power(g, k, s)
                    for parameter in ("gamma", "tau"):
                        self._check(*_cover_system(h, parameter))


class TestValueOnly:
    # lex_witness=False stops after the value search: same value, a witness
    # that rechecks, and exactly the default's value-phase nodes
    def test_small_graphs_and_powers(self):
        for n in range(1, 7):
            for g in enumerate_connected(n):
                instances = [g]
                if g.edge_count:
                    instances += [generalized_power(g, 4, 1)[0], generalized_power(g, 4, 2)[0]]
                for x in instances:
                    for fn in (domination_number, transversal_number):
                        lex = fn(x)
                        fast = fn(x, lex_witness=False)
                        assert fast.value == lex.value
                        assert check_certificate(x, fast)
                        assert fast.node_count == lex.node_count - lex.witness_nodes
                        assert fast.witness_nodes == 0

    def test_exhaustive_mode_ignores_flag(self):
        for fn in (domination_number, transversal_number):
            assert fn(cycle(7), mode="exhaustive", lex_witness=False) == fn(
                cycle(7), mode="exhaustive")


def _seeded_graphs():
    """n = 0 and n = 1, then seeded random graphs whose edges avoid a random
    set of vertices, which stay isolated."""
    yield Graph(0, [])
    yield Graph(1, [0])
    rng = random.Random(2929)
    for _ in range(200):
        n = rng.randint(2, 16)
        p = rng.choice([0.15, 0.3, 0.6])
        touched = set(rng.sample(range(n), rng.randint(1, n)))
        yield Graph.from_edges(n, [(u, v) for u, v in combinations(sorted(touched), 2)
                                   if rng.random() < p])


class TestGraphInput:
    # a Graph is solved from its adjacency rows, and a 2-uniform hypergraph
    # from rows built off its masks; every solve on a Graph must give the
    # certificate of its hypergraph, node counts included.
    def test_certificates_match_the_hypergraph(self):
        isolated = 0
        for g in _seeded_graphs():
            h = Hypergraph.from_edge_sets(g.n, g.edges())
            isolated += 0 in g.degrees()
            for fn in (domination_number, transversal_number):
                assert fn(g) == fn(h)
                assert fn(g, lex_witness=False) == fn(h, lex_witness=False)
            assert matching_number(g) == matching_number(h)
        assert isolated > 20

    def test_connected_graphs_solve_as_their_hypergraphs(self):
        # the sweeps solve G as the Graph it is, so each certificate must be
        # its hypergraph's, node counts and witness nodes included
        for n in range(1, 7):
            for g in enumerate_connected(n):
                h = Hypergraph.from_graph(g)
                for fn in (domination_number, transversal_number):
                    assert fn(g) == fn(h)
                    assert fn(g, lex_witness=False) == fn(h, lex_witness=False)
                assert matching_number(g) == matching_number(h)

    def test_vertex_lists_are_those_of_the_masks(self):
        for g in _seeded_graphs():
            h = Hypergraph.from_graph(g)
            assert h.vertex_lists() == tuple(tuple(sorted(_bits(e))) for e in h.edge_masks)
            assert h == Hypergraph.from_edge_sets(g.n, g.edges())


def _tau_graph_instances():
    """Graph instances of tau: every connected graph with n <= 7, seeded random
    graphs with n <= 30 whose edges avoid a random set of vertices, and
    2-uniform hypergraphs with duplicate edges."""
    for n in range(1, 8):
        yield from enumerate_connected(n)
    rng = random.Random(3031)
    for _ in range(120):
        n = rng.randint(2, 30)
        p = rng.choice([0.1, 0.2, 0.35])
        touched = set(rng.sample(range(n), rng.randint(1, n)))
        yield Graph.from_edges(n, [(u, v) for u, v in combinations(sorted(touched), 2)
                                   if rng.random() < p])
    for _ in range(120):
        m = rng.randint(2, 12)
        edges = [rng.sample(range(m), 2) for _ in range(rng.randint(1, 14))]
        edges += [rng.choice(edges) for _ in range(rng.randint(1, 3))]
        yield Hypergraph.from_edge_sets(m, edges)


def _as_edge_hypergraph(x):
    return x if isinstance(x, Hypergraph) else Hypergraph.from_edge_sets(x.n, x.edges())


def _degree_greedy_size(h):
    """The size of the greedy independent set over the vertices by (degree, index)."""
    nbrs = [set() for _ in range(h.m)]
    for u, v in h.edge_sets():
        nbrs[u].add(v)
        nbrs[v].add(u)
    chosen = set()
    for v in sorted(range(h.m), key=lambda v: (len(nbrs[v]), v)):
        if not nbrs[v] & chosen:
            chosen.add(v)
    return len(chosen)


class TestGraphTau:
    # tau on a graph instance is n minus the independence number, from the
    # exclude-first independent-set search; it must give the value and the
    # lexicographically smallest witness of the cover solve
    def test_matches_the_cover_solve_and_the_oracle(self):
        for x in _tau_graph_instances():
            h = _as_edge_hypergraph(x)
            cover = invariants._solve_cover("tau", *_cover_system(h, "tau"), "branch_and_bound",
                                            invariants.DEFAULT_NODE_CAP, True)
            cert = transversal_number(x)
            assert (cert.value, cert.witness) == (cover.value, cover.witness), x
            if h.m <= 12:
                assert cert.value == brute_tau(h)
            # one search finds the value and the witness: the flag changes nothing
            assert transversal_number(x, lex_witness=False) == cert
            assert cert.witness_nodes == 0 and check_certificate(x, cert)

    def test_node_cap_reports_an_independent_set(self):
        # every instance with an edge takes at least four nodes; the bound is
        # n minus the incumbent, which is still the greedy set after one node
        capped = 0
        for x in _tau_graph_instances():
            h = _as_edge_hypergraph(x)
            if not h.edge_count:
                continue
            tau = transversal_number(x).value
            bounds = []
            for cap in (1, 3):
                with pytest.raises(SearchBudgetExceeded) as info:
                    transversal_number(x, node_cap=cap)
                assert info.value.node_count == cap + 1
                bounds.append(info.value.best_bound)
            assert bounds[0] == h.m - _degree_greedy_size(h)
            assert tau <= bounds[1] <= bounds[0]
            capped += 1
        assert capped > 1000


def _random_tree(n):
    rng = random.Random(7)
    return Graph.from_edges(n, [(rng.randrange(v), v) for v in range(1, n)])


class TestGraphTauRobustness:
    # graphs the CLI accepts on which the cover search blew up: tau on
    # G(64, 0.2) with seed 36 hit a cap of 2*10^6 nodes there, and G(64, 0.3)
    # took 702,727 (Baseline, another seed). The value is checked against
    # n minus a maximum clique of the complement from networkx.
    @pytest.mark.parametrize("g", [
        *(_gnp(64, p) for p in (0.03, 0.05, 0.1, 0.2, 0.3)),
        _gnp(64, 0.2, seed=36),
        _random_tree(64),
        star(63),
        corona(cycle(21)),
    ], ids=["G64_0_03", "G64_0_05", "G64_0_1", "G64_0_2", "G64_0_3", "G64_0_2_seed36",
            "tree64", "star63", "corona_C21"])
    def test_solves_within_a_small_cap(self, g):
        cert = transversal_number(g, node_cap=50_000)
        nxg = nx.Graph(g.edges())
        nxg.add_nodes_from(range(g.n))
        _clique, alpha = nx.max_weight_clique(nx.complement(nxg), weight=None)
        assert cert.value == g.n - alpha
        assert check_certificate(g, cert)
        assert transversal_number(g, node_cap=50_000, lex_witness=False).value == cert.value

    @pytest.mark.parametrize("x", [
        Hypergraph.from_edge_sets(65, [[i, i + 1] for i in range(64)]),
        Hypergraph.from_edge_sets(6, [[0, 1], [1, 2, 3], [3, 4], [4, 5]]),
    ], ids=["path_on_65_vertices", "an_edge_of_three"])
    def test_other_instances_keep_the_cover_search(self, x):
        assert transversal_number(x) == invariants._solve_cover(
            "tau", *_cover_system(x, "tau"), "branch_and_bound", invariants.DEFAULT_NODE_CAP,
            True)

    def test_exhaustive_mode_keeps_the_cover_search(self):
        g = cycle(7)
        assert transversal_number(g, mode="exhaustive") == invariants._solve_cover(
            "tau", *_cover_system(_as_edge_hypergraph(g), "tau"), "exhaustive",
            invariants.DEFAULT_NODE_CAP, True)


def _kernel_instances():
    """Seeded hypergraphs whose kernel is a multigraph: a random multigraph on
    a few classes, each class blown up to one to three vertices, and each edge
    given up to two vertices of its own. Among the edges are parallel copies,
    edges of one class and lonely edges (of no class); the labels left over
    are isolated vertices."""
    rng = random.Random(3333)
    for _ in range(300):
        n_classes = rng.randint(1, 7)
        edges = [rng.sample(range(n_classes), min(n_classes, rng.choice([0, 1, 2, 2, 2])))
                 for _ in range(rng.randint(1, 10))]
        edges += [rng.choice(edges) for _ in range(rng.randint(0, 2))]
        labels = list(range(3 * n_classes + 2 * len(edges) + 2))
        rng.shuffle(labels)
        fresh = iter(labels)
        blocks = [[next(fresh) for _ in range(rng.randint(1, 3))] for _ in range(n_classes)]
        yield Hypergraph.from_edge_sets(len(labels), [
            [v for c in cs for v in blocks[c]]
            + [next(fresh) for _ in range(rng.randint(0 if cs else 1, 2))] for cs in edges])


_HAND_KERNELS = [
    # duplicate 2-vertex edges, as a graph instance and past MAX_VERTICES
    Hypergraph.from_edge_sets(4, [[0, 1], [1, 2], [0, 1], [2, 3], [2, 3]]),
    Hypergraph.from_edge_sets(70, [[0, 1], [1, 2], [0, 1], [2, 3], [2, 3], [68, 69]]),
    # copies with equal incidence merge: {0, 1} is one class, so edge 2
    # holds one class; vertices 4 and 6 lie in one edge each
    Hypergraph.from_edge_sets(7, [[0, 1, 2], [0, 1, 3, 4], [2, 3], [1, 0], [5, 6]]),
    # singletons: a repeated one (one class) and lonely ones
    Hypergraph.from_edge_sets(4, [[0], [1], [0], [2]]),
    # lonely edges only, next to an isolated vertex
    Hypergraph.from_edge_sets(6, [[0, 1, 2], [3, 4]]),
    # parallel edges whose vertices differ: the kernel is a triangle with a
    # doubled edge and a pendant edge
    Hypergraph.from_edge_sets(9, [[0, 1, 5], [1, 2], [0, 1, 6], [2, 0, 7], [2, 8], [3]]),
    Hypergraph(5, []),
    Hypergraph(0, []),
]


def _check_nu(x):
    """Value and witness of matching_number against the branch and bound, the
    value against brute_nu on small instances and against networkx on the
    graph itself or on the kernel; returns whether the instance has a kernel."""
    h = invariants._as_hypergraph(x)
    budget = invariants._Budget(invariants.DEFAULT_NODE_CAP)
    packing = invariants._max_packing(h, budget)
    cert = matching_number(x)
    assert (cert.value, cert.witness) == (len(packing), packing), x
    assert check_certificate(x, cert)
    if h.edge_count <= 12:
        assert cert.value == brute_nu(h)
    kernel = invariants._matching_kernel(h)
    if kernel is not None:
        ends, n = kernel
        nxg = nx.Graph(ends)
        nxg.add_nodes_from(range(n))
        assert cert.value == len(nx.max_weight_matching(nxg, maxcardinality=True))
        assert len(ends) == h.edge_count
    return kernel is not None


class TestGraphNu:
    # nu on a graph instance or a multigraph kernel is Edmonds' blossom search
    # with the edges decided in index order; it must give the branch and
    # bound's value and lexicographically smallest witness
    def test_seeded_graphs(self):
        for x in (*_seeded_graphs(), *_tau_graph_instances()):
            _check_nu(x)

    def test_multigraph_kernels(self):
        kernels = sum(_check_nu(x) for x in (*_kernel_instances(), *_HAND_KERNELS))
        assert kernels == 300 + len(_HAND_KERNELS)

    def test_powers_up_to_n6(self):
        for n in range(2, 7):
            for g in enumerate_connected(n):
                for k, s in ((4, 1), (4, 2)):
                    h = generalized_power(g, k, s)[0]
                    assert _check_nu(h)
                    assert matching_number(h).value == matching_number(g).value

    @pytest.mark.parametrize("x", [
        builtin_hypergraph("fano"),
        Hypergraph.from_edge_sets(6, [[0, 1], [1, 2, 3], [3, 4], [4, 5], [0, 2, 4]]),
    ], ids=["fano", "an_edge_of_three_classes"])
    def test_other_kernels_keep_the_branch_and_bound(self, x):
        assert invariants._matching_kernel(x) is None
        _check_nu(x)
        budget = invariants._Budget(invariants.DEFAULT_NODE_CAP)
        packing = invariants._max_packing(x, budget)
        assert matching_number(x) == Certificate("nu", len(packing), packing,
                                                 "branch_and_bound", budget.nodes)

    def test_node_cap_reports_the_matching_size(self):
        # the bound reported is the matching held when the cap falls: the
        # greedy one at first, nu once the witness decisions run
        g = _gnp(64, 0.05, seed=1)
        cert = matching_number(g)
        greedy = acc = 0
        for u, v in g.edges():
            if not acc & (1 << u | 1 << v):
                acc |= 1 << u | 1 << v
                greedy += 1
        bounds = []
        for cap in range(1, cert.node_count):
            with pytest.raises(SearchBudgetExceeded) as info:
                matching_number(g, node_cap=cap)
            assert info.value.node_count == cap + 1
            bounds.append(info.value.best_bound)
        assert bounds == sorted(bounds)
        assert (bounds[0], bounds[-1], cert.value) == (greedy, cert.value, 31)
        assert bounds[cert.node_count - cert.witness_nodes - 1] == cert.value


def _with_pendant(q):
    return Graph.from_edges(q + 1, complete(q).edges() + [(0, q)])


class TestGraphNuRobustness:
    # graphs the CLI accepts on which the branch and bound blew up: it hit a
    # cap of 10^6 nodes on three G(64, p) rows and 10^5 on each K_q plus a
    # pendant edge (596,823 nodes uncapped on K15). The value is checked
    # against networkx.
    @pytest.mark.parametrize("g", [
        *(_gnp(64, p, seed) for seed in (1, 2, 3) for p in (0.03, 0.05, 0.08, 0.1, 0.15, 0.2)),
        *(_with_pendant(q) for q in (15, 17, 63)),
        Graph.from_edges(18, complete(15).edges() + [(15, 16), (15, 17), (16, 17)]),
    ], ids=[*(f"G64_{p}_seed{seed}" for seed in (1, 2, 3)
              for p in (0.03, 0.05, 0.08, 0.1, 0.15, 0.2)),
            "K15_pendant", "K17_pendant", "K63_pendant", "K15_and_K3"])
    def test_solves_within_a_small_cap(self, g):
        cert = matching_number(g, node_cap=10_000)
        nxg = nx.Graph(g.edges())
        nxg.add_nodes_from(range(g.n))
        assert cert.value == len(nx.max_weight_matching(nxg, maxcardinality=True))
        assert check_certificate(g, cert)


class TestNuCountingBound:
    # The counting bound only adds pruning to the greedy transversal, so the
    # value and the best value at every visited node stay the same, and the
    # search may visit no node the greedy bound alone skips. The witness is
    # the first maximum packing the search reaches, which must be the one the
    # oracle's separate witness pass finds. The nodes saved are counted in the
    # value search alone, so they measure the counting bound. The branch and
    # bound is called directly, since graph kernels go to the blossom search.
    @staticmethod
    def _check(x):
        value, witness, value_nodes, _ = greedy_transversal_nu(x)
        budget = invariants._Budget(invariants.DEFAULT_NODE_CAP)
        packing = invariants._max_packing(invariants._as_hypergraph(x), budget)
        assert (len(packing), packing) == (value, witness)
        assert matching_number(x).witness == witness
        assert budget.witness_nodes == 0
        assert budget.nodes <= value_nodes
        return value_nodes - budget.nodes

    @pytest.mark.parametrize("x, nodes", [
        (generalized_power(cycle(31), 4, 1)[0], 1),
        (generalized_power(complete(12), 4, 1)[0], 1),
        (_ODD_FIRST_PATH, 2003),
        (_gnp(18, 0.3), 21),  # 1,057 without the count
    ], ids=["C31_4_1", "K12_4_1", "path_1002_odd_edges_first", "G18_0_3"])
    def test_node_counts(self, x, nodes):
        # the counts matching_number gave before graph kernels went to the
        # blossom search: on cliques and cycles the count settles the root
        budget = invariants._Budget(invariants.DEFAULT_NODE_CAP)
        packing = invariants._max_packing(invariants._as_hypergraph(x), budget)
        assert (budget.nodes, packing) == (nodes, matching_number(x).witness)

    def test_small_graphs_and_powers(self):
        saved = 0
        for n in range(1, 7):
            for g in enumerate_connected(n):
                saved += self._check(g)
                if g.edge_count:
                    saved += self._check(generalized_power(g, 4, 1)[0])
                    saved += self._check(generalized_power(g, 4, 2)[0])
        assert saved > 0

    @pytest.mark.parametrize("x", [
        Hypergraph(0, []),
        Hypergraph(4, []),
        Hypergraph.from_edge_sets(3, [[0], [1], [2]]),
        Hypergraph.from_edge_sets(3, [[0], [0], [1, 2]]),
        Hypergraph.from_edge_sets(5, [[0, 1], [0, 1, 2], [3], [4]]),
        Hypergraph.from_edge_sets(4, [[0, 1], [0, 2], [1, 3]]),
    ], ids=["empty", "no_edges", "singletons", "repeated_singleton", "nested_and_lonely",
            "greedy_not_maximum"])
    def test_edge_cases(self, x):
        self._check(x)

    def test_seeded_random_hypergraphs(self):
        rng = random.Random(2718)
        for _ in range(600):
            m = rng.randint(1, 9)
            edges = [set(rng.sample(range(m), rng.randint(1, min(4, m))))
                     for _ in range(rng.randint(0, 6))]
            for _ in range(rng.randint(0, 2)):
                if edges:  # a nested or a repeated edge
                    edges.append(rng.choice(edges) | set(rng.sample(range(m), rng.randint(0, 1))))
            for _ in range(rng.randint(0, 3)):  # lonely edges, singletons among them
                size = rng.randint(1, 2)
                edges.append(set(range(m, m + size)))
                m += size
            rng.shuffle(edges)
            self._check(Hypergraph.from_edge_sets(m, edges))


_C7_4_1 = generalized_power(cycle(7), 4, 1)[0]


class TestNoCyclicGarbage:
    # Every search is a loop over an explicit stack, with no recursive closure
    # to leave a reference cycle behind, so a call leaves nothing for the
    # cycle collector
    @pytest.mark.parametrize("call", [
        partial(domination_number, _C7_4_1),
        partial(domination_number, _C7_4_1, lex_witness=False),
        partial(transversal_number, _C7_4_1),
        partial(matching_number, _C7_4_1),
        partial(canonical_labeling, cycle(9)),
    ], ids=["gamma", "gamma_value_only", "tau", "nu", "canonical_labeling"])
    def test_search_leaves_no_cycles(self, call):
        enabled = gc.isenabled()
        gc.disable()
        try:
            gc.collect()
            call()
            assert gc.collect() == 0
        finally:
            if enabled:
                gc.enable()


class TestBudget:
    def test_node_cap_raises(self):
        h, _ = generalized_power(complete(8), 4, 1)
        with pytest.raises(SearchBudgetExceeded) as info:
            domination_number(h, node_cap=10)
        assert info.value.node_count > 10

    def test_cap_in_witness_decisions_reports_the_value(self):
        # the value 10 is proven after 45 nodes; the cap falls in the witness
        # decisions, whose searches look for covers of 10 sets
        h, _ = generalized_power(complete_minus_clique(6, 2), 4, 1)
        with pytest.raises(SearchBudgetExceeded) as info:
            domination_number(h, node_cap=50)
        assert (info.value.best_bound, info.value.node_count) == (10, 51)

    def test_node_count_reported(self):
        cert = domination_number(cycle(6))
        assert cert.node_count > 0
