import hashlib
import random
from itertools import permutations, product

import networkx as nx
import pytest

from dilations import isomorphism
from dilations.errors import CapacityError
from dilations.graphs import Graph, complete, complete_bipartite, cycle
from dilations.isomorphism import (_connected_classes, _connected_without, _deletion_profiles,
                                   _homogeneous, _orbit_minima, _profile_entries, _refine,
                                   canonical_form, canonical_labeling, enumerate_connected,
                                   is_isomorphic)
from oracles import (brute_connected_labeled_count, brute_connected_permutation_count,
                     full_refine, profile_without, unpruned_connected_classes)


def random_graph(rng, n, p=0.5):
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return Graph.from_edges(n, edges)


class TestCanonicalForm:
    def test_invariant_under_relabeling(self):
        rng = random.Random(11)
        sample = [random_graph(rng, n) for n in range(2, 8) for _ in range(5)]
        sample += [cycle(6), complete(5), complete_bipartite(3, 3),
                   Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])]
        for g in sample:
            code = canonical_form(g)
            for _ in range(100):
                perm = list(range(g.n))
                rng.shuffle(perm)
                assert canonical_form(g.relabel(perm)) == code

    def test_relabeled_cycle(self):
        assert is_isomorphic(cycle(5), cycle(5).relabel([2, 0, 4, 1, 3]))

    def test_connectivity_distinguished(self):
        two_triangles = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2),
                                             (3, 4), (4, 5), (3, 5)])
        assert not is_isomorphic(cycle(6), two_triangles)

    def test_same_degree_sequence_distinguished(self):
        # K_{3,3} and C6 are both regular but only one contains C4
        assert not is_isomorphic(complete_bipartite(3, 3), cycle(6))

    def test_against_networkx(self):
        rng = random.Random(23)
        for _ in range(80):
            n = rng.randint(1, 7)
            g1, g2 = random_graph(rng, n), random_graph(rng, n)
            nx1 = nx.Graph()
            nx1.add_nodes_from(range(n))
            nx1.add_edges_from(g1.edges())
            nx2 = nx.Graph()
            nx2.add_nodes_from(range(n))
            nx2.add_edges_from(g2.edges())
            assert is_isomorphic(g1, g2) == nx.is_isomorphic(nx1, nx2)

    def test_highly_symmetric(self):
        # cocktail-party graph: large automorphism group, homogeneity shortcut path
        g = complete(8)
        edges = [e for e in g.edges() if e not in [(0, 1), (2, 3), (4, 5), (6, 7)]]
        cocktail = Graph.from_edges(8, edges)
        perm = [3, 2, 5, 4, 7, 6, 1, 0]
        assert canonical_form(cocktail.relabel(perm)) == canonical_form(cocktail)


def symmetric_graphs():
    """Regular and other highly symmetric graphs, where refinement splits
    the least and the search branches the most."""
    named = [nx.petersen_graph(), nx.heawood_graph(), nx.moebius_kantor_graph(),
             nx.cycle_graph(12), nx.hypercube_graph(3), nx.complete_bipartite_graph(3, 4),
             nx.disjoint_union_all([nx.complete_graph(3)] * 4), nx.circulant_graph(11, [1, 3])]
    named += [nx.random_regular_graph(d, n, seed=n * d)
              for n in range(9, 15) for d in (3, 4, 5) if n * d % 2 == 0]
    graphs = []
    for g in named:
        g = nx.convert_node_labels_to_integers(g)
        graphs.append(Graph.from_edges(g.number_of_nodes(), list(g.edges())))
    return graphs


def refinement_inputs(adj):
    """The unit partition and every individualisation of the first
    non-singleton cell of its refinement, each with its splitters."""
    n = len(adj)
    yield [list(range(n))], [(1 << n) - 1]
    cells = full_refine(adj, [list(range(n))])
    target = next((i for i, c in enumerate(cells) if len(c) > 1), None)
    if target is not None:
        for v in cells[target]:
            yield (cells[:target] + [[v], [u for u in cells[target] if u != v]]
                   + cells[target + 1:], [1 << v])


class TestRefinement:
    def assert_same_as_full_count(self, adj):
        for cells, splitters in refinement_inputs(adj):
            assert _refine(adj, cells, splitters) == full_refine(adj, cells)

    def test_every_connected_graph_to_n7(self):
        for n in range(1, 8):
            for cls in _connected_classes(n):
                self.assert_same_as_full_count(cls.graph.adj)

    def test_symmetric_graphs(self):
        for g in symmetric_graphs():
            self.assert_same_as_full_count(g.adj)

    def test_homogeneous_against_brute_force(self):
        def code(adj, order):
            pos = {v: i for i, v in enumerate(order)}
            return tuple(sorted((pos[u], pos[v]) for u in order for v in order if adj[u] >> v & 1))

        outcomes = set()
        for n in range(1, 7):
            for cls in _connected_classes(n):
                adj = cls.graph.adj
                for cells, splitters in refinement_inputs(adj):
                    cells = _refine(adj, cells, splitters)
                    codes = {code(adj, [v for part in parts for v in part])
                             for parts in product(*map(permutations, cells))}
                    assert _homogeneous(adj, cells) == (len(codes) == 1)
                    outcomes.add(len(codes) == 1)
        assert outcomes == {True, False}


def assert_deletion_profiles(adj, nbhd):
    """Checks every incremental profile and connectivity verdict of the graph
    on `adj` plus a vertex joined to `nbhd`, less one old vertex, against the
    oracle; returns the number of deletions that disconnect a connected
    graph."""
    n = len(adj) + 1
    scale = n * n
    rows = tuple(row | (nbhd >> v & 1) << (n - 1) for v, row in enumerate(adj)) + (nbhd,)
    entries = _profile_entries(adj, scale)
    assert sorted(divmod(x, scale) for x in entries) == profile_without(adj)
    got = list(_deletion_profiles(rows, entries, scale))
    assert [u for u, _ in got] == list(range(n - 2, -1, -1))
    whole = Graph(n, rows)
    disconnecting = 0
    for u, profile in got:
        assert [divmod(x, scale) for x in profile] == profile_without(rows, u)
        rest = whole.induced_subgraph([v for v in range(n) if v != u]).is_connected()
        assert _connected_without(rows, u) == rest
        disconnecting += whole.is_connected() and not rest
    return disconnecting


class TestDeletionProfiles:
    """The enumeration skips a candidate on the profile of a deletion, so a
    wrong incremental formula would silently drop classes."""

    def test_every_candidate_to_n7(self):
        disconnecting = 0
        for n in range(2, 8):
            for base in _connected_classes(n - 1):
                for nbhd in _orbit_minima(n - 1, base.generators):
                    disconnecting += assert_deletion_profiles(base.graph.adj, nbhd)
        assert disconnecting > 0

    def test_seeded_random_graphs_to_n9(self):
        rng = random.Random(19)
        disconnecting = 0
        for n in range(2, 10):
            for _ in range(60):
                base = random_graph(rng, n - 1, rng.choice([0.2, 0.4, 0.7]))
                disconnecting += assert_deletion_profiles(base.adj,
                                                          rng.randrange(1, 1 << (n - 1)))
        assert disconnecting > 0


class TestEnumeration:
    def test_small_counts_hand(self):
        assert len(list(enumerate_connected(1))) == 1
        assert len(list(enumerate_connected(2))) == 1
        assert len(list(enumerate_connected(3))) == 2  # P3 and C3

    @pytest.mark.parametrize("n,expected", [(4, 6), (5, 21), (6, 112)])
    def test_counts_vs_labeled_bruteforce(self, n, expected):
        got = len(list(enumerate_connected(n)))
        assert got == expected
        assert got == brute_connected_labeled_count(n, canonical_form)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_counts_vs_permutation_dedup(self, n):
        # oracle that never touches canonical_form
        assert len(list(enumerate_connected(n))) == brute_connected_permutation_count(n)

    def test_golden_codes_and_representatives(self):
        # pins each class's canonical code and its representative's labelling,
        # which drives witnesses and seeded random dilations downstream
        lines = []
        for n in range(1, 8):
            classes = list(enumerate_connected(n))
            assert len(classes) == (1, 1, 2, 6, 21, 112, 853)[n - 1]  # OEIS A001349
            lines += [f"{canonical_form(g)} {','.join(map(str, g.adj))}" for g in classes]
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == "071539eec9ad8612048ed46e05097f3e199b643385c6a6bd7a68914a813e9c8d"

    def test_golden_canonical_labeling(self):
        # pins the labelling itself, which orders witnesses and seeded dilations
        lines = [f"{canonical_form(g)} {' '.join(map(str, canonical_labeling(g)))}"
                 for n in range(1, 8) for g in enumerate_connected(n)]
        assert len(lines) == 996
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == "3690d8d348498e7f4fc54e81acbbe5486c7747f573821036688d0ca58471f917"

    @pytest.mark.parametrize("n", range(1, 8))
    def test_orbit_pruning_keeps_representatives(self, n):
        expected = [g.adj for g in unpruned_connected_classes(n, canonical_form)]
        assert [g.adj for g in enumerate_connected(n)] == expected

    def test_canonizations_per_n(self, monkeypatch):
        # orbit pruning and the earlier-base skip leave one canonization per
        # class up to n = 6 and 854 for 853 classes at n = 7 (3,771 without
        # the skip)
        counts = {}
        search = isomorphism._search

        def counted(rows):
            counts[len(rows)] = counts.get(len(rows), 0) + 1
            return search(rows)
        saved = dict(isomorphism._connected_cache)
        isomorphism._connected_cache.clear()
        monkeypatch.setattr(isomorphism, "_search", counted)
        try:
            _connected_classes(7)
        finally:
            isomorphism._connected_cache.clear()
            isomorphism._connected_cache.update(saved)
        assert counts == {2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 854}

    def test_generators_are_automorphisms(self):
        for n in range(1, 8):
            for cls in _connected_classes(n):
                adj = cls.graph.adj
                for perm in cls.generators:
                    assert sorted(perm) == list(range(n))
                    for u in range(n):
                        for v in range(n):
                            assert (adj[u] >> v & 1) == (adj[perm[u]] >> perm[v] & 1)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_generators_generate_full_group(self, n):
        for cls in _connected_classes(n):
            group = {tuple(range(n))}
            frontier = list(group)
            while frontier:
                p = frontier.pop()
                for gen in cls.generators:
                    q = tuple(gen[p[v]] for v in range(n))
                    if q not in group:
                        group.add(q)
                        frontier.append(q)
            nxg = nx.Graph()
            nxg.add_nodes_from(range(n))
            nxg.add_edges_from(cls.graph.edges())
            matcher = nx.algorithms.isomorphism.GraphMatcher(nxg, nxg)
            assert len(group) == sum(1 for _ in matcher.isomorphisms_iter())

    def test_constraints(self):
        hits = list(enumerate_connected(5, min_degree=2, bipartite=False))
        codes = {canonical_form(g) for g in hits}
        assert canonical_form(cycle(5)) in codes
        assert canonical_form(complete(5)) in codes
        for g in hits:
            assert min(g.degrees()) >= 2

    def test_bipartite_filter(self):
        for g in enumerate_connected(5, bipartite=True):
            nxg = nx.Graph()
            nxg.add_nodes_from(range(g.n))
            nxg.add_edges_from(g.edges())
            assert nx.is_bipartite(nxg)

    def test_deterministic_order(self):
        first = [canonical_form(g) for g in enumerate_connected(5)]
        second = [canonical_form(g) for g in enumerate_connected(5)]
        assert first == second == sorted(first)

    def test_capacity(self):
        with pytest.raises(CapacityError):
            list(enumerate_connected(10))
        with pytest.raises(CapacityError):
            list(enumerate_connected(0))
