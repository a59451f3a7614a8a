import hashlib
import random

import networkx as nx
import pytest

from dilations.errors import CapacityError
from dilations.graphs import Graph, complete, complete_bipartite, cycle
from dilations.isomorphism import (_connected_classes, canonical_form,
                                   enumerate_connected, is_isomorphic)
from oracles import (brute_connected_labeled_count, brute_connected_permutation_count,
                     unpruned_connected_classes)


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

    @pytest.mark.parametrize("n", range(1, 7))
    def test_orbit_pruning_keeps_representatives(self, n):
        expected = [g.adj for g in unpruned_connected_classes(n, canonical_form)]
        assert [g.adj for g in enumerate_connected(n)] == expected

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
