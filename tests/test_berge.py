import inspect
import random

import networkx as nx
import pytest

from dilations.berge import (BergeWitness, _perfect_matching, natural_berge_witness,
                             random_berge, search_berge_witness, verify_berge_witness)
from dilations.dilation import random_dilation
from dilations.errors import SearchBudgetExceeded, StructuralError
from dilations.graphs import Graph, complete, cycle, path
from dilations.hypergraphs import Hypergraph, builtin_hypergraph
from dilations.invariants import (DEFAULT_NODE_CAP, domination_number, is_keg,
                                  matching_number, transversal_number)
from oracles import brute_berge_exists


class TestVerify:
    def test_identity_witness(self):
        g = cycle(4)
        h = Hypergraph.from_graph(g)
        w = BergeWitness(tuple(range(4)), tuple(range(4)))
        assert verify_berge_witness(g, h, w)

    def test_natural_dilation_witness(self):
        rng = random.Random(2)
        for seed in range(10):
            n = rng.randint(3, 6)
            edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                     if rng.random() < 0.5]
            if not edges:
                continue
            g = Graph.from_edges(n, edges)
            h, bw = random_dilation(g, 5, seed=seed)
            assert verify_berge_witness(g, h, natural_berge_witness(bw))

    def test_size_mismatch(self):
        with pytest.raises(StructuralError):
            verify_berge_witness(complete(3), Hypergraph.from_edge_sets(3, [[0, 1]]),
                                 BergeWitness((0, 1, 2), (0,)))

    def test_non_injective_rejected(self):
        g = path(3)
        h = Hypergraph.from_graph(g)
        assert not verify_berge_witness(g, h, BergeWitness((0, 0, 1), (0, 1)))

    def test_bad_containment_rejected(self):
        g = path(3)
        h = Hypergraph.from_graph(g)
        assert not verify_berge_witness(g, h, BergeWitness((0, 1, 2), (1, 0)))

    def test_json_round_trip(self):
        w = BergeWitness((2, 0, 1), (1, 0))
        assert BergeWitness.from_json(w.to_json()) == w


class TestSearch:
    def test_duplicate_hyperedges_host_path(self):
        # two copies of {0,1,2} can host both edges of P3
        h = Hypergraph.from_edge_sets(3, [[0, 1, 2], [0, 1, 2]])
        w = search_berge_witness(path(3), h)
        assert w is not None and verify_berge_witness(path(3), h, w)

    def test_disjoint_triple_edges_cannot_host_triangle(self):
        h = Hypergraph.from_edge_sets(9, [[0, 1, 2], [3, 4, 5], [6, 7, 8]])
        assert search_berge_witness(complete(3), h) is None

    def test_fano_hosts_seven_cycle(self):
        fano = builtin_hypergraph("fano")
        w = search_berge_witness(cycle(7), fano)
        assert w is not None
        assert verify_berge_witness(cycle(7), fano, w)

    def test_size_mismatch(self):
        with pytest.raises(StructuralError):
            search_berge_witness(complete(3), Hypergraph.from_edge_sets(4, [[0, 1, 2]]))

    @pytest.mark.parametrize("search", [search_berge_witness, domination_number,
                                        matching_number, transversal_number, is_keg])
    def test_one_default_node_cap(self, search):
        assert inspect.signature(search).parameters["node_cap"].default == DEFAULT_NODE_CAP

    def test_agrees_with_bruteforce_on_corpus(self):
        rng = random.Random(17)
        pairs = []
        while len(pairs) < 100:
            n = rng.randint(2, 5)
            edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                     if rng.random() < 0.6]
            if not edges:
                continue
            g = Graph.from_edges(n, edges)
            m = rng.randint(n, n + 3)
            hyper = []
            for _ in range(len(edges)):
                size = rng.randint(2, min(4, m))
                hyper.append(rng.sample(range(m), size))
            pairs.append((g, Hypergraph.from_edge_sets(m, hyper)))
        found_counts = {True: 0, False: 0}
        for g, h in pairs:
            w = search_berge_witness(g, h)
            expected = brute_berge_exists(g, h)
            assert (w is not None) == expected, (g.edges(), h.edge_sets())
            if w is not None:
                assert verify_berge_witness(g, h, w)
            found_counts[expected] += 1
        # the corpus must exercise both outcomes
        assert found_counts[True] > 0 and found_counts[False] > 0

    def test_agrees_with_bruteforce_six_vertices(self):
        # a few pairs at the upper end of exhaustive feasibility
        rng = random.Random(41)
        done = 0
        while done < 6:
            edges = [(i, j) for i in range(6) for j in range(i + 1, 6)
                     if rng.random() < 0.4]
            if len(edges) < 3:
                continue
            g = Graph.from_edges(6, edges)
            m = rng.randint(6, 8)
            hyper = [rng.sample(range(m), rng.randint(2, 4))
                     for _ in range(len(edges))]
            h = Hypergraph.from_edge_sets(m, hyper)
            w = search_berge_witness(g, h)
            assert (w is not None) == brute_berge_exists(g, h)
            done += 1

    def test_complete_graph_past_the_recursion_limit(self):
        # the root's matching follows augmenting paths over K46's 1,035 edges
        g = complete(46)
        with pytest.raises(SearchBudgetExceeded, match="exceeded 1 nodes at depth 1"):
            search_berge_witness(g, Hypergraph.from_graph(g), node_cap=1)


class TestPerfectMatching:
    def test_agrees_with_networkx_on_random_relations(self):
        rng = random.Random(53)
        perfect = 0
        for _ in range(600):
            n = rng.randint(0, 12)
            p = rng.choice((0.1, 0.2, 0.3, 0.5))
            rows = [sum(1 << r for r in range(n) if rng.random() < p) for _ in range(n)]
            b = nx.Graph()
            b.add_nodes_from(range(2 * n))
            b.add_edges_from((i, n + r) for i, row in enumerate(rows)
                             for r in range(n) if row >> r & 1)
            expected = len(nx.bipartite.hopcroft_karp_matching(b, top_nodes=range(n))) == 2 * n
            matched = _perfect_matching(rows)
            assert (matched is not None) == expected, rows
            if matched is not None:
                assert sorted(matched) == list(range(n))
                assert all(row >> r & 1 for row, r in zip(rows, matched))
                perfect += 1
        assert 0 < perfect < 600

    def test_all_ones_relation_of_1100(self):
        # each left takes right 0 by an augmenting path through every left
        # before it, which moves each of them one right up: a path of 1,099
        # steps, past Python's default recursion limit
        n = 1100
        assert _perfect_matching([(1 << n) - 1] * n) == tuple(range(n - 1, -1, -1))


class TestRandomBerge:
    def test_witness_verifies(self):
        for seed in range(10):
            g = cycle(5)
            h, w = random_berge(g, 4, seed=seed)
            assert verify_berge_witness(g, h, w)

    def test_deterministic(self):
        assert random_berge(cycle(4), 4, seed=3) == random_berge(cycle(4), 4, seed=3)

    def test_invariant_inequalities(self):
        # hosts never increase the matching or transversal number
        rng = random.Random(29)
        for seed in range(15):
            n = rng.randint(2, 6)
            edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                     if rng.random() < 0.5]
            if not edges:
                continue
            g = Graph.from_edges(n, edges)
            h, _ = random_berge(g, 5, seed=seed)
            assert matching_number(h).value <= matching_number(g).value
            assert transversal_number(h).value <= transversal_number(g).value
