import pickle
import random
from itertools import combinations

import networkx as nx
import pytest

from dilations.errors import DomainError, ParseError
from dilations.graphs import cycle
from dilations.hypergraphs import (Hypergraph, builtin_hypergraph,
                                   parse_hypergraph, to_hypergraph_text)


class TestHypergraph:
    def test_construction(self):
        h = Hypergraph.from_edge_sets(5, [[0, 1, 2], [2, 3], [4]])
        assert h.m == 5 and h.edge_count == 3
        assert h.rank == 3
        assert h.edge_vertices(1) == [2, 3]
        assert h.degree(2) == 2

    def test_duplicates_allowed(self):
        h = Hypergraph.from_edge_sets(3, [[0, 1], [0, 1]])
        assert h.edge_count == 2

    def test_empty_edge_rejected(self):
        with pytest.raises(DomainError):
            Hypergraph.from_edge_sets(3, [[]])

    def test_out_of_range(self):
        with pytest.raises(DomainError):
            Hypergraph.from_edge_sets(3, [[0, 3]])

    def test_from_graph(self):
        h = Hypergraph.from_graph(cycle(4))
        assert h.m == 4 and h.edge_count == 4 and h.is_uniform(2)

    def test_connectivity(self):
        assert Hypergraph.from_edge_sets(4, [[0, 1], [1, 2], [2, 3]]).is_connected()
        assert not Hypergraph.from_edge_sets(4, [[0, 1], [2, 3]]).is_connected()
        # isolated vertex disconnects
        assert not Hypergraph.from_edge_sets(3, [[0, 1]]).is_connected()

    def test_closed_neighborhoods(self):
        h = Hypergraph.from_edge_sets(4, [[0, 1, 2]])
        nbhd = h.closed_neighborhoods()
        assert nbhd[0] == 0b0111 and nbhd[3] == 0b1000

    def test_incidence_built_once(self):
        h = Hypergraph.from_edge_sets(4, [[0, 1, 2], [2, 3], [0, 1, 2]])
        incidence = h.incidence()
        assert incidence == (0b101, 0b101, 0b111, 0b010)
        assert h.incidence() is incidence
        # the cached table is no part of the value: equality, hash and pickling
        fresh = pickle.loads(pickle.dumps(h))
        assert fresh == h and hash(fresh) == hash(h)
        assert fresh.incidence() == incidence

    def test_vertex_lists_built_once(self):
        h = Hypergraph.from_edge_sets(5, [[3, 0, 2], [4], [0, 2, 3]])
        lists = h.vertex_lists()
        assert lists == ((0, 2, 3), (4,), (0, 2, 3))
        assert h.vertex_lists() is lists
        fresh = pickle.loads(pickle.dumps(h))
        assert fresh == h and fresh.vertex_lists() == lists


class TestTextFormat:
    def test_round_trip(self):
        h = Hypergraph.from_edge_sets(6, [[0, 1, 2], [2, 4], [5, 0], [3]])
        assert parse_hypergraph(to_hypergraph_text(h)) == h

    def test_parse(self):
        h = parse_hypergraph("m 4\n0 1 2\n2 3\n")
        assert h.m == 4 and h.edge_count == 2

    def test_missing_header(self):
        with pytest.raises(ParseError, match="header"):
            parse_hypergraph("0 1 2\n")

    def test_bad_vertex(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_hypergraph("m 3\n0 7\n")

    def test_non_integer(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_hypergraph("m 3\n0 x\n")

    def test_repeated_vertex_in_edge(self):
        with pytest.raises(ParseError, match="line 3: vertex 1 repeated"):
            parse_hypergraph("m 3\n0 1\n1 2 1\n")


class TestFano:
    def test_shape(self):
        fano = builtin_hypergraph("fano")
        assert fano.m == 7 and fano.edge_count == 7
        assert fano.is_uniform(3)

    def test_every_pair_of_lines_meets_once(self):
        fano = builtin_hypergraph("fano")
        for i, j in combinations(range(7), 2):
            assert (fano.edge_masks[i] & fano.edge_masks[j]).bit_count() == 1

    def test_every_point_on_three_lines(self):
        fano = builtin_hypergraph("fano")
        assert all(fano.degree(v) == 3 for v in range(7))

    def test_unknown_builtin(self):
        with pytest.raises(DomainError):
            builtin_hypergraph("petersen")


def test_is_connected_matches_cooccurrence_graph():
    """Hypergraph.is_connected against networkx on the co-occurrence graph,
    on seeded random hypergraphs, many of them with isolated vertices."""
    rng = random.Random(11)
    isolated = connected = 0
    for _ in range(300):
        m = rng.randint(1, 20)
        edges = [rng.sample(range(m), rng.randint(1, min(m, 4)))
                 for _ in range(rng.randint(0, m))]
        h = Hypergraph.from_edge_sets(m, edges)
        cooccurrence = nx.Graph()
        cooccurrence.add_nodes_from(range(m))
        for edge in edges:
            cooccurrence.add_edges_from(combinations(edge, 2))
        assert h.is_connected() == nx.is_connected(cooccurrence)
        isolated += any(h.degree(v) == 0 for v in range(m))
        connected += h.is_connected()
    assert isolated >= 50 and connected >= 20
