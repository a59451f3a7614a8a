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

    def test_derived_tables_match_the_edge_sets(self):
        # the incidence table is the one table kept; vertex lists, edge
        # vertices and neighbourhoods are read off the masks on each call
        rng = random.Random(3434)
        cases = [(0, []), (3, []),  # m = 0, and no edges
                 # repeated edges, a singleton, and vertex 1 isolated
                 (5, [[3, 0, 2], [4], [0, 2, 3]])]
        for _ in range(100):
            m = rng.randint(1, 12)
            edges = [rng.sample(range(m), rng.randint(1, min(m, 4)))
                     for _ in range(rng.randint(0, 8))]
            if edges and rng.random() < 0.3:
                edges.append(list(rng.choice(edges)))
            cases.append((m, edges))
        for m, edges in cases:
            h = Hypergraph.from_edge_sets(m, edges)
            sets = h.edge_sets()
            assert sets == [sorted(e) for e in edges]
            assert h.vertex_lists() == tuple(tuple(s) for s in sets)
            assert [h.edge_vertices(i) for i in range(h.edge_count)] == sets
            assert h.incidence() == tuple(sum(1 << i for i, s in enumerate(sets) if v in s)
                                          for v in range(m))
            assert h.closed_neighborhoods() == [
                1 << v | sum(1 << u for u in range(m) if any(v in s and u in s for s in sets))
                for v in range(m)]


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


def _reach_over_closed_neighborhoods(h):
    """Whether vertex 0 reaches every vertex through closed neighbourhoods."""
    nbhd = h.closed_neighborhoods()
    reached, frontier = 1, [0]
    while frontier:
        v = frontier.pop()
        for u in range(h.m):
            if nbhd[v] >> u & 1 and not reached >> u & 1:
                reached |= 1 << u
                frontier.append(u)
    return reached == (1 << h.m) - 1


@pytest.mark.parametrize("h", [
    Hypergraph(0, []), Hypergraph(1, []), Hypergraph(2, []), Hypergraph(3, []),
    Hypergraph.from_edge_sets(1, [[0], [0]]),
    Hypergraph.from_edge_sets(2, [[0], [1]]),
    Hypergraph.from_edge_sets(2, [[0, 1]]),
    Hypergraph.from_edge_sets(4, [[0, 1], [0, 1], [3]]),
    Hypergraph.from_edge_sets(5, [[4, 3], [3, 2], [2, 1], [1, 0]]),
], ids=["m0", "m1", "m2_edgeless", "m3_edgeless", "m1_loops", "two_singletons", "one_edge",
        "isolated_vertex", "path_listed_backwards"])
def test_is_connected_small_cases(h):
    assert h.is_connected() == (h.m <= 1 or _reach_over_closed_neighborhoods(h))


def test_is_connected_matches_the_closed_neighborhood_reach():
    """The walk over the incidence table agrees with the reach over
    closed_neighborhoods(), on seeded hypergraphs with isolated vertices,
    repeated and singleton edges, and no edges at all."""
    rng = random.Random(12)
    seen = set()
    for _ in range(400):
        m = rng.randint(0, 16)
        edges = [rng.sample(range(m), rng.randint(1, min(m, 5)))
                 for _ in range(rng.randint(0, m + 2))] if m else []
        h = Hypergraph.from_edge_sets(m, edges)
        expected = m <= 1 or _reach_over_closed_neighborhoods(h)
        assert h.is_connected() == expected
        seen.add((expected, not edges, any(h.degree(v) == 0 for v in range(m))))
    assert {(True, False, False), (False, False, True), (False, True, True)} <= seen
