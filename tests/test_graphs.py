import random
import re

import networkx as nx
import pytest

from dilations.errors import CapacityError, DomainError, ParseError
from dilations.graphs import (FamilySpec, Graph, complete, complete_bipartite,
                              complete_minus_clique, corona, cp_vee_cq, cycle,
                              g_nr, generate, ghat_nr, parse_edge_list,
                              parse_family, parse_graph, parse_graph6, path,
                              star, structure_profile, t1, t2, to_edge_list,
                              to_graph6, vertex_amalgam)
from dilations.invariants import domination_number, matching_number
from dilations.isomorphism import is_isomorphic


def random_graph(rng, n, p=0.4):
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return Graph.from_edges(n, edges)


class TestGraphCore:
    def test_basic_counts(self):
        g = cycle(5)
        assert g.n == 5 and g.edge_count == 5
        assert g.degrees() == (2, 2, 2, 2, 2)
        assert g.has_edge(0, 1) and not g.has_edge(0, 2)

    def test_symmetry_enforced(self):
        with pytest.raises(ValueError):
            Graph(2, [0b10, 0b00])

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            Graph.from_edges(2, [(0, 0)])

    def test_capacity(self):
        with pytest.raises(CapacityError):
            Graph.from_edges(65, [])

    def test_immutable(self):
        g = cycle(3)
        with pytest.raises(AttributeError):
            g.n = 7

    def test_components(self):
        g = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        assert g.components() == [[0, 1, 2], [3, 4, 5]]
        assert not g.is_connected()
        assert cycle(6).is_connected()

    def test_induced_subgraph(self):
        g = cycle(5)
        sub = g.induced_subgraph([0, 1, 2])
        assert sub.edges() == [(0, 1), (1, 2)]


class TestGraph6:
    def test_round_trip_random(self):
        rng = random.Random(42)
        for _ in range(50):
            g = random_graph(rng, rng.randint(1, 20))
            assert parse_graph6(to_graph6(g)) == g

    def test_cross_check_networkx(self):
        # independent decoder check on random graphs
        rng = random.Random(7)
        for _ in range(20):
            g = random_graph(rng, rng.randint(2, 12))
            nxg = nx.from_graph6_bytes(to_graph6(g).encode())
            assert {frozenset(e) for e in nxg.edges()} == {frozenset(e) for e in g.edges()}
            back = nx.to_graph6_bytes(nxg, header=False).decode().strip()
            assert parse_graph6(back) == g

    def test_header_accepted(self):
        g = cycle(4)
        assert parse_graph6(">>graph6<<" + to_graph6(g)) == g

    def test_n63_and_64(self):
        for n in (63, 64):
            g = Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])
            assert parse_graph6(to_graph6(g)) == g

    def test_malformed(self):
        with pytest.raises(ParseError):
            parse_graph6("")
        with pytest.raises(ParseError):
            parse_graph6("D")  # truncated body for n=5

    def test_capacity(self):
        big = Graph.from_edges(64, [])  # legal; now fake a 65-vertex header
        s = to_graph6(big)
        with pytest.raises(CapacityError):
            parse_graph6("~" + chr(63 + 0) + chr(63 + 1) + chr(63 + 1) + s[4:])


class TestEdgeList:
    def test_triangle(self):
        g = parse_edge_list("0 1\n1 2\n2 0\n")
        assert g.n == 3 and g.edge_count == 3

    def test_self_loop(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_edge_list("0 0\n")

    def test_duplicate_edge(self):
        with pytest.raises(ParseError, match="line 3"):
            parse_edge_list("0 1\n1 2\n1 0\n")

    def test_malformed_line_number(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_edge_list("0 1\na b c\n")

    def test_first_appearance_relabeling(self):
        g = parse_edge_list("x y\ny z\n")
        assert g.labels == ("x", "y", "z")
        assert g.edges() == [(0, 1), (1, 2)]

    def test_header_allows_isolated_vertices(self):
        g = parse_edge_list("n 4\n0 1\n")
        assert g.n == 4 and g.edge_count == 1

    def test_header_out_of_range(self):
        with pytest.raises(ParseError):
            parse_edge_list("n 3\n0 3\n")

    # (text, (n, edges, labels)) or (text, ParseError message)
    @pytest.mark.parametrize("text, expected", [
        ("# c\n\nn 3\n0 1\n", (3, [(0, 1)], None)),
        ("n 3\n\n# c\n1 2\n", (3, [(1, 2)], None)),
        ("n 0\n", (0, [], None)),
        ("n\n", "line 1: malformed vertex-count header"),
        ("# c\nn 3 4\n", "line 2: malformed vertex-count header"),
        ("\nn -1\n0 1\n", "line 2: negative vertex count"),
        ("n x\n", "line 1: vertex count is not an integer"),
        ("n 3\n0 a\n", "line 2: non-integer endpoint with declared vertex count"),
        ("n 3\n# c\n0 1 2\n", "line 3: expected two endpoints, got 3"),
        ("n 3\n0 1\nn 2\n", "line 3: non-integer endpoint with declared vertex count"),
        ("0 1\nn 2\n", (4, [(0, 1), (2, 3)], ("0", "1", "n", "2"))),
        ("a b\nn x\nx a\n", (4, [(0, 1), (0, 3), (2, 3)], ("a", "b", "n", "x"))),
    ])
    def test_header_and_endpoint_table(self, text, expected):
        if isinstance(expected, str):
            with pytest.raises(ParseError, match=f"^{re.escape(expected)}$"):
                parse_edge_list(text)
        else:
            g = parse_edge_list(text)
            assert (g.n, g.edges(), g.labels) == expected

    def test_capacity(self):
        with pytest.raises(CapacityError):
            parse_edge_list("n 65\n")
        too_many = "\n".join(f"v{i} v{i + 1}" for i in range(70))
        with pytest.raises(CapacityError):
            parse_edge_list(too_many)

    def test_round_trip(self):
        rng = random.Random(3)
        for _ in range(50):
            g = random_graph(rng, rng.randint(1, 15))
            assert parse_edge_list(to_edge_list(g)) == g

    def test_dispatch(self):
        g = cycle(4)
        assert parse_graph("graph6", to_graph6(g)) == g
        assert parse_graph("edge_list", to_edge_list(g)) == g
        with pytest.raises(ParseError):
            parse_graph("dot", "")


class TestGenerators:
    def test_cycle(self):
        g = cycle(5)
        assert g.n == 5 and g.edge_count == 5
        assert set(g.degrees()) == {2}
        with pytest.raises(DomainError):
            cycle(2)

    def test_path_star_complete(self):
        assert path(5).edge_count == 4
        assert star(4).degrees() == (4, 1, 1, 1, 1)
        assert complete(6).edge_count == 15
        assert complete_bipartite(2, 3).edge_count == 6

    def test_complete_minus_clique(self):
        g = complete_minus_clique(3, 2)
        assert g.n == 6 and g.edge_count == 14
        with pytest.raises(DomainError):
            complete_minus_clique(3, 3)
        with pytest.raises(DomainError):
            complete_minus_clique(3, 1)

    def test_corona(self):
        g = corona(cycle(3))
        assert g.n == 6 and g.edge_count == 6
        assert sorted(g.degrees()).count(1) == 3

    def test_t1_t2(self):
        assert t1().n == 4 and t1().edge_count == 4
        prof = structure_profile(t2())
        assert t2().n == 5 and t2().edge_count == 5
        assert len(prof.leaves) == 2
        # the two pendants hang off distinct triangle vertices
        assert prof.degrees[2] == 2

    def test_g_nr(self):
        g = g_nr(3, 1)
        assert g.n == 7
        prof = structure_profile(g)
        assert len(prof.leaves) == 2
        assert prof.min_degree == 1
        assert prof.bipartition is None  # contains a triangle
        with pytest.raises(DomainError):
            g_nr(2, 1)
        with pytest.raises(DomainError):
            g_nr(4, 2)

    def test_leaf_counts_sweep(self):
        for n in range(3, 7):
            for r in range(1, (n - 1) // 2 + 1):
                assert len(structure_profile(g_nr(n, r)).leaves) == 2 * r
                assert len(structure_profile(ghat_nr(n, r)).leaves) == 2 * r - 1

    def test_shared_vertex_degree(self):
        # vertex 0 has degree 2 within every amalgamated block
        for n, r in [(3, 1), (5, 2), (6, 1)]:
            g = g_nr(n, r)
            blocks = (n - 2 * r) + r
            assert g.degree(0) == 2 * blocks

    def test_family_spec_parsing(self):
        spec = parse_family("g_nr:3,1")
        assert spec.name == "g_nr" and spec.args == (3, 1)
        assert generate(spec) == g_nr(3, 1)
        nested = parse_family("corona:cycle:3")
        assert generate(nested) == corona(cycle(3))
        assert str(nested) == "corona:cycle:3"
        assert generate(parse_family("t2")) == t2()
        for text in ("cycle:3,4", "hedgehog:3", "cycle:x",
                     # an empty entry is an error, not a skipped one
                     "cycle:5,", "cycle:,5", "complete_bipartite:2,,3", "t1:"):
            with pytest.raises(ParseError):
                parse_family(text)

    def test_nested_coronas_capped_at_parse_time(self):
        # each corona doubles n, so six of them take one vertex to 64
        assert generate(parse_family("corona:" * 6 + "path:1")).n == 64
        for depth in (7, 1200):
            with pytest.raises(CapacityError, match="more than 6 nested coronas"):
                parse_family("corona:" * depth + "path:1")

    def test_family_spec_str_round_trip(self):
        for text in ["cycle:7", "g_nr:5,2", "corona:path:3", "t1",
                     "complete_bipartite:2,3"]:
            assert str(parse_family(text)) == text


class TestAmalgam:
    def test_counts(self):
        g = vertex_amalgam(cycle(4), 0, cycle(3), 1)
        assert g.n == 6 and g.edge_count == 7

    def test_k2_k2_is_path(self):
        g = vertex_amalgam(complete(2), 0, complete(2), 0)
        assert is_isomorphic(g, path(3))

    def test_bowtie_invariants(self):
        bowtie = vertex_amalgam(cycle(3), 0, cycle(3), 0)
        assert matching_number(bowtie).value == 2
        assert domination_number(bowtie).value == 1

    def test_out_of_range(self):
        with pytest.raises(DomainError):
            vertex_amalgam(cycle(3), 5, cycle(3), 0)

    @pytest.mark.parametrize("p", range(3, 7))
    @pytest.mark.parametrize("q", range(3, 7))
    def test_cp_vee_cq_matches_amalgam(self, p, q):
        assert is_isomorphic(cp_vee_cq(p, q), vertex_amalgam(cycle(p), 2, cycle(q), 1))


class TestStructureProfile:
    def test_path5(self):
        prof = structure_profile(path(5))
        assert prof.leaves == (0, 4)
        assert prof.stems == (1, 3)
        assert prof.bipartition is not None
        assert prof.is_connected

    def test_odd_cycle_not_bipartite(self):
        prof = structure_profile(cycle(7))
        assert prof.min_degree == 2
        assert prof.bipartition is None

    def test_bipartition_normalized(self):
        prof = structure_profile(complete_bipartite(3, 2))
        v1, v2 = prof.bipartition
        assert len(v1) <= len(v2)
        assert set(v1) == {3, 4}

    def test_degree_sequence_sorted(self):
        prof = structure_profile(star(3))
        assert prof.degree_sequence == (3, 1, 1, 1)
        assert prof.max_degree == 3 and prof.min_degree == 1


def _labelled_graphs():
    """Every labelled graph on 1 to 5 vertices."""
    for n in range(1, 6):
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        for bits in range(1 << len(pairs)):
            yield Graph.from_edges(n, [e for k, e in enumerate(pairs) if bits >> k & 1])


def _random_graphs():
    """Seeded random graphs on up to 20 vertices; the sparse ones are mostly
    disconnected and many have isolated vertices."""
    rng = random.Random(20)
    for _ in range(300):
        yield random_graph(rng, rng.randint(1, 20), rng.choice([0.05, 0.1, 0.2, 0.4]))


class TestWalksAgainstNetworkx:
    """The shared reachability walk and relabelling loop, through every public
    method that uses them, on all labelled graphs up to 5 vertices and on
    seeded random graphs up to 20."""

    @staticmethod
    def _nx(g):
        nxg = nx.Graph()
        nxg.add_nodes_from(range(g.n))
        nxg.add_edges_from(g.edges())
        return nxg

    @pytest.mark.parametrize("graphs", [_labelled_graphs, _random_graphs])
    def test_walks(self, graphs):
        rng = random.Random(5)
        kinds = set()
        for g in graphs():
            nxg = self._nx(g)
            comps = sorted(sorted(c) for c in nx.connected_components(nxg))
            assert g.components() == comps
            assert g.is_connected() == nx.is_connected(nxg)
            kinds.add((len(comps) > 1, 0 in g.degrees()))

            perm = list(range(g.n))
            rng.shuffle(perm)
            relabelled = nx.relabel_nodes(nxg, dict(enumerate(perm)))
            assert g.relabel(perm).edges() == sorted(
                (min(e), max(e)) for e in relabelled.edges())

            bipartition = structure_profile(g).bipartition
            assert (bipartition is not None) == nx.is_bipartite(nxg)
            if bipartition is not None:
                v1, v2 = bipartition
                assert sorted(v1 + v2) == list(range(g.n))
                assert all((u in v1) != (v in v1) for u, v in g.edges())
                if g.is_connected():
                    assert len(v1) <= len(v2)
        # connected, disconnected, and disconnected with an isolated vertex
        assert {(False, False), (True, False), (True, True)} <= kinds
