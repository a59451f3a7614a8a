import random
import warnings

import pytest

from dilations.dilation import (BlockWitness, DilationClass, DilationSpec,
                                check_dilation_properties, classify_dilation,
                                dilate, generalized_power, random_dilation)
from dilations.errors import (ConstraintError, DomainError, FeasibilityError,
                              WitnessError)
from dilations.graphs import Graph, complete, cycle
from dilations.hypergraphs import Hypergraph


def sample_graphs():
    rng = random.Random(5)
    out = [cycle(3), cycle(5), complete(2), complete(4),
           Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])]
    for n in range(3, 7):
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5]
        if edges:
            out.append(Graph.from_edges(n, edges))
    return out


class TestDilate:
    def test_triangle_with_additionals(self):
        h, w = dilate(cycle(3), DilationSpec(3, (1, 1, 1), (1, 1, 1)))
        assert h.m == 6 and h.edge_count == 3
        assert h.is_uniform(3)
        assert all(len(b) == 1 for b in w.edge_blocks)
        assert classify_dilation(h, w) is DilationClass.GAMMA1

    def test_c5_uniform_gamma0(self):
        h, w = dilate(cycle(5), DilationSpec(6, (3,) * 5, (0,) * 5))
        assert h.m == 15
        assert classify_dilation(h, w) is DilationClass.GAMMA0
        assert h.is_uniform(6)

    def test_block_size_violation_names_edge(self):
        with pytest.raises(ConstraintError, match=r"\(0, 1\)"):
            dilate(complete(2), DilationSpec(3, (1, 1), (5,)))

    def test_copy_blocks_too_large(self):
        with pytest.raises(ConstraintError):
            DilationSpec(3, (2, 2), (0,)).validate(complete(2))

    def test_counts_formula(self):
        rng = random.Random(9)
        for g in sample_graphs():
            k = rng.randint(3, 6)
            s = tuple(rng.randint(1, max(1, (k - 1) // 2)) for _ in range(g.n))
            edges = g.edges()
            a = tuple(rng.randint(0, k - s[u] - s[v]) for u, v in edges)
            h, w = dilate(g, DilationSpec(k, s, a))
            assert h.m == sum(s) + sum(a)
            assert h.edge_count == g.edge_count
            w.validate(g, h)

    def test_no_edges_rejected(self):
        with pytest.raises(DomainError):
            dilate(Graph.from_edges(3, []), DilationSpec(3, (1, 1, 1), ()))

    def test_rank_deficit_is_data_not_a_warning(self):
        # dilations need not be uniform: blocks below the cap are an
        # ordinary result, which the rank and the witness report
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            h, w = dilate(complete(2), DilationSpec(5, (1, 1), (0,)))
        assert h.rank == 2 < w.declared_rank == 5

    def test_isolated_vertices_permitted(self):
        g = Graph.from_edges(3, [(0, 1)])  # vertex 2 isolated
        h, w = dilate(g, DilationSpec(4, (1, 1, 2), (2,)))
        assert h.m == 6
        w.validate(g, h)


class TestGeneralizedPower:
    def test_c5_4_1(self):
        h, w = generalized_power(cycle(5), 4, 1)
        assert h.m == 15 and h.is_uniform(4)
        assert classify_dilation(h, w) is DilationClass.GAMMA1

    def test_c5_4_2(self):
        h, w = generalized_power(cycle(5), 4, 2)
        assert h.m == 10 and h.is_uniform(4)
        assert classify_dilation(h, w) is DilationClass.GAMMA0

    def test_cube_power_no_copies(self):
        # s=1: the plain kth-power hypergraph, no copy vertices
        h, w = generalized_power(complete(3), 3, 1)
        assert h.m == 6
        assert all(len(b) == 1 for b in w.copy_blocks)

    def test_s_out_of_range(self):
        with pytest.raises(DomainError):
            generalized_power(cycle(5), 4, 3)

    @pytest.mark.parametrize("k", range(3, 9))
    def test_uniformity_sweep(self, k):
        for g in sample_graphs()[:5]:
            for s in range(1, k // 2 + 1):
                h, _ = generalized_power(g, k, s)
                assert h.is_uniform(k)
                assert h.m == g.n * s + g.edge_count * (k - 2 * s)


class TestClassification:
    def test_mixed(self):
        h, w = dilate(cycle(3), DilationSpec(4, (1, 1, 1), (1, 0, 0)))
        assert classify_dilation(h, w) is DilationClass.MIXED

    def test_invalid_witness_rejected(self):
        h, w = dilate(cycle(3), DilationSpec(3, (1, 1, 1), (1, 1, 1)))
        overlapping = BlockWitness(w.support_map, w.copy_blocks,
                                   (w.edge_blocks[0],) * 3, w.edge_map,
                                   w.declared_rank)
        with pytest.raises(WitnessError):
            classify_dilation(h, overlapping)


class TestDilationProperties:
    def test_holds_on_samples(self):
        rng = random.Random(13)
        for g in sample_graphs():
            for cls in ("any", "gamma0", "gamma1"):
                h, w = random_dilation(g, 5, seed=rng.randint(0, 99), cls=cls)
                assert check_dilation_properties(g, h, w).all_ok

    def test_disconnected_both_sides(self):
        g = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        h, w = generalized_power(g, 4, 1)
        report = check_dilation_properties(g, h, w)
        assert report.all_ok
        assert not g.is_connected() and not h.is_connected()

    def test_tampered_witness_rejected(self):
        h, w = dilate(cycle(3), DilationSpec(3, (1, 1, 1), (1, 1, 1)))
        # merge an additional vertex into two blocks
        bad = BlockWitness(w.support_map, w.copy_blocks,
                           (w.edge_blocks[0], w.edge_blocks[0], w.edge_blocks[2]),
                           w.edge_map, w.declared_rank)
        with pytest.raises(WitnessError):
            bad.validate(cycle(3), h)

    def test_one_vertex_with_two_copies_is_disconnected(self):
        # a valid witness implies every fact but connectivity
        w = BlockWitness((0,), ((0, 1),), (), (), 3)
        report = check_dilation_properties(Graph.from_edges(1, []), Hypergraph(2, []), w)
        assert (report.two_supports_per_edge, report.adjacency_preserved,
                report.disjointness_preserved, report.connectivity_preserved) == \
            (True, True, True, False)


class TestPropertyFormulas:
    """Non-dilations with validate switched off, so that each fact's formula
    must catch the fault by itself."""

    @pytest.fixture(autouse=True)
    def unvalidated(self, monkeypatch):
        monkeypatch.setattr(BlockWitness, "validate", lambda self, g, h: None)

    @staticmethod
    def report(n, graph_edges, m, hyperedges):
        # support of graph vertex v is hypergraph vertex v; edge i maps to hyperedge i
        w = BlockWitness(tuple(range(n)), tuple((v,) for v in range(n)),
                         ((),) * len(graph_edges), tuple(range(len(graph_edges))), 3)
        r = check_dilation_properties(Graph.from_edges(n, graph_edges),
                                      Hypergraph.from_edge_sets(m, hyperedges), w)
        return (r.two_supports_per_edge, r.adjacency_preserved,
                r.disjointness_preserved, r.connectivity_preserved)

    def test_three_supports_in_one_hyperedge(self):
        assert self.report(3, [(0, 1), (0, 2), (1, 2)],
                           3, [(0, 1, 2), (0, 2), (1, 2)]) == (False, True, True, True)

    def test_supports_of_a_non_edge_meet(self):
        assert self.report(3, [(0, 1), (1, 2)], 3, [(0, 1), (0, 2)]) == (True, False, True, True)

    def test_disjoint_graph_edges_meet_in_h(self):
        assert self.report(4, [(0, 1), (1, 2), (2, 3)],
                           5, [(0, 1, 4), (1, 2), (2, 3, 4)]) == (True, True, False, True)

    def test_graph_edges_on_vertex_one_disjoint_in_h(self):
        # the slip `not a & b == (not c & d)` reads `not (a & b == True)`
        # here; a & b is the shared vertex's bit, 2 != True, so it would miss
        # this fault, which a shared vertex 0 (bit 1 == True) would not hide
        assert not self.report(3, [(0, 1), (1, 2)], 4, [(0, 1), (2, 3)])[2]


def corrupt(rng, g, h, w):
    """One seeded corruption of a dilation: a block vertex moved, dropped or
    added, the copy or edge blocks shuffled, a support changed, two edge_map
    entries swapped, or one hyperedge bit flipped."""
    copy = [list(b) for b in w.copy_blocks]
    extra = [list(b) for b in w.edge_blocks]
    blocks = copy + extra
    support, edge_map, hyperedges = list(w.support_map), list(w.edge_map), list(h.edge_masks)
    kind = rng.randrange(7)
    if kind in (0, 1):
        src = rng.choice([b for b in blocks if b])
        x = src.pop(rng.randrange(len(src)))
        if kind == 0:
            rng.choice(blocks).append(x)
    elif kind == 2:
        rng.choice(blocks).append(rng.randrange(h.m + 1))
    elif kind == 3:
        rng.shuffle(rng.choice((copy, extra)))
    elif kind == 4:
        support[rng.randrange(g.n)] = rng.randrange(h.m)
    elif kind == 5:
        i, j = rng.randrange(len(edge_map)), rng.randrange(len(edge_map))
        edge_map[i], edge_map[j] = edge_map[j], edge_map[i]
    else:
        i, bit = rng.randrange(len(hyperedges)), 1 << rng.randrange(h.m)
        if hyperedges[i] != bit:  # hyperedges stay non-empty
            hyperedges[i] ^= bit
    bad = BlockWitness(tuple(support), tuple(map(tuple, copy)), tuple(map(tuple, extra)),
                       tuple(edge_map), w.declared_rank)
    return Hypergraph(h.m, hyperedges), bad


class TestDegreePreservation:
    def test_valid_witness_implies_degrees(self):
        # validate checks no degree: its shape and union checks imply them,
        # so every corrupted witness it still accepts has the right degrees
        rng = random.Random(47)
        graphs = sample_graphs()
        accepted = 0
        for _ in range(3000):
            g = rng.choice(graphs)
            h, w = random_dilation(g, rng.randint(3, 6), seed=rng.randrange(10**6))
            bad_h, bad = corrupt(rng, g, h, w)
            try:
                bad.validate(g, bad_h)
            except WitnessError:
                continue
            accepted += 1
            for v in range(g.n):
                for x in bad.copy_blocks[v]:
                    assert bad_h.degree(x) == g.degree(v)
            for block in bad.edge_blocks:
                for x in block:
                    assert bad_h.degree(x) == 1
        assert 100 < accepted < 1500

    def test_copy_and_additional_degrees(self):
        rng = random.Random(31)
        for g in sample_graphs():
            h, w = random_dilation(g, 6, seed=rng.randint(0, 99))
            for v in range(g.n):
                for x in w.copy_blocks[v]:
                    assert h.degree(x) == g.degree(v)
            for block in w.edge_blocks:
                for x in block:
                    assert h.degree(x) == 1


class TestRandomDilation:
    def test_deterministic(self):
        a = random_dilation(cycle(5), 5, seed=1, cls="gamma1")
        b = random_dilation(cycle(5), 5, seed=1, cls="gamma1")
        assert a == b

    def test_seed_changes_output(self):
        outs = {random_dilation(cycle(5), 5, seed=s)[0] for s in range(8)}
        assert len(outs) > 1

    def test_requested_classes(self):
        for seed in range(5):
            h, w = random_dilation(cycle(5), 5, seed=seed, cls="gamma1")
            assert classify_dilation(h, w) is DilationClass.GAMMA1
            h, w = random_dilation(cycle(5), 4, seed=seed, cls="gamma0")
            assert classify_dilation(h, w) is DilationClass.GAMMA0

    def test_infeasible(self):
        with pytest.raises(FeasibilityError):
            random_dilation(cycle(3), 2, seed=0)
        with pytest.raises(FeasibilityError):
            random_dilation(Graph.from_edges(2, []), 4, seed=0)

    def test_unknown_class(self):
        with pytest.raises(DomainError):
            random_dilation(cycle(3), 4, seed=0, cls="gamma2")
