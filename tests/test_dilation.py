import random
import warnings

import pytest

from dilations.dilation import (BlockWitness, DilationClass, DilationSpec,
                                check_dilation_properties, classify_dilation,
                                dilate, generalized_power, random_dilation)
from dilations.errors import (ConstraintError, DomainError, FeasibilityError,
                              WitnessError)
from dilations.graphs import Graph, complete, cycle


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


class TestDegreePreservation:
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
