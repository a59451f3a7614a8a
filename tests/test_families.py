import pytest

from dilations import families
from dilations.dilation import DilationClass, generalized_power, random_dilation
from dilations.errors import CapacityError, DomainError
from dilations.families import (derive_g2nb_candidates, extremal_class_gamma1,
                                in_family_g1, in_family_g2b, in_family_g2nb,
                                is_generalized_corona, load_g2nb_candidates,
                                predict_gamma, union_family_member)
from dilations.graphs import (Graph, complete, complete_bipartite, corona,
                              cp_vee_cq, cycle, path, t1, vertex_amalgam)
from dilations.invariants import domination_number, matching_number
from dilations.isomorphism import canonical_form, enumerate_connected, is_isomorphic


@pytest.fixture(scope="module")
def nb_list():
    return load_g2nb_candidates()


class TestG2B:
    def test_c4_member(self):
        v = in_family_g2b(cycle(4))
        assert v.member
        assert v.evidence["predicted_gamma"] == 2
        assert domination_number(cycle(4)).value == matching_number(cycle(4)).value == 2

    def test_k23_member(self):
        assert in_family_g2b(complete_bipartite(2, 3)).member

    def test_c6_not_member(self):
        v = in_family_g2b(cycle(6))
        assert not v.member
        assert "violating_pair" in v.evidence
        assert domination_number(cycle(6)).value != matching_number(cycle(6)).value

    def test_not_applicable_cases(self):
        assert not in_family_g2b(cycle(5)).member          # not bipartite
        assert not in_family_g2b(path(4)).member           # min degree 1
        two = Graph.from_edges(8, [(0, 1), (1, 2), (2, 3), (0, 3),
                                   (4, 5), (5, 6), (6, 7), (4, 7)])
        assert not in_family_g2b(two).member               # disconnected

    def test_equivalence_scan(self):
        # predicate tracks gamma = nu on every applicable graph up to 7 vertices
        for n in range(3, 8):
            for g in enumerate_connected(n, min_degree=2, bipartite=True):
                member = in_family_g2b(g).member
                eq = domination_number(g).value == matching_number(g).value
                assert member == eq, g.edges()

    def test_member_gamma_is_smaller_side(self):
        for n in range(3, 8):
            for g in enumerate_connected(n, min_degree=2, bipartite=True):
                v = in_family_g2b(g)
                if v.member:
                    assert domination_number(g).value == v.evidence["predicted_gamma"]


class TestG2NBDerivation:
    def test_contains_small_odd_cycles(self):
        got = {canonical_form(g) for g in derive_g2nb_candidates(5)}
        assert canonical_form(cycle(3)) in got
        assert canonical_form(cycle(5)) in got

    def test_cap_at_nine_graphs(self):
        candidates = derive_g2nb_candidates(7)
        assert canonical_form(cycle(7)) in {canonical_form(g) for g in candidates}
        assert len(candidates) <= 9

    def test_gamma_nu_half_order(self):
        for g in derive_g2nb_candidates(7):
            assert (domination_number(g).value == matching_number(g).value
                    == g.n // 2)

    def test_capacity(self):
        with pytest.raises(CapacityError):
            derive_g2nb_candidates(10)

    @pytest.mark.parametrize("max_n", [2, 0, -2])
    def test_scale_below_three(self, max_n):
        with pytest.raises(DomainError):
            derive_g2nb_candidates(max_n)

    def test_shipped_asset_matches_derivation(self, nb_list):
        derived = derive_g2nb_candidates(8)
        assert [canonical_form(g) for g in nb_list] == \
            [canonical_form(g) for g in derived]

    def test_asset_read_once_and_first_match(self, nb_list, monkeypatch):
        families._candidate_table.cache_clear()
        calls = []
        load = families.load_g2nb_candidates

        def counted():
            calls.append(1)
            return load()
        monkeypatch.setattr(families, "load_g2nb_candidates", counted)
        for n in range(1, 7):
            for g in enumerate_connected(n):
                union_family_member(g)
                in_family_g1(g)
                in_family_g2nb(g)
        assert len(calls) <= 1
        for n in range(3, 9):
            for g in enumerate_connected(n, min_degree=2, bipartite=False):
                index = next((i for i, cand in enumerate(nb_list)
                              if is_isomorphic(g, cand)), None)
                expected = ({"reason": "not isomorphic to any candidate"} if index is None
                            else {"candidate_index": index})
                assert in_family_g2nb(g).evidence == expected, g.edges()

    def test_larger_graph_not_canonized(self, monkeypatch):
        # the friendship graph F7, seven triangles on one vertex: its 645,120
        # automorphisms are leaves of the canonical search, but no candidate
        # has 15 vertices, so the lookup never canonizes it
        f7 = Graph.from_edges(15, [e for t in range(1, 15, 2)
                                   for e in ((0, t), (0, t + 1), (t, t + 1))])
        families._candidate_table()
        calls = []
        canon = families.canonical_form
        monkeypatch.setattr(families, "canonical_form",
                            lambda g: calls.append(g) or canon(g))
        expected = {"reason": "not isomorphic to any candidate"}
        assert in_family_g2nb(f7).evidence == expected
        verdict = union_family_member(f7)
        assert (verdict.family, verdict.member, verdict.evidence) == ("G2NB", False, expected)
        assert calls == []

    def test_min_degree_two_exceptions(self, nb_list):
        # McCuaig and Shepherd (J. Graph Theory 13, 1989): a connected graph
        # with minimum degree at least 2 has gamma <= 2n/5 apart from seven
        # exceptions; up to n = 8 they are C4, one bipartite 7-vertex graph
        # and the five 7-vertex members of G2NB
        above = {canonical_form(g) for n in range(3, 9)
                 for g in enumerate_connected(n, min_degree=2)
                 if 5 * domination_number(g, lex_witness=False).value > 2 * n}
        members = {"F@Ue?", "F@pTG", "FHQ[o", "FKCmW", "FK_yw"}
        assert above == {"C]", "F?NF_"} | members
        assert above & {canonical_form(g) for g in nb_list} == members

    def test_membership_predicate(self):
        assert in_family_g2nb(cycle(5)).member
        assert not in_family_g2nb(cycle(4)).member  # bipartite
        assert not in_family_g2nb(complete(4)).member


class TestGeneralizedCorona:
    def test_corona_of_cycle(self):
        assert is_generalized_corona(corona(cycle(3))).member
        assert is_generalized_corona(corona(cycle(4))).member

    def test_k2_too_small(self):
        assert not is_generalized_corona(complete(2)).member

    def test_no_leaves(self):
        v = is_generalized_corona(cycle(4))
        assert not v.member
        assert v.evidence["vertices_neither_leaf_nor_stem"]

    def test_paths(self):
        assert is_generalized_corona(path(3)).member
        assert is_generalized_corona(path(4)).member
        assert not is_generalized_corona(path(5)).member  # middle vertex survives


class TestG1:
    def test_k2_member(self):
        assert in_family_g1(complete(2)).member

    def test_p5_member_condition_i(self):
        v = in_family_g1(path(5))
        assert v.member and v.evidence["case"] == "component_conditions"
        assert domination_number(path(5)).value == matching_number(path(5)).value == 2

    def test_corona_member(self):
        v = in_family_g1(corona(cycle(4)))
        assert v.member and v.evidence["case"] == "generalized_corona"

    def test_t1_not_member(self):
        v = in_family_g1(t1())
        assert not v.member
        assert domination_number(t1()).value == 1
        assert matching_number(t1()).value == 2

    def test_not_applicable_min_degree(self):
        assert not in_family_g1(cycle(5)).member

    def test_condition_iii_path(self):
        # triangle with a 2-path tail: leftover component is C3, decided by
        # candidate isomorphism plus domination stability
        g = Graph.from_edges(5, [(0, 1), (1, 2), (0, 2), (0, 3), (3, 4)])
        v = in_family_g1(g)
        assert v.member
        assert v.evidence["used_condition_iii"]
        assert domination_number(g).value == matching_number(g).value == 2

    def test_condition_iii_gamma_instability(self, monkeypatch):
        # the leftover component matches a candidate, but removing attachment
        # vertices {0, 1} drops its gamma from 2 to 1; each graph is solved once
        g = Graph.from_edges(7, [(0, 1), (0, 2), (0, 4), (1, 3), (1, 4), (2, 6),
                                 (3, 6), (4, 5), (4, 6)])
        solved = []
        solve = families.domination_number

        def counted(h, *args, **kwargs):
            solved.append(h)
            return solve(h, *args, **kwargs)
        monkeypatch.setattr(families, "domination_number", counted)
        v = in_family_g1(g)
        assert not v.member and v.evidence["case"] == "component_failure"
        assert v.evidence["component"]["reasons"]["iii"] == {
            "gamma_unstable_under_removal": [0, 1], "gamma": 2, "gamma_after_removal": 1}
        assert len({id(h) for h in solved}) == len(solved)

    def test_equivalence_scan(self):
        for n in range(2, 9):
            for g in enumerate_connected(n):
                if min(g.degrees()) != 1:
                    continue
                member = in_family_g1(g).member
                eq = domination_number(g).value == matching_number(g).value
                assert member == eq, g.edges()


class TestUnionDispatch:
    def test_dispatch(self):
        assert union_family_member(cycle(4)).family == "G2B"
        assert union_family_member(cycle(5)).family == "G2NB"
        assert union_family_member(path(4)).family == "G1"

    def test_requires_connected(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        with pytest.raises(DomainError):
            union_family_member(g)


class TestPredictGamma:
    def test_examples(self):
        assert predict_gamma(cycle(5), DilationClass.GAMMA1) == 3
        assert predict_gamma(cycle(5), DilationClass.GAMMA0) == 2
        assert predict_gamma(complete(5), "gamma1") == 4

    def test_requires_edge(self):
        with pytest.raises(DomainError):
            predict_gamma(Graph.from_edges(2, []), DilationClass.GAMMA0)

    def test_unknown_class(self):
        with pytest.raises(DomainError):
            predict_gamma(cycle(5), "gamma2")

    def test_agrees_with_solved_dilations(self):
        graphs = [g for n in range(2, 6) for g in enumerate_connected(n)]
        # disconnected, but every copy block lies in a hyperedge
        graphs += [Graph.from_edges(4, [(0, 1), (2, 3)]),  # 2 K2
                   Graph.from_edges(5, [(0, 1), (1, 2), (3, 4)]),  # P3 + K2
                   Graph.from_edges(6, [(0, 1), (0, 2), (1, 2), (3, 4), (4, 5)])]  # K3 + P3
        cases = 0
        for i, g in enumerate(graphs):
            for cls in ("gamma0", "gamma1"):
                for seed in (i, i + 1000):
                    h, _ = random_dilation(g, 5, seed=seed, cls=cls)
                    assert predict_gamma(g, cls) == domination_number(h).value
                    cases += 1
        assert cases >= 100
        # An isolated vertex's copy block lies in no hyperedge, so gamma of a
        # dilation grows with that block: two gamma1 powers of K2 + K1 differ.
        k2_k1 = Graph.from_edges(3, [(0, 1)])
        assert [domination_number(generalized_power(k2_k1, k, s)[0]).value
                for k, s in ((4, 1), (6, 2))] == [2, 3]
        for g in (k2_k1,
                  Graph.from_edges(5, [(0, 1), (1, 2), (2, 3)]),  # P4 + K1
                  Graph.from_edges(5, [(1, 2), (1, 3), (1, 4)])):  # K1 + K1,3
            for cls in ("gamma0", "gamma1"):
                with pytest.raises(DomainError):
                    predict_gamma(g, cls)


class TestExtremalGamma1:
    def test_equal(self):
        v = extremal_class_gamma1(cp_vee_cq(4, 3))
        assert v.kind == "equal" and v.realized_gamma == 3

    def test_double(self):
        v = extremal_class_gamma1(complete(5))
        assert v.kind == "double" and v.realized_gamma == 4

    def test_strict(self):
        v = extremal_class_gamma1(cycle(7))
        assert v.kind == "strict"
        assert v.realized_gamma == 4
        assert v.nu.value < v.realized_gamma < 2 * v.nu.value

    def test_classification_matches_certificates(self):
        for n in range(2, 8):
            for g in enumerate_connected(n):
                v = extremal_class_gamma1(g)
                if v.kind == "equal":
                    assert v.tau.value == v.nu.value
                elif v.kind == "double":
                    assert v.tau.value == 2 * v.nu.value
                else:
                    assert v.nu.value < v.tau.value < 2 * v.nu.value
