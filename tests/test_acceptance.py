"""Acceptance suite: one test per criterion, printed as a pass/fail line.

Criteria (exact combinatorial identities, zero tolerance):
  1  invariant preservation over all connected graphs on <= 6 vertices,
     with gamma0 / gamma1 / mixed dilation samples per graph
  2  the domination bounds gamma in [nu, 2 nu] on gamma1 and gamma <= nu on
     gamma0, same corpus
  3  extremal gamma1 classification over all connected graphs on <= 7
     vertices (equal iff KEG support; double iff odd complete support)
  4  the two-cycle amalgam family: nu / tau formulas and the parity case
     split for gamma on gamma1 dilations
  5  family predicates match gamma = nu exactly (bipartite min-degree-2 up
     to 8 vertices; min-degree-1 up to 7 vertices)
  6  the non-bipartite candidate derivation: at most nine graphs, each with
     gamma = nu = floor(n/2), including the odd cycles C3, C5, C7
  7  the non-extremal constructions realize every target value
  8  K_{2,n} refutes the bipartite-free characterization
  9  branch-and-bound solvers agree with full enumeration on 300 random
     hypergraphs
  10 Berge machinery: natural witnesses verify; search matches brute force;
     the Fano plane hosts a 7-edge support graph
"""

import random

import pytest

from dilations.berge import (natural_berge_witness, search_berge_witness,
                             verify_berge_witness)
from dilations.dilation import (DilationClass, DilationSpec, classify_dilation,
                                dilate, generalized_power, random_dilation)
from dilations.families import in_family_g1, in_family_g2b, in_family_g2nb, \
    derive_g2nb_candidates
from dilations.graphs import (Graph, complete, complete_bipartite,
                              complete_minus_clique, cp_vee_cq, cycle, g_nr,
                              ghat_nr)
from dilations.harness import (crosscheck_extremal_gamma1, verify_hereditary,
                               verify_nonextremal)
from dilations.hypergraphs import Hypergraph, builtin_hypergraph
from dilations.invariants import (domination_number, is_keg, matching_number,
                                  transversal_number)
from dilations.isomorphism import canonical_form, enumerate_connected
from oracles import brute_berge_exists, brute_gamma, brute_nu, brute_tau


def announce(criterion: str, ok: bool):
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}")
    assert ok


def connected_graphs_up_to(max_n):
    for n in range(2, max_n + 1):
        yield from enumerate_connected(n)


@pytest.fixture(scope="module")
def corpus6():
    """Per graph on <= 6 vertices: sampled dilations covering all classes."""
    instances = []
    for g in connected_graphs_up_to(6):
        hosts = [generalized_power(g, 4, 1), generalized_power(g, 4, 2)]
        if g.edge_count >= 2:
            mixed_a = tuple(1 if i % 2 == 0 else 0 for i in range(g.edge_count))
            hosts.append(dilate(g, DilationSpec(4, (1,) * g.n, mixed_a)))
        hosts.append(random_dilation(g, 5, seed=11, cls="gamma0"))
        hosts.append(random_dilation(g, 5, seed=23, cls="gamma1"))
        solved = []
        for h, w in hosts:
            solved.append((h, w, classify_dilation(h, w),
                           domination_number(h).value,
                           matching_number(h).value,
                           transversal_number(h).value))
        base = (domination_number(g).value, matching_number(g).value,
                transversal_number(g).value)
        instances.append((g, base, solved))
    return instances


def test_criterion_1_hereditary_identities(corpus6):
    classes_seen = set()
    count = 0
    for g, (gamma_g, nu_g, tau_g), solved in corpus6:
        assert len(solved) >= 3
        for h, w, cls, gamma_h, nu_h, tau_h in solved:
            classes_seen.add(cls)
            assert nu_h == nu_g, (g.edges(), cls)
            assert tau_h == tau_g, (g.edges(), cls)
            assert gamma_g <= gamma_h <= tau_g, (g.edges(), cls)
            if cls is DilationClass.GAMMA0:
                assert gamma_h == gamma_g, g.edges()
            if cls is DilationClass.GAMMA1:
                assert gamma_h == tau_g, g.edges()
        count += 1
    assert count >= 130
    assert classes_seen == {DilationClass.GAMMA0, DilationClass.GAMMA1,
                            DilationClass.MIXED}
    announce("1 hereditary-identities", True)


def test_criterion_2_domination_bounds(corpus6):
    for g, _, solved in corpus6:
        for h, w, cls, gamma_h, nu_h, tau_h in solved:
            if cls is DilationClass.GAMMA1:
                assert nu_h <= gamma_h <= 2 * nu_h, g.edges()
            if cls is DilationClass.GAMMA0:
                assert gamma_h <= nu_h, g.edges()
    announce("2 domination-bounds", True)


def test_criterion_3_extremal_gamma1():
    doubles = []
    for g in connected_graphs_up_to(7):
        h, _ = generalized_power(g, 4, 1)
        gamma_h = domination_number(h).value
        nu_h = matching_number(h).value
        keg = is_keg(g)
        assert (gamma_h == nu_h) == keg.keg, g.edges()
        is_odd_complete = (g.edge_count == g.n * (g.n - 1) // 2
                           and g.n == 2 * keg.nu.value + 1)
        assert (gamma_h == 2 * nu_h) == is_odd_complete, g.edges()
        if gamma_h == 2 * nu_h:
            doubles.append(canonical_form(g))
    assert sorted(doubles) == sorted(canonical_form(complete(k)) for k in (3, 5, 7))
    report = crosscheck_extremal_gamma1(7)
    assert report.ok and report.pass_count == report.instance_count
    announce("3 extremal-gamma1", True)


def test_criterion_4_two_cycle_amalgams():
    for p in range(3, 8):
        for q in range(3, 8):
            if p % 2 == 0 and q % 2 == 0:
                continue
            g = cp_vee_cq(p, q)
            nu = matching_number(g).value
            tau = transversal_number(g).value
            assert nu == p // 2 + q // 2, (p, q)
            assert tau == (p + 1) // 2 + (q + 1) // 2 - 1, (p, q)
            h, _ = generalized_power(g, 4, 1)
            gamma_h = domination_number(h).value
            assert matching_number(h).value == nu
            if p % 2 == 1 and q % 2 == 1:
                assert gamma_h == nu + 1, (p, q)
            else:
                assert gamma_h == nu, (p, q)
    announce("4 two-cycle-amalgams", True)


def test_criterion_5_family_predicates():
    checked_bip = 0
    for n in range(3, 9):
        for g in enumerate_connected(n, min_degree=2, bipartite=True):
            eq = domination_number(g).value == matching_number(g).value
            assert in_family_g2b(g).member == eq, g.edges()
            checked_bip += 1
    assert checked_bip > 0
    checked_one = 0
    unexplained = []
    for n in range(2, 8):
        for g in enumerate_connected(n):
            if min(g.degrees()) != 1:
                continue
            eq = domination_number(g).value == matching_number(g).value
            verdict = in_family_g1(g)
            if verdict.member != eq:
                unexplained.append((g.edges(), verdict.to_json()))
            checked_one += 1
    assert checked_one > 0
    assert unexplained == [], unexplained
    announce("5 family-predicates", True)


def test_criterion_6_nb_derivation():
    candidates = derive_g2nb_candidates(8)
    assert len(candidates) <= 9
    codes = {canonical_form(g) for g in candidates}
    for k in (3, 5, 7):
        assert canonical_form(cycle(k)) in codes
    for g in candidates:
        assert (domination_number(g).value == matching_number(g).value
                == g.n // 2), g.edges()
    announce("6 nb-derivation", True)


def test_criterion_7_nonextremal():
    for n in range(2, 6):
        realized = set()

        def record(g, s):
            h, _ = generalized_power(g, 4, s)
            nu_h = matching_number(h).value
            gamma_h = domination_number(h).value
            assert nu_h == n, (g.edges(), s)
            realized.add(gamma_h)
            return gamma_h

        assert record(cycle(2 * n + 1), 1) == n + 1
        assert record(complete(2 * n), 1) == 2 * n - 1
        assert record(complete(2 * n), 2) == 1
        for r in range(2, n):
            assert record(complete_minus_clique(n, r), 1) == 2 * n - r
        if n > 2:
            for r in range(1, (n - 1) // 2 + 1):
                assert record(g_nr(n, r), 2) == 2 * r + 1
                assert record(ghat_nr(n, r), 2) == 2 * r
        target = set(range(1, n)) | set(range(n + 1, 2 * n))
        assert target <= realized, (n, sorted(realized))
    report = verify_nonextremal(5)
    assert report.ok
    announce("7 nonextremal-constructions", True)


def test_criterion_8_counterexample_family():
    for n in range(2, 6):
        g = complete_bipartite(2, n)
        h, _ = generalized_power(g, 4, 2)
        assert domination_number(h).value == 2, n
        assert matching_number(h).value == 2, n
        assert in_family_g2b(g).member, n
        assert not in_family_g2nb(g).member, n
        assert not in_family_g1(g).member, n
    announce("8 counterexample-family", True)


def test_criterion_9_solver_oracle_equivalence():
    rng = random.Random(2024)
    for trial in range(300):
        m = rng.randint(1, 14)
        n_edges = rng.randint(0, 12)
        edges = []
        for _ in range(n_edges):
            size = rng.randint(1, min(5, m))
            edges.append(rng.sample(range(m), size))
        h = Hypergraph.from_edge_sets(m, edges)
        assert domination_number(h).value == brute_gamma(h), trial
        assert matching_number(h).value == brute_nu(h), trial
        assert transversal_number(h).value == brute_tau(h), trial
    announce("9 solver-oracle-equivalence", True)


def test_criterion_10_berge_machinery():
    rng = random.Random(99)
    # every dilation's natural witness verifies
    for seed in range(40):
        n = rng.randint(2, 6)
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < 0.5]
        if not edges:
            continue
        g = Graph.from_edges(n, edges)
        h, w = random_dilation(g, 5, seed=seed)
        assert verify_berge_witness(g, h, natural_berge_witness(w))
    # search agrees with brute-force injection enumeration on a 100-pair corpus
    pairs = []
    while len(pairs) < 100:
        n = rng.randint(2, 5)
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < 0.6]
        if not edges:
            continue
        g = Graph.from_edges(n, edges)
        m = rng.randint(n, n + 3)
        hyper = [rng.sample(range(m), rng.randint(2, min(4, m)))
                 for _ in range(len(edges))]
        pairs.append((g, Hypergraph.from_edge_sets(m, hyper)))
    for g, h in pairs:
        found = search_berge_witness(g, h)
        assert (found is not None) == brute_berge_exists(g, h)
        if found is not None:
            assert verify_berge_witness(g, h, found)
    # the Fano plane hosts at least one 7-edge support graph
    fano = builtin_hypergraph("fano")
    witness = search_berge_witness(cycle(7), fano)
    assert witness is not None and verify_berge_witness(cycle(7), fano, witness)
    announce("10 berge-machinery", True)


def test_hereditary_suite_green_at_acceptance_scale():
    report = verify_hereditary(6, samples_per_graph=1, seed=7)
    assert report.ok and report.pass_count == report.instance_count >= 130
    announce("harness hereditary(6)", True)
