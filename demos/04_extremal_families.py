"""Classifying support graphs: when does domination equal matching?

Run:  python demos/04_extremal_families.py
"""

from dilations import (complete, complete_bipartite, corona, cp_vee_cq, cycle,
                       derive_g2nb_candidates, extremal_class_gamma1,
                       in_family_g1, in_family_g2b, path, predict_gamma, t1,
                       to_graph6, union_family_member)


def section(title):
    print(f"\n{'=' * 60}\n{title}\n{'=' * 60}")


section("Predicting gamma of a dilation from the support graph alone")
for g, name in [(cycle(5), "C5"), (complete(5), "K5"), (cp_vee_cq(4, 3), "C4 v C3")]:
    print(f"{name:<8} gamma0-dilations: {predict_gamma(g, 'gamma0')},"
          f" gamma1-dilations: {predict_gamma(g, 'gamma1')}")

section("Where gamma lands in [nu, 2 nu] for gamma1 dilations")
for g, name in [(cp_vee_cq(4, 3), "C4 v C3"), (complete(5), "K5"),
                (cycle(7), "C7")]:
    v = extremal_class_gamma1(g)
    print(f"{name:<8} {v.kind:<7} gamma={v.realized_gamma}"
          f" (nu={v.nu.value}, tau={v.tau.value})")

section("The bipartite min-degree-2 family")
for g, name in [(cycle(4), "C4"), (complete_bipartite(2, 3), "K_{2,3}"),
                (cycle(6), "C6")]:
    v = in_family_g2b(g)
    print(f"{name:<8} member={v.member} evidence={v.evidence}")

section("The nine non-bipartite candidates, derived by enumeration")
for g in derive_g2nb_candidates(8):
    print(f"  n={g.n} {to_graph6(g)}")

section("The min-degree-1 family")
for g, name in [(path(5), "P5"), (corona(cycle(4)), "corona(C4)"),
                (t1(), "triangle+pendant")]:
    v = in_family_g1(g)
    print(f"{name:<18} member={v.member} case={v.evidence.get('case')}")

section("One dispatcher covers all minimum-degree cases")
for g, name in [(cycle(4), "C4"), (cycle(5), "C5"), (path(4), "P4")]:
    v = union_family_member(g)
    print(f"{name:<4} -> family {v.family}, member={v.member}")
