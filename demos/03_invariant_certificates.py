"""Exact invariants with certificates: domination, matching, transversal.

Run:  python demos/03_invariant_certificates.py
"""

import json

from dilations import (builtin_hypergraph, check_certificate, complete,
                       complete_minus_clique, cp_vee_cq, cycle,
                       domination_number, g_nr, generalized_power, ghat_nr,
                       is_keg, matching_number, transversal_number)


def section(title):
    print(f"\n{'=' * 60}\n{title}\n{'=' * 60}")


section("Certificates carry the optimal witness and search statistics")
cert = transversal_number(cp_vee_cq(4, 3))
print(json.dumps(cert.to_json(), indent=2))
print("re-checks:", check_certificate(cp_vee_cq(4, 3), cert))

section("Closed-form values on the named families")
print("nu(C5 v C3)   =", matching_number(cp_vee_cq(5, 3)).value, "(= 2 + 1)")
print("tau(C4 v C3)  =", transversal_number(cp_vee_cq(4, 3)).value, "(= 2 + 2 - 1)")
print("gamma(G(3,1)) =", domination_number(g_nr(3, 1)).value, "(= 2r + 1)")
print("gamma(Gh(3,1))=", domination_number(ghat_nr(3, 1)).value, "(= 2r)")
print("tau(K6 - e)   =", transversal_number(complete_minus_clique(3, 2)).value)
print("nu(fano)      =", matching_number(builtin_hypergraph("fano")).value)

section("Dilations inherit the support graph's invariants")
g = cycle(5)
for s, label in [(1, "gamma1"), (2, "gamma0")]:
    h, _ = generalized_power(g, 4, s)
    print(f"C5^(4,{s}) [{label}]: gamma={domination_number(h).value}"
          f" nu={matching_number(h).value} tau={transversal_number(h).value}")
print("compare: gamma(C5) = 2, tau(C5) = 3")

section("The Koenig-Egervary test ties it together")
for g, name in [(cycle(4), "C4"), (cp_vee_cq(4, 3), "C4 v C3"),
                (cp_vee_cq(3, 3), "C3 v C3"), (complete(5), "K5")]:
    v = is_keg(g)
    print(f"{name:<8} tau={v.tau.value} nu={v.nu.value} keg={v.keg}")

section("Exhaustive mode is available as a slow reference")
fast = domination_number(cycle(6))
slow = domination_number(cycle(6), mode="exhaustive")
print("values agree:", fast.value == slow.value,
      "- witnesses agree:", fast.witness == slow.witness)
print("node counts:", fast.node_count, "vs", slow.node_count)
