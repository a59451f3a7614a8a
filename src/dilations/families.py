"""Structural families characterizing when domination equals matching.

For connected graphs with minimum degree at least 2 the characterization
splits into a bipartite family (checked by a private-neighbor condition on
the smaller side) and a short list of non-bipartite graphs (derived here
empirically by exhaustive enumeration). For minimum degree 1 the family
consists of K2, generalized coronas, and graphs whose leftover components
after deleting leaves and stems satisfy one of three conditions.

Every predicate takes only the graph and returns a FamilyVerdict whose
evidence names the vertices or components that decide the answer, so verdicts
can be re-checked by hand. The non-bipartite list is the shipped candidate
asset, read once per process into a table of canonical codes.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from importlib import resources
from itertools import combinations
from typing import Optional, Sequence

from .dilation import DilationClass
from .errors import CapacityError, DomainError
from .graphs import Graph, StructureProfile, structure_profile
from .invariants import (Certificate, domination_number, is_keg,
                         matching_number, transversal_number)
from .isomorphism import canonical_form, enumerate_connected

NB_DERIVATION_CAP = 9
_NB_ASSET = "g2nb_up_to_n8.g6"


@dataclass(frozen=True)
class FamilyVerdict:
    family: str  # "G2B" | "G2NB" | "G1" | "generalized_corona" | "K_odd_complete" | "KEG"
    member: bool
    evidence: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {"family": self.family, "member": self.member, "evidence": self.evidence}


def _pair_private_neighbors(g: Graph, side1: Sequence[int], side2: Sequence[int],
                            exclude: frozenset[int] = frozenset()):
    """First pair of side1 vertices with a common neighbor but fewer than two
    vertices of side2 (outside `exclude`) adjacent to exactly that pair.
    Returns None when the condition holds for every pair."""
    for x1, x2 in combinations(sorted(side1), 2):
        if not (g.adj[x1] & g.adj[x2]):
            continue
        pair_mask = (1 << x1) | (1 << x2)
        private = [y for y in side2
                   if y not in exclude and g.adj[y] == pair_mask]
        if len(private) < 2:
            return (x1, x2, private)
    return None


def in_family_g2b(g: Graph) -> FamilyVerdict:
    """Bipartite min-degree-2 family: every pair of smaller-side vertices with
    a common neighbor has at least two neighbors of its own on the other side."""
    return _in_family_g2b(g, structure_profile(g))


def _in_family_g2b(g: Graph, prof: StructureProfile) -> FamilyVerdict:
    if not prof.is_connected:
        return FamilyVerdict("G2B", False, {"not_applicable": "graph is not connected"})
    if prof.bipartition is None:
        return FamilyVerdict("G2B", False, {"not_applicable": "graph is not bipartite"})
    if prof.min_degree < 2:
        return FamilyVerdict("G2B", False,
                             {"not_applicable": f"minimum degree {prof.min_degree} < 2"})
    v1, v2 = prof.bipartition
    orientations = [(v1, v2)]
    if len(v1) == len(v2):
        orientations.append((v2, v1))
    last_violation = None
    for side1, side2 in orientations:
        violation = _pair_private_neighbors(g, side1, side2)
        if violation is None:
            return FamilyVerdict("G2B", True, {
                "side1": list(side1), "side2": list(side2),
                "predicted_gamma": len(side1),
            })
        last_violation = (side1, violation)
    side1, (x1, x2, private) = last_violation
    return FamilyVerdict("G2B", False, {
        "side1": list(side1),
        "violating_pair": [x1, x2],
        "private_neighbors": private,
    })


def derive_g2nb_candidates(max_n: int) -> list[Graph]:
    """All connected non-bipartite min-degree-2 graphs on at most max_n
    vertices with equal domination and matching numbers, one per isomorphism
    class, in deterministic order."""
    if max_n < 3:
        raise DomainError(f"derivation requires max_n >= 3, got {max_n}")
    if max_n > NB_DERIVATION_CAP:
        raise CapacityError(f"derivation is capped at n = {NB_DERIVATION_CAP}, got {max_n}")
    out = []
    for n in range(3, max_n + 1):
        for g in enumerate_connected(n, min_degree=2, bipartite=False):
            if domination_number(g, lex_witness=False).value == matching_number(g).value:
                out.append(g)
    return out


def load_g2nb_candidates() -> list[Graph]:
    """The shipped candidate list (derived up to 8 vertices).

    Regenerate with ``dilations derive-nb --max-n 8``.
    """
    from .graphs import parse_graph6
    text = resources.files("dilations").joinpath(f"data/{_NB_ASSET}").read_text()
    return [parse_graph6(line) for line in text.splitlines() if line.strip()]


def in_family_g2nb(g: Graph) -> FamilyVerdict:
    """Membership in the shipped non-bipartite min-degree-2 list (by isomorphism)."""
    return _in_family_g2nb(g, structure_profile(g))


def _in_family_g2nb(g: Graph, prof: StructureProfile) -> FamilyVerdict:
    if not prof.is_connected:
        return FamilyVerdict("G2NB", False, {"not_applicable": "graph is not connected"})
    if prof.bipartition is not None:
        return FamilyVerdict("G2NB", False, {"not_applicable": "graph is bipartite"})
    if prof.min_degree < 2:
        return FamilyVerdict("G2NB", False,
                             {"not_applicable": f"minimum degree {prof.min_degree} < 2"})
    index = _candidate_index(g)
    if index is None:
        return FamilyVerdict("G2NB", False, {"reason": "not isomorphic to any candidate"})
    return FamilyVerdict("G2NB", True, {"candidate_index": index})


@functools.cache
def _candidate_table() -> dict[str, int]:
    """Canonical code -> index of the first shipped candidate with that code."""
    table: dict[str, int] = {}
    for i, cand in enumerate(load_g2nb_candidates()):
        table.setdefault(canonical_form(cand), i)
    return table


def _candidate_index(g: Graph) -> Optional[int]:
    """Index of the first shipped candidate isomorphic to g, or None."""
    return _candidate_table().get(canonical_form(g))


def is_generalized_corona(g: Graph) -> FamilyVerdict:
    """Connected, order >= 3, and every vertex is a leaf or a stem."""
    prof = structure_profile(g)
    if not prof.is_connected:
        return FamilyVerdict("generalized_corona", False,
                             {"not_applicable": "graph is not connected"})
    if g.n < 3:
        return FamilyVerdict("generalized_corona", False, {"reason": f"order {g.n} < 3"})
    covered = set(prof.leaves) | set(prof.stems)
    missing = [v for v in range(g.n) if v not in covered]
    if missing:
        return FamilyVerdict("generalized_corona", False,
                             {"vertices_neither_leaf_nor_stem": missing})
    return FamilyVerdict("generalized_corona", True,
                         {"leaves": list(prof.leaves), "stems": list(prof.stems)})


def in_family_g1(g: Graph) -> FamilyVerdict:
    """Min-degree-1 family: K2, generalized coronas, or all leftover components
    (after deleting leaves and stems) pass one of the three component tests."""
    return _in_family_g1(g, structure_profile(g))


def _in_family_g1(g: Graph, prof: StructureProfile) -> FamilyVerdict:
    if not prof.is_connected:
        return FamilyVerdict("G1", False, {"not_applicable": "graph is not connected"})
    if prof.min_degree != 1:
        return FamilyVerdict("G1", False,
                             {"not_applicable": f"minimum degree {prof.min_degree} != 1"})
    if g.n == 2:
        return FamilyVerdict("G1", True, {"case": "K2"})
    removed = set(prof.leaves) | set(prof.stems)
    rest = [v for v in range(g.n) if v not in removed]
    if not rest:  # every vertex a leaf or a stem: a generalized corona
        return FamilyVerdict("G1", True, {"case": "generalized_corona",
                                          "stems": list(prof.stems)})
    stem_neighbor_mask = 0
    for s in prof.stems:
        stem_neighbor_mask |= g.adj[s]
    rest_graph = g.induced_subgraph(rest)
    component_reports = []
    used_condition_iii = False
    for comp in rest_graph.components():
        original = [rest[v] for v in comp]
        sub = rest_graph.induced_subgraph(comp)
        u_set = frozenset(i for i, v in enumerate(original)
                          if stem_neighbor_mask >> v & 1)
        verdict, report = _component_condition(sub, u_set)
        report["component_vertices"] = original
        component_reports.append(report)
        if not verdict:
            return FamilyVerdict("G1", False, {
                "case": "component_failure",
                "component": report,
            })
        if report["condition"] == "iii":
            used_condition_iii = True
    return FamilyVerdict("G1", True, {
        "case": "component_conditions",
        "components": component_reports,
        "used_condition_iii": used_condition_iii,
    })


def _component_condition(sub: Graph, u_set: frozenset[int]) -> tuple[bool, dict]:
    """Test one leftover component against conditions i / ii / iii."""
    if sub.n == 1:
        return True, {"condition": "i"}
    reasons = {}

    bip = structure_profile(sub).bipartition
    if bip is not None:
        v1, v2 = bip
        if len(v1) < len(v2):
            if u_set and u_set <= set(v2):
                violation = _pair_private_neighbors(sub, v1, v2, exclude=u_set)
                if violation is None:
                    return True, {"condition": "ii", "side1": list(v1),
                                  "attachment_set": sorted(u_set)}
                reasons["ii"] = {"violating_pair": list(violation[:2]),
                                 "private_neighbors_outside_attachment": violation[2]}
            else:
                reasons["ii"] = {"attachment_set_not_inside_larger_side": sorted(u_set)}
        else:
            reasons["ii"] = {"sides_not_strictly_unbalanced": [len(v1), len(v2)]}
    else:
        reasons["ii"] = {"not_bipartite": True}

    iso_index = _candidate_index(sub)
    if iso_index is None:
        reasons["iii"] = {"not_isomorphic_to_candidates": True}
        return False, {"condition": "none", "reasons": reasons}
    if not u_set or len(u_set) >= sub.n:
        reasons["iii"] = {"attachment_set_not_proper": sorted(u_set)}
        return False, {"condition": "none", "reasons": reasons}
    base_gamma = domination_number(sub, lex_witness=False).value
    for size in range(1, len(u_set) + 1):
        for subset in combinations(sorted(u_set), size):
            keep = [v for v in range(sub.n) if v not in subset]
            reduced_gamma = domination_number(sub.induced_subgraph(keep), lex_witness=False).value
            if reduced_gamma != base_gamma:
                reasons["iii"] = {"gamma_unstable_under_removal": list(subset),
                                  "gamma": base_gamma,
                                  "gamma_after_removal": reduced_gamma}
                return False, {"condition": "none", "reasons": reasons}
    return True, {"condition": "iii", "candidate_index": iso_index,
                  "attachment_set": sorted(u_set)}


def union_family_member(g: Graph) -> FamilyVerdict:
    """Dispatch on minimum degree / bipartiteness to the matching family test."""
    prof = structure_profile(g)
    if not prof.is_connected:
        raise DomainError("family dispatch requires a connected graph")
    if prof.min_degree == 1:
        return _in_family_g1(g, prof)
    if prof.bipartition is not None:
        return _in_family_g2b(g, prof)
    return _in_family_g2nb(g, prof)


def predict_gamma(g: Graph, cls: DilationClass | str) -> int:
    """Predicted domination number of any dilation of g in the given class:
    gamma(g) for gamma0, tau(g) for gamma1."""
    if g.edge_count == 0:
        raise DomainError("prediction requires a graph with at least one edge")
    if isinstance(cls, str):
        cls = DilationClass(cls.lower())
    if cls is DilationClass.GAMMA0:
        return domination_number(g, lex_witness=False).value
    if cls is DilationClass.GAMMA1:
        return transversal_number(g, lex_witness=False).value
    raise DomainError("prediction is only defined for gamma0 and gamma1 dilations")


@dataclass(frozen=True)
class ExtremalGamma1:
    """Where gamma of a gamma1-dilation of g falls within [nu, 2 nu]."""

    kind: str  # "equal" | "double" | "strict"
    realized_gamma: int  # tau(g), the gamma of every gamma1 dilation
    tau: Certificate
    nu: Certificate

    def to_json(self) -> dict:
        return {"kind": self.kind, "realized_gamma": self.realized_gamma,
                "tau": self.tau.to_json(), "nu": self.nu.to_json()}


def extremal_class_gamma1(g: Graph) -> ExtremalGamma1:
    """equal iff tau = nu (KEG); double iff g is the odd complete graph on
    2 nu + 1 vertices; otherwise strictly between."""
    if not g.is_connected():
        raise DomainError("extremal classification requires a connected graph")
    verdict = is_keg(g)
    tau, nu = verdict.tau, verdict.nu
    return ExtremalGamma1(_gamma1_kind(g, tau.value, nu.value), tau.value, tau, nu)


def _gamma1_kind(g: Graph, tau: int, nu: int) -> str:
    """The kind of extremal_class_gamma1 for a graph g with transversal
    number tau and matching number nu."""
    if tau == nu:
        return "equal"
    if g.edge_count == g.n * (g.n - 1) // 2 and g.n == 2 * nu + 1:
        return "double"
    return "strict"
