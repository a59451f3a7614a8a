"""Dilations: block construction, generalized powers, and Berge witnesses.

Run:  python demos/02_dilations_and_powers.py
"""

from dilations import (DilationSpec, builtin_hypergraph, check_dilation_properties,
                       classify_dilation, cycle, dilate, generalized_power,
                       natural_berge_witness, random_dilation,
                       search_berge_witness, to_hypergraph_text,
                       verify_berge_witness)


def section(title):
    print(f"\n{'=' * 60}\n{title}\n{'=' * 60}")


section("A dilation replaces vertices by copy blocks, edges by extra blocks")
g = cycle(3)
h, w = dilate(g, DilationSpec(k=3, s=(1, 1, 1), a=(1, 1, 1)))
print(to_hypergraph_text(h).rstrip())
print("class:", classify_dilation(h, w).value)
print("copy blocks:", w.copy_blocks)
print("edge blocks:", w.edge_blocks)

section("Generalized powers are the uniform special case")
for k, s in [(4, 1), (4, 2), (6, 3)]:
    h, w = generalized_power(cycle(5), k, s)
    print(f"C5^({k},{s}): {h.m} vertices, rank {h.rank},"
          f" class {classify_dilation(h, w).value}")

section("Every dilation satisfies the four structural facts")
h, w = random_dilation(cycle(5), 5, seed=42)
report = check_dilation_properties(cycle(5), h, w)
print("two supports per edge:", report.two_supports_per_edge)
print("adjacency preserved:  ", report.adjacency_preserved)
print("disjointness matched: ", report.disjointness_preserved)
print("connectivity matched: ", report.connectivity_preserved)

section("Dilations carry a natural Berge witness")
bw = natural_berge_witness(w)
print("verifies:", verify_berge_witness(cycle(5), h, bw))

section("Berge search: the Fano plane hosts a 7-cycle")
fano = builtin_hypergraph("fano")
witness = search_berge_witness(cycle(7), fano)
print("witness:", witness.to_json())
print("verifies:", verify_berge_witness(cycle(7), fano, witness))
