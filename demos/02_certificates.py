"""Certify lower bounds by exhausting the ordering/colouring search.

If no ordering of V(F) and colouring of its shadow sends every edge's pattern
into the palette, then no pattern hypergraph over that palette contains F, and
the palette's density becomes a lower bound on the corresponding Turan-type
density of F.
"""

from unidense import builtin, check_certificate, clique, clique_minus4, fano, representable, zero_density_certificate

print("-- exhaustions (the 'free' verdicts certify lower bounds) --")
for F, name, p_name in (
    (clique_minus4(), "K4-", "tournament"),
    (clique(4), "K4", "roedl(2)"),
    (clique(5), "K5", "ee5"),
    (clique(6), "K6", "ee6"),
):
    P = builtin(p_name)
    res = representable(F, P)
    print(f"{name:4s} vs {p_name:10s}: {res.status:6s}  space={res.space}  nodes={res.nodes}")

print()
print("-- the Rodl family: roedl(r) has vvv and ev density (r-1)/r and no K_{r+2} --")
for r in range(3, 9):
    res = representable(clique(r + 2), builtin(f"roedl({r})"))
    print(f"K{r + 2:<2d} vs roedl({r}): {res.status:6s}  nodes={res.nodes}  symmetry {res.symmetry}")

print()
print("-- positive certificates --")
res = representable(clique(5), builtin("ee6"))
print(f"K5 vs ee6: {res.status}; pentagon-style two-colouring found:")
for pair, colour in sorted(res.certificate.coloring.items()):
    print(f"  {pair} -> {colour}")

print()
res = zero_density_certificate(fano())
print(f"Fano plane zero-density certificate: {res.status} (nodes {res.nodes})")
print(f"  ordering: {res.certificate.ordering}")
ok = check_certificate(fano(), builtin("rainbow"), res.certificate)
print(f"  independent re-validation: {ok}")

print()
print("-- the large clique over the two-colour-per-triangle palette --")
print("(GR(K3; 3) = 11: K10 has a 3-colouring of its pairs with exactly two")
print(" colours on every triangle, K11 has none)")
res = representable(clique(10), builtin("ee11"), budget=3_000_000)
print(f"K10 vs ee11: {res.status} after {res.nodes} nodes, symmetry {res.symmetry}")
res11 = representable(clique(11), builtin("ee11"), budget=300_000)
print(f"K11 vs ee11: {res11.status} after {res11.nodes} nodes, symmetry {res11.symmetry}")
