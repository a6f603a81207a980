"""Reduced hypergraphs: density transfer, purge, projection, and the greedy
tetrahedron extraction.

A reduced hypergraph assigns a vertex class to every index pair and a
tripartite constituent to every index triple; reduced maps play the role of
embeddings.  The greedy below constructively finds a tetrahedron image in any
sufficiently large (eps, ee)-dense instance.
"""

from fractions import Fraction

from unidense import builtin, clique
from unidense import reduced as rd

print("-- palette -> reduced density transfer --")
for name in ("tournament", "ee5", "ee11"):
    P = builtin(name)
    A = rd.from_palette(P, 5)
    print(f"{name:10s}: vvv {rd.reduced_density(A, 'vvv')}, "
          f"ev {rd.reduced_density(A, 'ev')}, ee {rd.reduced_density(A, 'ee')}"
          f"   (palette: {P.density('vvv')}, {P.density('ev')}, {P.density('ee')})")

print()
print("-- purge: delete low-degree class vertices --")
A = rd.random_dense_reduced(5, 6, Fraction(1, 2), seed=4)
res = rd.purge_ev(A, Fraction(1, 2))
removed = sum(A.class_sizes[p] - len(k) for p, k in res.kept.items())
print(f"(1/2)-threshold purge of a random instance removed {removed} vertices;")
print(f"result is (1/2, ev)-dense: {rd.check_dense(res.reduced, 'ev', Fraction(1, 2)).ok}")

print()
print("-- projection to uniform class size, with map composition --")
proj = rd.project_random(A, 3, seed=9)
search = rd.find_reduced_map(clique(4), proj.reduced)
print(f"projected classes to size 3; K4 map in the projection: {search.status}")
if search.found:
    composed = rd.compose_with_projection(search.reduced_map, proj.psi)
    print(f"composed map is valid in the source: "
          f"{rd.validate_reduced_map(clique(4), A, composed)}")

print()
print("-- greedy tetrahedron --")
eps = Fraction(2, 3)
m = rd.tetra_min_indices(eps)
print(f"eps = {eps}: the shrink schedule needs at least {m} indices")
B = rd.from_palette(builtin("ee11"), m)
rm = rd.tetrahedron_greedy(B, eps)
print(f"tetrahedron found on indices {sorted(rm.lam.values())};"
      f" valid: {rd.validate_reduced_map(clique(4), B, rm)}")
