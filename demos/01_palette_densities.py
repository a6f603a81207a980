"""Walk through the built-in palettes and their exact densities.

A palette is a set of ordered colour triples.  Under the three notions the
density is the total weighted pattern mass (vvv), the worst conditional mass
with one coordinate pinned (ev), or with two coordinates pinned (ee).  The
values below are exact rationals, not floats.
"""

from unidense import builtin

NAMES = ("rainbow", "tournament", "star4", "roedl(2)", "roedl(3)",
         "ramsey6", "cycle5", "ee5", "ee6", "ee11")

print(f"{'palette':12s} {'|patterns|':>10s} {'symmetric':>9s} {'vvv':>6s} {'ev':>6s} {'ee':>6s}")
for name in NAMES:
    P = builtin(name)
    print(
        f"{name:12s} {len(P.patterns):10d} {str(P.symmetric):>9s}"
        f" {str(P.density('vvv')):>6s} {str(P.density('ev')):>6s} {str(P.density('ee')):>6s}"
    )

print()
print("The cycle5 palette is weighted (2/3 red, 1/3 green).  Splitting the")
print("heavy colour into two shades gives an equivalent uniform palette:")
P = builtin("cycle5")
U = P.expand_weights()
print(f"  {len(U.base.colors)} colours, {len(U.patterns)} patterns,"
      f" vvv density {U.density('vvv')} (unchanged)")
