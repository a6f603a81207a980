"""Weighted colour sets, palettes, exact pattern densities, and the
representability search deciding whether a pattern hypergraph can contain F.

All densities are exact rationals.  A palette is a set of ordered colour
triples; a hypergraph built from a pair colouring phi has edge {x,y,z}
(x < y < z) exactly when (phi(x,y), phi(x,z), phi(y,z)) is one of the
patterns, i.e. pattern coordinates follow the lexicographic order of the
three pairs.  ``NOTIONS`` names the coordinates that each density notion's
witnesses fix, and ``Palette.density`` reads it for all three.
"""

from __future__ import annotations

import heapq
import itertools
import re
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from graphlib import TopologicalSorter
from math import factorial, inf, lcm, prod
from typing import NamedTuple

from .hypergraph import Hypergraph3, bit_positions


class PaletteError(ValueError):
    """Malformed palette input (weights not summing to 1, unknown colour, ...)."""


@dataclass(frozen=True)
class WeightedColorSet:
    """Finite colour list with rational weights summing exactly to one."""

    colors: tuple[str, ...]
    weights: tuple[Fraction, ...]

    def __post_init__(self):
        if not self.colors:
            raise PaletteError("colour set must be nonempty")
        if len(set(self.colors)) != len(self.colors):
            raise PaletteError("duplicate colour names")
        if len(self.weights) != len(self.colors):
            raise PaletteError("one weight per colour required")
        for w in self.weights:
            if not 0 <= w <= 1:
                raise PaletteError(f"weight {w} outside [0, 1]")
        if sum(self.weights, Fraction(0)) != 1:
            raise PaletteError("weights must sum to 1 exactly")
        object.__setattr__(self, "_index", {c: i for i, c in enumerate(self.colors)})

    @classmethod
    def uniform(cls, colors) -> "WeightedColorSet":
        colors = tuple(colors)
        w = Fraction(1, len(colors)) if colors else None
        return cls(colors, tuple(w for _ in colors))

    @classmethod
    def weighted(cls, colors, weights) -> "WeightedColorSet":
        return cls(tuple(colors), tuple(Fraction(w) for w in weights))

    def index(self, color: str) -> int:
        try:
            return self._index[color]
        except KeyError:
            raise PaletteError(f"unknown colour {color!r}") from None

    @property
    def is_uniform(self) -> bool:
        w = Fraction(1, len(self.colors))
        return all(x == w for x in self.weights)


_PERMS3 = tuple(itertools.permutations(range(3)))

# The density notions, each as the choices of pattern coordinates (the
# colours of the pairs of a triple) that one of its witnesses fixes: none for
# vvv, one for ev, two for ee.  A reduced hypergraph's constituent roles are
# the same coordinates.
NOTIONS = {"vvv": ((),), "ev": ((0,), (1,), (2,)), "ee": ((0, 1), (0, 2), (1, 2))}


@dataclass(frozen=True)
class Palette:
    """A set of ordered colour triples over a weighted colour set.

    claims optionally records documented bounds as (notion, density, target)
    triples: non-representability of the target certifies that the notion's
    generalized Turan density is at least the claimed value.
    """

    base: WeightedColorSet
    patterns: frozenset
    name: str = ""
    claims: tuple = ()

    def __post_init__(self):
        pats = frozenset(tuple(p) for p in self.patterns)
        object.__setattr__(self, "patterns", pats)
        known = set(self.base.colors)
        for p in pats:
            if len(p) != 3:
                raise PaletteError(f"pattern {p!r} is not a triple")
            for c in p:
                if c not in known:
                    raise PaletteError(f"pattern {p!r} uses unknown colour {c!r}")
        symmetric = all(
            tuple(p[s] for s in perm) in pats for p in pats for perm in _PERMS3
        )
        object.__setattr__(self, "symmetric", symmetric)

    # -- exact densities ----------------------------------------------------

    def density(self, star: str) -> Fraction:
        """The largest d making the palette (d, star)-dense: the least, over the
        coordinates that the notion fixes (``NOTIONS[star]``) and every tuple
        of positive-weight colours on them (a colour of weight 0 colours no
        pair), of the weighted mass of the matching patterns over their other
        coordinates.  vvv fixes none, so its density is the total pattern
        mass; for uniform weights each mass is a pattern count over |colours|
        to the power of the free coordinates."""
        try:
            fixings = NOTIONS[star]
        except KeyError:
            raise PaletteError(f"unknown density notion {star!r}") from None
        # the masses in units of 1/L^k, L the weights' common denominator and
        # k the free coordinates, so that they add as integers
        L = lcm(*(x.denominator for x in self.base.weights))
        w = {c: int(x * L) for c, x in zip(self.base.colors, self.base.weights)}
        mass: Counter = Counter()
        for fixed in fixings:
            free = [i for i in range(3) if i not in fixed]
            for p in self.patterns:
                if all(w[p[i]] for i in fixed):
                    mass[fixed, tuple(p[i] for i in fixed)] += prod(w[p[i]] for i in free)
        # a colour tuple of positive weights that no pattern matches has mass 0
        every = len(fixings) * sum(map(bool, w.values())) ** len(fixings[0])
        least = min(mass.values()) if len(mass) == every else 0
        return Fraction(least, L ** (3 - len(fixings[0])))

    # -- helpers ------------------------------------------------------------

    def pattern_codes(self) -> frozenset:
        idx = self.base.index
        return frozenset((idx(a), idx(b), idx(c)) for a, b, c in self.patterns)

    def expand_weights(self) -> "Palette":
        """Equivalent uniform-weight palette obtained by splitting colours into shades.

        A colour of weight p/q becomes p*L/q shades for L the common denominator;
        densities under all three notions are preserved exactly.  Zero-weight
        colours disappear.
        """
        if self.base.is_uniform:
            return self
        L = lcm(*(w.denominator for w in self.base.weights))
        shades: dict[str, list[str]] = {}
        flat: list[str] = []
        for c, w in zip(self.base.colors, self.base.weights):
            k = int(w * L)
            shades[c] = [f"{c}#{i}" for i in range(k)]
            flat.extend(shades[c])
        pats = set()
        for a, b, c in self.patterns:
            for sa in shades[a]:
                for sb in shades[b]:
                    for sc in shades[c]:
                        pats.add((sa, sb, sc))
        return Palette(
            WeightedColorSet.uniform(flat),
            frozenset(pats),
            name=f"{self.name}-unweighted" if self.name else "",
        )


def symmetric_closure(generators, base: WeightedColorSet) -> Palette:
    """Inclusion-wise minimal palette containing the generators and closed under
    all six coordinate permutations."""
    return Palette(base, _orbits(generators))


def _orbits(generators) -> frozenset:
    """The generators' images under the six coordinate permutations."""
    return frozenset(
        tuple(g[s] for s in perm) for g in map(tuple, generators) for perm in _PERMS3
    )


# -- built-in palettes -----------------------------------------------------

# name -> (colours, weights or None for uniform ones, patterns, whether the
# palette is the patterns' closure under the six coordinate permutations,
# claims).  "fwd" on pair (x, y) with x < y means the arc x -> y, so the two
# tournament patterns are exactly the cyclic orientations of an ordered
# triple; ramsey6 is every two-colour pattern using both colours (it works
# because 6 -> (3)^2_2).
_CATALOGUE = {
    "rainbow": (
        ("red", "blue", "green"), None, [("red", "blue", "green")], False,
        (("vvv", Fraction(1, 27), "zero-density criterion"),),
    ),
    "tournament": (
        ("fwd", "back"), None, [("fwd", "back", "fwd"), ("back", "fwd", "back")], False,
        (("vvv", Fraction(1, 4), "k4minus"), ("ev", Fraction(1, 4), "k4minus")),
    ),
    "star4": (
        ("1", "2", "3"), None,
        [("1", "2", "1"), ("1", "3", "1"), ("2", "1", "2"), ("2", "3", "2"), ("3", "1", "3"),
         ("3", "2", "3"), ("1", "2", "3"), ("2", "3", "1"), ("3", "1", "2")],
        False, (("vvv", Fraction(1, 3), "star4"), ("ev", Fraction(1, 3), "star4")),
    ),
    "ramsey6": (
        ("red", "green"), None, [("red", "red", "green"), ("red", "green", "green")], True,
        (("vvv", Fraction(3, 4), "k6"),),
    ),
    "cycle5": (
        ("red", "green"), (Fraction(2, 3), Fraction(1, 3)), [("red", "red", "green")], False,
        (("vvv", Fraction(4, 27), "cycle5"),),
    ),
    "ee5": (
        ("1", "2", "3"), None, [("1", "1", "2"), ("2", "2", "3"), ("3", "3", "1")], True,
        (("ee", Fraction(1, 3), "k5"),),
    ),
    "ee6": (
        ("1", "2"), None, [("1", "1", "2"), ("1", "2", "2")], True,
        (("ee", Fraction(1, 2), "k6"),),
    ),
    "ee11": (
        ("1", "2", "3"), None,
        [("1", "1", "2"), ("1", "1", "3"), ("2", "2", "1"), ("2", "2", "3"), ("3", "3", "1"),
         ("3", "3", "2")],
        True, (("ee", Fraction(2, 3), "k11"),),
    ),
}

_ROEDL_RE = re.compile(r"^roedl(?:\((\d+)\))?$")


def builtin(spec: str) -> Palette:
    """Palettes named in the literature, with their claimed densities as metadata.

    Known names: the keys of ``_CATALOGUE`` (rainbow, tournament, star4,
    ramsey6, cycle5, ee5, ee6, ee11) and roedl / roedl(r).
    """
    s = spec.strip().lower()
    m = _ROEDL_RE.match(s)
    if m:
        r = int(m.group(1)) if m.group(1) else 2
        return roedl_palette(r)
    try:
        colors, weights, patterns, closed, claims = _CATALOGUE[s]
    except KeyError:
        raise PaletteError(f"unknown builtin palette {spec!r}") from None
    base = WeightedColorSet.uniform(colors) if weights is None else WeightedColorSet(colors, weights)
    return Palette(base, _orbits(patterns) if closed else patterns, name=s, claims=claims)


def roedl_palette(r: int = 2) -> Palette:
    """All patterns whose first two coordinates differ, over r colours."""
    if r < 2:
        raise PaletteError(f"roedl palette needs r >= 2, got {r}")
    colors = ("red", "green") if r == 2 else tuple(f"c{i + 1}" for i in range(r))
    base = WeightedColorSet.uniform(colors)
    pats = frozenset(
        (a, b, c)
        for a in colors
        for b in colors
        for c in colors
        if a != b
    )
    claims = (
        ("vvv", Fraction(r - 1, r), f"k{r + 2}"),
        ("ev", Fraction(r - 1, r), f"k{r + 2}"),
    )
    return Palette(base, pats, name=f"roedl({r})" if r != 2 else "roedl", claims=claims)


# -- representability -------------------------------------------------------


@dataclass
class RepresentabilityCertificate:
    """A vertex ordering plus shadow colouring witnessing representability.

    ordering[r] is the vertex placed at rank r; coloring maps each shadow pair
    (u, v) with u < v to a colour name.
    """

    ordering: tuple[int, ...]
    coloring: dict


@dataclass(frozen=True)
class Symmetry:
    """The symmetry group a search was cut by: its name and its order."""

    name: str = "none"
    order: int = 1

    @classmethod
    def product(cls, factors) -> "Symmetry":
        """Direct product of (name, order) factors; trivial factors are dropped,
        and k equal factors are named once, as name^k."""
        factors = [(name, order) for name, order in factors if order > 1]
        if not factors:
            return cls()
        powers = Counter(name for name, _k in factors).items()
        label = " x ".join(f"{name}^{k}" if k > 1 else name for name, k in powers)
        return cls(label, prod(k for _name, k in factors))

    def to_json(self) -> dict:
        return {"group": self.name, "order": self.order}

    def __str__(self) -> str:
        return self.name if self.order == 1 else f"{self.name} (order {self.order})"


NO_SYMMETRY = Symmetry()


@dataclass
class RepresentabilityResult:
    status: str  # "certificate" | "free" | "inconclusive"
    certificate: RepresentabilityCertificate | None
    space: int  # nominal (orderings x colourings) assignment space covered
    nodes: int  # search nodes actually explored
    symmetry: Symmetry = NO_SYMMETRY  # the group the search was cut by

    @property
    def found(self) -> bool:
        return self.status == "certificate"


def check_certificate(F: Hypergraph3, palette: Palette, cert) -> bool:
    """Independent validator: re-evaluates the pattern condition edge by edge."""
    if sorted(cert.ordering) != list(range(F.n)):
        return False
    rank = {v: r for r, v in enumerate(cert.ordering)}
    pats = palette.patterns
    col = cert.coloring
    pairs = set(F.shadow())
    if set(col) != pairs:
        return False
    known = set(palette.base.colors)
    if any(c not in known for c in col.values()):
        return False
    for e in F.edges:
        x, y, z = sorted(e, key=rank.__getitem__)
        trip = (
            col[tuple(sorted((x, y)))],
            col[tuple(sorted((x, z)))],
            col[tuple(sorted((y, z)))],
        )
        if trip not in pats:
            return False
    return True


def _pair(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


def _twin_classes(F: Hypergraph3) -> list[list[int]]:
    """Classes of the twin relation, each sorted, in order of smallest vertex.

    u and w are twins when the transposition (u w) is an automorphism of F,
    that is, when their links agree once the pairs holding the other vertex
    are dropped.  The relation is an equivalence ((u x) = (u w)(w x)(u w)),
    and the transpositions inside a class generate its full symmetric group,
    so every permutation of a class is an automorphism.  K_n is one class.
    Twins have equal open neighbourhoods N(u) = N(w) when no edge holds both
    and equal closed ones N[u] = N[w] otherwise, so the vertices are bucketed
    by both and the thirds rows compared only within a bucket: u and w are
    twins when thirds(u, x) and thirds(w, x) agree off w and u for every
    other x in N[u] | N[w] (outside it both rows are empty).
    """

    def twins(u, w):
        off_u, off_w = ~(1 << u), ~(1 << w)
        return all(
            F.thirds(u, x) & off_w == F.thirds(w, x) & off_u
            for x in closed[u] | closed[w]
            if x != u and x != w
        )

    closed = [{u} for u in range(F.n)]
    for e in F.edges:
        for v in e:
            closed[v].update(e)
    # N(u) = N[w] is impossible: w in N(u) puts u in N(w)
    keys = [(frozenset(c - {u}), frozenset(c)) for u, c in enumerate(closed)]
    buckets: dict = {}
    for u, both in enumerate(keys):
        for key in both:
            buckets.setdefault(key, []).append(u)
    classes: list[list[int]] = []
    placed: set[int] = set()
    for u in range(F.n):
        if u not in placed:
            near = sorted({w for key in keys[u] for w in buckets[key] if w > u})
            cls = [u] + [w for w in near if w not in placed and twins(u, w)]
            placed.update(cls)
            classes.append(cls)
    return classes


def _values_interchangeable(codes, K: int) -> bool:
    """Whether the pattern codes are invariant under every colour permutation.

    The transposition (0 1) and the cycle c -> c + 1 mod K generate S_K.
    """
    swap = (1, 0) + tuple(range(2, K)) if K >= 2 else (0,)
    shift = tuple((c + 1) % K for c in range(K))
    return all(
        tuple(g[c] for c in t) in codes for g in (swap, shift) for t in codes
    )


_OTHER_TWO = ((1, 2), (0, 2), (0, 1))


class TernaryTables(NamedTuple):
    """Dense propagation tables of one ternary constraint.

    width is one more than the largest value the allowed triples use.  For
    each position s, arcs[s] = (proj1, proj2, comp2, comp1) serves the arc
    from s to the other two positions r1 < r2, every table a list indexed by
    the value x at s: proj1[x] (proj2[x]) is the bitmask of values at r1
    (r2) seen together with x; comp2[x][y] is the bitmask of values at r2
    completing x at s and y at r1, and comp1[x][y] those at r1 completing x
    at s and y at r2.  A value x that no triple uses at s reads an all-zero
    row.  allowed is the set of allowed triples itself.
    """

    width: int
    arcs: tuple
    allowed: frozenset


def ternary_tables(triples) -> TernaryTables:
    """Propagation tables of one ternary constraint, given its allowed triples
    of nonnegative ints; built once and shared by every constraint over them."""
    allowed = frozenset(triples)
    width = 1 + max((max(t) for t in allowed), default=-1)
    zero = [0] * width
    proj: dict[tuple[int, int], list[int]] = {}
    comp: dict[tuple[int, int], list[list[int]]] = {}
    for s, r in itertools.permutations(range(3), 2):
        t = 3 - s - r
        p = [0] * width
        rows: dict[int, list[int]] = {}
        for tr in allowed:
            p[tr[s]] |= 1 << tr[r]
            rows.setdefault(tr[s], [0] * width)[tr[r]] |= 1 << tr[t]
        proj[s, r] = p
        comp[s, r] = [rows.get(x, zero) for x in range(width)]
    arcs = tuple(
        (proj[s, r1], proj[s, r2], comp[s, r1], comp[s, r2])
        for s, (r1, r2) in enumerate(_OTHER_TWO)
    )
    return TernaryTables(width, arcs, allowed)


def solve_ternary(
    domains, constraints, counter, budget, interchangeable=0, chain=(), accept=None
):
    """Forward-checked backtracking over bitmask domains.

    This is the one search engine behind both :func:`representable` and
    :func:`unidense.reduced.find_reduced_map`.  domains[v] is the bitmask of
    values variable v may take; each constraint is (vars3, tables) with three
    distinct variables and tables from :func:`ternary_tables`.  The chain
    variables are taken first, in chain order; after them the variable with
    the fewest live values is taken, ties going to more constraints and then
    to the lower index.  Values are tried lowest bit first.  counter[0] grows
    by one node per value tried; the search stops once it exceeds budget.
    Returns (status, assignment) with status "sat", "unsat" or "budget"; the
    assignment is a list of values when status is "sat".

    accept, if given, is called on each total assignment (the engine's own
    list, to be read before returning) and its status stands in for "sat":
    "unsat" rejects the assignment and the search goes on.  The hook may run
    a search of its own on the same counter and budget.  The levels live on
    an explicit stack, so the search has no depth limit.

    The constraints are compiled into one arc list per variable: the arc of
    v in a constraint holds the other two variables and the tables of v's
    position (see :class:`TernaryTables`).  Assigning x to v narrows each
    free neighbour by one list lookup, its proj row when both neighbours are
    free and its comp row when the other one is assigned.  A constraint whose
    neighbours are both assigned needs no check: when the later of them was
    assigned, that narrowed v's domain by the constraint's comp row, and
    values are drawn only from v's domain.  A value at or
    above the width of one of v's tables has no support there and fails at
    once.  The fail-first scan walks the non-chain variables sorted by (more
    constraints, lower index) and keeps the first one with the strictly
    smallest live count, stopping early at zero.  The search is node for
    node that of a dict-keyed form of the same tables, kept as the reference
    in tests/test_engine_oracle.py: same variables, values and counter.

    Two symmetry rules cut the search to canonical solutions.  The caller
    asserts that they hold for its instance.

    * interchangeable = k > 0: value x has colour x // k, and each
      permutation s of the colours, sending x to k s(x // k) + x % k except
      on the variables whose values all lie below k, maps solutions to
      solutions.  A variable then takes a used colour or the smallest unused
      one: its live values are its domain below k (u + 1), u being one more
      than the largest colour assigned so far to a variable whose values do
      not all lie below k (the others have no colour).  k = 0 turns the rule
      off.
    * chain = (v1, v2, ...): some permutation group of the variables maps
      solutions to solutions and can sort the values along the chain, so some
      solution, if any exists, is non-decreasing along it.  Assigning v_i
      narrows the domain of v_{i+1} to values >= the value of v_i.

    Soundness: take a node whose partial assignment P extends to a solution S
    that is non-decreasing along the chain, and let S give the next variable x
    a value of colour w > u, so that x's values are not all below k.  Swapping
    the colours w and u in S gives a solution S' that still extends P, because
    P gives colours below u to the variables that have one and the swap leaves
    the others alone, and S'(x), of colour u, is a value the search tries.  It
    lies in x's domain because S' is a solution, so a domain need not be full,
    only closed under the colour permutations (the even values alone, say,
    with k = 2).  S' is still non-decreasing along the chain: if x
    is a chain variable, the earlier chain values have colours below u and
    every later one is at least S(x), so colour w becomes u in the same order
    and the rest stay put; otherwise the whole chain lies in P.  So the search
    meets a solution whenever one exists, and "unsat" means full exhaustion up
    to the symmetry.  With accept, "solution" means a total assignment the
    hook takes, and the rules need the hook's answers to be invariant under
    the same permutations.
    """
    n = len(domains)
    domains = list(domains)
    assign = [-1] * n
    arcs: list[list[tuple]] = [[] for _ in range(n)]
    limit = [inf] * n
    for vars3, tables in constraints:
        for s, (r1, r2) in enumerate(_OTHER_TWO):
            v = vars3[s]
            arcs[v].append((vars3[r1], vars3[r2], *tables.arcs[s]))
            limit[v] = min(limit[v], tables.width)
    chain = tuple(chain)
    chain_next = dict(zip(chain, chain[1:]))
    in_chain = set(chain)
    coloured = [bool(interchangeable and d >> interchangeable) for d in domains]
    order = sorted((v for v in range(n) if v not in in_chain), key=lambda v: (-len(arcs[v]), v))

    def propagate(var, c):
        """Forward-check var = c along var's arcs; False on a wipe-out."""
        if c >= limit[var]:
            return False
        for u, w, pu, pw, cw, cu in arcs[var]:
            yu = assign[u]
            yw = assign[w]
            if yu < 0:
                du = domains[u] & (pu[c] if yw < 0 else cu[c][yw])
                if not du:
                    return False
                domains[u] = du
            if yw < 0:
                dw = domains[w] & (pw[c] if yu < 0 else cw[c][yu])
                if not dw:
                    return False
                domains[w] = dw
        return True

    # the levels above the current one, each suspended as (its variable, that
    # variable's chain successor, the domains before it was assigned, its
    # untried values, the used count above it)
    stack: list[tuple] = []
    used = 0
    while True:
        depth = len(stack)
        if depth < n:
            live = (1 << (interchangeable * (used + 1))) - 1 if interchangeable else -1
            if depth < len(chain):
                var = chain[depth]
            else:
                var, best = -1, inf
                for v in order:
                    if assign[v] < 0:
                        k = (domains[v] & live).bit_count()
                        if k < best:
                            var, best = v, k
                            if not k:
                                break
            nxt = chain_next.get(var)
            saved = domains[:]
            rest = domains[var] & live
        else:
            status = "sat" if accept is None else accept(assign)
            if status != "unsat":
                return status, (assign if status == "sat" else None)
            rest = 0  # back to the last level's next value
        while True:
            if not rest:
                if not stack:
                    return "unsat", None
                var, nxt, saved, rest, used = stack.pop()
                domains[:] = saved
                assign[var] = -1
                continue
            c = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            counter[0] += 1
            if budget is not None and counter[0] > budget:
                return "budget", None
            assign[var] = c
            ok = propagate(var, c)
            if ok and nxt is not None:
                nd = domains[nxt] & -(1 << c)
                ok = nd != 0
                domains[nxt] = nd
            if ok:
                stack.append((var, nxt, saved, rest, used))
                if coloured[var]:
                    used = max(used, c // interchangeable + 1)
                break
            domains[:] = saved
            assign[var] = -1


_SLOTS = ((0, 1), (0, 2), (1, 2))  # the pairs xy, xz, yz of x < y < z, by local index


def _placed(codes, orders) -> set:
    """Value triples over the pairs (xy, xz, yz) of a triple x < y < z: under
    each order (the local indices of x, y, z, first vertex first), each code
    triple read on the pairs first-second, first-third and second-third, a
    pair of colour c taking the value 2c + b, b = 1 when its larger vertex
    comes first."""
    reads = [
        [(_SLOTS.index(_pair(o.index(p), o.index(q))), o.index(p) > o.index(q)) for p, q in _SLOTS]
        for o in orders
    ]
    return {tuple(2 * t[k] + b for k, b in read) for t in codes for read in reads}


def _chordal_completion(n: int, pairs) -> tuple[list, list]:
    """(pairs, triangles) of a chordal graph on range(n) holding the given
    pairs, as sorted lists of sorted tuples.  Vertices are eliminated least
    degree first, ties going to the lower vertex, and eliminating v joins its
    remaining neighbours pairwise; so each triangle is listed once, from its
    first-eliminated vertex."""
    nbrs: list = [set() for _ in range(n)]
    for u, v in pairs:
        nbrs[u].add(v)
        nbrs[v].add(u)
    heap = sorted((len(s), v) for v, s in enumerate(nbrs))
    edges, triangles = [], []
    while heap:
        d, v = heapq.heappop(heap)
        if nbrs[v] is None or d != len(nbrs[v]):  # eliminated, or a stale degree
            continue
        rest, nbrs[v] = sorted(nbrs[v]), None
        edges += [_pair(v, a) for a in rest]
        triangles += [tuple(sorted((v, a, b))) for a, b in itertools.combinations(rest, 2)]
        for a in rest:
            nbrs[a].update(rest)
            nbrs[a] -= {a, v}
            heapq.heappush(heap, (len(nbrs[a]), a))
    return sorted(edges), sorted(triangles)


class _Model(NamedTuple):
    """The variables and constraints of one representability search.

    Variable i is the pair pairs[i] = (u, v), u < v, and takes a value of
    domains[i]: 2c + b, where b = 1 when v precedes u, and c is the colour
    rank (0 off the shadow) of palette code value_order[c].  Each constraint
    is ((i, j, k), tables) over the pairs (xy, xz, yz) of a triangle
    x < y < z.  ordering is the ordering every b is read from, if there is
    one, and twin_classes the classes the domains list in increasing order.
    interchangeable and chain are :func:`solve_ternary`'s symmetry rules.
    """

    pairs: list
    domains: list
    constraints: list
    value_order: list
    ordering: tuple | None
    twin_classes: list
    interchangeable: int
    chain: tuple
    space: int
    symmetry: Symmetry


def _model(F: Hypergraph3, palette: Palette, fixed_ordering=None) -> _Model:
    """The one model behind :func:`representable` and :func:`cnf_encoding`.

    With a symmetric palette (membership does not depend on the ordering,
    so the identity is taken) or fixed_ordering, every b is known: the
    variables are the sorted shadow pairs, and each edge, in ``F.edges``
    order, allows the patterns read in its order.  Otherwise the variables
    are the pairs of a chordal completion (:func:`_chordal_completion`) of
    the shadow and of the consecutive vertices of each twin class.  Each edge
    of F allows every pattern under every order of its vertices, and every
    other triangle every acyclic orientation.  An orientation of a chordal
    graph with no cyclic triangle has no cycle (a chord of a shortest cycle
    would close a shorter one), so the solutions are exactly the (ordering,
    colouring) pairs, the ordering a topological order of the orientation.
    Colours are ranked most frequent in the patterns first, since the engine
    tries values lowest first.

    The symmetries: colours are interchangeable, on value // 2, when the
    pattern codes are invariant under S_K.  Every permutation of a twin
    class C of F (:func:`_twin_classes`) is an automorphism of F.  For a
    symmetric palette and no fixed ordering, with v0 the smallest vertex of
    the largest class, the colours of the pairs (v0, t), t in C other than
    v0, may be taken non-decreasing in t.  Otherwise, with no fixed
    ordering, each class is taken in increasing order (b = 0 on its pairs),
    one ordering per orbit of the twin group, named by its Sym(|C|) factors.
    """
    K = len(palette.base.colors)
    shadow = sorted(F.shadow())
    codes = palette.pattern_codes()
    interchangeable = _values_interchangeable(codes, K)
    groups = [(f"S{K}", factorial(K))] if interchangeable else []
    value_order = sorted(range(K), key=lambda c: (-sum(p.count(c) for p in codes), c))
    rank = {c: r for r, c in enumerate(value_order)}
    ranked = frozenset((rank[a], rank[b], rank[c]) for a, b, c in codes)
    even = sum(1 << 2 * c for c in range(K))  # every colour, b = 0

    @cache
    def table(orders, edge):
        """Tables of a triangle under the orders: an edge reads the patterns,
        any other triangle any colours."""
        return ternary_tables(
            _placed(ranked if edge else itertools.product(range(K), repeat=3), orders)
        )

    ordering = pos = None
    classes: list = []
    if fixed_ordering is not None or palette.symmetric:
        ordering = tuple(range(F.n) if fixed_ordering is None else fixed_ordering)
        if sorted(ordering) != list(range(F.n)):
            raise PaletteError("fixed_ordering must be a permutation of V(F)")
        space = K ** len(shadow)
        pos = {v: r for r, v in enumerate(ordering)}
        pairs, triangles = shadow, F.edges
        domains = [even << (pos[v] < pos[u]) for u, v in pairs]
    else:
        classes = _twin_classes(F)
        groups += [(f"Sym({len(cls)})", factorial(len(cls))) for cls in classes]
        space = factorial(F.n) * K ** len(shadow)
        coloured = set(shadow)
        steps = {(u, w) for cls in classes for u, w in zip(cls, cls[1:])}
        pairs, triangles = _chordal_completion(F.n, coloured | steps)
        label = {v: k for k, cls in enumerate(classes) for v in cls}
        domains = [
            ((1 << 2 * K) - 1 if (u, v) in coloured else 3) & (even if label[u] == label[v] else -1)
            for u, v in pairs
        ]
    pidx = {p: i for i, p in enumerate(pairs)}
    edges = set(F.edges)
    constraints = []
    for t in triangles:
        x, y, z = t
        orders = _PERMS3 if pos is None else (tuple(sorted(range(3), key=lambda i: pos[t[i]])),)
        constraints.append(((pidx[x, y], pidx[x, z], pidx[y, z]), table(orders, t in edges)))
    chain: tuple[int, ...] = ()
    if palette.symmetric and fixed_ordering is None:
        v0, *row = max(_twin_classes(F), key=len)
        if len(row) >= 2 and all((v0, t) in pidx for t in row):
            chain = tuple(pidx[v0, t] for t in row)
            groups.append((f"Sym({len(row)})", factorial(len(row))))
    return _Model(
        pairs, domains, constraints, value_order, ordering, classes,
        2 if interchangeable else 0, chain, space, Symmetry.product(groups),
    )


def representable(
    F: Hypergraph3,
    palette: Palette,
    fixed_ordering=None,
    budget: int | None = None,
    probe_seed: int = 0,
    probe_steps: int = 400_000,
) -> RepresentabilityResult:
    """Decide whether some pattern hypergraph over this palette contains F.

    Searches for an ordering of V(F) plus a shadow colouring sending every
    edge's pattern into the palette, as one run of :func:`solve_ternary`,
    the engine shared with :func:`unidense.reduced.find_reduced_map`, over
    the model of :func:`_model`; no seed is involved.  The search is cut by
    the symmetries the instance has, and the result names the group used.
    "free" is only reported after full exhaustion, and certificates are
    re-validated by :func:`check_certificate`.

    probe_seed and probe_steps are accepted and ignored.  They configured a
    randomized certificate probe that has been removed; they stay in the
    signature only so that existing callers which pass them, the benchmark
    workloads among them, keep working.
    """
    if not F.edges:
        cert = RepresentabilityCertificate(tuple(range(F.n)), {})
        return RepresentabilityResult("certificate", cert, 1, 0)

    m = _model(F, palette, fixed_ordering)
    counter = [0]
    status, assign = solve_ternary(
        m.domains, m.constraints, counter, budget, m.interchangeable, m.chain
    )
    if status == "sat":
        ordering = m.ordering
        if ordering is None:
            before = {v: set() for v in range(F.n)}
            for (u, v), x in zip(m.pairs, assign):
                first, then = (v, u) if x & 1 else (u, v)
                before[then].add(first)
            ordering = tuple(TopologicalSorter(before).static_order())
        value = dict(zip(m.pairs, assign))
        colors = palette.base.colors
        coloring = {p: colors[m.value_order[value[p] // 2]] for p in sorted(F.shadow())}
        cert = RepresentabilityCertificate(ordering, coloring)
        if not check_certificate(F, palette, cert):  # pragma: no cover - safety net
            raise AssertionError("internal error: produced certificate failed validation")
        return RepresentabilityResult("certificate", cert, m.space, counter[0], m.symmetry)
    status = "inconclusive" if status == "budget" else "free"
    return RepresentabilityResult(status, None, m.space, counter[0], m.symmetry)


def zero_density_certificate(F: Hypergraph3, budget: int | None = None) -> RepresentabilityResult:
    """Certificate search against the single rainbow pattern (red, blue, green).

    A certificate exists exactly when F admits the vertex enumeration plus
    position-determined 3-colouring of its shadow characterising vanishing
    vvv-density.
    """
    return representable(F, builtin("rainbow"), budget=budget)


# -- CNF export --------------------------------------------------------------


def cnf_encoding(F: Hypergraph3, palette: Palette, ordering=None):
    """DIMACS-style CNF of the model :func:`representable` searches
    (:func:`_model`, with ordering as its fixed_ordering).

    One variable per pair and value in its domain, numbered pair by pair and
    then by (palette colour, b), so that with an ordering the variable of
    shadow pair p and colour c is p*K + c + 1.  The varmap gives each one's
    pair, its "color" when the pair is in the shadow and, when no ordering
    is fixed, the vertex placed "first".  The clauses are exactly-one per
    pair plus, for each constraint, one blocking clause per triple of domain
    values it does not allow.  The CNF is satisfiable exactly when F is
    representable (in the ordering, if one is given).  With no ordering and
    an asymmetric palette it covers every ordering: the acyclic-orientation
    constraints are the transitivity clauses, and meta names the twin
    classes it takes in increasing order.  The search's first-use colours
    and chain are not clauses.
    """
    m = _model(F, palette, ordering)
    colors = palette.base.colors
    shadow = F.shadow()
    lits: list[dict] = []  # lits[i][x]: the variable of pair i taking value x
    varmap: dict = {}
    clauses: list[tuple[int, ...]] = []
    for (u, v), domain in zip(m.pairs, m.domains):
        values = sorted(bit_positions(domain), key=lambda x: (m.value_order[x // 2], x & 1))
        own = {x: len(varmap) + k + 1 for k, x in enumerate(values)}
        for x, var in own.items():
            varmap[var] = {"pair": [u, v]}
            if (u, v) in shadow:
                varmap[var]["color"] = colors[m.value_order[x // 2]]
            if m.ordering is None:
                varmap[var]["first"] = v if x & 1 else u
        lits.append(own)
        clauses.append(tuple(own.values()))
        clauses += [(-a, -b) for a, b in itertools.combinations(own.values(), 2)]
    blocked: dict = {}  # (allowed, three domains) -> the value triples to block
    for (i, j, k), tables in m.constraints:
        key = (tables.allowed, m.domains[i], m.domains[j], m.domains[k])
        if key not in blocked:
            values = itertools.product(lits[i], lits[j], lits[k])
            blocked[key] = [t for t in values if t not in tables.allowed]
        clauses += [(-lits[i][a], -lits[j][b], -lits[k][c]) for a, b, c in blocked[key]]
    meta = {
        "ordering": None if m.ordering is None else list(m.ordering),
        "colors": list(colors),
        "num_pairs": len(m.pairs),
        "symmetric_palette": palette.symmetric,
        "covers_all_orderings": palette.symmetric or ordering is None,
        "ordered_twin_classes": [cls for cls in m.twin_classes if len(cls) > 1],
    }
    return len(varmap), clauses, varmap, meta
