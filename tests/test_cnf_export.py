"""The CNF export against direct evaluation of every shadow colouring.

For small F and palettes, each colouring of the shadow pairs is turned into
the truth assignment it stands for (x_{p,c} true exactly when pair p has
colour c).  The clauses of ``cnf_encoding`` must all hold exactly when every
edge's pattern under the exported ordering is a pattern of the palette, read
here straight from the edge and the colouring.  The colouring search under
the same fixed ordering must find a certificate exactly when such a colouring
exists.

Without an ordering the CNF is the model the search runs, so it must be
satisfiable (by a small DPLL here) exactly when the search finds a
certificate, and exactly when some fixed ordering has one; a certificate,
read as orientations and colours, must satisfy every clause."""

import itertools
import random

import numpy as np
from hypothesis import event, given, settings
from hypothesis import strategies as st

from unidense import hypergraph as hg
from unidense import palette as pal

COLORS = ("a", "b", "c")
SETTINGS = settings(max_examples=120, deadline=None, derandomize=True, database=None)


@st.composite
def instances(draw):
    n = draw(st.integers(3, 5))
    K = draw(st.integers(1, 3))
    edges = draw(
        st.lists(
            st.sampled_from(list(itertools.combinations(range(n), 3))),
            min_size=1, max_size=7, unique=True,
        )
    )
    size = draw(st.sampled_from((2, 8)))
    codes = draw(st.sets(st.tuples(*[st.integers(0, K - 1)] * 3), max_size=size))
    if draw(st.booleans()):  # close under the coordinate permutations
        perms = list(itertools.permutations(range(3)))
        codes = {tuple(t[i] for i in perm) for t in codes for perm in perms}
    colors = COLORS[:K]
    P = pal.Palette(
        pal.WeightedColorSet.uniform(colors),
        frozenset(tuple(colors[c] for c in t) for t in codes),
    )
    ordering = tuple(draw(st.permutations(range(n))))
    return hg.make(n, edges), P, ordering


@SETTINGS
@given(instances())
def test_cnf_agrees_with_direct_evaluation(instance):
    F, P, ordering = instance
    colors = P.base.colors
    K = len(colors)
    pairs = sorted(F.shadow())
    num_vars, clauses, varmap, _meta = pal.cnf_encoding(F, P, ordering)
    assert num_vars == len(pairs) * K and sorted(varmap) == list(range(1, num_vars + 1))

    # every colouring of the shadow, one row each
    cols = np.array(list(itertools.product(range(K), repeat=len(pairs))), dtype=np.int64)
    truth = {
        v: cols[:, pairs.index(tuple(info["pair"]))] == colors.index(info["color"])
        for v, info in varmap.items()
    }
    satisfied = np.ones(len(cols), dtype=bool)
    for clause in clauses:
        satisfied &= np.logical_or.reduce([truth[lit] if lit > 0 else ~truth[-lit] for lit in clause])

    # the pattern condition, edge by edge under the ordering
    allowed = np.zeros(K**3, dtype=bool)
    for x, y, z in P.patterns:
        allowed[(colors.index(x) * K + colors.index(y)) * K + colors.index(z)] = True
    rank = {v: r for r, v in enumerate(ordering)}
    fits = np.ones(len(cols), dtype=bool)
    for e in F.edges:
        x, y, z = sorted(e, key=rank.__getitem__)
        a, b, c = (cols[:, pairs.index(tuple(sorted(q)))] for q in ((x, y), (x, z), (y, z)))
        fits &= allowed[(a * K + b) * K + c]

    assert np.array_equal(satisfied, fits)
    res = pal.representable(F, P, fixed_ordering=ordering)
    event(f"{res.status}, symmetric={P.symmetric}")
    assert res.status == ("certificate" if fits.any() else "free")


def satisfiable(clauses) -> bool:
    """A small DPLL: unit propagation, then a split on the first literal of
    a shortest clause."""

    def assume(clauses, lit):
        return [tuple(x for x in c if x != -lit) for c in clauses if lit not in c]

    def solve(clauses):
        while True:
            if any(not c for c in clauses):
                return False
            unit = next((c[0] for c in clauses if len(c) == 1), None)
            if unit is None:
                break
            clauses = assume(clauses, unit)
        if not clauses:
            return True
        lit = min(clauses, key=len)[0]
        return solve(assume(clauses, lit)) or solve(assume(clauses, -lit))

    return solve([tuple(c) for c in clauses])


def decoded(cert, varmap) -> dict:
    """The truth value of every CNF variable under a certificate: its pair
    is placed with its "first" vertex first (when the CNF has orientations)
    and, on a shadow pair, takes its colour."""
    rank = {v: r for r, v in enumerate(cert.ordering)}
    truth = {}
    for var, info in varmap.items():
        u, v = info["pair"]
        first = info.get("first", u if rank[u] < rank[v] else v)
        truth[var] = rank[first] == min(rank[u], rank[v]) and (
            "color" not in info or cert.coloring[u, v] == info["color"]
        )
    return truth


def seeded_instances():
    """F with n <= 5 against catalogue palettes, symmetric and not, and random
    palettes on up to 3 colours, from fixed seeds; K5 is free under the two
    symmetric palettes it leads with."""
    rainbow = pal.builtin("rainbow")
    yield "ee5", hg.clique(5), pal.builtin("ee5")
    yield "rainbow", hg.clique(5), pal.symmetric_closure(rainbow.patterns, rainbow.base)
    catalogue = ("tournament", "star4", "cycle5", "rainbow", "roedl", "ee6", "ramsey6")
    for seed in range(140):
        r = random.Random(seed)
        n = r.randint(3, 5)
        triples = list(itertools.combinations(range(n), 3))
        F = hg.make(n, r.sample(triples, r.randint(1, min(7, len(triples)))))
        if seed % 2:
            P = pal.builtin(catalogue[seed // 2 % len(catalogue)])
        else:
            colors = COLORS[: r.randint(1, 3)]
            base = pal.WeightedColorSet.uniform(colors)
            codes = r.sample(list(itertools.product(colors, repeat=3)), r.randint(1, len(colors) ** 2))
            if r.random() < 0.5:
                P = pal.symmetric_closure(codes, base)
            else:
                P = pal.Palette(base, frozenset(codes))
        yield seed, F, P


def test_cnf_is_satisfiable_exactly_when_representable():
    seen = set()
    for seed, F, P in seeded_instances():
        num_vars, clauses, varmap, meta = pal.cnf_encoding(F, P)
        assert sorted(varmap) == list(range(1, num_vars + 1))
        assert meta["covers_all_orderings"] is True
        res = pal.representable(F, P)
        # the fixed-ordering searches share no table with the ordering-free model
        by_ordering = any(
            pal.representable(F, P, fixed_ordering=o).found
            for o in itertools.permutations(range(F.n))
        )
        assert satisfiable(clauses) == res.found == by_ordering, seed
        if res.found:
            truth = decoded(res.certificate, varmap)
            assert all(any(truth[abs(x)] == (x > 0) for x in c) for c in clauses), seed
        seen.add((res.status, P.symmetric))
    assert seen == {(s, sym) for s in ("certificate", "free") for sym in (False, True)}
