"""The CNF export against direct evaluation of every shadow colouring.

For small F and palettes, each colouring of the shadow pairs is turned into
the truth assignment it stands for (x_{p,c} true exactly when pair p has
colour c).  The clauses of ``cnf_encoding`` must all hold exactly when every
edge's pattern under the exported ordering is a pattern of the palette, read
here straight from the edge and the colouring.  The colouring search under
the same fixed ordering must find a certificate exactly when such a colouring
exists."""

import itertools

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
