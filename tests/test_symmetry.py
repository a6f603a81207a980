"""Soundness of the symmetry rules of the constraint engine: first-use values,
the non-decreasing chain over a twin class and the orderings that list each
twin class in increasing order, each against a search that uses none of them."""

import itertools
import random
from math import factorial

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from unidense import hypergraph as hg
from unidense import palette as pal

COLORS = ("a", "b", "c")
SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)


def all_of(K):
    """Every colour permutation of range(K): the group S_K."""
    return tuple(itertools.permutations(range(K)))


def close_codes(codes, K, colours=(), coordinates=False):
    """Close colour-code triples under the group generated by the colour
    permutations in colours and/or S_3 on coordinates."""
    moves = list(colours) + [tuple(range(K))]
    orders = list(itertools.permutations(range(3))) if coordinates else [(0, 1, 2)]
    out = new = set(codes)
    while new:
        new = {tuple(g[t[i]] for i in s) for t in new for g in moves for s in orders} - out
        out |= new
    return out


# K = 3 colour groups that are proper subgroups of S_3, each generated by one
# permutation: an engine that tests S_K-invariance on one generator of S_K
# alone takes either for all of S_3
SUBGROUPS = {"transposition": (1, 0, 2), "3-cycle": (1, 2, 0)}


@st.composite
def palettes(draw):
    K = draw(st.integers(1, 3))
    kinds = ("S_K-invariant", "symmetric", "both", "neither")
    kind = draw(st.sampled_from(kinds + (tuple(SUBGROUPS) if K == 3 else ())))
    codes = draw(st.sets(st.tuples(*[st.integers(0, K - 1)] * 3), max_size=8))
    if kind in SUBGROUPS:
        codes = close_codes(codes, K, [SUBGROUPS[kind]], draw(st.booleans()))
    else:
        codes = close_codes(
            codes, K, all_of(K) if kind in ("S_K-invariant", "both") else (),
            kind in ("symmetric", "both"),
        )
    colors = COLORS[:K]
    return pal.Palette(
        pal.WeightedColorSet.uniform(colors),
        frozenset(tuple(colors[c] for c in t) for t in codes),
    )


@st.composite
def hypergraphs(draw, max_n):
    n = draw(st.integers(3, max_n))
    triples = list(itertools.combinations(range(n), 3))
    kind = draw(st.sampled_from(("clique", "random", "twins")))
    if kind == "clique":
        return hg.clique(n)
    edges = draw(st.lists(st.sampled_from(triples), min_size=1, max_size=8, unique=True))
    if kind == "twins":
        # close under every permutation of the class {0, ..., c-1}: its
        # vertices are pairwise twins; then relabel, so that twin classes
        # interleave
        c = draw(st.integers(2, n))
        edges = {
            tuple(sorted(perm[x] if x < c else x for x in e))
            for perm in itertools.permutations(range(c))
            for e in edges
        }
        label = draw(st.permutations(range(n)))
        edges = {tuple(sorted(label[x] for x in e)) for e in edges}
    return hg.make(n, edges)


def oracle_twin_classes(F):
    """Classes of the relation u ~ w iff the transposition (u w) maps E(F)
    onto itself, in order of smallest vertex."""
    E = set(F.edges)

    def swap_fixes(u, w):
        return E == {tuple(sorted(w if x == u else u if x == w else x for x in e)) for e in E}

    classes = []
    for u in range(F.n):
        if not any(u in c for c in classes):
            classes.append([u] + [w for w in range(u + 1, F.n) if swap_fixes(u, w)])
    return classes


def oracle_representable(F, P):
    """Depth-first colouring of the shadow pairs in lexicographic order, each
    edge checked once its last pair is coloured, under every ordering for an
    asymmetric palette and the identity for a symmetric one (whose pattern
    membership does not depend on the ordering)."""
    pairs = sorted(F.shadow())
    index = {p: i for i, p in enumerate(pairs)}
    orderings = [tuple(range(F.n))] if P.symmetric else itertools.permutations(range(F.n))
    for sigma in orderings:
        rank = {v: r for r, v in enumerate(sigma)}
        due = [[] for _ in pairs]
        for e in F.edges:
            x, y, z = sorted(e, key=rank.__getitem__)
            slots = tuple(index[tuple(sorted(q))] for q in ((x, y), (x, z), (y, z)))
            due[max(slots)].append(slots)
        col = [None] * len(pairs)

        def dfs(i):
            if i == len(pairs):
                return True
            for c in P.base.colors:
                col[i] = c
                fits = all((col[a], col[b], col[d]) in P.patterns for a, b, d in due[i])
                if fits and dfs(i + 1):
                    return True
            return False

        if dfs(0):
            return True
    return False


def assert_twins_increasing(F, cert):
    """The certificate lists each twin class of F in increasing order."""
    for cls in oracle_twin_classes(F):
        assert [v for v in cert.ordering if v in cls] == cls


@SETTINGS
@given(st.data())
def test_representable_agrees_with_oracle(data):
    P = data.draw(palettes())
    F = data.draw(hypergraphs(6 if P.symmetric else 5))
    assert pal._twin_classes(F) == oracle_twin_classes(F)
    res = pal.representable(F, P)
    event(f"{res.status} under {res.symmetry.name}")
    assert res.status != "inconclusive"
    assert res.found == oracle_representable(F, P)
    if res.found:
        assert pal.check_certificate(F, P, res.certificate)
        assert_twins_increasing(F, res.certificate)
    K = len(P.base.colors)
    codes = P.pattern_codes()
    invariant = codes == close_codes(codes, K, all_of(K))
    assert (K >= 2 and invariant) == res.symmetry.name.startswith(f"S{K}")


@pytest.mark.parametrize("kind", sorted(SUBGROUPS))
def test_subgroup_closed_palettes_agree_with_oracle(kind):
    """Seeded K = 3 palettes closed under one transposition or under the
    3-cycle alone: taking either group for S_3 turns some certificates into
    "free", which the symmetry names above need not reveal."""
    gen = random.Random(0)
    for _ in range(200):
        codes = {tuple(gen.randrange(3) for _ in range(3)) for _ in range(gen.randint(1, 8))}
        codes = close_codes(codes, 3, [SUBGROUPS[kind]], gen.random() < 0.5)
        P = pal.Palette(
            pal.WeightedColorSet.uniform(COLORS),
            frozenset(tuple(COLORS[c] for c in t) for t in codes),
        )
        n = gen.randint(3, 5)
        triples = list(itertools.combinations(range(n), 3))
        F = hg.make(n, gen.sample(triples, gen.randint(1, min(6, len(triples)))))
        assert pal.representable(F, P).found == oracle_representable(F, P)


def clique_csp(n, P):
    """The colouring CSP of K_n over P under the identity ordering, with the
    chain of the pairs (0, t)."""
    pairs = list(itertools.combinations(range(n), 2))
    index = {p: i for i, p in enumerate(pairs)}
    tables = pal.ternary_tables(P.pattern_codes())
    constraints = [
        ((index[i, j], index[i, k], index[j, k]), tables)
        for i, j, k in itertools.combinations(range(n), 3)
    ]
    chain = tuple(index[0, t] for t in range(1, n))
    return len(pairs), constraints, chain


@SETTINGS
@given(st.data())
def test_solve_ternary_symmetry_rules_keep_verdict(data):
    K = data.draw(st.integers(1, 3))
    codes = data.draw(st.sets(st.tuples(*[st.integers(0, K - 1)] * 3), max_size=8))
    invariant = data.draw(st.booleans())
    codes = close_codes(codes, K, all_of(K) if invariant else (), True)
    colors = COLORS[:K]
    P = pal.Palette(
        pal.WeightedColorSet.uniform(colors),
        frozenset(tuple(colors[c] for c in t) for t in codes),
    )
    n = data.draw(st.integers(3, 7))
    s, constraints, chain = clique_csp(n, P)
    full = [(1 << K) - 1] * s
    variants = [(full, constraints, 0, ()), (full, constraints, 0, chain)]
    if invariant:
        variants += [(full, constraints, 1, ()), (full, constraints, 1, chain)]
    # stride 2: value 2c + b with the colour c under the codes and b free in
    # the table but fixed by each domain, so the domains are closed under
    # colour permutations without being full; the chain needs one b for all
    doubled = pal.ternary_tables(
        (2 * a + p, 2 * b + q, 2 * c + r)
        for a, b, c in codes
        for p, q, r in itertools.product((0, 1), repeat=3)
    )
    parity = data.draw(st.sampled_from(("even", "odd", "mixed")))
    odd = [parity == "odd" or (parity == "mixed" and data.draw(st.booleans())) for _ in range(s)]
    even = sum(1 << 2 * c for c in range(K))
    halves = [even << b for b in odd]
    stride2 = [(vars3, doubled) for vars3, _tables in constraints]
    variants.append((halves, stride2, 0, ()))
    if invariant:
        variants.append((halves, stride2, 2, ()))
        if parity != "mixed":
            variants.append((halves, stride2, 2, chain))
    verdicts = set()
    for domains, cons, k, ch in variants:
        status, assign = pal.solve_ternary(domains, cons, [0], None, k, ch)
        verdicts.add(status)
        event(f"n={n} {status}")
        if status == "sat":
            colours = [x // 2 for x in assign] if cons is stride2 else assign
            assert all(
                tuple(colours[v] for v in vars3) in codes for vars3, _tables in constraints
            )
            if cons is stride2:
                assert [x % 2 for x in assign] == odd
            if ch:
                assert all(assign[a] <= assign[b] for a, b in zip(ch, ch[1:]))
    assert len(verdicts) == 1 and verdicts <= {"sat", "unsat"}


def test_twin_classes():
    assert pal._twin_classes(hg.clique(5)) == [[0, 1, 2, 3, 4]]
    # K4 minus an edge: 0 lies in all three edges, 1, 2, 3 are twins
    assert pal._twin_classes(hg.clique_minus4()) == [[0], [1, 2, 3]]
    assert pal._twin_classes(hg.make(4, [(0, 1, 2), (1, 2, 3)])) == [[0, 3], [1, 2]]


def test_symmetry_names():
    res = pal.representable(hg.clique(6), pal.builtin("ee6"))
    assert res.symmetry == pal.Symmetry("S2 x Sym(5)", 240)
    # ee5 is closed under the colour 3-cycle but not under (1 2)
    assert pal.representable(hg.clique(5), pal.builtin("ee5")).symmetry.name == "Sym(4)"
    # asymmetric palettes: one Sym(|C|) factor per twin class of F
    rainbow = pal.representable(hg.clique_minus4(), pal.builtin("rainbow"))
    assert rainbow.symmetry == pal.Symmetry("Sym(3)", 6)
    cycle5 = pal.representable(hg.cycle5(), pal.builtin("cycle5"))
    assert cycle5.symmetry == pal.NO_SYMMETRY
    two_edges = pal.representable(hg.make(6, [(0, 1, 2), (3, 4, 5)]), pal.builtin("tournament"))
    assert two_edges.symmetry == pal.Symmetry("S2 x Sym(3)^2", 72)
    fixed = pal.representable(hg.clique(4), pal.builtin("ee6"), fixed_ordering=(3, 2, 1, 0))
    assert fixed.symmetry == pal.Symmetry("S2", 2)
    assert pal.representable(hg.make(4, []), pal.builtin("ee6")).symmetry == pal.NO_SYMMETRY


@pytest.mark.parametrize("r", range(3, 9))
def test_roedl_family_is_free_against_the_clique(r):
    """No pattern hypergraph over roedl(r) contains K_{r+2}, the paper's
    Rödl-type bound (r-1)/r: K_{r+2} is one twin class, so every pair is
    oriented up front and the search takes r nodes."""
    res = pal.representable(hg.clique(r + 2), pal.builtin(f"roedl({r})"), budget=10_000)
    assert (res.status, res.nodes) == ("free", r)
    assert res.symmetry == pal.Symmetry(f"S{r} x Sym({r + 2})", factorial(r) * factorial(r + 2))
