"""Exact audits against literal oracles.

The oracles enumerate the searched subsets in Gray order from the empty set
with the ``slack_*`` functions or ``BipartiteGraph.e`` and keep the first
minimum; the innermost set (C, P, Q, or the other side's B) is the set of
elements whose own slack is negative, which is its exact minimum because the
slack is additive over it.  On the smallest instances the whole witness space
is also enumerated, inner set included.
"""

import itertools
import tracemalloc
from fractions import Fraction as F

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from unidense import construct as cn
from unidense import density as dn
from unidense import hypergraph as hg
from unidense import quasirandom as qr

def examples(count):
    """Hypothesis settings: count examples, the same ones on every run."""
    return settings(
        max_examples=count,
        deadline=None,
        derandomize=True,
        database=None,
        suppress_health_check=[HealthCheck.too_slow],
    )


def gray(n):
    return [g ^ (g >> 1) for g in range(1 << n)]


def members(mask, n):
    return [i for i in range(n) if mask >> i & 1]


def first_min(scored):
    """The first (value, witness) of least value."""
    best = None
    for value, witness in scored:
        if best is None or value < best[0]:
            best = (value, witness)
    return best


def negative(elements, slack, empty_slack):
    """The elements whose own slack is negative: the best inner set."""
    return [x for x in elements if slack(x) < empty_slack]


# -- oracles ---------------------------------------------------------------------


def oracle_uniform(H, d, eta):
    return first_min(
        (dn.slack_uniform(H, d, eta, U), {"U": U}) for U in (members(m, H.n) for m in gray(H.n))
    )


def oracle_vvv(H, d, eta):
    n = H.n

    def best_b(A):  # B in ascending bitmask order
        for b in range(1 << n):
            B = members(b, n)
            empty = dn.slack_vvv(H, d, eta, A, B, [])
            C = negative(range(n), lambda z: dn.slack_vvv(H, d, eta, A, B, [z]), empty)
            yield dn.slack_vvv(H, d, eta, A, B, C), {"A": A, "B": B, "C": C}

    return first_min(first_min(best_b(members(m, n))) for m in gray(n))


def oracle_ev(H, d, eta):
    n = H.n
    pairs = [(b, c) for b in range(n) for c in range(n)]

    def scored(A):
        empty = dn.slack_ev(H, d, eta, A, set())
        P = negative(pairs, lambda p: dn.slack_ev(H, d, eta, A, {p}), empty)
        return dn.slack_ev(H, d, eta, A, set(P)), {"A": A, "P": [list(p) for p in P]}

    return first_min(scored(members(m, n)) for m in gray(n))


def oracle_ee(H, d, eta):
    n = H.n
    pairs = [(b, c) for b in range(n) for c in range(n)]

    def scored(P):
        empty = dn.slack_ee(H, d, eta, P, set())
        Q = negative(pairs, lambda q: dn.slack_ee(H, d, eta, P, {q}), empty)
        witness = {"P": [list(p) for p in P], "Q": [list(q) for q in Q]}
        return dn.slack_ee(H, d, eta, P, set(Q)), witness

    return first_min(scored([pairs[i] for i in members(m, n * n)]) for m in gray(n * n))


def oracle_quasirandom(G, d):
    """(max deviation, witness_A, witness_B): the smaller side's first nonempty
    A in Gray order of largest deviation; B on the other side is the set of
    positive or of negative columns, positive on a tie."""
    transposed = G.ny < G.nx
    W = G.transpose() if transposed else G

    def scored(A):
        column = {y: W.e(A, [y]) - d * len(A) for y in range(W.ny)}
        plus = [y for y in range(W.ny) if column[y] > 0]
        minus = [y for y in range(W.ny) if column[y] < 0]
        up = W.e(A, plus) - d * len(A) * len(plus)
        down = d * len(A) * len(minus) - W.e(A, minus)
        B = plus if up >= down else minus
        return -max(up, down), (A, B)

    neg_dev, (A, B) = first_min(scored(members(m, W.nx)) for m in gray(W.nx)[1:])
    if transposed:
        A, B = B, A
    return -neg_dev / (G.nx * G.ny), A, B


def literal_density_min(H, notion, d, eta):
    """Minimum slack over the whole witness space, inner set included."""
    n = H.n
    subsets = [members(m, n) for m in range(1 << n)]
    if notion == "vvv":
        return min(dn.slack_vvv(H, d, eta, *abc) for abc in itertools.product(subsets, repeat=3))
    pairs = [(b, c) for b in range(n) for c in range(n)]
    pair_sets = [{pairs[i] for i in members(m, n * n)} for m in range(1 << n * n)]
    if notion == "ev":
        return min(dn.slack_ev(H, d, eta, A, P) for A in subsets for P in pair_sets)
    return min(dn.slack_ee(H, d, eta, P, Q) for P in pair_sets for Q in pair_sets)


def literal_max_deviation(G, d):
    return max(
        abs(G.e(members(a, G.nx), members(b, G.ny)) - d * a.bit_count() * b.bit_count())
        for a in range(1 << G.nx)
        for b in range(1 << G.ny)
    ) / (G.nx * G.ny)


# -- strategies ------------------------------------------------------------------


@st.composite
def hypergraphs(draw, min_n, max_n):
    n = draw(st.integers(min_n, max_n))
    triples = list(itertools.combinations(range(n), 3))
    # empty and complete hypergraphs make every witness tie
    kind = draw(st.sampled_from(["random", "random", "random", "empty", "complete"]))
    if kind == "random":
        keep = draw(st.lists(st.booleans(), min_size=len(triples), max_size=len(triples)))
        triples = list(itertools.compress(triples, keep))
    return hg.Hypergraph3(n, [] if kind == "empty" else triples)


# d = 0 and d = 1 make ties
densities = st.sampled_from([F(0), F(1), F(1, 2), F(1, 3), F(2, 3), F(1, 4), F(3, 4), F(5, 12)])
etas = st.sampled_from([F(0), F(1, 1000), F(1, 60), F(1, 20), F(1, 8), F(1, 4)])


@st.composite
def bipartite_graphs(draw):
    nx, ny = draw(st.integers(1, 5)), draw(st.integers(1, 5))  # ny < nx is transposed
    kind = draw(st.sampled_from(["random", "random", "random", "empty", "complete"]))
    if kind == "complete":
        return qr.BipartiteGraph.complete(nx, ny)
    if kind == "empty":
        return qr.BipartiteGraph.from_edges(nx, ny, [])
    rows = draw(st.lists(st.integers(0, (1 << ny) - 1), min_size=nx, max_size=nx))
    return qr.BipartiteGraph(nx, ny, tuple(rows))


# -- properties ------------------------------------------------------------------


def assert_report(rep, oracle):
    value, witness = oracle
    assert rep.mode == "exact"
    assert (rep.min_slack, rep.worst_witness) == (value, witness)


@examples(100)
@given(hypergraphs(3, 8), densities, etas)
def test_uniform_matches_gray_order_oracle(H, d, eta):
    assert_report(dn.audit_uniform_dense(H, d, eta), oracle_uniform(H, d, eta))


@examples(40)
@given(hypergraphs(2, 4), densities, etas)
def test_vvv_matches_gray_order_oracle(H, d, eta):
    rep = dn.audit_star_dense(H, "vvv", d, eta)
    assert_report(rep, oracle_vvv(H, d, eta))
    if H.n <= 2:
        assert rep.min_slack == literal_density_min(H, "vvv", d, eta)


@examples(100)
@given(hypergraphs(2, 5), densities, etas)
def test_ev_matches_gray_order_oracle(H, d, eta):
    rep = dn.audit_star_dense(H, "ev", d, eta)
    assert_report(rep, oracle_ev(H, d, eta))
    if H.n <= 2:
        assert rep.min_slack == literal_density_min(H, "ev", d, eta)


@examples(40)
@given(hypergraphs(2, 3), densities, etas)
def test_ee_matches_gray_order_oracle(H, d, eta):
    rep = dn.audit_star_dense(H, "ee", d, eta)
    assert_report(rep, oracle_ee(H, d, eta))
    if H.n <= 1:
        assert rep.min_slack == literal_density_min(H, "ee", d, eta)


@examples(150)
@given(bipartite_graphs(), densities, st.sampled_from([F(0), F(1, 10), F(1, 4)]))
def test_quasirandom_matches_gray_order_oracle(G, d, delta):
    rep = qr.audit_quasirandom(G, delta, d)
    max_dev, A, B = oracle_quasirandom(G, d)
    assert rep.mode == "exact"
    assert (rep.max_deviation, rep.witness_A, rep.witness_B) == (max_dev, tuple(A), tuple(B))
    assert rep.max_deviation == literal_max_deviation(G, d)
    assert rep.ok == (max_dev <= delta) and rep.slack == delta - max_dev


@pytest.mark.parametrize("n", [0, 1, 2])
def test_degenerate_sizes(n):
    H = hg.Hypergraph3(n, [])
    for d, eta in [(F(0), F(0)), (F(1), F(0)), (F(1, 2), F(1, 9))]:
        assert_report(dn.audit_uniform_dense(H, d, eta), oracle_uniform(H, d, eta))
        assert_report(dn.audit_star_dense(H, "vvv", d, eta), oracle_vvv(H, d, eta))
        assert_report(dn.audit_star_dense(H, "ev", d, eta), oracle_ev(H, d, eta))
        assert_report(dn.audit_star_dense(H, "ee", d, eta), oracle_ee(H, d, eta))


def test_literal_spaces_agree_on_small_instances():
    # the marginal rule for the inner set against the whole witness space
    H = hg.Hypergraph3(3, [(0, 1, 2)])
    for d, eta in [(F(1, 3), F(1, 40)), (F(0), F(0)), (F(1), F(1, 7))]:
        assert oracle_vvv(H, d, eta)[0] == literal_density_min(H, "vvv", d, eta)
        assert oracle_ev(H, d, eta)[0] == literal_density_min(H, "ev", d, eta)
    H2 = hg.Hypergraph3(2, [])
    assert oracle_ee(H2, F(1, 2), F(1, 9))[0] == literal_density_min(H2, "ee", F(1, 2), F(1, 9))


# -- the float64 bound --------------------------------------------------------------

# scale = d.denominator * eta.denominator sits at the 10^9 guard of _scaled
AT_GUARD = [(F(3, 7), F(1, 142857142)), (F(999999999, 10**9), F(0)), (F(1, 125), F(7, 8000000))]
# eta's numerator is beyond 2^63, so eta n^3 only fits a Python int
HUGE_ETA = (F(1, 2 * 10**8), F(2**64 + 3, 5))


def test_uniform_at_the_guard_matches_fraction_brute_force():
    H = cn.tournament_hypergraph(9, 4)
    for d, eta in AT_GUARD + [HUGE_ETA]:
        assert d.denominator * eta.denominator <= 10**9
        rep = dn.audit_uniform_dense(H, d, eta)
        want = min(dn.slack_uniform(H, d, eta, members(m, 9)) for m in range(1 << 9))
        assert rep.min_slack == want
        assert dn.slack_uniform(H, d, eta, rep.worst_witness["U"]) == want


def test_ev_at_the_guard_matches_fraction_brute_force():
    H = cn.tournament_hypergraph(3, 0)
    big = cn.roedl_hypergraph(6, 2)
    for d, eta in AT_GUARD + [HUGE_ETA]:
        rep = dn.audit_star_dense(H, "ev", d, eta)
        assert rep.min_slack == literal_density_min(H, "ev", d, eta)
        big_rep = dn.audit_star_dense(big, "ev", d, eta)
        assert (big_rep.min_slack, big_rep.worst_witness) == oracle_ev(big, d, eta)


def oracle_vvv_from_counts(H):
    """oracle_vvv for several thresholds at once: counts[a][b][z] is
    count_vvv(A, B, {z}) for the bitmasks a, b, and z joins C when its count
    is below d |A| |B|, compared in integers."""
    n = H.n
    subsets = [members(m, n) for m in range(1 << n)]
    counts = [[[dn.count_vvv(H, A, B, [z]) for z in range(n)] for B in subsets] for A in subsets]

    def oracle(d, eta):
        p, q = d.numerator, d.denominator

        def best_b(a):
            for b, B in enumerate(subsets):
                row, ab = counts[a][b], len(subsets[a]) * len(B)
                C = [z for z in range(n) if q * row[z] < p * ab]
                slack = F(sum(q * row[z] - p * ab for z in C), q) + eta * n**3
                yield slack, {"A": subsets[a], "B": B, "C": C}

        return first_min(first_min(best_b(a)) for a in gray(n))

    return oracle


# budgets that cut the sweep into single masks, uniform's pair-completion
# products into single vertices and vvv's chunk terms and replay into single
# B; into runs of one high set, two vertices, eight B and five B; and into
# the default pieces
@pytest.mark.parametrize("budget", [1, 1 << 10, 1 << 20])
def test_reports_do_not_depend_on_the_chunk_budget(budget, monkeypatch):
    monkeypatch.setattr(hg, "_CHUNK_BYTES", budget)
    d, eta = F(1, 4), F(1, 10)
    for H in (cn.tournament_hypergraph(8, 1), cn.roedl_hypergraph(8, 2)):
        assert_report(dn.audit_uniform_dense(H, d, eta), oracle_uniform(H, d, eta))
    H = cn.roedl_hypergraph(6, 2)
    rep = dn.audit_star_dense(H, "vvv", d, eta, exact_threshold=6)
    assert_report(rep, oracle_vvv_from_counts(H)(d, eta))


def test_vvv_at_the_guard_matches_fraction_brute_force():
    # every term of the exact vvv sweep, slack and all, is one float64 product
    for H in (cn.tournament_hypergraph(6, 1), cn.roedl_hypergraph(6, 2)):
        oracle = oracle_vvv_from_counts(H)
        for d, eta in AT_GUARD + [HUGE_ETA]:
            rep = dn.audit_star_dense(H, "vvv", d, eta)
            assert (rep.min_slack, rep.worst_witness) == oracle(d, eta)
            assert dn.slack_vvv(H, d, eta, **rep.worst_witness) == rep.min_slack


def test_ee_at_the_guard_matches_fraction_brute_force():
    H = hg.Hypergraph3(2, [])
    big = hg.Hypergraph3(3, [(0, 1, 2)])
    for d, eta in AT_GUARD + [HUGE_ETA]:
        rep = dn.audit_star_dense(H, "ee", d, eta)
        assert rep.min_slack == literal_density_min(H, "ee", d, eta)
        big_rep = dn.audit_star_dense(big, "ee", d, eta)
        assert (big_rep.min_slack, big_rep.worst_witness) == oracle_ee(big, d, eta)


def test_quasirandom_int64_limit_matches_fraction_brute_force():
    # q |X| |Y| just below 2^63 stays on int64, at 2^63 and beyond on Python ints
    cases = [((4, 5), q) for q in ((2**63 - 1) // 20, 2**63 // 20 + 1, 10**9)]
    # below 2^53 the sweep's tables are float64: the sides hit 2^53 - 1 (whose
    # least prime factor is 6361), 2^53 and 2^53 + 1 (which 3 divides) exactly
    at_float_limit = [((1, 6361), (2**53 - 1) // 6361), ((4, 4), 2**49), ((1, 3), (2**53 + 1) // 3)]
    assert [q * nx * ny for (nx, ny), q in at_float_limit] == [2**53 - 1, 2**53, 2**53 + 1]
    for (nx, ny), q in cases + at_float_limit:
        for G in (qr.BipartiteGraph.random(nx, ny, 0.5, 11), qr.BipartiteGraph.complete(nx, ny)):
            for d in (F(1, q), F(q - 1, q)):
                rep = qr.audit_quasirandom(G, F(1, 10), d)
                max_dev, A, B = oracle_quasirandom(G, d)
                assert rep.max_deviation == max_dev
                assert (rep.witness_A, rep.witness_B) == (tuple(A), tuple(B))
                if nx * ny <= 20:
                    assert rep.max_deviation == literal_max_deviation(G, d)


def test_sweep_refuses_more_than_62_bits():
    with pytest.raises(ValueError, match="out of reach"):
        hg.subset_sweep(63, None, 1, None, None, None)


def test_sweep_refuses_values_beyond_float64():
    # scale n^3 = 10^9 * 209^3 passes 2^53; 208^3 would not
    H = hg.Hypergraph3(209, [])
    d, eta = F(1, 10**9), F(0)
    with pytest.raises(ValueError, match="out of reach"):
        dn.audit_uniform_dense(H, d, eta, exact_threshold=209)
    for star in ("ev", "ee"):
        with pytest.raises(ValueError, match="out of reach"):
            dn.audit_star_dense(H, star, d, eta, exact_threshold=209)


# -- the sweep plan ----------------------------------------------------------------

MIB = 1 << 20


def audit_of(notion, n, bits):
    """The audit of one notion on an instance of size n, exact up to bits."""
    if notion == "quasirandom":
        G = qr.BipartiteGraph.random(n, n, 0.5, 0)
        return lambda: qr.audit_quasirandom(G, F(1, 5), F(1, 2), exact_bits=bits)
    H = cn.tournament_hypergraph(n, 0)
    H.thirds(0, 1)  # the pair rows are built before the audit is traced
    if notion == "uniform":
        return lambda: dn.audit_uniform_dense(H, F(1, 4), F(1, 10), exact_threshold=bits)
    return lambda: dn.audit_star_dense(H, notion, F(1, 4), F(1, 10), exact_threshold=bits)


def traced_peak(run):
    tracemalloc.start()
    try:
        run()
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    return peak


NOTIONS = ["uniform", "vvv", "ev", "ee", "quasirandom"]


# every notion past 62 bits, and exact ev at n = 40, within 62 bits but past
# the cap: its two split tables want 2^20 rows of 1600 cells
@pytest.mark.parametrize("notion, n", [(notion, 70) for notion in NOTIONS] + [("ev", 40)])
def test_plan_refuses_before_allocating(notion, n):
    audit = audit_of(notion, n, n)

    def run():
        with pytest.raises(ValueError, match="out of reach"):
            audit()

    assert traced_peak(run) < 16 * MIB


def test_check_sweep_limits():
    hg.check_sweep(62, hg._TABLE_CELLS, 2**53 - 1)
    for nbits, cells, bound in [(63, 0, 0), (0, hg._TABLE_CELLS + 1, 0), (0, 0, 2**53)]:
        with pytest.raises(ValueError, match="out of reach"):
            hg.check_sweep(nbits, cells, bound)


@pytest.mark.parametrize("notion", NOTIONS)
def test_sampled_audits_make_no_plan(notion, monkeypatch):
    def check(*args):
        raise AssertionError("a sampled audit planned an exact sweep")

    monkeypatch.setattr(qr if notion == "quasirandom" else dn, "check_sweep", check)
    assert audit_of(notion, 8, 7)().mode == "sampled"


class _Built(Exception):
    pass


# sizes whose tables take at least 16 MiB; each builds in well under a second.
# quasirandom's tables are int16 at d = 1/2, a quarter of float64's bytes
@pytest.mark.parametrize("notion, n", [
    ("uniform", 30), ("vvv", 16), ("ev", 24), ("ee", 6), ("quasirandom", 34),
])
def test_plan_bounds_the_tables_it_builds(notion, n, monkeypatch):
    module = qr if notion == "quasirandom" else dn
    declared = []

    def check(nbits, cells, bound):
        declared.append(cells)
        hg.check_sweep(nbits, cells, bound)

    def built(*args):
        raise _Built

    monkeypatch.setattr(module, "check_sweep", check)
    monkeypatch.setattr(module, "subset_sweep", built)
    audit = audit_of(notion, n, n)

    def run():
        with pytest.raises(_Built):
            audit()

    peak = traced_peak(run)
    assert len(declared) == 1
    assert 16 * MIB <= peak <= 8 * declared[0] + MIB


# the whole exact audit, sweep chunks and the replay at the winner included,
# holds at most one chunk budget beyond the tables its plan declares; from
# vvv n = 14 a chunk's terms over every B would pass the budget by themselves
@pytest.mark.parametrize("notion, n", [("uniform", 20), ("vvv", 12), ("vvv", 14)])
def test_full_audit_stays_within_its_plan(notion, n, monkeypatch):
    declared = []

    def check(nbits, cells, bound):
        declared.append(cells)
        hg.check_sweep(nbits, cells, bound)

    monkeypatch.setattr(dn, "check_sweep", check)
    peak = traced_peak(audit_of(notion, n, n))
    assert len(declared) == 1
    assert peak <= 8 * declared[0] + hg._CHUNK_BYTES


def test_vvv_replay_holds_one_chunk(monkeypatch):
    # the int64 replay at the winner takes every B in slices of the budget;
    # over all 2^10 sets B at once it would hold about 240 KiB
    budget = 1 << 16
    monkeypatch.setattr(hg, "_CHUNK_BYTES", budget)
    peaks = []

    def sweep(nbits, scores, width, flip, score, witness):
        def traced_score():
            tracemalloc.start()
            try:
                return score()
            finally:
                peaks.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()

        return hg.subset_sweep(nbits, scores, width, flip, traced_score, witness)

    monkeypatch.setattr(dn, "subset_sweep", sweep)
    rep = audit_of("vvv", 10, 10)()
    assert rep.mode == "exact" and len(peaks) == 1
    assert peaks[0] <= budget + (1 << 14)


class _Planned(Exception):
    pass


# sizes within the cap only because the plans count just the tables kept,
# not the passes' transients
@pytest.mark.parametrize("notion, n", [("uniform", 35), ("vvv", 20)])
def test_plan_admits_what_the_tables_allow(notion, n, monkeypatch):
    def check(nbits, cells, bound):
        hg.check_sweep(nbits, cells, bound)
        raise _Planned

    monkeypatch.setattr(dn, "check_sweep", check)
    audit = audit_of(notion, n, n)

    def run():
        with pytest.raises(_Planned):
            audit()

    assert traced_peak(run) < MIB


# -- memory of the sampled star audits ------------------------------------------------


@pytest.mark.parametrize("star", ["ev", "ee"])
def test_sampled_star_audit_holds_no_row_table(star):
    # the sampled mode keeps the int8 edge tensor (n^3 bytes) and an n x n term;
    # an int64 row per element would take 8 n^3 bytes for ev and 8 n^4 for ee
    n = 60
    H = cn.tournament_hypergraph(n, 0)
    tracemalloc.start()
    try:
        rep = dn.audit_star_dense(H, star, F(1, 2), F(1, 10), samples=3, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.mode == "sampled"
    assert peak < 8 * n**3
