"""The engine's buckets and trail against the dict-keyed reference engine.

``dict_solve_ternary`` in tests/test_engine_oracle.py is the reference the
engine must match: a recursive, dict-keyed search that picks each variable by
a fresh scan.  Its random CSPs stay below 5 values and 16 variables and draw
one budget each; the cases here go where the buckets and the trail could
first go wrong: domains with values at 16 and above, chains with first-use
values on 30 and more variables, and every budget of a search, so that some
stop on the first value tried after a backtrack.  The library must run the
same search node for node: same status, same assignment and the same final
node counter."""

import itertools

from hypothesis import event, given, settings
from hypothesis import strategies as st
from test_engine_oracle import closed, csps, dict_solve_ternary, dict_tables

from unidense import palette as pal

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def both(domains, cons, budget, interchangeable=False, chain=()):
    """((status, assignment), node counter) of the library engine and of the
    reference, on the same constraints given as (vars3, allowed triples)."""
    tables: dict = {}
    new, old = [], []
    for vars3, codes in cons:
        key = frozenset(codes)
        if key not in tables:
            tables[key] = pal.ternary_tables(key), dict_tables(key)
        new.append((vars3, tables[key][0]))
        old.append((vars3, tables[key][1]))
    new_counter, old_counter = [0], [0]
    got = pal.solve_ternary(domains, new, new_counter, budget, interchangeable, chain)
    want = dict_solve_ternary(domains, old, old_counter, budget, interchangeable, chain)
    return (got, new_counter[0]), (want, old_counter[0])


@st.composite
def wide_csps(draw):
    """(domains, constraints) over 2 to 24 values drawn from range(16, 64),
    so that every domain and table row is wider than 16 bits and a domain
    may hold more than 16 values."""
    values = draw(st.lists(st.integers(16, 63), min_size=2, max_size=24, unique=True))
    nvars = draw(st.integers(3, 12))
    triple = st.tuples(*[st.sampled_from(values)] * 3)
    scopes = st.sampled_from(list(itertools.permutations(range(nvars), 3)))
    cons = [
        (vars3, draw(st.sets(triple, min_size=1, max_size=30)))
        for vars3 in draw(st.lists(scopes, max_size=16))
    ]
    domain = st.sets(st.sampled_from(values), min_size=1).map(lambda s: sum(1 << x for x in s))
    return draw(st.lists(domain, min_size=nvars, max_size=nvars)), cons


@SETTINGS
@given(wide_csps(), st.none() | st.integers(0, 60))
def test_values_at_16_and_above(csp, budget):
    domains, cons = csp
    got, want = both(domains, cons, budget)
    event(want[0][0])
    assert got == want


@st.composite
def wide_colourings(draw):
    """(domains, constraints) over K = 17 to 24 interchangeable values: every
    domain full, each constraint all-equal, all-distinct or not-all-equal,
    all three invariant under every permutation of the values."""
    K = draw(st.integers(17, 24))
    triples = list(itertools.product(range(K), repeat=3))
    kinds = {
        "equal": [t for t in triples if len(set(t)) == 1],
        "distinct": [t for t in triples if len(set(t)) == 3],
        "not equal": [t for t in triples if len(set(t)) > 1],
    }
    nvars = draw(st.integers(3, 10))
    scopes = st.sampled_from(list(itertools.permutations(range(nvars), 3)))
    kind = st.sampled_from(sorted(kinds))
    cons = [(vars3, kinds[draw(kind)]) for vars3 in draw(st.lists(scopes, max_size=14))]
    return [(1 << K) - 1] * nvars, cons


@SETTINGS
@given(wide_colourings(), st.none() | st.integers(0, 60))
def test_first_use_values_at_16_and_above(csp, budget):
    domains, cons = csp
    got, want = both(domains, cons, budget, interchangeable=True)
    event(want[0][0])
    assert got == want


def test_a_level_backs_up_to_its_own_live_values():
    # five values, first use on; a = 0 and b = 1 open two colours and leave P
    # the values {0, 1}.  Under P = 0 the only live value of L is 2, a new
    # colour; it leaves M only the value 4, not yet live, so the search backs
    # out of L and tries P = 1.  That leaves L {3, 4}, none of them live
    # under the colours P's level sees, so the search ends unsat in 5 nodes;
    # with the live values of L's level (colour 3 open) it would go on to
    # L = 3
    triples = list(itertools.product(range(5), repeat=3))
    a, b, P, L, M = range(5)
    cons = [
        ((a, b, P), {t for t in triples if t[0] != t[1] and t[2] in t[:2]}),
        ((a, b, M), {t for t in triples if t[0] != t[1]}),
        ((P, L, M), {(0, 2, 4)} | {t for t in triples if t[0] >= 2 or t[1] >= 3}),
    ]
    got, want = both([0b11111] * 5, cons, None, interchangeable=True)
    assert got == want == (("unsat", None), 5)


@st.composite
def chains(draw, sizes):
    """(domains, constraints, interchangeable, chain): the colouring CSP of
    K_n, n drawn from sizes, under one table closed under the three
    coordinates' permutations and, with first-use values, under every
    permutation of the values; the chain is the pairs (0, t).  Half of the
    tables allow the triples of exactly two colours, whose searches back up
    often: with K = 2 colours they are unsat from n = 6 on (R(3, 3) = 6),
    and with K = 3 sat up to n = 10 (GR(K3; 3) = 11) after hundreds of
    nodes at n = 9 and 10."""
    K = draw(st.integers(2, 3))
    values = draw(st.booleans())
    n = draw(st.sampled_from(sizes))
    if draw(st.booleans()):
        codes = {t for t in itertools.product(range(K), repeat=3) if len(set(t)) == 2}
    else:
        triple = st.tuples(*[st.integers(0, K - 1)] * 3)
        codes = closed(draw(st.sets(triple, max_size=10)), K, values, True)
    pairs = list(itertools.combinations(range(n), 2))
    index = {p: i for i, p in enumerate(pairs)}
    cons = [
        ((index[i, j], index[i, k], index[j, k]), codes)
        for i, j, k in itertools.combinations(range(n), 3)
    ]
    chain = tuple(index[0, t] for t in range(1, n))
    return [(1 << K) - 1] * len(pairs), cons, values, chain


@SETTINGS
@given(chains((9, 10)), st.none() | st.integers(0, 1500))
def test_chains_with_first_use_values_on_30_and_more_variables(csp, budget):
    domains, cons, values, chain = csp
    got, want = both(domains, cons, budget, values, chain)
    event(f"{want[0][0]}{' +values' if values else ''}")
    assert got == want


@SETTINGS
@given(csps() | chains((5, 6, 7)))
def test_every_budget(csp):
    # a budget of b stops the search on its (b + 1)-th value, wherever that
    # falls: on a fresh level, on the next value of a level whose last value
    # failed, or on the first value tried after backing up from exhausted
    # levels, with their narrowings still on the trail
    domains, cons, interchangeable, chain = csp
    (result, nodes), want = both(domains, cons, None, interchangeable, chain)
    assert (result, nodes) == want
    for budget in range(min(nodes, 150) + 1):
        got, want = both(domains, cons, budget, interchangeable, chain)
        assert got == want
        assert got[0][0] == "budget" or nodes <= budget
