"""The constraint engine against a literal copy of its dict-based form.

``dict_tables`` and ``dict_solve_ternary`` below are the engine as it was
before its tables became dense per-position lists: value tuples as dict keys,
a ``free`` list per constraint and a fail-first pick by the key
``popcount * span + tiebreak``.  The library engine must run the same search
node for node: same status, same assignment and the same final node counter,
on random ternary CSPs, with the symmetry rules where their preconditions
hold and under random budgets."""

import itertools

from hypothesis import event, given, settings
from hypothesis import strategies as st

from unidense import palette as pal

SETTINGS = settings(max_examples=300, deadline=None, derandomize=True, database=None)


def dict_tables(triples):
    allowed = frozenset(triples)
    comp2 = {}
    proj1 = {}
    for i, j in itertools.combinations(range(3), 2):
        k = 3 - i - j
        d = {}
        for t in allowed:
            d[t[i], t[j]] = d.get((t[i], t[j]), 0) | (1 << t[k])
        comp2[(i, j)] = d
    for i, j in itertools.permutations(range(3), 2):
        d2 = {}
        for t in allowed:
            d2[t[i]] = d2.get(t[i], 0) | (1 << t[j])
        proj1[(i, j)] = d2
    return allowed, comp2, proj1


_OTHER_TWO = ((1, 2), (0, 2), (0, 1))


def dict_solve_ternary(domains, constraints, counter, budget, interchangeable=False, chain=()):
    n = len(domains)
    domains = list(domains)
    assign = [-1] * n
    cons_of_var = [[] for _ in range(n)]
    for con in constraints:
        for v in con[0]:
            cons_of_var[v].append(con)
    chain = tuple(chain)
    chain_next = dict(zip(chain, chain[1:]))
    in_chain = set(chain)
    rest_vars = [v for v in range(n) if v not in in_chain]
    most = max((len(c) for c in cons_of_var), default=0)
    span = (most + 1) * n
    tiebreak = [(most - len(cons_of_var[v])) * n + v for v in range(n)]

    def propagate(var, trail):
        for vars3, (allowed, comp2, proj1) in cons_of_var[var]:
            vals = (assign[vars3[0]], assign[vars3[1]], assign[vars3[2]])
            free = [r for r in (0, 1, 2) if vals[r] < 0]
            if not free:
                if vals not in allowed:
                    return False
                continue
            if len(free) == 1:
                r = free[0]
                i, j = _OTHER_TWO[r]
                narrowing = ((vars3[r], comp2[i, j].get((vals[i], vals[j]), 0)),)
            else:
                s = 3 - free[0] - free[1]
                narrowing = [(vars3[r], proj1[s, r].get(vals[s], 0)) for r in free]
            for p, mask in narrowing:
                nd = domains[p] & mask
                if not nd:
                    return False
                if nd != domains[p]:
                    trail.append((p, domains[p]))
                    domains[p] = nd
        return True

    def bt(depth, used):
        if depth == n:
            return "sat"
        live = (1 << (used + 1)) - 1 if interchangeable else -1
        if depth < len(chain):
            var = chain[depth]
        else:
            var, best = -1, None
            for v in rest_vars:
                if assign[v] < 0:
                    key = (domains[v] & live).bit_count() * span + tiebreak[v]
                    if best is None or key < best:
                        var, best = v, key
        nxt = chain_next.get(var)
        rest = domains[var] & live
        while rest:
            c = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            counter[0] += 1
            if budget is not None and counter[0] > budget:
                return "budget"
            assign[var] = c
            trail = []
            ok = propagate(var, trail)
            if ok and nxt is not None:
                nd = domains[nxt] & -(1 << c)
                ok = nd != 0
                if ok and nd != domains[nxt]:
                    trail.append((nxt, domains[nxt]))
                    domains[nxt] = nd
            if ok:
                res = bt(depth + 1, max(used, c + 1))
                if res != "unsat":
                    return res
            for p, old in reversed(trail):
                domains[p] = old
            assign[var] = -1
        return "unsat"

    status = bt(0, 0)
    return status, (assign if status == "sat" else None)


def closed(codes, K, values, coordinates):
    """Close value triples under S_K on values and/or S_3 on coordinates."""
    out = set(codes)
    for t in codes:
        for g in itertools.permutations(range(K)) if values else [tuple(range(K))]:
            for s in itertools.permutations(range(3)) if coordinates else [(0, 1, 2)]:
                out.add(tuple(g[t[i]] for i in s))
    return out


@st.composite
def csps(draw):
    """(domains, [(vars3, triples)], interchangeable, chain) with the symmetry
    rules only where their preconditions hold."""
    K = draw(st.integers(1, 4))
    mode = draw(st.sampled_from(("plain", "interchangeable", "chain", "both")))
    values = mode in ("interchangeable", "both")
    triple = st.tuples(*[st.integers(0, K - 1)] * 3)
    if mode in ("chain", "both"):
        # the colouring CSP of K_n under one coordinate-symmetric table: every
        # permutation of the vertices 1..n-1 maps solutions to solutions and
        # sorts the values of the pairs (0, t)
        n = draw(st.integers(3, 6))
        codes = closed(draw(st.sets(triple, max_size=10)), K, values, True)
        pairs = list(itertools.combinations(range(n), 2))
        index = {p: i for i, p in enumerate(pairs)}
        cons = [
            ((index[i, j], index[i, k], index[j, k]), codes)
            for i, j, k in itertools.combinations(range(n), 3)
        ]
        chain = tuple(index[0, t] for t in range(1, n))
        return [(1 << K) - 1] * len(pairs), cons, values, chain
    nvars = draw(st.integers(3, 9))
    triples = list(itertools.permutations(range(nvars), 3))
    vars_list = draw(st.lists(st.sampled_from(triples), min_size=0, max_size=12))
    shared = closed(draw(st.sets(triple, max_size=12)), K, values, False)
    cons = []
    for vars3 in vars_list:
        own = values or draw(st.booleans())
        codes = shared if own else closed(draw(st.sets(triple, max_size=12)), K, False, False)
        cons.append((vars3, codes))
    if values:
        domains = [(1 << K) - 1] * nvars
    else:
        domain = st.integers(1, (1 << K) - 1) | st.just(0)
        domains = draw(st.lists(domain, min_size=nvars, max_size=nvars))
    return domains, cons, values, ()


@SETTINGS
@given(csps(), st.none() | st.integers(0, 25))
def test_engine_matches_dict_engine(csp, budget):
    domains, cons, interchangeable, chain = csp
    new_tables = {}
    old_tables = {}
    new_cons, old_cons = [], []
    for vars3, codes in cons:
        key = frozenset(codes)
        if key not in new_tables:
            new_tables[key] = pal.ternary_tables(codes)
            old_tables[key] = dict_tables(codes)
        new_cons.append((vars3, new_tables[key]))
        old_cons.append((vars3, old_tables[key]))
    new_counter, old_counter = [0], [0]
    got = pal.solve_ternary(domains, new_cons, new_counter, budget, interchangeable, chain)
    want = dict_solve_ternary(domains, old_cons, old_counter, budget, interchangeable, chain)
    event(f"{want[0]}{' +chain' if chain else ''}{' +values' if interchangeable else ''}")
    assert got == want
    assert new_counter == old_counter


@st.composite
def small_csps(draw):
    """(domains, [(vars3, triples)], interchangeable) small enough to enumerate;
    interchangeable only where its preconditions hold."""
    K = draw(st.integers(1, 3))
    values = draw(st.booleans())
    nvars = draw(st.integers(1, 6))
    triple = st.tuples(*[st.integers(0, K - 1)] * 3)
    scopes = list(itertools.permutations(range(nvars), 3))
    shared = closed(draw(st.sets(triple, max_size=10)), K, values, False)
    cons = []
    for v3 in draw(st.lists(st.sampled_from(scopes), max_size=8)) if scopes else []:
        own = values or draw(st.booleans())
        cons.append((v3, shared if own else set(draw(st.sets(triple, max_size=10)))))
    full = (1 << K) - 1
    domain = st.just(full) if values else st.integers(1, full)
    return draw(st.lists(domain, min_size=nvars, max_size=nvars)), cons, values


def brute_solutions(domains, cons):
    """Every assignment within the domains that meets every constraint."""
    choices = [[c for c in range(d.bit_length()) if d >> c & 1] for d in domains]
    return {
        a
        for a in itertools.product(*choices)
        if all(tuple(a[v] for v in v3) in codes for v3, codes in cons)
    }


def first_use(a):
    """The relabelling of a by values in order of first use along the variables."""
    seen = {}
    return tuple(seen.setdefault(c, len(seen)) for c in a)


@SETTINGS
@given(small_csps())
def test_accept_hook_sees_every_solution(csp):
    # a hook that answers "unsat" turns the search into an enumeration: with
    # no symmetry rule it meets every solution once, and with interchangeable
    # values one first-use representative of each solution's orbit
    domains, cons, interchangeable = csp
    seen = []

    def record(assign):
        seen.append(tuple(assign))
        return "unsat"

    tables = {}
    compiled = [(v3, tables.setdefault(frozenset(c), pal.ternary_tables(c))) for v3, c in cons]
    got = pal.solve_ternary(domains, compiled, [0], None, interchangeable, accept=record)
    assert got == ("unsat", None)
    want = brute_solutions(domains, cons)
    assert len(seen) == len(set(seen)) and set(seen) <= want
    if interchangeable:
        assert {first_use(a) for a in seen} == {first_use(a) for a in want}
        assert len(seen) == len({first_use(a) for a in want})
    else:
        assert set(seen) == want
    event(f"{len(want)} solutions{' +values' if interchangeable else ''}")


def test_accept_hook_answers_end_the_search():
    # x0 < x1 < x2 over three values has the one solution (0, 1, 2)
    tables = pal.ternary_tables([(0, 1, 2)])
    calls = []

    def answer(status):
        def hook(assign):
            calls.append(tuple(assign))
            return status
        return hook

    for status, want in (("sat", ("sat", [0, 1, 2])), ("unsat", ("unsat", None)),
                         ("budget", ("budget", None))):
        calls.clear()
        counter = [0]
        got = pal.solve_ternary([7, 7, 7], [((0, 1, 2), tables)], counter, 100, accept=answer(status))
        assert got == want and calls == [(0, 1, 2)]
