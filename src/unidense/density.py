"""Exact counting of the three density functionals on concrete hypergraphs and
exact or sampled minimum-slack audits.

Counts are integers, thresholds are rationals, and every verdict is computed
in exact arithmetic; no float ever decides a comparison.  Each audit is one
subset search over slacks scaled to integers: the notion defines how flipping
one element of the searched set updates its counts (``flip``), the slack of
the current set (``score``) and its witness, and both modes run those three
functions, the exact mode through ``hypergraph.subset_sweep`` and the sampled
mode through ``hypergraph.subset_search``.  Exact audits label their mode
"exact" only when the witness space was fully covered: the searched sets are
enumerated, while the innermost set (C for vvv, P for ev, Q for ee) is
minimized analytically, which covers all of its 2^k choices at once because
the slack is additive over that set's elements.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb

import numpy as np

from .hypergraph import (
    Hypergraph3,
    bit_positions,
    random_masks,
    subset_search,
    subset_sweep,
)

_PERMS3 = tuple(itertools.permutations(range(3)))


# -- exact counting -----------------------------------------------------------


def count_vvv(H: Hypergraph3, A, B, C) -> int:
    """|{(a, b, c) in A x B x C : {a,b,c} in E}| (entries necessarily distinct)."""
    A, B, C = set(A), set(B), set(C)
    total = 0
    for e in H.edges:
        for p in _PERMS3:
            if e[p[0]] in A and e[p[1]] in B and e[p[2]] in C:
                total += 1
    return total


def count_ev(H: Hypergraph3, A, P) -> int:
    """|{(a, b, c) : a in A, (b, c) in P, {a,b,c} in E}|."""
    A = set(A)
    P = set(P)
    total = 0
    for e in H.edges:
        for p in _PERMS3:
            if e[p[0]] in A and (e[p[1]], e[p[2]]) in P:
                total += 1
    return total


def count_ee(H: Hypergraph3, P, Q) -> tuple[int, int]:
    """(|K(P, Q)|, |E(P, Q)|): middle-glued ordered triples and those on edges."""
    P = set(P)
    Q = set(Q)
    by_second: dict[int, int] = {}
    for _a, b in P:
        by_second[b] = by_second.get(b, 0) + 1
    by_first: dict[int, int] = {}
    for b, _c in Q:
        by_first[b] = by_first.get(b, 0) + 1
    kpq = sum(cnt * by_first.get(b, 0) for b, cnt in by_second.items())
    epq = 0
    for e in H.edges:
        for p in _PERMS3:
            if (e[p[0]], e[p[1]]) in P and (e[p[1]], e[p[2]]) in Q:
                epq += 1
    return kpq, epq


# -- slack helpers --------------------------------------------------------------


def slack_uniform(H: Hypergraph3, d, eta, U) -> Fraction:
    U = set(U)
    inside = sum(1 for e in H.edges if U.issuperset(e))
    return inside - Fraction(d) * comb(len(U), 3) + Fraction(eta) * H.n**3


def slack_vvv(H: Hypergraph3, d, eta, A, B, C) -> Fraction:
    return (
        count_vvv(H, A, B, C)
        - Fraction(d) * len(set(A)) * len(set(B)) * len(set(C))
        + Fraction(eta) * H.n**3
    )


def slack_ev(H: Hypergraph3, d, eta, A, P) -> Fraction:
    return count_ev(H, A, P) - Fraction(d) * len(set(A)) * len(set(P)) + Fraction(eta) * H.n**3


def slack_ee(H: Hypergraph3, d, eta, P, Q) -> Fraction:
    kpq, epq = count_ee(H, P, Q)
    return epq - Fraction(d) * kpq + Fraction(eta) * H.n**3


# -- reports ---------------------------------------------------------------------


@dataclass
class DensityReport:
    """Minimum-slack measurement for one density notion.

    min_slack >= 0 means no audited witness violates (d, eta, star)-density;
    mode "exact" promises the whole witness space was covered.
    """

    notion: str  # "uniform" | "vvv" | "ev" | "ee"
    mode: str  # "exact" | "sampled"
    d: Fraction
    eta: Fraction
    min_slack: Fraction
    worst_witness: dict
    space: int | None = None  # witnesses covered in exact mode
    samples: int | None = None
    seed: int | None = None
    rng_algorithm: str | None = None

    @property
    def ok(self) -> bool:
        return self.min_slack >= 0

    def to_dict(self) -> dict:
        from .io import format_fraction

        return {
            "notion": self.notion,
            "mode": self.mode,
            "d": format_fraction(self.d),
            "eta": format_fraction(self.eta),
            "min_slack": format_fraction(self.min_slack),
            "ok": self.ok,
            "worst_witness": self.worst_witness,
            "space": str(self.space) if self.space is not None else None,
            "samples": self.samples,
            "seed": self.seed,
            "rng_algorithm": self.rng_algorithm,
        }


def _ordered_edge_tensor(H: Hypergraph3) -> np.ndarray:
    """t[x, y, z] = 1 when {x, y, z} is an edge (so x, y, z distinct); n^3 bytes."""
    n = H.n
    t = np.zeros((n, n, n), dtype=np.int8)
    for e in H.edges:
        for p in _PERMS3:
            t[e[p[0]], e[p[1]], e[p[2]]] = 1
    return t


def _scaled(d, eta, n: int):
    """Validated (d, eta, scale, d_term, eta_term) for integer slacks.

    A slack times scale is an integer: each counted witness contributes
    d_term = d * scale, and the eta n^3 allowance is eta_term.
    """
    d, eta = Fraction(d), Fraction(eta)
    if not 0 <= d <= 1:
        raise ValueError(f"density d={d} outside [0, 1]")
    if eta < 0:
        raise ValueError(f"eta={eta} must be nonnegative")
    scale = d.denominator * eta.denominator
    if scale > 10**9:
        raise ValueError("threshold denominators too large for the scaled audit")
    return d, eta, scale, d.numerator * eta.denominator, eta.numerator * d.denominator * n**3


def _rng(seed):
    return np.random.Generator(np.random.PCG64(seed))


def _exact(notion, d, eta, scale, result, space: int) -> DensityReport:
    best, witness = result
    return DensityReport(notion, "exact", d, eta, Fraction(best, scale), witness, space=space)


def _sampled(notion, d, eta, scale, result, samples: int, seed) -> DensityReport:
    best, witness = result
    return DensityReport(
        notion,
        "sampled",
        d,
        eta,
        Fraction(best, scale),
        witness,
        samples=samples,
        seed=seed,
        rng_algorithm="numpy-pcg64",
    )


def _subset_candidates(n: int, rng, samples: int) -> list[int]:
    full = (1 << n) - 1
    cands = [0, full]
    cands += [1 << v for v in range(min(n, 40))]
    cands += [full ^ (1 << v) for v in range(min(n, 40))]
    return cands + random_masks(n, rng, samples)


# -- uniform audit -----------------------------------------------------------------


def audit_uniform_dense(
    H: Hypergraph3,
    d,
    eta,
    exact_threshold: int = 22,
    samples: int = 2000,
    seed: int = 0,
) -> DensityReport:
    """min over U of |U^(3) cap E| - d C(|U|,3) + eta n^3.

    Exact (Gray-code over all 2^n subsets) when n <= exact_threshold; sampled
    subsets at several densities plus single-flip descent otherwise.
    """
    d, eta, scale, d_term, eta_term = _scaled(d, eta, H.n)
    n = H.n
    thirds = [[H.thirds(v, x) for x in range(n)] for v in range(n)]
    binom_term = [d_term * comb(u, 3) for u in range(n + 1)]
    mask = size = inside = 0

    def flip(v):
        nonlocal mask, size, inside
        mask ^= 1 << v
        # edges {v, x, y} with x, y in U, each seen once from x and once from y
        row, rest, k = thirds[v], mask, 0
        while rest:
            low = rest & -rest
            k += (row[low.bit_length() - 1] & mask).bit_count()
            rest ^= low
        k //= 2
        if mask >> v & 1:
            size, inside = size + 1, inside + k
        else:
            size, inside = size - 1, inside - k

    def score():
        return inside * scale - binom_term[size] + eta_term

    def witness():
        return {"U": bit_positions(mask)}

    if n <= exact_threshold:
        return _exact("uniform", d, eta, scale, subset_sweep(n, flip, score, witness), 1 << n)
    cands = _subset_candidates(n, _rng(seed), samples)
    result = subset_search(n, flip, score, witness, cands)
    return _sampled("uniform", d, eta, scale, result, len(cands), seed)


# -- star audits ---------------------------------------------------------------------


def audit_star_dense(
    H: Hypergraph3,
    star: str,
    d,
    eta,
    exact_threshold: int | None = None,
    samples: int = 2000,
    seed: int = 0,
) -> DensityReport:
    """Minimum-slack audit for one of the three set-wise density notions.

    Exact thresholds (on n) default to 8 for vvv, 12 for ev, 4 for ee: the
    outer sets are enumerated and the inner set optimized analytically, which
    is an exhaustive audit of the full witness space.  Beyond the threshold,
    random witnesses at several densities (plus degenerate shapes) are taken
    and refined by best-response and single-flip descent; the report records
    the sampled mode, sample count, and seed.
    """
    audits = {"vvv": (8, _vvv_audit), "ev": (12, _ev_audit), "ee": (4, _ee_audit)}
    if star not in audits:
        raise ValueError(f"unknown density notion {star!r}")
    default, audit = audits[star]
    threshold = default if exact_threshold is None else exact_threshold
    return audit(H, d, eta, H.n <= threshold, samples, seed)


def _vvv_audit(H: Hypergraph3, d, eta, exact: bool, samples: int, seed) -> DensityReport:
    """The searched set is A when exact (every B is a row of b_rows) and
    A | B << n when sampled; the best C given A and B is {z : term[B, z] < 0}."""
    d, eta, scale, d_term, eta_term = _scaled(d, eta, H.n)
    n = H.n
    t = _ordered_edge_tensor(H)
    w = np.zeros((n, n), dtype=np.int64)  # w[y, z] = #{x in A : xyz ordered edge}
    if exact:  # row b is the indicator vector of the subset B = b
        b_rows = (np.arange(1 << n)[:, None] >> np.arange(n) & 1).astype(np.int64)
    else:  # the one B of the state, held in its bits n..2n-1
        b_rows = np.zeros((1, n), dtype=np.int64)
    b_sizes = b_rows.sum(axis=1)
    mask = a_size = 0
    term = best_row = None

    def flip(i):
        nonlocal mask, a_size, w
        mask ^= 1 << i
        sign = 1 if mask >> i & 1 else -1
        if i >= n:
            b_rows[0, i - n] += sign
            b_sizes[0] += sign
        elif sign > 0:
            w += t[i]
            a_size += 1
        else:
            w -= t[i]
            a_size -= 1

    def score():
        nonlocal term, best_row
        # term[row, z]: the slack z adds when put in C, given A and that row's B
        term = scale * (b_rows @ w) - d_term * a_size * b_sizes[:, None]
        slack = np.minimum(term, 0).sum(axis=1)
        best_row = int(slack.argmin())
        return int(slack[best_row]) + eta_term

    def witness():
        return {
            "A": bit_positions(mask & ((1 << n) - 1)),
            "B": np.flatnonzero(b_rows[best_row]).tolist(),
            "C": np.flatnonzero(term[best_row] < 0).tolist(),
        }

    if exact:
        return _exact("vvv", d, eta, scale, subset_sweep(n, flip, score, witness), (1 << n) ** 3)
    rng = _rng(seed)
    cands = _subset_candidates(n, rng, samples)
    starts = [a | cands[int(rng.integers(0, len(cands)))] << n for a in cands]
    result = subset_search(2 * n, flip, score, witness, starts)
    return _sampled("vvv", d, eta, scale, result, len(starts), seed)


def _ev_audit(H: Hypergraph3, d, eta, exact: bool, samples: int, seed) -> DensityReport:
    """A enumerated or searched; the best P given A is {(b, c) : term[b, c] < 0}."""
    d, eta, scale, d_term, eta_term = _scaled(d, eta, H.n)
    n = H.n
    t = _ordered_edge_tensor(H)
    w = np.zeros((n, n), dtype=np.int64)  # w[b, c] = #{a in A : abc ordered edge}
    mask = a_size = 0
    term = None

    def flip(a):
        nonlocal mask, a_size, w
        mask ^= 1 << a
        if mask >> a & 1:
            w += t[a]
            a_size += 1
        else:
            w -= t[a]
            a_size -= 1

    def score():
        nonlocal term
        term = scale * w - d_term * a_size  # the scaled slack (b, c) adds to P
        return int(np.minimum(term, 0).sum()) + eta_term

    def witness():
        return {"A": bit_positions(mask), "P": np.argwhere(term < 0).tolist()}

    if exact:
        result = subset_sweep(n, flip, score, witness)
        return _exact("ev", d, eta, scale, result, (1 << n) * (1 << n * n))
    cands = _subset_candidates(n, _rng(seed), samples)
    result = subset_search(n, flip, score, witness, cands)
    return _sampled("ev", d, eta, scale, result, len(cands), seed)


def _ee_audit(H: Hypergraph3, d, eta, exact: bool, samples: int, seed) -> DensityReport:
    """P enumerated or searched as an n^2-bit mask, bit a*n + b for the pair
    (a, b); the best Q given P is {(b, c) : term[b, c] < 0}."""
    d, eta, scale, d_term, eta_term = _scaled(d, eta, H.n)
    n = H.n
    t = _ordered_edge_tensor(H)
    u = np.zeros((n, n), dtype=np.int64)  # u[b, c] = #{a : (a,b) in P, abc ordered edge}
    wcol = np.zeros(n, dtype=np.int64)  # wcol[b] = #{a : (a,b) in P}
    mask = 0
    term = None

    def flip(i):
        nonlocal mask
        mask ^= 1 << i
        a, b = divmod(i, n)
        if mask >> i & 1:
            u[b] += t[a, b]
            wcol[b] += 1
        else:
            u[b] -= t[a, b]
            wcol[b] -= 1

    def score():
        nonlocal term
        term = scale * u - d_term * wcol[:, None]  # the scaled slack (b, c) adds to Q
        return int(np.minimum(term, 0).sum()) + eta_term

    def witness():
        return {
            "P": [list(divmod(i, n)) for i in bit_positions(mask)],
            "Q": np.argwhere(term < 0).tolist(),
        }

    if exact:
        result = subset_sweep(n * n, flip, score, witness)
        return _exact("ee", d, eta, scale, result, (1 << n * n) ** 2)
    cands = [0, (1 << n * n) - 1] + random_masks(n * n, _rng(seed), samples)
    result = subset_search(n * n, flip, score, witness, cands)
    return _sampled("ee", d, eta, scale, result, len(cands), seed)
