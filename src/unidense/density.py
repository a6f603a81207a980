"""Exact counting of the three density functionals on concrete hypergraphs and
exact or sampled minimum-slack audits.

Counts are integers, thresholds are rationals, and every verdict is computed
in exact arithmetic; no float ever decides a comparison.  Each audit is one
subset search over slacks scaled to integers: the notion defines how flipping
one element of the searched set updates its counts (``flip``), the slack of
the current set (``score``) and its witness.  The sampled mode runs those
through ``hypergraph.subset_search``, with the notion's vectorised ``rate``
of a chunk of candidate sets (uniform: popcounts of the pair rows; vvv, ev,
ee: products of the candidates' indicator rows by slices of the int8 edge
tensor, whose counts are formed in float64 and the slacks from them in the
dtype of ``score``), and descends from the best by flips.  The exact mode runs
``hypergraph.subset_sweep``, which rates every searched set in chunks of
consecutive bitmasks with the notion's vectorised ``scores``, read off
split-half tables (uniform: edge and pair-completion counts of each half;
vvv, ev, ee: subset sums of per-element rows), and then replays ``flip`` to
the winner for its witness.  Exact audits label their mode "exact" only when
the witness space was fully covered: the searched sets are enumerated, while
the innermost set (C for vvv, P for ev, Q for ee) is minimized analytically,
which covers all of its 2^k choices at once because the slack is additive
over that set's elements.

The exact ``scores`` kernels compute in float64, so that numpy's products
run on BLAS, and hand int64 back to the sweep.  Every value they hold is an
integer, and float64 adds and multiplies integers exactly, in any order and
with fused multiply-adds, while every operand and partial sum has magnitude
below 2^53.  The scaled slacks and their partial sums stay within
scale n^3, with scale <= 10^9 by ``_scaled`` and n <= 62 by the sweep's
bits (ee's n^2 bits give n <= 7), so within 10^9 * 62^3 < 2.4 * 10^14, far
below 2^53 ~ 9.0 * 10^15.  Before it builds anything, each exact branch
declares its bits, the cells of its tables as a function of n and this
bound to ``hypergraph.check_sweep``, the one refusal of a sweep out of
reach.  The flips and score() that replay the winner stay in int64, so the
replay checks the float64 table independently.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb

import numpy as np

from .hypergraph import (
    RNG_ALGORITHM,
    Hypergraph3,
    bit_positions,
    check_sweep,
    chunk_len,
    random_masks,
    rng,
    split_cells,
    split_sums,
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
    t = np.zeros((H.n,) * 3, dtype=np.int8)
    for p in _PERMS3:
        t[tuple(H.array[:, p].T)] = 1
    return t


def _scaled(d, eta, n: int):
    """Validated (d, eta, scale, d_term, eta_term) for integer slacks.

    A slack times scale is an integer: each counted witness contributes
    d_term = d * scale <= scale, and the eta n^3 allowance is eta_term.  The
    guard scale <= 10^9 keeps the scaled slacks without their eta term below
    2^53, exact in the float64 kernels (each notion's docstring gives its
    bound); eta's numerator is unbounded, so eta_term is a Python int added
    after the minimum.
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


def _exact(notion, d, eta, scale, eta_term, result, space: int) -> DensityReport:
    best, witness = result
    return DensityReport(
        notion, "exact", d, eta, Fraction(best + eta_term, scale), witness, space=space
    )


def _sampled(notion, d, eta, scale, eta_term, result, samples: int, seed) -> DensityReport:
    best, witness = result
    return DensityReport(
        notion,
        "sampled",
        d,
        eta,
        Fraction(best + eta_term, scale),
        witness,
        samples=samples,
        seed=seed,
        rng_algorithm=RNG_ALGORITHM,
    )


def _subset_candidates(n: int, gen, samples: int) -> list[int]:
    full = (1 << n) - 1
    cands = [0, full]
    cands += [1 << v for v in range(min(n, 40))]
    cands += [full ^ (1 << v) for v in range(min(n, 40))]
    return cands + random_masks(n, gen, samples)


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

    Exact (all 2^n subsets, rated from split-half tables by
    ``_uniform_scores``) when n <= exact_threshold; sampled subsets at several
    densities plus single-flip descent otherwise.  The scaled slack without
    its eta term lies in [-scale C(n,3), scale C(n,3)] with scale <= 10^9:
    below 2^53 for the exact sweep's n <= 62.  eta_term is added as a Python
    int afterwards.
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
        return inside * scale - binom_term[size]

    def witness():
        return {"U": bit_positions(mask)}

    if n <= exact_threshold:
        hi = n - n // 2  # see _uniform_scores for the tables over the two halves
        check_sweep(n, (4 * n + 8 << hi) + 3 * n**3, scale * n**3)
        scores = _uniform_scores(H, scale, np.array(binom_term, dtype=np.int64))
        result = subset_sweep(n, scores, 4, flip, score, witness)
        return _exact("uniform", d, eta, scale, eta_term, result, 1 << n)
    cands = _subset_candidates(n, rng(seed), samples)
    rate, width = _uniform_rate(H, scale, binom_term)
    result = subset_search(n, rate, width, flip, score, witness, cands)
    return _sampled("uniform", d, eta, scale, eta_term, result, len(cands), seed)


def _uniform_rate(H: Hypergraph3, scale: int, binom_term: list[int]):
    """(rate, width) of the sampled uniform search, from the pair rows.

    Each edge inside U completes each of its three pairs with a vertex of U,
    so e(U) is a third of the sum, over the shadow pairs {u, v} in U, of
    bitwise_count(thirds row & U).  rate(rows) returns scale e(U) less the
    binomial term of each 0/1 row, in int64 while scale C(n, 3) fits it,
    else in Python ints, as score() computes it.  A row holds at most 20
    bytes per shadow pair at once (its pair indicators, one word's AND and
    count, and the int64 counts), which width declares in 8-byte cells.
    """
    n = H.n
    keys, pair_rows = H._pair_rows()
    u, v = np.divmod(keys, n)
    words = pair_rows.shape[1]
    dtype = np.int64 if scale * comb(n, 3) < 2**63 else object
    binoms = np.array(binom_term, dtype=dtype)

    def rate(rows):
        packed = np.zeros((len(rows), 8 * words), dtype=np.uint8)
        packed[:, : (n + 7) // 8] = np.packbits(rows, axis=1, bitorder="little")
        U = packed.view("<u8")
        both = rows[:, u] & rows[:, v]
        thirds = np.zeros(both.shape, dtype=np.int64)
        for w in range(words):
            thirds += np.bitwise_count(pair_rows[:, w] & U[:, w, None])
        thirds *= both
        inside = thirds.sum(axis=1) // 3
        return inside.astype(dtype) * scale - binoms[rows.sum(axis=1)]

    return rate, 3 * len(keys) + words


def _indicator_rows(k: int) -> np.ndarray:
    """Row m is the 0/1 indicator vector of the subset m of {0, ..., k-1}."""
    return np.arange(1 << k)[:, None] >> np.arange(k) & 1


def _uniform_scores(H: Hypergraph3, scale: int, binom_term: np.ndarray):
    """scores(masks) of the exact uniform sweep, from split-half tables.

    With V split into the low vertices 0..h-1 and the high ones h..n-1, the
    edges inside U = U_lo | U_hi number
    e(U_lo) + e(U_hi) + P_lo[U_lo] @ 1[U_hi] + 1[U_lo] @ Q_hi[U_hi], where
    P_lo[m, j] counts the pairs of the low set m that complete an edge with
    the high vertex h + j, Q_hi[m, i] counts the pairs of the high set m that
    complete one with the low vertex i, and 1[.] is a set's indicator row.
    Consecutive masks run through every low set for each high set in turn, so
    a chunk is rated as a block of high sets by all low sets, or as a run of
    low sets of one high set: scale e(U) is one float64 product of
    scale [1[U_hi], Q_hi, e(U_hi), 1] by [P_lo^T; 1[U_lo]^T; 1; e(U_lo)],
    less the binomial term, read off a table by |U_hi| and U_lo.  With the
    indicator rows of both halves and the three n^3 edge tensors, the tables
    hold at most 2^(n-h) (4n + 8) + 3n^3 cells, which the caller declares;
    the pair-completion counts are built in vertex blocks within
    ``chunk_len``.
    """
    n = H.n
    h = n // 2
    # links[c, a, b] = 1 when {a, b, c} is an edge and a < b
    links = np.triu(_ordered_edge_tensor(H).astype(np.float64), 1)
    lo, hi = slice(0, h), slice(h, n)
    lo_ind = _indicator_rows(h).astype(np.float64)
    hi_ind = _indicator_rows(n - h).astype(np.float64)

    def completing(ind, part_links):
        # [m, k]: pairs of the set m that complete an edge with the k-th vertex,
        # one product of ind by the links of each block of vertices
        k, a, b = part_links.shape
        out = np.empty((len(ind), k))
        step = chunk_len(8 * len(ind) * b)
        for v in range(0, k, step):
            block = part_links[v : v + step]
            ends = ind @ block.transpose(1, 0, 2).reshape(a, len(block) * b)
            ends = ends.reshape(len(ind), len(block), b)
            np.einsum("mkb,mb->mk", ends, ind, out=out[:, v : v + step])
        return out

    # an edge inside a half completes one of its pairs with each of its 3 vertices
    e_lo = (lo_ind * completing(lo_ind, links[lo, lo, lo])).sum(axis=1) // 3
    e_hi = (hi_ind * completing(hi_ind, links[hi, hi, hi])).sum(axis=1) // 3
    ones_hi, ones_lo = np.ones(len(hi_ind)), np.ones(len(lo_ind))
    left = np.column_stack([hi_ind, completing(hi_ind, links[lo, hi, hi]), e_hi, ones_hi])
    left *= scale
    right = np.vstack([completing(lo_ind, links[hi, lo, lo]).T, lo_ind.T, ones_lo, e_lo])
    # binoms[s, m]: the binomial term of U with s high vertices and U_lo = m
    lo_size = lo_ind.sum(axis=1).astype(np.int64)
    binoms = np.empty((n - h + 1, len(lo_size)))
    for size, row in enumerate(binoms):
        row[:] = binom_term[size + lo_size]
    hi_size = hi_ind.sum(axis=1).astype(np.int64)

    def scores(masks):
        # an aligned chunk is a run of low sets of one high set, or whole high sets
        first, last = int(masks[0]) >> h, int(masks[-1]) >> h
        start = int(masks[0]) & (1 << h) - 1
        low = slice(start, start + len(masks))
        inside = left[first : last + 1] @ right[:, low]
        inside -= binoms[hi_size[first : last + 1], low]
        return inside.ravel().astype(np.int64)

    return scores


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
    A | B << n when sampled; the best C given A and B is {z : term[B, z] < 0}.

    Each term entry lies in [-scale n^2, scale n^2] and a slack in
    [-scale n^3, 0], scale <= 10^9: below 2^53 for the exact sweep's n <= 62.
    """
    d, eta, scale, d_term, eta_term = _scaled(d, eta, H.n)
    n = H.n
    t = _ordered_edge_tensor(H)
    w = np.zeros((n, n), dtype=np.int64)  # w[y, z] = #{x in A : xyz ordered edge}
    # sampled: the one B of the state, held in its bits n..2n-1
    b_rows = np.zeros((1, n), dtype=np.int64)
    b_sizes = np.zeros(1, dtype=np.int64)
    mask = a_size = 0
    best_b = best_term = None

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
        # the least slack over the B of b_rows, the first on ties, taken over
        # slices of b_rows whose int64 temporaries fit chunk_len
        nonlocal best_b, best_term
        best = None
        step = chunk_len(8 * (4 * n + 1))
        for start in range(0, len(b_rows), step):
            rows = b_rows[start : start + step]
            # term[row, z]: the slack z adds when put in C, given A and that row's B
            term = scale * (rows @ w) - d_term * a_size * b_sizes[start : start + step, None]
            slack = np.minimum(term, 0).sum(axis=1)
            k = int(slack.argmin())
            if best is None or slack[k] < best:
                best, best_b, best_term = int(slack[k]), rows[k].copy(), term[k].copy()
        return best

    def witness():
        return {
            "A": bit_positions(mask & ((1 << n) - 1)),
            "B": np.flatnonzero(best_b).tolist(),
            "C": np.flatnonzero(best_term < 0).tolist(),
        }

    if exact:
        # the rows of every B in int64, their sizes, [1[B], |B|] in float64
        # and the split tables of scale w and -d_term |A|
        check_sweep(n, (2 * n + 2 << n) + split_cells(n, n * n + 1) + 3 * n**3, scale * n**3)
        b_rows = _indicator_rows(n)  # row b is the indicator vector of the subset B = b
        b_sizes = b_rows.sum(axis=1)
        # scale w and -d_term |A| of every A in a chunk, then the term of every
        # (B, A, z) by one product of [1[B], |B|] with them for each slice of B
        scaled_t = scale * t.reshape(n, n * n).astype(np.float64)
        sums = split_sums(np.column_stack([scaled_t, np.full(n, -d_term)]))
        left = np.concatenate([b_rows, b_sizes[:, None]], axis=1, dtype=np.float64)
        ones = np.ones(n)
        # the sets B a chunk's terms cover at once, a power of two: every B
        # while their n + 1 cells per mask take at most half the budget
        b_slice = min(1 << n, 1 << chunk_len(16 * (n + 1)).bit_length() - 1)

        def scores(masks):
            wa = sums(masks)
            c = len(masks)
            right = np.empty((n + 1, c, n))
            right[:n] = wa[:, :-1].reshape(c, n, n).transpose(1, 0, 2)
            right[n] = wa[:, -1:]
            right = right.reshape(n + 1, c * n)
            best = np.full(c, np.inf)
            terms, slacks = np.empty((b_slice, c * n)), np.empty((b_slice, c))
            for start in range(0, len(left), b_slice):
                np.matmul(left[start : start + b_slice], right, out=terms)
                np.minimum(terms, 0, out=terms)
                np.matmul(terms.reshape((b_slice * c, n)), ones, out=slacks.reshape(b_slice * c))
                np.minimum(best, slacks.min(axis=0), out=best)
            return best.astype(np.int64)

        # per mask: its sums, right, the running minimum and the terms and
        # slacks of one slice of B
        width = 2 * n * n + n + 4 + b_slice * (n + 1)
        result = subset_sweep(n, scores, width, flip, score, witness)
        return _exact("vvv", d, eta, scale, eta_term, result, (1 << n) ** 3)

    def rate(rows):
        # (b @ w)[z] = sum over y in B of the row y of w, t[A, y, z] summed over
        # A; the counts are at most n^2, exact in float64, whose products run
        # on BLAS, and the slack is formed from them in int64, as by score()
        A, B = rows[:, :n].astype(np.float64), rows[:, n:].astype(np.float64)
        bw = np.zeros((len(rows), n))
        for y in range(n):
            bw += B[:, y, None] * (A @ t[:, y].astype(np.float64))
        sizes = rows[:, :n].sum(axis=1, dtype=np.int64) * rows[:, n:].sum(axis=1, dtype=np.int64)
        term = scale * bw.astype(np.int64) - d_term * sizes[:, None]
        return np.minimum(term, 0).sum(axis=1)

    gen = rng(seed)
    cands = _subset_candidates(n, gen, samples)
    starts = [a | cands[int(gen.integers(0, len(cands)))] << n for a in cands]
    # per row: A and B, bw, one product, and term with its minimum
    result = subset_search(2 * n, rate, 7 * n + 2, flip, score, witness, starts)
    return _sampled("vvv", d, eta, scale, eta_term, result, len(starts), seed)


class _RowSums:
    """The searched set as a bitmask and its (n, n) ``term``, the sum of its
    elements' rows; the scaled slack, without its eta term, is
    sum(min(term, 0)).  With t the (n, n, n) ordered edge tensor, an element
    is a vertex a, whose row scale * t[a] - d_term covers all of term (ev),
    or, when ``pairs``, the pair (a, b) = divmod(i, n) of element i, whose
    row scale * t[a, b] - d_term is placed at row b of term (ee); at(i) is
    where element i's row goes.  A flip adds or subtracts the row, formed in
    int64 from the int8 tensor, at term[at(i)].  ``search`` rates candidate
    sets with ``rate``, and the float64 table of every element's row is
    built only by ``sweep``.  At most n elements are placed at each cell of
    term, so its entries lie in [-scale n, scale n] and the slack in
    [-scale n^3, 0].
    """

    def __init__(self, t: np.ndarray, pairs: bool, scale: int, d_term: int):
        n = len(t)
        self.t = t.reshape(n * n, n) if pairs else t
        self.at = (lambda i: i % n) if pairs else (lambda i: ...)
        self.pairs, self.scale, self.d_term = pairs, scale, d_term
        self.mask = 0
        self.term = np.zeros((n, n), dtype=np.int64)

    def flip(self, i):
        self.mask ^= 1 << i
        row = self.scale * self.t[i].astype(np.int64) - self.d_term
        if self.mask >> i & 1:
            self.term[self.at(i)] += row
        else:
            self.term[self.at(i)] -= row

    def score(self):
        return int(np.minimum(self.term, 0).sum())

    def rate(self, rows):
        """score() of each 0/1 row of elements: the edge counts at row b of
        term are one product of the row's elements placed there by t[:, b],
        in float64 so that it runs on BLAS (the counts are at most n, exact),
        and term and the slack are formed from them in int64, as the flips
        form them."""
        n = len(self.term)
        t = self.t.reshape(n, n, n)
        rows = rows.astype(np.float64)
        slack = np.zeros(len(rows), dtype=np.int64)
        for b in range(n):
            placed = rows[:, b::n] if self.pairs else rows
            count = (placed @ t[:, b].astype(np.float64)).astype(np.int64)
            size = placed.sum(axis=1).astype(np.int64)
            term = self.scale * count - self.d_term * size[:, None]
            slack += np.minimum(term, 0).sum(axis=1)
        return slack

    def search(self, witness, candidates):
        # per row: its float64 copy, and the count, term and minimum of one row b
        n, nbits = len(self.term), len(self.t)
        width = nbits + 3 * n + 2
        return subset_search(nbits, self.rate, width, self.flip, self.score, witness, candidates)

    def sweep(self, witness):
        n, nbits = len(self.term), len(self.t)
        # the float64 rows of every element and their split tables
        check_sweep(nbits, (nbits + n + 3) * n * n + split_cells(nbits, n * n), self.scale * n**3)
        rows = np.zeros((nbits, n, n))
        for i, row in enumerate(rows):
            row[self.at(i)] = self.scale * self.t[i].astype(np.float64) - self.d_term
        sums = split_sums(rows.reshape(len(rows), n * n))
        ones = np.ones(n * n)

        def scores(masks):
            terms = sums(masks)
            np.minimum(terms, 0, out=terms)
            return (terms @ ones).astype(np.int64)

        width = 2 * n * n + 1
        return subset_sweep(nbits, scores, width, self.flip, self.score, witness)


def _ev_audit(H: Hypergraph3, d, eta, exact: bool, samples: int, seed) -> DensityReport:
    """A enumerated or searched; the best P given A is {(b, c) : term[b, c] < 0},
    where term[b, c] = scale #{a in A : abc ordered edge} - d_term |A|.

    Each entry lies in [-scale n, scale n] and the slack in [-scale n^3, 0],
    scale <= 10^9: below 2^53 for the exact sweep's n <= 62.
    """
    d, eta, scale, d_term, eta_term = _scaled(d, eta, H.n)
    n = H.n
    # vertex a adds scale t[a] - d_term to all of term when it joins A
    A = _RowSums(_ordered_edge_tensor(H), False, scale, d_term)

    def witness():
        return {"A": bit_positions(A.mask), "P": np.argwhere(A.term < 0).tolist()}

    if exact:
        return _exact("ev", d, eta, scale, eta_term, A.sweep(witness), (1 << n) * (1 << n * n))
    cands = _subset_candidates(n, rng(seed), samples)
    result = A.search(witness, cands)
    return _sampled("ev", d, eta, scale, eta_term, result, len(cands), seed)


def _ee_audit(H: Hypergraph3, d, eta, exact: bool, samples: int, seed) -> DensityReport:
    """P enumerated or searched as an n^2-bit mask, bit a*n + b for the pair
    (a, b); the best Q given P is {(b, c) : term[b, c] < 0}, where
    term[b, c] = scale #{a : (a,b) in P, abc ordered edge} - d_term #{a : (a,b) in P}.

    Each entry lies in [-scale n, scale n] and the slack in [-scale n^3, 0],
    scale <= 10^9: below 2^53 for the exact sweep's n^2 <= 62 bits, n <= 7.
    """
    d, eta, scale, d_term, eta_term = _scaled(d, eta, H.n)
    n = H.n
    # the pair (a, b) adds scale t[a, b] - d_term to row b of term when it joins P
    P = _RowSums(_ordered_edge_tensor(H), True, scale, d_term)

    def witness():
        return {
            "P": [list(divmod(i, n)) for i in bit_positions(P.mask)],
            "Q": np.argwhere(P.term < 0).tolist(),
        }

    if exact:
        return _exact("ee", d, eta, scale, eta_term, P.sweep(witness), (1 << n * n) ** 2)
    cands = [0, (1 << n * n) - 1] + random_masks(n * n, rng(seed), samples)
    result = P.search(witness, cands)
    return _sampled("ee", d, eta, scale, eta_term, result, len(cands), seed)
