"""Exact counting of the three density functionals on concrete hypergraphs and
exact or sampled minimum-slack audits.

Counts are integers, thresholds are rationals, and every verdict is computed
in exact arithmetic; no float ever decides a comparison.  Exact audits label
their mode "exact" only when the witness space was fully covered: subset
enumeration is explicit, while the innermost set (C for vvv, P for ev, Q for
ee) is minimized analytically, which covers all of its 2^k choices at once
because the slack is additive over that set's elements.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb

import numpy as np

from .hypergraph import Hypergraph3, bit_positions

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
    """t[x, y, z] = 1 when {x, y, z} is an edge (so x, y, z distinct)."""
    n = H.n
    t = np.zeros((n, n, n), dtype=np.int64)
    for e in H.edges:
        for p in _PERMS3:
            t[e[p[0]], e[p[1]], e[p[2]]] = 1
    return t


def _scaled(d, eta):
    d, eta = Fraction(d), Fraction(eta)
    if not 0 <= d <= 1:
        raise ValueError(f"density d={d} outside [0, 1]")
    if eta < 0:
        raise ValueError(f"eta={eta} must be nonnegative")
    pd, qd = d.numerator, d.denominator
    pe, qe = eta.numerator, eta.denominator
    if qd * qe > 10**9:
        raise ValueError("threshold denominators too large for the scaled audit")
    return d, eta, pd, qd, pe, qe


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
    d, eta, pd, qd, pe, qe = _scaled(d, eta)
    n = H.n
    scale = qd * qe
    eta_term = pe * qd * n**3
    links = [[(1 << x) | (1 << y) for x, y in H.link(v)] for v in range(n)]

    if n <= exact_threshold:
        binom_term = [pd * qe * comb(u, 3) for u in range(n + 1)]
        best = None
        best_mask = 0
        mask = 0
        usize = 0
        cnt = 0
        for g in range(1 << n):
            if g:
                v = (g & -g).bit_length() - 1
                bit = 1 << v
                if mask & bit:
                    mask ^= bit
                    usize -= 1
                    cnt -= sum(1 for pm in links[v] if mask & pm == pm)
                else:
                    cnt += sum(1 for pm in links[v] if mask & pm == pm)
                    mask ^= bit
                    usize += 1
            slack = cnt * scale - binom_term[usize] + eta_term
            if best is None or slack < best:
                best, best_mask = slack, mask
        return DensityReport(
            "uniform",
            "exact",
            d,
            eta,
            Fraction(best, scale),
            {"U": bit_positions(best_mask)},
            space=1 << n,
        )

    rng = np.random.Generator(np.random.PCG64(seed))

    def count_inside(mask: int) -> int:
        total = 0
        for a, b, c in H.edges:
            if mask >> a & 1 and mask >> b & 1 and mask >> c & 1:
                total += 1
        return total

    def slack_of(mask: int, cnt: int) -> int:
        return cnt * scale - pd * qe * comb(bin(mask).count("1"), 3) + eta_term

    candidates = _subset_candidates(n, rng, samples)
    best, best_mask = None, 0
    for mask in candidates:
        s = slack_of(mask, count_inside(mask))
        if best is None or s < best:
            best, best_mask = s, mask
    # single-flip local descent from the worst sample
    cur_cnt = count_inside(best_mask)
    improved = True
    while improved:
        improved = False
        for v in range(n):
            bit = 1 << v
            base = best_mask & ~bit
            delta = sum(1 for pm in links[v] if base & pm == pm)
            new_mask = best_mask ^ bit
            new_cnt = cur_cnt + (delta if new_mask & bit else -delta)
            s = slack_of(new_mask, new_cnt)
            if s < best:
                best, best_mask, cur_cnt = s, new_mask, new_cnt
                improved = True
    return DensityReport(
        "uniform",
        "sampled",
        d,
        eta,
        Fraction(best, scale),
        {"U": bit_positions(best_mask)},
        samples=len(candidates),
        seed=seed,
        rng_algorithm="numpy-pcg64",
    )


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
    if star == "vvv":
        thr = 8 if exact_threshold is None else exact_threshold
        if H.n <= thr:
            return _vvv_exact(H, d, eta)
        return _vvv_sampled(H, d, eta, samples, seed)
    if star == "ev":
        thr = 12 if exact_threshold is None else exact_threshold
        if H.n <= thr:
            return _ev_exact(H, d, eta)
        return _ev_sampled(H, d, eta, samples, seed)
    if star == "ee":
        thr = 4 if exact_threshold is None else exact_threshold
        if H.n <= thr:
            return _ee_exact(H, d, eta)
        return _ee_sampled(H, d, eta, samples, seed)
    raise ValueError(f"unknown density notion {star!r}")


def _vvv_exact(H: Hypergraph3, d, eta) -> DensityReport:
    d, eta, pd, qd, pe, qe = _scaled(d, eta)
    n = H.n
    scale = qd * qe
    eta_term = pe * qd * n**3
    t = _ordered_edge_tensor(H)
    masks = np.arange(1 << n, dtype=np.int64)
    mb = ((masks[:, None] >> np.arange(n)) & 1).astype(np.int64)  # (2^n, n)
    sizes = mb.sum(axis=1)
    best = None
    best_wit = (0, 0, 0)
    w = np.zeros((n, n), dtype=np.int64)
    a_mask = 0
    a_size = 0
    for g in range(1 << n):
        if g:
            x = (g & -g).bit_length() - 1
            if a_mask >> x & 1:
                w -= t[x]
                a_mask ^= 1 << x
                a_size -= 1
            else:
                w += t[x]
                a_mask ^= 1 << x
                a_size += 1
        v = mb @ w  # (2^n, n): v[B, z] = #{(x,y) in A x B : xyz ordered edge}
        term = scale * v - (pd * qe * a_size) * (sizes[:, None] * np.ones(n, dtype=np.int64))
        slack_b = np.minimum(term, 0).sum(axis=1) + eta_term
        bi = int(slack_b.argmin())
        s = int(slack_b[bi])
        if best is None or s < best:
            c_mask = int(sum(1 << z for z in range(n) if term[bi, z] < 0))
            best = s
            best_wit = (a_mask, int(masks[bi]), c_mask)
    return DensityReport(
        "vvv",
        "exact",
        d,
        eta,
        Fraction(best, scale),
        dict(zip("ABC", map(bit_positions, best_wit))),
        space=(1 << n) ** 3,
    )


def _ev_exact(H: Hypergraph3, d, eta) -> DensityReport:
    d, eta, pd, qd, pe, qe = _scaled(d, eta)
    n = H.n
    scale = qd * qe
    eta_term = pe * qd * n**3
    t = _ordered_edge_tensor(H)
    best = None
    best_a = 0
    best_p: list[list[int]] = []
    w = np.zeros((n, n), dtype=np.int64)  # w[b, c] = #{a in A : abc ordered edge}
    a_mask = 0
    a_size = 0
    for g in range(1 << n):
        if g:
            x = (g & -g).bit_length() - 1
            if a_mask >> x & 1:
                w -= t[x]
                a_mask ^= 1 << x
                a_size -= 1
            else:
                w += t[x]
                a_mask ^= 1 << x
                a_size += 1
        term = scale * w - pd * qe * a_size
        s = int(np.minimum(term, 0).sum()) + eta_term
        if best is None or s < best:
            best = s
            best_a = a_mask
            best_p = [[int(b), int(c)] for b, c in np.argwhere(term < 0)]
    return DensityReport(
        "ev",
        "exact",
        d,
        eta,
        Fraction(best, scale),
        {"A": bit_positions(best_a), "P": best_p},
        space=(1 << n) * (1 << n * n),
    )


def _ee_exact(H: Hypergraph3, d, eta) -> DensityReport:
    d, eta, pd, qd, pe, qe = _scaled(d, eta)
    n = H.n
    scale = qd * qe
    eta_term = pe * qd * n**3
    t = _ordered_edge_tensor(H)
    cells = [(a, b) for a in range(n) for b in range(n)]
    u = np.zeros((n, n), dtype=np.int64)  # u[b, c] = #{a : (a,b) in P, abc ordered edge}
    wcol = np.zeros(n, dtype=np.int64)  # wcol[b] = #{a : (a,b) in P}
    best = None
    best_p = 0
    best_q: list[list[int]] = []
    p_mask = 0
    for g in range(1 << (n * n)):
        if g:
            cell = (g & -g).bit_length() - 1
            a, b = cells[cell]
            if p_mask >> cell & 1:
                u[b] -= t[a, b]
                wcol[b] -= 1
            else:
                u[b] += t[a, b]
                wcol[b] += 1
            p_mask ^= 1 << cell
        term = scale * u - pd * qe * wcol[:, None]
        s = int(np.minimum(term, 0).sum()) + eta_term
        if best is None or s < best:
            best = s
            best_p = p_mask
            best_q = [[int(b), int(c)] for b, c in np.argwhere(term < 0)]
    p_pairs = [[cells[i][0], cells[i][1]] for i in bit_positions(best_p)]
    return DensityReport(
        "ee",
        "exact",
        d,
        eta,
        Fraction(best, scale),
        {"P": p_pairs, "Q": best_q},
        space=(1 << n * n) ** 2,
    )


# -- sampled star audits ---------------------------------------------------------------


def _subset_candidates(n: int, rng, samples: int) -> list[int]:
    full = (1 << n) - 1
    cands = [0, full]
    cands += [1 << v for v in range(min(n, 40))]
    cands += [full ^ (1 << v) for v in range(min(n, 40))]
    for density in (0.25, 0.5, 0.75):
        for _ in range(max(1, samples // 3)):
            bits = rng.random(n) < density
            cands.append(sum(1 << v for v in range(n) if bits[v]))
    return cands


def _vvv_sampled(H: Hypergraph3, d, eta, samples: int, seed: int) -> DensityReport:
    d, eta, pd, qd, pe, qe = _scaled(d, eta)
    n = H.n
    scale = qd * qe
    eta_term = pe * qd * n**3
    rng = np.random.Generator(np.random.PCG64(seed))

    def counts_for(a_mask):
        """w[y, z] = ordered (x, y) pairs ... per third vertex, for x in A."""
        w: dict[tuple[int, int], int] = {}
        m = a_mask
        while m:
            x = (m & -m).bit_length() - 1
            for p, q in H.link(x):
                for y, z in ((p, q), (q, p)):
                    w[(y, z)] = w.get((y, z), 0) + 1
            m &= m - 1
        return w

    def slack_for(a_mask, b_mask):
        """Analytic worst C given (A, B)."""
        a_size = bin(a_mask).count("1")
        b_size = bin(b_mask).count("1")
        per_z: dict[int, int] = {}
        for (y, z), cnt in counts_for(a_mask).items():
            if b_mask >> y & 1:
                per_z[z] = per_z.get(z, 0) + cnt
        thresh = pd * qe * a_size * b_size
        tot = 0
        c_mask = 0
        for z in range(n):
            v = scale * per_z.get(z, 0) - thresh
            if v < 0:
                tot += v
                c_mask |= 1 << z
        return tot + eta_term, c_mask

    cands = _subset_candidates(n, rng, samples)
    best = None
    wit = (0, 0, 0)
    drawn = 0
    for a_mask in cands:
        b_mask = cands[int(rng.integers(0, len(cands)))]
        drawn += 1
        s, c_mask = slack_for(a_mask, b_mask)
        if best is None or s < best:
            best, wit = s, (a_mask, b_mask, c_mask)
    improved = True
    while improved:
        improved = False
        for which in (0, 1):
            for v in range(n):
                a_mask, b_mask = wit[0], wit[1]
                if which == 0:
                    a_mask ^= 1 << v
                else:
                    b_mask ^= 1 << v
                s, c_mask = slack_for(a_mask, b_mask)
                if s < best:
                    best, wit = s, (a_mask, b_mask, c_mask)
                    improved = True
    return DensityReport(
        "vvv",
        "sampled",
        d,
        eta,
        Fraction(best, scale),
        dict(zip("ABC", map(bit_positions, wit))),
        samples=drawn,
        seed=seed,
        rng_algorithm="numpy-pcg64",
    )


def _ev_sampled(H: Hypergraph3, d, eta, samples: int, seed: int) -> DensityReport:
    d, eta, pd, qd, pe, qe = _scaled(d, eta)
    n = H.n
    scale = qd * qe
    eta_term = pe * qd * n**3
    rng = np.random.Generator(np.random.PCG64(seed))

    def slack_for(a_mask):
        """Analytic worst P given A (all n^2 ordered pairs considered)."""
        a_size = bin(a_mask).count("1")
        t_a: dict[tuple[int, int], int] = {}
        m = a_mask
        while m:
            x = (m & -m).bit_length() - 1
            for p, q in H.link(x):
                for y, z in ((p, q), (q, p)):
                    t_a[(y, z)] = t_a.get((y, z), 0) + 1
            m &= m - 1
        thresh = pd * qe * a_size
        tot = 0
        p_set = []
        for b in range(n):
            for c in range(n):
                v = scale * t_a.get((b, c), 0) - thresh
                if v < 0:
                    tot += v
                    p_set.append([b, c])
        return tot + eta_term, p_set

    cands = _subset_candidates(n, rng, samples)
    best = None
    best_a = 0
    best_p: list[list[int]] = []
    for a_mask in cands:
        s, p_set = slack_for(a_mask)
        if best is None or s < best:
            best, best_a, best_p = s, a_mask, p_set
    improved = True
    while improved:
        improved = False
        for v in range(n):
            cand = best_a ^ (1 << v)
            s, p_set = slack_for(cand)
            if s < best:
                best, best_a, best_p = s, cand, p_set
                improved = True
    return DensityReport(
        "ev",
        "sampled",
        d,
        eta,
        Fraction(best, scale),
        {"A": bit_positions(best_a), "P": best_p},
        samples=len(cands),
        seed=seed,
        rng_algorithm="numpy-pcg64",
    )


def _ee_sampled(H: Hypergraph3, d, eta, samples: int, seed: int) -> DensityReport:
    d, eta, pd, qd, pe, qe = _scaled(d, eta)
    n = H.n
    scale = qd * qe
    eta_term = pe * qd * n**3
    rng = np.random.Generator(np.random.PCG64(seed))

    def slack_for(p_pairs):
        """Analytic worst Q given P."""
        u: dict[tuple[int, int], int] = {}
        wcol: dict[int, int] = {}
        for a, b in p_pairs:
            wcol[b] = wcol.get(b, 0) + 1
            mask = H.thirds(a, b)
            while mask:
                c = (mask & -mask).bit_length() - 1
                u[(b, c)] = u.get((b, c), 0) + 1
                mask &= mask - 1
        tot = 0
        q_set = []
        for b in range(n):
            thresh = pd * qe * wcol.get(b, 0)
            for c in range(n):
                v = scale * u.get((b, c), 0) - thresh
                if v < 0:
                    tot += v
                    q_set.append([b, c])
        return tot + eta_term, q_set

    def random_pairs(density):
        mask = rng.random((n, n)) < density
        return {(a, b) for a in range(n) for b in range(n) if mask[a, b]}

    cands = [set(), {(a, b) for a in range(n) for b in range(n)}]
    for density in (0.25, 0.5, 0.75):
        for _ in range(max(1, samples // 3)):
            cands.append(random_pairs(density))
    best = None
    best_p: set = set()
    best_q: list[list[int]] = []
    for p in cands:
        s, q_set = slack_for(p)
        if best is None or s < best:
            best, best_p, best_q = s, p, q_set
    improved = True
    while improved:
        improved = False
        for a in range(n):
            for b in range(n):
                cand = set(best_p)
                cand.symmetric_difference_update({(a, b)})
                s, q_set = slack_for(cand)
                if s < best:
                    best, best_p, best_q = s, cand, q_set
                    improved = True
    return DensityReport(
        "ee",
        "sampled",
        d,
        eta,
        Fraction(best, scale),
        {"P": sorted([list(p) for p in best_p]), "Q": best_q},
        samples=len(cands),
        seed=seed,
        rng_algorithm="numpy-pcg64",
    )
