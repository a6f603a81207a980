"""Bipartite quasirandomness audits, triangle counting over tripartite graphs,
and the relative density of a hypergraph with respect to a triad.

The quasirandom audit searches the subsets A of the smaller side with the
engine of the density audits (``hypergraph.subset_sweep`` when exact,
``hypergraph.subset_search`` when sampled); the worst subset of the other
side is computed analytically per A, so the exact audit covers every (A, B)
pair.  The exact sweep sums the negative parts of each A's column deviations
(``hypergraph.split_negatives``, in the narrowest signed integer dtype that
holds q |X| |Y|, int16 or wider); the sampled search rates its candidates
as one product of their indicator rows by the steps, in float64 on BLAS.
Deviations are integers scaled by the denominator of d until the one Fraction
of the report; all verdicts use exact rational arithmetic.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .hypergraph import (
    Hypergraph3,
    bit_positions,
    check_sweep,
    int_cells,
    pack_rows,
    random_masks,
    random_rows,
    rng,
    split_cells,
    split_negatives,
    split_sums,
    subset_search,
    subset_sweep,
    unpack_rows,
)


class GraphError(ValueError):
    """Malformed bipartite/tripartite graph input."""


@dataclass(frozen=True)
class BipartiteGraph:
    """Bipartite graph with sides of size nx, ny; rows[x] is a bitmask over Y."""

    nx: int
    ny: int
    rows: tuple[int, ...]

    def __post_init__(self):
        if len(self.rows) != self.nx:
            raise GraphError("one row bitmask per X vertex required")
        mask = (1 << self.ny) - 1
        if any(r & ~mask for r in self.rows):
            raise GraphError("row bitmask exceeds Y side")

    @classmethod
    def from_edges(cls, nx_: int, ny_: int, edges) -> "BipartiteGraph":
        rows = [0] * nx_
        for x, y in edges:
            if not (0 <= x < nx_ and 0 <= y < ny_):
                raise GraphError(f"edge ({x}, {y}) outside {nx_}x{ny_} sides")
            rows[x] |= 1 << y
        return cls(nx_, ny_, tuple(rows))

    @classmethod
    def random(cls, nx_: int, ny_: int, p: float, seed) -> "BipartiteGraph":
        return cls(nx_, ny_, tuple(random_rows(rng(seed), nx_, ny_, p)))

    @classmethod
    def complete(cls, nx_: int, ny_: int) -> "BipartiteGraph":
        return cls(nx_, ny_, tuple([(1 << ny_) - 1] * nx_))

    def e(self, A, B) -> int:
        """Edges between vertex subsets A of X and B of Y."""
        bmask = 0
        for y in B:
            bmask |= 1 << y
        return sum((self.rows[x] & bmask).bit_count() for x in A)

    def transpose(self) -> "BipartiteGraph":
        cols = pack_rows(unpack_rows(self.rows, self.ny).T)
        return BipartiteGraph(self.ny, self.nx, tuple(cols))


@dataclass
class QuasirandomReport:
    mode: str  # "exact" | "sampled"
    delta: Fraction
    d: Fraction
    ok: bool
    max_deviation: Fraction  # max over audited (A, B) of |e(A,B) - d|A||B|| / (|X||Y|)
    slack: Fraction  # delta - max_deviation; >= 0 iff ok
    witness_A: tuple[int, ...]
    witness_B: tuple[int, ...]
    samples: int | None = None
    seed: int | None = None

    def to_dict(self) -> dict:
        from .io import format_fraction

        return {
            "mode": self.mode,
            "delta": format_fraction(self.delta),
            "d": format_fraction(self.d),
            "ok": self.ok,
            "max_deviation": format_fraction(self.max_deviation),
            "slack": format_fraction(self.slack),
            "witness_A": list(self.witness_A),
            "witness_B": list(self.witness_B),
            "samples": self.samples,
            "seed": self.seed,
        }


def audit_quasirandom(
    G: BipartiteGraph,
    delta,
    d,
    exact_bits: int = 20,
    samples: int = 2000,
    seed: int = 0,
) -> QuasirandomReport:
    """Check |e(A,B) - d|A||B|| <= delta |X||Y| over side subsets.

    Exact whenever the smaller side has at most ``exact_bits`` vertices: every
    subset of that side is rated and the extremal B is found analytically,
    covering all (A, B) pairs.  Otherwise random subsets plus single-flip
    descent are audited and the mode is recorded as sampled.
    """
    delta = Fraction(delta)
    d = Fraction(d)
    if not 0 <= d <= 1:
        raise ValueError(f"density d={d} outside [0, 1]")
    if delta < 0:
        raise ValueError(f"delta={delta} must be nonnegative")
    if G.nx == 0 or G.ny == 0:
        raise GraphError(f"quasirandom audit needs two nonempty sides, got {G.nx}x{G.ny}")

    transposed = G.ny < G.nx
    W = G.transpose() if transposed else G
    exact = W.nx <= exact_bits
    p, q = d.numerator, d.denominator
    # v[y] = q (c_y - d|A|), c_y the neighbours of y in A, is the sum over x in
    # A of steps[x]; each |v[y]| is at most q |X| and every sum of them at most
    # q |X| |Y|, held in int64 unless that could overflow (Python ints then)
    bound = q * W.nx * W.ny
    dtype = np.int64 if bound < 2**63 else object
    steps = q * unpack_rows(W.rows, W.ny).astype(dtype) - p
    v = np.zeros(W.ny, dtype=dtype)
    mask = up = down = 0

    def flip(x):
        nonlocal mask, v
        mask ^= 1 << x
        if mask >> x & 1:
            v += steps[x]
        else:
            v -= steps[x]

    def score():
        # B = {y : v[y] > 0} maximises q (e(A,B) - d|A||B|) and its strict
        # complement q (d|A||B| - e(A,B)); the larger is q times the deviation.
        # The empty A deviates by 0, so scoring it 1 instead makes the exact
        # sweep take the first nonempty A on a tie; sampled candidates compare
        # on the deviation alone.
        nonlocal up, down
        up = int(np.maximum(v, 0).sum())
        down = up - int(v.sum())
        return -max(up, down) + (exact and mask == 0)

    def witness():
        return bit_positions(mask), np.flatnonzero(v > 0 if up >= down else v < 0).tolist()

    # A Python-int cell also holds its int object, in 16-byte blocks.
    per = 1 if dtype is np.int64 else 1 + 2 * -(-sys.getsizeof(bound) // 16)
    if exact:
        # -down is the sum of the negative parts of v, so -max(up, down) is
        # -down - max(total, 0), the total of v split-half in steps' dtype;
        # the plan holds steps and the tables
        cells = int_cells(split_cells(W.nx, W.ny), bound) + split_cells(W.nx, 1) + W.nx * W.ny
        check_sweep(W.nx, per * cells, 0)
        negs, totals = split_negatives(steps, bound), split_sums(steps.sum(axis=1))

        def scores(masks):
            return negs(masks) - np.maximum(totals(masks), 0) + (masks == 0)

        # per mask: what negs holds, the totals, their positive part and the sum
        width = per * (int_cells(W.ny + 2, bound) + 3)
        mode, nsamples = "exact", None
        neg_dev, (wa, wb) = subset_sweep(W.nx, scores, width, flip, score, witness)
    else:
        full = (1 << W.nx) - 1
        candidates = random_masks(W.nx, rng(seed), samples) + [full]
        candidates.extend(1 << x for x in range(min(W.nx, 32)))
        candidates.extend(full ^ (1 << x) for x in range(min(W.nx, 32)))
        # v of many sets A at once comes from float64 steps when the bound is
        # below 2^53 (exact there, and summed on BLAS), else from steps' own dtype
        table = steps.astype(np.float64) if bound < 2**53 else steps

        def rate(rows):
            vs = rows.astype(table.dtype) @ table
            ups = np.maximum(vs, 0).sum(axis=1).astype(dtype, copy=False)
            return -np.maximum(ups, ups - vs.sum(axis=1).astype(dtype, copy=False))

        mode, nsamples = "sampled", len(candidates)
        # per row: its indicators in the table's dtype, v, its positive part
        width = per * (W.nx + 2 * W.ny + 4)
        neg_dev, (wa, wb) = subset_search(W.nx, rate, width, flip, score, witness, candidates)
    if transposed:
        wa, wb = wb, wa
    max_dev = Fraction(-neg_dev, q * G.nx * G.ny)
    return QuasirandomReport(
        mode=mode,
        delta=delta,
        d=d,
        ok=max_dev <= delta,
        max_deviation=max_dev,
        slack=delta - max_dev,
        witness_A=tuple(wa),
        witness_B=tuple(wb),
        samples=nsamples,
        seed=None if exact else seed,
    )


# -- tripartite graphs ---------------------------------------------------------


@dataclass(frozen=True)
class TripartiteGraph:
    """Three disjoint vertex parts (global labels) plus three bipartite layers.

    Layers are indexed by local positions within the parts: xy between parts
    0 and 1, xz between 0 and 2, yz between 1 and 2.
    """

    parts: tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]
    xy: BipartiteGraph
    xz: BipartiteGraph
    yz: BipartiteGraph

    def __post_init__(self):
        X, Y, Z = self.parts
        if len(set(X) | set(Y) | set(Z)) != len(X) + len(Y) + len(Z):
            raise GraphError("parts must be disjoint")
        if (self.xy.nx, self.xy.ny) != (len(X), len(Y)):
            raise GraphError("xy layer does not match part sizes")
        if (self.xz.nx, self.xz.ny) != (len(X), len(Z)):
            raise GraphError("xz layer does not match part sizes")
        if (self.yz.nx, self.yz.ny) != (len(Y), len(Z)):
            raise GraphError("yz layer does not match part sizes")

    @classmethod
    def random(cls, sizes, p: float, seed) -> "TripartiteGraph":
        a, b, c = sizes
        parts = (tuple(range(a)), tuple(range(a, a + b)), tuple(range(a + b, a + b + c)))
        return cls(
            parts,
            BipartiteGraph.random(a, b, p, (seed, 0)),
            BipartiteGraph.random(a, c, p, (seed, 1)),
            BipartiteGraph.random(b, c, p, (seed, 2)),
        )


def triangle_count(P: TripartiteGraph) -> int:
    """Exact number of triangles with one vertex per part."""
    total = 0
    for x in range(P.xy.nx):
        row_xy = P.xy.rows[x]
        row_xz = P.xz.rows[x]
        while row_xy:
            y = (row_xy & -row_xy).bit_length() - 1
            total += (row_xz & P.yz.rows[y]).bit_count()
            row_xy &= row_xy - 1
    return total


def triangles(P: TripartiteGraph):
    """Yield triangles as local-index triples (x, y, z)."""
    for x in range(P.xy.nx):
        row_xz = P.xz.rows[x]
        for y in bit_positions(P.xy.rows[x]):
            for z in bit_positions(row_xz & P.yz.rows[y]):
                yield (x, y, z)


def check_counting_lemma(P: TripartiteGraph, delta, dXY, dXZ, dYZ) -> Fraction:
    """Signed normalized triangle-count deviation; |result| <= 3*delta is the
    expectation when each layer is (delta, d)-quasirandom."""
    if Fraction(delta) < 0:
        raise ValueError(f"delta={delta} must be nonnegative")
    dXY, dXZ, dYZ = Fraction(dXY), Fraction(dXZ), Fraction(dYZ)
    for name, d in (("dXY", dXY), ("dXZ", dXZ), ("dYZ", dYZ)):
        if not 0 <= d <= 1:
            raise ValueError(f"density {name}={d} outside [0, 1]")
    sizes = len(P.parts[0]) * len(P.parts[1]) * len(P.parts[2])
    if sizes == 0:
        return Fraction(0)
    expected = dXY * dXZ * dYZ * sizes
    return Fraction(triangle_count(P) - expected, sizes)


def relative_density(H: Hypergraph3, P: TripartiteGraph) -> Fraction:
    """Fraction of the triangles of P that are edges of H (0 when triangle-free)."""
    for part in P.parts:
        if any(v < 0 or v >= H.n for v in part):
            raise GraphError("tripartite parts must be subsets of V(H)")
    X, Y, Z = P.parts
    hits = total = 0
    for x, y, z in triangles(P):
        total += 1
        hits += H.has_edge(X[x], Y[y], Z[z])
    return Fraction(hits, total) if total else Fraction(0)
