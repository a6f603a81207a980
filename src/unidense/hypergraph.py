"""3-uniform hypergraphs on integer vertices, named families, embedding search,
the subset-search engine that the density and quasirandom audits share, and
the one seeded random stream every module draws from.

Vertices are dense integers ``0..n-1``.  A hypergraph stores its edges as one
canonical int64 ``(m, 3)`` array: each triple sorted, the rows distinct and in
lexicographic order.  The views that queries read (the edge tuple, the thirds
rows of the shadow pairs and the thirds map, which takes the integer key
u*n + v of a shadow pair, in either order, to the bitmask of its third
vertices) are built from that array on first use and cached, so a hypergraph
that is only generated, written or compared never pays for them.  Two cached
views are adjacency: the packed thirds rows, which the K4 and K4-minus tests
and the sampled uniform audit read, and the thirds map built from them, which
``thirds``, ``has_edge`` and ``find_embedding`` read.  Instances are immutable
after construction and safe to share across threads: two threads that build
the same view at once build equal values, and either may be kept.
"""

from __future__ import annotations

import itertools
import operator
import re
from array import array
from dataclasses import dataclass
from math import comb

import numpy as np


class HypergraphError(ValueError):
    """Malformed hypergraph input (vertex out of range, repeated vertex, ...)."""


# pairs are keyed u*n + v in int64 (see _pair_index) and in the thirds map, so
# n*n must fit
MAX_VERTICES = 3_037_000_499  # isqrt(2**63 - 1)

# the six orders of a triple's coordinates, as index tuples
PERMS3 = tuple(itertools.permutations(range(3)))

# the pair index uses a dense table of all n*n keys while it has at most this
# many cells per opposite-pair entry (three an edge), and np.unique otherwise.
# At 4 the two paths peak within 6 % of each other (tracemalloc, random
# hypergraphs on 300 to 3000 vertices) and the table is 1.7-2.3x faster; at 8
# it is 1.2-1.8x faster but holds 1.7x more.
_DENSE_PAIRS = 4


class Hypergraph3:
    """An immutable 3-uniform hypergraph on the vertex set {0, ..., n-1}.

    ``triples`` may be any iterable of 3-element sequences or an integer
    ``(m, 3)`` ndarray; vertex order inside a triple and repeats are
    immaterial.  A label that is not an integer (a float, even 1.0, or a
    string) raises :class:`HypergraphError`; it is never truncated.
    """

    __slots__ = ("n", "_array", "_edges", "_pairs", "_adj")

    def __init__(self, n: int, triples=()):
        if not 0 <= n <= MAX_VERTICES:
            raise HypergraphError(f"vertex count must lie in [0, {MAX_VERTICES}], got {n}")
        E = _canonical_triples(n, triples)
        E.flags.writeable = False
        self.n = n
        self._array = E
        self._edges = self._pairs = self._adj = None

    # -- stored form and views ----------------------------------------------

    @property
    def array(self) -> np.ndarray:
        """The edges as a read-only int64 (m, 3) array: rows sorted, distinct,
        in lexicographic order."""
        return self._array

    @property
    def edges(self) -> tuple[tuple[int, int, int], ...]:
        """The edges as plain-int triples, in the order of ``array``."""
        if self._edges is None:
            self._edges = tuple(zip(*self._array.T.tolist()))  # plain ints keep bitmasks unbounded
        return self._edges

    def _pair_rows(self):
        """(keys, rows): the shadow pairs and their thirds rows (see
        :func:`_pair_rows`), built on first use."""
        if self._pairs is None:
            keys, pair_id = _pair_index(self.n, self._array)
            self._pairs = keys, _pair_rows(self.n, self._array, len(keys), pair_id)
        return self._pairs

    def _adjacency(self):
        """The thirds map of :func:`_adjacency`, built on first use."""
        if self._adj is None:
            self._adj = _adjacency(self.n, *self._pair_rows())
        return self._adj

    # -- basic queries ----------------------------------------------------

    @property
    def edge_count(self) -> int:
        return len(self._array)

    def has_edge(self, a: int, b: int, c: int) -> bool:
        """Whether {a, b, c} is an edge; False for repeated or out-of-range vertices."""
        a, b, c = sorted((int(a), int(b), int(c)))  # plain ints: numpy ones cannot shift past 63
        return 0 <= a < b < c and self.thirds(a, b) >> c & 1 == 1

    def thirds(self, u: int, v: int) -> int:
        """Bitmask of vertices w with {u, v, w} an edge; 0 for u == v, for
        vertices outside 0..n-1 and for labels that are not integers."""
        n, x, y = self.n, int(u), int(v)  # plain ints: numpy ones wrap or overflow in x*n + y
        if x == u and y == v and 0 <= x < n and 0 <= y < n:
            return (self._adj or self._adjacency()).get(x * n + y, 0)
        return 0

    def shadow(self) -> set[tuple[int, int]]:
        """All pairs {u, v} covered by at least one edge."""
        return {divmod(k, self.n) for k in _pair_index(self.n, self._array)[0].tolist()}

    def density(self):
        from fractions import Fraction

        if self.n < 3:
            return Fraction(0)
        return Fraction(self.edge_count, comb(self.n, 3))

    # -- dunder -----------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, Hypergraph3)
            and self.n == other.n
            and np.array_equal(self._array, other._array)
        )

    def __hash__(self):
        return hash((self.n, self._array.tobytes()))

    def __repr__(self):
        return f"Hypergraph3(n={self.n}, m={self.edge_count})"


# -- array construction ------------------------------------------------------


def _checked_triple(t, n: int) -> tuple[int, int, int]:
    """One triple as sorted plain ints, with the constructor's error for a bad one."""
    t = tuple(t)
    if len(t) != 3:
        raise HypergraphError(f"not a triple: {t!r}")
    try:
        a, b, c = sorted(operator.index(x) for x in t)
    except TypeError:
        raise HypergraphError(f"non-integer vertex in triple {t!r}") from None
    if a == b or b == c:
        raise HypergraphError(f"repeated vertex in triple {t!r}")
    if a < 0 or c >= n:
        raise HypergraphError(f"vertex out of range in triple {t!r} (n={n})")
    return a, b, c


def int64_triples(rows: list) -> np.ndarray | None:
    """The rows as one int64 (m, 3) array, read through a checked int64
    buffer; None when some row is not of length 3 or holds a label that is not
    an integer (a float, even 1.0, or a string) or lies outside int64."""
    try:
        if set(map(len, rows)) <= {3}:
            flat = array("q", list(itertools.chain.from_iterable(rows)))
            return np.frombuffer(flat, dtype=np.int64).reshape(-1, 3)
    except (TypeError, OverflowError):
        pass
    return None


def _canonical_triples(n: int, triples) -> np.ndarray:
    """The distinct triples, each sorted, as an int64 (m, 3) array in
    lexicographic order.

    An integer ndarray is copied to int64; other triples are read as one
    int64 buffer when every one has three entries.  The rows are sorted only
    when some row is out of order, and the array is then checked at once.
    When that fails (a bad triple, ragged rows, labels that are not integers,
    ints beyond int64, sets, ...) the triples are read again one by one as
    plain ints, so the first bad triple raises its error.
    """
    rows = triples if isinstance(triples, np.ndarray) else list(triples)
    if len(rows) == 0:
        return np.empty((0, 3), dtype=np.int64)
    E = None
    if isinstance(rows, np.ndarray):
        if rows.dtype.kind in "iu" and rows.ndim == 2 and rows.shape[1] == 3:
            E = rows.astype(np.int64)  # a copy: the caller's array is never frozen
    else:
        E = int64_triples(rows)
    if E is not None:
        if not ((E[:, 0] < E[:, 1]) & (E[:, 1] < E[:, 2])).all():
            E.sort(axis=1)
        if not ((E[:, 0] >= 0) & (E[:, 0] < E[:, 1]) & (E[:, 1] < E[:, 2]) & (E[:, 2] < n)).all():
            E = None
    if E is None:
        plain = rows.tolist() if isinstance(rows, np.ndarray) else rows
        E = np.array([_checked_triple(t, n) for t in plain], dtype=np.int64)
    if _strictly_increasing(E):
        return E  # already canonical, as generators and files give it
    E = E[np.lexsort((E[:, 2], E[:, 1], E[:, 0]))]
    fresh = np.ones(len(E), dtype=bool)
    fresh[1:] = (E[1:] != E[:-1]).any(axis=1)
    return E[fresh]


def _strictly_increasing(E: np.ndarray) -> bool:
    """Whether the rows of E strictly increase in lexicographic order."""
    a, b, c = E.T
    up = (a[1:] > a[:-1]) | (
        (a[1:] == a[:-1]) & ((b[1:] > b[:-1]) | ((b[1:] == b[:-1]) & (c[1:] > c[:-1])))
    )
    return bool(up.all())


def _pair_index(n: int, E: np.ndarray):
    """The shadow pairs of the canonical edge array E, and where each edge's
    pairs lie among them.

    Each edge {a, b, c} gives vertex a the opposite pair (b, c), and so on.
    Returns (keys, pair_id): ``keys`` are the shadow pairs as u*n + v
    (u < v), ascending, and ``pair_id[i, k]`` is the index in ``keys`` of the
    pair of edge i opposite its vertex ``E[i, k]``.  While the n*n keys are
    at most _DENSE_PAIRS per opposite pair, a table over all of them marks
    the pairs present, and a rank table over the same keys gives pair_id.
    Otherwise np.unique sorts the opposite pairs, so memory stays O(m) for
    sparse hypergraphs on many vertices.
    """
    a, b, c = E.T
    opposite = np.column_stack((b * n + c, a * n + c, a * n + b)).ravel()
    if n * n > _DENSE_PAIRS * len(opposite):
        keys, pair_id = np.unique(opposite, return_inverse=True)
        return keys, pair_id.reshape(-1, 3)
    seen = np.zeros(n * n, dtype=bool)
    seen[opposite] = True
    keys = np.flatnonzero(seen)
    rank = np.zeros(n * n, dtype=np.intp)
    rank[keys] = np.arange(len(keys))
    return keys, rank[opposite].reshape(-1, 3)


def _pair_rows(n: int, E: np.ndarray, count: int, pair_id: np.ndarray) -> np.ndarray:
    """The thirds rows of the ``count`` shadow pairs that ``pair_id`` (see
    :func:`_pair_index`) places the opposite pairs of the canonical edge
    array E on: a uint64 (count, ceil(n/64)) array whose row p has bit w set
    when pair p and w form an edge.

    The bits are marked in a table of one byte per (pair, vertex) cell,
    eight times the rows it is packed into: on tournament(150) that takes
    2-3 ms and peaks at 5.2 MiB against 10-12 ms and 9.7 MiB for an
    np.bitwise_or.at scatter, which holds less only for sparse hypergraphs
    on many vertices.
    """
    words = (n + 63) >> 6
    table = np.zeros(count * words * 64, dtype=bool)
    table[pair_id.ravel() * (words * 64) + E.ravel()] = True
    packed = np.packbits(table.reshape(count, words * 64), axis=1, bitorder="little")
    return packed.view("<u8").astype(np.uint64, copy=False)


def _adjacency(n: int, keys, rows):
    """The thirds map {u*n + v: bitmask of the w with {u, v, w} an edge} of
    the shadow pairs ``keys`` (u < v) and their thirds ``rows`` (see
    :func:`_pair_rows`), with both orders of each pair keyed to one int."""
    width = 8 * rows.shape[1]
    raw = rows.astype("<u8", copy=False).tobytes()
    masks = [int.from_bytes(raw[i : i + width], "little") for i in range(0, len(raw), width)]
    u, v = np.divmod(keys, n)
    adj = dict(zip(keys.tolist(), masks))
    adj.update(zip((v * n + u).tolist(), masks))
    return adj


def make(n: int, triples) -> Hypergraph3:
    """Build a canonicalized hypergraph; duplicate triples collapse."""
    return Hypergraph3(n, triples)


def bit_positions(mask: int) -> list[int]:
    """Positions of the set bits of a vertex-set bitmask, ascending."""
    out = []
    while mask:
        out.append((mask & -mask).bit_length() - 1)
        mask &= mask - 1
    return out


# -- subset search ---------------------------------------------------------
#
# Every density and quasirandom audit minimizes a score over the subsets of a
# fixed ground set.  The caller keeps the current set and its running counts;
# flip(i) toggles element i, score() rates the current set, and witness()
# describes it.  Both engines rate many sets at once and flip only to the
# winner.  The exact sweep takes scores(masks), the same score for a run of
# consecutive bitmasks, read off split-half tables (meet in the middle,
# Horowitz-Sahni 1974): ``split_sums`` or, in narrow integers,
# ``split_negatives``.  Each exact branch declares the tables it keeps to
# ``check_sweep`` before it builds them.  The sampled search takes rate(rows),
# the same score for a chunk of candidate sets unpacked into 0/1 rows, and
# then descends by single flips.
#
# Two constants bound memory.  _TABLE_CELLS caps the tables one exact sweep
# keeps.  _CHUNK_BYTES bounds what a vectorised pass holds beyond the tables
# it keeps: the pass works in chunks of ``chunk_len`` items, so that a
# working block of more than _CHUNK_BYTES is built piece by piece.

_CHUNK_BYTES = 1 << 20  # bytes one chunk of a vectorised pass may hold
_TABLE_CELLS = 1 << 26  # 8-byte cells (512 MiB) the tables of one exact sweep may hold


def chunk_len(item_bytes: int) -> int:
    """How many items of item_bytes bytes one chunk holds within _CHUNK_BYTES,
    and at least one."""
    return max(1, _CHUNK_BYTES // max(1, item_bytes))


def check_sweep(nbits: int, cells: int, bound: int) -> None:
    """Refuse an exact sweep that is out of reach, before anything is built.

    ``cells`` is the count of 8-byte cells the sweep's tables hold, and
    ``bound`` the largest magnitude its float64 values can reach (0 when it
    holds none); the passes that build and read the tables hold at most
    _CHUNK_BYTES more at once.  The sweep is out of reach past 62 bits
    (its masks are int64), past _TABLE_CELLS cells, or at a bound of 2^53 or
    more, where float64 stops holding every integer exactly.  This is the one
    place an exact audit is refused for its size.
    """
    if nbits > 62 or cells > _TABLE_CELLS or bound >= 1 << 53:
        size = f"{cells:,}" if cells < 1 << 40 else f"about 2^{cells.bit_length() - 1}"
        raise ValueError(
            f"an exact sweep over 2^{nbits} subsets with {size} table cells and values"
            f" up to {bound} is out of reach (the limits are 2^62 subsets,"
            f" {_TABLE_CELLS:,} cells of 8 bytes and values below 2^53)"
        )


def gray_rank(masks: np.ndarray) -> np.ndarray:
    """Inverse Gray code: the step at which a Gray-code walk from 0 reaches each mask."""
    rank = masks.copy()
    shift = 1
    while shift < 64:
        rank ^= rank >> shift
        shift <<= 1
    return rank


def subset_sweep(nbits: int, scores, width: int, flip, score, witness):
    """Exhaustive minimum of the score over all 2^nbits subsets.

    The masks are rated in chunks of consecutive masks, ascending, by
    ``scores(masks)``, which returns the chunk's integer scores and which the
    caller declares to hold at most ``width`` 8-byte cells per mask at once;
    with the chunk's masks and scores that is at most _CHUNK_BYTES, or one
    mask.  A chunk is an aligned run: its length is a power of two and its
    first mask a multiple of that length.  The tables ``scores`` reads from
    are the caller's, declared to ``check_sweep``.  The minimum is taken by
    the key (score, Gray rank), so on ties the set a Gray-code walk from the
    empty set reaches first wins.  The caller's set, empty at the start, is
    then flipped to the winner, and score() must give the table's value there
    before witness() describes it.
    Returns (best score, witness).
    """
    step = 1 << chunk_len(8 * (width + 2)).bit_length() - 1  # a power of two
    check_sweep(nbits, step * (width + 2), 0)
    total = 1 << nbits
    best = best_rank = best_mask = None
    for start in range(0, total, step):
        masks = np.arange(start, min(start + step, total), dtype=np.int64)
        s = scores(masks)
        low = s.min()
        if best is not None and low > best:
            continue
        ties = masks[s == low]
        ranks = gray_rank(ties)
        k = int(ranks.argmin())
        if best is None or low < best or ranks[k] < best_rank:
            best, best_rank, best_mask = low, ranks[k], int(ties[k])
    for i in bit_positions(best_mask):
        flip(i)
    replayed = score()
    if replayed != best:
        raise RuntimeError(
            f"subset sweep: the set {best_mask:#x} scores {replayed} by flips, {best} by table"
        )
    return int(best), witness()


def split_sums(rows):
    """Vectorised subset sums of the rows of an (nbits, k) array.

    Returns sums(masks) for an aligned run of masks, such as a chunk of
    ``subset_sweep``: row i of the result is the sum of rows[j] over the set
    bits j of masks[i], read as F_lo[low half] + F_hi[high half] from two
    tables of all subset sums of the low and the high half of the rows, which
    hold about 2^(nbits/2) k cells each.  An aligned run lies within one block
    of 2^half masks or covers whole blocks, so it is F_hi[his, None] +
    F_lo[None, lows] for its high halves his and low halves lows, and no
    table row is gathered by index.  The sums keep the rows' dtype, and the
    two tables hold ``split_cells(nbits, k)`` cells.
    """
    rows = np.asarray(rows)
    half = len(rows) // 2
    lo, hi = _all_sums(rows[:half]), _all_sums(rows[half:])
    low_bits = (1 << half) - 1

    def sums(masks):
        first, last = int(masks[0]), int(masks[-1])
        block = hi[first >> half : (last >> half) + 1, None] + lo[None, first & low_bits : (last & low_bits) + 1]
        return block.reshape(len(masks), *lo.shape[1:])

    return sums


def split_cells(nbits: int, k: int) -> int:
    """The cells of the two split-half tables built from nbits rows of k."""
    return ((1 << nbits // 2) + (1 << nbits - nbits // 2)) * k


def int_dtype(bound: int) -> np.dtype:
    """The narrowest signed integer dtype, int16 or wider, that holds every
    magnitude up to bound; object (Python ints) past int64."""
    fits = [t for t in (np.int16, np.int32, np.int64) if bound <= np.iinfo(t).max]
    return np.dtype(fits[0] if fits else object)


def int_cells(count: int, bound: int) -> int:
    """The 8-byte cells that count values of ``int_dtype(bound)`` fill."""
    return -(-count * int_dtype(bound).itemsize // 8)


def split_negatives(rows, bound: int):
    """negs(masks): for an aligned run of masks, as ``split_sums`` reads them,
    the sum over the k columns of min(subset sum of the (nbits, k) rows, 0).

    All of it is in ``int_dtype(bound)``: each column of a subset sum, and
    each such sum, must lie within bound.  The split-half tables, which hold
    ``split_cells(nbits, k)`` values, are built from the rows in that dtype
    and held transposed, (k, 2^half), so a run's sums fill one (k, run)
    buffer, which is clipped in place and summed over its k rows; with its
    row of zeros it is reused from call to call: k + 2 values per mask.
    """
    dtype, rows = int_dtype(bound), np.asarray(rows)
    half, k = len(rows) // 2, rows.shape[1]

    def table(part):  # (k, 2^len(part)), filled through its transpose
        return _all_sums(part, np.zeros((k, 1 << len(part)), dtype=dtype).T).T

    lo, hi = table(rows[:half]), table(rows[half:])
    low_bits = (1 << half) - 1
    buf = zeros = np.zeros(0, dtype=dtype)

    def negs(masks):
        nonlocal buf, zeros
        first, last, run = int(masks[0]), int(masks[-1]), len(masks)
        his = slice(first >> half, (last >> half) + 1)
        lows = slice(first & low_bits, (last & low_bits) + 1)
        if len(zeros) < run:
            buf, zeros = np.empty(k * run, dtype=dtype), np.zeros(run, dtype=dtype)
        block = buf[: k * run].reshape(k, his.stop - his.start, lows.stop - lows.start)
        np.add(hi[:, his, None], lo[:, None, lows], out=block)
        block = block.reshape(k, run)
        # a row of zeros, not the scalar 0, keeps numpy on its vectorised loop
        np.minimum(block, zeros[:run], out=block)
        return block.sum(axis=0, dtype=dtype)

    return negs


def _all_sums(rows: np.ndarray, table: np.ndarray | None = None) -> np.ndarray:
    """table[m] = sum of rows[j] over the set bits j of m, for every m < 2^len(rows),
    filled in place: the sets holding bit j are those below it plus row j.
    The table is a new one in the rows' dtype, or the given zeroed array or view."""
    if table is None:
        table = np.zeros((1 << len(rows),) + rows.shape[1:], dtype=rows.dtype)
    for j, row in enumerate(rows):
        np.add(table[: 1 << j], row, out=table[1 << j : 2 << j])
    return table


def subset_search(nbits: int, rate, width: int, flip, score, witness, candidates):
    """Heuristic minimum of the score: the best candidate set, then single-flip
    descent.

    The candidate bitmasks are unpacked into 0/1 rows (``unpack_rows``) in
    chunks and rated by ``rate(rows)``, which returns each row's integer
    score and which the caller declares to hold at most ``width`` 8-byte
    cells per row at once; with the chunk's rows and scores that is at most
    _CHUNK_BYTES, or one row.  The first candidate of least score wins, as a
    walk taking the first and then each strict decrease would choose.  The
    caller's set, empty at the start, is flipped to it, and score() must give
    the rated value there.  Then elements 0..nbits-1 are flipped in turn, a
    flip kept when it strictly lowers score() and undone otherwise, until a
    whole pass keeps none.  score() then witness() describe the final set.
    Returns (best score, witness).
    """
    step = chunk_len(nbits + 8 * (width + 1))
    best = best_mask = None
    for start in range(0, len(candidates), step):
        chunk = candidates[start : start + step]
        s = rate(unpack_rows(chunk, nbits))
        k = int(s.argmin())
        if best is None or s[k] < best:
            best, best_mask = s[k], chunk[k]
    for i in bit_positions(best_mask):
        flip(i)
    replayed = score()
    if replayed != best:
        raise RuntimeError(
            f"subset search: the set {best_mask:#x} scores {replayed} by flips, {best} by rate"
        )
    improved = True
    while improved:
        improved = False
        for i in range(nbits):
            flip(i)
            s = score()
            if s < best:
                best = s
                improved = True
            else:
                flip(i)
    return score(), witness()


RNG_ALGORITHM = "numpy-pcg64"


def rng(seed) -> np.random.Generator:
    """The seeded stream behind every generator and sampled audit.

    numpy's PCG64 reproduces the same draws from the same seed on every
    platform; reports record it as :data:`RNG_ALGORITHM`.
    """
    return np.random.Generator(np.random.PCG64(seed))


def pack_rows(bits: np.ndarray) -> list[int]:
    """The rows of a 2-D boolean array as ints: bit j of int i is bits[i, j]."""
    packed = np.packbits(bits, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def unpack_rows(ints, nbits: int) -> np.ndarray:
    """The inverse of ``pack_rows``: a uint8 (len(ints), nbits) array of 0/1
    whose entry [i, j] is bit j of ints[i], each int below 2^nbits."""
    width = (nbits + 7) // 8
    raw = b"".join(x.to_bytes(width, "little") for x in ints)
    packed = np.frombuffer(raw, dtype=np.uint8).reshape(len(ints), width)
    return np.unpackbits(packed, axis=1, count=nbits, bitorder="little")


def random_rows(gen, count: int, nbits: int, p: float) -> list[int]:
    """count random nbits-bit ints, bit j of int i set when the uniform draw
    (i, j) of gen.random((count, nbits)) is below p.

    The draws are made in blocks of rows within _CHUNK_BYTES; Generator.random
    fills row by row, so the ints equal those of the one draw.
    """
    step = chunk_len(8 * nbits)
    rows = []
    for start in range(0, count, step):
        rows += pack_rows(gen.random((min(step, count - start), nbits)) < p)
    return rows


def random_masks(nbits: int, gen, samples: int) -> list[int]:
    """max(1, samples // 3) random subsets at each element density 1/4, 1/2, 3/4."""
    masks = []
    for density in (0.25, 0.5, 0.75):
        masks += random_rows(gen, max(1, samples // 3), nbits, density)
    return masks


# -- named families ------------------------------------------------------


def clique(t: int) -> Hypergraph3:
    """K_t on vertices 0..t-1 with all triples as edges."""
    if t < 3:
        raise HypergraphError(f"clique needs t >= 3, got {t}")
    return Hypergraph3(t, itertools.combinations(range(t), 3))


def clique_minus4() -> Hypergraph3:
    """Four vertices, three edges: all triples through vertex 0."""
    return Hypergraph3(4, [(0, 1, 2), (0, 1, 3), (0, 2, 3)])


def cycle5() -> Hypergraph3:
    """Tight 3-uniform cycle of length five on Z/5Z."""
    return Hypergraph3(5, [tuple(sorted((i, (i + 1) % 5, (i + 2) % 5))) for i in range(5)])


def cone(g_n: int, g_edges) -> Hypergraph3:
    """Cone over the graph (g_n, g_edges): apex vertex g_n joined to every graph edge."""
    triples = []
    for e in g_edges:
        u, v = sorted(e)
        if u == v or u < 0 or v >= g_n:
            raise HypergraphError(f"bad graph edge {e!r} for {g_n} vertices")
        triples.append((u, v, g_n))
    return Hypergraph3(g_n + 1, triples)


def star(k: int) -> Hypergraph3:
    """Cone over the complete graph on k vertices (apex is vertex k)."""
    if k < 2:
        raise HypergraphError(f"star needs k >= 2, got {k}")
    return cone(k, itertools.combinations(range(k), 2))


def fano() -> Hypergraph3:
    """The 7-point projective plane, labelled by the difference set {0,1,3} mod 7.

    Lines are {i, i+1, i+3} mod 7; every pair of points lies on exactly one line.
    """
    return Hypergraph3(7, [tuple(sorted((i, (i + 1) % 7, (i + 3) % 7))) for i in range(7)])


_STAR_RE = re.compile(r"^star(\d+)$")
_CLIQUE_RE = re.compile(r"^k(\d+)$")


def named(spec: str) -> Hypergraph3:
    """Resolve a textual family name: k4, k4minus, k5, ..., cycle5, fano, star4, edge."""
    s = spec.strip().lower()
    if s in ("k4minus", "k4-"):
        return clique_minus4()
    if s in ("cycle5", "c5"):
        return cycle5()
    if s == "fano":
        return fano()
    if s == "edge":
        return Hypergraph3(3, [(0, 1, 2)])
    m = _STAR_RE.match(s)
    if m:
        return star(int(m.group(1)))
    m = _CLIQUE_RE.match(s)
    if m:
        return clique(int(m.group(1)))
    raise HypergraphError(f"unknown hypergraph family {spec!r}")


# -- embedding search ----------------------------------------------------


@dataclass(frozen=True)
class Embedding:
    """An injective, edge-preserving map V(F) -> V(H); mapping[v] is the image of v."""

    mapping: tuple[int, ...]


def check_embedding(F: Hypergraph3, H: Hypergraph3, emb: Embedding) -> bool:
    """Independent validation: injectivity plus edge preservation."""
    m = emb.mapping
    if len(m) != F.n or len(set(m)) != F.n:
        return False
    if any(v < 0 or v >= H.n for v in m):
        return False
    return all(H.has_edge(m[a], m[b], m[c]) for a, b, c in F.edges)


def find_embedding(F: Hypergraph3, H: Hypergraph3) -> Embedding | None:
    """Backtracking subhypergraph search, or None after exhausting all maps.

    Vertices of F are processed in static order of descending degree, and
    each is tried on the vertices of H in ascending order.  The candidates
    for a vertex are the unused vertices completing every edge it closes: the
    AND of ``H.thirds`` over the images of the edges' other two vertices.  A
    partial map is also pruned when some edge with two mapped vertices has no
    unused third vertex left.  The search runs on an explicit stack, so F may
    have any number of vertices.
    """
    if F.n > H.n:
        return None
    if not F.edges:
        return Embedding(tuple(range(F.n)))  # any injection works; identity is one

    degree = np.bincount(F.array.ravel(), minlength=F.n).tolist()
    order = sorted(range(F.n), key=lambda v: (-degree[v], v))
    pos = {v: i for i, v in enumerate(order)}
    # edges are closed at the step of their last-placed vertex (kept: the
    # other two vertices), and 2/3-mapped at the step of their middle one
    closed_at: list[list[tuple[int, int]]] = [[] for _ in range(F.n)]
    two_at: list[list[tuple[int, int]]] = [[] for _ in range(F.n)]
    for e in F.edges:
        first, middle, last = sorted(e, key=pos.__getitem__)
        closed_at[pos[last]].append((first, middle))
        two_at[pos[middle]].append((first, middle))

    img = [-1] * F.n
    # explicit stack: free[step] is the set of H's vertices order[:step] leave
    # unused, cands[step] the candidates of order[step] left to try (None
    # until the step is entered)
    free = [(1 << H.n) - 1] * F.n
    cands: list[int | None] = [None] * F.n
    get, n, last, step = H._adjacency().get, H.n, F.n - 1, 0  # images are distinct, in range
    while step >= 0:
        v, twos, unused = order[step], two_at[step], free[step]
        cand = cands[step]
        if cand is None:
            cand = unused
            for a, b in closed_at[step]:
                cand &= get(img[a] * n + img[b], 0)
        while cand:
            bit = cand & -cand
            cand ^= bit
            img[v] = bit.bit_length() - 1
            avail = unused ^ bit
            for a, b in twos:
                if not get(img[a] * n + img[b], 0) & avail:
                    break
            else:
                break  # every 2/3-mapped edge keeps an unused third
        else:
            img[v], cands[step] = -1, None
            step -= 1
            continue
        if step == last:
            return Embedding(tuple(img))
        cands[step] = cand
        step += 1
        free[step] = avail
    return None


def _rows_meet(H: Hypergraph3, groups) -> bool:
    """Whether some edge has, for some group of its pair columns (see
    :func:`_pair_index`), thirds rows with a common bit.

    The pair index is built here and dropped on return; only the thirds rows
    are cached.  The edges are taken in chunks whose three gathered rows fit
    _CHUNK_BYTES, and the first chunk with a meeting ends the scan.
    """
    _, rows = H._pair_rows()
    _, pair_id = _pair_index(H.n, H.array)
    step = chunk_len(3 * rows.itemsize * rows.shape[1])
    for lo in range(0, len(pair_id), step):
        chunk = pair_id[lo : lo + step]
        gathered = [rows.take(chunk[:, k], axis=0) for k in range(3)]
        for first, second, *rest in groups:
            common = gathered[first] & gathered[second]
            for k in rest:
                common &= gathered[k]
            if common.any():
                return True
    return False


def contains_clique4(H: Hypergraph3) -> bool:
    """Exhaustive tetrahedron test: some edge {x,y,z} has a common fourth vertex.

    Equivalent to checking all 4-subsets: {x,y,z,w} spans a K4 iff w completes
    all three pairs of some edge, that is, iff the thirds rows of the edge's
    three pairs meet (none of them holds x, y or z).
    """
    return _rows_meet(H, ((0, 1, 2),))


def contains_clique4_minus(H: Hypergraph3) -> bool:
    """Exhaustive K4-minus test: two pairs of an edge at a shared vertex have a
    common third vertex.

    A 4-set spans at least three edges iff some vertex x of it lies on three,
    xab, xac and xbc.  Then c completes both pairs xa and xb of the edge xab.
    Conversely, w completing the pairs xa and xb of an edge xab gives the
    edges xab, xaw and xbw.  Every 4-subset of V(H) is therefore covered.
    """
    return _rows_meet(H, ((1, 2), (0, 2), (0, 1)))
