"""Seeded generators for the probabilistic constructions: random pair
colourings, pattern hypergraphs, the tournament and colour-disagreement
hypergraphs, and the lift of a reduced hypergraph to a concrete one.

All randomness flows through ``hypergraph.rng`` (numpy's PCG64) so that
identical seeds reproduce identical objects on every platform; the algorithm
identifier is recorded in generated reports.  Generators are single-threaded
per seed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .hypergraph import Hypergraph3, chunk_len, pack_rows, rng
from .palette import Palette, PaletteError, WeightedColorSet, builtin
from .quasirandom import BipartiteGraph
from .reduced import ReducedHypergraph, pair_rank


@dataclass
class PairColoring:
    """Total colouring of all pairs {x, y} of 0..n-1 by colours of a weighted set."""

    n: int
    base: WeightedColorSet
    codes: np.ndarray  # colour indices, length C(n, 2), pair-rank order

    def __post_init__(self):
        want = self.n * (self.n - 1) // 2
        if len(self.codes) != want:
            raise PaletteError(f"expected {want} pair colours, got {len(self.codes)}")
        if len(self.codes) and int(self.codes.max(initial=0)) >= len(self.base.colors):
            raise PaletteError("colour code out of range")

    def code(self, x: int, y: int) -> int:
        if x > y:
            x, y = y, x
        return int(self.codes[pair_rank(self.n, x, y)])

    def color(self, x: int, y: int) -> str:
        return self.base.colors[self.code(x, y)]

    def items(self):
        for x, y in itertools.combinations(range(self.n), 2):
            yield (x, y), self.color(x, y)


def random_pair_coloring(n: int, base: WeightedColorSet, seed) -> PairColoring:
    """Each pair independently receives colour c with probability weight(c)."""
    if n < 1:
        raise PaletteError(f"need n >= 1, got {n}")
    m = n * (n - 1) // 2
    u = rng(seed).random(m)
    cum = np.cumsum([float(w) for w in base.weights])
    cum[-1] = 1.0
    codes = np.searchsorted(cum, u, side="right")
    return PairColoring(n, base, np.minimum(codes, len(base.colors) - 1))


def build_H(phi: PairColoring, P: Palette) -> Hypergraph3:
    """Edges are the triples x < y < z whose pair colours, read as
    (smallest pair, outer pair, largest pair), form a palette pattern.

    The pair colours fill the upper triangle of an n x n code matrix M whose
    other cells hold a code K that no pattern uses.  A triple (x, y, z) is then
    an edge iff cube[M[x,y], M[x,z], M[y,z]] holds, which already fails unless
    x < y < z.  The lookup is one gather from the flat cube at
    (M[x,y] B + M[x,z]) B + M[y,z], B = K + 1.  It runs over slabs of rows x,
    each with y and z past the slab's first row and one flat index and one
    hit byte per cell within ``chunk_len``, and np.argwhere lists every
    slab's edges in lexicographic order.
    """
    for c in phi.base.colors:
        if c not in P.base.colors:
            raise PaletteError(f"colouring colour {c!r} unknown to the palette")
    n = phi.n
    K = len(P.base.colors)
    translate = np.array([P.base.index(c) for c in phi.base.colors], dtype=np.intp)
    M = np.full((n, n), K, dtype=np.intp)
    M[np.triu_indices(n, 1)] = translate[phi.codes]
    B = K + 1
    cube = np.zeros((B,) * 3, dtype=bool)
    for a, b, c in P.pattern_codes():
        cube[a, b, c] = True
    slabs = [np.empty((0, 3), dtype=np.int64)]
    x0 = 0
    while x0 < n - 2:
        w = n - x0 - 1  # y and z run over x0+1 .. n-1
        x1 = min(n - 2, x0 + chunk_len((M.itemsize + 1) * w * w))
        at = M[x0:x1, x0 + 1 :, None] * (B * B) + M[x0:x1, None, x0 + 1 :] * B
        at += M[x0 + 1 :, x0 + 1 :]
        slabs.append(np.argwhere(cube.take(at)) + (x0, x0 + 1, x0 + 1))
        x0 = x1
    E = np.concatenate(slabs)
    del slabs  # the parts go before the constructor copies E
    return Hypergraph3(n, E)


def tournament_hypergraph(n: int, seed) -> Hypergraph3:
    """Cyclic-triangle hypergraph of a uniformly random tournament, realized as
    the pattern hypergraph of the two cyclic orientation patterns."""
    if n < 3:
        raise PaletteError(f"need n >= 3, got {n}")
    P = builtin("tournament")
    return build_H(random_pair_coloring(n, P.base, seed), P)


def tournament_hypergraph_direct(n: int, seed) -> Hypergraph3:
    """Independent oracle: orient each pair by the same colouring ('fwd' on
    (x, y) means the arc x -> y) and list triples where every vertex beats
    exactly one other."""
    P = builtin("tournament")
    phi = random_pair_coloring(n, P.base, seed)
    beats = np.zeros((n, n), dtype=bool)
    for x, y in itertools.combinations(range(n), 2):
        if phi.code(x, y) == 0:  # fwd
            beats[x, y] = True
        else:
            beats[y, x] = True
    edges = []
    for t in itertools.combinations(range(n), 3):
        x, y, z = t
        wins = (
            beats[x, y] + beats[x, z],
            beats[y, x] + beats[y, z],
            beats[z, x] + beats[z, y],
        )
        if wins == (1, 1, 1):
            edges.append(t)
    return Hypergraph3(n, edges)


def roedl_hypergraph(n: int, seed) -> Hypergraph3:
    """Triples x < y < z whose pairs xy and xz received different colours."""
    if n < 3:
        raise PaletteError(f"need n >= 3, got {n}")
    P = builtin("roedl")
    return build_H(random_pair_coloring(n, P.base, seed), P)


# -- lifting reduced hypergraphs ---------------------------------------------------


@dataclass
class PartitionedColoring:
    """Colouring of the crossing pairs of an equipartition by class vertices.

    Vertex v lives in block v // block_size; the pair of x in block i and y in
    block j (i < j) receives a local vertex of class (i, j).
    """

    block_size: int
    class_sizes: dict
    codes: dict  # (i, j) -> ndarray of shape (h, h): codes[i,j][x%h, y%h]

    @property
    def indices(self) -> tuple:
        return tuple(sorted({i for pair in self.class_sizes for i in pair}))

    @property
    def n(self) -> int:
        return self.block_size * len(self.indices)

    def block(self, v: int) -> int:
        return self.indices[v // self.block_size]

    def color(self, x: int, y: int):
        """(class pair, local vertex) for a crossing pair; None for internal pairs."""
        if x > y:
            x, y = y, x
        h = self.block_size
        i, j = self.block(x), self.block(y)
        if i == j:
            return None
        return (i, j), int(self.codes[(i, j)][x % h, y % h])

    def items(self):
        """The crossing pairs (x, y), x < y, in lexicographic order, each with
        its colour (class pair, local vertex), as ``color`` gives it."""
        h, indices = self.block_size, self.indices
        codes = {pair: np.asarray(c).tolist() for pair, c in self.codes.items()}
        for x, y in itertools.combinations(range(self.n), 2):
            i, j = indices[x // h], indices[y // h]
            if i != j:
                yield (x, y), ((i, j), codes[(i, j)][x % h][y % h])

    def class_graph(self, i: int, j: int, local: int) -> BipartiteGraph:
        """Bipartite graph between blocks i and j formed by one colour class."""
        arr = self.codes[(i, j)] == local
        return BipartiteGraph(arr.shape[0], arr.shape[1], tuple(pack_rows(arr)))


def random_partitioned_coloring(A: ReducedHypergraph, h: int, seed) -> PartitionedColoring:
    """Every crossing pair independently receives a uniform vertex of its class."""
    if h < 1:
        raise PaletteError(f"block size must be positive, got {h}")
    gen = rng(seed)
    codes = {}
    for pair in sorted(A.class_sizes):
        codes[pair] = gen.integers(0, A.class_sizes[pair], size=(h, h))
    return PartitionedColoring(h, dict(A.class_sizes), codes)


@dataclass
class LiftResult:
    hypergraph: Hypergraph3
    coloring: PartitionedColoring


def lift_hypergraph(A: ReducedHypergraph, pc: PartitionedColoring) -> Hypergraph3:
    """Edges are crossing triples whose three pair colours form a constituent edge.

    The colourings of the classes form one (classes, h, h) code array; each
    stack of constituent cubes is read at the codes of its role classes with
    one gather, and np.argwhere lists the hits as (constituent, x, y, z)."""
    h = pc.block_size
    n = h * len(A.indices)
    codes = np.stack([pc.codes[pair] for pair in A.class_sizes])  # sorted, the order of class_rows
    edges = [np.empty((0, 3), dtype=np.int64)]
    for triples, cubes in A.stacks:
        rows = A.class_rows(triples)
        hit = cubes[
            np.arange(len(triples))[:, None, None, None],
            codes[rows[:, 0]][:, :, :, None],
            codes[rows[:, 1]][:, :, None, :],
            codes[rows[:, 2]][:, None, :, :],
        ]
        at = np.argwhere(hit)
        block = np.searchsorted(A.indices, np.array(triples).reshape(-1, 3))  # index positions
        edges.append(at[:, 1:] + h * block[at[:, 0]])
    return Hypergraph3(n, np.concatenate(edges))


def lift_reduced(A: ReducedHypergraph, h: int, seed) -> LiftResult:
    """Concrete hypergraph on h*|I| vertices built from a reduced hypergraph.

    Crossing pairs get uniformly random class vertices; only crossing
    triples can become edges.  Quasirandomness of the sampled colour classes
    is audited separately, never enforced by resampling.  To lift a given
    colouring, call :func:`lift_hypergraph`.
    """
    coloring = random_partitioned_coloring(A, h, seed)
    return LiftResult(lift_hypergraph(A, coloring), coloring)
