"""3-uniform hypergraphs on integer vertices, named families, embedding search,
and the subset-search engine that the density and quasirandom audits share.

Vertices are dense integers ``0..n-1``.  Edges are stored as lexicographically
sorted triples; adjacency is additionally kept as a pair -> bitmask-of-third-
vertices map so that membership tests and counting loops are O(1) per query.
Instances are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from math import comb


class HypergraphError(ValueError):
    """Malformed hypergraph input (vertex out of range, repeated vertex, ...)."""


class Hypergraph3:
    """An immutable 3-uniform hypergraph on the vertex set {0, ..., n-1}."""

    __slots__ = ("n", "edges", "_edge_set", "_thirds", "_link")

    def __init__(self, n: int, triples=()):
        if n < 0:
            raise HypergraphError(f"vertex count must be nonnegative, got {n}")
        canon = set()
        for t in triples:
            t = tuple(t)
            if len(t) != 3:
                raise HypergraphError(f"not a triple: {t!r}")
            a, b, c = sorted(int(x) for x in t)  # plain ints keep bitmasks unbounded
            if a == b or b == c:
                raise HypergraphError(f"repeated vertex in triple {t!r}")
            if a < 0 or c >= n:
                raise HypergraphError(f"vertex out of range in triple {t!r} (n={n})")
            canon.add((a, b, c))
        self.n = n
        self.edges = tuple(sorted(canon))
        self._edge_set = frozenset(self.edges)
        thirds: dict[tuple[int, int], int] = {}
        link: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        for a, b, c in self.edges:
            thirds[(a, b)] = thirds.get((a, b), 0) | (1 << c)
            thirds[(a, c)] = thirds.get((a, c), 0) | (1 << b)
            thirds[(b, c)] = thirds.get((b, c), 0) | (1 << a)
            link[a].append((b, c))
            link[b].append((a, c))
            link[c].append((a, b))
        self._thirds = thirds
        self._link = tuple(tuple(ps) for ps in link)

    # -- basic queries ----------------------------------------------------

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def has_edge(self, a: int, b: int, c: int) -> bool:
        return tuple(sorted((a, b, c))) in self._edge_set

    def thirds(self, u: int, v: int) -> int:
        """Bitmask of vertices w with {u, v, w} an edge."""
        if u > v:
            u, v = v, u
        return self._thirds.get((u, v), 0)

    def degree(self, v: int) -> int:
        return len(self._link[v])

    def link(self, v: int) -> tuple[tuple[int, int], ...]:
        """Pairs (x, y) with x < y such that {v, x, y} is an edge."""
        return self._link[v]

    def shadow(self) -> set[tuple[int, int]]:
        """All pairs {u, v} covered by at least one edge."""
        return set(self._thirds)

    def density(self):
        from fractions import Fraction

        if self.n < 3:
            return Fraction(0)
        return Fraction(len(self.edges), comb(self.n, 3))

    # -- dunder -----------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, Hypergraph3)
            and self.n == other.n
            and self.edges == other.edges
        )

    def __hash__(self):
        return hash((self.n, self.edges))

    def __repr__(self):
        return f"Hypergraph3(n={self.n}, m={len(self.edges)})"


def make(n: int, triples) -> Hypergraph3:
    """Build a canonicalized hypergraph; duplicate triples collapse."""
    return Hypergraph3(n, triples)


def shadow(F: Hypergraph3) -> set[tuple[int, int]]:
    return F.shadow()


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
# fixed ground set.  The caller keeps the current set and its
# running counts; flip(i) toggles element i, score() rates the current set,
# and witness() describes it (called only when the incumbent improves).


def subset_sweep(nbits: int, flip, score, witness):
    """Exhaustive minimum of score() over all 2^nbits subsets, by Gray code.

    The caller's set starts empty and is scored first; each later step flips
    one element.  The incumbent is replaced only on a strict decrease, so on
    ties the earliest set in Gray order wins.  Returns (best score, witness).
    """
    best, wit = score(), witness()
    for g in range(1, 1 << nbits):
        flip((g & -g).bit_length() - 1)
        s = score()
        if s < best:
            best, wit = s, witness()
    return best, wit


def subset_search(nbits: int, flip, score, witness, candidates):
    """Heuristic minimum of score(): candidate sets, then single-flip descent.

    The candidate bitmasks are scored in order, the caller's set (empty at
    the start) moving between them by flipping the bits that differ; the
    first is always taken, later ones on a strict decrease.  From the best
    candidate, elements 0..nbits-1 are flipped in turn, a flip kept when it
    strictly lowers the score and undone otherwise, until a whole pass keeps
    none.  Returns (best score, witness).
    """
    state = 0
    best = wit = best_mask = None
    for cand in candidates:
        for i in bit_positions(state ^ cand):
            flip(i)
        state = cand
        s = score()
        if best is None or s < best:
            best, wit, best_mask = s, witness(), cand
    for i in bit_positions(state ^ best_mask):
        flip(i)
    improved = True
    while improved:
        improved = False
        for i in range(nbits):
            flip(i)
            s = score()
            if s < best:
                best, wit = s, witness()
                improved = True
            else:
                flip(i)
    return best, wit


def random_masks(nbits: int, rng, samples: int) -> list[int]:
    """max(1, samples // 3) random subsets at each element density 1/4, 1/2, 3/4."""
    masks = []
    for density in (0.25, 0.5, 0.75):
        for _ in range(max(1, samples // 3)):
            bits = rng.random(nbits) < density
            masks.append(sum(1 << i for i in range(nbits) if bits[i]))
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

    def __getitem__(self, v: int) -> int:
        return self.mapping[v]


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

    Vertices of F are processed in static order of descending degree; partial
    maps are pruned by requiring every fully mapped edge to be an edge of H
    and every mapped shadow pair to still have an unused third vertex.
    """
    if F.n > H.n:
        return None
    if not F.edges:
        return Embedding(tuple(range(F.n)))  # any injection works; identity is one

    order = sorted(range(F.n), key=lambda v: (-F.degree(v), v))
    pos = {v: i for i, v in enumerate(order)}
    # edges become fully mapped at the step of their last-placed vertex,
    # and 2/3-mapped at the step of their middle-placed vertex
    full_at: list[list[tuple[int, int, int]]] = [[] for _ in range(F.n)]
    two_at: list[list[tuple[int, int, int]]] = [[] for _ in range(F.n)]
    for e in F.edges:
        by_pos = sorted(e, key=pos.__getitem__)
        full_at[pos[by_pos[2]]].append(e)
        two_at[pos[by_pos[1]]].append(tuple(by_pos))

    img = [-1] * F.n
    used = 0
    full_mask = (1 << H.n) - 1

    def bt(step: int):
        nonlocal used
        if step == F.n:
            return Embedding(tuple(img))
        v = order[step]
        for h in range(H.n):
            bit = 1 << h
            if used & bit:
                continue
            img[v] = h
            ok = all(
                H.has_edge(img[a], img[b], img[c]) for a, b, c in full_at[step]
            )
            if ok:
                used |= bit
                avail = full_mask & ~used
                for a, b, _c in two_at[step]:
                    if not H.thirds(img[a], img[b]) & avail:
                        ok = False
                        break
                if ok:
                    res = bt(step + 1)
                    if res is not None:
                        return res
                used &= ~bit
        img[v] = -1
        return None

    return bt(0)


def embeds(F: Hypergraph3, H: Hypergraph3) -> bool:
    return find_embedding(F, H) is not None


def contains_clique4(H: Hypergraph3) -> bool:
    """Exhaustive tetrahedron test: some edge {x,y,z} has a common fourth vertex.

    Equivalent to checking all 4-subsets: {x,y,z,w} spans a K4 iff w completes
    all three pairs of some edge.
    """
    for x, y, z in H.edges:
        if H.thirds(x, y) & H.thirds(x, z) & H.thirds(y, z):
            return True
    return False


def contains_clique4_minus(H: Hypergraph3) -> bool:
    """Exhaustive K4-minus test via link triangles.

    A copy of the 3-edge hypergraph on 4 vertices exists iff some vertex x has a
    triangle in its link graph, which covers every 4-subset of V(H).
    """
    for x in range(H.n):
        pairs = H.link(x)
        if len(pairs) < 3:
            continue
        adj: dict[int, int] = {}
        for a, b in pairs:
            adj[a] = adj.get(a, 0) | (1 << b)
            adj[b] = adj.get(b, 0) | (1 << a)
        for a, b in pairs:
            if adj[a] & adj[b]:
                return True
    return False
