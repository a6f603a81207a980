"""Reduced hypergraphs: index set I, one disjoint vertex class per index pair,
and one tripartite constituent per index triple.

Class disjointness is enforced by construction: a vertex is addressed as
(pair, local index), never by a caller-supplied global id.  Within the
constituent of a sorted triple (i, j, k) the three roles are 0 = class (i,j),
1 = class (i,k), 2 = class (j,k), and a constituent edge is a triple of local
indices in role order, stored as a True cell of the constituent's cube.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from math import comb

import numpy as np

from .hypergraph import Hypergraph3, int64_triples, rng
from .palette import NO_SYMMETRY, NOTIONS, Palette, Symmetry, solve_ternary, ternary_tables


class ReducedError(ValueError):
    """Malformed reduced hypergraph or infeasible operation preconditions."""


def pair_rank(n: int, x, y):
    """Rank of the pair (x, y), x < y, in lexicographic order over all pairs
    of 0..n-1; x and y may be int arrays."""
    return x * (2 * n - x - 1) // 2 + (y - x - 1)


def _ceil_frac(f: Fraction) -> int:
    return -((-f.numerator) // f.denominator)


def _checked_edges(edges: list, lim, name: str) -> np.ndarray:
    """The edges, a list of tuples, as an (m, 3) array once every edge is a
    triple of integers inside the role classes; the first bad one is reported."""
    E = int64_triples(edges)
    if E is None or not ((E >= 0) & (E < lim)).all():
        for e in edges:  # find the first bad edge, with the tuple's own values
            try:
                labels = [operator.index(x) for x in e]
            except TypeError:
                raise ReducedError(
                    f"constituent edge {e} of {name} has a label that is not an integer"
                ) from None
            if len(e) != 3 or any(not 0 <= x < s for x, s in zip(labels, lim)):
                raise ReducedError(f"constituent edge {e} outside classes of {name}")
    return E


def _refuse_stray_keys(keys, allowed, kind: str) -> None:
    """Refuse the first key that is not in ``allowed``, rather than drop it."""
    allowed = set(allowed)
    for key in keys:
        if key not in allowed:
            raise ReducedError(f"{kind} key {key} is not a sorted {kind} of the index set")


def _checked_classes(indices, class_sizes) -> tuple[tuple, dict]:
    """The sorted indices and the size of every class, an integer of at least
    one; a size such as 2.5 or '2' is refused, never truncated."""
    indices = tuple(sorted(indices))
    if len(set(indices)) != len(indices) or len(indices) < 2:
        raise ReducedError("index set must hold at least two distinct indices")
    sizes = {}
    for i, j in itertools.combinations(indices, 2):
        size = class_sizes.get((i, j), 0)
        try:
            size = operator.index(size)
        except TypeError:
            raise ReducedError(f"class ({i},{j}) has size {size!r}, not an integer") from None
        if size < 1:
            raise ReducedError(f"class ({i},{j}) missing or empty")
        sizes[(i, j)] = size
    _refuse_stray_keys(class_sizes, sizes, "pair")
    return indices, sizes


def _roles(ijk) -> tuple[tuple[int, int], ...]:
    i, j, k = ijk
    return ((i, j), (i, k), (j, k))


class ReducedHypergraph:
    """Immutable reduced hypergraph stored as boolean cubes.

    The constituent of the index triple ijk is a cube of its role sizes:
    cube[a, b, c] is True iff (a, b, c) is an edge.  Cubes of one role-size
    triple are stacked into one read-only ``(T, s0, s1, s2)`` array, so
    ``stacks`` is a tuple of ``(triples, cubes)`` pairs, the triples sorted
    within a stack and the stacks ordered by their first triple; an instance
    with uniform class sizes has a single stack.  Every degree, density,
    purge, projection and lift query is a pass over the stacks.
    ``constituents``, the frozensets of local triples, is a view built from
    the cubes on first use.
    """

    __slots__ = ("indices", "class_sizes", "triples", "stacks", "_slot", "_constituents")

    def __init__(self, indices, class_sizes, constituents):
        indices, sizes = _checked_classes(indices, class_sizes)
        triples = list(itertools.combinations(indices, 3))
        _refuse_stray_keys(constituents, triples, "triple")
        pieces = []
        for ijk in triples:
            edges = list(map(tuple, constituents.get(ijk, ())))
            lim = tuple(sizes[p] for p in _roles(ijk))
            E = _checked_edges(edges, lim, "({},{},{})".format(*ijk))
            cube = np.zeros((1, *lim), dtype=bool)
            cube[(0, *E.T)] = True
            pieces.append(([ijk], cube))
        self._set(indices, sizes, pieces)

    @classmethod
    def _from_cubes(cls, indices, class_sizes, pieces) -> "ReducedHypergraph":
        """The instance whose constituents are given as ``(triples, cubes)``
        pieces covering every index triple once, ``cubes[t]`` being the cube of
        ``triples[t]``.  The indices and classes are checked as in __init__;
        each cube's shape is its role sizes, so no edge needs checking.  The
        pieces are regrouped into stacks (and become read-only)."""
        A = cls.__new__(cls)
        A._set(*_checked_classes(indices, class_sizes), pieces)
        return A

    def _set(self, indices: tuple, sizes: dict, pieces) -> None:
        """Store the pieces as one stack per role-size triple, triples sorted."""
        groups: dict = {}
        for triples, cubes in pieces:
            if len(triples):
                groups.setdefault(cubes.shape[1:], []).append((list(triples), cubes))
        stacks = []
        for parts in groups.values():
            triples = [ijk for ts, _cubes in parts for ijk in ts]
            cubes = parts[0][1] if len(parts) == 1 else np.concatenate([c for _t, c in parts])
            order = sorted(range(len(triples)), key=triples.__getitem__)
            if order != list(range(len(triples))):
                triples, cubes = [triples[t] for t in order], cubes[order]
            cubes.flags.writeable = False
            stacks.append((tuple(triples), cubes))
        stacks.sort(key=lambda stack: stack[0])
        slot = {ijk: (s, t) for s, (ts, _cubes) in enumerate(stacks) for t, ijk in enumerate(ts)}
        self.indices, self.class_sizes = indices, sizes
        self.triples = tuple(itertools.combinations(indices, 3))
        self.stacks = tuple(stacks)
        self._slot = slot
        self._constituents = None

    @property
    def constituents(self) -> dict:
        """Sorted index triple -> frozenset of its edges as plain-int triples."""
        if self._constituents is None:
            self._constituents = {
                ijk: frozenset(zip(*columns)) for ijk, columns in self._edge_columns().items()
            }
        return self._constituents

    def edge_lists(self) -> dict:
        """Sorted index triple -> its edges as [a, b, c] int lists in sorted order."""
        columns = self._edge_columns()
        return {ijk: list(map(list, zip(*ends))) for ijk, ends in columns.items()}

    def _edge_columns(self) -> dict:
        """Sorted index triple -> the role-0, role-1 and role-2 ends of its
        edges in sorted order, as three int lists: one np.nonzero per stack."""
        out = {}
        for triples, cubes in self.stacks:
            t, *ends = np.nonzero(cubes)
            cuts = np.searchsorted(t, np.arange(len(triples) + 1)).tolist()
            ends = [end.tolist() for end in ends]
            out.update(
                (ijk, [end[lo:hi] for end in ends]) for ijk, lo, hi in zip(triples, cuts, cuts[1:])
            )
        return {ijk: out[ijk] for ijk in self.triples}

    # -- geometry ----------------------------------------------------------

    def roles(self, ijk) -> tuple[tuple[int, int], ...]:
        return _roles(ijk)

    def class_rows(self, triples) -> np.ndarray:
        """(T, 3) int array: the position in ``class_sizes``, whose keys are
        the sorted classes, of the class of each role of each triple."""
        m = len(self.indices)
        i, j, k = np.searchsorted(self.indices, np.array(triples).reshape(-1, 3)).T  # positions
        return np.stack([pair_rank(m, i, j), pair_rank(m, i, k), pair_rank(m, j, k)], axis=1)

    def cube(self, ijk) -> np.ndarray:
        """Read-only boolean array of the role sizes: cube[a, b, c] is True
        iff (a, b, c) is an edge of the constituent of ijk.  A view into its
        stack."""
        s, t = self._slot[ijk]
        return self.stacks[s][1][t]

    def __eq__(self, other):
        return (
            isinstance(other, ReducedHypergraph)
            and self.indices == other.indices
            and self.class_sizes == other.class_sizes
            and all(np.array_equal(a, b) for (_t, a), (_u, b) in zip(self.stacks, other.stacks))
        )

    def __hash__(self):
        return hash((self.indices, tuple(sorted(self.class_sizes.items()))))

    def __repr__(self):
        m = len(self.indices)
        e = sum(int(np.count_nonzero(cubes)) for _t, cubes in self.stacks)
        return f"ReducedHypergraph(|I|={m}, edges={e})"


# -- density checks ------------------------------------------------------------


@dataclass
class DenseCheck:
    ok: bool
    star: str
    d: Fraction
    min_ratio: Fraction
    witness: tuple | None  # (ijk,) / (ijk, class, vertex) / (ijk, (class,u), (class,v))


def reduced_density(A: ReducedHypergraph, star: str) -> Fraction:
    return _scan_density(A, star)[0]


def _threshold(d) -> Fraction:
    d = Fraction(d)
    if not 0 <= d <= 1:
        raise ReducedError(f"density d={d} outside [0, 1]")
    return d


def _group_counts(A: ReducedHypergraph, star: str):
    """The witnesses of a notion fall into groups that share a denominator:
    per constituent, the roles a witness fixes, ``palette.NOTIONS[star]`` in
    scan order (role r is pattern coordinate r), and a group's counts sum
    the cube over the other roles.  Yields, per stack and group in that
    order, (triples, group, counts, q), where counts[t] holds the counts of
    the group's witnesses in the constituent triples[t], indexed by the kept
    roles' vertices, and q is their common denominator, the product of the
    summed roles' sizes."""
    for triples, cubes in A.stacks:
        sizes = cubes.shape[1:]
        for keep in NOTIONS[star]:
            summed = tuple(r for r in range(3) if r not in keep)
            counts = cubes.sum(axis=tuple(r + 1 for r in summed), dtype=np.int64)
            yield triples, keep, counts, math.prod(sizes[r] for r in summed)


def _scan_density(A: ReducedHypergraph, star: str):
    """The least ratio over the notion's witnesses, and the first witness
    attaining it in scan order (None if no ratio is below 1).

    Scan order runs over the constituents in sorted order; within one, ev
    takes roles 0, 1, 2 and vertices ascending, and ee takes role pairs
    (0,1), (0,2), (1,2) and their (u, v) in row-major order.  The least count
    of each constituent and group gives the exact least ratio; the witness is
    the first constituent and group in that order attaining it, at its first
    least count.
    """
    if star not in NOTIONS:
        raise ReducedError(f"unknown density notion {star!r}")
    groups = []
    for triples, keep, counts, q in _group_counts(A, star):
        least = counts.reshape(len(triples), -1).min(axis=1)
        groups.append((Fraction(int(least.min()), q), triples, keep, counts, least))
    best = min((g[0] for g in groups), default=Fraction(1))
    if best == 1:
        return best, None
    firsts = []  # each attaining group's first constituent; (ijk, keep) sorts in scan order
    for ratio, triples, keep, counts, least in groups:
        if ratio == best:
            t = int(least.argmin())
            firsts.append((triples[t], keep, counts[t]))
    ijk, keep, counts = min(firsts, key=lambda c: c[:2])
    at = tuple(int(x) for x in np.unravel_index(counts.argmin(), counts.shape))
    classes = tuple(_roles(ijk)[r] for r in keep)
    return best, ((ijk, *zip(classes, at)) if star == "ee" else (ijk, *classes, *at))


def check_dense(A: ReducedHypergraph, star: str, d) -> DenseCheck:
    """Polynomial-time exact verdict for (d, star)-density, with a worst witness.

    vvv asks constituent edge counts, ev minimum vertex degrees, and ee minimum
    pair degrees against the d-fraction of the relevant class-size product.
    """
    d = _threshold(d)
    ratio, witness = _scan_density(A, star)
    return DenseCheck(ratio >= d, star, d, ratio, None if ratio >= d else witness)


@dataclass
class ExceptionalSets:
    """Low-degree vertices (ev) or vertex pairs (ee), per constituent and class.

    ev entries: ((i,j), k) -> vertices of class (i,j) with low degree in
    the constituent {i,j,k}.  ee entries: ((j,k), i) -> pairs from the two
    classes sharing index i whose completion count into class (j,k) is low.
    """

    kind: str
    entries: dict

    def total(self) -> int:
        return sum(len(v) for v in self.entries.values())


def exceptional_sets(A: ReducedHypergraph, star: str, d) -> ExceptionalSets:
    """A count c is low when c < d * bound, that is c < ceil(d * bound)."""
    d = _threshold(d)
    if star not in ("ev", "ee"):
        raise ReducedError(f"exceptional sets exist for ev/ee only, not {star!r}")
    low: dict = {}
    for triples, keep, counts, q in _group_counts(A, star):
        at = np.argwhere(counts < _ceil_frac(d * q))
        cuts = np.searchsorted(at[:, 0], np.arange(len(triples) + 1)).tolist()
        rows = at[:, 1:].tolist() if star == "ee" else at[:, 1].tolist()
        for ijk, lo, hi in zip(triples, cuts, cuts[1:]):
            low[ijk, keep] = tuple(map(tuple, rows[lo:hi])) if star == "ee" else tuple(rows[lo:hi])
    # an entry is keyed by the class of one role of ijk (the kept role for ev,
    # the summed one for ee) and the index of ijk outside it: role r's class
    # misses ijk[2 - r]
    role = [keep[0] if star == "ev" else 3 - sum(keep) for keep in NOTIONS[star]]
    entries: dict = {}
    for ijk in A.triples:
        roles = _roles(ijk)
        for keep, r in zip(NOTIONS[star], role):
            entries[(roles[r], ijk[2 - r])] = low[ijk, keep]
    return ExceptionalSets(star, entries)


def check_eta_dense(A: ReducedHypergraph, star: str, d, eta):
    """(d, eta, star)-density for star in {ev, ee}: every exceptional set must fit
    inside its eta budget.  At eta = 0 this coincides with check_dense."""
    d = _threshold(d)
    eta = Fraction(eta)
    if eta < 0:
        raise ReducedError(f"eta={eta} must be nonnegative")
    exc = exceptional_sets(A, star, d)
    ok = True
    for key, bad in exc.entries.items():
        if star == "ev":
            size = A.class_sizes[key[0]]
        else:
            (jk, i) = key
            j, k = jk
            size = A.class_sizes[tuple(sorted((i, j)))] * A.class_sizes[tuple(sorted((i, k)))]
        if len(bad) * eta.denominator > eta.numerator * size:
            ok = False
    return ok, exc


# -- purge and projection --------------------------------------------------------


@dataclass
class PurgeResult:
    reduced: ReducedHypergraph
    kept: dict  # class pair -> tuple of surviving original local ids


def purge_ev(A: ReducedHypergraph, d) -> PurgeResult:
    """Delete every vertex whose degree is low in any constituent it touches,
    then restrict all constituents to the surviving classes."""
    d = _threshold(d)
    exc = exceptional_sets(A, "ev", d)
    removed: dict = {pair: set() for pair in A.class_sizes}
    for (pair, _k), bad in exc.entries.items():
        removed[pair].update(bad)
    kept = {}
    for pair, size in A.class_sizes.items():
        survivors = tuple(v for v in range(size) if v not in removed[pair])
        if not survivors:
            raise ReducedError(
                f"class {pair} empties out at threshold d={d}; input too sparse"
            )
        kept[pair] = survivors
    return PurgeResult(_restricted(A, kept), kept)


def _restricted(A: ReducedHypergraph, images: dict) -> ReducedHypergraph:
    """The reduced hypergraph on classes range(len(images[pair])): (a, b, c)
    is an edge of ijk iff its images under the role maps are one in A.

    The class maps form one table, a row per class in sorted order; each
    stack's constituents, grouped by their new role sizes, are read with one
    gather."""
    pairs = list(A.class_sizes)  # sorted, the order of class_rows
    sizes = {pair: len(images[pair]) for pair in pairs}
    lengths = np.array([sizes[p] for p in pairs], dtype=np.intp)
    table = np.zeros((len(pairs), int(lengths.max())), dtype=np.intp)
    for row, pair in enumerate(pairs):
        table[row, : sizes[pair]] = images[pair]
    pieces = []
    for triples, cubes in A.stacks:
        rows = A.class_rows(triples)
        shapes, group = np.unique(lengths[rows], axis=0, return_inverse=True)
        for g, (n0, n1, n2) in enumerate(shapes.tolist()):
            ts = np.flatnonzero(group.reshape(-1) == g)
            at = rows[ts]
            sub = cubes[
                ts[:, None, None, None],
                table[at[:, 0], :n0][:, :, None, None],
                table[at[:, 1], :n1][:, None, :, None],
                table[at[:, 2], :n2][:, None, None, :],
            ]
            pieces.append(([triples[t] for t in ts.tolist()], sub))
    return ReducedHypergraph._from_cubes(A.indices, sizes, pieces)


@dataclass
class ProjectionResult:
    reduced: ReducedHypergraph
    psi: dict  # class pair -> tuple: psi[pair][local in B] = local in A


def project_random(A: ReducedHypergraph, ell: int, seed=0, psi=None) -> ProjectionResult:
    """Random reduced hypergraph with uniform class size ell, pulled back from A.

    Each class of the projection maps into the matching class of A by an
    independently sampled map psi; a triple is a constituent edge exactly when
    its psi-image is one in A.  Reduced maps into the projection compose with
    psi to reduced maps into A.  Pass an explicit psi for deterministic tests.
    """
    if ell < 1:
        raise ReducedError(f"class size must be positive, got {ell}")
    if psi is None:
        gen = rng(seed)
        psi = {}
        for pair in sorted(A.class_sizes):
            psi[pair] = tuple(int(x) for x in gen.integers(0, A.class_sizes[pair], size=ell))
    else:
        psi = {pair: tuple(images) for pair, images in psi.items()}
        for pair, images in psi.items():
            if len(images) != ell or any(
                not 0 <= x < A.class_sizes[pair] for x in images
            ):
                raise ReducedError(f"psi for class {pair} is not a map into the class")
    return ProjectionResult(_restricted(A, psi), psi)


# -- reduced maps -----------------------------------------------------------------


@dataclass
class ReducedMap:
    """Index assignment on V(F) plus class-vertex assignment on the shadow."""

    lam: dict  # vertex -> index
    phi: dict  # (u, v) with u < v -> (class pair, local vertex)


def validate_reduced_map(F: Hypergraph3, A: ReducedHypergraph, rm: ReducedMap) -> bool:
    """Literal re-check of the defining clauses: shadow pairs land in the right
    class with distinct indices, and edges land in constituent edges."""
    shadow = F.shadow()
    if set(rm.phi) != shadow:
        return False
    for (u, v) in shadow:
        iu, iv = rm.lam.get(u), rm.lam.get(v)
        if iu is None or iv is None or iu == iv:
            return False
        pair = tuple(sorted((iu, iv)))
        cls, local = rm.phi[(u, v)]
        if tuple(cls) != pair or not 0 <= local < A.class_sizes[pair]:
            return False
    for (u, v, w) in F.edges:
        ijk = tuple(sorted({rm.lam[u], rm.lam[v], rm.lam[w]}))
        if len(ijk) != 3:
            return False
        slot = {tuple(sorted((rm.lam[a], rm.lam[b]))): rm.phi[tuple(sorted((a, b)))][1]
                for a, b in itertools.combinations((u, v, w), 2)}
        if not A.cube(ijk)[tuple(slot[p] for p in A.roles(ijk))]:
            return False
    return True


def compose_with_projection(rm: ReducedMap, psi: dict) -> ReducedMap:
    """Turn a reduced map into a projection into one into the source: compose phi
    with the sampled class maps, leaving lambda unchanged."""
    phi = {pair: (cls, psi[cls][local]) for pair, (cls, local) in rm.phi.items()}
    return ReducedMap(dict(rm.lam), phi)


@dataclass
class ReducedMapResult:
    status: str  # "map" | "free" | "inconclusive"
    reduced_map: ReducedMap | None
    nodes: int
    symmetry: Symmetry = NO_SYMMETRY  # the group the search was cut by

    @property
    def found(self) -> bool:
        return self.status == "map"


def _index_homogeneous(A: ReducedHypergraph) -> bool:
    """Whether every permutation of the indices is an automorphism of A.

    It is when all classes have one size and every index triple carries one
    constituent that is closed under the six coordinate permutations, as
    :func:`from_palette` of a symmetric palette does: an index permutation
    then only permutes the roles inside each triple.
    """
    if len(set(A.class_sizes.values())) != 1 or not A.stacks:
        return False
    ((_triples, cubes),) = A.stacks
    first = cubes[0]
    return bool((cubes == first).all()) and all(
        np.array_equal(first, first.transpose(perm)) for perm in itertools.permutations(range(3))
    )


def find_reduced_map(
    F: Hypergraph3,
    A: ReducedHypergraph,
    budget: int | None = None,
    injective: bool = False,
) -> ReducedMapResult:
    """Search for a reduced map as two nested runs of
    :func:`unidense.palette.solve_ternary`, the engine shared with
    :func:`unidense.palette.representable`, on one node counter and budget.

    The outer run gives each vertex of F an index position.  Each edge of F
    is a constraint allowing every ordering of each distinct index triple
    whose constituent is nonempty; as every shadow pair lies in an edge, this
    also keeps the ends of a pair on distinct indices.  With injective, each
    vertex pair {u, v} also lies in an all-different constraint over
    {u, v, w}, w the least of 0, 1, 2 not in it, so a reused index is cut
    while lambda is partial (the hook tests F.n distinct indices for an F of
    fewer than 3 vertices).  The accept hook takes each total lambda and
    colours the shadow pairs in the inner run, pair (u, v) taking a vertex of
    class (lambda(u), lambda(v)) and each edge a constituent edge.

    When A is index-homogeneous (see :func:`_index_homogeneous`), every index
    permutation maps maps to maps, so indices are the outer run's
    interchangeable values and the result names the group Sym(|I|).

    Exhaustion certifies F-freeness; a budget stop is reported as
    inconclusive.  Maps are re-validated before being returned.
    """
    m = len(A.indices)
    first_use = _index_homogeneous(A)
    symmetry = Symmetry.product([(f"Sym({m})", math.factorial(m))] if first_use else [])
    pos = {i: p for p, i in enumerate(A.indices)}
    lam_tables = ternary_tables(
        t
        for triples, cubes in A.stacks
        for ijk, nonempty in zip(triples, cubes.any(axis=(1, 2, 3)).tolist())
        if nonempty
        for t in itertools.permutations([pos[i] for i in ijk])
    )
    shadow = sorted(F.shadow())
    pidx = {p: t for t, (u, v) in enumerate(shadow) for p in ((u, v), (v, u))}
    tables: dict = {}  # (shape, bytes) of a constituent's cube -> its colouring tables
    counter = [0]
    found = []

    def colour(assign):
        """The accept hook: colour the shadow pairs under the total lambda."""
        if injective and len(set(assign)) < F.n:
            return "unsat"
        lam = [A.indices[p] for p in assign]
        constraints = []
        for e in F.edges:
            x, y, z = sorted(e, key=lam.__getitem__)
            cube = A.cube((lam[x], lam[y], lam[z]))
            key = (cube.shape, cube.tobytes())  # equal constituents share their tables
            if key not in tables:
                tables[key] = ternary_tables(map(tuple, np.argwhere(cube).tolist()))
            constraints.append(((pidx[x, y], pidx[x, z], pidx[y, z]), tables[key]))
        classes = [tuple(sorted((lam[u], lam[v]))) for u, v in shadow]
        domains = [(1 << A.class_sizes[c]) - 1 for c in classes]
        status, local = solve_ternary(domains, constraints, counter, budget)
        if status == "sat":
            found.append(ReducedMap(dict(enumerate(lam)), dict(zip(shadow, zip(classes, local)))))
        return status

    constraints = [(e, lam_tables) for e in F.edges]
    if injective and F.n >= 3:
        distinct = ternary_tables(itertools.permutations(range(m), 3))
        triples = {
            tuple(sorted({u, v, min({0, 1, 2} - {u, v})}))
            for u, v in itertools.combinations(range(F.n), 2)
        }
        constraints += [(t, distinct) for t in sorted(triples)]
    status, _lam = solve_ternary(
        [(1 << m) - 1] * F.n, constraints, counter, budget,
        interchangeable=1 if first_use else 0, accept=colour,
    )
    if status == "sat":
        (rm,) = found
        if not validate_reduced_map(F, A, rm):  # pragma: no cover - safety net
            raise AssertionError("internal error: reduced map failed validation")
        return ReducedMapResult("map", rm, counter[0], symmetry)
    if status == "budget":
        return ReducedMapResult("inconclusive", None, counter[0], symmetry)
    return ReducedMapResult("free", None, counter[0], symmetry)


# -- the greedy tetrahedron extraction ---------------------------------------------


def tetra_min_indices(eps) -> int:
    """Smallest index count accepted by the greedy precheck at this eps."""
    eps = Fraction(eps)
    if not 0 < eps <= 1:
        raise ReducedError("eps must lie in (0, 1]")
    x = _ceil_frac(1 / eps) + 1
    need_y = _ceil_frac(2 * (1 / eps) ** comb(x, 2))
    return x + need_y


def tetrahedron_greedy(A: ReducedHypergraph, eps) -> ReducedMap:
    """Constructive reduced image of a tetrahedron in an (eps, ee)-dense instance.

    Splits the indices into a head X (the first ceil(1/eps)+1) and a tail Y,
    assigns every (x, y) pair an arbitrary class vertex, then repeatedly fixes a
    vertex for each pair of X while shrinking Y by a pigeonhole factor of at
    least eps; finally the roles flip once to pin a vertex over two surviving
    tail indices.  The precheck refuses index sets too small for the eps-shrink
    schedule to leave two survivors on both sides.
    """
    eps = Fraction(eps)
    chk = check_dense(A, "ee", eps)
    if not chk.ok:
        raise ReducedError(
            f"input is not ({eps}, ee)-dense: min pair-degree ratio {chk.min_ratio}"
        )
    m = len(A.indices)
    if m < tetra_min_indices(eps):
        raise ReducedError(
            f"index set of size {m} too small for eps={eps}; need {tetra_min_indices(eps)}"
        )
    x_count = _ceil_frac(1 / eps) + 1
    X = list(A.indices[:x_count])
    Y = list(A.indices[x_count:])

    pxy = {(x, y): 0 for x in X for y in Y}  # arbitrary initial choice: local 0

    cur = list(Y)
    pxx: dict = {}
    for x1, x2 in itertools.combinations(X, 2):  # lexicographic pair order
        # hit[t, a]: (a, pxy[x1, y], pxy[x2, y]) is an edge of (x1, x2, y) for y = cur[t]
        hit = np.array([A.cube((x1, x2, y))[:, pxy[(x1, y)], pxy[(x2, y)]] for y in cur])
        counts = hit.sum(axis=0)
        best_a = int(counts.argmax())  # the first a with the most survivors
        if counts[best_a] == 0 or Fraction(int(counts[best_a])) < eps * len(cur):
            raise ReducedError(
                f"pigeonhole failed on pair ({x1},{x2}): density precondition violated"
            )
        pxx[(x1, x2)] = best_a
        cur = [y for y, ok in zip(cur, hit[:, best_a].tolist()) if ok]

    if len(cur) < 2:  # pragma: no cover - excluded by the precheck
        raise ReducedError("fewer than two tail survivors; precheck should have refused")
    y1, y2 = cur[0], cur[1]

    hit = np.array([A.cube((x, y1, y2))[pxy[(x, y1)], pxy[(x, y2)], :] for x in X])
    counts = hit.sum(axis=0)
    best_b = int(counts.argmax())
    if counts[best_b] == 0 or Fraction(int(counts[best_b])) < eps * len(X):
        raise ReducedError("pigeonhole failed on the tail pair: density precondition violated")
    best_xs = [x for x, ok in zip(X, hit[:, best_b].tolist()) if ok]
    if len(best_xs) < 2:  # pragma: no cover - |X| > 1/eps makes eps|X| > 1
        raise ReducedError("fewer than two head survivors")
    x1, x2 = best_xs[0], best_xs[1]

    lam = {0: x1, 1: x2, 2: y1, 3: y2}
    phi = {
        (0, 1): ((x1, x2), pxx[(x1, x2)]),
        (0, 2): ((x1, y1), pxy[(x1, y1)]),
        (0, 3): ((x1, y2), pxy[(x1, y2)]),
        (1, 2): ((x2, y1), pxy[(x2, y1)]),
        (1, 3): ((x2, y2), pxy[(x2, y2)]),
        (2, 3): ((y1, y2), best_b),
    }
    rm = ReducedMap(lam, phi)
    from .hypergraph import clique

    if not validate_reduced_map(clique(4), A, rm):  # pragma: no cover - safety net
        raise AssertionError("internal error: greedy tetrahedron failed validation")
    return rm


# -- constructions -------------------------------------------------------------------


def from_palette(P: Palette, m: int) -> ReducedHypergraph:
    """Homogeneous reduced hypergraph: every class a fresh copy of the colours,
    every constituent realizing the palette under the (smaller-pair, outer-pair,
    larger-pair) coordinate convention.

    Density under each notion transfers exactly from the palette, so weighted
    palettes are rejected: class copies cannot represent non-uniform weights.
    """
    if m < 3:
        raise ReducedError(f"need at least 3 indices, got {m}")
    if not P.base.is_uniform:
        raise ReducedError("weighted palette: expand_weights() first")
    K = len(P.base.colors)
    codes = frozenset(P.pattern_codes())
    classes = {(i, j): K for i, j in itertools.combinations(range(m), 2)}
    cons = {ijk: codes for ijk in itertools.combinations(range(m), 3)}
    return ReducedHypergraph(tuple(range(m)), classes, cons)


def random_dense_reduced(m: int, size: int, d, seed=0) -> ReducedHypergraph:
    """Seeded random reduced hypergraph guaranteed (d, ee)-dense.

    Constituents start as independent coin flips above the target density and
    deficient pairs are topped up with random completions (which never lowers
    any other pair degree).
    """
    d = Fraction(d)
    if not 0 <= d <= 1:
        raise ReducedError("d must lie in [0, 1]")
    need = _ceil_frac(d * size)
    gen = rng(seed)
    p = min(0.97, float(d) + 0.25)
    classes = {(i, j): size for i, j in itertools.combinations(range(m), 2)}
    triples = list(itertools.combinations(range(m), 3))
    cubes = np.empty((len(triples), size, size, size), dtype=bool)
    for cube in cubes:
        cube[...] = gen.random((size, size, size)) < p
        for r1, r2 in itertools.combinations(range(3), 2):
            lines = cube.transpose(r1, r2, 3 - r1 - r2)  # a view: lines[u, v] over the third role
            missing = need - lines.sum(axis=2)
            for u, v in np.argwhere(missing > 0).tolist():
                pool = np.flatnonzero(~lines[u, v])
                lines[u, v, gen.permutation(pool)[: missing[u, v]]] = True
    return ReducedHypergraph._from_cubes(tuple(range(m)), classes, [(triples, cubes)])
