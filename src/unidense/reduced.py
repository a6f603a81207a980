"""Reduced hypergraphs: index set I, one disjoint vertex class per index pair,
and one tripartite constituent per index triple.

Class disjointness is enforced by construction: a vertex is addressed as
(pair, local index), never by a caller-supplied global id.  Within the
constituent of a sorted triple (i, j, k) the three roles are 0 = class (i,j),
1 = class (i,k), 2 = class (j,k), and constituent edges are stored as local
index triples in role order.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from math import comb

import numpy as np

from .hypergraph import Hypergraph3, rng
from .palette import NO_SYMMETRY, Palette, Symmetry, solve_ternary, ternary_tables


class ReducedError(ValueError):
    """Malformed reduced hypergraph or infeasible operation preconditions."""


def _ceil_frac(f: Fraction) -> int:
    return -((-f.numerator) // f.denominator)


def _edge_array(edges) -> np.ndarray:
    """The edges of a constituent, all of length 3, as an int64 (m, 3) array."""
    flat = itertools.chain.from_iterable(edges)
    return np.fromiter(flat, dtype=np.int64, count=3 * len(edges)).reshape(-1, 3)


def _cube_edges(cube: np.ndarray) -> frozenset:
    """The edges of a constituent cube as triples of plain ints."""
    return frozenset(zip(*(x.tolist() for x in np.nonzero(cube))))


def _check_constituent(edges, lim, name: str) -> None:
    """Every edge is a triple inside the role classes; the first bad one is reported."""
    try:
        E = _edge_array(edges) if set(map(len, edges)) <= {3} else None
        ok = E is not None and bool(((E >= 0) & (E < lim)).all())
    except (TypeError, ValueError, OverflowError):
        ok = False
    if not ok:  # find the first bad edge, with the tuple's own values
        for e in edges:
            if len(e) != 3 or any(not 0 <= e[r] < lim[r] for r in range(3)):
                raise ReducedError(f"constituent edge {e} outside classes of {name}")


def _refuse_stray_keys(keys, allowed, kind: str) -> None:
    """Refuse the first key that is not in ``allowed``, rather than drop it."""
    allowed = set(allowed)
    for key in keys:
        if key not in allowed:
            raise ReducedError(f"{kind} key {key} is not a sorted {kind} of the index set")


def _checked_classes(indices, class_sizes) -> tuple[tuple, dict]:
    """The sorted indices and the size of every class, each at least one."""
    indices = tuple(sorted(indices))
    if len(set(indices)) != len(indices) or len(indices) < 2:
        raise ReducedError("index set must hold at least two distinct indices")
    sizes = {}
    for i, j in itertools.combinations(indices, 2):
        size = class_sizes.get((i, j))
        if size is None or size < 1:
            raise ReducedError(f"class ({i},{j}) missing or empty")
        sizes[(i, j)] = int(size)
    _refuse_stray_keys(class_sizes, sizes, "pair")
    return indices, sizes


class ReducedHypergraph:
    """Immutable reduced hypergraph; one boolean cube per constituent is built
    on first use and serves every degree and density query."""

    __slots__ = ("indices", "class_sizes", "constituents", "_cubes")

    def __init__(self, indices, class_sizes, constituents):
        indices, sizes = _checked_classes(indices, class_sizes)
        triples = list(itertools.combinations(indices, 3))
        _refuse_stray_keys(constituents, triples, "triple")
        cons = {}
        for i, j, k in triples:
            edges = frozenset(map(tuple, constituents.get((i, j, k), ())))
            _check_constituent(edges, (sizes[(i, j)], sizes[(i, k)], sizes[(j, k)]), f"({i},{j},{k})")
            cons[(i, j, k)] = edges
        self.indices = indices
        self.class_sizes = sizes
        self.constituents = cons
        self._cubes: dict = {}

    @classmethod
    def _from_cubes(cls, indices: tuple, class_sizes: dict, cubes: dict) -> "ReducedHypergraph":
        """The instance whose constituents are the given cubes, keyed by every
        index triple in order.  The indices and classes are checked as in
        __init__; each cube's shape is its role sizes, so no edge needs
        checking, and the cubes become the cache."""
        A = cls.__new__(cls)
        A.indices, A.class_sizes = _checked_classes(indices, class_sizes)
        A.constituents = {ijk: _cube_edges(cube) for ijk, cube in cubes.items()}
        for cube in cubes.values():
            cube.flags.writeable = False
        A._cubes = cubes
        return A

    # -- geometry ----------------------------------------------------------

    def roles(self, ijk) -> tuple[tuple[int, int], ...]:
        i, j, k = ijk
        return ((i, j), (i, k), (j, k))

    def role_sizes(self, ijk) -> tuple[int, int, int]:
        return tuple(self.class_sizes[p] for p in self.roles(ijk))

    def vertex_count(self) -> int:
        return sum(self.class_sizes.values())

    def cube(self, ijk) -> np.ndarray:
        """Read-only boolean array of the role sizes: cube[a, b, c] is True
        iff (a, b, c) is an edge of the constituent of ijk."""
        cube = self._cubes.get(ijk)
        if cube is None:
            cube = np.zeros(self.role_sizes(ijk), dtype=bool)
            cube[tuple(_edge_array(self.constituents[ijk]).T)] = True
            cube.flags.writeable = False
            self._cubes[ijk] = cube
        return cube

    def degree(self, ijk, role: int, v: int) -> int:
        return int(np.count_nonzero(np.take(self.cube(ijk), v, axis=role)))

    def completions(self, ijk, r1: int, r2: int, u: int, v: int) -> int:
        """Bitmask over the remaining role of vertices completing (u, v) to an edge."""
        sizes = self.role_sizes(ijk)
        if not (0 <= u < sizes[r1] and 0 <= v < sizes[r2]):
            return 0
        at = [slice(None)] * 3
        at[r1], at[r2] = u, v
        line = np.packbits(self.cube(ijk)[tuple(at)], bitorder="little")
        return int.from_bytes(line.tobytes(), "little")

    def __eq__(self, other):
        return (
            isinstance(other, ReducedHypergraph)
            and self.indices == other.indices
            and self.class_sizes == other.class_sizes
            and self.constituents == other.constituents
        )

    def __hash__(self):
        return hash((self.indices, tuple(sorted(self.class_sizes.items()))))

    def __repr__(self):
        m = len(self.indices)
        e = sum(len(v) for v in self.constituents.values())
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


def _pair_counts(cube: np.ndarray, r1: int, r2: int) -> np.ndarray:
    """Completion counts of the (role r1, role r2) pairs, indexed [u, v]."""
    return cube.sum(axis=3 - r1 - r2, dtype=np.int64)


def _vertex_counts(cube: np.ndarray, r: int) -> np.ndarray:
    """Degrees of the role-r vertices."""
    return cube.sum(axis=tuple(x for x in range(3) if x != r), dtype=np.int64)


def _scan_density(A: ReducedHypergraph, star: str):
    """The least ratio over the notion's witnesses, and the first witness
    attaining it in scan order (None if no ratio is below 1).

    Witnesses are scanned constituent by constituent in sorted order; within
    one, ev takes roles 0, 1, 2 and vertices ascending, and ee takes role
    pairs (0,1), (0,2), (1,2) and their (u, v) in row-major order.  One group
    shares a denominator, so its first minimal count is its candidate, and
    candidates replace the incumbent num/den on a strictly smaller
    cross-multiplied count.
    """
    if star not in ("vvv", "ev", "ee"):
        raise ReducedError(f"unknown density notion {star!r}")
    num, den, witness = 1, 1, None
    for ijk in sorted(A.constituents):
        sizes, roles = A.role_sizes(ijk), A.roles(ijk)
        if star == "vvv":
            groups = [(np.array(len(A.constituents[ijk])), math.prod(sizes), ())]
        elif star == "ev":
            groups = [
                (_vertex_counts(A.cube(ijk), r), math.prod(sizes) // sizes[r], (roles[r],))
                for r in range(3)
            ]
        else:
            groups = [
                (_pair_counts(A.cube(ijk), r1, r2), sizes[3 - r1 - r2], (roles[r1], roles[r2]))
                for r1, r2 in itertools.combinations(range(3), 2)
            ]
        for counts, q, classes in groups:
            at = np.unravel_index(counts.argmin(), counts.shape)
            c = int(counts[at])
            if c * den < num * q:
                num, den = c, q
                at = tuple(map(int, at))
                witness = (ijk, *zip(classes, at)) if star == "ee" else (ijk, *classes, *at)
    return Fraction(num, den), witness


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
    entries: dict = {}
    for ijk in sorted(A.constituents):
        roles = A.roles(ijk)
        sizes = A.role_sizes(ijk)
        cube = A.cube(ijk)
        if star == "ev":
            for r in range(3):
                low = _vertex_counts(cube, r) < _ceil_frac(d * (math.prod(sizes) // sizes[r]))
                k_other = [x for x in ijk if x not in roles[r]][0]
                entries[(roles[r], k_other)] = tuple(np.flatnonzero(low).tolist())
        else:
            for r1, r2 in itertools.combinations(range(3), 2):
                r3 = 3 - r1 - r2
                low = _pair_counts(cube, r1, r2) < _ceil_frac(d * sizes[r3])
                shared = [x for x in roles[r1] if x in roles[r2]][0]
                entries[(roles[r3], shared)] = tuple(map(tuple, np.argwhere(low).tolist()))
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
    is an edge of ijk iff its images under the role maps are one in A."""
    sizes = {pair: len(images[pair]) for pair in A.class_sizes}
    cubes = {
        ijk: A.cube(ijk)[np.ix_(*(images[p] for p in A.roles(ijk)))] for ijk in A.constituents
    }
    return ReducedHypergraph._from_cubes(A.indices, sizes, cubes)


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


def projection_failure_bound(m: int, ell: int, eta, eps) -> float:
    """Union bound on the projection losing (d + eps/2, ee)-density:
    m^3 ell^2 (eta + exp(-eps^2 ell / 2))."""
    return (m**3) * (ell**2) * (float(eta) + math.exp(-float(eps) ** 2 * ell / 2))


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
        trip = tuple(slot[p] for p in A.roles(ijk))
        if trip not in A.constituents[ijk]:
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
    if len(set(A.class_sizes.values())) != 1 or not A.constituents:
        return False
    first, *others = A.constituents.values()
    if any(edges != first for edges in others):
        return False
    perms = list(itertools.permutations(range(3)))
    return all(tuple(t[s] for s in perm) in first for t in first for perm in perms)


def find_reduced_map(
    F: Hypergraph3,
    A: ReducedHypergraph,
    budget: int | None = None,
    injective: bool = False,
) -> ReducedMapResult:
    """Backtracking search for a reduced map: index assignments lambda are
    enumerated vertex by vertex, and each total lambda hands the colouring of
    the shadow pairs to :func:`unidense.palette.solve_ternary`, the engine
    shared with :func:`unidense.palette.representable`.

    When A is index-homogeneous (see :func:`_index_homogeneous`), indices are
    interchangeable: a vertex takes an index already used or the first unused
    one, by the argument of :func:`unidense.palette.solve_ternary`, and the
    result names the group Sym(|I|).

    Exhaustion certifies F-freeness; a budget stop is reported as inconclusive.
    Certificates are re-validated before being returned.
    """
    if len(A.indices) < 2:
        raise ReducedError("index set too small")
    if not F.edges:
        lam = {v: A.indices[v % len(A.indices)] for v in range(F.n)}
        return ReducedMapResult("map", ReducedMap(lam, {}), 0)
    m = len(A.indices)
    first_use = _index_homogeneous(A)
    symmetry = Symmetry.product([(f"Sym({m})", math.factorial(m))] if first_use else [])

    vorder = sorted(range(F.n), key=lambda v: (-F.degree(v), v))
    vpos = {v: i for i, v in enumerate(vorder)}
    shadow = sorted(F.shadow())
    nbrs: dict[int, list[int]] = {v: [] for v in range(F.n)}
    for u, v in shadow:
        nbrs[u].append(v)
        nbrs[v].append(u)
    edges_full_at: list[list[tuple[int, int, int]]] = [[] for _ in range(F.n)]
    for e in F.edges:
        edges_full_at[max(vpos[v] for v in e)].append(e)

    counter = [0]
    lam: dict[int, int] = {}

    tables: dict = {}

    def solve_phi():
        """Colour the shadow pairs once lambda is total."""
        pidx = {p: i for i, p in enumerate(shadow)}
        classes = [tuple(sorted((lam[u], lam[v]))) for u, v in shadow]
        constraints = []  # (vars ordered by role, tables)
        for e in F.edges:
            ijk = tuple(sorted(lam[x] for x in e))
            if ijk not in tables:
                tables[ijk] = ternary_tables(A.constituents[ijk])
            role_of = {p: r for r, p in enumerate(A.roles(ijk))}
            by_role = [None, None, None]
            for a, b in itertools.combinations(e, 2):
                fp = tuple(sorted((a, b)))
                by_role[role_of[tuple(sorted((lam[a], lam[b])))]] = pidx[fp]
            constraints.append((tuple(by_role), tables[ijk]))
        domains = [(1 << A.class_sizes[c]) - 1 for c in classes]
        status, assign = solve_ternary(domains, constraints, counter, budget)
        if status != "sat":
            return status, None
        return "sat", {p: (classes[i], assign[i]) for i, p in enumerate(shadow)}

    def bt_lambda(step, used):
        if step == F.n:
            status, phi = solve_phi()
            if status == "sat":
                return "sat", phi
            return status, None
        v = vorder[step]
        for pos, idx in enumerate(A.indices[: used + 1] if first_use else A.indices):
            counter[0] += 1
            if budget is not None and counter[0] > budget:
                return "budget", None
            if injective and idx in lam.values():
                continue
            if any(u in lam and lam[u] == idx for u in nbrs[v]):
                continue
            lam[v] = idx
            ok = True
            for e in edges_full_at[step]:
                ijk = tuple(sorted(lam[x] for x in e))
                if len(set(ijk)) == 3 and not A.constituents[ijk]:
                    ok = False
                    break
            if ok:
                res, phi = bt_lambda(step + 1, max(used, pos + 1))
                if res != "unsat":
                    return res, phi
            del lam[v]
        return "unsat", None

    status, phi = bt_lambda(0, 0)
    if status == "sat":
        rm = ReducedMap(dict(lam), phi)
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
        size = A.class_sizes[(x1, x2)]
        best_a, best_surv = None, []
        for a in range(size):
            surv = [
                y
                for y in cur
                if (a, pxy[(x1, y)], pxy[(x2, y)]) in A.constituents[(x1, x2, y)]
            ]
            if len(surv) > len(best_surv):
                best_a, best_surv = a, surv
        if best_a is None or Fraction(len(best_surv)) < eps * len(cur):
            raise ReducedError(
                f"pigeonhole failed on pair ({x1},{x2}): density precondition violated"
            )
        pxx[(x1, x2)] = best_a
        cur = best_surv

    if len(cur) < 2:  # pragma: no cover - excluded by the precheck
        raise ReducedError("fewer than two tail survivors; precheck should have refused")
    y1, y2 = cur[0], cur[1]

    size_yy = A.class_sizes[(y1, y2)]
    best_b, best_xs = None, []
    for b in range(size_yy):
        xs = [
            x
            for x in X
            if (pxy[(x, y1)], pxy[(x, y2)], b) in A.constituents[(x, y1, y2)]
        ]
        if len(xs) > len(best_xs):
            best_b, best_xs = b, xs
    if best_b is None or Fraction(len(best_xs)) < eps * len(X):
        raise ReducedError("pigeonhole failed on the tail pair: density precondition violated")
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
    cubes = {}
    for ijk in itertools.combinations(range(m), 3):
        cube = gen.random((size, size, size)) < p
        for r1, r2 in itertools.combinations(range(3), 2):
            lines = cube.transpose(r1, r2, 3 - r1 - r2)  # a view: lines[u, v] over the third role
            missing = need - lines.sum(axis=2)
            for u, v in np.argwhere(missing > 0).tolist():
                pool = np.flatnonzero(~lines[u, v])
                lines[u, v, gen.permutation(pool)[: missing[u, v]]] = True
        cubes[ijk] = cube
    return ReducedHypergraph._from_cubes(tuple(range(m)), classes, cubes)


# -- useless-triple classification ------------------------------------------------------


def count_useless_triples(A: ReducedHypergraph, B: ReducedHypergraph, xi):
    """Triples whose constituent loses more than a xi-fraction of A's edges in B.

    A and B must share indices and class sizes; returns (count, sorted triples).
    """
    xi = Fraction(xi)
    if A.indices != B.indices or A.class_sizes != B.class_sizes:
        raise ReducedError("useless-triple count needs matching indices and classes")
    useless = []
    for ijk in sorted(A.constituents):
        lost = int(np.count_nonzero(A.cube(ijk) & ~B.cube(ijk)))
        if lost * xi.denominator > xi.numerator * math.prod(A.role_sizes(ijk)):
            useless.append(ijk)
    return len(useless), useless
