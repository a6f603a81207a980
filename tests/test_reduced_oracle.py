"""The stacked-cube reduced layer against frozenset-scan oracles.

The oracles below are the reduced layer as it was when each constituent was a
frozenset of local triples scanned one constituent at a time: ``oracle_scan``,
``oracle_exceptional``, ``oracle_restricted`` and ``oracle_lift`` copy those
loops, building each constituent's cube from its frozenset, and the JSON,
map-validation and equality oracles read the frozensets directly.  They take
a plain ``Plain(indices, sizes, cons)`` record, so they never read the
library's stacks.  Instances mix class sizes (several stacks), empty
constituents, generated instances, and purge and projection results whose
classes differ in size.
"""

import itertools
import json
import math
from collections import namedtuple
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from unidense import construct as con
from unidense import hypergraph as hg
from unidense import io as uio
from unidense import reduced as rd

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)

THRESHOLDS = (0, Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(3, 4), 1)

Plain = namedtuple("Plain", "indices sizes cons")


def roles(ijk):
    i, j, k = ijk
    return ((i, j), (i, k), (j, k))


def sizes_of(P, ijk):
    return tuple(P.sizes[p] for p in roles(ijk))


def oracle_cube(P, ijk):
    cube = np.zeros(sizes_of(P, ijk), dtype=bool)
    for e in P.cons[ijk]:
        cube[e] = True
    return cube


def plain_of(A):
    """The record of a library instance, read through its frozenset view."""
    return Plain(A.indices, dict(A.class_sizes), dict(A.constituents))


# -- oracles -------------------------------------------------------------------


def oracle_scan(P, star):
    num, den, witness = 1, 1, None
    for ijk in sorted(P.cons):
        sizes, rs, cube = sizes_of(P, ijk), roles(ijk), oracle_cube(P, ijk)
        if star == "vvv":
            groups = [(np.array(len(P.cons[ijk])), math.prod(sizes), ())]
        elif star == "ev":
            groups = [
                (cube.sum(axis=tuple(x for x in range(3) if x != r), dtype=np.int64),
                 math.prod(sizes) // sizes[r], (rs[r],))
                for r in range(3)
            ]
        else:
            groups = [
                (cube.sum(axis=3 - r1 - r2, dtype=np.int64), sizes[3 - r1 - r2], (rs[r1], rs[r2]))
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


def ceil_frac(f):
    return -((-f.numerator) // f.denominator)


def oracle_exceptional(P, star, d):
    entries = {}
    for ijk in sorted(P.cons):
        rs, sizes, cube = roles(ijk), sizes_of(P, ijk), oracle_cube(P, ijk)
        if star == "ev":
            for r in range(3):
                deg = cube.sum(axis=tuple(x for x in range(3) if x != r), dtype=np.int64)
                low = deg < ceil_frac(d * (math.prod(sizes) // sizes[r]))
                k_other = [x for x in ijk if x not in rs[r]][0]
                entries[(rs[r], k_other)] = tuple(np.flatnonzero(low).tolist())
        else:
            for r1, r2 in itertools.combinations(range(3), 2):
                r3 = 3 - r1 - r2
                low = cube.sum(axis=r3, dtype=np.int64) < ceil_frac(d * sizes[r3])
                shared = [x for x in rs[r1] if x in rs[r2]][0]
                entries[(rs[r3], shared)] = tuple(map(tuple, np.argwhere(low).tolist()))
    return entries


def oracle_eta_ok(P, star, d, eta):
    for key, bad in oracle_exceptional(P, star, d).items():
        if star == "ev":
            size = P.sizes[key[0]]
        else:
            (j, k), i = key
            size = P.sizes[tuple(sorted((i, j)))] * P.sizes[tuple(sorted((i, k)))]
        if len(bad) * eta.denominator > eta.numerator * size:
            return False
    return True


def oracle_restricted(P, images):
    sizes = {pair: len(images[pair]) for pair in P.sizes}
    cons = {}
    for ijk in P.cons:
        cube = oracle_cube(P, ijk)[np.ix_(*(images[p] for p in roles(ijk)))]
        cons[ijk] = frozenset(zip(*(x.tolist() for x in np.nonzero(cube))))
    return Plain(P.indices, sizes, cons)


def oracle_purge(P, d):
    """(purged record, kept), or None where a class empties out."""
    removed = {pair: set() for pair in P.sizes}
    for (pair, _k), bad in oracle_exceptional(P, "ev", d).items():
        removed[pair].update(bad)
    kept = {pair: tuple(v for v in range(size) if v not in removed[pair])
            for pair, size in P.sizes.items()}
    if not all(kept.values()):
        return None
    return oracle_restricted(P, kept), kept


def oracle_lift(P, pc):
    h = pc.block_size
    offset = {idx: t * h for t, idx in enumerate(P.indices)}
    edges = [np.empty((0, 3), dtype=np.int64)]
    for ijk in sorted(P.cons):
        i, j, k = ijk
        mask = oracle_cube(P, ijk)[
            pc.codes[(i, j)][:, :, None],
            pc.codes[(i, k)][:, None, :],
            pc.codes[(j, k)][None, :, :],
        ]
        edges.append(np.argwhere(mask) + (offset[i], offset[j], offset[k]))
    return hg.Hypergraph3(h * len(P.indices), np.concatenate(edges))


def oracle_json(P):
    classes = {f"{i},{j}": P.sizes[(i, j)] for (i, j) in sorted(P.sizes)}
    constituents = {
        f"{i},{j},{k}": sorted([list(e) for e in P.cons[(i, j, k)]])
        for (i, j, k) in sorted(P.cons)
    }
    obj = {"indices": len(P.indices), "classes": classes, "constituents": constituents}
    return json.dumps(obj, indent=2) + "\n"


def oracle_validate(F, P, rm):
    shadow = F.shadow()
    if set(rm.phi) != shadow:
        return False
    for (u, v) in shadow:
        iu, iv = rm.lam.get(u), rm.lam.get(v)
        if iu is None or iv is None or iu == iv:
            return False
        pair = tuple(sorted((iu, iv)))
        cls, local = rm.phi[(u, v)]
        if tuple(cls) != pair or not 0 <= local < P.sizes[pair]:
            return False
    for (u, v, w) in F.edges:
        ijk = tuple(sorted({rm.lam[u], rm.lam[v], rm.lam[w]}))
        if len(ijk) != 3:
            return False
        slot = {tuple(sorted((rm.lam[a], rm.lam[b]))): rm.phi[tuple(sorted((a, b)))][1]
                for a, b in itertools.combinations((u, v, w), 2)}
        if tuple(slot[p] for p in roles(ijk)) not in P.cons[ijk]:
            return False
    return True


# -- instances -------------------------------------------------------------------


def random_plain(rng, m, max_size, densities=(0.0, 0.3, 0.7, 1.0)):
    """Classes of sizes 1..max_size; each constituent at a density drawn from
    ``densities``, by default so that empty and complete ones occur."""
    indices = tuple(range(m))
    sizes = {p: int(rng.integers(1, max_size + 1)) for p in itertools.combinations(indices, 2)}
    cons = {}
    for ijk in itertools.combinations(indices, 3):
        p = float(rng.choice(densities))
        lim = [sizes[q] for q in roles(ijk)]
        cons[ijk] = frozenset(t for t in itertools.product(*map(range, lim)) if rng.random() < p)
    return Plain(indices, sizes, cons)


def build(P):
    return rd.ReducedHypergraph(P.indices, P.sizes, P.cons)


@st.composite
def instances(draw):
    """(library instance, its oracle record, how it was made)."""
    kind = draw(st.sampled_from(["init", "dense", "purged", "projected"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "dense":
        m, size = draw(st.integers(3, 5)), draw(st.integers(1, 4))
        d = draw(st.sampled_from(THRESHOLDS))
        A = rd.random_dense_reduced(m, size, d, seed=draw(st.integers(0, 50)))
        return A, plain_of(A), kind
    # a purge needs no empty constituent to keep its classes
    densities = (0.6, 0.8, 0.9) if kind == "purged" else (0.0, 0.3, 0.7, 1.0)
    P = random_plain(rng, draw(st.integers(3, 6)), draw(st.integers(2, 5)), densities)
    A = build(P)
    if kind == "purged":
        d = draw(st.sampled_from(THRESHOLDS[1:3]))
        got = oracle_purge(P, d)
        if got is None:
            kind = "init"
        else:
            P, _kept = got
            A = rd.purge_ev(A, d).reduced
    elif kind == "projected":
        ell = draw(st.integers(1, 4))
        psi = {pair: tuple(int(x) for x in rng.integers(0, size, size=ell))
               for pair, size in sorted(P.sizes.items())}
        P = oracle_restricted(P, psi)
        A = rd.project_random(A, ell, psi=psi).reduced
    return A, P, kind


def random_map(rng, F, P):
    """A map of F with random indices and class vertices; about half of the
    draws give an injective lambda, whose shadow classes then all exist."""
    if rng.random() < 0.5 and len(P.indices) >= F.n:
        lam = dict(enumerate(rng.permutation(P.indices)[: F.n].tolist()))
    else:
        lam = {v: int(rng.choice(P.indices)) for v in range(F.n)}
    phi = {}
    for u, v in sorted(F.shadow()):
        pair = tuple(sorted((lam[u], lam[v])))
        size = P.sizes.get(pair, 1)
        phi[(u, v)] = (pair, int(rng.integers(0, size + (rng.random() < 0.1))))
    return rd.ReducedMap(lam, phi)


def flipped(P, rng):
    """The record with one cell of one constituent flipped."""
    ijk = P.indices[:3]
    cell = tuple(int(rng.integers(0, s)) for s in sizes_of(P, ijk))
    cons = dict(P.cons)
    cons[ijk] = cons[ijk] ^ {cell}
    return Plain(P.indices, P.sizes, cons)


# -- the comparison -----------------------------------------------------------------


def compare_all(A, P, rng):
    assert A.class_sizes == P.sizes and A.constituents == P.cons
    assert all(type(x) is int for e in A.constituents.values() for t in e for x in t)

    for star in ("vvv", "ev", "ee"):
        ratio, witness = oracle_scan(P, star)
        assert rd.reduced_density(A, star) == ratio
        for d in THRESHOLDS:
            chk = rd.check_dense(A, star, d)
            assert (chk.ok, chk.min_ratio, chk.witness) == (
                ratio >= d, ratio, None if ratio >= d else witness)

    for star in ("ev", "ee"):
        for d in THRESHOLDS:
            want = oracle_exceptional(P, star, d)
            assert list(rd.exceptional_sets(A, star, d).entries.items()) == list(want.items())
            for eta in (0, Fraction(1, 4), 1):
                ok, exc = rd.check_eta_dense(A, star, d, eta)
                assert ok == oracle_eta_ok(P, star, d, eta) and exc.entries == want

    for d in THRESHOLDS[1:4]:
        want = oracle_purge(P, d)
        if want is None:
            with pytest.raises(rd.ReducedError, match="empties out"):
                rd.purge_ev(A, d)
        else:
            res = rd.purge_ev(A, d)
            assert res.kept == want[1] and plain_of(res.reduced) == want[0]

    ell = int(rng.integers(1, 4))
    psi = {pair: tuple(int(x) for x in rng.integers(0, size, size=ell))
           for pair, size in sorted(P.sizes.items())}
    res = rd.project_random(A, ell, psi=psi)
    assert res.psi == psi and plain_of(res.reduced) == oracle_restricted(P, psi)

    pc = con.random_partitioned_coloring(A, int(rng.integers(1, 4)), int(rng.integers(0, 100)))
    assert np.array_equal(con.lift_hypergraph(A, pc).array, oracle_lift(P, pc).array)

    assert json.dumps(uio.reduced_to_json(A), indent=2) + "\n" == oracle_json(P)

    for F in (hg.clique(4), hg.make(4, [(0, 1, 2), (1, 2, 3)])):
        for _ in range(8):
            rm = random_map(rng, F, P)
            assert rd.validate_reduced_map(F, A, rm) == oracle_validate(F, P, rm)

    assert A == build(P) and build(P) == A
    if P.cons:
        other = flipped(P, rng)
        assert P.cons != other.cons and A != build(other) and build(other) != A
    # the same constituents read at larger classes: never equal
    assert A != rd.ReducedHypergraph(P.indices, {p: s + 1 for p, s in P.sizes.items()}, P.cons)


@SETTINGS
@given(instances(), st.integers(0, 2**32 - 1))
def test_stacked_layer_matches_frozenset_oracles(made, seed):
    A, P, kind = made
    event(f"kind={kind}")
    event(f"stacks={min(len(A.stacks), 4)}")
    event(f"empty constituent={any(not e for e in P.cons.values())}")
    compare_all(A, P, np.random.default_rng(seed))


def test_purge_with_classes_of_different_sizes():
    # complete constituents but for the planted vertices of each class, which
    # lose every edge: 0, 1 or 2 of them by class.  At d = 1/4 a vertex keeps
    # at least 3 x 3 of 5 x 5 completions, so exactly the planted ones go and
    # the purge result has classes of 5, 4 and 3 vertices, several stacks
    m, size = 5, 5
    indices = tuple(range(m))
    sizes = {p: size for p in itertools.combinations(indices, 2)}
    planted = {p: range(t % 3) for t, p in enumerate(sorted(sizes))}
    cons = {}
    for ijk in itertools.combinations(indices, 3):
        cube = np.ones((size,) * 3, dtype=bool)
        for r, pair in enumerate(roles(ijk)):
            np.moveaxis(cube, r, 0)[list(planted[pair])] = False
        cons[ijk] = frozenset(map(tuple, np.argwhere(cube).tolist()))
    P = Plain(indices, sizes, cons)
    A = build(P)
    res = rd.purge_ev(A, Fraction(1, 4))
    assert res.kept == {p: tuple(range(len(planted[p]), size)) for p in sizes}
    assert len(res.reduced.stacks) > 1
    want, kept = oracle_purge(P, Fraction(1, 4))
    assert res.kept == kept and plain_of(res.reduced) == want
    compare_all(res.reduced, want, np.random.default_rng(6))
    compare_all(A, P, np.random.default_rng(7))


def test_constituents_is_a_lazy_view():
    A = rd.random_dense_reduced(5, 3, Fraction(1, 2), seed=2)
    assert A._constituents is None  # made from cubes: no frozenset yet
    view = A.constituents
    assert A.constituents is view
    assert all(type(x) is int for e in view.values() for t in e for x in t)
    given_cons = {(0, 1, 2): frozenset({(0, 0, 0)})}
    B = rd.ReducedHypergraph((0, 1, 2), {(0, 1): 1, (0, 2): 1, (1, 2): 1}, given_cons)
    assert B._constituents is None and B.constituents == given_cons  # built from the cubes
    ((triples, cubes),) = B.stacks
    assert triples == ((0, 1, 2),) and not cubes.flags.writeable
    assert np.shares_memory(B.cube((0, 1, 2)), cubes) and not B.cube((0, 1, 2)).flags.writeable
