"""Reduced hypergraphs: density checks against recounts, exceptional sets,
purge/projection replays, reduced-map search, and the greedy tetrahedron."""

import hashlib
import itertools
from fractions import Fraction

import numpy as np
import pytest

from unidense import hypergraph as hg
from unidense import palette as pal
from unidense import reduced as rd

PALETTE_NAMES = ("rainbow", "tournament", "star4", "roedl", "ramsey6", "ee5", "ee6", "ee11")


def random_reduced(m, max_size, p, rng):
    sizes = {
        pair: int(rng.integers(1, max_size + 1))
        for pair in itertools.combinations(range(m), 2)
    }
    cons = {}
    for i, j, k in itertools.combinations(range(m), 3):
        lim = (sizes[(i, j)], sizes[(i, k)], sizes[(j, k)])
        cons[(i, j, k)] = frozenset(
            t for t in itertools.product(*(range(x) for x in lim)) if rng.random() < p
        )
    return rd.ReducedHypergraph(tuple(range(m)), sizes, cons)


class TestConstruction:
    def test_validation(self):
        with pytest.raises(rd.ReducedError):
            rd.ReducedHypergraph((0, 1, 2), {(0, 1): 2, (0, 2): 2}, {})  # missing class
        with pytest.raises(rd.ReducedError):
            rd.ReducedHypergraph(
                (0, 1, 2),
                {(0, 1): 2, (0, 2): 2, (1, 2): 2},
                {(0, 1, 2): {(0, 0, 2)}},  # third coordinate out of range
            )

    @pytest.mark.parametrize("classes, cons", [
        ({(0, 1): 1, (0, 2): 1, (1, 2): 1}, {(1, 0, 2): {(0, 0, 0)}}),  # unsorted triple
        ({(0, 1): 1, (0, 2): 1, (1, 2): 1}, {(0, 1, 9): frozenset()}),  # index outside I
        ({(0, 1): 1, (0, 2): 1, (1, 2): 1, (5, 7): 1}, {}),  # class outside I
        ({(0, 1): 1, (0, 2): 1, (1, 2): 1, (1, 0): 2}, {}),  # unsorted pair
    ])
    def test_stray_keys_refused(self, classes, cons):
        # a key the instance never reads is refused, not dropped
        with pytest.raises(rd.ReducedError, match="is not a sorted"):
            rd.ReducedHypergraph((0, 1, 2), classes, cons)

    @pytest.mark.parametrize("edge", [(0.5, 1, 1), (1.0, 1, 1), ("1", 1, 1), (0, 1, np.float64(1))])
    def test_edge_labels_that_are_not_integers_refused(self, edge):
        # never truncated to the cell (0, 1, 1) or parsed into (1, 1, 1)
        sizes = {(0, 1): 2, (0, 2): 2, (1, 2): 2}
        with pytest.raises(rd.ReducedError, match="not an integer"):
            rd.ReducedHypergraph((0, 1, 2), sizes, {(0, 1, 2): [(0, 0, 0), edge]})

    @pytest.mark.parametrize("size", [2.5, 2.0, "2"])
    def test_class_sizes_that_are_not_integers_refused(self, size):
        sizes = {(0, 1): 2, (0, 2): size, (1, 2): 2}
        with pytest.raises(rd.ReducedError, match="not an integer"):
            rd.ReducedHypergraph((0, 1, 2), sizes, {})

    def test_numpy_int_labels_and_sizes_read_as_ints(self):
        sizes = {(0, 1): np.int64(2), (0, 2): np.uint8(3), (1, 2): 2}
        edges = np.array([[1, 2, 0], [0, 0, 1], [1, 2, 0]], dtype=np.int32)  # one edge twice
        A = rd.ReducedHypergraph((0, 1, 2), sizes, {(0, 1, 2): edges})
        assert A.class_sizes == {(0, 1): 2, (0, 2): 3, (1, 2): 2}
        assert all(type(x) is int for x in A.class_sizes.values())
        assert A.constituents == {(0, 1, 2): frozenset({(0, 0, 1), (1, 2, 0)})}
        assert A.cube((0, 1, 2)).shape == (2, 3, 2)
        B = rd.ReducedHypergraph((0, 1, 2), A.class_sizes, A.constituents)
        assert B == A and hash(B) == hash(A)

    def test_from_palette_shapes(self):
        A = rd.from_palette(pal.builtin("tournament"), 5)
        assert len(A.indices) == 5
        assert all(size == 2 for size in A.class_sizes.values())
        assert all(len(e) == 2 for e in A.constituents.values())

    def test_from_palette_rejects_weighted(self):
        with pytest.raises(rd.ReducedError):
            rd.from_palette(pal.builtin("cycle5"), 4)
        # the shade expansion makes it acceptable
        A = rd.from_palette(pal.builtin("cycle5").expand_weights(), 4)
        assert rd.reduced_density(A, "vvv") == Fraction(4, 27)


class TestCheckDense:
    def test_complete_passes_everything(self):
        full = pal.Palette(
            pal.WeightedColorSet.uniform(("a", "b")),
            frozenset(itertools.product(("a", "b"), repeat=3)),
        )
        A = rd.from_palette(full, 4)
        for star in ("vvv", "ev", "ee"):
            assert rd.check_dense(A, star, 1).ok

    def test_empty_constituent_fails_vvv(self):
        A = rd.ReducedHypergraph(
            (0, 1, 2), {(0, 1): 2, (0, 2): 2, (1, 2): 2}, {(0, 1, 2): frozenset()}
        )
        chk = rd.check_dense(A, "vvv", Fraction(1, 100))
        assert not chk.ok and chk.witness == ((0, 1, 2),)

    def test_density_transfer_all_builtins(self):
        for name in PALETTE_NAMES:
            P = pal.builtin(name)
            for m in (3, 5):
                A = rd.from_palette(P, m)
                for star in ("vvv", "ev", "ee"):
                    want = P.density(star)
                    assert rd.reduced_density(A, star) == want
                    assert rd.check_dense(A, star, want).ok
                    assert not rd.check_dense(A, star, want + Fraction(1, 1000)).ok

    def test_chain_on_random_instances(self):
        rng = np.random.default_rng(21)
        for trial in range(100):
            A = random_reduced(int(rng.integers(3, 6)), 4, float(rng.uniform(0.2, 0.9)), rng)
            d_ee = rd.reduced_density(A, "ee")
            d_ev = rd.reduced_density(A, "ev")
            d_vvv = rd.reduced_density(A, "vvv")
            assert d_ee <= d_ev <= d_vvv
            # a pass at the ee level implies passes down the chain at the same d
            assert rd.check_dense(A, "ev", d_ee).ok
            assert rd.check_dense(A, "vvv", d_ee).ok

    def test_degree_recount_oracle(self):
        rng = np.random.default_rng(5)
        A = random_reduced(4, 5, 0.6, rng)
        for ijk, edges in A.constituents.items():
            sizes = A.cube(ijk).shape
            for r in range(3):
                for v in range(sizes[r]):
                    assert np.take(A.cube(ijk), v, axis=r).sum() == sum(1 for e in edges if e[r] == v)


def reference_scan(A, star):
    """Literal Fraction scan: every witness's ratio in scan order, the first
    strict minimum kept (the incumbent starts at 1 with no witness)."""
    best, witness = Fraction(1), None
    for ijk in sorted(A.constituents):
        sizes, roles, edges = A.cube(ijk).shape, A.roles(ijk), A.constituents[ijk]
        cands = []
        if star == "vvv":
            cands.append((Fraction(len(edges), sizes[0] * sizes[1] * sizes[2]), (ijk,)))
        elif star == "ev":
            for r in range(3):
                others = sizes[(r + 1) % 3] * sizes[(r + 2) % 3]
                for v in range(sizes[r]):
                    deg = sum(1 for e in edges if e[r] == v)
                    cands.append((Fraction(deg, others), (ijk, roles[r], v)))
        else:
            for r1, r2 in itertools.combinations(range(3), 2):
                for u in range(sizes[r1]):
                    for v in range(sizes[r2]):
                        cnt = sum(1 for e in edges if e[r1] == u and e[r2] == v)
                        cands.append((
                            Fraction(cnt, sizes[3 - r1 - r2]),
                            (ijk, (roles[r1], u), (roles[r2], v)),
                        ))
        for ratio, w in cands:
            if ratio < best:
                best, witness = ratio, w
    return best, witness


def reference_exceptional(A, star, d):
    entries = {}
    for ijk in sorted(A.constituents):
        sizes, roles, edges = A.cube(ijk).shape, A.roles(ijk), A.constituents[ijk]
        if star == "ev":
            for r in range(3):
                other = sizes[(r + 1) % 3] * sizes[(r + 2) % 3]
                k = [x for x in ijk if x not in roles[r]][0]
                entries[(roles[r], k)] = tuple(
                    v for v in range(sizes[r])
                    if Fraction(sum(1 for e in edges if e[r] == v)) < d * other
                )
        else:
            for r1, r2 in itertools.combinations(range(3), 2):
                r3 = 3 - r1 - r2
                shared = [x for x in roles[r1] if x in roles[r2]][0]
                entries[(roles[r3], shared)] = tuple(
                    (u, v)
                    for u in range(sizes[r1])
                    for v in range(sizes[r2])
                    if Fraction(sum(1 for e in edges if e[r1] == u and e[r2] == v)) < d * sizes[r3]
                )
    return entries


def reference_eta_ok(A, star, d, eta):
    for key, bad in reference_exceptional(A, star, d).items():
        if star == "ev":
            budget = eta * A.class_sizes[key[0]]
        else:
            (j, k), i = key
            budget = eta * A.class_sizes[tuple(sorted((i, j)))] * A.class_sizes[tuple(sorted((i, k)))]
        if Fraction(len(bad)) > budget:
            return False
    return True


def tie_corpus():
    """Instances with many equal ratios: homogeneous palettes, complete and
    empty constituents, uniform class sizes; and seeded random ones."""
    full = pal.Palette(
        pal.WeightedColorSet.uniform(("a", "b")),
        frozenset(itertools.product(("a", "b"), repeat=3)),
    )
    out = [rd.from_palette(pal.builtin(name), 4) for name in ("ee5", "ee6", "tournament", "roedl")]
    out.append(rd.from_palette(full, 4))
    out.append(rd.ReducedHypergraph((0, 1, 2, 3), {p: 2 for p in itertools.combinations(range(4), 2)}, {}))
    out.append(rd.ReducedHypergraph((0, 1), {(0, 1): 3}, {}))
    rng = np.random.default_rng(17)
    for _ in range(12):
        out.append(random_reduced(int(rng.integers(3, 6)), 4, float(rng.choice([0.2, 0.5, 0.8])), rng))
    out.append(rd.random_dense_reduced(5, 3, Fraction(1, 2), seed=4))
    return out


THRESHOLDS = (0, Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), 1)


class TestScanReference:
    def test_check_dense_matches_fraction_scan(self):
        for A in tie_corpus():
            for star in ("vvv", "ev", "ee"):
                ratio, witness = reference_scan(A, star)
                assert rd.reduced_density(A, star) == ratio
                for d in THRESHOLDS:
                    got = rd.check_dense(A, star, d)
                    assert (got.ok, got.min_ratio) == (ratio >= d, ratio)
                    assert got.witness == (None if ratio >= d else witness)

    def test_witness_is_first_of_tied_minima(self):
        # every ee pair of a homogeneous instance ties; the first pair of the
        # first constituent is the witness
        A = rd.from_palette(pal.builtin("ee5"), 4)
        chk = rd.check_dense(A, "ee", 1)
        assert chk.witness == ((0, 1, 2), ((0, 1), 0), ((0, 2), 0))
        assert chk.witness == reference_scan(A, "ee")[1]

    def test_exceptional_sets_and_eta_match_fraction_reference(self):
        for A in tie_corpus():
            for star in ("ev", "ee"):
                for d in THRESHOLDS:
                    want = reference_exceptional(A, star, d)
                    assert rd.exceptional_sets(A, star, d).entries == want
                    for eta in (0, Fraction(1, 10), Fraction(1, 3), 1):
                        ok, exc = rd.check_eta_dense(A, star, d, eta)
                        assert ok == reference_eta_ok(A, star, d, eta)
                        assert exc.entries == want

    @pytest.mark.parametrize("call", [
        lambda A: rd.check_dense(A, "ee", Fraction(-1, 2)),
        lambda A: rd.check_dense(A, "vvv", Fraction(3, 2)),
        lambda A: rd.exceptional_sets(A, "ev", Fraction(-1, 10)),
        lambda A: rd.check_eta_dense(A, "ev", Fraction(3, 2), 0),
        lambda A: rd.check_eta_dense(A, "ee", Fraction(1, 2), Fraction(-1, 10)),
        lambda A: rd.purge_ev(A, 2),
        lambda A: rd.reduced_density(A, "zz"),
        lambda A: rd.exceptional_sets(A, "vvv", Fraction(1, 2)),
    ], ids=["ee d<0", "vvv d>1", "exceptional d<0", "eta d>1", "eta<0", "purge d>1", "notion",
            "exceptional vvv"])
    def test_out_of_domain_refused(self, call):
        with pytest.raises(rd.ReducedError):
            call(rd.from_palette(pal.builtin("ee5"), 4))


def constituent_digest(A):
    cons = sorted((ijk, sorted(edges)) for ijk, edges in A.constituents.items())
    return hashlib.sha256(repr(cons).encode()).hexdigest()[:16]


class TestRandomDenseReducedPinned:
    """Generated instances are pinned: the PCG64 draws (coin flips, then one
    permutation per deficient pair) must not change."""

    @pytest.mark.parametrize("m, size, d, seed, edges, digest", [
        (5, 4, Fraction(1, 2), 0, 493, "55cdd7ebce2caf10"),
        (5, 4, Fraction(1, 2), 1, 499, "b3b465ec94ccb3a2"),
        (5, 4, Fraction(1, 2), 2, 502, "3d6149a8099a422c"),
        (5, 4, 0, 0, 148, "ccbf8b104403c01a"),
        (5, 4, 1, 0, 640, "7492537b787e6213"),
        (4, 6, Fraction(2, 3), 7, 800, "d09b84c24e0e0482"),
    ])
    def test_digest(self, m, size, d, seed, edges, digest):
        A = rd.random_dense_reduced(m, size, d, seed=seed)
        assert sum(len(e) for e in A.constituents.values()) == edges
        assert constituent_digest(A) == digest
        assert all(type(x) is int for e in A.constituents.values() for t in e for x in t)
        assert rd.check_dense(A, "ee", d).ok

    @pytest.mark.parametrize("m, size, message", [
        (1, 3, "at least two distinct indices"),
        (0, 3, "at least two distinct indices"),
        (4, 0, "missing or empty"),
        (2, 0, "missing or empty"),
    ])
    def test_degenerate_shapes_refused(self, m, size, message):
        with pytest.raises(rd.ReducedError, match=message):
            rd.random_dense_reduced(m, size, Fraction(1, 2), seed=0)


class TestEtaDense:
    def test_eta_zero_coincides_with_check_dense(self):
        rng = np.random.default_rng(31)
        for trial in range(50):
            A = random_reduced(int(rng.integers(3, 5)), 4, float(rng.uniform(0.3, 0.9)), rng)
            d = Fraction(int(rng.integers(1, 10)), 10)
            for star in ("ev", "ee"):
                ok_eta, _ = rd.check_eta_dense(A, star, d, 0)
                assert ok_eta == rd.check_dense(A, star, d).ok

    def test_complete_has_empty_exceptional_sets(self):
        full = pal.Palette(
            pal.WeightedColorSet.uniform(("a", "b")),
            frozenset(itertools.product(("a", "b"), repeat=3)),
        )
        A = rd.from_palette(full, 4)
        for star in ("ev", "ee"):
            ok, exc = rd.check_eta_dense(A, star, 1, 0)
            assert ok and exc.total() == 0

    def test_exceptional_matches_direct_recount_size40(self):
        # classes of size 40 at edge probability 0.6; degrees concentrate far
        # above the 1/2 threshold, so two sparse vertices are planted to keep
        # the exceptional sets nonempty
        rng = np.random.default_rng(7)
        size = 40
        sizes = {p: size for p in itertools.combinations(range(3), 2)}
        cube = rng.random((size, size, size)) < 0.6
        cube[3, :, :] = rng.random((size, size)) < 0.3
        cube[:, :, 11] = rng.random((size, size)) < 0.3
        cons = {(0, 1, 2): frozenset(map(tuple, np.argwhere(cube).tolist()))}
        A = rd.ReducedHypergraph((0, 1, 2), sizes, cons)
        d = Fraction(1, 2)
        exc = rd.exceptional_sets(A, "ev", d)
        assert exc.total() > 0
        for ((i, j), k), bad in exc.entries.items():
            ijk = tuple(sorted((i, j, k)))
            role = A.roles(ijk).index((i, j))
            others = [s for r, s in enumerate(A.cube(ijk).shape) if r != role]
            want = tuple(
                v
                for v in range(size)
                if sum(1 for e in A.constituents[ijk] if e[role] == v)
                < d * others[0] * others[1]
            )
            assert bad == want

    def test_exceptional_matches_direct_recount(self):
        rng = np.random.default_rng(7)
        sizes = 6
        A = random_reduced(4, sizes, 0.6, rng)
        d = Fraction(1, 2)
        exc = rd.exceptional_sets(A, "ev", d)
        for ((i, j), k), bad in exc.entries.items():
            ijk = tuple(sorted((i, j, k)))
            role = A.roles(ijk).index((i, j))
            others = [s for r, s in enumerate(A.cube(ijk).shape) if r != role]
            want = tuple(
                v
                for v in range(A.class_sizes[(i, j)])
                if sum(1 for e in A.constituents[ijk] if e[role] == v)
                < d * others[0] * others[1]
            )
            assert bad == want


class TestPurge:
    def test_already_dense_is_identity(self):
        A = rd.from_palette(pal.builtin("ee5"), 5)
        res = rd.purge_ev(A, Fraction(1, 3))
        assert res.reduced == A

    def test_plant_and_recover(self):
        # plant one low-degree vertex in an otherwise complete instance
        for seed in range(20):
            rng = np.random.default_rng(seed)
            m, size = 4, 4
            sizes = {p: size for p in itertools.combinations(range(m), 2)}
            cons = {}
            victim_pair = (0, 1)
            victim = int(rng.integers(0, size))
            for ijk in itertools.combinations(range(m), 3):
                edges = set(itertools.product(range(size), repeat=3))
                if ijk[0] == victim_pair[0] and ijk[1] == victim_pair[1]:
                    edges = {e for e in edges if e[0] != victim}
                    keep = [t for t in itertools.product(range(size), repeat=2)
                            if rng.random() < 0.1]
                    edges.update((victim, b, c) for b, c in keep)
                cons[ijk] = frozenset(edges)
            A = rd.ReducedHypergraph(tuple(range(m)), sizes, cons)
            res = rd.purge_ev(A, Fraction(1, 2))
            assert res.kept[victim_pair] == tuple(
                v for v in range(size) if v != victim
            )
            for pair in sizes:
                if pair != victim_pair:
                    assert res.kept[pair] == tuple(range(size))

    def test_survivor_degrees_replay(self):
        # every survivor met the threshold in the ORIGINAL constituents
        rng = np.random.default_rng(3)
        A = random_reduced(4, 5, 0.75, rng)
        d = Fraction(2, 5)
        try:
            res = rd.purge_ev(A, d)
        except rd.ReducedError:
            pytest.skip("instance too sparse for the chosen threshold")
        for ijk in A.constituents:
            roles = A.roles(ijk)
            sizes = A.cube(ijk).shape
            for r in range(3):
                other = sizes[(r + 1) % 3] * sizes[(r + 2) % 3]
                for old in res.kept[roles[r]]:
                    assert np.take(A.cube(ijk), old, axis=r).sum() >= d * other

    def test_lemma_conclusion_on_seeded_instances(self):
        # purge at D on (D, eta, ev)-dense instances with m * eta <= eps / 4:
        # the survivors must be (D - eps/2, ev)-dense.  Random degrees
        # concentrate, so one sparse vertex is planted per instance; the eta
        # budget of 1/40 per class of 40 accommodates exactly that plant.
        eps = Fraction(2, 5)
        D = Fraction(3, 5)
        m, size = 4, 40
        eta = eps / (4 * m)  # = 1/40: one exceptional vertex per class allowed
        removals = 0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            sizes = {p: size for p in itertools.combinations(range(m), 2)}
            victim = int(rng.integers(0, size))
            cons = {}
            for ijk in itertools.combinations(range(m), 3):
                cube = rng.random((size, size, size)) < 0.75
                if ijk[:2] == (0, 1):
                    cube[victim, :, :] = rng.random((size, size)) < 0.3
                cons[ijk] = frozenset(map(tuple, np.argwhere(cube).tolist()))
            A = rd.ReducedHypergraph(tuple(range(m)), sizes, cons)
            ok_eta, _exc = rd.check_eta_dense(A, "ev", D, eta)
            assert ok_eta  # the lemma's hypothesis holds on these instances
            res = rd.purge_ev(A, D)
            removals += sum(size - len(k) for k in res.kept.values())
            assert rd.check_dense(res.reduced, "ev", D - eps / 2).ok
        assert removals >= 20  # the planted vertex goes every time

    def test_empty_class_raises(self):
        A = rd.ReducedHypergraph(
            (0, 1, 2), {(0, 1): 2, (0, 2): 2, (1, 2): 2}, {(0, 1, 2): frozenset()}
        )
        with pytest.raises(rd.ReducedError):
            rd.purge_ev(A, Fraction(1, 2))


class TestProjection:
    def test_bijective_psi_reproduces_instance(self):
        A = rd.from_palette(pal.builtin("ee5"), 4)
        ell = 3  # class size of ee5 copies
        psi = {pair: tuple(range(ell)) for pair in A.class_sizes}
        res = rd.project_random(A, ell, psi=psi)
        assert res.reduced == A

    def test_empty_constituents_stay_empty(self):
        A = rd.ReducedHypergraph(
            (0, 1, 2), {(0, 1): 2, (0, 2): 2, (1, 2): 2}, {(0, 1, 2): frozenset()}
        )
        res = rd.project_random(A, 4, seed=1)
        assert all(not e for e in res.reduced.constituents.values())

    def test_composition_replay_50_instances(self):
        rng = np.random.default_rng(11)
        found = 0
        F = hg.clique(4)
        for trial in range(50):
            A = random_reduced(4, 5, float(rng.uniform(0.6, 0.95)), rng)
            res = rd.project_random(A, 3, seed=trial)
            search = rd.find_reduced_map(F, res.reduced)
            if not search.found:
                continue
            found += 1
            composed = rd.compose_with_projection(search.reduced_map, res.psi)
            assert rd.validate_reduced_map(F, A, composed)
        assert found >= 20  # dense instances should usually admit a map


def naive_reduced_map(F, A, injective):
    """Oracle: try every index assignment and every class-vertex choice outright."""
    shadow = sorted(F.shadow())
    for lam in itertools.product(A.indices, repeat=F.n):
        if injective and len(set(lam)) < F.n:
            continue
        if any(lam[u] == lam[v] for u, v in shadow):
            continue
        classes = [tuple(sorted((lam[u], lam[v]))) for u, v in shadow]
        for local in itertools.product(*(range(A.class_sizes[c]) for c in classes)):
            phi = dict(zip(shadow, local))
            ok = True
            for e in F.edges:
                i, j, k = sorted(lam[x] for x in e)
                at = {
                    tuple(sorted((lam[a], lam[b]))): phi[(a, b)]
                    for a, b in itertools.combinations(e, 2)
                }
                if (at[i, j], at[i, k], at[j, k]) not in A.constituents[(i, j, k)]:
                    ok = False
                    break
            if ok:
                return True
    return False


class TestFindReducedMap:
    def test_agrees_with_naive_oracle(self):
        rng = np.random.default_rng(23)
        checked = found = 0
        for trial in range(150):
            A = random_reduced(int(rng.integers(2, 5)), 2, float(rng.uniform(0.3, 0.9)), rng)
            fn = int(rng.integers(3, 5))
            fe = [t for t in itertools.combinations(range(fn), 3) if rng.random() < 0.6]
            if not fe:
                continue
            F = hg.make(fn, fe)
            for injective in (False, True):
                got = rd.find_reduced_map(F, A, injective=injective)
                assert got.found == naive_reduced_map(F, A, injective)
                if got.found:
                    found += 1
                    assert rd.validate_reduced_map(F, A, got.reduced_map)
                    if injective:
                        assert len(set(got.reduced_map.lam.values())) == F.n
                checked += 1
        assert checked >= 200 and 50 < found < checked - 50

    def test_homogeneous_first_use_agrees_with_naive_oracle(self):
        # from_palette of a symmetric palette is index-homogeneous, so the
        # search takes indices in first-use order; the oracle tries them all
        rng = np.random.default_rng(29)
        checked = found = 0
        for name in ("ee5", "ee6", "ramsey6", "random2", "random3"):
            for trial in range(8):
                if name.startswith("random"):
                    colors = "abc"[: int(name[-1])]
                    gens = [p for p in itertools.product(colors, repeat=3) if rng.random() < 0.15]
                    P = pal.symmetric_closure(gens, pal.WeightedColorSet.uniform(colors))
                else:
                    P = pal.builtin(name)
                m = int(rng.integers(3, 5))
                A = rd.from_palette(P, m)
                fn = int(rng.integers(3, 5))
                fe = [t for t in itertools.combinations(range(fn), 3) if rng.random() < 0.7]
                F = hg.make(fn, fe or [(0, 1, 2)])
                for injective in (False, True):
                    got = rd.find_reduced_map(F, A, injective=injective)
                    assert got.symmetry.name == f"Sym({m})"
                    assert got.found == naive_reduced_map(F, A, injective)
                    if got.found:
                        found += 1
                        assert rd.validate_reduced_map(F, A, got.reduced_map)
                    checked += 1
        assert checked == 80 and 10 < found < 70

    def test_inhomogeneous_instance_has_no_symmetry(self):
        A = rd.from_palette(pal.builtin("tournament"), 4)  # asymmetric palette
        assert rd.find_reduced_map(hg.clique(4), A).symmetry == pal.NO_SYMMETRY

    def test_node_count_pinned(self):
        # any change of search order shows up here
        A = rd.from_palette(pal.builtin("ee5"), 5)
        assert rd.find_reduced_map(hg.clique(5), A).nodes == 146

    @pytest.mark.parametrize("m", [6, 7])
    def test_budget_sweep_k6_on_ee6(self, m):
        # the outer index search and the inner colourings share one counter:
        # any budget short of the full count stops the search, the full count ends it
        A = rd.from_palette(pal.builtin("ee6"), m)
        full = rd.find_reduced_map(hg.clique(6), A)
        assert full.status == "free" and full.nodes > 0
        for budget in range(full.nodes):
            res = rd.find_reduced_map(hg.clique(6), A, budget=budget)
            assert res.status == "inconclusive" and res.nodes == budget + 1
        assert rd.find_reduced_map(hg.clique(6), A, budget=full.nodes) == full

    def test_map_search_reads_cubes(self):
        # an instance made from cubes keeps no frozenset view after a search
        A = rd.random_dense_reduced(5, 3, Fraction(1, 2), seed=2)
        res = rd.find_reduced_map(hg.clique(4), A)
        assert res.found and A._constituents is None

    def test_edgeless_injective(self):
        # no edge constrains lambda, so only the all-different constraints
        # can refuse: five vertices need five indices
        F = hg.make(5, [])
        res = rd.find_reduced_map(F, rd.from_palette(pal.builtin("ee6"), 3), injective=True)
        assert res.status == "free"
        for m in (5, 6):
            A = rd.from_palette(pal.builtin("ee6"), m)
            res = rd.find_reduced_map(F, A, injective=True)
            assert res.found and len(set(res.reduced_map.lam.values())) == 5
            assert rd.validate_reduced_map(F, A, res.reduced_map)
        # two vertices lie in no triple, so the hook's own test keeps them apart
        A = rd.from_palette(pal.builtin("ee6"), 3)
        res = rd.find_reduced_map(hg.make(2, []), A, injective=True)
        assert res.reduced_map.lam == {0: 0, 1: 1}

    def test_injective_prunes_partial_lambda(self):
        # a reused index is cut while lambda is partial; testing only total
        # lambdas took 1364 nodes here (4^5 assignments and their prefixes)
        A = rd.from_palette(pal.builtin("tournament"), 4)
        res = rd.find_reduced_map(hg.make(5, []), A, injective=True)
        assert res.status == "free" and res.nodes <= 100

    def test_deep_f(self):
        # 600 vertices and 600 shadow pairs: the outer and inner searches
        # together are far deeper than the interpreter's recursion limit
        F = hg.make(600, [(3 * i, 3 * i + 1, 3 * i + 2) for i in range(200)])
        A = rd.from_palette(pal.builtin("ee6"), 7)
        res = rd.find_reduced_map(F, A)
        assert res.found and rd.validate_reduced_map(F, A, res.reduced_map)

    def test_single_edge_trivial(self):
        A = rd.from_palette(pal.builtin("ee6"), 3)
        res = rd.find_reduced_map(hg.make(3, [(0, 1, 2)]), A)
        assert res.found

    def test_all_empty_is_free(self):
        A = rd.ReducedHypergraph(
            (0, 1, 2), {(0, 1): 2, (0, 2): 2, (1, 2): 2}, {(0, 1, 2): frozenset()}
        )
        res = rd.find_reduced_map(hg.make(3, [(0, 1, 2)]), A)
        assert res.status == "free"

    def test_k4_free_on_roedl_lift(self):
        A = rd.from_palette(pal.builtin("roedl"), 8)
        res = rd.find_reduced_map(hg.clique(4), A)
        assert res.status == "free"
        # cross-check with the palette-level certificate machinery
        assert pal.representable(hg.clique(4), pal.builtin("roedl")).status == "free"

    def test_ee6_clique_thresholds(self):
        A = rd.from_palette(pal.builtin("ee6"), 7)
        assert rd.find_reduced_map(hg.clique(6), A).status == "free"
        found = rd.find_reduced_map(hg.clique(5), A)
        assert found.found
        assert rd.validate_reduced_map(hg.clique(5), A, found.reduced_map)

    def test_budget_inconclusive(self):
        A = rd.from_palette(pal.builtin("ee6"), 7)
        res = rd.find_reduced_map(hg.clique(6), A, budget=5)
        assert res.status == "inconclusive"

    def test_injective_flag(self):
        # K4's shadow is complete so lambda is forced injective either way;
        # an edgeless pair of vertices may share an index unless the flag is set
        F = hg.make(4, [(0, 1, 2)])
        A = rd.from_palette(pal.builtin("ee6"), 3)
        loose = rd.find_reduced_map(F, A)
        assert loose.found
        strict = rd.find_reduced_map(F, A, injective=True)
        assert strict.status == "free"  # only 3 indices for 4 vertices
        strict4 = rd.find_reduced_map(F, rd.from_palette(pal.builtin("ee6"), 4), injective=True)
        assert strict4.found
        assert len(set(strict4.reduced_map.lam.values())) == 4


class TestTetrahedronGreedy:
    def test_min_indices_formula(self):
        assert rd.tetra_min_indices(Fraction(2, 3)) == 3 + 7  # 2*(3/2)^3 = 6.75 -> 7
        assert rd.tetra_min_indices(Fraction(1, 2)) == 3 + 16  # 2*2^3
        assert rd.tetra_min_indices(1) == 2 + 2

    def test_ee11_minimal(self):
        eps = Fraction(2, 3)
        A = rd.from_palette(pal.builtin("ee11"), rd.tetra_min_indices(eps))
        rm = rd.tetrahedron_greedy(A, eps)
        assert rd.validate_reduced_map(hg.clique(4), A, rm)
        assert len(set(rm.lam.values())) == 4

    def test_complete_eps1(self):
        full = pal.Palette(
            pal.WeightedColorSet.uniform(("a", "b")),
            frozenset(itertools.product(("a", "b"), repeat=3)),
        )
        A = rd.from_palette(full, 6)
        rm = rd.tetrahedron_greedy(A, 1)
        assert rd.validate_reduced_map(hg.clique(4), A, rm)

    def test_not_dense_enough_refused(self):
        A = rd.from_palette(pal.builtin("ee5"), 20)  # (1/3, ee)-dense only
        with pytest.raises(rd.ReducedError):
            rd.tetrahedron_greedy(A, Fraction(1, 2))

    def test_too_few_indices_refused(self):
        A = rd.from_palette(pal.builtin("ee11"), 9)  # needs 10 at eps=2/3
        with pytest.raises(rd.ReducedError):
            rd.tetrahedron_greedy(A, Fraction(2, 3))

    def test_random_dense_instances_and_agreement(self):
        eps = Fraction(1, 2)
        m = rd.tetra_min_indices(eps)
        for seed in range(5):
            A = rd.random_dense_reduced(m, 8, eps, seed=seed)
            rm = rd.tetrahedron_greedy(A, eps)
            assert rd.validate_reduced_map(hg.clique(4), A, rm)
            # agreement in validity with the generic search
            res = rd.find_reduced_map(hg.clique(4), A)
            assert res.found


# a map of an edge plus the isolated vertex 3 whose phi names one pair too
# many or one too few; the check of phi's keys against the shadow refuses both
@pytest.mark.parametrize("change", ["extra pair", "missing pair"])
def test_validate_reduced_map_refuses_phi_off_the_shadow(change):
    F, A = hg.make(4, [(0, 1, 2)]), rd.from_palette(pal.builtin("ee6"), 4)
    rm = rd.find_reduced_map(F, A).reduced_map
    assert rd.validate_reduced_map(F, A, rm)
    phi = dict(rm.phi)
    if change == "extra pair":
        phi[0, 3] = (tuple(sorted((rm.lam[0], rm.lam[3]))), 0)
    else:
        del phi[0, 1]
    assert not rd.validate_reduced_map(F, A, rd.ReducedMap(rm.lam, phi))


TOURNAMENT4 = rd.from_palette(pal.builtin("tournament"), 4)


@pytest.mark.parametrize("make, message", [
    (lambda: rd.project_random(TOURNAMENT4, 0), "class size must be positive, got 0"),
    (lambda: rd.project_random(TOURNAMENT4, 2, psi={(0, 1): (0, 2)}),
     "psi for class (0, 1) is not a map into the class"),
    (lambda: rd.project_random(TOURNAMENT4, 2, psi={(0, 1): (0,)}),
     "psi for class (0, 1) is not a map into the class"),
    (lambda: rd.tetra_min_indices(0), "eps must lie in (0, 1]"),
    (lambda: rd.from_palette(pal.builtin("tournament"), 2), "need at least 3 indices, got 2"),
    (lambda: rd.random_dense_reduced(4, 2, Fraction(3, 2)), "d must lie in [0, 1]"),
], ids=["ell", "psi image", "psi length", "eps", "indices", "d"])
def test_refusals(make, message):
    with pytest.raises(rd.ReducedError) as exc:
        make()
    assert str(exc.value) == message
