"""Tests for the core hypergraph type, named families, and embedding search."""

import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unidense import construct as cn
from unidense import hypergraph as hg
from unidense import io as uio

PROPERTY = settings(max_examples=300, deadline=None, derandomize=True, database=None)


@st.composite
def triple_lists(draw, max_n):
    """(n, triples): any subset of the triples of 0..n-1, each written in a
    drawn vertex order, sometimes with a planted K4 or K4-minus."""
    n = draw(st.integers(0, max_n))
    every = list(itertools.combinations(range(n), 3))
    keep = draw(st.lists(st.booleans(), min_size=len(every), max_size=len(every)))
    triples = [t for t, k in zip(every, keep) if k]
    plant = draw(st.sampled_from([None, "k4", "k4minus"]))
    if plant and n >= 4:
        x, a, b, c = draw(st.permutations(range(n)))[:4]
        triples += [(x, a, b), (x, a, c), (x, b, c)] + ([(a, b, c)] if plant == "k4" else [])
    return n, [draw(st.permutations(t)) for t in triples]


def literal_4_subsets(n, triples):
    """(some 4-set spans 4 edges, some 4-set spans at least 3), by counting
    the edges inside every 4-subset of 0..n-1."""
    edges = {tuple(sorted(t)) for t in triples}
    k4 = k4_minus = False
    for q in itertools.combinations(range(n), 4):
        inside = sum(t in edges for t in itertools.combinations(q, 3))
        k4 |= inside == 4
        k4_minus |= inside >= 3
    return k4, k4_minus


def injective_maps(fn, f_triples, hn, h_triples):
    """Every injective, edge-preserving map of 0..fn-1 into 0..hn-1."""
    f_edges = {tuple(sorted(t)) for t in f_triples}
    h_edges = {tuple(sorted(t)) for t in h_triples}
    return [
        img
        for img in itertools.permutations(range(hn), fn)
        if all(tuple(sorted((img[a], img[b], img[c]))) in h_edges for a, b, c in f_edges)
    ]


class TestMake:
    def test_k4_minus_shape(self):
        H = hg.make(4, [(0, 1, 2), (0, 1, 3), (0, 2, 3)])
        assert H.n == 4
        assert H.edge_count == 3

    def test_empty(self):
        H = hg.make(3, [])
        assert H.edges == ()
        assert H.shadow() == set()

    def test_canonicalization(self):
        H = hg.make(4, [(2, 1, 0)])
        assert H.edges == ((0, 1, 2),)

    def test_duplicates_collapse(self):
        H = hg.make(4, [(0, 1, 2), (2, 0, 1), (1, 2, 0)])
        assert H.edge_count == 1

    def test_out_of_range(self):
        with pytest.raises(hg.HypergraphError):
            hg.make(3, [(0, 1, 3)])

    def test_repeated_vertex(self):
        with pytest.raises(hg.HypergraphError):
            hg.make(4, [(0, 1, 1)])


def reference_structure(n, triples):
    """Literal per-triple construction: (edges, thirds map), the thirds
    built edge by edge in sorted edge order."""
    canon = set()
    for t in triples:
        t = tuple(t)
        if len(t) != 3:
            raise hg.HypergraphError(f"not a triple: {t!r}")
        a, b, c = sorted(int(x) for x in t)
        if a == b or b == c:
            raise hg.HypergraphError(f"repeated vertex in triple {t!r}")
        if a < 0 or c >= n:
            raise hg.HypergraphError(f"vertex out of range in triple {t!r} (n={n})")
        canon.add((a, b, c))
    edges = tuple(sorted(canon))
    thirds = {}
    for a, b, c in edges:
        for (u, v), w in (((a, b), c), ((a, c), b), ((b, c), a)):
            thirds[(u, v)] = thirds.get((u, v), 0) | (1 << w)
    return edges, thirds


def assert_matches_reference(H, n, triples):
    edges, thirds = reference_structure(n, triples)
    assert H.n == n and H.edges == edges
    edge_set, span = set(edges), range(-1, n + 1)  # repeated and out-of-range vertices too
    assert all(
        H.has_edge(a, b, c) == (tuple(sorted((a, b, c))) in edge_set)
        for a, b, c in itertools.product(span, repeat=3)
    )
    assert all(type(x) is int for e in H.edges for x in e)
    assert H.shadow() == set(thirds)
    for u, v in itertools.product(span, repeat=2):
        want = thirds.get((min(u, v), max(u, v)), 0)  # 0 for u == v and outside 0..n-1
        got = H.thirds(u, v)
        assert got == want and type(got) is int


class TestConstructorReference:
    def test_seeded_unsorted_duplicated_triples(self):
        rng = np.random.default_rng(2)
        for n in (3, 5, 9, 17, 40):
            triples = [tuple(rng.permutation(n)[:3].tolist()) for _ in range(4 * n)]
            triples += triples[: n]  # duplicates, in another position
            rng.shuffle(triples)
            assert_matches_reference(hg.make(n, triples), n, triples)

    def test_numpy_int_and_ndarray_input(self):
        rng = np.random.default_rng(3)
        n = 12
        arr = np.array([rng.permutation(n)[:3] for _ in range(60)], dtype=np.int64)
        plain = [tuple(int(x) for x in row) for row in arr]
        numpy_ints = [tuple(row) for row in arr]  # tuples of np.int64
        for given in (arr, arr.astype(np.int32), numpy_ints, (row for row in arr)):
            assert_matches_reference(hg.make(n, given), n, plain)
        assert hg.make(n, arr) == hg.make(n, plain)

    def test_has_edge_takes_numpy_ints_past_63_vertices(self):
        # the thirds mask of (3, 64) holds bit 99, past what an int64 shifts
        H = hg.make(100, [(3, 64, 99)])
        assert H.has_edge(np.int64(99), np.int32(3), np.int64(64))
        assert not H.has_edge(np.int64(99), np.int64(3), np.int64(65))

    def test_thirds_takes_numpy_ints_past_their_range(self):
        # u*n + v in the arguments' dtype would wrap (int32) or overflow (uint8)
        H = hg.make(50_000, [(200, 250, 49_999), (46_000, 49_000, 49_999)])
        assert H.thirds(200, 250) == 1 << 49_999 and H.thirds(49_000, 46_000) == 1 << 49_999
        for u, v in ((200, 250), (250, 49_999), (46_000, 49_000), (49_999, 46_000), (200, 46_000)):
            want = H.thirds(u, v)
            kinds = (np.int32, np.int64, np.uint16, np.uint8) if max(u, v) < 256 else (np.int32, np.int64)
            for kind in kinds:
                got = H.thirds(kind(u), kind(v))
                assert got == want and type(got) is int

    def test_thirds_of_labels_that_are_not_integers(self):
        H = hg.make(3, [(0, 1, 2)])
        assert H.thirds(1.0, 2) == H.thirds(np.float64(1.0), 2) == 1
        assert H.thirds(0.5, 0) == H.thirds(0.5, 1) == H.thirds(1.5, 0) == 0

    @pytest.mark.parametrize("n, triples", [
        (80, [tuple(np.random.default_rng(4).permutation(80)[:3].tolist()) for _ in range(12)]),
        (100, [(3, 64, 99)]),
    ])
    def test_sparse_side_of_the_pair_index(self, n, triples):
        # n*n keys against 3 opposite pairs an edge: np.unique builds the index
        assert n * n > hg._DENSE_PAIRS * 3 * len(triples)
        assert_matches_reference(hg.make(n, triples), n, triples)

    def test_generated_hypergraph(self):
        H = cn.roedl_hypergraph(30, 4)
        assert_matches_reference(H, 30, list(H.edges))

    def test_n_zero_and_no_edges(self):
        assert_matches_reference(hg.make(0, []), 0, [])
        for n in (0, 1, 6):
            for empty in ([], (), np.empty((0, 3), dtype=np.int64), iter([])):
                assert_matches_reference(hg.make(n, empty), n, [])
            assert hg.make(n, []).density() == 0

    @pytest.mark.parametrize("n, triples", [
        (4, [(0, 1, 2), (0, 1)]),  # not a triple
        (4, [(0, 1, 2, 3)]),
        (4, [(0, 1, 2), (3, 1, 1), (0, 1, 9)]),  # repeated vertex comes first
        (4, [(0, 1, 2), (0, 4, 1), (2, 2, 3)]),  # out of range comes first
        (4, [(-1, 0, 1)]),
        (5, [(0, 1, 2), (1, 2)]),
    ])
    def test_errors_match_reference(self, n, triples):
        with pytest.raises(hg.HypergraphError) as want:
            reference_structure(n, triples)
        with pytest.raises(hg.HypergraphError) as got:
            hg.make(n, triples)
        assert str(got.value) == str(want.value)

    def test_ndarray_errors_name_plain_ints(self):
        with pytest.raises(hg.HypergraphError, match=r"in triple \(0, 1, 9\) \(n=4\)"):
            hg.make(4, np.array([[0, 1, 2], [0, 1, 9]]))
        with pytest.raises(hg.HypergraphError, match=r"not a triple: \(0, 1\)"):
            hg.make(4, np.array([[0, 1], [1, 2]]))


class TestNonIntegerLabels:
    @pytest.mark.parametrize("triples", [
        [(1.5, 2, 3)],
        [(0.9, 2, 3)],
        [(1.0, 2, 3)],
        [("1", 2, 3)],
        [(0, 1, 2), (np.float64(1), 3, 4)],
        np.array([[0.5, 1.0, 2.0]]),
        np.array([[0.0, 1.0, 2.0]]),
        np.array([["0", "1", "2"]]),
    ], ids=repr)
    def test_refused_and_named(self, triples):
        # once truncated to ints (1.5 read as 1, 0.9 as 0) or read from strings
        with pytest.raises(hg.HypergraphError, match=r"non-integer vertex in triple \("):
            hg.make(5, triples)

    def test_integer_dtypes_still_read(self):
        want = hg.make(5, [(0, 1, 2), (1, 3, 4)])
        rows = [[2, 1, 0], [4, 3, 1]]
        for dtype in (np.uint8, np.int16, np.uint32, np.int64, np.uint64):
            assert hg.make(5, np.array(rows, dtype=dtype)) == want
        assert hg.make(5, [(True, 0, 2), (1, 3, 4)]) == want  # bool is an int subclass
        with pytest.raises(hg.HypergraphError, match="out of range"):
            hg.make(5, np.array([[2**63, 1, 2]], dtype=np.uint64))


def loop_random_masks(nbits, gen, samples):
    """random_masks as it was written first, one sample and one bit at a time."""
    masks = []
    for density in (0.25, 0.5, 0.75):
        for _ in range(max(1, samples // 3)):
            bits = gen.random(nbits) < density
            masks.append(sum(1 << i for i in range(nbits) if bits[i]))
    return masks


@pytest.mark.parametrize("nbits, samples", [
    (60, 500), (40, 100), (64, 2000), (16, 300), (150, 500), (1, 5), (0, 3),
    (7 * 7, 50), (60 * 60, 10),  # the n*n-bit masks of the ee audit
])
def test_random_masks_match_loop(nbits, samples):
    for seed in (0, 5):
        got = hg.random_masks(nbits, hg.rng(seed), samples)
        assert got == loop_random_masks(nbits, hg.rng(seed), samples)
        assert all(type(m) is int for m in got)


class TestShadow:
    def test_k4_minus_covers_all_pairs(self):
        # oracle: union of pairs of each edge
        H = hg.clique_minus4()
        want = set()
        for e in H.edges:
            want.update(itertools.combinations(e, 2))
        assert H.shadow() == want == set(itertools.combinations(range(4), 2))

    def test_single_edge(self):
        H = hg.make(3, [(0, 1, 2)])
        assert H.shadow() == {(0, 1), (0, 2), (1, 2)}

    def test_cycle5_covers_all_pairs(self):
        # {i, i+1, i+2} covers distances 1 and 2, which is every pair mod 5
        assert hg.cycle5().shadow() == set(itertools.combinations(range(5), 2))

    def test_shadow_size_bound(self):
        for H in (hg.clique(5), hg.cycle5(), hg.fano(), hg.star(4)):
            assert len(H.shadow()) <= 3 * H.edge_count


class TestNamed:
    def test_clique4(self):
        H = hg.clique(4)
        assert (H.n, H.edge_count) == (4, 4)

    def test_star3_isomorphic_to_k4_minus(self):
        S3 = hg.star(3)
        assert hg.find_embedding(S3, hg.clique_minus4()) is not None
        assert hg.find_embedding(hg.clique_minus4(), S3) is not None

    def test_fano_pair_coverage(self):
        # every one of the 21 pairs covered exactly once
        F = hg.fano()
        assert (F.n, F.edge_count) == (7, 7)
        coverage = {p: 0 for p in itertools.combinations(range(7), 2)}
        for e in F.edges:
            for p in itertools.combinations(e, 2):
                coverage[p] += 1
        assert set(coverage.values()) == {1}

    def test_star_k_shape(self):
        S4 = hg.star(4)
        assert S4.n == 5
        assert S4.edge_count == 6
        assert all(4 in e for e in S4.edges)

    def test_named_parser(self):
        assert hg.named("k5") == hg.clique(5)
        assert hg.named("k4minus") == hg.clique_minus4()
        assert hg.named("star4") == hg.star(4)
        assert hg.named("fano") == hg.fano()
        assert hg.named("edge") == hg.make(3, [(0, 1, 2)])
        with pytest.raises(hg.HypergraphError):
            hg.named("mystery")

    def test_bad_params(self):
        with pytest.raises(hg.HypergraphError):
            hg.clique(2)
        with pytest.raises(hg.HypergraphError):
            hg.star(1)


def brute_force_embedding(F, H):
    """Oracle: try every injection."""
    for img in itertools.permutations(range(H.n), F.n):
        if all(H.has_edge(img[a], img[b], img[c]) for a, b, c in F.edges):
            return img
    return None


class TestFindEmbedding:
    def test_single_edge(self):
        F = hg.make(3, [(0, 1, 2)])
        H = hg.make(5, [(1, 3, 4)])
        emb = hg.find_embedding(F, H)
        assert emb is not None
        assert hg.check_embedding(F, H, emb)

    # one field of the embedding (0, 1, 2, 3) of an edge plus the isolated
    # vertex 3 into K5 changed; only the length, injectivity and range
    # checks see the change, since the edge still lands on an edge
    @pytest.mark.parametrize("mapping", [
        (0, 1, 2), (0, 1, 2, 3, 4), (0, 1, 2, 0), (0, 1, 2, 5), (0, 1, 2, -1),
    ], ids=["short", "long", "not injective", "past n", "negative"])
    def test_check_embedding_refuses_each_changed_field(self, mapping):
        F, H = hg.make(4, [(0, 1, 2)]), hg.clique(5)
        assert hg.check_embedding(F, H, hg.Embedding((0, 1, 2, 3)))
        assert not hg.check_embedding(F, H, hg.Embedding(mapping))

    def test_k4_not_in_k4_minus(self):
        assert hg.find_embedding(hg.clique(4), hg.clique_minus4()) is None

    def test_identity_always_embeds(self):
        # 500 disjoint edges take 1500 search levels, one per vertex
        matching = hg.make(1500, [(3 * i, 3 * i + 1, 3 * i + 2) for i in range(500)])
        for F in (hg.clique(5), hg.cycle5(), hg.fano(), hg.star(4), matching):
            emb = hg.find_embedding(F, F)
            assert emb is not None and hg.check_embedding(F, F, emb)

    def test_monotone_under_edge_addition(self):
        F = hg.cycle5()
        H = hg.make(7, [(i, (i + 1) % 5, (i + 2) % 5) for i in range(5)])
        assert hg.find_embedding(F, H) is not None
        bigger = hg.make(7, list(H.edges) + [(0, 5, 6), (1, 4, 6)])
        assert hg.find_embedding(F, bigger) is not None

    def test_agrees_with_brute_force(self):
        import numpy as np

        rng = np.random.default_rng(5)
        for _ in range(40):
            fn, hn = 4, 5
            fe = [t for t in itertools.combinations(range(fn), 3) if rng.random() < 0.5]
            he = [t for t in itertools.combinations(range(hn), 3) if rng.random() < 0.45]
            F, H = hg.make(fn, fe), hg.make(hn, he)
            got = hg.find_embedding(F, H)
            want = brute_force_embedding(F, H)
            assert (got is None) == (want is None)
            if got is not None:
                assert hg.check_embedding(F, H, got)


TWO_EDGES = hg.make(4, [(0, 1, 2), (1, 2, 3)])
TIGHT_PATH = hg.make(5, [(0, 1, 2), (2, 3, 4)])


@pytest.mark.parametrize("n, triples, dense", [
    (8, [t for t in itertools.combinations(range(8), 3) if sum(t) % 3], True),
    (7, list(itertools.combinations((0, 2, 3, 6), 3)) + [(1, 4, 5)], True),
    (6, [(0, 1, 2), (0, 1, 3), (0, 2, 3), (3, 4, 5)], True),
    (6, [(0, 1, 2), (0, 3, 4), (3, 4, 5)], True),
    (12, list(itertools.combinations((2, 5, 7, 11), 3)) + [(0, 1, 3)], False),
    (12, [(2, 5, 7), (2, 5, 11), (2, 7, 11), (0, 1, 3)], False),
    (12, [(0, 1, 2), (2, 3, 4), (4, 5, 6)], False),
])
def test_both_sides_of_the_pair_index_size_rule(n, triples, dense):
    """The dense table and np.unique give the same pair index, and the
    containment tests and the embedding search agree with the brute force."""
    assert (n * n <= hg._DENSE_PAIRS * 3 * len(triples)) == dense
    H = hg.make(n, triples)
    a, b, c = H.array.T
    keys, pair_id = np.unique(np.column_stack((b * n + c, a * n + c, a * n + b)), return_inverse=True)
    got_keys, got_id = hg._pair_index(n, H.array)
    assert got_keys.tolist() == keys.tolist() and got_id.tolist() == pair_id.reshape(-1, 3).tolist()
    assert hg.contains_clique4(H) == (brute_force_embedding(hg.clique(4), H) is not None)
    assert hg.contains_clique4_minus(H) == (brute_force_embedding(hg.clique_minus4(), H) is not None)
    for F in (hg.clique(4), hg.clique_minus4(), TWO_EDGES, TIGHT_PATH, hg.cycle5()):
        emb = hg.find_embedding(F, H)
        assert (emb is None) == (brute_force_embedding(F, H) is None)
        assert emb is None or hg.check_embedding(F, H, emb)


class TestEmbeddingPinned:
    """The search tries H's vertices in ascending order, so the first
    embedding it meets is fixed; these mappings were recorded from the
    literal try-every-vertex search."""

    @pytest.mark.parametrize("kind, n, seed, F, want", [
        ("tournament", 30, 1, hg.clique_minus4(), None),
        ("tournament", 30, 1, TWO_EDGES, (3, 0, 1, 5)),
        ("tournament", 30, 1, TIGHT_PATH, (1, 3, 0, 2, 8)),
        ("tournament", 30, 1, hg.cycle5(), (0, 1, 3, 4, 8)),
        ("tournament", 24, 2, hg.clique_minus4(), None),
        ("tournament", 24, 2, TIGHT_PATH, (1, 3, 0, 2, 5)),
        ("tournament", 24, 2, hg.cycle5(), (0, 1, 3, 4, 14)),
        ("roedl", 24, 3, hg.clique_minus4(), (1, 0, 3, 9)),
        ("roedl", 24, 3, TWO_EDGES, (3, 0, 1, 4)),
        ("roedl", 24, 3, hg.cycle5(), (0, 1, 3, 2, 9)),
        ("roedl", 30, 4, hg.clique_minus4(), (1, 0, 4, 12)),
        ("roedl", 30, 4, TIGHT_PATH, (1, 4, 0, 2, 6)),
        ("roedl", 30, 4, hg.cycle5(), (0, 1, 4, 2, 6)),
        ("roedl", 30, 4, hg.clique(4), None),
    ])
    def test_mapping_pinned(self, kind, n, seed, F, want):
        H = getattr(cn, f"{kind}_hypergraph")(n, seed)
        emb = hg.find_embedding(F, H)
        assert (None if emb is None else emb.mapping) == want
        if emb is not None:
            assert hg.check_embedding(F, H, emb)


class TestFastContainment:
    def test_matches_literal_4_subset_scan(self):
        import numpy as np

        rng = np.random.default_rng(11)
        for trial in range(30):
            n = 8
            edges = [t for t in itertools.combinations(range(n), 3) if rng.random() < 0.3]
            H = hg.make(n, edges)
            has_k4 = has_k4m = False
            for q in itertools.combinations(range(n), 4):
                cnt = sum(H.has_edge(*tr) for tr in itertools.combinations(q, 3))
                if cnt == 4:
                    has_k4 = True
                if cnt >= 3:
                    has_k4m = True
            assert hg.contains_clique4(H) == has_k4
            assert hg.contains_clique4_minus(H) == has_k4m

    # chunks of 1, 4 and 7 edges: each edge gathers three one-word rows (n <= 64)
    @pytest.mark.parametrize("edges", [1, 4, 7])
    def test_chunk_boundaries(self, monkeypatch, edges):
        monkeypatch.setattr(hg, "_CHUNK_BYTES", 24 * edges)
        rng = np.random.default_rng(12)
        for n, p in ((9, 0.2), (9, 0.35), (12, 0.1), (30, 0.05)):
            triples = [t for t in itertools.combinations(range(n), 3) if rng.random() < p]
            H = hg.make(n, triples)
            assert (hg.contains_clique4(H), hg.contains_clique4_minus(H)) == literal_4_subsets(n, triples)


@PROPERTY
@given(triple_lists(9))
def test_containment_matches_literal_4_subsets(case):
    n, triples = case
    H = hg.make(n, triples)
    assert (hg.contains_clique4(H), hg.contains_clique4_minus(H)) == literal_4_subsets(n, triples)


@PROPERTY
@given(triple_lists(5), triple_lists(6))
def test_find_embedding_matches_injective_scan(f_case, h_case):
    (fn, f_triples), (hn, h_triples) = f_case, h_case
    emb = hg.find_embedding(hg.make(fn, f_triples), hg.make(hn, h_triples))
    maps = injective_maps(fn, f_triples, hn, h_triples)
    assert (emb is None) == (not maps)
    assert emb is None or emb.mapping in maps


class TestLazyViews:
    """The edge array is the stored form; every view is built from it on
    first use and must equal the literal construction whatever ran before."""

    def test_views_after_array_only_queries(self):
        rng = np.random.default_rng(8)
        for n in (0, 3, 4, 9, 25, 70):
            triples = [tuple(rng.permutation(n)[:3].tolist()) for _ in range(3 * n)]
            triples += triples[: n // 2]
            H = hg.make(n, triples)
            hg.contains_clique4(H)
            hg.contains_clique4_minus(H)
            twin = hg.make(n, np.array(triples, dtype=np.int64).reshape(-1, 3))
            assert H == twin and hash(H) == hash(twin)
            text = uio.hypergraph_from_text(uio.hypergraph_to_text(H))
            obj = uio.hypergraph_from_json(json.loads(json.dumps(uio.hypergraph_to_json(H))))
            assert H._edges is None and H._adj is None  # nothing above needed a view
            for G in (H, twin, text, obj):
                assert_matches_reference(G, n, triples)

    def test_writes_match_the_edge_view(self):
        H = cn.tournament_hypergraph(20, 3)
        text, obj = uio.hypergraph_to_text(H), uio.hypergraph_to_json(H)
        assert H._edges is None
        assert text == f"{H.n} {H.edge_count}\n" + "".join(f"{a} {b} {c}\n" for a, b, c in H.edges)
        assert obj == {"n": 20, "edges": [list(e) for e in H.edges]}
        assert (uio.hypergraph_to_text(H), uio.hypergraph_to_json(H)) == (text, obj)

    def test_array_is_read_only(self):
        given_rows = np.array([[2, 1, 0], [0, 1, 3], [0, 1, 2]])
        canonical = np.array([[0, 1, 2], [0, 1, 3]], dtype=np.int64)
        for rows in (given_rows, canonical):
            H = hg.make(4, rows)
            assert H.array.dtype == np.int64 and H.array.tolist() == [[0, 1, 2], [0, 1, 3]]
            with pytest.raises(ValueError):
                H.array[0, 0] = 3
            with pytest.raises(AttributeError):
                H.array = canonical
            assert rows.flags.writeable  # the caller's array is not frozen
        assert given_rows.tolist() == [[2, 1, 0], [0, 1, 3], [0, 1, 2]]

    def test_equal_hypergraphs_hash_equal(self):
        triples = [(0, 1, 2), (3, 1, 0), (2, 4, 3), (0, 2, 1)]
        built = [
            hg.make(5, triples),
            hg.make(5, np.array(triples)),
            hg.make(5, np.array(triples, dtype=np.int32)),
            hg.make(5, reversed(triples)),
            hg.make(5, [(0, 1, 2), (0, 1, 3), (2, 3, 4)]),
        ]
        assert all(G == built[0] and hash(G) == hash(built[0]) for G in built)
        assert hg.make(6, triples) != built[0]
        assert hg.make(5, triples[:2]) != built[0]
        assert len(set(built)) == 1


@pytest.mark.parametrize("g_edge", [(1, 1), (0, 3), (-1, 0)], ids=["loop", "past g_n", "negative"])
def test_refusals(g_edge):
    with pytest.raises(hg.HypergraphError) as exc:
        hg.cone(3, [g_edge])
    assert str(exc.value) == f"bad graph edge {g_edge!r} for 3 vertices"
