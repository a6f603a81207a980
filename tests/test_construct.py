"""Seeded generators: reproducibility, statistical sanity, agreement with the
independent tournament oracle, and lift correctness by replay."""

import itertools
from fractions import Fraction
from math import comb

import numpy as np
import pytest

from unidense import construct as cn
from unidense import hypergraph as hg
from unidense import palette as pal
from unidense import reduced as rd


def coloring(n, base, colors):
    """The pair colouring of 0..n-1 that gives the pairs, in lexicographic
    order, the named colours."""
    return cn.PairColoring(n, base, np.array([base.index(c) for c in colors], dtype=np.int64))


def color_share(phi, color):
    return Fraction(int((phi.codes == phi.base.index(color)).sum()), len(phi.codes))


class TestRandomPairColoring:
    def test_n1_empty(self):
        phi = cn.random_pair_coloring(1, pal.WeightedColorSet.uniform(("r", "g")), 0)
        assert len(phi.codes) == 0

    def test_reproducible(self):
        base = pal.WeightedColorSet.uniform(("r", "g", "b"))
        a = cn.random_pair_coloring(40, base, 123)
        b = cn.random_pair_coloring(40, base, 123)
        assert (a.codes == b.codes).all()
        c = cn.random_pair_coloring(40, base, 124)
        assert (a.codes != c.codes).any()

    def test_uniform_fraction_chernoff(self):
        # deviation tolerance 0.01 has failure probability ~2e-43 at this size
        base = pal.WeightedColorSet.uniform(("r", "g"))
        phi = cn.random_pair_coloring(1000, base, 7)
        assert abs(color_share(phi, "r") - Fraction(1, 2)) < Fraction(1, 100)

    def test_weighted_fraction(self):
        base = pal.WeightedColorSet.weighted(("r", "g"), (Fraction(2, 3), Fraction(1, 3)))
        phi = cn.random_pair_coloring(1000, base, 7)
        assert abs(color_share(phi, "r") - Fraction(2, 3)) < Fraction(1, 100)

    def test_codes_must_cover_every_pair(self):
        base = pal.WeightedColorSet.uniform(("r", "g"))
        with pytest.raises(pal.PaletteError, match="expected 3 pair colours, got 1"):
            coloring(3, base, ["r"])


class TestBuildH:
    def test_full_palette_gives_complete(self):
        base = pal.WeightedColorSet.uniform(("r", "g"))
        P = pal.Palette(base, frozenset(itertools.product(("r", "g"), repeat=3)))
        phi = cn.random_pair_coloring(6, base, 0)
        H = cn.build_H(phi, P)
        assert H.edge_count == 20  # C(6,3)

    def test_empty_palette_gives_empty(self):
        base = pal.WeightedColorSet.uniform(("r", "g"))
        P = pal.Palette(base, frozenset())
        H = cn.build_H(cn.random_pair_coloring(6, base, 0), P)
        assert H.edge_count == 0

    def test_all_red_misses_rrg_pattern(self):
        base = pal.WeightedColorSet.uniform(("r", "g"))
        P = pal.symmetric_closure([("r", "r", "g")], base)
        phi = coloring(5, base, ["r"] * 10)
        assert cn.build_H(phi, P).edge_count == 0

    def test_coordinate_convention(self):
        # explicit 3-vertex colouring: pattern slot order is (xy, xz, yz)
        base = pal.WeightedColorSet.uniform(("a", "b", "c"))
        P = pal.Palette(base, frozenset({("a", "b", "c")}))
        phi = coloring(3, base, ["a", "b", "c"])
        assert cn.build_H(phi, P).edges == ((0, 1, 2),)
        phi2 = coloring(3, base, ["b", "a", "c"])
        assert cn.build_H(phi2, P).edge_count == 0

    def test_color_mismatch_rejected(self):
        base = pal.WeightedColorSet.uniform(("x", "y"))
        phi = cn.random_pair_coloring(4, base, 0)
        with pytest.raises(pal.PaletteError):
            cn.build_H(phi, pal.builtin("tournament"))

    def test_order_preserving_relabel_commutes(self):
        # removing the last vertex = building on the induced colouring
        base = pal.WeightedColorSet.uniform(("r", "g"))
        P = pal.builtin("roedl")
        phi = cn.random_pair_coloring(8, P.base, 5)
        H = cn.build_H(phi, P)
        sub = coloring(7, P.base, [phi.color(x, y) for x, y in itertools.combinations(range(7), 2)])
        Hsub = cn.build_H(sub, P)
        assert set(Hsub.edges) == {e for e in H.edges if max(e) < 7}


def build_H_by_enumeration(phi, P):
    """The enumeration build_H made before its pattern cube: all C(n, 3)
    triples from itertools.combinations, kept by their three pair codes."""
    n = phi.n
    K = len(P.base.colors)
    translate = np.array([P.base.index(c) for c in phi.base.colors], dtype=np.int64)
    codes = translate[phi.codes]
    allowed = np.zeros(K * K * K, dtype=bool)
    for a, b, c in P.pattern_codes():
        allowed[(a * K + b) * K + c] = True
    flat = itertools.chain.from_iterable(itertools.combinations(range(n), 3))
    triples = np.fromiter(flat, dtype=np.int64, count=3 * comb(n, 3)).reshape(-1, 3)
    x, y, z = triples.T
    c1 = codes[x * (2 * n - x - 1) // 2 + (y - x - 1)]
    c2 = codes[x * (2 * n - x - 1) // 2 + (z - x - 1)]
    c3 = codes[y * (2 * n - y - 1) // 2 + (z - y - 1)]
    return hg.Hypergraph3(n, triples[allowed[(c1 * K + c2) * K + c3]])


class TestBuildHEnumeration:
    @pytest.mark.parametrize("name", ["tournament", "roedl", "rainbow", "ee5"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 9, 31])
    def test_equals_enumeration(self, name, n):
        P = pal.builtin(name)
        for seed in range(3):
            phi = cn.random_pair_coloring(n, P.base, seed)
            assert cn.build_H(phi, P).edges == build_H_by_enumeration(phi, P).edges

    def test_colouring_in_another_colour_order(self):
        P = pal.builtin("ee5")
        base = pal.WeightedColorSet.uniform(tuple(reversed(P.base.colors)))
        phi = cn.random_pair_coloring(14, base, 2)
        assert cn.build_H(phi, P).edges == build_H_by_enumeration(phi, P).edges

    def test_slab_boundaries(self, monkeypatch):
        P = pal.builtin("roedl")
        phi = cn.random_pair_coloring(23, P.base, 6)
        want = build_H_by_enumeration(phi, P)
        for cells in (1, 50, 400, 10**6):  # one byte per lookup
            monkeypatch.setattr(hg, "_CHUNK_BYTES", cells)
            assert cn.build_H(phi, P).edges == want.edges


class TestTournament:
    def test_cyclic_triangle(self):
        base = pal.builtin("tournament").base
        phi = coloring(3, base, ["fwd", "back", "fwd"])
        H = cn.build_H(phi, pal.builtin("tournament"))
        assert H.edges == ((0, 1, 2),)

    def test_transitive_triangle(self):
        base = pal.builtin("tournament").base
        phi = coloring(3, base, ["fwd", "fwd", "fwd"])
        assert cn.build_H(phi, pal.builtin("tournament")).edge_count == 0

    def test_agrees_with_direct_oracle(self):
        for seed in range(20):
            n = 30 if seed % 2 else 100
            assert cn.tournament_hypergraph(n, seed) == cn.tournament_hypergraph_direct(n, seed)

    def test_density_and_freeness(self):
        H = cn.tournament_hypergraph(50, 3)
        assert abs(float(H.density()) - 0.25) < 0.05
        assert not hg.contains_clique4_minus(H)

    def test_embedding_search_exhausts_at_n30(self):
        for seed in (0, 1):
            H = cn.tournament_hypergraph(30, seed)
            assert hg.find_embedding(hg.clique_minus4(), H) is None


class TestRoedl:
    def test_disagreeing_colors_give_edge(self):
        P = pal.builtin("roedl")
        phi = coloring(3, P.base, ["red", "green", "red"])
        assert cn.build_H(phi, P).edges == ((0, 1, 2),)
        assert [phi.code(y, x) for x, y in ((0, 1), (0, 2), (1, 2))] == [0, 1, 0]

    def test_agreeing_colors_give_nonedge(self):
        P = pal.builtin("roedl")
        phi = coloring(3, P.base, ["red", "red", "green"])
        assert cn.build_H(phi, P).edge_count == 0

    def test_density_and_tetrahedron_freeness(self):
        H = cn.roedl_hypergraph(50, 3)
        assert abs(float(H.density()) - 0.5) < 0.05
        assert not hg.contains_clique4(H)


class TestLift:
    def test_complete_constituents_give_all_crossing(self):
        m, h = 4, 3
        full = pal.Palette(
            pal.WeightedColorSet.uniform(("a", "b")),
            frozenset(itertools.product(("a", "b"), repeat=3)),
        )
        A = rd.from_palette(full, m)
        lift = cn.lift_reduced(A, h, seed=0)
        blocks = [v // h for v in range(m * h)]
        want = sum(
            1
            for t in itertools.combinations(range(m * h), 3)
            if len({blocks[v] for v in t}) == 3
        )
        assert lift.hypergraph.edge_count == want

    def test_empty_constituents_give_empty(self):
        A = rd.ReducedHypergraph(
            (0, 1, 2),
            {(0, 1): 2, (0, 2): 2, (1, 2): 2},
            {(0, 1, 2): frozenset()},
        )
        assert cn.lift_reduced(A, 5, seed=0).hypergraph.edge_count == 0

    def test_no_non_crossing_edges_and_replay(self):
        A = rd.random_dense_reduced(4, 3, Fraction(1, 3), seed=2)
        lift = cn.lift_reduced(A, 6, seed=9)
        H, pc = lift.hypergraph, lift.coloring
        for x, y, z in H.edges:
            bi, bj, bk = x // 6, y // 6, z // 6
            assert len({bi, bj, bk}) == 3
            (cij, a) = pc.color(x, y)
            (cik, b) = pc.color(x, z)
            (cjk, c) = pc.color(y, z)
            assert (a, b, c) in A.constituents[(bi, bj, bk)]

    def test_every_constituent_edge_realized_somewhere(self):
        # replay in the other direction on a fully sampled instance
        A = rd.from_palette(pal.builtin("tournament"), 3)
        lift = cn.lift_reduced(A, 8, seed=4)
        H, pc = lift.hypergraph, lift.coloring
        for x in range(8):
            for y in range(8, 16):
                for z in range(16, 24):
                    trip = (pc.color(x, y)[1], pc.color(x, z)[1], pc.color(y, z)[1])
                    assert (trip in A.constituents[(0, 1, 2)]) == H.has_edge(x, y, z)

    @pytest.mark.parametrize("indices", [(0, 1, 2, 3), (0, 2, 5)])
    def test_items_are_the_crossing_pairs_of_codes(self, indices):
        # a literal loop over all pairs, against indices that are dense and
        # indices that are not
        h, gen = 3, np.random.default_rng(len(indices))
        sizes = {pair: 2 + k for k, pair in enumerate(itertools.combinations(indices, 2))}
        codes = {pair: gen.integers(0, size, (h, h)) for pair, size in sizes.items()}
        pc = cn.PartitionedColoring(h, sizes, codes)
        want = []
        for x, y in itertools.combinations(range(h * len(indices)), 2):
            i, j = indices[x // h], indices[y // h]
            if i != j:
                want.append(((x, y), ((i, j), int(codes[(i, j)][x % h, y % h]))))
        got = list(pc.items())
        assert got == want and all(type(local) is int for _, (_, local) in got)
        assert got == [(pair, pc.color(*pair)) for pair, _ in got]
        crossing = dict(got)  # a pair read either way; None within a block
        for x, y in itertools.combinations(range(pc.n), 2):
            assert pc.color(y, x) == crossing.get((x, y))

    def test_tournament_lift_k4_minus_free(self):
        A = rd.from_palette(pal.builtin("tournament"), 6)
        lift = cn.lift_reduced(A, 20, seed=1)
        assert hg.find_embedding(hg.clique_minus4(), lift.hypergraph) is None


    def test_class_graph_rows(self):
        # bit y of row x is set exactly when the pair (x, y) takes the local
        # vertex; 11 columns make each row span two bytes
        A = rd.from_palette(pal.builtin("ee6"), 3)
        pc = cn.random_partitioned_coloring(A, 11, seed=5)
        for pair, size in A.class_sizes.items():
            codes = pc.codes[pair]
            for local in range(size):
                want = tuple(
                    sum(1 << y for y in range(11) if codes[x, y] == local) for x in range(11)
                )
                assert pc.class_graph(*pair, local).rows == want

class TestSoundnessVsRepresentability:
    def test_build_h_contains_f_only_if_representable(self):
        # sampled desk-scale check of the finite decision criterion
        targets = (hg.clique(4), hg.clique_minus4())
        names = ("tournament", "roedl", "ramsey6", "ee5", "ee6", "ee11", "rainbow")
        for pidx, name in enumerate(names):
            P = pal.builtin(name)
            verdict = {
                F: pal.representable(F, P).status == "certificate" for F in targets
            }
            for seed in range(12):
                H = cn.build_H(cn.random_pair_coloring(7, P.base, (pidx, seed)), P)
                for F in targets:
                    if hg.find_embedding(F, H) is not None:
                        assert verdict[F], (name, seed)


@pytest.mark.parametrize("make, message", [
    (lambda: cn.PairColoring(3, pal.WeightedColorSet.uniform("ab"), np.array([0, 1, 2])),
     "colour code out of range"),
    (lambda: cn.random_pair_coloring(0, pal.WeightedColorSet.uniform("ab"), 0), "need n >= 1, got 0"),
    (lambda: cn.tournament_hypergraph(2, 0), "need n >= 3, got 2"),
    (lambda: cn.roedl_hypergraph(2, 0), "need n >= 3, got 2"),
    (lambda: cn.lift_reduced(rd.from_palette(pal.builtin("tournament"), 4), 0, 0),
     "block size must be positive, got 0"),
], ids=["colour code", "no vertex", "tournament", "roedl", "lift"])
def test_refusals(make, message):
    with pytest.raises(pal.PaletteError) as exc:
        make()
    assert str(exc.value) == message
