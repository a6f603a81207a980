"""Palette densities against hand-counted oracles, closure properties, and the
representability search against naive full enumeration."""

import hashlib
import itertools
import json
import sys
from fractions import Fraction

import numpy as np
import pytest

from unidense import hypergraph as hg
from unidense import io as uio
from unidense import palette as pal

Q = Fraction


def _roedl(digest, d, target):
    """The pinned values of a roedl(r), r >= 4, its JSON as a digest: d is its
    vvv and ev density, claimed for both against target."""
    return digest, (("vvv", d, target), ("ev", d, target)), False, (d, d, Q(0))


_ROEDL2 = (
    {"colors": ["red", "green"], "name": "roedl", "patterns": [
        ["green", "red", "green"], ["green", "red", "red"],
        ["red", "green", "green"], ["red", "green", "red"]]},
    (("vvv", Q(1, 2), "k4"), ("ev", Q(1, 2), "k4")), False, (Q(1, 2), Q(1, 2), Q(0)),
)

# spec -> (palette JSON or its digest, claims, symmetric, (vvv, ev, ee) densities)
PINNED = {
    "rainbow": (
        {"colors": ["red", "blue", "green"], "name": "rainbow",
         "patterns": [["red", "blue", "green"]]},
        (("vvv", Q(1, 27), "zero-density criterion"),), False, (Q(1, 27), Q(0), Q(0)),
    ),
    "tournament": (
        {"colors": ["fwd", "back"], "name": "tournament",
         "patterns": [["back", "fwd", "back"], ["fwd", "back", "fwd"]]},
        (("vvv", Q(1, 4), "k4minus"), ("ev", Q(1, 4), "k4minus")), False,
        (Q(1, 4), Q(1, 4), Q(0)),
    ),
    "star4": (
        {"colors": ["1", "2", "3"], "name": "star4", "patterns": [
            ["1", "2", "1"], ["1", "2", "3"], ["1", "3", "1"], ["2", "1", "2"],
            ["2", "3", "1"], ["2", "3", "2"], ["3", "1", "2"], ["3", "1", "3"],
            ["3", "2", "3"]]},
        (("vvv", Q(1, 3), "star4"), ("ev", Q(1, 3), "star4")), False,
        (Q(1, 3), Q(1, 3), Q(0)),
    ),
    "ramsey6": (
        {"colors": ["red", "green"], "name": "ramsey6", "patterns": [
            ["green", "green", "red"], ["green", "red", "green"], ["green", "red", "red"],
            ["red", "green", "green"], ["red", "green", "red"], ["red", "red", "green"]]},
        (("vvv", Q(3, 4), "k6"),), True, (Q(3, 4), Q(3, 4), Q(1, 2)),
    ),
    "cycle5": (
        {"colors": ["red", "green"], "weights": ["2/3", "1/3"], "name": "cycle5",
         "patterns": [["red", "red", "green"]]},
        (("vvv", Q(4, 27), "cycle5"),), False, (Q(4, 27), Q(0), Q(0)),
    ),
    "ee5": (
        {"colors": ["1", "2", "3"], "name": "ee5", "patterns": [
            ["1", "1", "2"], ["1", "2", "1"], ["1", "3", "3"], ["2", "1", "1"],
            ["2", "2", "3"], ["2", "3", "2"], ["3", "1", "3"], ["3", "2", "2"],
            ["3", "3", "1"]]},
        (("ee", Q(1, 3), "k5"),), True, (Q(1, 3), Q(1, 3), Q(1, 3)),
    ),
    "ee6": (
        {"colors": ["1", "2"], "name": "ee6", "patterns": [
            ["1", "1", "2"], ["1", "2", "1"], ["1", "2", "2"], ["2", "1", "1"],
            ["2", "1", "2"], ["2", "2", "1"]]},
        (("ee", Q(1, 2), "k6"),), True, (Q(3, 4), Q(3, 4), Q(1, 2)),
    ),
    "ee11": (
        {"colors": ["1", "2", "3"], "name": "ee11", "patterns": [
            ["1", "1", "2"], ["1", "1", "3"], ["1", "2", "1"], ["1", "2", "2"],
            ["1", "3", "1"], ["1", "3", "3"], ["2", "1", "1"], ["2", "1", "2"],
            ["2", "2", "1"], ["2", "2", "3"], ["2", "3", "2"], ["2", "3", "3"],
            ["3", "1", "1"], ["3", "1", "3"], ["3", "2", "2"], ["3", "2", "3"],
            ["3", "3", "1"], ["3", "3", "2"]]},
        (("ee", Q(2, 3), "k11"),), True, (Q(2, 3), Q(2, 3), Q(2, 3)),
    ),
    "roedl": _ROEDL2,
    "roedl(2)": _ROEDL2,
    "roedl(3)": (
        {"colors": ["c1", "c2", "c3"], "name": "roedl(3)", "patterns": [
            ["c1", "c2", "c1"], ["c1", "c2", "c2"], ["c1", "c2", "c3"], ["c1", "c3", "c1"],
            ["c1", "c3", "c2"], ["c1", "c3", "c3"], ["c2", "c1", "c1"], ["c2", "c1", "c2"],
            ["c2", "c1", "c3"], ["c2", "c3", "c1"], ["c2", "c3", "c2"], ["c2", "c3", "c3"],
            ["c3", "c1", "c1"], ["c3", "c1", "c2"], ["c3", "c1", "c3"], ["c3", "c2", "c1"],
            ["c3", "c2", "c2"], ["c3", "c2", "c3"]]},
        (("vvv", Q(2, 3), "k5"), ("ev", Q(2, 3), "k5")), False, (Q(2, 3), Q(2, 3), Q(0)),
    ),
    "roedl(4)": _roedl(
        "55bb003d531b7b672b423a505b54c0e65c7321b22003e4ca5537cc35da56ec43", Q(3, 4), "k6",
    ),
    "roedl(5)": _roedl(
        "d37519cb2cdd188b5714ee78a7047a3fb0e6e8797ea60a7cb82c86900e305ea2", Q(4, 5), "k7",
    ),
    "roedl(6)": _roedl(
        "0f1273040445c96914c401a98d7f76918cb0548b87873a2da0f663a3dc001e06", Q(5, 6), "k8",
    ),
    "roedl(7)": _roedl(
        "618c9d7e973564e3c869afd1ce3bd62ea23a9f01772b30f94355655eee78fcdb", Q(6, 7), "k9",
    ),
    "roedl(8)": _roedl(
        "e372c78070526778554d4e579dbc14341b170b617f58cb8bb1dd8640004b9dd8", Q(7, 8), "k10",
    ),
}


class TestWeightedColorSet:
    def test_uniform_default(self):
        ws = pal.WeightedColorSet.uniform(("a", "b", "c"))
        assert ws.weights[ws.index("b")] == Fraction(1, 3)

    def test_weights_must_sum_to_one(self):
        with pytest.raises(pal.PaletteError):
            pal.WeightedColorSet(("a", "b"), (Fraction(1, 2), Fraction(1, 3)))

    def test_weight_range(self):
        with pytest.raises(pal.PaletteError):
            pal.WeightedColorSet(("a", "b"), (Fraction(3, 2), Fraction(-1, 2)))


def naive_density_ev(P):
    """Oracle: direct minimum over the three table rows, uniform weights."""
    K = len(P.base.colors)
    best = Fraction(1)
    for pos in range(3):
        for c in P.base.colors:
            cnt = sum(1 for p in P.patterns if p[pos] == c)
            best = min(best, Fraction(cnt, K * K))
    return best


def naive_density_ee(P):
    K = len(P.base.colors)
    best = Fraction(1)
    for rest in range(3):
        fixed = [o for o in range(3) if o != rest]
        for c1 in P.base.colors:
            for c2 in P.base.colors:
                cnt = sum(
                    1 for p in P.patterns if p[fixed[0]] == c1 and p[fixed[1]] == c2
                )
                best = min(best, Fraction(cnt, K))
    return best


class TestDensities:
    def test_tournament(self):
        P = pal.builtin("tournament")
        assert P.density("vvv") == Fraction(1, 4)
        assert P.density("ev") == Fraction(1, 4) == naive_density_ev(P)
        assert P.density("ee") == 0 == naive_density_ee(P)

    def test_empty_palette(self):
        P = pal.Palette(pal.WeightedColorSet.uniform(("a", "b")), frozenset())
        assert P.density("vvv") == 0

    def test_full_palette(self):
        base = pal.WeightedColorSet.uniform(("a", "b"))
        P = pal.Palette(base, frozenset(itertools.product(("a", "b"), repeat=3)))
        assert P.density("vvv") == 1
        assert P.density("ev") == 1
        assert P.density("ee") == 1

    def test_weighted_cycle5(self):
        P = pal.builtin("cycle5")
        assert P.density("vvv") == Fraction(4, 27)

    def test_roedl_general(self):
        for r in (2, 3, 4):
            P = pal.builtin(f"roedl({r})")
            assert P.density("vvv") == Fraction(r - 1, r)
            assert P.density("ev") == Fraction(r - 1, r) == naive_density_ev(P)

    def test_ee_family(self):
        for name, want in (("ee5", Fraction(1, 3)), ("ee6", Fraction(1, 2)), ("ee11", Fraction(2, 3))):
            P = pal.builtin(name)
            assert P.density("ee") == want == naive_density_ee(P)

    def test_uniform_weights_agree_with_counting(self):
        # weighted formulas must reduce to counting when weights are uniform
        rng = np.random.default_rng(3)
        colors = ("x", "y", "z")
        base = pal.WeightedColorSet.uniform(colors)
        for _ in range(25):
            pats = frozenset(
                p for p in itertools.product(colors, repeat=3) if rng.random() < 0.4
            )
            P = pal.Palette(base, pats)
            K = len(colors)
            assert P.density("vvv") == Fraction(len(pats), K**3)
            assert P.density("ev") == naive_density_ev(P)
            assert P.density("ee") == naive_density_ee(P)

    def test_density_chain(self):
        rng = np.random.default_rng(9)
        colors = ("1", "2", "3")
        for trial in range(30):
            pats = frozenset(
                p for p in itertools.product(colors, repeat=3) if rng.random() < 0.5
            )
            if trial % 3 == 0:
                base = pal.WeightedColorSet.weighted(
                    colors, (Fraction(1, 2), Fraction(1, 3), Fraction(1, 6))
                )
            else:
                base = pal.WeightedColorSet.uniform(colors)
            P = pal.Palette(base, pats)
            assert P.density("ee") <= P.density("ev") <= P.density("vvv")

    def test_weighted_palettes_agree_with_counting_on_their_shades(self):
        # 250 seeded non-uniform palettes of 2-4 colours whose positive
        # weights have a common denominator of at most 8; expand_weights splits
        # each colour into equal shades, and the counting oracles read the
        # uniform result
        rng = np.random.default_rng(11)
        checked = 0
        while checked < 250:
            K = int(rng.integers(2, 5))
            L = int(rng.integers(K, 9))
            cuts = sorted(rng.choice(np.arange(1, L), K - 1, replace=False).tolist())
            parts = np.diff([0, *cuts, L]).tolist()
            colors = "abcd"[:K]
            base = pal.WeightedColorSet.weighted(colors, [Fraction(x, L) for x in parts])
            if base.is_uniform:
                continue
            q = rng.random()
            pats = frozenset(p for p in itertools.product(colors, repeat=3) if rng.random() < q)
            P = pal.Palette(base, pats)
            U = P.expand_weights()
            assert P.density("vvv") == Fraction(len(U.patterns), len(U.base.colors) ** 3)
            assert P.density("ev") == naive_density_ev(U)
            assert P.density("ee") == naive_density_ee(U)
            checked += 1

    def test_zero_weight_colours_leave_the_densities(self):
        # 300 seeded palettes of 1-3 colours of positive weight, as above, plus
        # one or two colours of weight 0 that the patterns may use; a witness
        # never fixes a colour of weight 0, and expand_weights drops them
        rng = np.random.default_rng(12)
        for _ in range(300):
            K, Z = int(rng.integers(1, 4)), int(rng.integers(1, 3))
            L = int(rng.integers(K, 9))
            cuts = sorted(rng.choice(np.arange(1, L), K - 1, replace=False).tolist())
            parts = rng.permutation(np.diff([0, *cuts, L]).tolist() + [0] * Z).tolist()
            colors = "abcde"[: K + Z]
            base = pal.WeightedColorSet.weighted(colors, [Fraction(x, L) for x in parts])
            q = rng.random()
            pats = frozenset(p for p in itertools.product(colors, repeat=3) if rng.random() < q)
            P = pal.Palette(base, pats)
            U = P.expand_weights()
            assert P.density("vvv") == Fraction(len(U.patterns), len(U.base.colors) ** 3)
            assert P.density("ev") == naive_density_ev(U)
            assert P.density("ee") == naive_density_ee(U)

    def test_unknown_notion_refused(self):
        with pytest.raises(pal.PaletteError, match="unknown density notion 'xx'"):
            pal.builtin("tournament").density("xx")

    def test_expand_weights_preserves_densities(self):
        P = pal.builtin("cycle5")
        U = P.expand_weights()
        assert U.base.is_uniform
        assert len(U.base.colors) == 3
        assert U.density("vvv") == P.density("vvv")
        assert U.density("ev") == P.density("ev")
        assert U.density("ee") == P.density("ee")
        E = pal.builtin("ee5")
        assert E.expand_weights() is E


class TestSymmetricClosure:
    def test_repeat_pattern_orbit(self):
        base = pal.WeightedColorSet.uniform(("1", "2"))
        P = pal.symmetric_closure([("1", "1", "2")], base)
        assert P.patterns == {("1", "1", "2"), ("1", "2", "1"), ("2", "1", "1")}

    def test_rainbow_orbit(self):
        base = pal.WeightedColorSet.uniform(("1", "2", "3"))
        P = pal.symmetric_closure([("1", "2", "3")], base)
        assert len(P.patterns) == 6

    def test_ee5_has_nine_patterns(self):
        assert len(pal.builtin("ee5").patterns) == 9

    def test_idempotent_and_monotone(self):
        base = pal.WeightedColorSet.uniform(("1", "2", "3"))
        gens = [("1", "1", "2"), ("2", "3", "1")]
        P1 = pal.symmetric_closure(gens, base)
        P2 = pal.symmetric_closure(P1.patterns, base)
        assert P1.patterns == P2.patterns
        bigger = pal.symmetric_closure(gens + [("3", "3", "3")], base)
        assert P1.patterns <= bigger.patterns

    def test_unknown_color_rejected(self):
        base = pal.WeightedColorSet.uniform(("1", "2"))
        with pytest.raises(pal.PaletteError):
            pal.symmetric_closure([("1", "3", "2")], base)


class TestBuiltins:
    def test_claimed_vvv_values(self):
        expected = {
            "rainbow": Fraction(1, 27),
            "tournament": Fraction(1, 4),
            "star4": Fraction(1, 3),
            "roedl": Fraction(1, 2),
            "ramsey6": Fraction(3, 4),
            "cycle5": Fraction(4, 27),
        }
        for name, want in expected.items():
            assert pal.builtin(name).density("vvv") == want

    def test_roedl_pattern_count(self):
        assert len(pal.builtin("roedl(2)").patterns) == 4

    def test_star4_pattern_count(self):
        assert len(pal.builtin("star4").patterns) == 9

    def test_unknown_name(self):
        with pytest.raises(pal.PaletteError):
            pal.builtin("nope")
        with pytest.raises(pal.PaletteError):
            pal.builtin("roedl(1)")

    def test_claim_metadata_consistent(self):
        names = ("rainbow", "tournament", "star4", "roedl(2)", "roedl(3)",
                 "ramsey6", "cycle5", "ee5", "ee6", "ee11")
        for name in names:
            P = pal.builtin(name)
            assert P.claims
            for star, dens, _target in P.claims:
                assert P.density(star) == dens

    @pytest.mark.parametrize("spec", list(PINNED))
    def test_catalogue_pinned(self, spec):
        """Every builtin spec against literal values: its palette JSON (for
        roedl(4) to roedl(8), the SHA-256 of the JSON dumped with sorted
        keys), claims, symmetry flag and its vvv, ev and ee densities."""
        pinned, claims, symmetric, densities = PINNED[spec]
        P = pal.builtin(spec)
        obj = uio.palette_to_json(P)
        if isinstance(pinned, str):
            obj = hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()
        assert obj == pinned
        assert P.claims == claims
        assert P.symmetric is symmetric
        assert tuple(P.density(star) for star in ("vvv", "ev", "ee")) == densities


def naive_representable(F, P):
    """Oracle: exhaust every (ordering, colouring) pair outright."""
    pairs = sorted(F.shadow())
    colors = P.base.colors
    for sigma in itertools.permutations(range(F.n)):
        rank = {v: r for r, v in enumerate(sigma)}
        slots = []
        for e in F.edges:
            x, y, z = sorted(e, key=rank.__getitem__)
            slots.append((tuple(sorted((x, y))), tuple(sorted((x, z))), tuple(sorted((y, z)))))
        for combo in itertools.product(colors, repeat=len(pairs)):
            col = dict(zip(pairs, combo))
            if all((col[a], col[b], col[c]) in P.patterns for a, b, c in slots):
                return True
    return False


class TestRepresentable:
    def test_k4_minus_vs_tournament_free(self):
        res = pal.representable(hg.clique_minus4(), pal.builtin("tournament"))
        assert res.status == "free"
        assert res.space == 1536  # 4! * 2^6

    def test_k4_vs_roedl_free(self):
        res = pal.representable(hg.clique(4), pal.builtin("roedl"))
        assert res.status == "free"
        assert res.space == 1536

    def test_k5_vs_ee6_certificate(self):
        F = hg.clique(5)
        res = pal.representable(F, pal.builtin("ee6"))
        assert res.found
        assert pal.check_certificate(F, pal.builtin("ee6"), res.certificate)

    def test_k6_vs_ee6_free(self):
        res = pal.representable(hg.clique(6), pal.builtin("ee6"))
        assert res.status == "free"
        assert res.space == 2**15

    def test_symmetric_palette_ordering_invariance(self):
        # for a symmetric palette the verdict is the same under every fixed ordering
        P = pal.builtin("ee5")
        for F in (hg.clique(4), hg.cycle5(), hg.star(3)):
            verdicts = {
                pal.representable(F, P, fixed_ordering=sigma).status
                for sigma in itertools.permutations(range(F.n))
            }
            assert len(verdicts) == 1

    def test_budget_gives_inconclusive(self):
        res = pal.representable(hg.clique(6), pal.builtin("ee6"), budget=10)
        assert res.status == "inconclusive"
        assert res.certificate is None

    def test_agrees_with_naive_oracle(self):
        rng = np.random.default_rng(17)
        colors = ("1", "2", "3")
        checked = 0
        for trial in range(100):
            fn = int(rng.integers(3, 5))
            fe = [t for t in itertools.combinations(range(fn), 3) if rng.random() < 0.65]
            if not fe:
                continue
            F = hg.make(fn, fe)
            k = int(rng.integers(2, 4))
            pats = frozenset(
                p for p in itertools.product(colors[:k], repeat=3) if rng.random() < 0.4
            )
            P = pal.Palette(pal.WeightedColorSet.uniform(colors[:k]), pats)
            got = pal.representable(F, P)
            assert (got.status == "certificate") == naive_representable(F, P)
            if got.certificate is not None:
                assert pal.check_certificate(F, P, got.certificate)
            checked += 1
        assert checked >= 80

    def test_node_counts_pinned(self):
        # any change of search order shows up here
        assert pal.representable(hg.clique(6), pal.builtin("ee6")).nodes == 26
        assert pal.representable(hg.clique(5), pal.builtin("ee5")).nodes == 70

    def test_k10_ee11_certificate_nodes_pinned(self):
        # served by one solve_ternary run alone, far inside the
        # 3M-node budget the certify benchmark gives it
        F, P = hg.clique(10), pal.builtin("ee11")
        res = pal.representable(F, P, budget=3_000_000)
        assert res.status == "certificate" and res.nodes == 841
        assert pal.check_certificate(F, P, res.certificate)

    def test_k11_ee11_free_nodes_pinned(self):
        # GR(K3; 3) = 11: K11 has no 3-colouring of its pairs with exactly two
        # colours on every triangle; exhausted under S3 x Sym(10)
        res = pal.representable(hg.clique(11), pal.builtin("ee11"), budget=200_000)
        assert res.status == "free" and res.nodes == 17_686
        assert res.symmetry == pal.Symmetry("S3 x Sym(10)", 21_772_800)

    @pytest.mark.parametrize("name", ["tournament", "rainbow"])
    def test_twins_sharing_no_edge(self, name):
        # 2 and 3 are twins whose pair lies in no edge, so it enters the
        # search only through the twin classes
        F, P = hg.make(4, [(0, 1, 2), (0, 1, 3)]), pal.builtin(name)
        res = pal.representable(F, P)
        assert res.found == naive_representable(F, P)
        assert pal.check_certificate(F, P, res.certificate)
        for cls in pal._twin_classes(F):
            assert [v for v in res.certificate.ordering if v in cls] == cls

    def test_certificate_off_the_identity_ordering(self):
        # free under cycle5 in its identity ordering but represented in
        # another, which also orders triangles of the completion that are
        # no edges of F out of label order
        F, P = hg.make(5, [(0, 1, 2), (0, 1, 3), (0, 2, 4), (1, 2, 3), (1, 3, 4)]), pal.builtin("cycle5")
        assert pal.representable(F, P, fixed_ordering=range(5)).status == "free"
        res = pal.representable(F, P)
        assert res.found and pal.check_certificate(F, P, res.certificate)

    def test_certificate_needs_every_vertex_order_of_an_edge(self):
        # every ordering that represents this F under cycle5 lists some three
        # of its vertices x < y < z as z, y, x, the last of the six orders
        # under which the model reads a triangle
        F = hg.make(5, [(0, 1, 4), (0, 2, 4), (0, 3, 4), (1, 2, 3), (1, 3, 4)])
        P = pal.builtin("cycle5")
        res = pal.representable(F, P)
        assert res.found and pal.check_certificate(F, P, res.certificate)

    def test_check_certificate_refuses_a_pair_outside_the_shadow(self):
        # (0, 3) lies in no edge of F, so no certificate colours it
        F, P = hg.make(4, [(0, 1, 2), (1, 2, 3)]), pal.builtin("tournament")
        cert = pal.representable(F, P).certificate
        assert pal.check_certificate(F, P, cert)
        coloring = {**cert.coloring, (0, 3): P.base.colors[0]}
        extra = pal.RepresentabilityCertificate(cert.ordering, coloring)
        assert not pal.check_certificate(F, P, extra)

    # one field of the certificate of K4 under the one-pattern palette {aaa}
    # over {a, b} that colours every pair a changed: a vertex listed twice,
    # a colour outside the palette, an edge read as (b, a, a)
    @pytest.mark.parametrize("ordering, recolour", [
        ((0, 1, 2, 3, 3), {}), ((0, 1, 2, 3), {(0, 1): "c"}), ((0, 1, 2, 3), {(0, 1): "b"}),
    ], ids=["ordering", "colour", "pattern"])
    def test_check_certificate_refuses_each_changed_field(self, ordering, recolour):
        F = hg.clique(4)
        P = pal.Palette(pal.WeightedColorSet.uniform("ab"), frozenset({("a", "a", "a")}))
        coloring = dict.fromkeys(F.shadow(), "a")
        assert pal.check_certificate(F, P, pal.RepresentabilityCertificate((0, 1, 2, 3), coloring))
        changed = pal.RepresentabilityCertificate(ordering, {**coloring, **recolour})
        assert not pal.check_certificate(F, P, changed)

    def test_twin_free_f8_free_within_budget(self):
        # one search over every ordering: the 8! orderings of this twin-free
        # F are not tried one by one
        F = hg.make(8, [
            (0, 1, 3), (0, 1, 5), (0, 1, 6), (0, 2, 4), (0, 2, 5), (0, 2, 6), (0, 3, 7),
            (0, 4, 6), (1, 2, 3), (1, 2, 6), (1, 3, 4), (1, 4, 6), (1, 6, 7), (2, 3, 6),
            (2, 3, 7), (2, 4, 6), (2, 4, 7),
        ])
        assert pal._twin_classes(F) == [[v] for v in range(8)]
        res = pal.representable(F, pal.builtin("tournament"), budget=1000)
        assert res.status == "free"

    def test_long_tight_path_certificate(self):
        # the chordal completion of a tight path is its shadow, so the model
        # stays linear in n
        F, P = hg.make(1000, [(i, i + 1, i + 2) for i in range(998)]), pal.builtin("rainbow")
        res = pal.representable(F, P)
        assert res.found and pal.check_certificate(F, P, res.certificate)

    def test_edgeless_f_trivially_representable(self):
        F = hg.make(4, [])
        res = pal.representable(F, pal.builtin("tournament"))
        assert res.found


class TestSolveTernary:
    # the search keeps its levels on a list, so its depth is not bounded by
    # the interpreter's recursion limit
    DEPTH = 3 * sys.getrecursionlimit()

    def path(self, n, triples):
        """Constraints over (i, i+1, i+2) along n variables, all allowing triples."""
        tables = pal.ternary_tables(triples)
        return [((i, i + 1, i + 2), tables) for i in range(n - 2)]

    def test_deep_chain_sat(self):
        up = [t for t in itertools.product(range(2), repeat=3) if t[0] <= t[1] <= t[2]]
        n = self.DEPTH
        counter = [0]
        status, assign = pal.solve_ternary([3] * n, self.path(n, up), counter, None)
        assert status == "sat" and counter[0] == n
        assert all(a <= b for a, b in zip(assign, assign[1:]))

    def test_deep_chain_unsat_unwinds(self):
        # every triple equal, the first variable 0 and the last 1: the wipe-out
        # comes at the far end and the search backs out of every level
        n = self.DEPTH
        counter = [0]
        status, assign = pal.solve_ternary(
            [1] + [3] * (n - 2) + [2], self.path(n, [(0, 0, 0), (1, 1, 1)]), counter, None
        )
        assert (status, assign) == ("unsat", None) and n - 3 <= counter[0] <= n

    def test_accept_runs_a_nested_search(self):
        # the hook takes an outer assignment only when a deep inner search on
        # the same counter and budget succeeds, which it does once x0 = 1
        n = self.DEPTH
        outer = self.path(3, itertools.product(range(2), repeat=3))
        inner = self.path(n, [(0, 0, 0), (1, 1, 1)])

        def search(counter, budget):
            seen = []

            def accept(assign):
                seen.append(tuple(assign))
                domains = [1 << assign[0]] + [3] * (n - 2) + [2]
                status, got = pal.solve_ternary(domains, inner, counter, budget, chain=range(n))
                assert status != "sat" or got == [1] * n
                return status

            return pal.solve_ternary([3, 3, 3], outer, counter, budget, accept=accept), seen

        (status, assign), seen = search([0], None)
        assert status == "sat" and assign[0] == 1
        assert seen == [(0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1), (1, 0, 0)]
        counter = [0]
        assert search(counter, n)[0] == ("budget", None) and counter[0] == n + 1

    def test_no_variables(self):
        counter = [0]
        assert pal.solve_ternary([], [], counter, None) == ("sat", [])
        for status in ("sat", "unsat", "budget"):
            want = [] if status == "sat" else None
            got = pal.solve_ternary([], [], counter, None, accept=lambda a, s=status: s)
            assert got == (status, want)
        assert counter == [0]


class TestZeroDensityCertificate:
    def test_single_edge(self):
        res = pal.zero_density_certificate(hg.make(3, [(0, 1, 2)]))
        assert res.found

    def test_k4_minus_has_none(self):
        res = pal.zero_density_certificate(hg.clique_minus4())
        assert res.status == "free"

    def test_fano_found_and_validated(self):
        F = hg.fano()
        res = pal.zero_density_certificate(F)
        assert res.found
        assert pal.check_certificate(F, pal.builtin("rainbow"), res.certificate)

    def test_rainbow_equivalence(self):
        # by definition the zero certifier is representability against rainbow
        for F in (hg.cycle5(), hg.star(3)):
            assert (
                pal.zero_density_certificate(F).status
                == pal.representable(F, pal.builtin("rainbow")).status
            )


class TestCnfEncoding:
    def test_shape_and_semantics(self):
        F = hg.clique(4)
        P = pal.builtin("ee6")
        num_vars, clauses, varmap, meta = pal.cnf_encoding(F, P)
        assert num_vars == 6 * 2
        assert len(varmap) == num_vars
        assert meta["covers_all_orderings"] is True
        # exactly-one per pair: 6 at-least-one + 6 at-most-one; plus per-edge blockers
        forbidden = 8 - len(P.patterns)
        assert len(clauses) == 6 + 6 + 4 * forbidden

    def test_satisfying_assignment_respects_cnf(self):
        # certificate of (K5, ee6) must satisfy every clause of the encoding
        F = hg.clique(5)
        P = pal.builtin("ee6")
        res = pal.representable(F, P)
        pairs = sorted(F.shadow())
        K = len(P.base.colors)
        truth = {}
        for i, p in enumerate(pairs):
            for c in range(K):
                truth[i * K + c + 1] = res.certificate.coloring[p] == P.base.colors[c]
        _nv, clauses, _vm, _meta = pal.cnf_encoding(F, P)
        assert all(
            any(truth[lit] if lit > 0 else not truth[-lit] for lit in cl) for cl in clauses
        )


AB = pal.WeightedColorSet.uniform("ab")


@pytest.mark.parametrize("make, message", [
    (lambda: pal.WeightedColorSet((), ()), "colour set must be nonempty"),
    (lambda: pal.WeightedColorSet.uniform("aa"), "duplicate colour names"),
    (lambda: pal.WeightedColorSet.weighted("ab", [1]), "one weight per colour required"),
    (lambda: AB.index("c"), "unknown colour 'c'"),
    (lambda: pal.Palette(AB, frozenset({("a", "b")})), "pattern ('a', 'b') is not a triple"),
    (lambda: pal.representable(hg.clique(4), pal.builtin("tournament"), fixed_ordering=(0, 1, 2)),
     "fixed_ordering must be a permutation of V(F)"),
], ids=["no colours", "duplicate", "weights", "index", "pair pattern", "fixed ordering"])
def test_refusals(make, message):
    with pytest.raises(pal.PaletteError) as exc:
        make()
    assert str(exc.value) == message
