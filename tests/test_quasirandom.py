"""Quasirandomness audits against brute force, triangle counting, the counting
lemma, relative density, and the lift colour-class property."""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from unidense import construct as cn
from unidense import hypergraph as hg
from unidense import palette as pal
from unidense import quasirandom as qr
from unidense import reduced as rd


def brute_max_deviation(G, d):
    """Oracle: worst |e(A,B) - d|A||B|| over all side subsets."""
    d = Fraction(d)
    worst = Fraction(0)
    xs, ys = range(G.nx), range(G.ny)
    for ma in range(1 << G.nx):
        A = [x for x in xs if ma >> x & 1]
        for mb in range(1 << G.ny):
            B = [y for y in ys if mb >> y & 1]
            dev = abs(G.e(A, B) - d * len(A) * len(B))
            worst = max(worst, dev)
    return worst


class TestAuditQuasirandom:
    def test_complete_d1_exact_pass(self):
        G = qr.BipartiteGraph.complete(6, 5)
        rep = qr.audit_quasirandom(G, 0, 1)
        assert rep.mode == "exact" and rep.ok and rep.max_deviation == 0

    def test_out_of_domain_thresholds_refused(self):
        G = qr.BipartiteGraph.complete(3, 3)
        for delta, d in ((Fraction(-1, 5), Fraction(1, 2)), (0, Fraction(3, 2)), (0, -1)):
            with pytest.raises(ValueError):
                qr.audit_quasirandom(G, delta, d)

    def test_empty_side_refused(self):
        for G in (qr.BipartiteGraph.from_edges(3, 0, []), qr.BipartiteGraph.from_edges(0, 2, [])):
            with pytest.raises(qr.GraphError):
                qr.audit_quasirandom(G, Fraction(1, 5), Fraction(1, 2))

    def test_empty_graph_full_sides_violate(self):
        G = qr.BipartiteGraph.from_edges(8, 8, [])
        rep = qr.audit_quasirandom(G, Fraction(1, 4), Fraction(1, 2))
        assert not rep.ok
        assert set(rep.witness_A) == set(range(8))
        assert set(rep.witness_B) == set(range(8))
        assert rep.max_deviation == Fraction(1, 2)

    def test_exact_matches_brute_force(self):
        rng = np.random.default_rng(2)
        for trial in range(15):
            G = qr.BipartiteGraph.random(5, 6, float(rng.uniform(0.2, 0.8)), trial)
            d = Fraction(int(rng.integers(0, 5)), 4)
            if d > 1:
                d = Fraction(1, 2)
            rep = qr.audit_quasirandom(G, Fraction(1, 10), d)
            assert rep.mode == "exact"
            want = brute_max_deviation(G, d)
            assert rep.max_deviation * G.nx * G.ny == want

    def test_random_half_density_10x10(self):
        G = qr.BipartiteGraph.random(10, 10, 0.5, 42)
        rep = qr.audit_quasirandom(G, Fraction(1, 5), Fraction(1, 2))
        assert rep.mode == "exact" and rep.ok

    def test_complement_symmetry(self):
        for seed in range(10):
            G = qr.BipartiteGraph.random(7, 9, 0.4, seed)
            a = qr.audit_quasirandom(G, Fraction(1, 8), Fraction(2, 5))
            full = (1 << G.ny) - 1
            H = qr.BipartiteGraph(G.nx, G.ny, tuple(r ^ full for r in G.rows))  # the complement
            b = qr.audit_quasirandom(H, Fraction(1, 8), Fraction(3, 5))
            assert a.ok == b.ok and a.max_deviation == b.max_deviation

    def test_sampled_mode_lower_bounds_exact(self):
        G = qr.BipartiteGraph.random(12, 12, 0.5, 3)
        exact = qr.audit_quasirandom(G, Fraction(1, 5), Fraction(1, 2))
        sampled = qr.audit_quasirandom(
            G, Fraction(1, 5), Fraction(1, 2), exact_bits=0, samples=200, seed=1
        )
        assert sampled.mode == "sampled"
        assert sampled.max_deviation <= exact.max_deviation
        # witness deviation must recompute to the reported value
        dev = abs(
            G.e(sampled.witness_A, sampled.witness_B)
            - Fraction(1, 2) * len(sampled.witness_A) * len(sampled.witness_B)
        )
        assert Fraction(dev, G.nx * G.ny) == sampled.max_deviation


class TestTriangles:
    def brute_triangles(self, P):
        X, Y, Z = (range(len(p)) for p in P.parts)
        return sum(
            1
            for x in X
            for y in Y
            for z in Z
            if P.xy.rows[x] >> y & 1 and P.xz.rows[x] >> z & 1 and P.yz.rows[y] >> z & 1
        )

    def test_complete_tripartite(self):
        P = qr.TripartiteGraph.random((3, 4, 5), 1.1, 0)
        assert qr.triangle_count(P) == 3 * 4 * 5

    def test_one_layer_empty(self):
        P = qr.TripartiteGraph(
            ((0,), (1,), (2,)),
            qr.BipartiteGraph.from_edges(1, 1, []),
            qr.BipartiteGraph.complete(1, 1),
            qr.BipartiteGraph.complete(1, 1),
        )
        assert qr.triangle_count(P) == 0

    def test_matches_brute_force_200_instances(self):
        rng = np.random.default_rng(7)
        for trial in range(200):
            sizes = tuple(int(rng.integers(1, 7)) for _ in range(3))
            P = qr.TripartiteGraph.random(sizes, float(rng.uniform(0.2, 0.9)), trial)
            assert qr.triangle_count(P) == self.brute_triangles(P)


class TestCountingLemma:
    def test_complete_layers_zero_deviation(self):
        P = qr.TripartiteGraph.random((4, 4, 4), 1.1, 0)
        assert qr.check_counting_lemma(P, 0, 1, 1, 1) == 0

    def test_empty_layers_zero_deviation(self):
        P = qr.TripartiteGraph(
            (tuple(range(3)), tuple(range(3, 6)), tuple(range(6, 9))),
            qr.BipartiteGraph.from_edges(3, 3, []),
            qr.BipartiteGraph.from_edges(3, 3, []),
            qr.BipartiteGraph.from_edges(3, 3, []),
        )
        assert qr.check_counting_lemma(P, 0, 0, 0, 0) == 0

    def test_empty_part_zero_deviation(self):
        P = qr.TripartiteGraph(
            ((0, 1), (), (2,)),
            qr.BipartiteGraph.from_edges(2, 0, []),
            qr.BipartiteGraph.from_edges(2, 1, [(0, 0), (1, 0)]),
            qr.BipartiteGraph.from_edges(0, 1, []),
        )
        assert qr.check_counting_lemma(P, 0, 1, 1, 1) == 0

    @pytest.mark.parametrize("args", [
        (Fraction(-1, 10), Fraction(1, 2), Fraction(1, 2), Fraction(1, 2)),
        (0, Fraction(3, 2), Fraction(1, 2), Fraction(1, 2)),
        (0, Fraction(1, 2), Fraction(-1, 2), Fraction(1, 2)),
        (0, Fraction(1, 2), Fraction(1, 2), 2),
    ])
    def test_out_of_domain_refused(self, args):
        P = qr.TripartiteGraph.random((3, 3, 3), 0.5, 0)
        with pytest.raises(ValueError):
            qr.check_counting_lemma(P, *args)

    def test_seeded_instances_within_three_delta(self):
        # audited delta: exact audit per layer, then the triangle count obeys 3*delta
        for seed in range(50):
            P = qr.TripartiteGraph.random((10, 10, 10), 0.5, seed)
            reps = [
                qr.audit_quasirandom(G, 1, Fraction(1, 2))
                for G in (P.xy, P.xz, P.yz)
            ]
            delta = max(r.max_deviation for r in reps)
            dev = qr.check_counting_lemma(P, delta, *(Fraction(1, 2),) * 3)
            assert abs(dev) <= 3 * delta


class TestRelativeDensity:
    def test_no_triangles_convention(self):
        H = hg.clique(3)
        P = qr.TripartiteGraph(
            ((0,), (1,), (2,)),
            qr.BipartiteGraph.from_edges(1, 1, []),
            qr.BipartiteGraph.complete(1, 1),
            qr.BipartiteGraph.complete(1, 1),
        )
        assert qr.relative_density(H, P) == 0

    def test_complete_on_complete(self):
        H = hg.clique(9)
        P = qr.TripartiteGraph.random((3, 3, 3), 1.1, 0)
        assert qr.relative_density(H, P) == 1

    def test_bounds_and_monotonicity(self):
        rng = np.random.default_rng(3)
        P = qr.TripartiteGraph.random((4, 4, 4), 0.7, 5)
        edges = [t for t in itertools.combinations(range(12), 3) if rng.random() < 0.4]
        H = hg.make(12, edges)
        d1 = qr.relative_density(H, P)
        assert 0 <= d1 <= 1
        extra = [t for t in itertools.combinations(range(12), 3) if rng.random() < 0.3]
        H2 = hg.make(12, edges + extra)
        assert qr.relative_density(H2, P) >= d1

    def test_lift_replay(self):
        # relative density of the lift w.r.t. a colour-class triad equals a recount
        A = rd.from_palette(pal.builtin("tournament"), 3)
        lift = cn.lift_reduced(A, 8, seed=2)
        H, pc = lift.hypergraph, lift.coloring
        layers = {
            (0, 1): pc.class_graph(0, 1, 0),
            (0, 2): pc.class_graph(0, 2, 1),
            (1, 2): pc.class_graph(1, 2, 0),
        }
        P = qr.TripartiteGraph(
            (tuple(range(8)), tuple(range(8, 16)), tuple(range(16, 24))),
            layers[(0, 1)],
            layers[(0, 2)],
            layers[(1, 2)],
        )
        hits = total = 0
        for x in range(8):
            for y in range(8, 16):
                for z in range(16, 24):
                    if (
                        pc.color(x, y)[1] == 0
                        and pc.color(x, z)[1] == 1
                        and pc.color(y, z)[1] == 0
                    ):
                        total += 1
                        hits += H.has_edge(x, y, z)
        want = Fraction(hits, total) if total else Fraction(0)
        assert qr.relative_density(H, P) == want

    def test_part_outside_host_rejected(self):
        H = hg.clique(3)
        P = qr.TripartiteGraph.random((2, 2, 2), 0.5, 0)
        with pytest.raises(qr.GraphError):
            qr.relative_density(H, P)


class TestLiftClassQuasirandomness:
    def test_class_graphs_quasirandom_for_most_seeds(self):
        # classes of size <= 4 at block size 64: (0.15, 1/ell) audit passes >= 95%
        ell = 3
        A = rd.from_palette(pal.builtin("ee5"), 3)  # class size 3
        passes = 0
        trials = 100
        for seed in range(trials):
            pc = cn.random_partitioned_coloring(A, 64, seed=seed)
            G = pc.class_graph(0, 1, seed % ell)
            rep = qr.audit_quasirandom(
                G, Fraction(15, 100), Fraction(1, ell), exact_bits=0, samples=60, seed=seed
            )
            passes += rep.ok
        assert passes >= 95


ONE, TWO_BY_ONE = qr.BipartiteGraph(1, 1, (0,)), qr.BipartiteGraph(2, 1, (0, 0))


@pytest.mark.parametrize("make, message", [
    (lambda: qr.BipartiteGraph(2, 2, (1,)), "one row bitmask per X vertex required"),
    (lambda: qr.BipartiteGraph(1, 2, (4,)), "row bitmask exceeds Y side"),
    (lambda: qr.BipartiteGraph.from_edges(2, 2, [(0, 2)]), "edge (0, 2) outside 2x2 sides"),
    (lambda: qr.TripartiteGraph(((0,), (0,), (1,)), ONE, ONE, ONE), "parts must be disjoint"),
    (lambda: qr.TripartiteGraph(((0,), (1,), (2,)), TWO_BY_ONE, ONE, ONE),
     "xy layer does not match part sizes"),
    (lambda: qr.TripartiteGraph(((0,), (1,), (2,)), ONE, TWO_BY_ONE, ONE),
     "xz layer does not match part sizes"),
    (lambda: qr.TripartiteGraph(((0,), (1,), (2,)), ONE, ONE, TWO_BY_ONE),
     "yz layer does not match part sizes"),
], ids=["rows", "row bits", "edge", "parts", "xy", "xz", "yz"])
def test_refusals(make, message):
    with pytest.raises(qr.GraphError) as exc:
        make()
    assert str(exc.value) == message
