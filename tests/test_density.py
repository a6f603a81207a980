"""Counting functionals against brute-force oracles, the cross-notion
identities, and exact/sampled minimum-slack audits."""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from unidense import construct as cn
from unidense import density as dn
from unidense import hypergraph as hg


def brute_count_vvv(H, A, B, C):
    return sum(
        1
        for a in A
        for b in B
        for c in C
        if len({a, b, c}) == 3 and H.has_edge(a, b, c)
    )


def brute_count_ev(H, A, P):
    return sum(
        1 for a in A for (b, c) in P if len({a, b, c}) == 3 and H.has_edge(a, b, c)
    )


def brute_count_ee(H, P, Q):
    kpq = sum(1 for (a, b) in P for (b2, c) in Q if b == b2)
    epq = sum(
        1
        for (a, b) in P
        for (b2, c) in Q
        if b == b2 and len({a, b, c}) == 3 and H.has_edge(a, b, c)
    )
    return kpq, epq


@pytest.mark.parametrize(
    "n, p, seed", [(0, 0.0, 0), (6, 0.0, 0), (3, 1.0, 0), (7, 0.5, 1), (12, 0.3, 2)]
)
def test_ordered_edge_tensor_matches_literal_loop(n, p, seed):
    gen = np.random.default_rng(seed)
    H = hg.Hypergraph3(n, [e for e in itertools.combinations(range(n), 3) if gen.random() < p])
    want = np.zeros((n, n, n), dtype=np.int8)
    for e in H.edges:
        for x, y, z in itertools.permutations(e):
            want[x, y, z] = 1
    got = dn._ordered_edge_tensor(H)
    assert got.dtype == np.int8 and got.shape == (n, n, n)
    assert (got == want).all()


class TestCounts:
    def test_single_edge_all_orderings(self):
        H = hg.clique(3)
        V = range(3)
        assert dn.count_vvv(H, V, V, V) == 6

    def test_empty_side(self):
        H = hg.clique(4)
        assert dn.count_vvv(H, [], range(4), range(4)) == 0
        assert dn.count_ev(H, range(4), []) == 0
        assert dn.count_ee(H, [(0, 1)], []) == (0, 0)

    def test_k4_ordered_count(self):
        H = hg.clique(4)
        assert dn.count_vvv(H, range(4), range(4), range(4)) == 24

    def test_pointwise_examples(self):
        H = hg.clique(4)
        assert dn.count_ev(H, [0], [(1, 2)]) == 1
        assert dn.count_ee(H, [(0, 1)], [(1, 2)]) == (1, 1)
        V2 = [(a, b) for a in range(4) for b in range(4)]
        assert dn.count_ee(H, V2, V2)[0] == 4**3

    def test_matches_brute_force(self):
        rng = np.random.default_rng(2)
        H = cn.tournament_hypergraph(6, 0)
        cells = [(a, b) for a in range(6) for b in range(6)]
        for _ in range(40):
            A = [v for v in range(6) if rng.random() < 0.5]
            B = [v for v in range(6) if rng.random() < 0.5]
            C = [v for v in range(6) if rng.random() < 0.5]
            P = [c for c in cells if rng.random() < 0.3]
            Q = [c for c in cells if rng.random() < 0.3]
            assert dn.count_vvv(H, A, B, C) == brute_count_vvv(H, A, B, C)
            assert dn.count_ev(H, A, P) == brute_count_ev(H, A, P)
            assert dn.count_ee(H, P, Q) == brute_count_ee(H, P, Q)

    def test_monotone(self):
        H = cn.roedl_hypergraph(8, 1)
        A, B, C = [0, 1], [2, 3], [4, 5]
        base = dn.count_vvv(H, A, B, C)
        assert dn.count_vvv(H, A + [6], B, C) >= base
        P = [(2, 3), (3, 4)]
        assert dn.count_ev(H, A + [7], P) >= dn.count_ev(H, A, P)


class TestIdentities:
    def test_ev_product_identity_exhaustive_n4(self):
        H = cn.tournament_hypergraph(4, 5)
        for ma, mb, mc in itertools.product(range(16), repeat=3):
            A = [v for v in range(4) if ma >> v & 1]
            B = [v for v in range(4) if mb >> v & 1]
            C = [v for v in range(4) if mc >> v & 1]
            assert dn.count_ev(H, A, {(b, c) for b in B for c in C}) == dn.count_vvv(
                H, A, B, C
            )

    def test_kpq_identities_n4(self):
        H = cn.roedl_hypergraph(4, 5)
        V = range(4)
        cells = [(a, b) for a in V for b in V]
        rng = np.random.default_rng(0)
        for _ in range(60):
            A = [v for v in V if rng.random() < 0.5]
            P = [c for c in cells if rng.random() < 0.4]
            AxV = [(a, v) for a in A for v in V]
            kpq, epq = dn.count_ee(H, AxV, P)
            assert kpq == len(A) * len(P)
            assert epq == dn.count_ev(H, A, P)


class TestSlackTransfer:
    def test_ev_slack_equals_ee_slack_on_lifted_witness(self):
        H = cn.tournament_hypergraph(7, 2)
        rng = np.random.default_rng(4)
        V = range(7)
        cells = [(a, b) for a in V for b in V]
        d, eta = Fraction(1, 4), Fraction(1, 20)
        for _ in range(20):
            A = [v for v in V if rng.random() < 0.5]
            P = [c for c in cells if rng.random() < 0.3]
            AxV = [(a, v) for a in A for v in V]
            assert dn.slack_ev(H, d, eta, A, P) == dn.slack_ee(H, d, eta, AxV, P)

    def test_vvv_slack_equals_ev_slack_on_product(self):
        H = cn.roedl_hypergraph(7, 2)
        rng = np.random.default_rng(4)
        d, eta = Fraction(1, 2), Fraction(1, 20)
        for _ in range(20):
            A = [v for v in range(7) if rng.random() < 0.5]
            B = [v for v in range(7) if rng.random() < 0.5]
            C = [v for v in range(7) if rng.random() < 0.5]
            assert dn.slack_vvv(H, d, eta, A, B, C) == dn.slack_ev(
                H, d, eta, A, {(b, c) for b in B for c in C}
            )

    def test_vvv_pass_implies_uniform_pass_on_diagonal(self):
        # |U^(3) cap E| - d C(u,3) + (eta/6) n^3  >=  (1/6) vvv-slack(U,U,U)
        H = cn.tournament_hypergraph(10, 3)
        d, eta = Fraction(1, 4), Fraction(3, 10)
        rng = np.random.default_rng(8)
        for _ in range(25):
            U = [v for v in range(10) if rng.random() < 0.6]
            lhs = dn.slack_uniform(H, d, eta / 6, U)
            rhs = dn.slack_vvv(H, d, eta, U, U, U) / 6
            assert lhs >= rhs


class TestUniformAudit:
    def test_empty_graph_d0(self):
        H = hg.make(6, [])
        rep = dn.audit_uniform_dense(H, 0, Fraction(1, 100))
        assert rep.mode == "exact" and rep.ok

    def test_complete_d1_eta0_tight(self):
        H = hg.clique(6)
        rep = dn.audit_uniform_dense(H, 1, 0)
        assert rep.mode == "exact"
        assert rep.min_slack == 0  # equality attained (every U spans d C(u,3) edges)

    def test_out_of_domain_thresholds_refused(self):
        H = hg.clique(5)
        for d, eta in ((Fraction(5, 4), 0), (-1, 0), (Fraction(1, 2), Fraction(-1, 10))):
            with pytest.raises(ValueError):
                dn.audit_uniform_dense(H, d, eta)
            with pytest.raises(ValueError):
                dn.audit_star_dense(H, "vvv", d, eta)

    @pytest.mark.parametrize("notion", ["uniform", "vvv", "ev", "ee"])
    def test_threshold_denominators_too_large_refused(self, notion):
        # scale = 10^10 would take the scaled slacks past float64's exact
        # integers; the sampled mode shares the guard
        H = cn.tournament_hypergraph(4, 0)
        d = eta = Fraction(1, 100000)
        for exact_threshold in (0, 4):
            with pytest.raises(ValueError, match="threshold denominators too large"):
                if notion == "uniform":
                    dn.audit_uniform_dense(H, d, eta, exact_threshold=exact_threshold)
                else:
                    dn.audit_star_dense(H, notion, d, eta, exact_threshold=exact_threshold)

    def test_exact_matches_brute(self):
        H = cn.tournament_hypergraph(9, 4)
        d, eta = Fraction(1, 4), Fraction(1, 50)
        rep = dn.audit_uniform_dense(H, d, eta)
        brute = min(
            dn.slack_uniform(H, d, eta, [v for v in range(9) if m >> v & 1])
            for m in range(1 << 9)
        )
        assert rep.min_slack == brute

    def test_sampled_never_beats_exact(self):
        H = cn.roedl_hypergraph(12, 6)
        d, eta = Fraction(1, 2), Fraction(0)
        exact = dn.audit_uniform_dense(H, d, eta, exact_threshold=12)
        sampled = dn.audit_uniform_dense(H, d, eta, exact_threshold=0, samples=300, seed=1)
        assert sampled.mode == "sampled"
        assert sampled.min_slack >= exact.min_slack
        # the witness the sampler found must evaluate to its reported slack
        U = sampled.worst_witness["U"]
        assert dn.slack_uniform(H, d, eta, U) == sampled.min_slack


class TestStarAudit:
    def test_complete_vvv_distinctness_deficit(self):
        H = hg.clique(5)
        rep = dn.audit_star_dense(H, "vvv", 1, 0)
        assert rep.mode == "exact"
        assert rep.min_slack == -(3 * 25 - 2 * 5)  # non-distinct triples at A=B=C=V
        assert dn.audit_star_dense(H, "vvv", 1, 1).ok

    def test_empty_ee_d0(self):
        H = hg.make(4, [])
        rep = dn.audit_star_dense(H, "ee", 0, Fraction(1, 100))
        assert rep.ok

    def test_unknown_notion_refused(self):
        with pytest.raises(ValueError, match="unknown density notion 'uniform'"):
            dn.audit_star_dense(hg.clique(4), "uniform", Fraction(1, 4), 0)

    def test_vvv_exact_matches_brute(self):
        H = cn.tournament_hypergraph(5, 9)
        d, eta = Fraction(1, 4), Fraction(1, 30)
        rep = dn.audit_star_dense(H, "vvv", d, eta)
        brute = min(
            dn.slack_vvv(
                H,
                d,
                eta,
                [v for v in range(5) if ma >> v & 1],
                [v for v in range(5) if mb >> v & 1],
                [v for v in range(5) if mc >> v & 1],
            )
            for ma, mb, mc in itertools.product(range(32), repeat=3)
        )
        assert rep.min_slack == brute

    def test_ev_exact_matches_brute(self):
        H = cn.roedl_hypergraph(3, 1)
        d, eta = Fraction(1, 2), Fraction(1, 40)
        rep = dn.audit_star_dense(H, "ev", d, eta)
        cells = [(a, b) for a in range(3) for b in range(3)]
        brute = min(
            dn.slack_ev(
                H,
                d,
                eta,
                [v for v in range(3) if ma >> v & 1],
                [cells[i] for i in range(9) if mp >> i & 1],
            )
            for ma in range(8)
            for mp in range(512)
        )
        assert rep.min_slack == brute

    def test_ee_exact_matches_brute(self):
        H = hg.Hypergraph3(3, [(0, 1, 2)])
        d, eta = Fraction(1, 3), Fraction(1, 40)
        rep = dn.audit_star_dense(H, "ee", d, eta)
        cells = [(a, b) for a in range(3) for b in range(3)]
        brute = min(
            dn.slack_ee(
                H,
                d,
                eta,
                [cells[i] for i in range(9) if mp >> i & 1],
                [cells[i] for i in range(9) if mq >> i & 1],
            )
            for mp in range(512)
            for mq in range(512)
        )
        assert rep.min_slack == brute

    def test_sampled_witnesses_evaluate_to_reported_slack(self):
        H = cn.roedl_hypergraph(14, 3)
        d, eta = Fraction(1, 2), Fraction(1, 20)
        rep = dn.audit_star_dense(H, "vvv", d, eta, exact_threshold=0, samples=60, seed=2)
        assert rep.mode == "sampled"
        w = rep.worst_witness
        assert dn.slack_vvv(H, d, eta, w["A"], w["B"], w["C"]) == rep.min_slack

        rep = dn.audit_star_dense(H, "ev", d, eta, exact_threshold=0, samples=60, seed=2)
        w = rep.worst_witness
        assert dn.slack_ev(H, d, eta, w["A"], [tuple(p) for p in w["P"]]) == rep.min_slack

        rep = dn.audit_star_dense(H, "ee", d, eta, exact_threshold=0, samples=12, seed=2)
        w = rep.worst_witness
        assert (
            dn.slack_ee(H, d, eta, [tuple(p) for p in w["P"]], [tuple(q) for q in w["Q"]])
            == rep.min_slack
        )

    def test_roedl_ev_statistical(self):
        # the ev-density claim is asymptotic: the best-response auditor measures a
        # true deficit of ~n^2.5, so eta = 1/20 only clears it from n ~ 80 on;
        # at n = 60 the honest budget is eta = 1/8
        H = cn.roedl_hypergraph(60, 0)
        rep = dn.audit_star_dense(
            H, "ev", Fraction(1, 2), Fraction(1, 8), exact_threshold=0, samples=30, seed=5
        )
        assert rep.ok

    def test_report_serialization(self):
        H = hg.clique(4)
        rep = dn.audit_star_dense(H, "vvv", Fraction(1, 4), Fraction(1, 10))
        d = rep.to_dict()
        assert d["mode"] == "exact"
        assert d["d"] == "1/4"
        assert isinstance(d["ok"], bool)
