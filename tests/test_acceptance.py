"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run as `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
"""

import itertools
import json
import time
from fractions import Fraction

import numpy as np

from unidense import construct as cn
from unidense import density as dn
from unidense import hypergraph as hg
from unidense import palette as pal
from unidense import quasirandom as qr
from unidense import reduced as rd


def _report(num, name, ok, detail=""):
    line = f"ACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" - {detail}"
    print(line)
    assert ok, line


def quad_edge_counts(H):
    """Edges of H inside each of the C(n, 4) vertex 4-subsets, scored at once
    from an adjacency cube filled from H.edges."""
    cube = np.zeros((H.n,) * 3, dtype=np.int8)
    E = np.array(list(H.edges), dtype=np.intp).reshape(-1, 3)
    for i, j, k in itertools.permutations(range(3)):
        cube[E[:, i], E[:, j], E[:, k]] = 1
    quads = np.array(list(itertools.combinations(range(H.n), 4)), dtype=np.intp)
    a, b, c, d = quads.reshape(-1, 4).T
    return cube[a, b, c] + cube[a, b, d] + cube[a, c, d] + cube[b, c, d]


def literal_contains_k4(H):
    return bool((quad_edge_counts(H) == 4).any())


def literal_contains_k4_minus(H):
    return bool((quad_edge_counts(H) >= 3).any())


def test_c1_palette_density_table():
    t0 = time.perf_counter()
    checks = [
        pal.builtin("tournament").density("vvv") == Fraction(1, 4),
        pal.builtin("roedl(2)").density("vvv") == Fraction(1, 2),
        pal.builtin("star4").density("vvv") == Fraction(1, 3),
        pal.builtin("ramsey6").density("vvv") == Fraction(3, 4),
        pal.builtin("cycle5").density("vvv") == Fraction(4, 27),
        pal.builtin("ee5").density("ee") == Fraction(1, 3),
        pal.builtin("ee6").density("ee") == Fraction(1, 2),
        pal.builtin("ee11").density("ee") == Fraction(2, 3),
    ]
    elapsed = time.perf_counter() - t0
    _report(
        1,
        "palette density table",
        all(checks) and elapsed < 1.0,
        f"8 exact values in {elapsed:.3f}s",
    )


def test_c2_non_representability_exhaustions():
    cases = [
        ("k4minus", "tournament", 1536),
        ("k4", "roedl(2)", 1536),
        ("k5", "ee5", 3**10),
        ("k6", "ee6", 2**15),
    ]
    ok = True
    details = []
    for f_name, p_name, space in cases:
        t0 = time.perf_counter()
        res = pal.representable(hg.named(f_name), pal.builtin(p_name))
        elapsed = time.perf_counter() - t0
        good = res.status == "free" and res.space == space and elapsed < 1.0
        ok = ok and good
        details.append(f"({f_name},{p_name}): {res.status}/{res.space}/{elapsed:.3f}s")
    # the ev-density side of the roedl bound
    ok = ok and pal.builtin("roedl(2)").density("ev") == Fraction(1, 2)
    _report(2, "non-representability exhaustions", ok, "; ".join(details))


def test_c3_positive_certificates():
    F = hg.fano()
    res = pal.zero_density_certificate(F)
    fano_ok = (
        res.found
        and res.nodes <= 10**6
        and pal.check_certificate(F, pal.builtin("rainbow"), res.certificate)
    )

    k5 = pal.representable(hg.clique(5), pal.builtin("ee6"))
    k5_ok = k5.found and pal.check_certificate(
        hg.clique(5), pal.builtin("ee6"), k5.certificate
    )

    k10 = pal.representable(hg.clique(10), pal.builtin("ee11"), budget=3_000_000)
    k10_ok = k10.found and pal.check_certificate(
        hg.clique(10), pal.builtin("ee11"), k10.certificate
    )

    _report(
        3,
        "positive certificates",
        fano_ok and k5_ok and k10_ok,
        f"fano nodes={res.nodes}; K5/ee6 found; K10/ee11 {k10.status} at {k10.nodes} nodes",
    )


def test_c4_construction_property_suite():
    ok = True
    worst_check = 0.0
    for seed in range(20):
        T = cn.tournament_hypergraph(50, seed)
        R = cn.roedl_hypergraph(50, seed)
        ok = ok and abs(float(T.density()) - 0.25) <= 0.05
        ok = ok and abs(float(R.density()) - 0.5) <= 0.05
        t0 = time.perf_counter()
        ok = ok and not literal_contains_k4_minus(T)
        worst_check = max(worst_check, time.perf_counter() - t0)
        t0 = time.perf_counter()
        ok = ok and not literal_contains_k4(R)
        worst_check = max(worst_check, time.perf_counter() - t0)
    ok = ok and worst_check < 5.0
    # the oracles see a K4 planted into a K4^- -free host
    planted = hg.make(50, list(T.edges) + list(itertools.combinations(range(4), 3)))
    ok = ok and literal_contains_k4(planted) and literal_contains_k4_minus(planted)
    _report(
        4,
        "construction properties",
        ok,
        f"20 seeds at n=50, worst 4-subset scan {worst_check:.2f}s",
    )


def test_c5_density_audit_oracles():
    t0 = time.perf_counter()
    cases = 0
    ok = True
    hs = [(5, cn.tournament_hypergraph(5, s)) for s in range(4)]
    hs += [(5, cn.roedl_hypergraph(5, s)) for s in range(4)]
    hs += [(5, hg.clique(5)), (5, hg.cycle5()), (4, hg.clique(4)), (4, hg.clique_minus4())]
    for n, H in hs:
        V = range(n)
        masks = [[v for v in V if m >> v & 1] for m in range(1 << n)]
        for A in masks:
            for B in masks:
                for C in masks:
                    prod = {(b, c) for b in B for c in C}
                    lhs = dn.count_ev(H, A, prod)
                    if lhs != dn.count_vvv(H, A, B, C):
                        ok = False
                    AxV = [(a, v) for a in A for v in V]
                    kpq, epq = dn.count_ee(H, AxV, prod)
                    if kpq != len(A) * len(prod) or epq != lhs:
                        ok = False
                    cases += 3
    elapsed = time.perf_counter() - t0

    H18 = cn.tournament_hypergraph(18, 0)
    rep = dn.audit_uniform_dense(H18, Fraction(1, 4), Fraction(1, 10))
    ok = ok and rep.mode == "exact" and rep.ok and rep.space == 2**18
    _report(
        5,
        "density audit oracles",
        ok and elapsed < 60.0,
        f"{cases} identity cases in {elapsed:.1f}s; uniform(18) exact min_slack="
        f"{rep.min_slack}",
    )


def test_c6_reduced_suite():
    # density transfer for every builtin at m in 3..7
    transfer_ok = True
    palettes = [
        pal.builtin(name)
        for name in ("rainbow", "tournament", "star4", "roedl(2)", "ramsey6", "ee5", "ee6", "ee11")
    ] + [pal.builtin("cycle5").expand_weights()]
    for P in palettes:
        for m in range(3, 8):
            A = rd.from_palette(P, m)
            for star in ("vvv", "ev", "ee"):
                want = P.density(star)
                if not rd.check_dense(A, star, want).ok:
                    transfer_ok = False
                if rd.check_dense(A, star, want + Fraction(1, 1000)).ok:
                    transfer_ok = False

    # plant-and-recover purge on 20 seeded instances
    purge_ok = True
    for seed in range(20):
        rng = np.random.default_rng(seed)
        m, size = 4, 5
        victim_pair = (int(rng.integers(0, 2)), int(rng.integers(2, 4)))
        victim = int(rng.integers(0, size))
        sizes = {p: size for p in itertools.combinations(range(m), 2)}
        cons = {}
        for ijk in itertools.combinations(range(m), 3):
            edges = set(itertools.product(range(size), repeat=3))
            if victim_pair in (tuple(sorted(p)) for p in itertools.combinations(ijk, 2)):
                role = rd.ReducedHypergraph(
                    tuple(range(m)), sizes, {}
                ).roles(ijk).index(victim_pair)
                edges = {e for e in edges if e[role] != victim}
            cons[ijk] = frozenset(edges)
        A = rd.ReducedHypergraph(tuple(range(m)), sizes, cons)
        res = rd.purge_ev(A, Fraction(1, 2))
        want_kept = tuple(v for v in range(size) if v != victim)
        if res.kept[victim_pair] != want_kept:
            purge_ok = False
        if any(res.kept[p] != tuple(range(size)) for p in sizes if p != victim_pair):
            purge_ok = False

    # projection composition replay on 50 instances
    proj_ok = True
    replayed = 0
    rng = np.random.default_rng(99)
    F4 = hg.clique(4)
    for trial in range(50):
        sizes = {p: int(rng.integers(2, 6)) for p in itertools.combinations(range(4), 2)}
        cons = {}
        for ijk in itertools.combinations(range(4), 3):
            lim = [sizes[p] for p in (tuple(sorted(q)) for q in itertools.combinations(ijk, 2))]
            cons[ijk] = frozenset(
                t
                for t in itertools.product(*(range(x) for x in lim))
                if rng.random() < 0.8
            )
        A = rd.ReducedHypergraph((0, 1, 2, 3), sizes, cons)
        res = rd.project_random(A, 3, seed=trial)
        search = rd.find_reduced_map(F4, res.reduced)
        if search.found:
            replayed += 1
            composed = rd.compose_with_projection(search.reduced_map, res.psi)
            if not rd.validate_reduced_map(F4, A, composed):
                proj_ok = False
    proj_ok = proj_ok and replayed >= 25

    # ee => ev => vvv chain on 100 random instances
    chain_ok = True
    rng = np.random.default_rng(7)
    for trial in range(100):
        m = int(rng.integers(3, 6))
        sizes = {p: int(rng.integers(1, 5)) for p in itertools.combinations(range(m), 2)}
        cons = {}
        for ijk in itertools.combinations(range(m), 3):
            lim = [sizes[p] for p in (tuple(sorted(q)) for q in itertools.combinations(ijk, 2))]
            cons[ijk] = frozenset(
                t
                for t in itertools.product(*(range(x) for x in lim))
                if rng.random() < rng.uniform(0.2, 0.95)
            )
        A = rd.ReducedHypergraph(tuple(range(m)), sizes, cons)
        d_ee = rd.reduced_density(A, "ee")
        if not (rd.check_dense(A, "ev", d_ee).ok and rd.check_dense(A, "vvv", d_ee).ok):
            chain_ok = False

    _report(
        6,
        "reduced-hypergraph suite",
        transfer_ok and purge_ok and proj_ok and chain_ok,
        f"transfer x45, purge x20, projection replays {replayed}/50, chain x100",
    )


def test_c7_tetrahedron_greedy():
    eps = Fraction(2, 3)
    m_min = rd.tetra_min_indices(eps)
    A = rd.from_palette(pal.builtin("ee11"), m_min)
    rm = rd.tetrahedron_greedy(A, eps)
    ee11_ok = rd.validate_reduced_map(hg.clique(4), A, rm)
    agree = rd.find_reduced_map(hg.clique(4), A).found

    eps2 = Fraction(1, 2)
    m2 = rd.tetra_min_indices(eps2)
    random_ok = True
    for seed in range(20):
        B = rd.random_dense_reduced(m2, 8, eps2, seed=seed)
        rm2 = rd.tetrahedron_greedy(B, eps2)
        if not rd.validate_reduced_map(hg.clique(4), B, rm2):
            random_ok = False
        if not rd.find_reduced_map(hg.clique(4), B).found:
            random_ok = False
    _report(
        7,
        "greedy tetrahedron extraction",
        ee11_ok and agree and random_ok,
        f"ee11 at m={m_min}; 20 random (1/2,ee)-dense at m={m2}, classes of 8",
    )


def test_c8_quasirandom_suite():
    # triangle counts vs cubic brute force on 200 instances
    rng = np.random.default_rng(17)
    tri_ok = True
    for trial in range(200):
        sizes = tuple(int(rng.integers(1, 7)) for _ in range(3))
        P = qr.TripartiteGraph.random(sizes, float(rng.uniform(0.1, 0.95)), (1, trial))
        brute = sum(
            1
            for x in range(sizes[0])
            for y in range(sizes[1])
            for z in range(sizes[2])
            if P.xy.rows[x] >> y & 1 and P.xz.rows[x] >> z & 1 and P.yz.rows[y] >> z & 1
        )
        if qr.triangle_count(P) != brute:
            tri_ok = False

    # counting lemma within 3*delta at the audited delta, 50 seeded instances
    lemma_ok = True
    for seed in range(50):
        P = qr.TripartiteGraph.random((10, 10, 10), 0.5, (2, seed))
        delta = max(
            qr.audit_quasirandom(G, 1, Fraction(1, 2)).max_deviation
            for G in (P.xy, P.xz, P.yz)
        )
        dev = qr.check_counting_lemma(P, delta, *(Fraction(1, 2),) * 3)
        if abs(dev) > 3 * delta:
            lemma_ok = False

    # exact 10x10 audits under 2s apiece
    time_ok = True
    for seed in range(5):
        G = qr.BipartiteGraph.random(10, 10, 0.5, (3, seed))
        t0 = time.perf_counter()
        rep = qr.audit_quasirandom(G, Fraction(1, 5), Fraction(1, 2))
        elapsed = time.perf_counter() - t0
        if rep.mode != "exact" or elapsed >= 2.0:
            time_ok = False
    _report(
        8,
        "quasirandomness suite",
        tri_ok and lemma_ok and time_ok,
        "triangles x200, counting lemma x50, exact audits < 2s",
    )
