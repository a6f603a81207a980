"""The subset-search engine behind every density and quasirandom audit, and
reports pinned to the values the audits gave before they shared it."""

import tracemalloc
from fractions import Fraction as F

import numpy as np
import pytest

from unidense import construct as cn
from unidense import density as dn
from unidense import hypergraph as hg
from unidense import quasirandom as qr


class Table:
    """flip/score/witness, and the vectorised scores and rate, over a score
    table indexed by the bitmask."""

    def __init__(self, table):
        self.table = table
        self.mask = 0
        self.visited = []  # masks scored one at a time, by score()
        self.rated = []  # masks rated in chunks, by scores() or rate()
        self.witness_calls = 0

    def flip(self, i):
        self.mask ^= 1 << i

    def score(self):
        self.visited.append(self.mask)
        return self.table[self.mask]

    def scores(self, masks):
        self.rated.extend(masks.tolist())
        return np.array(self.table, dtype=np.int64)[masks]

    def rate(self, rows):
        masks = hg.pack_rows(rows.astype(bool))
        self.rated.extend(masks)
        return np.array([self.table[m] for m in masks], dtype=np.int64)

    def witness(self):
        self.witness_calls += 1
        return self.mask


def reference_search(nbits, rate, width, flip, score, witness, candidates):
    """A flip walk on subset_search's signature (rate and width unused): the
    candidates are scored in order by flipping from one to the next, the
    first taken and later ones on a strict decrease, then the same
    single-flip descent, with witness() called at every improvement."""
    state = 0
    best = wit = best_mask = None
    for cand in candidates:
        for i in hg.bit_positions(state ^ cand):
            flip(i)
        state = cand
        s = score()
        if best is None or s < best:
            best, wit, best_mask = s, witness(), cand
    for i in hg.bit_positions(state ^ best_mask):
        flip(i)
    improved = True
    while improved:
        improved = False
        for i in range(nbits):
            flip(i)
            s = score()
            if s < best:
                best, wit = s, witness()
                improved = True
            else:
                flip(i)
    return best, wit


def gray_order(n):
    return [g ^ (g >> 1) for g in range(1 << n)]


class TestSubsetSweep:
    # chunk budgets that give one chunk, chunks of four masks and one mask
    # per chunk at width 1 (three 8-byte cells a mask)
    BUDGETS = (1 << 20, 8 * 13, 1)

    @pytest.mark.parametrize("n", range(7))
    def test_visits_every_subset_once(self, n, monkeypatch):
        for budget in self.BUDGETS:
            monkeypatch.setattr(hg, "_CHUNK_BYTES", budget)
            t = Table(list(range(1 << n)))
            best, wit = hg.subset_sweep(n, t.scores, 1, t.flip, t.score, t.witness)
            assert t.rated == list(range(1 << n))
            assert (best, wit) == (0, 0)
            # score() runs once, at the replayed winner, and witness() once
            assert t.visited == [0] and t.witness_calls == 1

    def test_minimum_and_earliest_tie(self, monkeypatch):
        rng = np.random.default_rng(0)
        for budget in self.BUDGETS:
            monkeypatch.setattr(hg, "_CHUNK_BYTES", budget)
            for n in range(1, 9):
                table = [int(x) for x in rng.integers(0, 4, 1 << n)]
                t = Table(table)
                best, wit = hg.subset_sweep(n, t.scores, 1, t.flip, t.score, t.witness)
                assert best == min(table) and table[wit] == best
                # on ties the set a Gray-code walk from the empty set reaches first
                assert wit == next(m for m in gray_order(n) if table[m] == best)
                assert t.visited == [wit] and t.witness_calls == 1

    def test_replayed_score_must_match_the_table(self):
        t = Table([3, 1, 2, 5])
        t.score = lambda: 7
        with pytest.raises(RuntimeError, match="scores 7 by flips, 1 by table"):
            hg.subset_sweep(2, t.scores, 1, t.flip, t.score, t.witness)

    def test_gray_rank_inverts_gray_code(self):
        g = np.arange(1 << 12, dtype=np.int64)
        assert (hg.gray_rank(g ^ (g >> 1)) == g).all()
        big = np.array([(1 << 62) - 1, 1 << 61, (1 << 62) - 5], dtype=np.int64)
        assert (hg.gray_rank(big ^ (big >> 1)) == big).all()

    def test_split_sums(self):
        rows = np.arange(35, dtype=np.int64).reshape(7, 5) - 17
        masks = np.arange(1 << 7, dtype=np.int64)
        want = [sum((rows[i] for i in range(7) if m >> i & 1), np.zeros(5, np.int64))
                for m in masks]
        assert (hg.split_sums(rows)(masks) == np.array(want)).all()

    @pytest.mark.parametrize("nbits", [0, 1, 2, 5, 7, 8])
    @pytest.mark.parametrize("dtype", [np.int64, np.float64])
    def test_split_sums_reads_runs_within_and_across_low_blocks(self, nbits, dtype):
        # a low block holds 2^(nbits // 2) masks; runs are aligned as the sweep's chunks
        rows = np.random.default_rng(nbits).integers(-50, 50, (nbits, 3)).astype(dtype)
        sums = hg.split_sums(rows)
        block = 1 << nbits // 2
        lengths = {1, max(block // 2, 1), block, min(2 * block, 1 << nbits), 1 << nbits}
        for length in sorted(lengths):
            for start in range(0, 1 << nbits, length):
                masks = np.arange(start, start + length, dtype=np.int64)
                got = sums(masks)
                want = [sum((rows[i] for i in range(nbits) if m >> i & 1), np.zeros(3, dtype))
                        for m in masks]
                assert got.dtype == dtype and got.shape == (length, 3)
                assert (got == np.array(want)).all()


class TestSubsetSearch:
    # chunk budgets that give one chunk, a few rows per chunk and one row per chunk
    BUDGETS = (1 << 20, 64, 1)

    def search(self, n, table, cands):
        t = Table(table)
        return hg.subset_search(n, t.rate, 1, t.flip, t.score, t.witness, cands), t

    def test_result_is_a_single_flip_local_minimum(self):
        rng = np.random.default_rng(1)
        for trial in range(60):
            n = int(rng.integers(1, 9))
            table = [int(x) for x in rng.integers(-50, 50, 1 << n)]
            cands = [int(x) for x in rng.integers(0, 1 << n, int(rng.integers(1, 6)))]
            (best, wit), _ = self.search(n, table, cands)
            assert table[wit] == best <= min(table[c] for c in cands)
            assert all(table[wit ^ (1 << i)] >= best for i in range(n))

    def test_equals_the_reference_walk(self, monkeypatch):
        # few distinct scores, so candidates and flips tie often
        rng = np.random.default_rng(2)
        for budget in self.BUDGETS:
            monkeypatch.setattr(hg, "_CHUNK_BYTES", budget)
            for n in range(9):
                for trial in range(12):
                    table = [int(x) for x in rng.integers(0, 3, 1 << n)]
                    cands = [int(x) for x in rng.integers(0, 1 << n, int(rng.integers(1, 40)))]
                    got, t = self.search(n, table, cands)
                    ref = Table(table)
                    want = reference_search(n, None, 1, ref.flip, ref.score, ref.witness, cands)
                    assert got == want
                    assert t.rated == cands  # each candidate rated once, in order

    def test_witness_called_once(self):
        # the descent improves several times, and only the final set is described
        n = 6
        table = [-m.bit_count() for m in range(1 << n)]
        (best, wit), t = self.search(n, table, [0, 1])
        assert (best, wit) == (-n, (1 << n) - 1)
        assert t.witness_calls == 1

    def test_rate_must_match_score(self):
        t = Table([3, 1, 2, 5])
        lying = lambda rows: t.rate(rows) - 1  # noqa: E731
        with pytest.raises(RuntimeError, match="scores 1 by flips, 0 by rate"):
            hg.subset_search(2, lying, 1, t.flip, t.score, t.witness, [0, 1, 2])
        assert t.witness_calls == 0

    def test_first_candidate_taken_then_strict_improvement(self):
        # every set scores 0: the first candidate wins and no flip is kept
        (best, wit), t = self.search(4, [0] * 16, [5, 0, 3])
        assert (best, wit) == (0, 5)
        assert t.rated == [5, 0, 3] and t.visited[0] == 5
        # a later candidate wins only on a strict decrease: 3 ties 6 and comes first
        table = [9] * 8
        table[5], table[3], table[6] = 2, 1, 1
        (best, wit), t = self.search(3, table, [5, 3, 6])
        assert (best, wit) == (1, 3) and t.visited[0] == 3

    def test_unpack_rows_inverts_pack_rows(self):
        rng = np.random.default_rng(3)
        for nbits in (0, 1, 7, 8, 9, 64, 130):
            bits = rng.random((5, nbits)) < 0.5
            rows = hg.unpack_rows(hg.pack_rows(bits), nbits)
            assert rows.dtype == np.uint8 and rows.shape == (5, nbits)
            assert (rows == bits).all()


class TestRandomRows:
    """Rows drawn in blocks of the chunk budget equal those of one draw."""

    @staticmethod
    def one_draw(gen, count, nbits, p):
        return hg.pack_rows(gen.random((count, nbits)) < p)

    @pytest.mark.parametrize("budget", [1, 8 * 7, 8 * 100, 1 << 20])
    def test_blocked_draws_equal_one_draw(self, budget, monkeypatch):
        monkeypatch.setattr(hg, "_CHUNK_BYTES", budget)
        for count, nbits in [(0, 5), (3, 0), (13, 7), (50, 130)]:
            want = self.one_draw(hg.rng(3), count, nbits, 0.3)
            assert hg.random_rows(hg.rng(3), count, nbits, 0.3) == want
        gen = hg.rng(4)
        want = [m for p in (0.25, 0.5, 0.75) for m in self.one_draw(gen, 33, 70, p)]
        assert hg.random_masks(70, hg.rng(4), 100) == want
        G = qr.BipartiteGraph.random(9, 70, 0.5, 5)
        assert list(G.rows) == self.one_draw(hg.rng(5), 9, 70, 0.5)

    def test_draws_hold_one_block(self):
        # a single draw of 3333 x 4900 uniforms would take 125 MiB
        tracemalloc.start()
        try:
            masks = hg.random_masks(4900, hg.rng(0), 10_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(masks) == 9999
        assert peak <= 10 << 20


class TestSampledNeverBeatsExact:
    @pytest.mark.parametrize("star, H", [
        ("vvv", cn.roedl_hypergraph(6, 2)),
        ("ev", cn.tournament_hypergraph(7, 3)),
        ("ee", cn.roedl_hypergraph(3, 4)),
    ])
    def test_star_notions(self, star, H):
        d, eta = F(1, 2), F(1, 30)
        exact = dn.audit_star_dense(H, star, d, eta)
        assert exact.mode == "exact"
        for seed in range(3):
            sampled = dn.audit_star_dense(H, star, d, eta, exact_threshold=0, samples=9, seed=seed)
            assert sampled.mode == "sampled"
            assert sampled.min_slack >= exact.min_slack


# Sampled audits whose candidates all tie (empty instances at d = 0, and
# complete ones at d = 1, where uniform and quasirandom tie), n = 0,
# and quasirandom steps in float64 (q |X| |Y| = 315 < 2^53), int64
# (2^53 <= 3 * 2^56 < 2^63) and Python ints (5 * 2^64 >= 2^63).
ORACLE_CASES = [
    ("uniform roedl", lambda s: dn.audit_uniform_dense(
        cn.roedl_hypergraph(11, s), F(1, 2), F(1, 50), exact_threshold=0, samples=40, seed=s)),
    ("uniform tournament", lambda s: dn.audit_uniform_dense(
        cn.tournament_hypergraph(13, s), F(1, 4), 0, exact_threshold=0, samples=40, seed=s)),
    ("uniform empty", lambda s: dn.audit_uniform_dense(
        hg.make(7, []), 0, 0, exact_threshold=0, samples=12, seed=s)),
    ("uniform complete", lambda s: dn.audit_uniform_dense(
        hg.clique(7), 1, 0, exact_threshold=0, samples=12, seed=s)),
    ("uniform n=0", lambda s: dn.audit_uniform_dense(
        hg.make(0, []), F(1, 2), F(1, 10), exact_threshold=-1, samples=6, seed=s)),
    ("vvv roedl", lambda s: dn.audit_star_dense(
        cn.roedl_hypergraph(8, s), "vvv", F(1, 2), F(1, 20),
        exact_threshold=0, samples=15, seed=s)),
    ("vvv empty", lambda s: dn.audit_star_dense(
        hg.make(6, []), "vvv", 0, 0, exact_threshold=0, samples=9, seed=s)),
    ("vvv complete", lambda s: dn.audit_star_dense(
        hg.clique(6), "vvv", 1, 0, exact_threshold=0, samples=9, seed=s)),
    ("vvv n=0", lambda s: dn.audit_star_dense(
        hg.make(0, []), "vvv", F(1, 2), 0, exact_threshold=-1, samples=6, seed=s)),
    ("ev tournament", lambda s: dn.audit_star_dense(
        cn.tournament_hypergraph(9, s), "ev", F(1, 4), F(1, 20),
        exact_threshold=0, samples=15, seed=s)),
    ("ev empty", lambda s: dn.audit_star_dense(
        hg.make(6, []), "ev", 0, 0, exact_threshold=0, samples=9, seed=s)),
    ("ev complete", lambda s: dn.audit_star_dense(
        hg.clique(6), "ev", 1, 0, exact_threshold=0, samples=9, seed=s)),
    ("ev n=0", lambda s: dn.audit_star_dense(
        hg.make(0, []), "ev", F(1, 2), 0, exact_threshold=-1, samples=6, seed=s)),
    ("ee roedl", lambda s: dn.audit_star_dense(
        cn.roedl_hypergraph(5, s), "ee", F(1, 2), F(1, 20), exact_threshold=0, samples=9, seed=s)),
    ("ee empty", lambda s: dn.audit_star_dense(
        hg.make(4, []), "ee", 0, 0, exact_threshold=0, samples=6, seed=s)),
    ("ee complete", lambda s: dn.audit_star_dense(
        hg.clique(4), "ee", 1, 0, exact_threshold=0, samples=6, seed=s)),
    ("ee n=0", lambda s: dn.audit_star_dense(
        hg.make(0, []), "ee", F(1, 2), 0, exact_threshold=-1, samples=6, seed=s)),
    ("quasirandom float64", lambda s: qr.audit_quasirandom(
        qr.BipartiteGraph.random(9, 7, 0.4, s), F(1, 5), F(2, 5),
        exact_bits=0, samples=30, seed=s)),
    ("quasirandom int64", lambda s: qr.audit_quasirandom(
        qr.BipartiteGraph.random(12, 16, 0.5, s), F(1, 5), F(3, 2**50),
        exact_bits=0, samples=30, seed=s)),
    ("quasirandom object", lambda s: qr.audit_quasirandom(
        qr.BipartiteGraph.random(5, 4, 0.5, s), F(1, 5), F(1, 2**62),
        exact_bits=0, samples=30, seed=s)),
    ("quasirandom empty", lambda s: qr.audit_quasirandom(
        qr.BipartiteGraph.from_edges(5, 6, []), 0, 0, exact_bits=0, samples=9, seed=s)),
    ("quasirandom complete", lambda s: qr.audit_quasirandom(
        qr.BipartiteGraph.complete(6, 5), 0, 1, exact_bits=0, samples=9, seed=s)),
]


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("name, audit", ORACLE_CASES, ids=[name for name, _ in ORACLE_CASES])
def test_sampled_report_equals_the_reference_walk(name, audit, seed, monkeypatch):
    got = audit(seed).to_dict()
    assert got["mode"] == "sampled"
    monkeypatch.setattr(dn, "subset_search", reference_search)
    monkeypatch.setattr(qr, "subset_search", reference_search)
    assert got == audit(seed).to_dict()


def test_quasirandom_huge_denominator_matches_brute_force():
    # q |X| |Y| beyond int64: the deviation stays exact
    G = qr.BipartiteGraph.random(4, 5, 0.5, 3)
    d = F(1, 2**62)
    want = max(
        abs(G.e([x for x in range(4) if a >> x & 1], [y for y in range(5) if b >> y & 1])
            - d * bin(a).count("1") * bin(b).count("1"))
        for a in range(16)
        for b in range(32)
    )
    assert qr.audit_quasirandom(G, F(1, 10), d).max_deviation == want / 20


# Reports as the audits gave them before the engine was shared (ties included).
CASES = [
    ("uniform exact", lambda: dn.audit_uniform_dense(
        cn.tournament_hypergraph(7, 1), F(1, 4), F(1, 50))),
    ("uniform sampled", lambda: dn.audit_uniform_dense(
        cn.roedl_hypergraph(9, 2), F(1, 2), 0, exact_threshold=0, samples=30, seed=1)),
    ("uniform complete d=1", lambda: dn.audit_uniform_dense(hg.clique(5), 1, 0)),
    ("uniform empty d=0 sampled", lambda: dn.audit_uniform_dense(
        hg.make(5, []), 0, 0, exact_threshold=0, samples=6, seed=0)),
    ("vvv exact", lambda: dn.audit_star_dense(
        cn.tournament_hypergraph(5, 9), "vvv", F(1, 4), F(1, 30))),
    ("vvv sampled", lambda: dn.audit_star_dense(
        cn.roedl_hypergraph(7, 3), "vvv", F(1, 2), F(1, 20),
        exact_threshold=0, samples=12, seed=2)),
    ("ev exact", lambda: dn.audit_star_dense(cn.roedl_hypergraph(4, 1), "ev", F(1, 2), F(1, 40))),
    ("ev sampled", lambda: dn.audit_star_dense(
        cn.tournament_hypergraph(5, 2), "ev", F(1, 4), F(1, 20),
        exact_threshold=0, samples=9, seed=0)),
    ("ee exact", lambda: dn.audit_star_dense(
        hg.Hypergraph3(3, [(0, 1, 2)]), "ee", F(1, 3), F(1, 40))),
    ("ee sampled", lambda: dn.audit_star_dense(
        cn.roedl_hypergraph(4, 1), "ee", F(1, 2), F(1, 20), exact_threshold=0, samples=6, seed=2)),
    ("ee empty d=0", lambda: dn.audit_star_dense(hg.make(3, []), "ee", 0, F(1, 100))),
    ("quasirandom exact", lambda: qr.audit_quasirandom(
        qr.BipartiteGraph.random(5, 6, 0.5, 4), F(1, 10), F(1, 2))),
    ("quasirandom exact transposed", lambda: qr.audit_quasirandom(
        qr.BipartiteGraph.random(6, 3, 0.5, 7), F(1, 10), F(1, 3))),
    ("quasirandom sampled", lambda: qr.audit_quasirandom(
        qr.BipartiteGraph.random(6, 7, 0.4, 5), F(1, 5), F(2, 5),
        exact_bits=0, samples=12, seed=3)),
    ("quasirandom complete d=1", lambda: qr.audit_quasirandom(
        qr.BipartiteGraph.complete(3, 4), 0, 1)),
    # the first sampled candidate is empty and every deviation is 0: the empty A stays
    ("quasirandom empty d=0 sampled", lambda: qr.audit_quasirandom(
        qr.BipartiteGraph.from_edges(1, 1, []), 0, 0, exact_bits=0, samples=12, seed=0)),
]

PINNED = {
    "uniform exact": {
        "notion": "uniform", "mode": "exact", "d": "1/4", "eta": "1/50", "min_slack": "134/25",
        "ok": True, "worst_witness": {"U": [0, 3, 4, 5, 6]}, "space": "128", "samples": None,
        "seed": None, "rng_algorithm": None,
    },
    "uniform sampled": {
        "notion": "uniform", "mode": "sampled", "d": "1/2", "eta": "0", "min_slack": "-3",
        "ok": False, "worst_witness": {"U": [0, 1, 2, 6, 7, 8]}, "space": None, "samples": 50,
        "seed": 1, "rng_algorithm": "numpy-pcg64",
    },
    "uniform complete d=1": {
        "notion": "uniform", "mode": "exact", "d": "1", "eta": "0", "min_slack": "0",
        "ok": True, "worst_witness": {"U": []}, "space": "32", "samples": None, "seed": None,
        "rng_algorithm": None,
    },
    "uniform empty d=0 sampled": {
        "notion": "uniform", "mode": "sampled", "d": "0", "eta": "0", "min_slack": "0",
        "ok": True, "worst_witness": {"U": []}, "space": None, "samples": 18, "seed": 0,
        "rng_algorithm": "numpy-pcg64",
    },
    "vvv exact": {
        "notion": "vvv", "mode": "exact", "d": "1/4", "eta": "1/30", "min_slack": "-181/12",
        "ok": False,
        "worst_witness": {"A": [0, 1, 2, 3, 4], "B": [0, 1, 2, 3, 4], "C": [0, 1, 2, 3, 4]},
        "space": "32768", "samples": None, "seed": None, "rng_algorithm": None,
    },
    "vvv sampled": {
        "notion": "vvv", "mode": "sampled", "d": "1/2", "eta": "1/20", "min_slack": "-1217/20",
        "ok": False,
        "worst_witness": {
            "A": [0, 1, 2, 3, 5, 6],
            "B": [0, 1, 2, 3, 5, 6],
            "C": [0, 1, 2, 3, 5, 6],
        },
        "space": None, "samples": 28, "seed": 2, "rng_algorithm": "numpy-pcg64",
    },
    "ev exact": {
        "notion": "ev", "mode": "exact", "d": "1/2", "eta": "1/40", "min_slack": "-67/5",
        "ok": False,
        "worst_witness": {
            "A": [0, 1, 2],
            "P": [
                [0, 0], [0, 1], [0, 2], [1, 0], [1, 1], [1, 2], [2, 0], [2, 1], [2, 2], [3, 3],
            ],
        },
        "space": "1048576", "samples": None, "seed": None, "rng_algorithm": None,
    },
    "ev sampled": {
        "notion": "ev", "mode": "sampled", "d": "1/4", "eta": "1/20", "min_slack": "-43/4",
        "ok": False,
        "worst_witness": {
            "A": [0, 1, 2, 4],
            "P": [
                [0, 0], [0, 1], [0, 2], [0, 4], [1, 0], [1, 1], [1, 2], [1, 4], [2, 0], [2, 1],
                [2, 2], [2, 4], [3, 3], [4, 0], [4, 1], [4, 2], [4, 4],
            ],
        },
        "space": None, "samples": 21, "seed": 0, "rng_algorithm": "numpy-pcg64",
    },
    "ee exact": {
        "notion": "ee", "mode": "exact", "d": "1/3", "eta": "1/40", "min_slack": "-133/40",
        "ok": False,
        "worst_witness": {
            "P": [[0, 0], [0, 2], [1, 0], [1, 1], [2, 1], [2, 2]],
            "Q": [[0, 0], [0, 1], [1, 1], [1, 2], [2, 0], [2, 2]],
        },
        "space": "262144", "samples": None, "seed": None, "rng_algorithm": None,
    },
    "ee sampled": {
        "notion": "ee", "mode": "sampled", "d": "1/2", "eta": "1/20", "min_slack": "-64/5",
        "ok": False,
        "worst_witness": {
            "P": [
                [0, 0], [0, 1], [0, 2], [1, 0], [1, 1], [1, 2], [1, 3], [2, 0], [2, 1], [2, 2],
                [2, 3], [3, 3],
            ],
            "Q": [
                [0, 0], [0, 1], [0, 2], [1, 0], [1, 1], [1, 2], [2, 0], [2, 1], [2, 2], [3, 1],
                [3, 2], [3, 3],
            ],
        },
        "space": None, "samples": 8, "seed": 2, "rng_algorithm": "numpy-pcg64",
    },
    "ee empty d=0": {
        "notion": "ee", "mode": "exact", "d": "0", "eta": "1/100", "min_slack": "27/100",
        "ok": True, "worst_witness": {"P": [], "Q": []}, "space": "262144", "samples": None,
        "seed": None, "rng_algorithm": None,
    },
    "quasirandom exact": {
        "mode": "exact", "delta": "1/10", "d": "1/2", "ok": False, "max_deviation": "1/6",
        "slack": "-1/15", "witness_A": [0, 1, 2, 3], "witness_B": [1, 2, 4], "samples": None,
        "seed": None,
    },
    "quasirandom exact transposed": {
        "mode": "exact", "delta": "1/10", "d": "1/3", "ok": False, "max_deviation": "13/54",
        "slack": "-19/135", "witness_A": [1, 2, 3, 4], "witness_B": [0, 1], "samples": None,
        "seed": None,
    },
    "quasirandom sampled": {
        "mode": "sampled", "delta": "1/5", "d": "2/5", "ok": True, "max_deviation": "19/210",
        "slack": "23/210", "witness_A": [0, 2, 3, 5], "witness_B": [1, 4, 6], "samples": 25,
        "seed": 3,
    },
    "quasirandom complete d=1": {
        "mode": "exact", "delta": "0", "d": "1", "ok": True, "max_deviation": "0", "slack": "0",
        "witness_A": [0], "witness_B": [], "samples": None, "seed": None,
    },
    "quasirandom empty d=0 sampled": {
        "mode": "sampled", "delta": "0", "d": "0", "ok": True, "max_deviation": "0",
        "slack": "0", "witness_A": [], "witness_B": [], "samples": 15, "seed": 0,
    },
}


@pytest.mark.parametrize("name, audit", CASES, ids=[name for name, _ in CASES])
def test_report_pinned(name, audit):
    assert audit().to_dict() == PINNED[name]
