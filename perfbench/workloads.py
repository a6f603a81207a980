"""The three benchmark workloads as fixed job lists, with their output checks.

Each job calls one public function of one ``unidense`` module (the job's
layer) and names the per-layer time metric its call counts towards.  Every
argument that selects the mode or the amount of work (exact thresholds,
sample counts, budgets, probe seeds and every seed) is passed explicitly, so
a later change of a library default cannot change what the benchmark
computes.

A check runs outside the timed region.  It raises ``CheckError`` when the
output is wrong, and otherwise returns an ``Outcome``: a fingerprint that the
worker compares with the seed commit's value at the default seed, the work
counts read from the returned object, and whether the job ended inconclusive.
The checks themselves hold for every seed: certificates, maps and embeddings
are re-validated by the library's independent checkers, reported worst
witnesses are re-evaluated, generated hypergraphs are compared with oracles,
and verdicts that are theorems are required.  Witnesses, embeddings and node
counts are judged by validity, never by identity, so a faster search may
return a different valid answer.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb
from typing import Callable

import numpy as np

from unidense import cli
from unidense import construct as con
from unidense import density as den
from unidense import hypergraph as hg
from unidense import io as uio
from unidense import palette as pal
from unidense import quasirandom as qr
from unidense import reduced as red

DEFAULT_SEED = 0
PROBE_STEPS = 400_000  # the library default, pinned
TABLE_BUDGET = 200_000
CERT_BUDGET = 3_000_000
HALF = Fraction(1, 2)
QUARTER = Fraction(1, 4)
TENTH = Fraction(1, 10)
FIFTH = Fraction(1, 5)


class CheckError(Exception):
    """A job's output failed its check."""


def need(cond, msg: str) -> None:
    if not cond:
        raise CheckError(msg)


@dataclass
class Outcome:
    fingerprint: object = None
    counts: dict = field(default_factory=dict)
    inconclusive: bool = False


@dataclass
class Job:
    name: str  # "<layer>.<function>": the public function the job calls
    label: str  # the instance; unique within a workload
    metric: str  # per-layer time metric the call counts towards
    call: Callable[[dict], object]  # receives the results stored by earlier jobs of the pass
    check: Callable[[object, dict], Outcome]
    store: str | None = None  # key under which later jobs of the pass find the result

    @property
    def key(self) -> str:
        return f"{self.name}[{self.label}]"


def _digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


def _edges_digest(H) -> list:
    return [H.n, H.edge_count, _digest(H.edges)]


def _relabelled(F, seed):
    perm = np.random.Generator(np.random.PCG64(seed)).permutation(F.n)
    return hg.make(F.n, [(perm[a], perm[b], perm[c]) for a, b, c in F.edges])


# -- certify -------------------------------------------------------------------

# Catalogue pairs whose exhaustion ("free") is a theorem of the table.
CATALOGUE = (
    ("tournament", "k4minus"),
    ("roedl", "k4"),
    ("star4", "star4"),
    ("ramsey6", "k6"),
    ("cycle5", "cycle5"),
    ("ee5", "k5"),
    ("ee6", "k6"),
    ("roedl(3)", "k5"),
)
# (F, palette) pairs with a known certificate, searched under CERT_BUDGET.
CERTIFICATES = (("fano", "rainbow"), ("k5", "ee6"), ("k10", "ee11"))
# The table row that may stay pending under its budget.
BUDGETED_ROW = ("ee11", "k11")


def _table(st):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(["table", "--budget", str(TABLE_BUDGET)])
    return rc, buf.getvalue()


def _check_table(res, st) -> Outcome:
    rc, text = res
    need(rc == 0, f"table exit code {rc}")
    rows = [line.split(None, 5) for line in text.splitlines()[1:]]
    need(len(rows) == 11 and all(len(r) == 6 for r in rows), "table has not 11 rows")
    pending = False
    fingerprint = []
    for pal_spec, f_spec, notion, density, verdict, _bound in rows:
        if (pal_spec, f_spec) == BUDGETED_ROW:
            need(verdict in ("pending", "free"), f"budgeted row verdict {verdict}")
            pending = verdict == "pending"
            verdict = "pending|free"
        else:
            need(verdict == "free", f"row {pal_spec}/{f_spec} verdict {verdict}")
        fingerprint.append([pal_spec, f_spec, notion, density, verdict])
    return Outcome(fingerprint, inconclusive=pending)


def _check_free(res, st) -> Outcome:
    need(res.status == "free", f"status {res.status}, expected free")
    return Outcome([res.status, str(res.space)], {"palette.nodes": res.nodes})


def _certificate_check(F, P):
    def check(res, st) -> Outcome:
        need(res.status != "free", "free verdict for an instance with a known certificate")
        if res.status == "certificate":
            need(pal.check_certificate(F, P, res.certificate), "certificate fails validation")
        return Outcome(
            [res.status, str(res.space)],
            {"palette.nodes": res.nodes},
            inconclusive=res.status == "inconclusive",
        )

    return check


def _map_check(F, A):
    def check(res, st) -> Outcome:
        if res.status == "map":
            need(red.validate_reduced_map(F, A, res.reduced_map), "reduced map fails validation")
        need(res.status == "free", f"status {res.status}, expected free")
        return Outcome([res.status], {"reduced.map_nodes": res.nodes})

    return check


def _cnf_check(F, P, ordering):
    K = len(P.base.colors)
    npairs = len(F.shadow())
    forbidden = K**3 - len(P.pattern_codes())

    def check(res, st) -> Outcome:
        nvars, clauses, varmap, meta = res
        need(nvars == npairs * K and len(varmap) == nvars, "variable count")
        want = npairs * (1 + comb(K, 2)) + F.edge_count * forbidden
        need(len(clauses) == want, f"{len(clauses)} clauses, expected {want}")
        need(all(0 < abs(x) <= nvars for c in clauses for x in c), "literal out of range")
        need(meta["ordering"] == list(ordering), "ordering not recorded")
        canon = sorted(tuple(sorted(c)) for c in clauses)
        return Outcome([nvars, len(clauses), _digest(canon)])

    return check


def certify(seed: int, tmp: str) -> list[Job]:
    jobs = [Job("cli.main", "table", "cli.table_s", _table, _check_table)]
    for k, (p_spec, f_spec) in enumerate(CATALOGUE):
        P, F = pal.builtin(p_spec), _relabelled(hg.named(f_spec), (seed, k))
        jobs.append(
            Job(
                "palette.representable",
                f"{f_spec}/{p_spec}",
                "palette.representable_s",
                lambda st, F=F, P=P: pal.representable(
                    F, P, budget=None, probe_seed=0, probe_steps=PROBE_STEPS
                ),
                _check_free,
            )
        )
    for k, (f_spec, p_spec) in enumerate(CERTIFICATES, len(CATALOGUE)):
        P, F = pal.builtin(p_spec), _relabelled(hg.named(f_spec), (seed, k))
        jobs.append(
            Job(
                "palette.representable",
                f"{f_spec}/{p_spec}",
                "palette.representable_s",
                lambda st, F=F, P=P: pal.representable(
                    F, P, budget=CERT_BUDGET, probe_seed=0, probe_steps=PROBE_STEPS
                ),
                _certificate_check(F, P),
            )
        )
    for t, p_spec in ((6, "ee6"), (5, "ee5")):
        F, A = hg.clique(t), red.from_palette(pal.builtin(p_spec), t)
        jobs.append(
            Job(
                "reduced.find_reduced_map",
                f"k{t}/{p_spec}x{t}",
                "reduced.map_s",
                lambda st, F=F, A=A: red.find_reduced_map(F, A, budget=None, injective=False),
                _map_check(F, A),
            )
        )
    F, P = hg.clique(11), pal.builtin("ee11")
    ordering = tuple(int(v) for v in np.random.Generator(np.random.PCG64(seed)).permutation(11))
    jobs.append(
        Job(
            "palette.cnf_encoding",
            "k11/ee11",
            "palette.cnf_s",
            lambda st: pal.cnf_encoding(F, P, ordering=ordering),
            _cnf_check(F, P, ordering),
        )
    )
    return jobs


# -- audit ---------------------------------------------------------------------


def _witness_slack(H, rep):
    w = rep.worst_witness
    if rep.notion == "uniform":
        return den.slack_uniform(H, rep.d, rep.eta, w["U"])
    if rep.notion == "vvv":
        return den.slack_vvv(H, rep.d, rep.eta, w["A"], w["B"], w["C"])
    P = {tuple(p) for p in w["P"]}
    if rep.notion == "ev":
        return den.slack_ev(H, rep.d, rep.eta, w["A"], P)
    return den.slack_ee(H, rep.d, rep.eta, P, {tuple(q) for q in w["Q"]})


def _density_check(H, mode, enumerated_bits=None):
    """Mode as requested, and the reported minimum re-evaluated at its witness.

    H is the audited hypergraph, or the key of a hypergraph generated earlier
    in the pass.
    """

    def check(rep, st) -> Outcome:
        G = st[H] if isinstance(H, str) else H
        need(rep.mode == mode, f"mode {rep.mode}, requested {mode}")
        need(_witness_slack(G, rep) == rep.min_slack, "worst witness does not give min_slack")
        need(rep.min_slack <= rep.eta * G.n**3, "min_slack above the empty witness")
        if mode == "exact":
            return Outcome(
                [rep.mode, str(rep.min_slack), str(rep.space)],
                {"density.exact_subsets": 1 << enumerated_bits},
            )
        return Outcome(
            [rep.mode, str(rep.min_slack), rep.samples],
            {"density.sampled_witnesses": rep.samples},
        )

    return check


def _quasirandom_check(G, mode):
    def check(rep, st) -> Outcome:
        need(rep.mode == mode, f"mode {rep.mode}, requested {mode}")
        A, B = rep.witness_A, rep.witness_B
        dev = abs(G.e(A, B) - rep.d * len(A) * len(B)) / (G.nx * G.ny)
        need(dev == rep.max_deviation, "witness does not give max_deviation")
        need(rep.ok == (rep.max_deviation <= rep.delta), "ok flag")
        fingerprint = [rep.mode, str(rep.max_deviation), rep.ok, rep.samples]
        if mode == "exact":
            return Outcome(fingerprint, {"quasirandom.exact_subsets": 1 << min(G.nx, G.ny)})
        return Outcome(fingerprint)

    return check


def _uniform_exact_job(H, label):
    return Job(
        "density.audit_uniform_dense",
        label,
        "density.exact_s",
        lambda st: den.audit_uniform_dense(
            H, QUARTER, TENTH, exact_threshold=H.n, samples=2000, seed=0
        ),
        _density_check(H, "exact", H.n),
    )


def _star_exact_job(H, star, d, label, bits):
    return Job(
        "density.audit_star_dense",
        label,
        "density.exact_s",
        lambda st: den.audit_star_dense(
            H, star, d, TENTH, exact_threshold=H.n, samples=2000, seed=0
        ),
        _density_check(H, "exact", bits),
    )


def _quasirandom_exact_job(G, label):
    return Job(
        "quasirandom.audit_quasirandom",
        label,
        "quasirandom.exact_s",
        lambda st: qr.audit_quasirandom(
            G, FIFTH, HALF, exact_bits=min(G.nx, G.ny), samples=2000, seed=0
        ),
        _quasirandom_check(G, "exact"),
    )


def audit(seed: int, tmp: str) -> list[Job]:
    t18 = con.tournament_hypergraph(18, (seed, 0))
    t20 = con.tournament_hypergraph(20, (seed, 1))
    t9 = con.tournament_hypergraph(9, (seed, 2))
    r13 = con.roedl_hypergraph(13, (seed, 3))
    t4 = con.tournament_hypergraph(4, (seed, 4))
    g16 = qr.BipartiteGraph.random(16, 40, 0.5, (seed, 5))
    g18 = qr.BipartiteGraph.random(18, 40, 0.5, (seed, 6))
    return [
        _uniform_exact_job(t18, "uniform tournament(18)"),
        _uniform_exact_job(t20, "uniform tournament(20)"),
        _star_exact_job(t9, "vvv", QUARTER, "vvv tournament(9)", 9),
        _star_exact_job(r13, "ev", HALF, "ev roedl(13)", 13),
        _star_exact_job(t4, "ee", QUARTER, "ee tournament(4)", 16),
        _quasirandom_exact_job(g16, "random 16x40"),
        _quasirandom_exact_job(g18, "random 18x40"),
    ]


# -- construct -----------------------------------------------------------------


def _pair_code_matrix(n, palette, seed):
    """Upper-triangular pair colours from the generators' own colouring stream."""
    M = np.full((n, n), -1, dtype=np.int64)
    M[np.triu_indices(n, 1)] = con.random_pair_coloring(n, palette.base, seed).codes
    return M


def _pattern_oracle(kind, n, seed):
    """Check a generated hypergraph against its defining rule and exact edge count.

    tournament: {x<y<z} is an edge iff its arcs form a cycle, and there are
    C(n,3) - sum_v C(outdeg v, 2) cyclic triangles.  roedl: x<y<z is an edge
    iff xy and xz differ in colour, and there are sum_x a_x b_x of them, where
    a_x and b_x count the two colours on the pairs (x, y>x).
    """

    def check(H, st) -> Outcome:
        need(H.n == n, "vertex count")
        M = _pair_code_matrix(n, pal.builtin(kind), seed)
        E = np.array(H.edges, dtype=np.int64).reshape(-1, 3)
        cxy, cxz, cyz = M[E[:, 0], E[:, 1]], M[E[:, 0], E[:, 2]], M[E[:, 1], E[:, 2]]
        up = M >= 0
        if kind == "tournament":
            need(bool(np.all((cxy == cyz) & (cxy != cxz))), "edge is not a cyclic triangle")
            outdeg = ((M == 0) & up).sum(axis=1) + ((M == 1) & up).sum(axis=0)
            want = comb(n, 3) - sum(comb(int(k), 2) for k in outdeg)
        else:
            need(bool(np.all(cxy != cxz)), "edge breaks the roedl rule")
            a = ((M == 0) & up).sum(axis=1)
            b = ((M == 1) & up).sum(axis=1)
            want = int((a * b).sum())
        need(H.edge_count == want, f"{H.edge_count} edges, expected {want}")
        return Outcome(
            _edges_digest(H), {"hypergraph.edges": H.edge_count, "construct.edges": H.edge_count}
        )

    return check


def _generate(kind, n, seed, store, oracle_direct=False):
    gen = con.tournament_hypergraph if kind == "tournament" else con.roedl_hypergraph
    pattern = _pattern_oracle(kind, n, seed)

    def check(H, st) -> Outcome:
        out = pattern(H, st)
        if oracle_direct:
            need(H == con.tournament_hypergraph_direct(n, seed), "differs from the direct oracle")
        return out

    return Job(
        f"construct.{gen.__name__}",
        f"{kind}({n})",
        "construct.generate_s",
        lambda st: gen(n, seed),
        check,
        store=store,
    )


def _check_write(path, key):
    def check(res, st) -> Outcome:
        H = st[key]
        with open(path, "rb") as fh:
            data = fh.read()
        need(data.startswith(f"{H.n} {H.edge_count}\n".encode()), "header")
        need(data.count(b"\n") == H.edge_count + 1, "line count")
        return Outcome([len(data), _digest(data)], {"io.bytes": len(data)})

    return check


def _check_equal(key, what):
    def check(H, st) -> Outcome:
        need(H == st[key], f"{what} differs from the generated hypergraph")
        return Outcome(_edges_digest(H), {"hypergraph.edges": H.edge_count})

    return check


def _check_false(theorem):
    def check(res, st) -> Outcome:
        need(res is False, f"theorem violated: {theorem}")
        return Outcome(False)

    return check


def _embedding_check(F, key, theorem=None):
    """Validate a found embedding; with a theorem, require that none exists."""

    def check(emb, st) -> Outcome:
        if emb is not None:
            need(hg.check_embedding(F, st[key], emb), "embedding fails validation")
        need(theorem is None or emb is None, f"theorem violated: {theorem}")
        return Outcome(emb is not None)

    return check


def _check_reduced(A, st) -> Outcome:
    # (1/2, ee)-density itself is the next job's check
    need(A.indices == tuple(range(19)), "index set")
    need(set(A.class_sizes.values()) == {8}, "class sizes")
    cons = sorted((ijk, sorted(e)) for ijk, e in A.constituents.items())
    edges = sum(len(e) for e in A.constituents.values())
    return Outcome([edges, _digest(cons)], {"reduced.constituent_edges": edges})


def _check_dense(res, st) -> Outcome:
    need(res.ok and res.min_ratio >= HALF and res.witness is None, "not (1/2, ee)-dense")
    return Outcome([res.ok, str(res.min_ratio)])


def _check_exceptional(res, st) -> Outcome:
    # an (1/2, ee)-dense instance has no low pair degrees at 1/2
    need(res.total() == 0, f"{res.total()} exceptional pairs in a dense instance")
    return Outcome(res.total())


def _check_purge(res, st) -> Outcome:
    # ee-density 1/2 gives every vertex ev-degree at least 1/2 of its bound
    need(res.reduced == st["A"], "purge removed vertices from a dense instance")
    return Outcome(sum(len(k) for k in res.kept.values()))


def _check_tetra(rm, st) -> Outcome:
    need(red.validate_reduced_map(hg.clique(4), st["A"], rm), "tetrahedron map fails validation")
    return Outcome(True)


def _check_projection(res, st) -> Outcome:
    A, B, psi = st["A"], res.reduced, res.psi
    for ijk, edges in B.constituents.items():
        images = [psi[p] for p in A.roles(ijk)]
        targets = A.constituents[ijk]
        need(
            all((images[0][a], images[1][b], images[2][c]) in targets for a, b, c in edges),
            f"projected edge of {ijk} has no image edge",
        )
    cons = sorted((ijk, sorted(e)) for ijk, e in B.constituents.items())
    return Outcome([_digest(sorted(psi.items())), _digest(cons)])


def _check_lift(res, st) -> Outcome:
    """The lift's edges are exactly the crossing triples whose three pair
    colours form a constituent edge."""
    A, H, pc = st["A"], res.hypergraph, res.coloring
    h = pc.block_size
    codes = {pair: c.tolist() for pair, c in pc.codes.items()}
    want = set()
    for t, u, w in itertools.combinations(range(len(A.indices)), 3):
        i, j, k = A.indices[t], A.indices[u], A.indices[w]
        cij, cik, cjk, cons = codes[(i, j)], codes[(i, k)], codes[(j, k)], A.constituents[(i, j, k)]
        for x, y, z in itertools.product(range(h), repeat=3):
            if (cij[x][y], cik[x][z], cjk[y][z]) in cons:
                want.add((t * h + x, u * h + y, w * h + z))
    need(H.n == h * len(A.indices) and set(H.edges) == want, "lift edges differ from the rule")
    return Outcome(_edges_digest(H), {"hypergraph.edges": H.edge_count, "construct.edges": H.edge_count})


def _check_triangles(P):
    def check(count, st) -> Outcome:
        def dense(G):
            return np.array([[r >> y & 1 for y in range(G.ny)] for r in G.rows], dtype=np.int64)

        XY, XZ, YZ = dense(P.xy), dense(P.xz), dense(P.yz)
        need(count == int((XY * (XZ @ YZ.T)).sum()), "triangle count differs from the matrix count")
        return Outcome(count)

    return check


def construct(seed: int, tmp: str) -> list[Job]:
    k4m, k4 = hg.clique_minus4(), hg.clique(4)
    path = os.path.join(tmp, "tournament150.txt")
    g64 = qr.BipartiteGraph.random(64, 64, 0.5, (seed, 20))
    tri = qr.TripartiteGraph.random((256, 256, 256), 0.5, (seed, 21))
    return [
        _generate("tournament", 150, (seed, 0), "T150"),
        _generate("roedl", 120, (seed, 1), "R120"),
        Job("io.write_hypergraph", "tournament(150)", "io.write_s",
            lambda st: uio.write_hypergraph(st["T150"], path), _check_write(path, "T150")),
        Job("io.read_hypergraph", "tournament(150)", "io.read_s",
            lambda st: uio.read_hypergraph(path), _check_equal("T150", "read-back")),
        Job("hypergraph.make", "roedl(120)", "hypergraph.make_s",
            lambda st: hg.make(st["R120"].n, st["R120"].edges), _check_equal("R120", "rebuild")),
        Job("hypergraph.contains_clique4_minus", "tournament(150)", "hypergraph.contains_s",
            lambda st: hg.contains_clique4_minus(st["T150"]),
            _check_false("a tournament hypergraph has no K4-")),
        Job("hypergraph.contains_clique4", "roedl(120)", "hypergraph.contains_s",
            lambda st: hg.contains_clique4(st["R120"]),
            _check_false("a roedl hypergraph has no K4")),
        _generate("tournament", 40, (seed, 2), "T40", oracle_direct=True),
        _generate("roedl", 36, (seed, 3), "R36"),
        Job("hypergraph.find_embedding", "k4minus in tournament(40)", "hypergraph.find_embedding_s",
            lambda st: hg.find_embedding(k4m, st["T40"]), _embedding_check(k4m, "T40", "a tournament hypergraph has no K4-")),
        Job("hypergraph.find_embedding", "k4 in roedl(36)", "hypergraph.find_embedding_s",
            lambda st: hg.find_embedding(k4, st["R36"]), _embedding_check(k4, "R36", "a roedl hypergraph has no K4")),
        Job("hypergraph.find_embedding", "k4minus in roedl(36)", "hypergraph.find_embedding_s",
            lambda st: hg.find_embedding(k4m, st["R36"]), _embedding_check(k4m, "R36")),
        Job("reduced.random_dense_reduced", "m=19 size=8 d=1/2", "reduced.generate_s",
            lambda st: red.random_dense_reduced(19, 8, HALF, seed=seed), _check_reduced, store="A"),
        Job("reduced.check_dense", "ee d=1/2", "reduced.scan_s",
            lambda st: red.check_dense(st["A"], "ee", HALF), _check_dense),
        Job("reduced.exceptional_sets", "ee d=1/2", "reduced.scan_s",
            lambda st: red.exceptional_sets(st["A"], "ee", HALF), _check_exceptional),
        Job("reduced.purge_ev", "d=1/2", "reduced.scan_s",
            lambda st: red.purge_ev(st["A"], HALF), _check_purge),
        Job("reduced.tetrahedron_greedy", "eps=1/2", "reduced.tetra_s",
            lambda st: red.tetrahedron_greedy(st["A"], HALF), _check_tetra),
        Job("reduced.project_random", "ell=6", "reduced.project_s",
            lambda st: red.project_random(st["A"], 6, seed=seed), _check_projection),
        Job("construct.lift_reduced", "h=4", "construct.lift_s",
            lambda st: con.lift_reduced(st["A"], 4, seed), _check_lift),
        _generate("tournament", 60, (seed, 4), "T60", oracle_direct=True),
        Job("density.audit_uniform_dense", "uniform tournament(60)", "density.sampled_s",
            lambda st: den.audit_uniform_dense(
                st["T60"], QUARTER, TENTH, exact_threshold=22, samples=500, seed=seed),
            _density_check("T60", "sampled")),
        _generate("roedl", 40, (seed, 5), "R40"),
        Job("density.audit_star_dense", "ev roedl(40)", "density.sampled_s",
            lambda st: den.audit_star_dense(
                st["R40"], "ev", HALF, TENTH, exact_threshold=12, samples=100, seed=seed),
            _density_check("R40", "sampled")),
        Job("quasirandom.audit_quasirandom", "random 64x64", "quasirandom.sampled_s",
            lambda st: qr.audit_quasirandom(
                g64, FIFTH, HALF, exact_bits=20, samples=2000, seed=seed),
            _quasirandom_check(g64, "sampled")),
        Job("quasirandom.triangle_count", "random 256x256x256", "quasirandom.triangle_s",
            lambda st: qr.triangle_count(tri), _check_triangles(tri)),
    ]


WORKLOADS = {"certify": certify, "audit": audit, "construct": construct}


def fingerprint_json(value):
    """Canonical JSON form of a fingerprint, as stored in expected_seed0.json."""
    return json.loads(json.dumps(value))
