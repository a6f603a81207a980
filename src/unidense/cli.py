"""Command-line front end.

Subcommands: palette {info, closure}, certify, table, gen {tournament, roedl,
palette, lift}, audit {uniform, star, quasirandom, counting-lemma}, reduced
{check, purge, project, map, tetra}.

Exit codes: 0 = verdict obtained (either way), 2 = inconclusive,
64+ = usage or I/O errors.  Rationals are "p/q" strings; floats are rejected
for d, eta, and delta.  Every command is deterministic given its full flag set
including the seed; rerunning byte-reproduces the JSON report apart from the
"timing" key.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time
from fractions import Fraction
from pathlib import Path

from . import __version__
from . import construct as _construct
from . import density as _density
from . import hypergraph as _hg
from . import io as _io
from . import palette as _palette
from . import quasirandom as _qr
from . import reduced as _reduced

EX_OK = 0
EX_INCONCLUSIVE = 2
EX_USAGE = 64
EX_IOERR = 66


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse reads an argument that starts with "-" as a flag unless it
        # looks like a negative number; count "-p/q" as one, so that
        # "--eta -1/10" reaches the domain check instead of failing to parse
        self._negative_number_matcher = re.compile(r"^-\d+$|^-\d*\.\d+$|^-\d+/\d+$")

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EX_USAGE)


def _fraction(text: str) -> Fraction:
    try:
        return _io.parse_fraction(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _budget(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"budget must be an integer, got {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"budget must be a nonnegative node count, got {value}")
    return value


def _load_hypergraph(spec: str) -> _hg.Hypergraph3:
    p = Path(spec)
    if p.exists():
        return _io.read_hypergraph(p)
    return _hg.named(spec)


def _load_palette(spec: str) -> _palette.Palette:
    p = Path(spec)
    if p.exists():
        return _io.read_palette(p)
    return _palette.builtin(spec)


def _emit(report: dict, json_path, text_lines) -> None:
    for line in text_lines:
        print(line)
    if json_path:
        Path(json_path).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")


def _base_report(args, command: str) -> dict:
    inputs = {
        k: v
        for k, v in sorted(vars(args).items())
        if k not in ("func", "json") and v is not None
    }
    inputs = {k: (str(v) if isinstance(v, Fraction) else v) for k, v in inputs.items()}
    return {"command": command, "inputs": inputs, "version": __version__, "timing": {}}


def _frac_str(f) -> str:
    return _io.format_fraction(f)


# -- palette ------------------------------------------------------------------


def _cmd_palette_info(args) -> int:
    P = _load_palette(args.builtin or args.file)
    report = _base_report(args, "palette info")
    t0 = time.perf_counter()
    dens = {star: P.density(star) for star in ("vvv", "ev", "ee")}
    report["palette"] = _io.palette_to_json(P)
    report["density"] = {star: _frac_str(v) for star, v in dens.items()}
    report["symmetric"] = P.symmetric
    report["patterns"] = len(P.patterns)
    report["timing"]["seconds"] = time.perf_counter() - t0
    lines = [
        f"palette {P.name or args.file}: {len(P.patterns)} patterns over "
        f"{len(P.base.colors)} colours, symmetric={P.symmetric}",
        f"  density vvv = {_frac_str(dens['vvv'])}",
        f"  density ev  = {_frac_str(dens['ev'])}",
        f"  density ee  = {_frac_str(dens['ee'])}",
    ]
    if P.claims:
        report["claims"] = [
            {"notion": star, "density": _frac_str(d), "target": target}
            for star, d, target in P.claims
        ]
        for star, d, target in P.claims:
            lines.append(f"  claim: {star}-density {_frac_str(d)} vs {target}")
    _emit(report, args.json, lines)
    return EX_OK


def _cmd_palette_closure(args) -> int:
    gens = _io.read_palette(args.generators)
    P = _palette.symmetric_closure(gens.patterns, gens.base)
    report = _base_report(args, "palette closure")
    report["palette"] = _io.palette_to_json(P)
    if args.out:
        _io.write_palette(P, args.out)
    _emit(report, args.json, [f"closed palette: {len(P.patterns)} patterns"
                              + (f" -> {args.out}" if args.out else "")])
    return EX_OK


# -- certify ------------------------------------------------------------------


def _cmd_certify(args) -> int:
    F = _load_hypergraph(args.F)
    P = _load_palette(args.palette)
    report = _base_report(args, "certify")
    t0 = time.perf_counter()
    res = _palette.representable(F, P, budget=args.budget)
    report["timing"]["seconds"] = time.perf_counter() - t0
    report["verdict"] = res.status
    report["space"] = str(res.space)
    report["nodes"] = res.nodes
    report["symmetry"] = res.symmetry.to_json()
    lines = [f"certify F={args.F} palette={args.palette}: {res.status} "
             f"(space {res.space}, nodes {res.nodes}, symmetry {res.symmetry})"]
    if res.certificate is not None:
        cert = {
            "ordering": list(res.certificate.ordering),
            "coloring": {f"{u},{v}": c for (u, v), c in sorted(res.certificate.coloring.items())},
        }
        report["certificate"] = cert
        # revalidate on the serialized form, as a loader would
        reloaded = _palette.RepresentabilityCertificate(
            tuple(cert["ordering"]),
            {tuple(int(x) for x in k.split(",")): v for k, v in cert["coloring"].items()},
        )
        if not _palette.check_certificate(F, P, reloaded):
            print("certificate failed revalidation", file=sys.stderr)
            return 1
        lines.append("  certificate validated")
    if args.emit_cnf:
        num_vars, clauses, varmap, meta = _palette.cnf_encoding(F, P)
        _io.write_dimacs(args.emit_cnf, num_vars, clauses, varmap, meta)
        report["cnf"] = {"path": str(args.emit_cnf), "vars": num_vars, "clauses": len(clauses)}
        lines.append(f"  CNF written to {args.emit_cnf} ({num_vars} vars, {len(clauses)} clauses)")
    _emit(report, args.json, lines)
    if res.status == "inconclusive":
        if not args.allow_inconclusive:
            print("search budget exhausted without a verdict", file=sys.stderr)
        return EX_INCONCLUSIVE
    return EX_OK


# -- table --------------------------------------------------------------------

# (palette spec, F spec, notion, expected bound, expected verdict)
_TABLE_ROWS = (
    ("tournament", "k4minus", "vvv", Fraction(1, 4), "free"),
    ("tournament", "k4minus", "ev", Fraction(1, 4), "free"),
    ("roedl", "k4", "vvv", Fraction(1, 2), "free"),
    ("roedl", "k4", "ev", Fraction(1, 2), "free"),
    ("star4", "star4", "vvv", Fraction(1, 3), "free"),
    ("star4", "star4", "ev", Fraction(1, 3), "free"),
    ("ramsey6", "k6", "vvv", Fraction(3, 4), "free"),
    ("cycle5", "cycle5", "vvv", Fraction(4, 27), "free"),
    ("ee5", "k5", "ee", Fraction(1, 3), "free"),
    ("ee6", "k6", "ee", Fraction(1, 2), "free"),
    ("ee11", "k11", "ee", Fraction(2, 3), "free"),
)

_NOTION_SYMBOL = {"vvv": "vvv", "ev": "ev", "ee": "ee"}


def _cmd_table(args) -> int:
    report = _base_report(args, "table")
    t0 = time.perf_counter()
    lines = ["palette      F        notion  density  verdict      bound"]
    rows = []
    cache: dict = {}
    mismatch = False
    for pal_spec, f_spec, notion, bound, expected in _TABLE_ROWS:
        P = _palette.builtin(pal_spec)
        F = _hg.named(f_spec)
        dens = P.density(notion)
        key = (pal_spec, f_spec)
        if key not in cache:
            cache[key] = _palette.representable(F, P, budget=args.budget)
        res = cache[key]
        verdict = res.status if res.status != "inconclusive" else "pending"
        if dens != bound or verdict != expected:
            mismatch = True
        statement = (
            f"pi_{_NOTION_SYMBOL[notion]}({f_spec}) >= {_frac_str(bound)} certified"
            if verdict == "free"
            else f"pi_{_NOTION_SYMBOL[notion]}({f_spec}) >= {_frac_str(bound)} pending (budget)"
        )
        rows.append(
            {
                "palette": pal_spec,
                "F": f_spec,
                "notion": notion,
                "density": _frac_str(dens),
                "verdict": verdict,
                "bound": statement,
                "space": str(res.space),
                "symmetry": res.symmetry.to_json(),
            }
        )
        lines.append(
            f"{pal_spec:12s} {f_spec:8s} {notion:7s} {_frac_str(dens):8s} {verdict:12s} {statement}"
        )
    report["rows"] = rows
    report["timing"]["seconds"] = time.perf_counter() - t0
    _emit(report, args.json, lines)
    if mismatch:
        print("table mismatch against expected bounds", file=sys.stderr)
        return 1
    return EX_OK


# -- gen ----------------------------------------------------------------------


def _cmd_gen(args) -> int:
    report = _base_report(args, f"gen {args.kind}")
    report["seed"] = args.seed
    report["rng_algorithm"] = _hg.RNG_ALGORITHM
    t0 = time.perf_counter()
    coloring_path = None
    if args.kind == "tournament":
        H = _construct.tournament_hypergraph(args.n, args.seed)
    elif args.kind == "roedl":
        H = _construct.roedl_hypergraph(args.n, args.seed)
    elif args.kind == "palette":
        if not args.palette:
            raise _palette.PaletteError("gen palette requires --palette")
        P = _load_palette(args.palette)
        phi = _construct.random_pair_coloring(args.n, P.base, args.seed)
        H = _construct.build_H(phi, P)
        if args.coloring_out:
            Path(args.coloring_out).write_text(_io.coloring_to_text(phi))
            coloring_path = str(args.coloring_out)
    elif args.kind == "lift":
        if not args.reduced:
            raise _reduced.ReducedError("gen lift requires --reduced")
        A = _io.read_reduced(args.reduced)
        lifted = _construct.lift_reduced(A, args.h, args.seed)
        H = lifted.hypergraph
        if args.coloring_out:
            Path(args.coloring_out).write_text(_io.coloring_to_text(lifted.coloring))
            coloring_path = str(args.coloring_out)
    else:  # pragma: no cover - argparse restricts choices
        raise AssertionError(args.kind)
    report["timing"]["seconds"] = time.perf_counter() - t0
    _io.write_hypergraph(H, args.out)
    report["hypergraph"] = {"n": H.n, "edges": H.edge_count, "path": str(args.out)}
    if coloring_path:
        report["coloring"] = coloring_path
    _emit(
        report,
        args.json,
        [f"gen {args.kind}: n={H.n}, {H.edge_count} edges -> {args.out}"],
    )
    return EX_OK


# -- audit ----------------------------------------------------------------------


def _cmd_audit_uniform(args) -> int:
    H = _io.read_hypergraph(args.input)
    report = _base_report(args, "audit uniform")
    t0 = time.perf_counter()
    rep = _density.audit_uniform_dense(
        H,
        args.d,
        args.eta,
        exact_threshold=args.exact_threshold,
        samples=args.samples,
        seed=args.seed,
    )
    report["timing"]["seconds"] = time.perf_counter() - t0
    report["report"] = rep.to_dict()
    _emit(
        report,
        args.json,
        [
            f"audit uniform (d={_frac_str(rep.d)}, eta={_frac_str(rep.eta)}): "
            f"{'pass' if rep.ok else 'FAIL'} [{rep.mode}] min_slack={_frac_str(rep.min_slack)}"
        ],
    )
    return EX_OK


def _cmd_audit_star(args) -> int:
    H = _io.read_hypergraph(args.input)
    report = _base_report(args, "audit star")
    t0 = time.perf_counter()
    rep = _density.audit_star_dense(
        H,
        args.notion,
        args.d,
        args.eta,
        exact_threshold=args.exact_threshold,
        samples=args.samples,
        seed=args.seed,
    )
    report["timing"]["seconds"] = time.perf_counter() - t0
    report["report"] = rep.to_dict()
    _emit(
        report,
        args.json,
        [
            f"audit {args.notion} (d={_frac_str(rep.d)}, eta={_frac_str(rep.eta)}): "
            f"{'pass' if rep.ok else 'FAIL'} [{rep.mode}] min_slack={_frac_str(rep.min_slack)}"
        ],
    )
    return EX_OK


def _cmd_audit_quasirandom(args) -> int:
    G = _io.read_bipartite(args.input)
    report = _base_report(args, "audit quasirandom")
    t0 = time.perf_counter()
    rep = _qr.audit_quasirandom(
        G, args.delta, args.d, exact_bits=args.exact_bits, samples=args.samples, seed=args.seed
    )
    report["timing"]["seconds"] = time.perf_counter() - t0
    report["report"] = rep.to_dict()
    _emit(
        report,
        args.json,
        [
            f"audit quasirandom (delta={_frac_str(rep.delta)}, d={_frac_str(rep.d)}): "
            f"{'pass' if rep.ok else 'FAIL'} [{rep.mode}] max_dev={_frac_str(rep.max_deviation)}"
        ],
    )
    return EX_OK


def _cmd_audit_counting(args) -> int:
    P = _io.read_tripartite(args.input)
    report = _base_report(args, "audit counting-lemma")
    t0 = time.perf_counter()
    dev = _qr.check_counting_lemma(P, args.delta, args.dxy, args.dxz, args.dyz)
    ok = abs(dev) <= 3 * Fraction(args.delta)
    report["timing"]["seconds"] = time.perf_counter() - t0
    report["deviation"] = _frac_str(dev)
    report["bound"] = _frac_str(3 * Fraction(args.delta))
    report["ok"] = ok
    _emit(
        report,
        args.json,
        [f"counting lemma: deviation {_frac_str(dev)} vs 3*delta = "
         f"{_frac_str(3 * Fraction(args.delta))}: {'pass' if ok else 'FAIL'}"],
    )
    return EX_OK


# -- reduced ---------------------------------------------------------------------


def _cmd_reduced_check(args) -> int:
    A = _io.read_reduced(args.input)
    report = _base_report(args, "reduced check")
    if args.eta is not None and args.star in ("ev", "ee"):
        ok, exc = _reduced.check_eta_dense(A, args.star, args.d, args.eta)
        report["ok"] = ok
        report["exceptional_total"] = exc.total()
        lines = [f"reduced check {args.star} (d={args.d}, eta={args.eta}): "
                 f"{'pass' if ok else 'FAIL'} ({exc.total()} exceptional entries)"]
    else:
        chk = _reduced.check_dense(A, args.star, args.d)
        report["ok"] = chk.ok
        report["min_ratio"] = _frac_str(chk.min_ratio)
        lines = [f"reduced check {args.star} (d={args.d}): "
                 f"{'pass' if chk.ok else 'FAIL'} (min ratio {_frac_str(chk.min_ratio)})"]
        if chk.witness:
            report["witness"] = repr(chk.witness)
    _emit(report, args.json, lines)
    return EX_OK


def _cmd_reduced_purge(args) -> int:
    A = _io.read_reduced(args.input)
    report = _base_report(args, "reduced purge")
    res = _reduced.purge_ev(A, args.d)
    _io.write_reduced(res.reduced, args.out)
    removed = sum(
        A.class_sizes[p] - len(kept) for p, kept in res.kept.items()
    )
    report["removed_vertices"] = removed
    report["out"] = str(args.out)
    _emit(report, args.json, [f"purge at d={args.d}: removed {removed} vertices -> {args.out}"])
    return EX_OK


def _cmd_reduced_project(args) -> int:
    A = _io.read_reduced(args.input)
    report = _base_report(args, "reduced project")
    report["seed"] = args.seed
    res = _reduced.project_random(A, args.ell, seed=args.seed)
    _io.write_reduced(res.reduced, args.out)
    report["out"] = str(args.out)
    report["psi"] = {f"{i},{j}": list(images) for (i, j), images in sorted(res.psi.items())}
    _emit(report, args.json, [f"projected to classes of size {args.ell} -> {args.out}"])
    return EX_OK


def _cmd_reduced_map(args) -> int:
    A = _io.read_reduced(args.input)
    F = _load_hypergraph(args.F)
    report = _base_report(args, "reduced map")
    res = _reduced.find_reduced_map(F, A, budget=args.budget, injective=args.injective)
    report["verdict"] = res.status
    report["nodes"] = res.nodes
    report["symmetry"] = res.symmetry.to_json()
    # index-assignment space; the pair-colouring space per assignment is
    # exhausted by the inner search
    report["lambda_space"] = str(len(A.indices) ** F.n)
    report["exhausted"] = res.status == "free"
    lines = [f"reduced map F={args.F}: {res.status} "
             f"(nodes {res.nodes}, symmetry {res.symmetry})"]
    if res.reduced_map is not None:
        report["map"] = {
            "lambda": {str(v): i for v, i in sorted(res.reduced_map.lam.items())},
            "phi": {
                f"{u},{v}": [list(cls), local]
                for (u, v), (cls, local) in sorted(res.reduced_map.phi.items())
            },
        }
    _emit(report, args.json, lines)
    if res.status == "inconclusive":
        if not args.allow_inconclusive:
            print("search budget exhausted without a verdict", file=sys.stderr)
        return EX_INCONCLUSIVE
    return EX_OK


def _cmd_reduced_tetra(args) -> int:
    A = _io.read_reduced(args.input)
    report = _base_report(args, "reduced tetra")
    try:
        rm = _reduced.tetrahedron_greedy(A, args.eps)
    except _reduced.ReducedError as exc:
        report["verdict"] = "refused"
        report["reason"] = str(exc)
        _emit(report, args.json, [f"tetra refused: {exc}"])
        return 1
    report["verdict"] = "map"
    report["map"] = {
        "lambda": {str(v): i for v, i in sorted(rm.lam.items())},
        "phi": {f"{u},{v}": [list(cls), local] for (u, v), (cls, local) in sorted(rm.phi.items())},
    }
    _emit(report, args.json, ["tetrahedron reduced map found and validated"])
    return EX_OK


# -- parser ------------------------------------------------------------------------


def build_parser() -> _Parser:
    p = _Parser(prog="unidense", description=__doc__)
    p.add_argument("--version", action="version", version=f"unidense {__version__}")
    sub = p.add_subparsers(dest="cmd", required=True)

    def common(sp):
        sp.add_argument("--json", help="write a machine-readable report to this path")

    pal = sub.add_parser("palette", help="palette inspection and closure")
    pal_sub = pal.add_subparsers(dest="palcmd", required=True)
    info = pal_sub.add_parser("info", help="exact densities and symmetry of a palette")
    g = info.add_mutually_exclusive_group(required=True)
    g.add_argument("--builtin", help="builtin palette name")
    g.add_argument("--file", help="palette JSON file")
    common(info)
    info.set_defaults(func=_cmd_palette_info)
    clo = pal_sub.add_parser("closure", help="symmetric closure of generator patterns")
    clo.add_argument("--generators", required=True, help="JSON with colors/patterns")
    clo.add_argument("--out", help="write the closed palette here")
    common(clo)
    clo.set_defaults(func=_cmd_palette_closure)

    cert = sub.add_parser("certify", help="representability search")
    cert.add_argument("--F", required=True, help="hypergraph family name or file")
    cert.add_argument("--palette", required=True, help="palette name or file")
    cert.add_argument("--budget", type=_budget, default=10**8, help="CSP node budget")
    cert.add_argument("--emit-cnf", help="export the colouring search as DIMACS CNF")
    cert.add_argument("--allow-inconclusive", action="store_true")
    common(cert)
    cert.set_defaults(func=_cmd_certify)

    tab = sub.add_parser("table", help="certified lower-bound table")
    tab.add_argument("--budget", type=_budget, default=10**6, help="CSP node budget per row")
    common(tab)
    tab.set_defaults(func=_cmd_table)

    gen = sub.add_parser("gen", help="seeded generators")
    gen.add_argument("kind", choices=("tournament", "roedl", "palette", "lift"))
    gen.add_argument("--n", type=int, default=50)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--palette", help="palette for kind=palette")
    gen.add_argument("--reduced", help="reduced hypergraph JSON for kind=lift")
    gen.add_argument("--h", type=int, default=16, help="block size for kind=lift")
    gen.add_argument("--out", required=True)
    gen.add_argument("--coloring-out", help="also dump the pair colouring")
    common(gen)
    gen.set_defaults(func=_cmd_gen)

    aud = sub.add_parser("audit", help="density and quasirandomness audits")
    aud_sub = aud.add_subparsers(dest="audcmd", required=True)

    au = aud_sub.add_parser("uniform", help="single-set uniform density")
    au.add_argument("input", help="hypergraph file")
    au.add_argument("--d", type=_fraction, required=True)
    au.add_argument("--eta", type=_fraction, required=True)
    au.add_argument("--exact-threshold", type=int, default=22)
    au.add_argument("--samples", type=int, default=10**5)
    au.add_argument("--seed", type=int, default=0)
    common(au)
    au.set_defaults(func=_cmd_audit_uniform)

    ast = aud_sub.add_parser("star", help="three-set / pair-set density notions")
    ast.add_argument("input", help="hypergraph file")
    ast.add_argument("--notion", choices=("vvv", "ev", "ee"), required=True)
    ast.add_argument("--d", type=_fraction, required=True)
    ast.add_argument("--eta", type=_fraction, required=True)
    ast.add_argument("--exact-threshold", type=int, default=None)
    ast.add_argument("--samples", type=int, default=10**5)
    ast.add_argument("--seed", type=int, default=0)
    common(ast)
    ast.set_defaults(func=_cmd_audit_star)

    aq = aud_sub.add_parser("quasirandom", help="bipartite subset-deviation audit")
    aq.add_argument("input", help="bipartite graph JSON")
    aq.add_argument("--delta", type=_fraction, required=True)
    aq.add_argument("--d", type=_fraction, required=True)
    aq.add_argument("--exact-bits", type=int, default=20)
    aq.add_argument("--samples", type=int, default=2000)
    aq.add_argument("--seed", type=int, default=0)
    common(aq)
    aq.set_defaults(func=_cmd_audit_quasirandom)

    ac = aud_sub.add_parser("counting-lemma", help="triangle count vs product density")
    ac.add_argument("input", help="tripartite graph JSON")
    ac.add_argument("--delta", type=_fraction, required=True)
    ac.add_argument("--dxy", type=_fraction, required=True)
    ac.add_argument("--dxz", type=_fraction, required=True)
    ac.add_argument("--dyz", type=_fraction, required=True)
    common(ac)
    ac.set_defaults(func=_cmd_audit_counting)

    red = sub.add_parser("reduced", help="reduced-hypergraph operations")
    red_sub = red.add_subparsers(dest="redcmd", required=True)

    rc = red_sub.add_parser("check", help="(d, star)- or (d, eta, star)-density")
    rc.add_argument("input", help="reduced hypergraph JSON")
    rc.add_argument("--star", choices=("vvv", "ev", "ee"), required=True)
    rc.add_argument("--d", type=_fraction, required=True)
    rc.add_argument("--eta", type=_fraction, default=None)
    common(rc)
    rc.set_defaults(func=_cmd_reduced_check)

    rp = red_sub.add_parser("purge", help="remove low-degree class vertices")
    rp.add_argument("input")
    rp.add_argument("--d", type=_fraction, required=True)
    rp.add_argument("--out", required=True)
    common(rp)
    rp.set_defaults(func=_cmd_reduced_purge)

    rj = red_sub.add_parser("project", help="random projection to uniform class size")
    rj.add_argument("input")
    rj.add_argument("--ell", type=int, required=True)
    rj.add_argument("--seed", type=int, default=0)
    rj.add_argument("--out", required=True)
    common(rj)
    rj.set_defaults(func=_cmd_reduced_project)

    rm = red_sub.add_parser("map", help="reduced-map search")
    rm.add_argument("input")
    rm.add_argument("--F", required=True)
    rm.add_argument("--budget", type=_budget, default=10**8, help="search node budget")
    rm.add_argument("--injective", action="store_true",
                    help="force an injective index assignment")
    rm.add_argument("--allow-inconclusive", action="store_true")
    common(rm)
    rm.set_defaults(func=_cmd_reduced_map)

    rt = red_sub.add_parser("tetra", help="greedy tetrahedron extraction")
    rt.add_argument("input")
    rt.add_argument("--eps", type=_fraction, required=True)
    common(rt)
    rt.set_defaults(func=_cmd_reduced_tetra)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"unidense: I/O error: {exc}", file=sys.stderr)
        return EX_IOERR
    except (
        _hg.HypergraphError,
        _palette.PaletteError,
        _reduced.ReducedError,
        _qr.GraphError,
        ValueError,
    ) as exc:
        print(f"unidense: error: {exc}", file=sys.stderr)
        return EX_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
