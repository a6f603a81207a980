"""Command-line front end.

Subcommands: palette {info, closure}, certify, table, gen {tournament, roedl,
palette, lift}, audit {uniform, star, quasirandom, counting-lemma}, reduced
{check, purge, project, map, tetra}.  Each command declares only the flags it
reads, and any other flag exits 64.  Each gen kind takes --seed, --out and
--coloring-out, plus --n (tournament, roedl), --n and a required --palette
(palette), or a required --reduced and --h (lift).  Every palette input
(palette info, certify, gen palette) is one --palette SPEC: a palette JSON
file if that path exists, else a builtin name.

Exit codes: 0 = verdict obtained (either way), 1 = a table row differs from
its expected bound, reduced tetra refused, or a certificate failed
revalidation (no report is written then), 2 = inconclusive (certify and
reduced map then print "search budget exhausted without a verdict" on
stderr), 64+ = usage or I/O errors.  Rationals are "p/q" strings; floats are
rejected for d, eta, and delta.  Every command is deterministic given its full
flag set including the seed; rerunning byte-reproduces the JSON report apart
from the "timing" key, whose "seconds" is the wall time of the command's work.
Every --json report carries "command", "inputs", "version" and "timing".
"""

from __future__ import annotations

import argparse
import functools
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
EX_FAIL = 1
EX_INCONCLUSIVE = 2
EX_USAGE = 64
EX_IOERR = 66


class _Failed(Exception):
    """A check that failed after the command ran: exit 1, no report."""


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


def _count(text: str) -> int:
    """A nonnegative integer flag; argparse names the flag in its error."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be an integer, got {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a nonnegative integer, got {value}")
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


def _map_json(rm: _reduced.ReducedMap) -> dict:
    return {
        "lambda": {str(v): i for v, i in sorted(rm.lam.items())},
        "phi": {f"{u},{v}": [list(cls), local] for (u, v), (cls, local) in sorted(rm.phi.items())},
    }


def _search_exit(status: str) -> int:
    """Exit code of a budgeted search; an inconclusive one also says so on stderr."""
    if status != "inconclusive":
        return EX_OK
    print("search budget exhausted without a verdict", file=sys.stderr)
    return EX_INCONCLUSIVE


# Each _cmd_* handler takes the parsed arguments and the base report, fills
# the report and returns (exit code, text lines); main times it, prints the
# lines and writes the --json report.

# -- palette ------------------------------------------------------------------


def _cmd_palette_info(args, report):
    P = _load_palette(args.palette)
    report["palette"] = _io.palette_to_json(P)
    report["density"] = {star: _io.format_fraction(P.density(star)) for star in _palette.NOTIONS}
    report["symmetric"] = P.symmetric
    report["patterns"] = len(P.patterns)
    lines = [
        f"palette {P.name or args.palette}: {len(P.patterns)} patterns over "
        f"{len(P.base.colors)} colours, symmetric={P.symmetric}",
    ]
    lines += [f"  density {star:3s} = {value}" for star, value in report["density"].items()]
    if P.claims:
        report["claims"] = [
            {"notion": star, "density": _io.format_fraction(d), "target": target}
            for star, d, target in P.claims
        ]
        for star, d, target in P.claims:
            lines.append(f"  claim: {star}-density {_io.format_fraction(d)} vs {target}")
    return EX_OK, lines


def _cmd_palette_closure(args, report):
    gens = _io.read_palette(args.generators)
    P = _palette.symmetric_closure(gens.patterns, gens.base)
    report["palette"] = _io.palette_to_json(P)
    if args.out:
        _io.write_palette(P, args.out)
    return EX_OK, [f"closed palette: {len(P.patterns)} patterns"
                   + (f" -> {args.out}" if args.out else "")]


# -- certify ------------------------------------------------------------------


def _cmd_certify(args, report):
    F = _load_hypergraph(args.F)
    P = _load_palette(args.palette)
    res = _palette.representable(F, P, budget=args.budget)
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
            raise _Failed("certificate failed revalidation")
        lines.append("  certificate validated")
    if args.emit_cnf:
        num_vars, clauses, varmap, meta = _palette.cnf_encoding(F, P)
        _io.write_dimacs(args.emit_cnf, num_vars, clauses, varmap, meta)
        report["cnf"] = {"path": str(args.emit_cnf), "vars": num_vars, "clauses": len(clauses)}
        lines.append(f"  CNF written to {args.emit_cnf} ({num_vars} vars, {len(clauses)} clauses)")
    return _search_exit(res.status), lines


# -- table --------------------------------------------------------------------

# the builtin palettes whose claims the table certifies, each claim a row
# (palette, F = the claim's target, notion, bound = the claim's density)
_TABLE_PALETTES = ("tournament", "roedl", "star4", "ramsey6", "cycle5", "ee5", "ee6", "ee11")


def _table_rows():
    """(palette spec, F spec, notion, bound) of every row of the table, in order."""
    return [
        (pal_spec, f_spec, notion, bound)
        for pal_spec in _TABLE_PALETTES
        for notion, bound, f_spec in _palette.builtin(pal_spec).claims
    ]


def _cmd_table(args, report):
    lines = ["palette      F        notion  density  verdict      bound"]
    rows = report["rows"] = []
    cache: dict = {}
    mismatch = False
    for pal_spec, f_spec, notion, bound in _table_rows():
        P = _palette.builtin(pal_spec)
        F = _hg.named(f_spec)
        dens = P.density(notion)
        key = (pal_spec, f_spec)
        if key not in cache:
            cache[key] = _palette.representable(F, P, budget=args.budget)
        res = cache[key]
        verdict = res.status if res.status != "inconclusive" else "pending"
        if dens != bound or verdict != "free":
            mismatch = True
        statement = (f"pi_{notion}({f_spec}) >= {_io.format_fraction(bound)} "
                     + ("certified" if verdict == "free" else "pending (budget)"))
        rows.append(
            {
                "palette": pal_spec,
                "F": f_spec,
                "notion": notion,
                "density": _io.format_fraction(dens),
                "verdict": verdict,
                "bound": statement,
                "space": str(res.space),
                "symmetry": res.symmetry.to_json(),
            }
        )
        lines.append(
            f"{pal_spec:12s} {f_spec:8s} {notion:7s} {_io.format_fraction(dens):8s} "
            f"{verdict:12s} {statement}"
        )
    if mismatch:
        print("table mismatch against expected bounds", file=sys.stderr)
        return EX_FAIL, lines
    return EX_OK, lines


# -- gen ----------------------------------------------------------------------


def _cmd_gen(args, report):
    report["seed"] = args.seed
    report["rng_algorithm"] = _hg.RNG_ALGORITHM
    if args.kind == "lift":
        lifted = _construct.lift_reduced(_io.read_reduced(args.reduced), args.h, args.seed)
        H, phi = lifted.hypergraph, lifted.coloring
    else:  # tournament and roedl are gen palette with their builtin palette
        if args.n < 3:
            raise _palette.PaletteError(f"need n >= 3, got {args.n}")
        P = _load_palette(args.palette) if args.kind == "palette" else _palette.builtin(args.kind)
        phi = _construct.random_pair_coloring(args.n, P.base, args.seed)
        H = _construct.build_H(phi, P)
    if args.coloring_out:
        Path(args.coloring_out).write_text(_io.coloring_to_text(phi))
        report["coloring"] = str(args.coloring_out)
    _io.write_hypergraph(H, args.out)
    report["hypergraph"] = {"n": H.n, "edges": H.edge_count, "path": str(args.out)}
    return EX_OK, [f"gen {args.kind}: n={H.n}, {H.edge_count} edges -> {args.out}"]


# -- audit ----------------------------------------------------------------------


def _cmd_audit_density(args, report):
    H = _io.read_hypergraph(args.input)
    sampling = dict(exact_threshold=args.exact_threshold, samples=args.samples, seed=args.seed)
    if args.command == "audit uniform":
        label = "uniform"
        rep = _density.audit_uniform_dense(H, args.d, args.eta, **sampling)
    else:
        label = args.notion
        rep = _density.audit_star_dense(H, args.notion, args.d, args.eta, **sampling)
    report["report"] = rep.to_dict()
    return EX_OK, [
        f"audit {label} (d={_io.format_fraction(rep.d)}, eta={_io.format_fraction(rep.eta)}): "
        f"{'pass' if rep.ok else 'FAIL'} [{rep.mode}] min_slack={_io.format_fraction(rep.min_slack)}"
    ]


def _cmd_audit_quasirandom(args, report):
    G = _io.read_bipartite(args.input)
    rep = _qr.audit_quasirandom(
        G, args.delta, args.d, exact_bits=args.exact_bits, samples=args.samples, seed=args.seed
    )
    report["report"] = rep.to_dict()
    return EX_OK, [
        f"audit quasirandom (delta={_io.format_fraction(rep.delta)}, "
        f"d={_io.format_fraction(rep.d)}): {'pass' if rep.ok else 'FAIL'} [{rep.mode}] "
        f"max_dev={_io.format_fraction(rep.max_deviation)}"
    ]


def _cmd_audit_counting(args, report):
    P = _io.read_tripartite(args.input)
    dev = _qr.check_counting_lemma(P, args.delta, args.dxy, args.dxz, args.dyz)
    bound = 3 * Fraction(args.delta)
    ok = abs(dev) <= bound
    report["deviation"] = _io.format_fraction(dev)
    report["bound"] = _io.format_fraction(bound)
    report["ok"] = ok
    return EX_OK, [f"counting lemma: deviation {report['deviation']} vs 3*delta = "
                   f"{report['bound']}: {'pass' if ok else 'FAIL'}"]


# -- reduced ---------------------------------------------------------------------


def _cmd_reduced_check(args, report):
    if args.eta is not None and args.star == "vvv":
        raise ValueError("--eta applies to --star ev and ee only")
    A = _io.read_reduced(args.input)
    if args.eta is not None:
        ok, exc = _reduced.check_eta_dense(A, args.star, args.d, args.eta)
        report["ok"] = ok
        report["exceptional_total"] = exc.total()
        return EX_OK, [f"reduced check {args.star} (d={args.d}, eta={args.eta}): "
                       f"{'pass' if ok else 'FAIL'} ({exc.total()} exceptional entries)"]
    chk = _reduced.check_dense(A, args.star, args.d)
    report["ok"] = chk.ok
    report["min_ratio"] = _io.format_fraction(chk.min_ratio)
    if chk.witness:
        report["witness"] = repr(chk.witness)
    return EX_OK, [f"reduced check {args.star} (d={args.d}): "
                   f"{'pass' if chk.ok else 'FAIL'} (min ratio {report['min_ratio']})"]


def _cmd_reduced_purge(args, report):
    A = _io.read_reduced(args.input)
    res = _reduced.purge_ev(A, args.d)
    _io.write_reduced(res.reduced, args.out)
    removed = sum(A.class_sizes[p] - len(kept) for p, kept in res.kept.items())
    report["removed_vertices"] = removed
    report["out"] = str(args.out)
    return EX_OK, [f"purge at d={args.d}: removed {removed} vertices -> {args.out}"]


def _cmd_reduced_project(args, report):
    A = _io.read_reduced(args.input)
    report["seed"] = args.seed
    res = _reduced.project_random(A, args.ell, seed=args.seed)
    _io.write_reduced(res.reduced, args.out)
    report["out"] = str(args.out)
    report["psi"] = {f"{i},{j}": list(images) for (i, j), images in sorted(res.psi.items())}
    return EX_OK, [f"projected to classes of size {args.ell} -> {args.out}"]


def _cmd_reduced_map(args, report):
    A = _io.read_reduced(args.input)
    F = _load_hypergraph(args.F)
    res = _reduced.find_reduced_map(F, A, budget=args.budget, injective=args.injective)
    report["verdict"] = res.status
    report["nodes"] = res.nodes
    report["symmetry"] = res.symmetry.to_json()
    # index-assignment space; the pair-colouring space per assignment is
    # exhausted by the inner search
    report["lambda_space"] = str(len(A.indices) ** F.n)
    if res.reduced_map is not None:
        report["map"] = _map_json(res.reduced_map)
    return _search_exit(res.status), [
        f"reduced map F={args.F}: {res.status} (nodes {res.nodes}, symmetry {res.symmetry})"
    ]


def _cmd_reduced_tetra(args, report):
    # an eps out of domain is a usage error; only the greedy's own refusals exit 1
    if not 0 < args.eps <= 1:
        raise ValueError(f"eps must lie in (0, 1], got {args.eps}")
    A = _io.read_reduced(args.input)
    try:
        rm = _reduced.tetrahedron_greedy(A, args.eps)
    except _reduced.ReducedError as exc:
        report["verdict"] = "refused"
        report["reason"] = str(exc)
        return EX_FAIL, [f"tetra refused: {exc}"]
    report["verdict"] = "map"
    report["map"] = _map_json(rm)
    return EX_OK, ["tetrahedron reduced map found and validated"]


# -- parser ------------------------------------------------------------------------


# built once per process, since parsing leaves the parser as it was
@functools.cache
def build_parser() -> _Parser:
    p = _Parser(prog="unidense", description=__doc__)
    p.add_argument("--version", action="version", version=f"unidense {__version__}")
    sub = p.add_subparsers(dest="cmd", required=True)

    def command(sp, name, func):
        sp.add_argument("--json", help="write a machine-readable report to this path")
        sp.set_defaults(command=name, func=func)

    pal = sub.add_parser("palette", help="palette inspection and closure")
    pal_sub = pal.add_subparsers(dest="palcmd", required=True)
    info = pal_sub.add_parser("info", help="exact densities and symmetry of a palette")
    info.add_argument("--palette", required=True, help="palette name or file")
    command(info, "palette info", _cmd_palette_info)
    clo = pal_sub.add_parser("closure", help="symmetric closure of generator patterns")
    clo.add_argument("--generators", required=True, help="JSON with colors/patterns")
    clo.add_argument("--out", help="write the closed palette here")
    command(clo, "palette closure", _cmd_palette_closure)

    cert = sub.add_parser("certify", help="representability search")
    cert.add_argument("--F", required=True, help="hypergraph family name or file")
    cert.add_argument("--palette", required=True, help="palette name or file")
    cert.add_argument("--budget", type=_count, default=10**8, help="CSP node budget")
    cert.add_argument("--emit-cnf", help="export the search's model as DIMACS CNF")
    command(cert, "certify", _cmd_certify)

    tab = sub.add_parser("table", help="certified lower-bound table")
    tab.add_argument("--budget", type=_count, default=10**6, help="CSP node budget per row")
    command(tab, "table", _cmd_table)

    gen = sub.add_parser("gen", help="seeded generators")
    gen_sub = gen.add_subparsers(dest="kind", required=True)
    for kind in ("tournament", "roedl", "palette", "lift"):
        # no abbreviations: "--h" would read as "--help" on the kinds without --h
        gk = gen_sub.add_parser(kind, help=f"seeded {kind} hypergraph", allow_abbrev=False)
        if kind == "lift":
            gk.add_argument("--reduced", required=True, help="reduced hypergraph JSON")
            gk.add_argument("--h", type=int, default=16, help="block size")
        else:
            gk.add_argument("--n", type=int, default=50)
        if kind == "palette":
            gk.add_argument("--palette", required=True, help="palette name or file")
        gk.add_argument("--seed", type=_count, default=0)
        gk.add_argument("--out", required=True)
        gk.add_argument("--coloring-out", help="also dump the pair colouring")
        command(gk, f"gen {kind}", _cmd_gen)

    aud = sub.add_parser("audit", help="density and quasirandomness audits")
    aud_sub = aud.add_subparsers(dest="audcmd", required=True)

    au = aud_sub.add_parser("uniform", help="single-set uniform density")
    au.add_argument("input", help="hypergraph file")
    au.add_argument("--d", type=_fraction, required=True)
    au.add_argument("--eta", type=_fraction, required=True)
    au.add_argument("--exact-threshold", type=int, default=22)
    au.add_argument("--samples", type=_count, default=10**5)
    au.add_argument("--seed", type=_count, default=0)
    command(au, "audit uniform", _cmd_audit_density)

    ast = aud_sub.add_parser("star", help="three-set / pair-set density notions")
    ast.add_argument("input", help="hypergraph file")
    ast.add_argument("--notion", choices=tuple(_palette.NOTIONS), required=True)
    ast.add_argument("--d", type=_fraction, required=True)
    ast.add_argument("--eta", type=_fraction, required=True)
    ast.add_argument("--exact-threshold", type=int, default=None)
    ast.add_argument("--samples", type=_count, default=10**5)
    ast.add_argument("--seed", type=_count, default=0)
    command(ast, "audit star", _cmd_audit_density)

    aq = aud_sub.add_parser("quasirandom", help="bipartite subset-deviation audit")
    aq.add_argument("input", help="bipartite graph JSON")
    aq.add_argument("--delta", type=_fraction, required=True)
    aq.add_argument("--d", type=_fraction, required=True)
    aq.add_argument("--exact-bits", type=int, default=20)
    aq.add_argument("--samples", type=_count, default=2000)
    aq.add_argument("--seed", type=_count, default=0)
    command(aq, "audit quasirandom", _cmd_audit_quasirandom)

    ac = aud_sub.add_parser("counting-lemma", help="triangle count vs product density")
    ac.add_argument("input", help="tripartite graph JSON")
    ac.add_argument("--delta", type=_fraction, required=True)
    ac.add_argument("--dxy", type=_fraction, required=True)
    ac.add_argument("--dxz", type=_fraction, required=True)
    ac.add_argument("--dyz", type=_fraction, required=True)
    command(ac, "audit counting-lemma", _cmd_audit_counting)

    red = sub.add_parser("reduced", help="reduced-hypergraph operations")
    red_sub = red.add_subparsers(dest="redcmd", required=True)

    rc = red_sub.add_parser("check", help="(d, star)- or (d, eta, star)-density")
    rc.add_argument("input", help="reduced hypergraph JSON")
    rc.add_argument("--star", choices=tuple(_palette.NOTIONS), required=True)
    rc.add_argument("--d", type=_fraction, required=True)
    rc.add_argument("--eta", type=_fraction, default=None,
                    help="check (d, eta, star)-density instead; ev and ee only")
    command(rc, "reduced check", _cmd_reduced_check)

    rp = red_sub.add_parser("purge", help="remove low-degree class vertices")
    rp.add_argument("input")
    rp.add_argument("--d", type=_fraction, required=True)
    rp.add_argument("--out", required=True)
    command(rp, "reduced purge", _cmd_reduced_purge)

    rj = red_sub.add_parser("project", help="random projection to uniform class size")
    rj.add_argument("input")
    rj.add_argument("--ell", type=int, required=True)
    rj.add_argument("--seed", type=_count, default=0)
    rj.add_argument("--out", required=True)
    command(rj, "reduced project", _cmd_reduced_project)

    rm = red_sub.add_parser("map", help="reduced-map search")
    rm.add_argument("input")
    rm.add_argument("--F", required=True)
    rm.add_argument("--budget", type=_count, default=10**8, help="search node budget")
    rm.add_argument("--injective", action="store_true",
                    help="force an injective index assignment")
    command(rm, "reduced map", _cmd_reduced_map)

    rt = red_sub.add_parser("tetra", help="greedy tetrahedron extraction")
    rt.add_argument("input")
    rt.add_argument("--eps", type=_fraction, required=True, help="density eps in (0, 1]")
    command(rt, "reduced tetra", _cmd_reduced_tetra)

    return p


# parsed values that are not inputs: the handler, the command name, the
# report path, and the subcommand names that only restate "command"
_NOT_INPUTS = ("func", "command", "json", "cmd", "palcmd", "kind", "audcmd", "redcmd")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    inputs = {
        k: str(v) if isinstance(v, Fraction) else v
        for k, v in sorted(vars(args).items())
        if k not in _NOT_INPUTS and v is not None
    }
    report = {"command": args.command, "inputs": inputs, "version": __version__}
    try:
        t0 = time.perf_counter()
        code, lines = args.func(args, report)
        report["timing"] = {"seconds": time.perf_counter() - t0}
        for line in lines:
            print(line)
        if args.json:
            Path(args.json).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
        return code
    except _Failed as exc:
        print(exc, file=sys.stderr)
        return EX_FAIL
    except OSError as exc:
        print(f"unidense: I/O error: {exc}", file=sys.stderr)
        return EX_IOERR
    except ValueError as exc:  # every input error of the library subclasses it
        print(f"unidense: error: {exc}", file=sys.stderr)
        return EX_USAGE
    except (MemoryError, OverflowError) as exc:
        # a size beyond what the machine can index or hold: out-of-domain input
        print(f"unidense: error: input too large: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EX_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
