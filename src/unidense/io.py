"""File formats: hypergraph text/JSON, palette JSON, reduced-hypergraph JSON,
pair-colouring dumps, bipartite/tripartite graphs, and DIMACS CNF export.

Rationals travel as "p/q" strings everywhere.
"""

from __future__ import annotations

import itertools
import json
from fractions import Fraction
from pathlib import Path

import numpy as np

from .hypergraph import Hypergraph3, HypergraphError, bit_positions
from .palette import Palette, PaletteError, WeightedColorSet


def parse_fraction(s) -> Fraction:
    """Parse "p/q" or an integer string; floats are rejected."""
    if isinstance(s, Fraction):
        return s
    if isinstance(s, int):
        return Fraction(s)
    text = str(s).strip()
    if any(ch in text for ch in ".eE") and not text.lstrip("+-").isdigit():
        raise ValueError(f"rational expected (p/q), got {s!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {s!r}") from None


def format_fraction(f: Fraction) -> str:
    f = Fraction(f)
    return f"{f.numerator}/{f.denominator}" if f.denominator != 1 else str(f.numerator)


def _read_json(path, error=ValueError):
    """The JSON value stored in a file.  Text that is not JSON, or nesting
    too deep for the decoder, raises ``error`` (a ValueError) naming the file,
    and for a syntax error its line and column, as malformed input."""
    try:
        return json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise error(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    except RecursionError:
        raise error(f"{path}: JSON nested too deeply to read") from None


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_ints(x, length=None) -> bool:
    """A JSON list of integers, of the given length when one is given."""
    return (
        isinstance(x, list)
        and (length is None or len(x) == length)
        and all(_is_int(v) for v in x)
    )


def _is_rows(x, width: int) -> bool:
    """A JSON list of integer lists of length width."""
    return isinstance(x, list) and all(_is_ints(r, width) for r in x)


# -- integer-line text ---------------------------------------------------------
#
# The hypergraph and partite text formats are lines of decimal numerals.  A
# line ends at \n, \r\n, \r, \v or \f.  Blank lines, and lines whose first
# non-blank character is "#", are skipped.  Every other line holds ASCII
# digits and blanks (space, \t, \r, \v, \f) only, and no numeral is longer
# than 18 digits, so every value fits int64.

_MAX_DIGITS = 18
_BYTE_CLASS = np.zeros(256, dtype=np.uint8)  # 0 other, 1 blank, 2 digit
_BYTE_CLASS[list(b" \t\r\n\v\f")] = 1
_BYTE_CLASS[ord("0") : ord("9") + 1] = 2


def _int_lines(text: str, error):
    """The numerals of the text's kept lines, read as arrays.

    Returns (values, counts, lines): every numeral as int64 in file order, the
    numeral count of each kept line and that line's 1-based number in the
    file.  A byte outside the grammar above, or a numeral of more than 18
    digits, raises ``error`` naming its line and word.  Only once every byte
    has been checked does numpy's text parser read the numerals.
    """
    data = text.encode()
    a = np.frombuffer(data, dtype=np.uint8)
    kind = np.take(_BYTE_CLASS, a)
    ends = a == 13  # \r ends a line unless \n follows
    ends[:-1] &= a[1:] != 10
    ends |= (a == 10) | (a == 11) | (a == 12)
    breaks = np.flatnonzero(ends)
    other = np.flatnonzero(kind == 0)
    if len(other):  # only comment lines may hold them
        line = np.searchsorted(breaks, other)
        line_start = np.concatenate(([0], breaks + 1))
        nonblank = np.flatnonzero(kind != 1)
        comment = a[nonblank[np.searchsorted(nonblank, line_start[line])]] == ord("#")
        if not comment.all():
            bad = np.argmin(comment)
            raise error(f"line {line[bad] + 1}: {_word_at(data, other[bad])!r} is not a decimal integer")
        line = np.unique(line)  # blank the comment lines out
        edge = np.zeros(len(a) + 1, dtype=np.int8)
        edge[line_start[line]] = 1
        edge[np.append(breaks, len(a))[line]] = -1
        blank = np.cumsum(edge[:-1]) > 0
        a = np.where(blank, np.uint8(ord(" ")), a)
        kind = np.where(blank, np.uint8(1), kind)
    digit = kind == 2
    first, last = digit.copy(), digit.copy()
    first[1:] &= ~digit[:-1]
    last[:-1] &= ~digit[1:]
    starts, stops = np.flatnonzero(first), np.flatnonzero(last) + 1
    long = np.flatnonzero(stops - starts > _MAX_DIGITS)
    if len(long):
        i = starts[long[0]]
        raise error(
            f"line {np.searchsorted(breaks, i) + 1}: numeral {_word_at(data, i)} "
            f"has more than {_MAX_DIGITS} digits"
        )
    counts = np.diff(np.concatenate(([0], np.searchsorted(starts, breaks), [len(starts)])))
    kept = np.flatnonzero(counts)
    values = np.zeros(0, dtype=np.int64)
    if len(starts):  # from a digit to a digit, so the parser sees numerals and blanks only
        values = np.fromstring(a[starts[0] : stops[-1]].tobytes(), dtype=np.int64, sep=" ")
    return values, counts[kept], kept + 1


def _word_at(data: bytes, pos) -> str:
    """The blank-delimited word of data around byte pos."""
    lo = hi = int(pos)
    while lo and _BYTE_CLASS[data[lo - 1]] != 1:
        lo -= 1
    while hi < len(data) and _BYTE_CLASS[data[hi]] != 1:
        hi += 1
    return data[lo:hi].decode()


def _int_table(text: str, error, width: int, lead: int = 0):
    """A text of an 'n m' header, ``lead`` (0 or 1) free lines, then m lines
    of ``width`` numerals.

    Returns (n, lead_values, rows, lines): the lead line's values, the rows as
    an int64 (m, width) array, and the file line of each kept line (header,
    lead line, rows).
    """
    values, counts, lines = _int_lines(text, error)
    if not len(counts):
        raise error("the file has no 'n m' header")
    if counts[0] != 2:
        raise error(f"line {lines[0]}: the header 'n m' needs 2 numbers, not {counts[0]}")
    if len(counts) < 1 + lead:
        raise error(f"line {lines[0]}: no part-assignment line follows the header")
    n, m = values[:2].tolist()
    widths = counts[1 + lead :]
    if len(widths) != m:
        raise error(f"line {lines[0]}: header promises {m} edges, file has {len(widths)}")
    wrong = np.flatnonzero(widths != width)
    if len(wrong):
        i = wrong[0]
        raise error(f"line {lines[1 + lead + i]}: expected {width} numbers, got {widths[i]}")
    body = 2 + int(counts[1 : 1 + lead].sum())
    return n, values[2:body], values[body:].reshape(m, width), lines


# -- hypergraphs -------------------------------------------------------------


def hypergraph_to_text(H: Hypergraph3) -> str:
    rows = ("%d %d %d\n" * H.edge_count) % tuple(H.array.ravel().tolist())
    return f"{H.n} {H.edge_count}\n" + rows


def hypergraph_from_text(text: str) -> Hypergraph3:
    n, _, E, lines = _int_table(text, HypergraphError, 3)
    try:
        return Hypergraph3(n, E)
    except HypergraphError as exc:  # name the line of the bad triple, or else the header
        ok = (E[:, 0] != E[:, 1]) & (E[:, 0] != E[:, 2]) & (E[:, 1] != E[:, 2]) & (E < n).all(axis=1)
        line = lines[0] if ok.all() else lines[1 + np.argmin(ok)]
        raise HypergraphError(f"line {line}: {exc}") from None


def hypergraph_to_json(H: Hypergraph3) -> dict:
    return {"n": H.n, "edges": H.array.tolist()}


def hypergraph_from_json(obj: dict) -> Hypergraph3:
    if not (isinstance(obj, dict) and _is_int(obj.get("n")) and _is_rows(obj.get("edges"), 3)):
        raise HypergraphError(
            'hypergraph JSON must be an object with an integer "n" and an "edges" list of triples'
        )
    return Hypergraph3(obj["n"], obj["edges"])


def write_hypergraph(H: Hypergraph3, path) -> None:
    path = Path(path)
    if path.suffix == ".json":
        path.write_text(json.dumps(hypergraph_to_json(H), indent=2) + "\n")
    else:
        path.write_text(hypergraph_to_text(H))


def read_hypergraph(path) -> Hypergraph3:
    path = Path(path)
    if path.suffix == ".json":
        return hypergraph_from_json(_read_json(path))
    return hypergraph_from_text(path.read_text())


# -- palettes ----------------------------------------------------------------


def palette_to_json(P: Palette) -> dict:
    obj = {
        "colors": list(P.base.colors),
        "patterns": sorted([list(p) for p in P.patterns]),
    }
    if not P.base.is_uniform:
        obj["weights"] = [format_fraction(w) for w in P.base.weights]
    if P.name:
        obj["name"] = P.name
    return obj


def _is_str_list(x) -> bool:
    return isinstance(x, list) and all(isinstance(c, str) for c in x)


def palette_from_json(obj: dict) -> Palette:
    if not isinstance(obj, dict):
        raise PaletteError(f"palette JSON must be an object, got {type(obj).__name__}")
    if not _is_str_list(obj.get("colors")):
        raise PaletteError('palette JSON needs a "colors" list of names')
    patterns = obj.get("patterns", [])
    if not isinstance(patterns, list) or not all(_is_str_list(p) for p in patterns):
        raise PaletteError('palette "patterns" must be a list of colour-name lists')
    colors = tuple(obj["colors"])
    if "weights" in obj:
        if not isinstance(obj["weights"], list):
            raise PaletteError('palette "weights" must be a list')
        base = WeightedColorSet(colors, tuple(parse_fraction(w) for w in obj["weights"]))
    else:
        base = WeightedColorSet.uniform(colors)
    pats = frozenset(tuple(p) for p in patterns)
    return Palette(base, pats, name=obj.get("name", ""))


def write_palette(P: Palette, path) -> None:
    Path(path).write_text(json.dumps(palette_to_json(P), indent=2) + "\n")


def read_palette(path) -> Palette:
    return palette_from_json(_read_json(path, PaletteError))


# -- pair colourings -----------------------------------------------------------


def coloring_to_text(pc) -> str:
    """One 'x y colour' line per pair, pairs in lexicographic order."""
    lines = [f"{x} {y} {color}" for (x, y), color in pc.items()]
    return "\n".join(lines) + ("\n" if lines else "")


# -- reduced hypergraphs -------------------------------------------------------


def reduced_to_json(A) -> dict:
    classes = {f"{i},{j}": A.class_sizes[(i, j)] for (i, j) in sorted(A.class_sizes)}
    constituents = {f"{i},{j},{k}": edges for (i, j, k), edges in A.edge_lists().items()}
    return {"indices": len(A.indices), "classes": classes, "constituents": constituents}


def reduced_from_json(obj: dict):
    from .reduced import ReducedError, ReducedHypergraph

    def index_key(key: str, arity: int) -> tuple[int, ...]:
        parts = key.split(",")
        if len(parts) != arity or not all(x.strip().isdecimal() for x in parts):
            raise ReducedError(f"reduced JSON key {key!r} is not {arity} comma-separated indices")
        return tuple(int(x) for x in parts)

    constituents = obj.get("constituents", {}) if isinstance(obj, dict) else None
    if not (
        isinstance(obj, dict)
        and _is_int(obj.get("indices"))
        and isinstance(obj.get("classes"), dict)
        and all(_is_int(size) for size in obj["classes"].values())
        and isinstance(constituents, dict)
        and all(_is_rows(edges, 3) for edges in constituents.values())
    ):
        raise ReducedError(
            'reduced JSON must be an object with an integer "indices", a "classes" map of '
            'integer sizes and a "constituents" map of triple lists'
        )
    classes = {index_key(key, 2): size for key, size in obj["classes"].items()}
    cons = {index_key(key, 3): edges for key, edges in constituents.items()}
    if len(classes) != len(obj["classes"]) or len(cons) != len(constituents):
        raise ReducedError("reduced JSON names one class or constituent under two keys")
    return ReducedHypergraph(tuple(range(obj["indices"])), classes, cons)


def write_reduced(A, path) -> None:
    Path(path).write_text(json.dumps(reduced_to_json(A), indent=2) + "\n")


def read_reduced(path):
    return reduced_from_json(_read_json(path))


# -- bipartite / tripartite graphs ---------------------------------------------
#
# Text format mirrors the hypergraph convention with a part-assignment header:
#   n m
#   p_0 p_1 ... p_{n-1}      (part id per vertex: 0/1 bipartite, 0/1/2 tripartite)
#   u v                      (m edge lines, global vertex labels)


def partite_to_text(parts, layers) -> str:
    """Serialize a partite graph given global part tuples and local-index layers.

    layers maps (part_i, part_j) with i < j to a BipartiteGraph.
    """
    labels = [v for part in parts for v in part]
    n = len(labels)
    part_of = {}
    for pi, part in enumerate(parts):
        for v in part:
            part_of[v] = pi
    edge_lines = []
    for (pi, pj), G in sorted(layers.items()):
        edge_lines += [f"{parts[pi][x]} {parts[pj][y]}" for x, y in _layer_edges(G)]
    head = [f"{n} {len(edge_lines)}", " ".join(str(part_of[v]) for v in sorted(labels))]
    return "\n".join(head + edge_lines) + "\n"


def bipartite_to_text(G) -> str:
    parts = (tuple(range(G.nx)), tuple(range(G.nx, G.nx + G.ny)))
    return partite_to_text(parts, {(0, 1): G})


def tripartite_to_text(P) -> str:
    return partite_to_text(P.parts, {(0, 1): P.xy, (0, 2): P.xz, (1, 2): P.yz})


class PartiteFormatError(ValueError):
    """Text-format parse error for partite graphs."""


def _partite_from_text(text: str, want_parts: int):
    n, assignment, E, lines = _int_table(text, PartiteFormatError, 2, lead=1)
    if len(assignment) != n:
        raise PartiteFormatError(
            f"line {lines[1]}: part header lists {len(assignment)} vertices, expected {n}"
        )
    if np.unique(assignment).tolist() != list(range(want_parts)):
        raise PartiteFormatError(f"line {lines[1]}: expected {want_parts} parts in the header")
    outside = (E >= n).any(axis=1)
    side = assignment[np.where(outside[:, None], 0, E)]
    bad = outside | (side[:, 0] == side[:, 1])
    if bad.any():
        i = np.argmax(bad)
        u, v = E[i].tolist()
        what = f"has an endpoint outside 0..{n - 1}" if outside[i] else "inside one part"
        raise PartiteFormatError(f"line {lines[2 + i]}: edge {u} {v} {what}")
    parts = tuple(np.flatnonzero(assignment == p) for p in range(want_parts))
    local = np.empty(n, dtype=np.int64)
    for part in parts:
        local[part] = np.arange(len(part))
    swap = side[:, :1] > side[:, 1:]  # each edge from its lower part to its higher one
    E, side = np.where(swap, E[:, ::-1], E), np.where(swap, side[:, ::-1], side)
    edges = {}
    for pu, pv in itertools.combinations(range(want_parts), 2):
        at = (side == (pu, pv)).all(axis=1)
        if at.any():
            edges[(pu, pv)] = list(zip(*local[E[at]].T.tolist()))
    return tuple(tuple(part.tolist()) for part in parts), edges


def bipartite_from_text(text: str):
    from .quasirandom import BipartiteGraph

    parts, edges = _partite_from_text(text, 2)
    return BipartiteGraph.from_edges(len(parts[0]), len(parts[1]), edges.get((0, 1), []))


def tripartite_from_text(text: str):
    from .quasirandom import BipartiteGraph, TripartiteGraph

    parts, edges = _partite_from_text(text, 3)
    sizes = tuple(len(p) for p in parts)
    return TripartiteGraph(
        parts,
        BipartiteGraph.from_edges(sizes[0], sizes[1], edges.get((0, 1), [])),
        BipartiteGraph.from_edges(sizes[0], sizes[2], edges.get((0, 2), [])),
        BipartiteGraph.from_edges(sizes[1], sizes[2], edges.get((1, 2), [])),
    )


def read_bipartite(path):
    path = Path(path)
    if path.suffix == ".json":
        return bipartite_from_json(_read_json(path))
    return bipartite_from_text(path.read_text())


def read_tripartite(path):
    path = Path(path)
    if path.suffix == ".json":
        return tripartite_from_json(_read_json(path))
    return tripartite_from_text(path.read_text())


def _layer_edges(G) -> list:
    """The edges of a bipartite graph as [x, y] lists, by x and then y."""
    return [[x, y] for x, row in enumerate(G.rows) for y in bit_positions(row)]


def bipartite_to_json(G) -> dict:
    return {"sides": [G.nx, G.ny], "edges": _layer_edges(G)}


def bipartite_from_json(obj: dict):
    from .quasirandom import BipartiteGraph, GraphError

    sides = obj.get("sides") if isinstance(obj, dict) else None
    if not (_is_ints(sides, 2) and min(sides) >= 0 and _is_rows(obj.get("edges"), 2)):
        raise GraphError(
            'bipartite JSON must be an object with "sides" [nx, ny] and an "edges" list of pairs'
        )
    return BipartiteGraph.from_edges(*sides, [tuple(e) for e in obj["edges"]])


def tripartite_to_json(P) -> dict:
    return {
        "parts": [list(p) for p in P.parts],
        "xy": _layer_edges(P.xy),
        "xz": _layer_edges(P.xz),
        "yz": _layer_edges(P.yz),
    }


def tripartite_from_json(obj: dict):
    from .quasirandom import BipartiteGraph, GraphError, TripartiteGraph

    if not (
        isinstance(obj, dict)
        and isinstance(obj.get("parts"), list)
        and len(obj["parts"]) == 3
        and all(_is_ints(p) for p in obj["parts"])
        and all(_is_rows(obj.get(layer), 2) for layer in ("xy", "xz", "yz"))
    ):
        raise GraphError(
            'tripartite JSON must be an object with three "parts" label lists and '
            '"xy", "xz", "yz" lists of pairs'
        )
    parts = tuple(tuple(p) for p in obj["parts"])
    nx_, ny_, nz_ = (len(p) for p in parts)
    return TripartiteGraph(
        parts,
        BipartiteGraph.from_edges(nx_, ny_, [tuple(e) for e in obj["xy"]]),
        BipartiteGraph.from_edges(nx_, nz_, [tuple(e) for e in obj["xz"]]),
        BipartiteGraph.from_edges(ny_, nz_, [tuple(e) for e in obj["yz"]]),
    )


# -- DIMACS -------------------------------------------------------------------


def write_dimacs(path, num_vars: int, clauses, varmap: dict, meta: dict) -> None:
    """Write a CNF plus a sidecar <path>.vars.json with the variable meaning
    and the encoding's meta."""
    path = Path(path)
    lines = [f"p cnf {num_vars} {len(clauses)}"]
    lines.extend(" ".join(str(lit) for lit in cl) + " 0" for cl in clauses)
    path.write_text("\n".join(lines) + "\n")
    sidecar = {"variables": {str(v): info for v, info in sorted(varmap.items())}, "meta": meta}
    path.with_suffix(path.suffix + ".vars.json").write_text(
        json.dumps(sidecar, indent=2, sort_keys=True) + "\n"
    )
