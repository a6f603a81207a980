"""Fuzzing of every input parser through the command line: no traceback.

Hypothesis writes hypergraph text and JSON, palette JSON, reduced JSON and
partite text and JSON files, near the valid formats and far from them, and
feeds each to the commands that read it.  Whatever the file holds, ``cli.main``
must return one of the exit codes the CLI defines and raise nothing.  Sizes
stay small, so that a well-formed file is also cheap to audit."""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import event, given, settings
from hypothesis import strategies as st

from unidense import cli

EXIT_CODES = {cli.EX_OK, cli.EX_FAIL, cli.EX_INCONCLUSIVE, cli.EX_USAGE, cli.EX_IOERR}
SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)

small = st.integers(-2, 7)
token = st.one_of(
    small.map(str),
    st.sampled_from(["", "x", "1.5", "2e0", "-0", "+3", "1/2", "0x1", "99999999999999999999", "#"]),
)
KEYS = [
    "n", "edges", "colors", "weights", "patterns", "name", "indices", "classes",
    "constituents", "sides", "parts", "xy", "xz", "yz", "0,1", "0,2", "1,2",
    "0,1,2", "1,0,2", "0,1,9", "a,b", "",
]
leaf = st.one_of(
    st.none(), st.booleans(), small, st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(["1/2", "1/3", "2/3", "1", "0", "a", "b", "1/0", "0.5", ""]),
)
anything = st.recursive(
    leaf,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.sampled_from(KEYS), inner, max_size=4),
    max_leaves=12,
)


def lines_text(rows):
    return "\n".join(" ".join(row) for row in rows) + "\n"


def perturbed(draw, obj: dict) -> dict:
    """obj, or obj with one key dropped or given an arbitrary value."""
    how = draw(st.sampled_from(("keep", "keep", "keep", "drop", "replace")))
    if how == "keep" or not obj:
        return obj
    key = draw(st.sampled_from(sorted(obj)))
    obj = dict(obj)
    if how == "drop":
        del obj[key]
    else:
        obj[key] = draw(anything)
    return obj


def valid_rows(draw, n, width, count=6):
    """Up to count rows of width distinct vertices below n, as int lists."""
    if n < width:
        return []
    row = st.lists(st.integers(0, n - 1), min_size=width, max_size=width, unique=True)
    return draw(st.lists(row, max_size=count))


def odd_row(draw, width):
    return draw(st.lists(token, max_size=width + 1))


@st.composite
def hypergraph_text(draw):
    if draw(st.booleans()):  # a well-formed file, perhaps with one bad line added
        n = draw(st.integers(0, 7))
        rows = [[str(v) for v in r] for r in valid_rows(draw, n, 3)]
        if draw(st.booleans()):
            rows.insert(draw(st.integers(0, len(rows))), odd_row(draw, 3))
        head = [str(n), str(len(rows) - draw(st.integers(0, 1)))]
    else:
        head = draw(st.lists(token, min_size=0, max_size=3))
        rows = draw(st.lists(st.lists(token, min_size=0, max_size=4), max_size=6))
    return lines_text([head] + rows)


@st.composite
def partite_text(draw, parts):
    if draw(st.booleans()):  # a well-formed file, perhaps with one bad line added
        assignment = draw(st.lists(st.integers(0, parts - 1), min_size=1, max_size=7))
        n = len(assignment)
        rows = [[str(u), str(v)] for u, v in valid_rows(draw, n, 2)
                if assignment[u] != assignment[v]]
        if draw(st.booleans()):
            rows.insert(draw(st.integers(0, len(rows))), odd_row(draw, 2))
        assignment = [str(p) for p in assignment]
        if draw(st.integers(0, 4)) == 0:
            assignment.append(draw(token))
        head = [str(n), str(len(rows) - draw(st.integers(0, 1)))]
    else:
        head = draw(st.lists(token, min_size=0, max_size=3))
        assignment = draw(st.lists(st.one_of(st.integers(-1, 3).map(str), token), max_size=8))
        rows = draw(st.lists(st.lists(token, min_size=0, max_size=3), max_size=6))
    return lines_text([head, assignment] + rows)


@st.composite
def hypergraph_json(draw):
    n = draw(st.integers(0, 7))
    edges = valid_rows(draw, n, 3)
    if draw(st.booleans()):
        edges.append(draw(st.lists(small, max_size=4)))
    return perturbed(draw, {"n": n, "edges": edges})


@st.composite
def palette_json(draw):
    colors = draw(st.lists(st.sampled_from("abcd"), min_size=1, max_size=3, unique=True))
    pattern = st.lists(st.sampled_from(colors), min_size=3, max_size=3)
    obj = {"colors": colors, "patterns": draw(st.lists(pattern, max_size=6))}
    if draw(st.booleans()):
        obj["patterns"].append(draw(st.lists(st.sampled_from(["a", "e", ""]), max_size=4)))
    if draw(st.booleans()):
        weight = st.sampled_from(["1/2", "1/3", "2/3", "1", "0", "-1/2", "1/0", "0.5"]) | leaf
        obj["weights"] = draw(st.lists(weight, min_size=len(colors) - 1, max_size=len(colors) + 1))
    if draw(st.booleans()):
        obj["name"] = draw(st.text(max_size=3) | anything)
    return perturbed(draw, obj)


@st.composite
def reduced_json(draw):
    m = draw(st.integers(2, 4))
    pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
    sizes = {p: draw(st.integers(1, 3)) for p in pairs}
    classes = {f"{i},{j}": size for (i, j), size in sizes.items()}
    constituents = {}
    for i, j, k in [(i, j, k) for i, j in pairs for k in range(j + 1, m)]:
        lims = (sizes[i, j], sizes[i, k], sizes[j, k])
        cube = st.tuples(*[st.integers(0, lim - 1) for lim in lims]).map(list)
        constituents[f"{i},{j},{k}"] = draw(st.lists(cube, max_size=6))
    key = st.lists(st.integers(-1, 4).map(str), min_size=1, max_size=4).map(",".join)
    if draw(st.booleans()):  # one stray or out-of-range entry
        which = draw(st.sampled_from(("class", "constituent", "edge")))
        if which == "class":
            classes[draw(key)] = draw(st.integers(-1, 3) | leaf)
        elif which == "constituent":
            constituents[draw(key | st.sampled_from(KEYS))] = [[0, 0, 0]]
        elif constituents:
            edges = constituents[draw(st.sampled_from(sorted(constituents)))]
            edges.append(draw(st.lists(st.integers(-1, 4), max_size=4)))
    return perturbed(draw, {"indices": m, "classes": classes, "constituents": constituents})


@st.composite
def bipartite_json(draw):
    nx, ny = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    edge = st.tuples(st.integers(0, max(nx - 1, 0)), st.integers(0, max(ny - 1, 0))).map(list)
    edges = draw(st.lists(edge, max_size=6)) if nx and ny else []
    if draw(st.booleans()):
        edges.append(draw(st.lists(small, max_size=3)))
    return perturbed(draw, {"sides": [nx, ny], "edges": edges})


@st.composite
def tripartite_json(draw):
    parts = draw(st.lists(st.lists(st.integers(0, 8), max_size=3, unique=True), min_size=3,
                          max_size=3))
    obj = {"parts": parts}
    for layer, (a, b) in zip(("xy", "xz", "yz"), ((0, 1), (0, 2), (1, 2))):
        na, nb = len(parts[a]), len(parts[b])
        edge = st.tuples(st.integers(0, max(na - 1, 0)), st.integers(0, max(nb - 1, 0))).map(list)
        obj[layer] = draw(st.lists(edge, max_size=4)) if na and nb else []
    if draw(st.booleans()):
        obj[draw(st.sampled_from(("xy", "xz", "yz")))].append(draw(st.lists(small, max_size=3)))
    return perturbed(draw, obj)


def as_json(strategy):
    return strategy().map(json.dumps) | anything.map(json.dumps) | st.text(max_size=30)


# (command arguments around the file, suffix, file contents)
CASES = st.one_of(
    st.tuples(st.just(["audit", "uniform", "{}", "--d", "1/2", "--eta", "1/10", "--samples", "20"]),
              st.just(".txt"), hypergraph_text() | st.text(max_size=40)),
    st.tuples(st.just(["audit", "uniform", "{}", "--d", "1/2", "--eta", "1/10", "--samples", "20"]),
              st.just(".json"), as_json(hypergraph_json)),
    st.tuples(st.just(["palette", "info", "--palette", "{}"]), st.just(".json"), as_json(palette_json)),
    st.tuples(st.sampled_from([["reduced", "check", "{}", "--star", s, "--d", "1/2"]
                               for s in ("vvv", "ev", "ee")]),
              st.just(".json"), as_json(reduced_json)),
    st.tuples(st.just(["audit", "quasirandom", "{}", "--delta", "1/5", "--d", "1/2",
                       "--exact-bits", "8", "--samples", "20"]),
              st.sampled_from([".txt", ".json"]),
              partite_text(2) | as_json(bipartite_json)),
    st.tuples(st.just(["audit", "counting-lemma", "{}", "--delta", "1/5", "--dxy", "1/2",
                       "--dxz", "1/2", "--dyz", "1/2"]),
              st.sampled_from([".txt", ".json"]),
              partite_text(3) | as_json(tripartite_json)),
)


@SETTINGS
@given(CASES)
def test_malformed_input_never_escapes_main(case):
    argv, suffix, content = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"input{suffix}"
        path.write_text(content, encoding="utf-8")
        argv = [str(path) if a == "{}" else a for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    event(f"{argv[0]} {argv[1]} exit {code}")
    assert code in EXIT_CODES
    assert "Traceback" not in err.getvalue()
