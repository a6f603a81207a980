"""The array reader of the hypergraph and partite text formats against the
per-token parsers it replaced.

``reference_hypergraph_from_text`` and ``reference_partite_from_text`` below
are those parsers, kept as they were: each kept line split on whitespace and
each token read with ``int()``.  Hypothesis writes files with the library's
writers and then adds comments, blank lines, CRLF and other line ends, tabs
and leading blanks, and mutates tokens and line counts.  Both parsers must
accept with equal results or both refuse, except on the tokens the grammar
narrows on purpose (signs, ``_`` separators, non-ASCII digits, numerals of
more than 18 digits), which ``int()`` read and the array reader refuses.  A
file the reference refuses must exit 64 through ``cli.main`` with a message
that names its line.
"""

import contextlib
import io
import itertools
import tempfile
from pathlib import Path

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from unidense import cli
from unidense import hypergraph as hg
from unidense import io as uio
from unidense import quasirandom as qr

PROPERTY = settings(max_examples=400, deadline=None, derandomize=True, database=None)


def reference_hypergraph_from_text(text: str) -> hg.Hypergraph3:
    rows = [ln for ln in (ln.strip() for ln in text.splitlines()) if ln and not ln.startswith("#")]
    if not rows:
        raise hg.HypergraphError("empty hypergraph file")
    head = rows[0].split()
    if len(head) != 2:
        raise hg.HypergraphError(f"expected header 'n m', got {rows[0]!r}")
    n, m = int(head[0]), int(head[1])
    if len(rows) - 1 != m:
        raise hg.HypergraphError(f"header promises {m} edges, file has {len(rows) - 1}")
    triples = [tuple(int(x) for x in ln.split()) for ln in rows[1:]]
    return hg.Hypergraph3(n, triples)


def reference_partite_from_text(text: str, want_parts: int):
    PartiteFormatError = uio.PartiteFormatError
    rows = [ln for ln in (ln.strip() for ln in text.splitlines()) if ln and not ln.startswith("#")]
    if len(rows) < 2:
        raise PartiteFormatError("partite file needs an 'n m' header and a part-assignment line")
    head = rows[0].split()
    if len(head) != 2:
        raise PartiteFormatError(f"expected header 'n m', got {rows[0]!r}")
    n, m = int(head[0]), int(head[1])
    if len(rows) - 2 != m:
        raise PartiteFormatError(f"header promises {m} edges, file has {len(rows) - 2}")
    assignment = [int(x) for x in rows[1].split()]
    if len(assignment) != n:
        raise PartiteFormatError(f"part header lists {len(assignment)} vertices, expected {n}")
    if sorted(set(assignment)) != list(range(want_parts)):
        raise PartiteFormatError(f"expected {want_parts} parts in the header")
    parts = tuple(
        tuple(v for v in range(n) if assignment[v] == p) for p in range(want_parts)
    )
    local = {}
    for part in parts:
        for i, v in enumerate(part):
            local[v] = i
    edges = {}
    for ln in rows[2:]:
        ends = ln.split()
        if len(ends) != 2:
            raise PartiteFormatError(f"expected edge line 'u v', got {ln!r}")
        u, v = int(ends[0]), int(ends[1])
        if not (0 <= u < n and 0 <= v < n):
            raise PartiteFormatError(f"edge {u} {v} has an endpoint outside 0..{n - 1}")
        pu, pv = assignment[u], assignment[v]
        if pu == pv:
            raise PartiteFormatError(f"edge {u} {v} inside one part")
        if pu > pv:
            u, v, pu, pv = v, u, pv, pu
        edges.setdefault((pu, pv), []).append((local[u], local[v]))
    return parts, edges


# tokens int() reads and the grammar refuses, the intended narrowing, by value
NARROWED = {"+3": 3, "+03": 3, "-0": 0, "1_0": 10, "٣": 3, "３": 3, "0" * 18 + "3": 3}
# tokens both parsers refuse, or read alike
MUTANTS = ["1.5", "2e0", "2.0", "x", "-1", "", "#", "0x1", "1/2", "99999999999999999999",
           "1" * 19, "007", "0", "1", "2", "3", "5", "9", "12"]
COMMENTS = ["#", "# note", "#1 2 3", "  # 1.5 x", "\t#é x 2.0", "# 0 0"]
ENDINGS = ["\n", "\r\n", "\r", "\v", "\f"]
BLANKS = ["", " ", "\t", "  \t"]
SEPARATORS = [" ", "\t", "  ", " \t "]


@st.composite
def written_file(draw, kind):
    """(kind, text) written by the library for a random instance."""
    seed = draw(st.integers(0, 2**16))
    if kind == "hypergraph":
        n = draw(st.integers(0, 9))
        gen = hg.rng(seed)
        triples = [t for t in itertools.combinations(range(n), 3) if gen.random() < 0.3]
        return uio.hypergraph_to_text(hg.make(n, triples))
    p = draw(st.sampled_from([0.0, 0.4, 1.0]))
    if kind == "bipartite":
        G = qr.BipartiteGraph.random(draw(st.integers(1, 4)), draw(st.integers(1, 4)), p, seed)
        return uio.bipartite_to_text(G)
    sizes = tuple(draw(st.integers(1, 3)) for _ in range(3))
    return uio.tripartite_to_text(qr.TripartiteGraph.random(sizes, p, seed))


@st.composite
def mutated(draw, kind):
    """A written file with comments, blanks, line ends and token or line-count
    mutations drawn on top."""
    rows = [ln.split() for ln in draw(written_file(kind)).splitlines()]
    for _ in range(draw(st.sampled_from([0, 0, 1, 1, 2, 3]))):
        how = draw(st.sampled_from(["token", "token", "narrow", "drop", "repeat", "extra", "header"]))
        if not rows:
            break
        at = draw(st.integers(0, len(rows) - 1))
        if how in ("token", "narrow") and rows[at]:
            i = draw(st.integers(0, len(rows[at]) - 1))
            if how == "token":
                rows[at][i] = draw(st.sampled_from(MUTANTS + sorted(NARROWED)))
            else:  # the same value, written so that only int() reads it
                rows[at][i] = draw(st.sampled_from(["+", "+0", "0" * 18])) + rows[at][i]
        elif how == "drop":
            del rows[at]
        elif how == "repeat":
            rows.insert(at, list(rows[at]))
        elif how == "extra":
            rows[at].append(draw(st.sampled_from(MUTANTS)))
        elif how == "header":
            rows[0] = [str(int(x) + draw(st.integers(-1, 1))) if x.isdigit() else x for x in rows[0]]
    lines = []
    for row in rows:
        while draw(st.integers(0, 5)) == 5:
            lines.append(draw(st.sampled_from(COMMENTS + BLANKS)))
        sep = draw(st.sampled_from(SEPARATORS))
        lines.append(draw(st.sampled_from(BLANKS)) + sep.join(row) + draw(st.sampled_from(BLANKS)))
    if draw(st.booleans()):
        lines.append(draw(st.sampled_from(COMMENTS + BLANKS)))
    ends = draw(st.sampled_from(["one", "one", "mixed"]))
    end = draw(st.sampled_from(ENDINGS))
    return "".join(ln + (draw(st.sampled_from(ENDINGS)) if ends == "mixed" else end)
                   for ln in lines)


READERS = {
    "hypergraph": (reference_hypergraph_from_text, uio.hypergraph_from_text,
                   hg.HypergraphError, ["audit", "uniform", "IN", "--d", "1/4", "--eta", "0"]),
    "bipartite": (lambda t: reference_partite_from_text(t, 2), lambda t: uio._partite_from_text(t, 2),
                  uio.PartiteFormatError, ["audit", "quasirandom", "IN", "--delta", "1/4", "--d", "1/2"]),
    "tripartite": (lambda t: reference_partite_from_text(t, 3), lambda t: uio._partite_from_text(t, 3),
                   uio.PartiteFormatError, ["audit", "counting-lemma", "IN", "--delta", "1/4",
                                            "--dxy", "1/2", "--dxz", "1/2", "--dyz", "1/2"]),
}


def narrowed(token: str) -> bool:
    """Whether int() reads a token that the grammar refuses."""
    if token.isascii() and token.isdigit() and len(token) <= 18:
        return False
    try:
        int(token)
    except ValueError:
        return False
    return True


def outcome(parse, text):
    try:
        return True, parse(text)
    except ValueError as exc:
        return False, exc


def run_cli(argv, text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.txt"
        path.write_text(text, encoding="utf-8")
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main([str(path) if a == "IN" else a for a in argv])
    return code, err.getvalue()


@PROPERTY
@given(st.sampled_from(sorted(READERS)).flatmap(lambda k: st.tuples(st.just(k), mutated(k))))
def test_array_reader_agrees_with_reference(case):
    kind, text = case
    reference, reader, error, argv = READERS[kind]
    old_ok, old = outcome(reference, text)
    new_ok, new = outcome(reader, text)
    event(f"{kind}: reference {'accepts' if old_ok else 'refuses'}, "
          f"reader {'accepts' if new_ok else 'refuses'}")
    if new_ok:
        assert old_ok and new == old
        return
    assert type(new) is error
    assert "line " in str(new) or "no 'n m' header" in str(new)
    if old_ok:  # only the intended narrowing may turn an accepted file into a refusal
        assert any(narrowed(token) for token in text.split())
    else:
        code, err = run_cli(argv, text)
        assert code == cli.EX_USAGE and err.startswith("unidense: error:")
        assert "Traceback" not in err and ("line " in err or "no 'n m' header" in err)


@pytest.mark.parametrize("token, value", sorted(NARROWED.items()))
def test_narrowed_tokens_refused(token, value):
    n = max(value, 2) + 1
    edge = f"{token} 1 2" if value < 2 else f"0 1 {token}"
    text = f"{n} 1\n{edge}\n"
    assert reference_hypergraph_from_text(text).edge_count == 1  # int() read it
    with pytest.raises(hg.HypergraphError, match="^line 2: "):
        uio.hypergraph_from_text(text)
    parts = " ".join(["0"] + ["1"] * (n - 1))
    edge = f"{token} 1" if value == 0 else f"0 {token}"
    text = f"{n} 1\n{parts}\n{edge}\n"
    assert reference_partite_from_text(text, 2)[1]  # one edge, read by int()
    with pytest.raises(uio.PartiteFormatError, match="^line 3: "):
        uio.bipartite_from_text(text)
