"""File-format round-trips and the command-line interface, including exit
codes, JSON report reproducibility, and CNF export."""

import itertools
import json
from fractions import Fraction

import numpy as np
import pytest

from unidense import cli
from unidense import construct as cn
from unidense import hypergraph as hg
from unidense import io as uio
from unidense import palette as pal
from unidense import quasirandom as qr
from unidense import reduced as rd


class TestFractions:
    def test_parse_and_format(self):
        assert uio.parse_fraction("2/3") == Fraction(2, 3)
        assert uio.parse_fraction("5") == Fraction(5)
        assert uio.parse_fraction(Fraction(-2, 6)) == Fraction(-1, 3)
        assert uio.parse_fraction(7) == Fraction(7)
        assert uio.format_fraction(Fraction(1, 4)) == "1/4"
        assert uio.format_fraction(Fraction(3)) == "3"

    def test_floats_rejected(self):
        for bad in ("0.5", "1e-3", "2.0/3"):
            with pytest.raises(ValueError):
                uio.parse_fraction(bad)

    def test_zero_denominator_rejected(self):
        with pytest.raises(ValueError, match="zero denominator"):
            uio.parse_fraction("1/0")


class TestHypergraphFormats:
    def test_text_round_trip(self, tmp_path):
        H = cn.tournament_hypergraph(12, 5)
        p = tmp_path / "h.txt"
        uio.write_hypergraph(H, p)
        assert uio.read_hypergraph(p) == H
        first = p.read_text().splitlines()[0]
        assert first == f"12 {H.edge_count}"

    def test_json_round_trip(self, tmp_path):
        H = hg.fano()
        p = tmp_path / "h.json"
        uio.write_hypergraph(H, p)
        assert uio.read_hypergraph(p) == H

    def test_bad_header(self):
        with pytest.raises(hg.HypergraphError):
            uio.hypergraph_from_text("3\n0 1 2\n")

    @pytest.mark.parametrize("row", [
        "0 1.5 2", "0 1 2e0", "0 1 2.0", "0 1 x", "0 1 99999999999999999999",
        "0 1 +3", "0 1 1_0", "0 1 -1", "0 1 ٢", "0 1 " + "0" * 18 + "2",
    ])
    def test_non_integer_token_rejected(self, row):
        with pytest.raises(hg.HypergraphError, match="^line 2: "):
            uio.hypergraph_from_text(f"3 1\n{row}\n")


class TestPaletteFormat:
    def test_round_trip_uniform(self, tmp_path):
        P = pal.builtin("ee11")
        p = tmp_path / "p.json"
        uio.write_palette(P, p)
        Q = uio.read_palette(p)
        assert Q.patterns == P.patterns and Q.base == P.base

    def test_round_trip_weighted(self, tmp_path):
        P = pal.builtin("cycle5")
        p = tmp_path / "p.json"
        uio.write_palette(P, p)
        Q = uio.read_palette(p)
        assert Q.base.weights == P.base.weights
        assert json.loads(p.read_text())["weights"] == ["2/3", "1/3"]

    def test_parse_error_carries_position(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text('{"colors": [}')
        with pytest.raises(pal.PaletteError, match="line"):
            uio.read_palette(p)

    def test_malformed_objects_rejected(self):
        for obj in ([], {}, {"colors": "ab"}, {"colors": ["a"], "patterns": [[["a"]]]},
                    {"colors": ["a"], "weights": "1"}):
            with pytest.raises(pal.PaletteError):
                uio.palette_from_json(obj)


class TestReducedFormat:
    def test_round_trip(self, tmp_path):
        A = rd.from_palette(pal.builtin("ee5"), 4)
        p = tmp_path / "a.json"
        uio.write_reduced(A, p)
        assert uio.read_reduced(p) == A


class TestGraphFormats:
    def test_bipartite_round_trip(self):
        G = qr.BipartiteGraph.random(5, 7, 0.5, 3)
        assert uio.bipartite_from_json(uio.bipartite_to_json(G)) == G

    def test_tripartite_round_trip(self):
        P = qr.TripartiteGraph.random((3, 4, 5), 0.5, 1)
        Q = uio.tripartite_from_json(uio.tripartite_to_json(P))
        assert Q == P

    def test_bipartite_text_round_trip(self):
        G = qr.BipartiteGraph.random(4, 6, 0.5, 9)
        assert uio.bipartite_from_text(uio.bipartite_to_text(G)) == G

    def test_tripartite_text_round_trip(self):
        P = qr.TripartiteGraph.random((3, 2, 4), 0.6, 4)
        Q = uio.tripartite_from_text(uio.tripartite_to_text(P))
        # text labels parts contiguously; compare layer structure
        assert (Q.xy, Q.xz, Q.yz) == (P.xy, P.xz, P.yz)
        assert tuple(len(p) for p in Q.parts) == tuple(len(p) for p in P.parts)

    def test_bipartite_text_edges_from_either_part(self):
        # parts {0, 2} and {1, 3}; edge "1 0" is listed from the higher part
        G = uio.bipartite_from_text("4 2\n0 1 0 1\n1 0\n2 3\n")
        assert G == qr.BipartiteGraph.from_edges(2, 2, [(0, 0), (1, 1)])

    def test_tripartite_text_edges_from_either_part(self):
        # parts (1, 3), (2, 5), (0, 4) interleaved in the header; every layer
        # has an edge listed from its higher part, and "3 4" from its lower one
        P = uio.tripartite_from_text("6 4\n2 0 1 0 2 1\n2 1\n0 5\n3 4\n4 1\n")
        assert P == qr.TripartiteGraph(
            ((1, 3), (2, 5), (0, 4)),
            qr.BipartiteGraph.from_edges(2, 2, [(0, 0)]),
            qr.BipartiteGraph.from_edges(2, 2, [(0, 1), (1, 1)]),
            qr.BipartiteGraph.from_edges(2, 2, [(1, 0)]),
        )

    def test_text_part_header_shape(self):
        G = qr.BipartiteGraph.complete(2, 3)
        lines = uio.bipartite_to_text(G).splitlines()
        assert lines[0] == "5 6"
        assert lines[1] == "0 0 1 1 1"


    @pytest.mark.parametrize("read, obj", [
        (uio.hypergraph_from_json, {"n": 3}),
        (uio.hypergraph_from_json, [[0, 1, 2]]),
        (uio.hypergraph_from_json, {"n": True, "edges": []}),
        (uio.reduced_from_json, {"indices": 2}),
        (uio.reduced_from_json, {"indices": 2, "classes": {"0,1": "1"}}),
        (uio.reduced_from_json, {"indices": 3, "classes": {"0,1,2": 1}}),
        (uio.bipartite_from_json, {"sides": [2, -1], "edges": []}),
        (uio.bipartite_from_json, {"sides": [2, 2], "edges": [[0]]}),
        (uio.tripartite_from_json, {"parts": [[0], [1], ["z"]], "xy": [], "xz": [], "yz": []}),
        # one class or constituent under two keys
        (uio.reduced_from_json, {"indices": 3, "classes": {"0,1": 1, "0,2": 1, "1,2": 1, "01,2": 2}}),
        (uio.reduced_from_json, {"indices": 3, "classes": {"0,1": 1, "0,2": 1, "1,2": 1},
                                 "constituents": {"0,1,2": [[0, 0, 0]], "0, 1, 2": []}}),
    ])
    def test_malformed_json_rejected(self, read, obj):
        with pytest.raises((hg.HypergraphError, rd.ReducedError, qr.GraphError)):
            read(obj)


class TestColoringDump:
    def test_lines(self):
        base = pal.WeightedColorSet.uniform(("r", "g"))
        phi = cn.PairColoring(3, base, np.array([0, 1, 0]))  # r, g, r
        assert uio.coloring_to_text(phi).splitlines() == ["0 1 r", "0 2 g", "1 2 r"]


class TestCli:
    def test_palette_info(self, capsys):
        assert cli.main(["palette", "info", "--palette", "ee11"]) == 0
        out = capsys.readouterr().out
        assert "density ee  = 2/3" in out

    def test_palette_info_weighted_file(self, tmp_path, capsys):
        # every triple over {a: 2/3, b: 1/3} but aaa: vvv 1 - 8/27, ev through
        # a fixed a (1 - 4/9) and ee through a fixed aa (1/3)
        f = tmp_path / "p.json"
        triples = [list(p) for p in itertools.product("ab", repeat=3) if p != ("a", "a", "a")]
        f.write_text(json.dumps({"colors": ["a", "b"], "weights": ["2/3", "1/3"],
                                 "patterns": triples}))
        assert cli.main(["palette", "info", "--palette", str(f)]) == 0
        out = capsys.readouterr().out
        assert "density vvv = 19/27\n  density ev  = 5/9\n  density ee  = 1/3\n" in out

    def test_palette_closure(self, tmp_path):
        gen = tmp_path / "g.json"
        gen.write_text(json.dumps({"colors": ["1", "2"], "patterns": [["1", "1", "2"]]}))
        out = tmp_path / "closed.json"
        assert cli.main([
            "palette", "closure", "--generators", str(gen), "--out", str(out)
        ]) == 0
        assert len(uio.read_palette(out).patterns) == 3

    def test_certify_free_exit_zero(self, tmp_path):
        rpt = tmp_path / "r.json"
        code = cli.main([
            "certify", "--F", "k4minus", "--palette", "tournament", "--json", str(rpt)
        ])
        assert code == 0
        data = json.loads(rpt.read_text())
        assert data["verdict"] == "free"
        assert data["space"] == "1536"

    def test_certify_inconclusive_exit_two(self, capsys):
        code = cli.main(["certify", "--F", "k6", "--palette", "ee6", "--budget", "10"])
        assert code == 2
        assert capsys.readouterr().err == "search budget exhausted without a verdict\n"

    def test_reduced_map_inconclusive_exit_two(self, tmp_path, capsys):
        a, rpt = tmp_path / "a.json", tmp_path / "r.json"
        uio.write_reduced(rd.from_palette(pal.builtin("ee6"), 7), a)
        argv = ["reduced", "map", str(a), "--F", "k6", "--budget", "5", "--json", str(rpt)]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == "search budget exhausted without a verdict\n"
        report = json.loads(rpt.read_text())
        assert report["verdict"] == "inconclusive" and "exhausted" not in report

    # each command declares only the flags it reads: palette info takes its
    # palette as one --palette spec, and no search takes a flag that would
    # only silence its inconclusive note
    @pytest.mark.parametrize("argv", [
        ["certify", "--F", "k6", "--palette", "ee6", "--budget", "10", "--allow-inconclusive"],
        ["reduced", "map", "A", "--F", "k6", "--budget", "5", "--allow-inconclusive"],
        ["palette", "info", "--builtin", "ee11"],
        ["palette", "info", "--file", "P"],
    ], ids=" ".join)
    def test_removed_flags_exit_64(self, tmp_path, capsys, argv):
        files = {"A": tmp_path / "a.json", "P": tmp_path / "p.json"}
        uio.write_reduced(rd.from_palette(pal.builtin("ee6"), 7), files["A"])
        uio.write_palette(pal.builtin("ee11"), files["P"])
        with pytest.raises(SystemExit) as exc:
            cli.main([str(files.get(x, x)) for x in argv])
        assert exc.value.code == 64
        out, err = capsys.readouterr()
        assert out == "" and "error:" in err

    def test_palette_info_reads_a_spec_like_certify(self, tmp_path, capsys):
        # a spec that names no file is read as a builtin name, as by certify
        missing = str(tmp_path / "missing.json")
        for argv in (["palette", "info", "--palette", missing],
                     ["certify", "--F", "k4", "--palette", missing]):
            assert cli.main(argv) == 64
            assert f"unknown builtin palette {missing!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["certify", "--F", "k4", "--palette", "ee5", "--budget", "x"],
         "argument --budget: must be an integer, got 'x'"),
        (["gen", "lift", "--reduced", "A", "--h", "0", "--out", "OUT"],
         "block size must be positive, got 0"),
        (["reduced", "project", "A", "--ell", "0", "--out", "OUT"],
         "class size must be positive, got 0"),
    ], ids=["certify --budget", "gen lift --h", "reduced project --ell"])
    def test_flag_values_out_of_domain_exit_64(self, tmp_path, capsys, argv, message):
        files = {"A": tmp_path / "a.json", "OUT": tmp_path / "out.txt"}
        uio.write_reduced(rd.from_palette(pal.builtin("tournament"), 4), files["A"])
        try:
            code = cli.main([str(files.get(x, x)) for x in argv])
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        assert code == 64 and out == "" and message in err
        assert not files["OUT"].exists()

    def test_palette_info_zero_weight_colour(self, tmp_path, capsys):
        # the colour b of weight 0 is never fixed by a witness, so every
        # notion reads the mass of aaa alone
        f = tmp_path / "p.json"
        f.write_text(json.dumps({"colors": ["a", "b"], "weights": ["1", "0"],
                                 "patterns": [["a", "a", "a"]]}))
        assert cli.main(["palette", "info", "--palette", str(f)]) == 0
        out = capsys.readouterr().out
        assert "density vvv = 1\n  density ev  = 1\n  density ee  = 1\n" in out

    # the negative count is the last flag; the parser refuses it before any
    # input file is read
    @pytest.mark.parametrize("argv", [
        ["certify", "--F", "k4minus", "--palette", "tournament", "--budget", "-5"],
        ["table", "--budget", "-1"],
        ["reduced", "map", "IN", "--F", "k4", "--budget", "-3"],
        ["audit", "uniform", "IN", "--d", "1/4", "--eta", "1/10", "--samples", "-5"],
        ["audit", "star", "IN", "--notion", "ee", "--d", "1/4", "--eta", "1/10", "--samples", "-5"],
        ["audit", "quasirandom", "IN", "--delta", "1/5", "--d", "1/2", "--samples", "-1"],
        ["audit", "uniform", "IN", "--d", "1/4", "--eta", "1/10", "--seed", "-1"],
        ["audit", "star", "IN", "--notion", "vvv", "--d", "1/4", "--eta", "1/10", "--seed", "-2"],
        ["audit", "quasirandom", "IN", "--delta", "1/5", "--d", "1/2", "--seed", "-1"],
        ["gen", "tournament", "--n", "5", "--out", "OUT", "--seed", "-1"],
        ["reduced", "project", "IN", "--ell", "2", "--out", "OUT", "--seed", "-1"],
    ])
    def test_negative_budget_exit_64(self, tmp_path, capsys, argv):
        a = tmp_path / "a.json"
        uio.write_reduced(rd.from_palette(pal.builtin("ee6"), 4), a)
        out = tmp_path / "out.txt"
        with pytest.raises(SystemExit) as exc:
            cli.main([{"IN": str(a), "OUT": str(out)}.get(x, x) for x in argv])
        assert exc.value.code == 64
        flag = argv[-2]
        err = capsys.readouterr().err
        assert f"argument {flag}: must be a nonnegative integer, got {argv[-1]}" in err
        assert not out.exists()

    def test_symmetry_in_json_reports(self, tmp_path):
        rpt = tmp_path / "r.json"
        assert cli.main([
            "certify", "--F", "k6", "--palette", "ee6", "--json", str(rpt)
        ]) == 0
        data = json.loads(rpt.read_text())
        assert data["verdict"] == "free"
        assert data["symmetry"] == {"group": "S2 x Sym(5)", "order": 240}
        a = tmp_path / "a.json"
        uio.write_reduced(rd.from_palette(pal.builtin("ee6"), 7), a)
        assert cli.main(["reduced", "map", str(a), "--F", "k6", "--json", str(rpt)]) == 0
        data = json.loads(rpt.read_text())
        assert data["verdict"] == "free"
        assert data["symmetry"] == {"group": "Sym(7)", "order": 5040}

    def test_certify_unknown_family_exit_usage(self):
        assert cli.main(["certify", "--F", "mystery", "--palette", "tournament"]) == 64

    def test_certify_takes_no_seed(self, tmp_path):
        # the search is deterministic; there is no seed to set or to report
        with pytest.raises(SystemExit) as exc:
            cli.main(["certify", "--F", "k4minus", "--palette", "tournament", "--seed", "0"])
        assert exc.value.code == 64
        rpt = tmp_path / "r.json"
        assert cli.main([
            "certify", "--F", "k4minus", "--palette", "tournament", "--json", str(rpt)
        ]) == 0
        assert "seed" not in json.loads(rpt.read_text())

    def test_certify_deep_search_gives_certificate(self, tmp_path, capsys):
        # K46 has 1035 shadow pairs, more levels than the interpreter's
        # recursion limit would allow a recursive search
        one = tmp_path / "one.json"
        one.write_text(json.dumps({"colors": ["a"], "patterns": [["a", "a", "a"]]}))
        assert cli.main(["certify", "--F", "k46", "--palette", str(one)]) == 0
        assert "certificate validated" in capsys.readouterr().out

    def test_reduced_map_deep_search_gives_map(self, tmp_path, capsys):
        # 1200 vertices to index and one edge (three shadow pairs) to colour
        a, f = tmp_path / "a.json", tmp_path / "f.txt"
        uio.write_reduced(rd.from_palette(pal.builtin("ee6"), 3), a)
        uio.write_hypergraph(hg.make(1200, [(0, 1, 2)]), f)
        assert cli.main(["reduced", "map", str(a), "--F", str(f)]) == 0
        assert ": map (" in capsys.readouterr().out

    def test_usage_error_exit_64(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["certify", "--F", "k4"])  # missing --palette
        assert exc.value.code == 64

    def test_float_thresholds_rejected(self, tmp_path):
        H = cn.tournament_hypergraph(8, 0)
        p = tmp_path / "h.txt"
        uio.write_hypergraph(H, p)
        with pytest.raises(SystemExit) as exc:
            cli.main(["audit", "uniform", str(p), "--d", "0.25", "--eta", "1/10"])
        assert exc.value.code == 64

    @pytest.mark.parametrize("content", [
        '{"colors": ["a", "b"], "weights": ["1/0", "1"], "patterns": []}',
        '{"patterns": [["a", "a", "a"]]}',
        '[["a", "a", "a"]]',
        '{"colors": []}',
        '{"colors": ["a", "a"]}',
        '{"colors": ["a", "b"], "weights": ["1"]}',
        '{"colors": ["a"], "patterns": [["a", "a"]]}',
    ])
    def test_malformed_palette_json_exit_64(self, tmp_path, capsys, content):
        p = tmp_path / "p.json"
        p.write_text(content)
        for argv in (["palette", "info", "--palette", str(p)],
                     ["palette", "closure", "--generators", str(p)],
                     ["certify", "--F", "k4", "--palette", str(p)]):
            assert cli.main(argv) == 64
            err = capsys.readouterr().err
            assert err.startswith("unidense: error:") and "Traceback" not in err

    @pytest.mark.parametrize("argv, content", [
        (["audit", "uniform", "IN", "--d", "1/2", "--eta", "0"], '{"n": 3}'),
        (["audit", "uniform", "IN", "--d", "1/2", "--eta", "0"], "[[0, 1, 2]]"),
        (["audit", "star", "IN", "--notion", "ev", "--d", "1/2", "--eta", "0"],
         '{"n": 3, "edges": [[0, 1, null]]}'),
        (["reduced", "check", "IN", "--star", "ee", "--d", "1/2"], '{"n": 3}'),
        (["reduced", "map", "IN", "--F", "k4"], "[[0, 1, 2]]"),
        (["reduced", "check", "IN", "--star", "ee", "--d", "1/2"],
         '{"indices": 2, "classes": {"0-1": 1}}'),
        (["audit", "quasirandom", "IN", "--delta", "1/4", "--d", "1/2"], "[[0, 1]]"),
        (["audit", "quasirandom", "IN", "--delta", "1/4", "--d", "1/2"], '{"sides": [3]}'),
        (["audit", "quasirandom", "IN", "--delta", "1/4", "--d", "1/2"],
         '{"sides": [3, 0], "edges": []}'),
        (["audit", "counting-lemma", "IN", "--delta", "1/4", "--dxy", "1/2", "--dxz", "1/2",
          "--dyz", "1/2"], '{"parts": [[0], [1]], "xy": []}'),
        # keys the instance would never read: an unsorted triple, an index
        # outside the set, a class outside the set
        (["reduced", "check", "IN", "--star", "vvv", "--d", "1/2"],
         '{"indices": 3, "classes": {"0,1": 1, "0,2": 1, "1,2": 1}, '
         '"constituents": {"1,0,2": [[0, 0, 0]]}}'),
        (["reduced", "check", "IN", "--star", "vvv", "--d", "1/2"],
         '{"indices": 3, "classes": {"0,1": 1, "0,2": 1, "1,2": 1}, '
         '"constituents": {"0,1,9": []}}'),
        (["reduced", "check", "IN", "--star", "vvv", "--d", "1/2"],
         '{"indices": 3, "classes": {"0,1": 1, "0,2": 1, "1,2": 1, "5,7": 1}}'),
        # sizes beyond machine integers: u*n + v pair keys would wrap in int64,
        # or a count cannot index a list
        (["audit", "uniform", "IN", "--d", "1/2", "--eta", "0"], '{"n": 3037000500, "edges": []}'),
        (["audit", "uniform", "IN", "--d", "1/2", "--eta", "0"],
         '{"n": 99999999999999999999, "edges": []}'),
        (["audit", "quasirandom", "IN", "--delta", "1/4", "--d", "1/2"],
         '{"sides": [100000000000000000000, 1], "edges": []}'),
        (["reduced", "check", "IN", "--star", "ee", "--d", "1/2"],
         '{"indices": 100000000000000000000, "classes": {}, "constituents": {}}'),
        # an edge outside its sides, and parts that share a label
        (["audit", "quasirandom", "IN", "--delta", "1/4", "--d", "1/2"],
         '{"sides": [2, 2], "edges": [[0, 2]]}'),
        (["audit", "counting-lemma", "IN", "--delta", "1/4", "--dxy", "1/2", "--dxz", "1/2",
          "--dyz", "1/2"], '{"parts": [[0], [0], [1]], "xy": [], "xz": [], "yz": []}'),
    ])
    def test_malformed_graph_json_exit_64(self, tmp_path, capsys, argv, content):
        p = tmp_path / "in.json"
        p.write_text(content)
        assert cli.main([str(p) if a == "IN" else a for a in argv]) == 64
        err = capsys.readouterr().err
        assert err.startswith("unidense: error:") and "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["audit", "uniform", "IN", "--d", "1/2", "--eta", "0"],
        ["audit", "star", "IN", "--notion", "ev", "--d", "1/2", "--eta", "0"],
        ["reduced", "check", "IN", "--star", "ee", "--d", "1/2"],
        ["gen", "lift", "--reduced", "IN", "--out", "OUT"],
        ["palette", "info", "--palette", "IN"],
        ["palette", "closure", "--generators", "IN"],
        ["certify", "--F", "k4", "--palette", "IN"],
        ["audit", "quasirandom", "IN", "--delta", "1/4", "--d", "1/2"],
        ["audit", "counting-lemma", "IN", "--delta", "1/4", "--dxy", "1/2", "--dxz", "1/2",
         "--dyz", "1/2"],
    ], ids=lambda argv: " ".join(a for a in argv[:2]))
    @pytest.mark.parametrize("content", ["not json", '{"n": 3,\n "edges": [}'])
    def test_text_that_is_not_json_exit_64(self, tmp_path, capsys, argv, content):
        # every JSON reader: hypergraph, reduced, palette and partite files
        p = tmp_path / "in.json"
        p.write_text(content)
        files = {"IN": str(p), "OUT": str(tmp_path / "out.txt")}
        assert cli.main([files.get(a, a) for a in argv]) == 64
        err = capsys.readouterr().err
        line = 2 if "\n" in content else 1
        assert err.startswith("unidense: error:") and f"in.json: line {line}, column" in err

    @pytest.mark.parametrize("argv", [
        ["audit", "uniform", "IN", "--d", "1/2", "--eta", "0"],
        ["reduced", "check", "IN", "--star", "ee", "--d", "1/2"],
        ["audit", "quasirandom", "IN", "--delta", "1/4", "--d", "1/2"],
    ], ids=lambda argv: " ".join(a for a in argv[:2]))
    def test_missing_file_exit_66(self, tmp_path, capsys, argv):
        missing = str(tmp_path / "missing.json")
        assert cli.main([missing if a == "IN" else a for a in argv]) == 66
        assert capsys.readouterr().err.startswith("unidense: I/O error:")

    @pytest.mark.parametrize("content", [
        "",
        "4 0\n",
        "4 1\n0 0 1 1\n0 7\n",
        "4 1\n0 0 1 1\n-1 0\n",
        "4 3\n0 0 1 1\n0 2\n",
        "4 1\n0 0 1 1\n0 2 3\n",
    ])
    def test_malformed_partite_text_exit_64(self, tmp_path, capsys, content):
        # empty, no part line, endpoint >= n, negative endpoint, short edge list, bad edge line
        g = tmp_path / "g.txt"
        g.write_text(content)
        assert cli.main(["audit", "quasirandom", str(g), "--delta", "1/4", "--d", "1/2"]) == 64
        err = capsys.readouterr().err
        assert err.startswith("unidense: error:") and "Traceback" not in err
        assert ("line " in err) == bool(content)  # an empty file has no line to name

    def test_out_of_domain_thresholds_exit_64(self, tmp_path, capsys):
        h = tmp_path / "t.txt"
        uio.write_hypergraph(cn.tournament_hypergraph(8, 0), h)
        g = tmp_path / "g.json"
        g.write_text(json.dumps(uio.bipartite_to_json(qr.BipartiteGraph.random(6, 6, 0.5, 1))))
        t = tmp_path / "tri.json"
        t.write_text(json.dumps(uio.tripartite_to_json(qr.TripartiteGraph.random((3, 3, 3), 0.5, 2))))
        half = ["--dxz", "1/2", "--dyz", "1/2"]
        for argv in (
            ["audit", "uniform", str(h), "--d", "5/4", "--eta=-1/10"],
            ["audit", "uniform", str(h), "--d", "1/4", "--eta=-1/10"],
            ["audit", "star", str(h), "--notion", "ev", "--d", "3/2", "--eta", "0"],
            ["audit", "quasirandom", str(g), "--delta=-1/5", "--d", "1/2"],
            ["audit", "quasirandom", str(g), "--delta", "1/5", "--d", "2"],
            ["audit", "counting-lemma", str(t), "--delta", "-1/10", "--dxy", "1/2"] + half,
            ["audit", "counting-lemma", str(t), "--delta", "1/10", "--dxy", "3/2"] + half,
            ["audit", "counting-lemma", str(t), "--delta", "1/10", "--dxy", "1/2",
             "--dxz", "-1/2", "--dyz", "1/2"],
        ):
            assert cli.main(argv) == 64, argv
            assert capsys.readouterr().err.startswith("unidense: error:")

    def test_threshold_denominators_too_large_exit_64(self, tmp_path, capsys):
        h = tmp_path / "t.txt"
        uio.write_hypergraph(cn.tournament_hypergraph(8, 0), h)
        argv = ["audit", "uniform", str(h), "--d", "1/100000", "--eta", "1/100000"]
        assert cli.main(argv) == 64
        out, err = capsys.readouterr()
        assert out == "" and "threshold denominators too large" in err

    @pytest.mark.parametrize("row", ["0 1.5 2", "0 1 2e0"])
    def test_float_vertex_in_text_file_exit_64(self, tmp_path, capsys, row):
        h = tmp_path / "t.txt"
        h.write_text(f"3 1\n{row}\n")
        assert cli.main(["audit", "uniform", str(h), "--d", "1/4", "--eta", "0"]) == 64
        err = capsys.readouterr().err
        assert err.startswith("unidense: error: line 2: ") and "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["--star", "ee", "--d=-1/2"],
        ["--star", "ev", "--d", "3/2"],
        ["--star", "ev", "--d", "1/2", "--eta=-1/10"],
    ])
    def test_reduced_out_of_domain_thresholds_exit_64(self, tmp_path, capsys, argv):
        a = tmp_path / "a.json"
        uio.write_reduced(rd.from_palette(pal.builtin("ee5"), 4), a)
        assert cli.main(["reduced", "check", str(a)] + argv) == 64
        err = capsys.readouterr().err
        assert err.startswith("unidense: error:") and "Traceback" not in err

    @pytest.mark.parametrize("argv, message", [
        (["audit", "uniform", "H", "--d", "1/4", "--eta", "-1/10"], "eta=-1/10 must be nonnegative"),
        (["audit", "uniform", "H", "--d", "-1/4", "--eta", "1/10"], "d=-1/4 outside [0, 1]"),
        (["audit", "quasirandom", "G", "--delta", "-1/5", "--d", "1/2"],
         "delta=-1/5 must be nonnegative"),
        (["reduced", "check", "A", "--star", "ev", "--d", "-1/2"], "d=-1/2 outside [0, 1]"),
    ])
    def test_negative_fraction_after_space_is_a_value(self, tmp_path, capsys, argv, message):
        files = {"H": tmp_path / "t.txt", "G": tmp_path / "g.json", "A": tmp_path / "a.json"}
        uio.write_hypergraph(cn.tournament_hypergraph(8, 0), files["H"])
        files["G"].write_text(json.dumps(uio.bipartite_to_json(qr.BipartiteGraph.random(6, 6, 0.5, 1))))
        uio.write_reduced(rd.from_palette(pal.builtin("ee5"), 4), files["A"])
        assert cli.main([str(files.get(a, a)) for a in argv]) == 64
        err = capsys.readouterr().err
        assert err.startswith("unidense: error:") and message in err

    @pytest.mark.parametrize("command, argv", [
        ("certify", ["--F", "k5", "--palette", "ee5"]),
        ("table", ["--budget", "200000"]),
        ("gen tournament", ["--n", "9", "--seed", "3", "--out", "OUT"]),
        ("audit uniform", ["H", "--d", "1/4", "--eta", "1/10"]),
        ("reduced check", ["A", "--star", "ee", "--d", "2/3", "--eta", "0"]),
        ("palette info", ["--palette", "ee5"]),
        ("audit star", ["H", "--notion", "ev", "--d", "1/4", "--eta", "1/10"]),
        ("reduced purge", ["A", "--d", "1/2", "--out", "OUT"]),
        ("reduced map", ["A", "--F", "k4"]),
    ])
    def test_json_report_reproducible(self, tmp_path, command, argv):
        files = {"H": tmp_path / "t.txt", "A": tmp_path / "a.json", "OUT": tmp_path / "o.txt"}
        uio.write_hypergraph(cn.tournament_hypergraph(8, 0), files["H"])
        uio.write_reduced(rd.from_palette(pal.builtin("ee11"), 4), files["A"])
        argv = command.split() + [str(files.get(a, a)) for a in argv]
        reports = []
        for name in ("r1.json", "r2.json"):
            assert cli.main(argv + ["--json", str(tmp_path / name)]) == 0
            reports.append(json.loads((tmp_path / name).read_text()))
        for data in reports:
            assert data["command"] == command and data["version"] == cli.__version__
            assert isinstance(data["timing"]["seconds"], float)
            # neither the parser's own values nor the subcommand names
            # that only restate "command"
            assert not {"func", "command", "json", "cmd", "palcmd", "kind", "audcmd",
                        "redcmd"} & set(data["inputs"])
            data.pop("timing")
        assert reports[0] == reports[1]

    def test_gen_and_audit_pipeline(self, tmp_path):
        h = tmp_path / "t.json"
        rpt = tmp_path / "rpt.json"
        assert cli.main([
            "gen", "tournament", "--n", "14", "--seed", "7", "--out", str(h)
        ]) == 0
        assert cli.main([
            "audit", "uniform", str(h), "--d", "1/4", "--eta", "1/10",
            "--json", str(rpt),
        ]) == 0
        data = json.loads(rpt.read_text())
        assert data["report"]["mode"] == "exact"
        assert data["report"]["ok"] is True

    def test_audit_star_sampled(self, tmp_path):
        h = tmp_path / "r.txt"
        uio.write_hypergraph(cn.roedl_hypergraph(16, 2), h)
        assert cli.main([
            "audit", "star", str(h), "--notion", "vvv", "--d", "1/2", "--eta", "1/5",
            "--exact-threshold", "0", "--samples", "40",
        ]) == 0

    def test_audit_quasirandom(self, tmp_path):
        g = tmp_path / "g.json"
        g.write_text(json.dumps(uio.bipartite_to_json(qr.BipartiteGraph.random(8, 8, 0.5, 1))))
        assert cli.main([
            "audit", "quasirandom", str(g), "--delta", "1/4", "--d", "1/2"
        ]) == 0

    def test_audit_counting_lemma(self, tmp_path):
        t = tmp_path / "t.json"
        t.write_text(json.dumps(uio.tripartite_to_json(qr.TripartiteGraph.random((6, 6, 6), 0.5, 2))))
        assert cli.main([
            "audit", "counting-lemma", str(t), "--delta", "1/4",
            "--dxy", "1/2", "--dxz", "1/2", "--dyz", "1/2",
        ]) == 0

    def test_reduced_pipeline(self, tmp_path):
        a = tmp_path / "a.json"
        uio.write_reduced(rd.from_palette(pal.builtin("ee11"), 10), a)
        assert cli.main(["reduced", "check", str(a), "--star", "ee", "--d", "2/3"]) == 0
        out = tmp_path / "purged.json"
        assert cli.main(["reduced", "purge", str(a), "--d", "2/3", "--out", str(out)]) == 0
        assert uio.read_reduced(out) == uio.read_reduced(a)  # already dense: identity
        proj = tmp_path / "proj.json"
        assert cli.main([
            "reduced", "project", str(a), "--ell", "2", "--seed", "3", "--out", str(proj)
        ]) == 0
        assert all(s == 2 for s in uio.read_reduced(proj).class_sizes.values())
        assert cli.main(["reduced", "map", str(a), "--F", "k4"]) == 0
        assert cli.main(["reduced", "tetra", str(a), "--eps", "2/3"]) == 0

    def test_reduced_tetra_refusal_exit_one(self, tmp_path):
        a = tmp_path / "small.json"
        uio.write_reduced(rd.from_palette(pal.builtin("ee11"), 5), a)
        assert cli.main(["reduced", "tetra", str(a), "--eps", "2/3"]) == 1

    @pytest.mark.parametrize("argv", [
        ["audit", "uniform", "FILE", "--d", "1/2", "--eta", "1/10"],
        ["palette", "info", "--palette", "FILE"],
        ["reduced", "check", "FILE", "--star", "ee", "--d", "1/2"],
        ["audit", "quasirandom", "FILE", "--delta", "1/5", "--d", "1/2"],
        ["audit", "counting-lemma", "FILE", "--delta", "1/5", "--dxy", "1/2",
         "--dxz", "1/2", "--dyz", "1/2"],
    ])
    def test_deeply_nested_json_exit_64(self, tmp_path, capsys, argv):
        f = tmp_path / "deep.json"
        f.write_text("[" * 100_000 + "]" * 100_000)
        assert cli.main([str(f) if a == "FILE" else a for a in argv]) == 64
        assert "JSON nested too deeply" in capsys.readouterr().err

    @pytest.mark.parametrize("eps", ["2", "0", "-1/2"])
    def test_reduced_tetra_eps_out_of_domain_exit_64(self, tmp_path, capsys, eps):
        a = tmp_path / "a.json"
        uio.write_reduced(rd.from_palette(pal.builtin("ee11"), 10), a)
        assert cli.main(["reduced", "tetra", str(a), "--eps", eps]) == 64
        out, err = capsys.readouterr()
        assert err.startswith("unidense: error:") and "eps must lie in (0, 1]" in err
        assert "refused" not in out + err

    def test_reduced_check_ee_fail_names_its_witness(self, tmp_path, capsys):
        # from_palette(ee6, 4) is (1/2, ee)-dense and no denser: d = 1 fails
        # at the first least pair count in scan order
        a = tmp_path / "a.json"
        rpt = tmp_path / "r.json"
        uio.write_reduced(rd.from_palette(pal.builtin("ee6"), 4), a)
        argv = ["reduced", "check", str(a), "--star", "ee", "--d", "1", "--json", str(rpt)]
        assert cli.main(argv) == 0
        assert "FAIL (min ratio 1/2)" in capsys.readouterr().out
        report = json.loads(rpt.read_text())
        assert not report["ok"] and report["min_ratio"] == "1/2"
        assert report["witness"] == "((0, 1, 2), ((0, 1), 0), ((0, 2), 0))"

    def test_reduced_check_vvv_refuses_eta(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        uio.write_reduced(rd.from_palette(pal.builtin("ee5"), 4), a)
        argv = ["reduced", "check", str(a), "--star", "vvv", "--d", "1/2", "--eta", "1/10"]
        assert cli.main(argv) == 64
        out, err = capsys.readouterr()
        assert out == "" and "--eta applies to --star ev and ee only" in err

    def test_gen_lift(self, tmp_path):
        a = tmp_path / "a.json"
        uio.write_reduced(rd.from_palette(pal.builtin("tournament"), 4), a)
        out = tmp_path / "lift.txt"
        col = tmp_path / "colors.txt"
        assert cli.main([
            "gen", "lift", "--reduced", str(a), "--h", "5", "--seed", "1",
            "--out", str(out), "--coloring-out", str(col),
        ]) == 0
        H = uio.read_hypergraph(out)
        assert H.n == 20
        assert col.read_text().count("\n") == 150  # crossing pairs only: C(4,2)*25

    @pytest.mark.parametrize("kind", ["tournament", "roedl"])
    def test_gen_kind_is_gen_palette_with_its_builtin(self, tmp_path, kind):
        files = {}
        for argv in (["gen", kind], ["gen", "palette", "--palette", kind]):
            h, col, rpt = (tmp_path / f"{argv[1]}.{ext}" for ext in ("txt", "phi", "json"))
            assert cli.main(argv + ["--n", "6", "--out", str(h), "--coloring-out", str(col),
                                    "--json", str(rpt)]) == 0
            assert json.loads(rpt.read_text())["coloring"] == str(col)
            files[argv[1]] = h.read_text(), col.read_text()
        assert files[kind] == files["palette"]
        assert files[kind][1].count("\n") == 15  # C(6, 2) pairs

    @pytest.mark.parametrize("kind", ["tournament", "roedl"])
    def test_gen_kind_needs_three_vertices(self, tmp_path, capsys, kind):
        col = tmp_path / "phi.txt"
        argv = ["gen", kind, "--n", "2", "--out", str(tmp_path / "h.txt"), "--coloring-out", str(col)]
        assert cli.main(argv) == 64
        assert "need n >= 3, got 2" in capsys.readouterr().err and not col.exists()

    # each gen kind declares only the flags it reads: the last flag, which
    # the kind would ignore, is refused, and so is n < 3 for every colouring
    # kind; nothing is written either way
    @pytest.mark.parametrize("argv", [
        *(["gen", kind, flag, value] for kind in ("tournament", "roedl")
          for flag, value in (("--palette", "ee5"), ("--reduced", "A"), ("--h", "4"))),
        ["gen", "palette", "--palette", "ee5", "--reduced", "A"],
        ["gen", "palette", "--palette", "ee5", "--h", "4"],
        ["gen", "lift", "--reduced", "A", "--n", "5"],
        ["gen", "lift", "--reduced", "A", "--palette", "ee5"],
        ["gen", "palette", "--palette", "ee5", "--n", "2"],
    ], ids=" ".join)
    def test_gen_refuses_what_its_kind_does_not_read(self, tmp_path, capsys, argv):
        a = tmp_path / "a.json"
        uio.write_reduced(rd.from_palette(pal.builtin("tournament"), 4), a)
        h, phi, rpt = (tmp_path / name for name in ("h.txt", "phi.txt", "r.json"))
        argv = [str(a) if x == "A" else x for x in argv]
        try:
            code = cli.main(argv + ["--out", str(h), "--coloring-out", str(phi), "--json", str(rpt)])
        except SystemExit as exc:
            code = exc.code
        err = capsys.readouterr().err
        if argv[-2:] == ["--n", "2"]:
            assert "need n >= 3, got 2" in err
        else:
            assert f"unrecognized arguments: {argv[-2]}" in err
        assert code == 64 and not any(path.exists() for path in (h, phi, rpt))

    def test_gen_report_inputs_are_the_flags_its_kind_reads(self, tmp_path):
        a = tmp_path / "a.json"
        uio.write_reduced(rd.from_palette(pal.builtin("tournament"), 4), a)
        common = {"seed", "out", "coloring_out"}
        for argv, flags in [
            (["gen", "tournament"], common | {"n"}),
            (["gen", "roedl"], common | {"n"}),
            (["gen", "palette", "--palette", "ee5"], common | {"n", "palette"}),
            (["gen", "lift", "--reduced", str(a), "--h", "4"], common | {"h", "reduced"}),
        ]:
            rpt = tmp_path / "r.json"
            assert cli.main(argv + ["--seed", "2", "--out", str(tmp_path / "h.txt"),
                                    "--coloring-out", str(tmp_path / "phi.txt"),
                                    "--json", str(rpt)]) == 0
            data = json.loads(rpt.read_text())
            assert data["command"] == " ".join(argv[:2]) and set(data["inputs"]) == flags

    def test_emit_cnf(self, tmp_path):
        cnf = tmp_path / "k11.cnf"
        code = cli.main([
            "certify", "--F", "k11", "--palette", "ee11", "--budget", "1000",
            "--emit-cnf", str(cnf),
        ])
        assert code == 2
        lines = cnf.read_text().splitlines()
        head = lines[0].split()
        assert head[:2] == ["p", "cnf"]
        assert int(head[2]) == 55 * 3  # C(11,2) pairs x 3 colours
        sidecar = json.loads((tmp_path / "k11.cnf.vars.json").read_text())
        assert sidecar["meta"]["covers_all_orderings"] is True
        assert len(sidecar["variables"]) == 165

    def test_emit_cnf_holds_the_certificate(self, tmp_path):
        # the identity ordering of this F is free under cycle5, so the CNF
        # holds the certificate only because it covers every ordering
        f, cnf, rpt = tmp_path / "f.txt", tmp_path / "f.cnf", tmp_path / "f.json"
        uio.write_hypergraph(hg.make(5, [(0, 1, 2), (0, 1, 3), (0, 2, 4), (1, 2, 3), (1, 3, 4)]), f)
        argv = ["certify", "--F", str(f), "--palette", "cycle5", "--emit-cnf", str(cnf)]
        assert cli.main(argv + ["--json", str(rpt)]) == 0
        cert = json.loads(rpt.read_text())["certificate"]
        assert cert["ordering"] != list(range(5))
        sidecar = json.loads((tmp_path / "f.cnf.vars.json").read_text())
        assert sidecar["meta"]["covers_all_orderings"] is True
        assert sidecar["meta"]["ordering"] is None
        # each variable is true when the certificate puts its "first" vertex
        # first and, on a shadow pair, gives the pair its colour
        rank = {v: r for r, v in enumerate(cert["ordering"])}
        truth = {}
        for v, info in sidecar["variables"].items():
            u, w = info["pair"]
            other = w if info["first"] == u else u
            truth[int(v)] = rank[info["first"]] < rank[other] and (
                "color" not in info or cert["coloring"][f"{u},{w}"] == info["color"]
            )
        clauses = [[int(x) for x in line.split()[:-1]] for line in cnf.read_text().splitlines()[1:]]
        assert len(truth) > 20 and clauses
        assert all(any(truth[abs(x)] == (x > 0) for x in c) for c in clauses)

    def test_table_rows_are_the_listed_palettes_claims(self):
        rows = cli._table_rows()
        assert rows == [
            (name, target, notion, bound)
            for name in cli._TABLE_PALETTES
            for notion, bound, target in pal.builtin(name).claims
        ]
        # the eleven rows the table has always printed, in order
        assert rows == [
            ("tournament", "k4minus", "vvv", Fraction(1, 4)),
            ("tournament", "k4minus", "ev", Fraction(1, 4)),
            ("roedl", "k4", "vvv", Fraction(1, 2)),
            ("roedl", "k4", "ev", Fraction(1, 2)),
            ("star4", "star4", "vvv", Fraction(1, 3)),
            ("star4", "star4", "ev", Fraction(1, 3)),
            ("ramsey6", "k6", "vvv", Fraction(3, 4)),
            ("cycle5", "cycle5", "vvv", Fraction(4, 27)),
            ("ee5", "k5", "ee", Fraction(1, 3)),
            ("ee6", "k6", "ee", Fraction(1, 2)),
            ("ee11", "k11", "ee", Fraction(2, 3)),
        ]

    def test_table_runs_green(self):
        assert cli.main(["table", "--budget", "200000"]) == 0

    def test_table_without_budget_is_a_mismatch(self, tmp_path, capsys):
        rpt = tmp_path / "table.json"
        assert cli.main(["table", "--budget", "0", "--json", str(rpt)]) == 1
        assert "table mismatch against expected bounds" in capsys.readouterr().err
        rows = json.loads(rpt.read_text())["rows"]
        assert len(rows) == 11 and all(row["verdict"] == "pending" for row in rows)

    def test_table_json_all_rows_free_with_symmetry(self, tmp_path):
        rpt = tmp_path / "table.json"
        assert cli.main(["table", "--json", str(rpt)]) == 0
        rows = json.loads(rpt.read_text())["rows"]
        assert len(rows) == 11 and all(row["verdict"] == "free" for row in rows)
        assert all(row["symmetry"]["group"] for row in rows)
        k11 = rows[-1]
        assert (k11["palette"], k11["F"]) == ("ee11", "k11")
        assert k11["symmetry"] == {"group": "S3 x Sym(10)", "order": 21772800}
