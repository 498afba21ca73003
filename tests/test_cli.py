"""Command-line interface: subcommands, JSON reports, exit codes."""

import importlib
import itertools
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import regracut as rg
from regracut import cli
from regracut.cli import main

from helpers import mono_digraph, mono_rgraph


def run_cli(capsys, argv):
    rc = main(argv)
    return rc, capsys.readouterr().out


def run_refused(capsys, argv):
    """`main` on arguments it must refuse: exit 2, no report and a single
    `error:` line, with no exception escaping."""
    rc = main(argv)
    out, err = capsys.readouterr()
    assert rc == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    return err


def write_triangle(path, color=1):
    rg.write_graph(
        rg.new_rgraph(3, 2, [(0, 1, color), (0, 2, color), (1, 2, color)]), path
    )
    return str(path)


def write_two_block(path, n=12):
    half = n // 2
    pairs = []
    for u, v in itertools.combinations(range(n), 2):
        same = (u < half) == (v < half)
        pairs.append((u, v, 2 if same else 1))
    rg.write_graph(rg.new_rgraph(n, 2, pairs), path)
    return str(path)


class TestSample:
    def test_rgraph_file_round_trip(self, tmp_path, capsys):
        out = tmp_path / "g.graph"
        rc, _ = run_cli(
            capsys,
            ["sample", "--kind", "rgraph", "--n", "20", "--p", "0.6,0.4",
             "--seed", "7", "--out", str(out)],
        )
        assert rc == 0
        G = rg.read_graph(out)
        assert G.n == 20 and G.r == 2

    def test_same_seed_same_bytes(self, tmp_path, capsys):
        a, b = tmp_path / "a.graph", tmp_path / "b.graph"
        for path in (a, b):
            assert main(
                ["sample", "--kind", "rgraph", "--n", "30", "--p", "0.5,0.5",
                 "--seed", "3", "--out", str(path)]
            ) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()
        assert main(
            ["sample", "--kind", "rgraph", "--n", "30", "--p", "0.5,0.5",
             "--seed", "4", "--out", str(a)]
        ) == 0
        assert a.read_bytes() != b.read_bytes()

    def test_stdout_when_no_out(self, capsys):
        rc, out = run_cli(
            capsys, ["sample", "--kind", "digraph", "--n", "6", "--p", "0.3",
                     "--q", "0.2", "--seed", "0"]
        )
        assert rc == 0
        assert out == rg.dumps_graph(rg.sample_digraph(6, 0.3, 0.2, seed=0))

    def test_digraph_needs_q(self, capsys):
        rc, _ = run_cli(
            capsys, ["sample", "--kind", "digraph", "--n", "6", "--p", "0.3"]
        )
        assert rc == 2

    def test_bad_probability_list(self, capsys):
        rc, _ = run_cli(
            capsys, ["sample", "--kind", "rgraph", "--n", "6", "--p", "lots"]
        )
        assert rc == 2


class TestDensityCommand:
    def test_planted_densities(self, tmp_path, capsys):
        gpath = write_two_block(tmp_path / "g.graph")
        rc, out = run_cli(
            capsys,
            ["density", "--graph", gpath, "--a", "0,1,2,3,4,5", "--b", "6,7,8,9,10,11"],
        )
        assert rc == 0
        payload = json.loads(out)
        assert payload["schema"] == 1
        assert payload["channels"] == [1, 2]
        assert payload["densities"] == [1.0, 0.0]

    def test_partition_file_source(self, tmp_path, capsys):
        gpath = write_two_block(tmp_path / "g.graph")
        parts = tmp_path / "p.json"
        parts.write_text(json.dumps([[0, 1, 2, 3, 4, 5], [6, 7, 8, 9, 10, 11]]) + "\n")
        rc, out = run_cli(
            capsys,
            ["density", "--graph", gpath, "--parts", str(parts), "--i", "0", "--j", "1"],
        )
        assert rc == 0
        assert json.loads(out)["densities"] == [1.0, 0.0]

    def test_needs_some_vertex_source(self, tmp_path, capsys):
        gpath = write_two_block(tmp_path / "g.graph")
        rc, _ = run_cli(capsys, ["density", "--graph", gpath])
        assert rc == 2

    @pytest.mark.parametrize("i, j", [(5, 1), (-1, 1), (0, 2), (0, -2)])
    def test_block_index_out_of_range(self, tmp_path, capsys, i, j):
        gpath = write_two_block(tmp_path / "g.graph")
        parts = tmp_path / "p.json"
        parts.write_text(json.dumps([[0, 1, 2, 3, 4, 5], [6, 7, 8, 9, 10, 11]]) + "\n")
        rc = main(
            ["density", "--graph", gpath, "--parts", str(parts), "--i", str(i), "--j", str(j)]
        )
        assert rc == 2
        assert "is not a block index in 0..1" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["rgraph 2 x\n", "rgraph 2 2\n0 1 one\n"])
    def test_non_numeric_graph_file_exits_2(self, tmp_path, text):
        gpath = tmp_path / "bad.graph"
        gpath.write_text(text)
        proc = run_entry_point(
            MODULE_LAUNCHER, "density", "--graph", str(gpath), "--a", "0", "--b", "1"
        )
        assert proc.returncode == 2
        assert "bad " in proc.stderr and "Traceback" not in proc.stderr

    def test_non_ascii_graph_file_exits_2(self, tmp_path):
        gpath = tmp_path / "bad.graph"
        gpath.write_bytes(b"rgraph 2 2\n0 1 1\xff\n")
        proc = run_entry_point(
            MODULE_LAUNCHER, "density", "--graph", str(gpath), "--a", "0", "--b", "1"
        )
        assert proc.returncode == 2
        assert f"{gpath} is not ASCII text" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_huge_header_is_missing_pairs(self, tmp_path, capsys):
        # n = 10**7 would need a 200 TB matrix; the pair count fails first
        gpath = tmp_path / "huge.graph"
        gpath.write_text("rgraph 2 10000000\n0 1 1\n")
        rc = main(["density", "--graph", str(gpath), "--a", "0", "--b", "1"])
        assert rc == 2
        assert "49999994999999 pairs missing, e.g. (0, 2)" in capsys.readouterr().err

    def test_missing_graph_file(self, tmp_path, capsys):
        rc, _ = run_cli(
            capsys,
            ["density", "--graph", str(tmp_path / "nope.graph"), "--a", "0", "--b", "1"],
        )
        assert rc == 2


class TestCheckPair:
    def test_exact_irregular_with_witness(self, tmp_path, capsys):
        pairs = []
        for u, v in itertools.combinations(range(12), 2):
            inside = (u < 6) == (v < 6)
            if inside:
                pairs.append((u, v, 2))
            else:
                pairs.append((u, v, 1 if (u < 3 and v < 9) else 2))
        gpath = tmp_path / "g.graph"
        rg.write_graph(rg.new_rgraph(12, 2, pairs), gpath)
        rc, out = run_cli(
            capsys,
            ["check-pair", "--graph", str(gpath), "--a", "0,1,2,3,4,5",
             "--b", "6,7,8,9,10,11", "--gamma", "0.3", "--method", "exact",
             "--exact-cap", "6"],
        )
        assert rc == 0
        payload = json.loads(out)
        assert payload["verdict"] == "irregular"
        wit = payload["witness"]
        assert wit["color"] == 1 and wit["deviation"] >= 0.3
        assert set(wit["a_prime"]) <= set(range(6))
        assert set(wit["b_prime"]) <= set(range(6, 12))

    def test_heuristic_unknown_on_flat_pair(self, tmp_path, capsys):
        gpath = tmp_path / "g.graph"
        rg.write_graph(mono_rgraph(12, 2, 1), gpath)
        rc, out = run_cli(
            capsys,
            ["check-pair", "--graph", str(gpath), "--a", "0,1,2,3,4,5",
             "--b", "6,7,8,9,10,11", "--gamma", "0.2"],
        )
        assert rc == 0
        payload = json.loads(out)
        assert payload["verdict"] == "unknown"
        assert payload["witness"] is None


    @pytest.mark.parametrize("exact_cap", ["4", "6"])
    def test_auto_matches_library(self, tmp_path, capsys, exact_cap):
        G = rg.sample_rgraph(12, (0.5, 0.5), seed=3)
        gpath = tmp_path / "g.graph"
        rg.write_graph(G, gpath)
        A, B = [0, 1, 2, 3, 4, 5], [6, 7, 8, 9, 10, 11]
        rc, out = run_cli(
            capsys,
            ["check-pair", "--graph", str(gpath), "--a", "0,1,2,3,4,5",
             "--b", "6,7,8,9,10,11", "--gamma", "0.3", "--method", "auto",
             "--exact-cap", exact_cap],
        )
        assert rc == 0
        report = rg.certify(G, A, B, 0.3, "auto", int(exact_cap))
        payload = json.loads(out)
        assert payload["verdict"] == report.verdict
        wit = report.witness
        assert payload["witness"] == (None if wit is None else {
            "a_prime": list(wit.a_prime), "b_prime": list(wit.b_prime),
            "color": wit.color, "deviation": wit.deviation,
        })

    @pytest.mark.parametrize("method", ["exact", "auto", "heuristic"])
    def test_infinite_gamma_refused(self, tmp_path, capsys, method):
        """The report repeats gamma, and JSON has no infinity (`certify`
        itself answers gamma = inf like any gamma >= 1)."""
        gpath = tmp_path / "g.graph"
        rg.write_graph(rg.sample_rgraph(12, (0.5, 0.5), seed=3), gpath)
        argv = ["check-pair", "--graph", str(gpath), "--a", "0,1,2,3,4,5",
                "--b", "6,7,8,9,10,11", "--gamma", "inf", "--method", method]
        assert "--gamma must be a finite number, got inf" in run_refused(capsys, argv)

    def test_exact_above_the_side_ceiling_exits_2(self, tmp_path, capsys):
        gpath = tmp_path / "g.graph"
        rg.write_graph(rg.sample_rgraph(34, (0.5, 0.5), seed=0), gpath)
        rc = main(
            ["check-pair", "--graph", str(gpath), "--a", ",".join(map(str, range(17))),
             "--b", ",".join(map(str, range(17, 34))), "--gamma", "0.3",
             "--method", "exact", "--exact-cap", "40"]
        )
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert "cap 16" in captured.err


class TestIndexCommand:
    def test_monochromatic_two_blocks(self, tmp_path, capsys):
        gpath = tmp_path / "g.graph"
        rg.write_graph(mono_rgraph(8, 2, 1), gpath)
        parts = tmp_path / "p.json"
        parts.write_text(json.dumps([[0, 1, 2, 3], [4, 5, 6, 7]]) + "\n")
        rc, out = run_cli(capsys, ["index", "--graph", str(gpath), "--parts", str(parts)])
        assert rc == 0
        payload = json.loads(out)
        assert payload["index"] == pytest.approx(0.25)
        assert payload["order"] == 2

    def test_unbalanced_partition_rejected(self, tmp_path, capsys):
        gpath = tmp_path / "g.graph"
        rg.write_graph(mono_rgraph(8, 2, 1), gpath)
        parts = tmp_path / "p.json"
        parts.write_text(json.dumps([[0], [1, 2, 3, 4, 5, 6, 7]]) + "\n")
        rc, _ = run_cli(capsys, ["index", "--graph", str(gpath), "--parts", str(parts)])
        assert rc == 2

    @pytest.mark.parametrize(
        "text",
        ["[[0, 1, 2, 3], [4, 5, 6, 7.0]]", "[[0.0, 1.0, 2.0, 3.0], [4, 5, 6, 7]]",
         "[[false, true, 2, 3], [4, 5, 6, 7]]"],
    )
    def test_non_integer_vertices_rejected(self, tmp_path, capsys, text):
        gpath = tmp_path / "g.graph"
        rg.write_graph(mono_rgraph(8, 2, 1), gpath)
        parts = tmp_path / "p.json"
        parts.write_text(text + "\n")
        rc = main(["index", "--graph", str(gpath), "--parts", str(parts)])
        assert rc == 2
        assert "non-integer vertex" in capsys.readouterr().err

    def test_non_utf8_partition_file_exits_2(self, tmp_path):
        gpath = tmp_path / "g.graph"
        rg.write_graph(mono_rgraph(8, 2, 1), gpath)
        parts = tmp_path / "p.json"
        parts.write_bytes(b"[[0, 1, 2, 3], [4, 5, 6, 7\xff]]\n")
        proc = run_entry_point(
            MODULE_LAUNCHER, "index", "--graph", str(gpath), "--parts", str(parts)
        )
        assert proc.returncode == 2
        assert f"{parts} is not UTF-8 text" in proc.stderr
        assert "Traceback" not in proc.stderr


class TestDecomposeCommand:
    def test_monochromatic_report(self, tmp_path, capsys):
        gpath = tmp_path / "g.graph"
        rg.write_graph(mono_rgraph(24, 2, 1), gpath)
        rc, out = run_cli(
            capsys,
            ["decompose", "--input", str(gpath), "--m", "2", "--eps", "0.25",
             "--seed", "0"],
        )
        assert rc == 0
        payload = json.loads(out)
        assert payload["schema"] == 1
        assert payload["ell"] == 1
        assert payload["iterations"] == 2
        assert len(payload["coarse"]) == 2
        assert payload["fine"] == payload["coarse"]
        assert payload["fine_parent"] == [0, 1]
        assert all(payload["bullets"])
        assert payload["stalled"] is False and payload["cap_exceeded"] is False
        assert payload["index_trace"][-1] == pytest.approx(0.25)
        sel = payload["selection"]
        assert sel["irregular_pairs"] == 0 and sel["deviating_pairs"] == 0
        assert len(sel["chosen"]) == 2

    @pytest.mark.parametrize("eps", ["1e-300", "1e-80"])
    def test_tiny_eps_reports(self, tmp_path, capsys, eps):
        """eps^4 underflows to zero or a subnormal; the run still ends with
        a report instead of a division error."""
        gpath = tmp_path / "g.graph"
        rg.write_graph(rg.sample_rgraph(12, (0.5, 0.5), seed=1), gpath)
        rc, out = run_cli(
            capsys,
            ["decompose", "--input", str(gpath), "--m", "3", "--eps", eps, "--cap", "4"],
        )
        payload = json.loads(out)
        assert rc == (3 if payload["stalled"] or payload["cap_exceeded"] else 0)
        assert rc in (0, 3) and len(payload["fine"]) <= 4

    def test_auto_certifier_matches_library(self, tmp_path, capsys):
        G = rg.sample_rgraph(48, (0.5, 0.5), seed=5)
        gpath = tmp_path / "g.graph"
        rg.write_graph(G, gpath)
        rc, out = run_cli(
            capsys,
            ["decompose", "--input", str(gpath), "--m", "2", "--eps", "0.3",
             "--cap", "16", "--certifier", "auto"],
        )
        result = rg.decompose(G, 2, rg.EpsilonFunction.constant(0.3), cap=16,
                              certifier="auto", seed=0)
        payload = json.loads(out)
        assert rc == (3 if result.stalled or result.cap_exceeded else 0)
        assert payload["fine"] == [list(b) for b in result.fine.blocks]
        assert payload["index_trace"] == list(result.index_trace)

    def test_identical_runs_identical_bytes(self, tmp_path, capsys):
        gpath = write_two_block(tmp_path / "g.graph", n=24)
        argv = ["decompose", "--input", str(gpath), "--m", "2", "--eps", "0.25",
                "--seed", "1"]
        rc1, out1 = run_cli(capsys, argv)
        rc2, out2 = run_cli(capsys, argv)
        assert rc1 == rc2 == 0
        assert out1 == out2

    def test_cap_exceeded_exit_code(self, tmp_path, capsys):
        gpath = tmp_path / "g.graph"
        rg.write_graph(rg.sample_rgraph(24, (0.5, 0.5), seed=1), gpath)
        rc, out = run_cli(
            capsys,
            ["decompose", "--input", str(gpath), "--m", "2", "--eps", "0.05",
             "--cap", "1"],
        )
        assert rc == 3
        assert json.loads(out)["cap_exceeded"] is True

    def test_needs_a_tolerance(self, tmp_path, capsys):
        gpath = tmp_path / "g.graph"
        rg.write_graph(mono_rgraph(12, 2, 1), gpath)
        rc, _ = run_cli(capsys, ["decompose", "--input", str(gpath), "--m", "2"])
        assert rc == 2

    def test_efun_text_accepted(self, tmp_path, capsys):
        gpath = tmp_path / "g.graph"
        rg.write_graph(mono_rgraph(12, 2, 1), gpath)
        rc, out = run_cli(
            capsys,
            ["decompose", "--input", str(gpath), "--m", "2", "--efun", "0.5/(k+1)",
             "--eps", "0.3"],
        )
        assert rc == 0
        assert json.loads(out)["iterations"] == 2

    @pytest.mark.parametrize("efun", ["e/(k+1)", "1.2.3/(k+1)"])
    def test_malformed_efun_number_refused(self, tmp_path, capsys, efun):
        gpath = tmp_path / "g.graph"
        rg.write_graph(mono_rgraph(12, 2, 1), gpath)
        err = run_refused(capsys, ["decompose", "--input", str(gpath), "--m", "2", "--efun", efun])
        assert "cannot parse epsilon function" in err

    @pytest.mark.parametrize("cap", ["0", "-5"])
    def test_non_positive_cap_refused(self, tmp_path, capsys, cap):
        gpath = tmp_path / "g.graph"
        rg.write_graph(rg.sample_rgraph(24, (0.5, 0.5), seed=1), gpath)
        err = run_refused(capsys, ["decompose", "--input", str(gpath), "--m", "2", "--eps", "0.3",
                                   "--cap", cap])
        assert err == f"error: cap must be at least 1, got {cap}\n"


class TestCountCopiesCommand:
    def test_monochromatic_product(self, tmp_path, capsys):
        gpath = tmp_path / "g.graph"
        rg.write_graph(mono_rgraph(9, 2, 1), gpath)
        hpath = write_triangle(tmp_path / "h.graph")
        parts = tmp_path / "parts.json"
        parts.write_text(json.dumps([[0, 1, 2], [3, 4, 5], [6, 7, 8]]))
        rc, out = run_cli(
            capsys,
            ["count-copies", "--graph", str(gpath), "--pattern", hpath,
             "--parts", str(parts), "--eta", "0.5"],
        )
        assert rc == 0
        payload = json.loads(out)
        assert payload["count"] == 27 and payload["total"] == 27
        assert payload["bound"] is not None and payload["bound"] > 0
        assert payload["satisfied"] is True

    def test_without_eta_no_bound(self, tmp_path, capsys):
        gpath = tmp_path / "g.graph"
        rg.write_graph(mono_rgraph(6, 2, 1), gpath)
        hpath = write_triangle(tmp_path / "h.graph")
        parts = tmp_path / "parts.json"
        parts.write_text(json.dumps([[0, 1], [2, 3], [4, 5]]))
        rc, out = run_cli(
            capsys,
            ["count-copies", "--graph", str(gpath), "--pattern", hpath,
             "--parts", str(parts)],
        )
        assert rc == 0
        payload = json.loads(out)
        assert payload["count"] == 8
        assert payload["bound"] is None and payload["satisfied"] is None

    def test_malformed_parts_file(self, tmp_path, capsys):
        gpath = tmp_path / "g.graph"
        rg.write_graph(mono_rgraph(6, 2, 1), gpath)
        hpath = write_triangle(tmp_path / "h.graph")
        parts = tmp_path / "parts.json"
        parts.write_text(json.dumps({"not": "a list"}))
        rc, _ = run_cli(
            capsys,
            ["count-copies", "--graph", str(gpath), "--pattern", hpath,
             "--parts", str(parts)],
        )
        assert rc == 2

    @pytest.mark.parametrize(
        "text, message",
        [
            ("[[0, 1], [2, 3], [4.5, 5]]", "non-integer vertex 4.5"),
            ("[[0, true], [2, 3], [4, 5]]", "non-integer vertex true"),
            ("[[0, 1], [2, 3, 3], [4, 5]]", "part 1 contains repeated vertices"),
        ],
    )
    def test_bad_vertex_entries(self, tmp_path, capsys, text, message):
        gpath = tmp_path / "g.graph"
        rg.write_graph(mono_rgraph(6, 2, 1), gpath)
        hpath = write_triangle(tmp_path / "h.graph")
        parts = tmp_path / "parts.json"
        parts.write_text(text)
        rc = main(["count-copies", "--graph", str(gpath), "--pattern", hpath,
                   "--parts", str(parts)])
        assert rc == 2
        assert message in capsys.readouterr().err


class TestEnumTypesCommand:
    def test_triangle_family_counts(self, tmp_path, capsys):
        hpath = write_triangle(tmp_path / "h.graph")
        rc, out = run_cli(capsys, ["enum-types", "--forbid", hpath, "--kmax", "2"])
        assert rc == 0
        payload = json.loads(out)
        assert payload["count"] == 4 and payload["size_bound"] == 2
        assert len(payload["types"]) == 4
        assert {"kind": "rtype", "r": 2, "k": 1, "self": [[2]], "edges": []} in payload["types"]

    @pytest.mark.parametrize("argv", [
        ["enum-types", "--kmax", "2", "--r", "2"],
        ["bound", "--p", "0.5,0.5", "--n", "10", "--r", "2"],
    ], ids=["enum-types", "bound"])
    def test_r_flag_is_a_usage_error(self, tmp_path, capsys, argv):
        """The family fixes the color count, so neither command takes --r,
        not even with the family's own r."""
        hpath = write_triangle(tmp_path / "h.graph")
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--forbid", hpath])
        assert exc.value.code == 2
        assert "unrecognized arguments: --r 2" in capsys.readouterr().err


class TestFkCommand:
    def test_worked_example(self, tmp_path, capsys):
        tpath = tmp_path / "t.json"
        tpath.write_text(
            json.dumps({"kind": "rtype", "r": 2, "k": 1, "self": [[2]], "edges": []})
        )
        rc, out = run_cli(capsys, ["fk", "--type", str(tpath), "--p", "0.5,0.5"])
        assert rc == 0
        payload = json.loads(out)
        assert payload == {"schema": 1, "fk": 0.5}

    def test_malformed_type_file(self, tmp_path, capsys):
        tpath = tmp_path / "t.json"
        tpath.write_text("{not json")
        rc, _ = run_cli(capsys, ["fk", "--type", str(tpath), "--p", "0.5,0.5"])
        assert rc == 2

    def test_non_utf8_type_file(self, tmp_path, capsys):
        tpath = tmp_path / "t.json"
        tpath.write_bytes(b'{"kind": "rtype\xff"}')
        rc = main(["fk", "--type", str(tpath), "--p", "0.5,0.5"])
        assert rc == 2
        assert f"{tpath} is not UTF-8 text" in capsys.readouterr().err


class TestEditDistanceCommand:
    def test_triangle_distance_with_witness(self, tmp_path, capsys):
        gpath = write_triangle(tmp_path / "g.graph")
        hpath = write_triangle(tmp_path / "h.graph")
        wpath = tmp_path / "w.graph"
        rc, out = run_cli(
            capsys,
            ["edit-distance", "--graph", gpath, "--forbid", hpath,
             "--witness-out", str(wpath)],
        )
        assert rc == 0
        assert json.loads(out) == {"schema": 1, "distance": 1}
        witness = rg.read_graph(wpath)
        tri = rg.read_graph(hpath)
        assert not rg.has_induced_copy(witness, tri)
        assert rg.edit_distance(rg.read_graph(gpath), witness) == 1

    def test_too_large_is_a_usage_error(self, tmp_path, capsys):
        gpath = tmp_path / "g.graph"
        rg.write_graph(mono_rgraph(9, 2, 1), gpath)
        hpath = write_triangle(tmp_path / "h.graph")
        rc, _ = run_cli(capsys, ["edit-distance", "--graph", str(gpath), "--forbid", hpath])
        assert rc == 2


class TestBoundCommand:
    def test_triangle_bound(self, tmp_path, capsys):
        hpath = write_triangle(tmp_path / "h.graph")
        rc, out = run_cli(
            capsys,
            ["bound", "--forbid", hpath, "--p", "0.5,0.5", "--n", "10", "--kmax", "2"],
        )
        assert rc == 0
        payload = json.loads(out)
        assert payload["found"] is True
        assert payload["fraction"] == pytest.approx(0.5)
        assert payload["value"] == pytest.approx(22.5)
        assert payload["type"]["kind"] == "rtype"

    def test_error_terms_attached(self, tmp_path, capsys):
        hpath = write_triangle(tmp_path / "h.graph")
        rc, out = run_cli(
            capsys,
            ["bound", "--forbid", hpath, "--p", "0.5,0.5", "--n", "40",
             "--kmax", "1", "--eps", "0.2"],
        )
        assert rc == 0
        terms = json.loads(out)["error_terms"]
        assert set(terms) == {
            "rounding", "diagonal", "density_concentration",
            "irregular_pairs", "deviating_pairs", "total",
        }

    @pytest.mark.parametrize("p, why", [
        ("5,5", "sum to 10.0"), ("1.5,-0.5", "nonnegative"),
        pytest.param("nan,1", "each probability must be a real number, got nan", id="nan,1-nonnegative"),
    ])
    def test_weights_must_be_a_distribution(self, tmp_path, capsys, p, why):
        hpath = write_triangle(tmp_path / "h.graph")
        assert main(["bound", "--forbid", hpath, "--p", p, "--n", "10", "--kmax", "2"]) == 2
        assert why in capsys.readouterr().err
        tpath = tmp_path / "t.json"
        tpath.write_text(json.dumps({"kind": "rtype", "r": 2, "k": 1, "self": [[2]], "edges": []}))
        assert main(["fk", "--type", str(tpath), "--p", p]) == 2
        assert why in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value, why", [
        ("--n", "-5", "--n must be at least 1, got -5"),
        ("--n", "0", "--n must be at least 1, got 0"),
        ("--eps", "-1", "eps must be positive, got -1.0"),
        ("--eps", "0", "eps must be positive, got 0.0"),
        ("--eps", "nan", "eps must be a real number, got nan"),
    ], ids=["n-negative", "n-zero", "eps-negative", "eps-zero", "eps-nan"])
    def test_bad_size_or_tolerance_refused(self, tmp_path, capsys, flag, value, why):
        hpath = write_triangle(tmp_path / "h.graph")
        argv = ["bound", "--forbid", hpath, "--p", "0.5,0.5", "--n", "40", "--kmax", "1"]
        assert why in run_refused(capsys, argv + [flag, value])

    def test_non_finite_report_refused(self, tmp_path, capsys):
        """eps = inf makes the error terms infinite and NaN, which JSON cannot hold."""
        hpath = write_triangle(tmp_path / "h.graph")
        argv = ["bound", "--forbid", hpath, "--p", "0.5,0.5", "--n", "40", "--eps", "inf"]
        assert "cannot write the report" in run_refused(capsys, argv)

    def test_no_type_is_a_failure_verdict(self, tmp_path, capsys):
        lpath = tmp_path / "lone.graph"
        rg.write_graph(rg.new_rgraph(1, 2, []), lpath)
        rc, out = run_cli(
            capsys, ["bound", "--forbid", str(lpath), "--p", "0.5,0.5", "--n", "10"]
        )
        assert rc == 3
        assert json.loads(out)["found"] is False


class TestExperimentCommand:
    def test_edge_family_rows(self, tmp_path, capsys):
        epath = tmp_path / "e.graph"
        rg.write_graph(rg.new_rgraph(2, 2, [(0, 1, 1)]), epath)
        csv = tmp_path / "runs.csv"
        rc, out = run_cli(
            capsys,
            ["experiment", "--forbid", str(epath), "--p", "0.5,0.5", "--n", "5,6",
             "--seeds", "5", "--kmax", "1", "--csv", str(csv)],
        )
        assert rc == 0
        payload = json.loads(out)
        assert payload["bound_found"] is True
        assert len(payload["rows"]) == 2
        for row, n in zip(payload["rows"], (5, 6)):
            assert row["n"] == n
            assert row["bound"] == pytest.approx(0.5 * n * (n - 1) / 2)
            assert row["min"] <= row["mean"] <= row["max"]
            assert row["gap"] == pytest.approx(row["mean"] - row["bound"])
        assert len(payload["gap_trend"]) == 2
        assert "slack_constant" in payload
        lines = csv.read_text().strip().splitlines()
        assert lines[0] == "n,seed,distance"
        assert len(lines) == 1 + 2 * 5

    def test_no_types_still_reports(self, tmp_path, capsys):
        # Forbidding a color-1 pair and a color-2 triangle kills every
        # single-vertex template, yet 2-vertex graphs can avoid both.
        epath = tmp_path / "e.graph"
        rg.write_graph(rg.new_rgraph(2, 2, [(0, 1, 1)]), epath)
        tpath = write_triangle(tmp_path / "t.graph", color=2)
        rc, out = run_cli(
            capsys,
            ["experiment", "--forbid", str(epath), str(tpath), "--p", "0.5,0.5",
             "--n", "2", "--seeds", "4", "--kmax", "1"],
        )
        assert rc == 0
        payload = json.loads(out)
        assert payload["bound_found"] is False
        assert payload["note"] == "no type found"
        assert payload["rows"][0]["bound"] is None

    def test_directed_family_rejected(self, tmp_path, capsys):
        dpath = tmp_path / "d.graph"
        rg.write_graph(mono_digraph(2, "bi"), dpath)
        rc, _ = run_cli(
            capsys,
            ["experiment", "--forbid", str(dpath), "--p", "0.5,0.5", "--n", "4"],
        )
        assert rc == 2

    @pytest.mark.parametrize("seeds", ["0", "-3"])
    def test_seeds_below_one_refused(self, tmp_path, capsys, seeds):
        epath = tmp_path / "e.graph"
        rg.write_graph(rg.new_rgraph(2, 2, [(0, 1, 1)]), epath)
        argv = ["experiment", "--forbid", str(epath), "--p", "0.5,0.5", "--n", "4", "--seeds", seeds]
        assert f"--seeds must be at least 1, got {seeds}" in run_refused(capsys, argv)

    def test_weight_arity_checked(self, tmp_path, capsys):
        epath = tmp_path / "e.graph"
        rg.write_graph(rg.new_rgraph(2, 2, [(0, 1, 1)]), epath)
        rc, _ = run_cli(
            capsys,
            ["experiment", "--forbid", str(epath), "--p", "0.2,0.3,0.5", "--n", "4"],
        )
        assert rc == 2


# ``python -m regracut`` needs no installation; the child process gets the
# ``src`` directory of the package imported here, so it runs this very code
# whatever the working directory.
MODULE_LAUNCHER = (sys.executable, "-m", "regracut")
SCRIPT = shutil.which("regracut")
needs_script = pytest.mark.skipif(
    SCRIPT is None, reason="no installed regracut script on PATH"
)
PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def old_encoder(obj):
    """The report encoder before the row writer, refusing NaN and infinities."""
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)


def encoded(encode, obj):
    """What an encoder returns, or ValueError if it refuses obj."""
    try:
        return encode(obj)
    except ValueError:
        return ValueError


int_rows = st.integers(1, 4).flatmap(
    lambda k: st.lists(st.lists(st.integers(), min_size=k, max_size=k), max_size=4)
)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text()
    | st.lists(st.integers() | st.booleans()) | int_rows
    | st.lists(st.lists(st.integers() | st.booleans(), max_size=3), max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.tuples(inner, inner)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=20,
)


class TestReportWriter:
    """`cli._json` writes the bytes `json.dumps(..., sort_keys=True, indent=2,
    allow_nan=False)` does, and refuses what it refuses."""

    @given(obj=json_values)
    @settings(max_examples=400, deadline=None)
    def test_matches_json_dumps(self, obj):
        assert encoded(cli._json, obj) == encoded(old_encoder, obj)

    @pytest.mark.parametrize("obj", [
        float("nan"), float("inf"), float("-inf"), -0.0, 1e300, "\u00e9\u2603\n\u2028",
        {}, [], [[]], [[], []], {"b": [], "a": {}}, [True, 1], [1, False], [[1, 2], [3]],
        [[1, 2], [True, 3]], [(1, 2), [3, 4]], [[1, 2], [3, 4.0]], {"k": [[0, -1], [2, 10**30]]},
        [None, [None]], {"x": [{"y": [1]}, []]},
    ])
    def test_named_values(self, obj):
        assert encoded(cli._json, obj) == encoded(old_encoder, obj)

    def test_emit_adds_schema_and_newline(self, tmp_path):
        out = tmp_path / "r.json"
        cli._emit({"z": [[1, 2]], "a": 0.5}, str(out))
        assert out.read_text() == old_encoder({"schema": 1, "z": [[1, 2]], "a": 0.5}) + "\n"


def report_argvs(tmp):
    """One invocation of every subcommand that writes a JSON report."""
    two = write_two_block(tmp / "two.graph")
    tri = write_triangle(tmp / "tri.graph")
    edge = tmp / "edge.graph"
    rg.write_graph(rg.new_rgraph(2, 2, [(0, 1, 1)]), edge)
    big = tmp / "big.graph"
    rg.write_graph(rg.sample_rgraph(60, (0.3, 0.3, 0.4), seed=2), big)
    dig = tmp / "dig.graph"
    rg.write_graph(rg.sample_digraph(48, 0.2, 0.3, seed=3), dig)
    mono = tmp / "mono.graph"
    rg.write_graph(mono_rgraph(9, 2, 1), mono)
    parts = tmp / "p.json"
    parts.write_text(json.dumps([list(range(6)), list(range(6, 12))]))
    thirds = tmp / "thirds.json"
    thirds.write_text(json.dumps([[0, 1, 2], [3, 4, 5], [6, 7, 8]]))
    ktype = tmp / "t.json"
    ktype.write_text(json.dumps({"kind": "rtype", "r": 2, "k": 1, "self": [[2]], "edges": []}))
    return {
        "density": ["density", "--graph", two, "--parts", str(parts), "--i", "0", "--j", "1"],
        "check-pair": ["check-pair", "--graph", two, "--a", "0,1,2,3,4,5",
                       "--b", "6,7,8,9,10,11", "--gamma", "0.3", "--method", "exact",
                       "--exact-cap", "6"],
        "index": ["index", "--graph", two, "--parts", str(parts)],
        "decompose-rgraph": ["decompose", "--input", str(big), "--m", "3", "--eps", "0.25",
                             "--cap", "16", "--seed", "4"],
        "decompose-digraph": ["decompose", "--input", str(dig), "--m", "2", "--eps", "0.3",
                              "--cap", "16", "--certifier", "auto"],
        "count-copies": ["count-copies", "--graph", str(mono), "--pattern", tri,
                         "--parts", str(thirds), "--eta", "0.5"],
        "enum-types": ["enum-types", "--forbid", tri, "--kmax", "2"],
        "fk": ["fk", "--type", str(ktype), "--p", "0.5,0.5"],
        "edit-distance": ["edit-distance", "--graph", tri, "--forbid", tri],
        "bound": ["bound", "--forbid", tri, "--p", "0.5,0.5", "--n", "40", "--kmax", "1",
                  "--eps", "0.2"],
        "experiment": ["experiment", "--forbid", str(edge), "--p", "0.5,0.5", "--n", "5,6",
                       "--seeds", "3", "--kmax", "1"],
    }


class TestReportBytes:
    """Every report is byte for byte what the old encoder wrote."""

    @pytest.mark.parametrize("name", [
        "density", "check-pair", "index", "decompose-rgraph", "decompose-digraph",
        "count-copies", "enum-types", "fk", "edit-distance", "bound", "experiment",
    ])
    def test_same_bytes_as_json_dumps(self, tmp_path, capsys, name):
        argv = report_argvs(tmp_path)[name]
        rc, out = run_cli(capsys, argv)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cli, "_json", old_encoder)
            assert run_cli(capsys, argv) == (rc, out)
        assert rc in (0, 3) and out.startswith("{\n")


def run_entry_point(launcher, *args):
    src = str(Path(rg.__file__).resolve().parents[1])
    paths = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
    return subprocess.run(
        [*launcher, *args], capture_output=True, text=True, env=env
    )


def check_fk_report(launcher, tmp_path):
    tpath = tmp_path / "t.json"
    tpath.write_text(
        json.dumps({"kind": "rtype", "r": 2, "k": 1, "self": [[2]], "edges": []})
    )
    proc = run_entry_point(launcher, "fk", "--type", str(tpath), "--p", "0.25,0.75")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["fk"] == pytest.approx(0.25)


def check_usage_error(launcher):
    proc = run_entry_point(launcher, "no-such-command")
    assert proc.returncode == 2


class TestEntryPoint:
    """The CLI across a real process boundary.

    A missing ``__main__.py`` makes ``python -m regracut`` exit 1, so the
    usage-error check asks for the documented 2, not just any failure.
    """

    def test_console_script(self, tmp_path):
        check_fk_report(MODULE_LAUNCHER, tmp_path)

    def test_usage_error_exits_nonzero(self):
        check_usage_error(MODULE_LAUNCHER)

    @needs_script
    def test_installed_script_fk(self, tmp_path):
        check_fk_report((SCRIPT,), tmp_path)

    @needs_script
    def test_installed_script_usage_error(self):
        check_usage_error((SCRIPT,))

    def test_pyproject_maps_console_script(self):
        tomllib = pytest.importorskip("tomllib")
        with PYPROJECT.open("rb") as fh:
            target = tomllib.load(fh)["project"]["scripts"]["regracut"]
        assert target == "regracut.cli:main"
        module, _, attr = target.partition(":")
        assert getattr(importlib.import_module(module), attr) is main


class TestParserReuse:
    """`main` parses with one parser built on first use."""

    def test_back_to_back_calls_share_no_state(self, tmp_path, capsys):
        gpath = tmp_path / "g.graph"
        rg.write_graph(rg.sample_rgraph(24, (0.5, 0.5), seed=1), gpath)
        base = ["decompose", "--input", str(gpath), "--m", "2", "--eps", "0.3", "--cap", "8"]
        runs = [
            base + ["--certifier", "exact", "--seed", "3", "--trials", "5"],
            base,
            ["density", "--graph", str(gpath), "--a", "0,1,2", "--b", "3,4"],
            base + ["--seed", "3"],
            base + ["--certifier", "exact", "--seed", "3", "--trials", "5"],
        ]
        shared = []
        for argv in runs:
            with pytest.raises(SystemExit):
                main(["decompose", "--input", str(gpath)])  # usage error in between
            capsys.readouterr()
            shared.append(run_cli(capsys, argv))
        assert cli.build_parser() is cli.build_parser()
        fresh = []
        for argv in runs:
            cli.build_parser.cache_clear()
            fresh.append(run_cli(capsys, argv))
        assert shared == fresh
        assert shared[0] == shared[4]
        # the options reach the command: each report differs from the default's
        assert shared[0][1] != shared[1][1] and shared[3][1] != shared[1][1]
