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

import regracut as rg
from regracut.cli import main

from helpers import mono_digraph, mono_rgraph


def run_cli(capsys, argv):
    rc = main(argv)
    return rc, capsys.readouterr().out


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
        assert out.startswith("digraph 6\n")

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

    def test_color_count_conflict(self, tmp_path, capsys):
        hpath = write_triangle(tmp_path / "h.graph")
        rc, _ = run_cli(
            capsys, ["enum-types", "--forbid", hpath, "--kmax", "2", "--r", "3"]
        )
        assert rc == 2


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
