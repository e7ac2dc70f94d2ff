import csv
import io
import json
import os
import subprocess
import sys
import warnings
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from graphhodge.cli import main
from graphhodge import ComparisonData, GameForm, aggregate, coboundary, game_flow, rank, read_matrix

from conftest import (
    loop_game_outputs,
    loop_json_array,
    loop_rank_outputs,
    loop_write_matrix,
    quote_each_cell,
    raised_message,
    special_floats,
    tsv_lines,
    with_value_at_random,
)

DATA = Path(__file__).resolve().parent.parent / "data"


def run(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def write(tmp_path, name, text) -> str:
    path = tmp_path / name
    path.write_text(text)
    return str(path)


@pytest.fixture
def c4_file(tmp_path):
    return write(tmp_path, "c4.txt", "1 2\n2 3\n3 4\n1 4\n")


@pytest.fixture
def golden_file(tmp_path):
    return write(tmp_path, "g.txt", "1 2\n2 3\n3 4\n4 1\n3 5\n5 6\n3 6\n")


class TestSpectrumBetti:
    def test_spectrum_golden(self, capsys, golden_file):
        code, out = run(capsys, "spectrum", "--k", "1", "--input", golden_file)
        assert code == 0
        doc = json.loads(out)
        expected = sorted([0, 3 - 5**0.5, 2, 3, 3, 3, 3 + 5**0.5])
        assert np.allclose(doc["eigenvalues"], expected, atol=1e-9)
        assert doc["betti"] == 1
        assert doc["k"] == 1
        assert "tolerance" in doc

    def test_betti_square(self, capsys, c4_file):
        code, out = run(capsys, "betti", "--k", "1", "--input", c4_file)
        assert code == 0
        assert json.loads(out)["betti"] == 1

    def test_tolerance_override(self, capsys, c4_file):
        code, out = run(capsys, "betti", "--k", "0", "--input", c4_file, "--tolerance", "100")
        assert code == 0
        doc = json.loads(out)
        assert doc["betti"] == 4  # everything below the absurd threshold
        assert doc["tolerance"] == 100

    def test_spectrum_plot(self, capsys, tmp_path, c4_file):
        plot = tmp_path / "plot.tsv"
        code, _ = run(capsys, "spectrum", "--k", "0", "--input", c4_file, "--plot", str(plot))
        assert code == 0
        rows = [line.split("\t") for line in plot.read_text().splitlines()]
        assert [r[0] for r in rows] == ["1", "2", "3", "4"]


class TestCliquesOperator:
    def test_cliques(self, capsys, golden_file):
        code, out = run(capsys, "cliques", "--input", golden_file)
        assert code == 0
        doc = json.loads(out)
        assert doc["counts"] == {"1": 6, "2": 7, "3": 1}
        assert doc["cliques"]["3"] == [[3, 5, 6]]
        assert doc["clique_number"] is None  # not settled at max_order 3

    def test_operator_round_trip(self, capsys, golden_file):
        code, out = run(capsys, "operator", "--k", "0", "--input", golden_file)
        assert code == 0
        mat = read_matrix(out)
        assert mat.shape == (7, 6)
        code2, out2 = run(capsys, "operator", "--k", "0", "--input", golden_file)
        assert out2 == out

    def test_laplacian_export(self, capsys, c4_file):
        code, out = run(capsys, "laplacian", "--k", "0", "--input", c4_file)
        assert code == 0
        lap = read_matrix(out).toarray()
        assert np.array_equal(np.diag(lap), [2, 2, 2, 2])


class TestDecompose:
    def test_harmonic_square_flow(self, capsys, tmp_path, c4_file):
        cochain = write(tmp_path, "x.tsv", "1 2 2\n2 3 2\n3 4 2\n4 1 2\n")
        code, out = run(capsys, "decompose", "--input", c4_file, "--cochain", cochain)
        assert code == 0
        doc = json.loads(out)
        assert doc["norms"]["harmonic"] == pytest.approx(4.0, abs=1e-9)
        assert doc["norms"]["exact"] == pytest.approx(0.0, abs=1e-9)
        assert doc["method"] == "two-solve"

    def test_method_flag(self, capsys, tmp_path, c4_file):
        cochain = write(tmp_path, "x.tsv", "1 2 1\n", )
        code, out = run(
            capsys, "decompose", "--input", c4_file, "--cochain", cochain,
            "--method", "laplacian-residual",
        )
        assert code == 0
        assert json.loads(out)["method"] == "laplacian-residual"

    def test_plot_columns(self, capsys, tmp_path, c4_file):
        cochain = write(tmp_path, "x.tsv", "1 2 2\n2 3 2\n3 4 2\n4 1 2\n")
        plot = tmp_path / "split.tsv"
        run(capsys, "decompose", "--input", c4_file, "--cochain", cochain, "--plot", str(plot))
        rows = [line.split("\t") for line in plot.read_text().splitlines()]
        assert len(rows) == 4 and len(rows[0]) == 6  # i j x exact harmonic coexact

    @pytest.mark.parametrize("text", ["1 2 2\n2 3 2\n3 4 2\n4 1 2\n", "# vertex values\n1 1.5\n3 -2\n"])
    def test_the_cochain_is_tokenized_once(self, capsys, tmp_path, c4_file, monkeypatch, text):
        import graphhodge.cli as cli
        import graphhodge.cochains as cochains
        import graphhodge.complexes as complexes

        tokenized, loadtxt = [], complexes._loadtxt
        for module in (cli, cochains, complexes):  # each module that holds the reader, or may hold it
            monkeypatch.setattr(module, "_loadtxt", lambda lines, dtype: tokenized.append(lines) or loadtxt(lines, dtype),
                                raising=False)
        cochain = write(tmp_path, "x.tsv", text)
        assert run(capsys, "decompose", "--input", c4_file, "--cochain", cochain)[0] == 0
        assert tokenized.count(text.splitlines()) == 1 and len(tokenized) == 2  # the cochain, and the edge list

    @pytest.mark.parametrize("text", ["", "# a comment only\n\n"])
    def test_a_cochain_with_no_data_lines_exits_one(self, capsys, tmp_path, c4_file, text):
        cochain = write(tmp_path, "x.tsv", text)
        assert main(["decompose", "--input", c4_file, "--cochain", cochain]) == 1
        assert capsys.readouterr().err == "graphhodge: error: cochain document has no data lines\n"


class TestRankGame:
    def test_rank_ratings(self, capsys, tmp_path):
        csv = write(
            tmp_path, "r.csv",
            "voter,item,score\nv1,a,5\nv1,b,3\nv1,c,1\nv2,a,4\nv2,b,4\nv2,c,2\n",
        )
        code, out = run(capsys, "rank", "--model", "mean", "--input", csv)
        assert code == 0
        doc = json.loads(out)
        assert doc["order"] == ["a", "b", "c"]
        assert doc["model"] == "mean"
        assert doc["connected"] is True
        assert len(doc["edges"]) == 3

    def test_rank_logodds_pairwise(self, capsys, tmp_path):
        csv = write(tmp_path, "p.csv", "v1,a,b,1\nv2,a,b,1\nv3,b,a,1\n")
        code, out = run(capsys, "rank", "--model", "logodds", "--input", csv)
        assert code == 0
        doc = json.loads(out)
        assert doc["order"] == ["a", "b"]

    def test_game_road_sharing(self, capsys):
        code, out = run(capsys, "game", "--input", str(DATA / "road_sharing.json"))
        assert code == 0
        doc = json.loads(out)
        assert doc["is_potential_game"] is False
        assert doc["is_harmonic_game"] is False
        assert doc["pure_nash"] == []
        flows = {(a, b): x for a, b, x in doc["flow"]}
        assert flows[("a,a,a", "b,a,a")] == 4
        assert doc["potential"]["a,a,a"] == 1

    @pytest.mark.parametrize("utilities, players", [
        ([{"a": 1e308, "b": 1e308}], [["a", "b"]]),  # 2 * 1e308 overflowed the harmonic test
        ([{"a,c": 9e307, "b,c": 9e307}] * 2, [["a", "b"], ["c"]]),  # so did the summed utilities, 1.8e308
    ])
    def test_game_near_the_float64_limit(self, capsys, tmp_path, utilities, players):
        """Both predicates read true, as the same games at 8.0 do, with no numpy warning."""
        game = write(tmp_path, "g.json", json.dumps({"strategies": players, "utilities": utilities}))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out = run(capsys, "game", "--input", game)
        assert code == 0
        doc = json.loads(out)
        assert doc["is_harmonic_game"] is True and doc["is_potential_game"] is True

    def test_game_flow_out(self, capsys, tmp_path):
        flow_path = tmp_path / "flow.tsv"
        code, _ = run(
            capsys, "game", "--input", str(DATA / "road_sharing.json"),
            "--flow-out", str(flow_path),
        )
        assert code == 0
        assert len(flow_path.read_text().splitlines()) == 12


class TestNonlinearCommands:
    def test_cheeger(self, capsys, c4_file):
        code, out = run(capsys, "cheeger", "--input", c4_file)
        assert code == 0
        doc = json.loads(out)
        assert doc["h"] == "1/2"
        assert doc["normalized_holds"] is True

    def test_plap_interval(self, capsys, tmp_path, c4_file):
        f = write(tmp_path, "f.tsv", "1 0\n2 1\n3 3\n4 1\n")
        code, out = run(capsys, "plap", "--p", "1", "--input", c4_file, "--f", f)
        assert code == 0
        doc = json.loads(out)
        assert doc["mode"] == "interval"
        assert len(doc["intervals"]) == 4

    def test_plap_p3(self, capsys, tmp_path):
        path_file = write(tmp_path, "path.txt", "1 2\n2 3\n")
        f = write(tmp_path, "f.tsv", "1 0\n2 1\n3 3\n")
        code, out = run(capsys, "plap", "--p", "3", "--input", path_file, "--f", f)
        assert code == 0
        assert json.loads(out)["values"] == [-1, -3, 4]


class TestIsospectral:
    def test_distinguished_pair(self, capsys):
        code, out = run(
            capsys, "isospectral", "--max-k", "1",
            str(DATA / "iso_pair_a1.txt"), str(DATA / "iso_pair_a2.txt"),
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["distinguished"] is True
        assert doc["first_differing_k"] == 1

    def test_indistinguishable_pair(self, capsys):
        code, out = run(
            capsys, "isospectral", "--max-k", "2",
            str(DATA / "iso_pair_b1.txt"), str(DATA / "iso_pair_b2.txt"),
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["distinguished"] is False
        assert doc["first_differing_k"] is None


class TestContract:
    def test_unknown_subcommand_exits_one(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_unknown_flag_exits_one(self, capsys):
        assert main(["betti", "--k", "0", "--frob", "x"]) == 1

    def test_seed_flag_is_unknown(self, capsys, c4_file):
        assert main(["cliques", "--input", c4_file, "--seed", "3"]) == 1

    def test_unreadable_file_exits_one(self, capsys):
        assert main(["betti", "--k", "0", "--input", "/nonexistent/g.txt"]) == 1

    def test_malformed_graph_exits_one(self, capsys, tmp_path):
        bad = write(tmp_path, "bad.txt", "1 1\n")
        assert main(["betti", "--k", "0", "--input", bad]) == 1

    def test_vertex_id_past_int64_exits_one(self, capsys, tmp_path, c4_file):
        cochain = write(tmp_path, "x.tsv", f"1 2 1\n{10**20} 1 0.5\n")
        assert main(["decompose", "--input", c4_file, "--cochain", cochain]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and f"(1, {10**20}) is not a clique of order 2" in captured.err

    def test_numerical_failure_exits_two_with_diagnostic(
        self, capsys, tmp_path, c4_file, monkeypatch
    ):
        import graphhodge.decompose as module

        def fake_cg(A, b, callback=None, **kwargs):
            # the potential solve: b = (-1, 1, 0, 0) and Delta_0 (b / 4) = (-3, 3, -1, 1) / 4 on the
            # 4-cycle, which leaves the residual (-1, 1, 1, -1) / 4 of norm 0.5
            for _ in range(9):
                callback(b / 4)
            return b / 4, 9

        monkeypatch.setattr(module, "cg", fake_cg)
        cochain = write(tmp_path, "x.tsv", "1 2 1\n")
        code, out = run(capsys, "decompose", "--input", c4_file, "--cochain", cochain)
        assert code == 2
        doc = json.loads(out)
        assert doc["residual"] == 0.5
        assert doc["iterations"] == 9
        assert "error" in doc

    def test_laplacian_image_failure_exits_two_with_diagnostic(
        self, capsys, tmp_path, golden_file, monkeypatch
    ):
        import graphhodge.decompose as module

        def fake_cg(A, b, callback=None, **kwargs):
            for _ in range(3):
                callback(np.zeros_like(b))
            return np.zeros_like(b), 3

        monkeypatch.setattr(module, "cg", fake_cg)
        cochain = write(tmp_path, "x.tsv", "1 2 1\n3 5 -2\n")
        code, out = run(capsys, "decompose", "--method", "laplacian-residual",
                        "--input", golden_file, "--cochain", cochain)
        assert code == 2
        doc = json.loads(out)
        assert doc["iterations"] == 3
        assert doc["residual"] > 0
        assert "conjugate-gradient" in doc["error"]

    def test_ambiguous_profile_keys_exit_one(self, capsys, tmp_path):
        # ("a", "b,x") and ("a,b", "x") both join to "a,b,x"
        table = {"a,x": 1.0, "a,b,x": 2.0, "a,b,b,x": 3.0}
        game = write(tmp_path, "g.json", json.dumps({"strategies": [["a", "a,b"], ["x", "b,x"]],
                                                     "utilities": [table, table]}))
        assert main(["game", "--input", game]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "graphhodge: error: profile key 'a,b,x' is ambiguous: several profiles join to it\n"

    def test_comma_in_a_label_is_kept_when_keys_stay_distinct(self, capsys, tmp_path):
        docs = []
        for label in ("a,b", "ab"):
            keys = [f"{s},{t}" for s in (label, "c") for t in ("x", "y")]
            game = write(tmp_path, "g.json", json.dumps({
                "strategies": [[label, "c"], ["x", "y"]],
                "utilities": [dict(zip(keys, [1.0, 2.0, 0.5, 3.0])), dict(zip(keys, [2.0, 0.0, 1.0, 4.0]))]}))
            code, out = run(capsys, "game", "--input", game)
            assert code == 0
            docs.append(out)
        assert docs[0].replace("a,b", "ab") == docs[1]

    def test_memory_error_exits_one(self, capsys, tmp_path, monkeypatch):
        import graphhodge.cli as cli

        message = "Unable to allocate 745. GiB for an array with shape (99999999999,) and data type int64"

        def exhausted(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(cli, "enumerate_cliques", exhausted)
        graph = write(tmp_path, "g.txt", "1 99999999999\n")
        assert main(["cliques", "--input", graph]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"graphhodge: error: out of memory: {message}\n"

    def test_output_file(self, capsys, tmp_path, c4_file):
        out_path = tmp_path / "out.json"
        code, _ = run(capsys, "betti", "--k", "1", "--input", c4_file, "--output", str(out_path))
        assert code == 0
        assert json.loads(out_path.read_text())["betti"] == 1

    def test_byte_identical_reruns(self, capsys, golden_file, tmp_path):
        cochain = write(tmp_path, "x.tsv", "1 2 0.125\n3 5 -2.5\n2 3 0.70710678\n")
        outputs = []
        for _ in range(2):
            code, out = run(
                capsys, "decompose", "--input", golden_file, "--cochain", cochain
            )
            assert code == 0
            outputs.append(out)
        assert outputs[0] == outputs[1]

    def test_json_keys_sorted(self, capsys, c4_file):
        code, out = run(capsys, "cheeger", "--input", c4_file)
        doc = json.loads(out)
        assert list(doc) == sorted(doc)


class TestPlotEmitters:
    def test_ranking_plot(self, capsys, tmp_path):
        csv = write(tmp_path, "r.csv", "v1,a,5\nv1,b,3\n")
        plot = tmp_path / "rank.tsv"
        code, _ = run(capsys, "rank", "--input", csv, "--plot", str(plot))
        assert code == 0
        rows = [line.split("\t") for line in plot.read_text().splitlines()]
        assert rows[0][:2] == ["1", "a"]


DEGREE_K_COMMANDS = ("operator", "laplacian", "spectrum", "betti")


class TestDerivedEnumeration:
    def test_max_order_is_a_cliques_flag_only(self, capsys, tmp_path, c4_file):
        cochain = write(tmp_path, "x.tsv", "1 2 1\n")
        for name in DEGREE_K_COMMANDS:
            assert main([name, "--k", "0", "--input", c4_file, "--max-order", "3"]) == 1
        assert main(["decompose", "--input", c4_file, "--cochain", cochain, "--max-order", "3"]) == 1
        code, out = run(capsys, "cliques", "--input", str(DATA / "iso_pair_a1.txt"), "--max-order", "4")
        assert code == 0
        assert json.loads(out)["max_order"] == 4

    def test_degree_k_commands_enumerate_through_k_plus_2(self, capsys, tmp_path, golden_file, monkeypatch):
        import graphhodge.cli as cli

        orders = []
        enumerate_cliques = cli.enumerate_cliques
        def recording(graph, max_order):
            orders.append(max_order)
            return enumerate_cliques(graph, max_order)

        monkeypatch.setattr(cli, "enumerate_cliques", recording)
        for k in (0, 1, 2):
            for name in DEGREE_K_COMMANDS:
                assert run(capsys, name, "--k", str(k), "--input", golden_file)[0] == 0
                assert orders.pop() == k + 2
        cochain = write(tmp_path, "x.tsv", "1 2\n")
        assert run(capsys, "decompose", "--input", golden_file, "--cochain", cochain)[0] == 0
        assert orders == [2]

    def test_plap_enumerates_once(self, capsys, tmp_path, c4_file, monkeypatch):
        import graphhodge.complexes as complexes
        import graphhodge.operators as operators

        builds = []
        extend, assemble = complexes._extend, operators._assemble_coboundary
        monkeypatch.setattr(complexes, "_extend", lambda *args: builds.append("levels") or extend(*args))
        monkeypatch.setattr(operators, "_assemble_coboundary",
                            lambda cx, k: builds.append(f"d{k}") or assemble(cx, k))
        f = write(tmp_path, "f.tsv", "1 0\n2 1\n3 0\n4 2\n")
        for p in ("1", "3"):
            builds.clear()
            assert run(capsys, "plap", "--input", c4_file, "--f", f, "--p", p)[0] == 0
            # d_0 is applied from the edge array: no sparse d_0 is assembled, and levels are extended at most once
            assert "d0" not in builds and builds.count("levels") <= 1

    def test_no_command_reads_neighbour_sets(self, capsys, tmp_path, monkeypatch):
        from graphhodge import CliqueComplex, Graph

        def forbidden(name):
            def read(*args):
                raise AssertionError(f"read {name}")
            return read

        # the tuple views of an edge or clique level; the neighbour sets, the edge set, degree(v) and index()
        # are gone from the package
        for owner, name in ((Graph, "neighbors"), (Graph, "edges"), (Graph, "degree"), (CliqueComplex, "index")):
            assert not hasattr(owner, name), name
        monkeypatch.setattr(Graph, "sorted_edges", property(forbidden("Graph.sorted_edges")))
        monkeypatch.setattr(CliqueComplex, "cliques", forbidden("CliqueComplex.cliques"))
        isolated = write(tmp_path, "g.txt", "p 7 4\n1 2\n2 3\n1 3\n4 5\n")  # 6 and 7 isolated
        cochain = write(tmp_path, "x.tsv", "1 2 1\n2 3 -0.5\n1 3 2\n4 5 0.25\n")
        f = write(tmp_path, "f.tsv", "".join(f"{v} {v % 3}\n" for v in range(1, 8)))
        runs = [["game", "--input", str(DATA / "road_sharing.json")],
                ["rank", "--input", str(DATA / "ratings_small.csv")],
                *(["decompose", "--input", isolated, "--cochain", cochain, "--method", method]
                  for method in ("two-solve", "laplacian-residual")),
                ["cheeger", "--input", str(DATA / "c4.txt")],
                *(["plap", "--input", isolated, "--f", f, "--p", p] for p in ("1", "3")),
                ["spectrum", "--input", isolated, "--k", "0"],
                ["isospectral", str(DATA / "iso_pair_a1.txt"), str(DATA / "iso_pair_a2.txt")]]
        for argv in runs:
            assert run(capsys, *argv)[0] == 0, argv

    def test_commands_that_print_no_clique_rows_build_no_triangle_rows(self, capsys, tmp_path, golden_file,
                                                                       monkeypatch):
        from graphhodge import CliqueComplex

        rows = CliqueComplex._vertex_rows

        def below_triangles(cx, order):
            assert order < 3, f"built the vertex rows of order {order}"
            return rows(cx, order)

        monkeypatch.setattr(CliqueComplex, "_vertex_rows", below_triangles)
        weights = write(tmp_path, "w.tsv", "1 2 2.5\n3 5 0.5\n3 5 6 4\n")  # locates a triangle row
        f = write(tmp_path, "f.tsv", "".join(f"{v} {v % 3}\n" for v in range(1, 7)))
        runs = [["rank", "--input", str(DATA / "ratings_small.csv")],  # its comparison graph has a triangle
                ["rank", "--input", str(DATA / "ratings_small.csv"), "--model", "logodds"],
                ["game", "--input", str(DATA / "road_sharing.json")],
                ["cheeger", "--input", golden_file],
                *(["plap", "--input", golden_file, "--f", f, "--p", p] for p in ("1", "3")),
                *([name, "--input", golden_file, "--k", k] for name in DEGREE_K_COMMANDS for k in ("0", "1")),
                *([name, "--input", golden_file, "--k", k, "--weights", weights]
                  for name in DEGREE_K_COMMANDS[1:] for k in ("0", "1"))]
        for argv in runs:
            assert run(capsys, *argv)[0] == 0, argv
        monkeypatch.undo()
        assert run(capsys, "cliques", "--input", golden_file)[0] == 0  # prints the triangle rows, so builds them

    def test_cliques_far_past_the_clique_number(self, capsys, tmp_path):
        triangle = write(tmp_path, "t.txt", "1 2\n2 3\n1 3\n")
        code, out = run(capsys, "cliques", "--input", triangle, "--max-order", "100000")
        assert code == 0
        doc = json.loads(out)
        assert [doc["counts"][str(k)] for k in range(1, 100_001)] == [3, 3, 1] + [0] * 99_997
        assert doc["clique_number"] == 3 and doc["max_order"] == 100_000
        assert doc["cliques"]["3"] == [[1, 2, 3]] and doc["cliques"]["4"] == doc["cliques"]["100000"] == []

    def test_no_command_locates_a_clique_between_enumeration_and_coboundary(self, capsys, tmp_path, monkeypatch):
        from graphhodge import CliqueComplex

        def forbidden(*args):
            raise AssertionError("located cliques")

        # rank and decompose are left out: they locate the rows of their weight and cochain tables
        monkeypatch.setattr(CliqueComplex, "locate", forbidden)
        graph = write(tmp_path, "g.txt", "p 7 9\n1 2\n1 3\n1 4\n2 3\n2 4\n3 4\n4 5\n4 6\n5 6\n")  # K4, a triangle
        runs = [["cliques", "--input", graph, "--max-order", "6"],
                *([name, "--input", graph, "--k", k] for name in DEGREE_K_COMMANDS for k in ("0", "1", "2")),
                ["game", "--input", str(DATA / "road_sharing.json")],
                ["isospectral", graph, str(DATA / "iso_pair_a1.txt"), "--max-k", "3"]]
        for argv in runs:
            assert run(capsys, *argv)[0] == 0, argv

    @pytest.mark.parametrize("count", [3_037_000_500, 2**60, 2**63 - 2, 2**63 - 1])
    @pytest.mark.parametrize("command", ["cliques", "plap"])
    def test_vertex_count_past_clique_keys_exits_one_naming_it(self, capsys, tmp_path, command, count):
        graph = write(tmp_path, "g.txt", f"p {count} 1\n1 2\n")
        extra = ["--f", write(tmp_path, "f.tsv", "1 0\n2 1\n"), "--p", "2"] if command == "plap" else []
        assert main([command, "--input", graph, *extra]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        message = f"vertex count {count} is above 3037000499: clique keys would pass int64"
        assert captured.err == f"graphhodge: error: {message}\n"

    @pytest.mark.parametrize("command", ["cheeger", "cliques", "spectrum --k 0", "plap --p 2"])
    def test_vertex_id_past_int64_exits_one_naming_it(self, capsys, tmp_path, command):
        graph = write(tmp_path, "g.txt", "1 2\n2 100000000000000000000000\n")
        f = write(tmp_path, "f.tsv", "1 0\n2 1\n")
        argv = [*command.split(), "--input", graph] + (["--f", f] if command.startswith("plap") else [])
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err == "graphhodge: error: vertex id 100000000000000000000000 is past int64\n"

    @pytest.mark.parametrize("command", ["cliques", "spectrum --k 0", "betti --k 0", "operator --k 0", "decompose",
                                         "plap --p 2", "cheeger"])
    def test_header_count_past_int64_exits_one_naming_it(self, capsys, tmp_path, command):
        graph = write(tmp_path, "g.txt", "p 100000000000000000000000 1\n1 2\n")
        extra = {"decompose": ["--cochain", write(tmp_path, "x.tsv", "1 2 1\n")],
                 "plap": ["--f", write(tmp_path, "f.tsv", "1 0\n2 1\n")]}.get(command.split()[0], [])
        assert main([*command.split(), "--input", graph, *extra]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "graphhodge: error: line 1: header vertex count 100000000000000000000000 is past int64\n"

    def test_negative_k_keeps_its_message(self, capsys, c4_file):
        for name in DEGREE_K_COMMANDS:
            assert main([name, "--k", "-1", "--input", c4_file]) == 1
            expected = "coboundary degree must be >= 0, got -1" if name == "operator" else \
                "laplacian degree -1 out of range 0..2"
            assert expected in capsys.readouterr().err

    def test_spectrum_and_betti_build_no_laplacian(self, capsys, tmp_path, golden_file, monkeypatch):
        import graphhodge.operators as operators
        import graphhodge.spectral as spectral

        def forbidden(*args, **kwargs):
            raise AssertionError("built a Hodge Laplacian")

        for module in (operators, spectral):
            monkeypatch.setattr(module, "hodge_laplacian", forbidden)
        weights = write(tmp_path, "w.tsv", "1 2 2.5\n3 5 0.5\n3 5 6 4\n")
        for k in (0, 1, 2):
            for name in ("spectrum", "betti"):
                assert run(capsys, name, "--k", str(k), "--input", golden_file)[0] == 0
                assert run(capsys, name, "--k", str(k), "--input", golden_file, "--weights", weights)[0] == 0


class TestNonFinite:
    @pytest.fixture
    def plap_args(self, tmp_path, c4_file):
        f = write(tmp_path, "f.tsv", "1 0\n2 0\n3 3\n4 1\n")  # edge 1-2 is flat
        return ["plap", "--input", c4_file, "--f", f]

    def test_plap_documents_unchanged(self, capsys, plap_args):
        expected = {
            ("--p", "1"): '{"intervals": [[-2, 0], [-2, 0], [2, 2], [0, 0]], "mode": "interval", "p": 1}\n',
            ("--p", "1", "--mode", "selection"): '{"mode": "selection", "p": 1, "values": [-1, -1, 2, 0]}\n',
            ("--p", "3"): '{"p": 3, "values": [-1, -9, 13, -3]}\n',
            ("--p", "3", "--mode", "selection"): '{"p": 3, "values": [-1, -9, 13, -3]}\n',
        }
        for extra, document in expected.items():
            assert run(capsys, *plap_args, *extra) == (0, document)

    @pytest.mark.parametrize("p", ["0.5", "0", "-3", "nan", "-inf"])
    def test_plap_rejects_p_below_one(self, capsys, plap_args, p):
        assert run(capsys, *plap_args, "--p", p) == (1, "")

    def test_overflowing_result_exits_one(self, capsys, plap_args):
        with np.errstate(over="ignore"):
            assert main([*plap_args, "--p", "1000"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "non-finite number" in captured.err

    def test_overflowing_matrix_exits_one(self, capsys, tmp_path):
        # finite weights whose weight-scaled Laplacian overflows: w_12 / w_1 = 1e600
        edge = write(tmp_path, "e.txt", "1 2\n")
        weights = write(tmp_path, "w.tsv", "1 2 1e300\n1 1e-300\n")
        with np.errstate(over="ignore"):
            assert main(["laplacian", "--k", "0", "--input", edge, "--weights", weights]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "non-finite number" in captured.err

    def test_matrix_writer_rejects_non_finite_and_keeps_negative_zero(self, rng):
        from scipy.sparse import coo_matrix, csr_matrix

        from graphhodge import write_matrix

        for x in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="non-finite number"):
                write_matrix(csr_matrix(np.array([[1.0, x]])))
        signed_zero = csr_matrix(([-0.0, 2.5], ([0, 0], [0, 1])), shape=(1, 2))
        assert write_matrix(signed_zero).endswith("1 1 -0\n1 2 2.5\n")
        for shape in ((0, 0), (0, 4), (3, 0), (1, 1), (4, 7), (30, 20)):
            for x in (np.nan, np.inf, -np.inf):
                size = shape[0] * shape[1]
                nnz = int(rng.integers(0, size + 1))
                flat = rng.choice(size, nnz, replace=False)  # distinct coordinates in random order
                rows, cols = np.unravel_index(flat, shape)
                mat = coo_matrix((special_floats(rng, nnz), (rows, cols)), shape=shape)
                assert write_matrix(mat) == loop_write_matrix(mat)
                assert write_matrix(mat.tocsr()) == loop_write_matrix(mat.tocsr())
                if nnz:
                    bad = coo_matrix((with_value_at_random(rng, mat.data, x), (rows, cols)), shape=shape)
                    assert raised_message(lambda: write_matrix(bad)) == raised_message(
                        lambda: loop_write_matrix(bad))

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_inputs_exit_one(self, capsys, tmp_path, c4_file, value):
        cochain = write(tmp_path, "x.tsv", f"1 2 {value}\n")
        assert run(capsys, "decompose", "--input", c4_file, "--cochain", cochain) == (1, "")
        weights = write(tmp_path, "w.tsv", f"1 2 {value}\n")
        assert run(capsys, "laplacian", "--k", "0", "--input", c4_file, "--weights", weights) == (1, "")
        csv = write(tmp_path, "r.csv", f"v1,a,1\nv1,b,{value}\n")
        assert run(capsys, "rank", "--input", csv) == (1, "")
        game = write(tmp_path, "g.json", json.dumps(
            {"strategies": [["a", "b"]], "utilities": [{"a": 1.0, "b": float(value)}]}))
        assert run(capsys, "game", "--input", game) == (1, "")

    @pytest.mark.parametrize("tol", ["-1", "nan", "inf"])
    def test_tolerance_must_be_finite_and_non_negative(self, capsys, tmp_path, tol, monkeypatch):
        import graphhodge.spectral as spectral

        def no_eigensolve(*args):
            pytest.fail("a bad --tolerance must be rejected before any eigensolve")

        monkeypatch.setattr(spectral, "_hodge_spectrum", no_eigensolve)
        graph = write(tmp_path, "g.txt", "1 2\n2 3\n1 3\n3 4\n")
        for name in ("spectrum", "betti"):
            assert main([name, "--k", "0", "--input", graph, "--tolerance", tol]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            message = f"kernel tolerance must be finite and >= 0, got {float(tol)}"
            assert captured.err == f"graphhodge: error: {message}\n"

    def test_tolerance_zero_and_positive_documents_unchanged(self, capsys, tmp_path):
        graph = write(tmp_path, "g.txt", "1 2\n2 3\n1 3\n3 4\n")
        for tol, document in (("0", '{"betti": 1, "k": 0, "tolerance": 0}\n'),
                              ("0.5", '{"betti": 1, "k": 0, "tolerance": 0.5}\n')):
            assert run(capsys, "betti", "--k", "0", "--input", graph, "--tolerance", tol) == (0, document)

    @pytest.mark.parametrize("records", ["v,a,1e308\nv,b,-1e308\n", "v1,a,b,1e308\nv2,a,b,1e308\n"])
    def test_overflowing_comparison_flow_exits_one(self, capsys, tmp_path, records):
        csv = write(tmp_path, "r.csv", records)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no RuntimeWarning on the way
            assert main(["rank", "--input", csv, "--model", "mean"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        message = "the mean comparison of 'a' and 'b' is not finite: its records overflow"
        assert captured.err == f"graphhodge: error: {message}\n"

    K6_EDGES = [(u, v) for u in range(1, 7) for v in range(u + 1, 7)]
    OVERFLOWING_SOLVES = {  # finite inputs whose least-squares solves overflow float64, and their largest |value|
        "triangle": ("decompose", "1 2\n2 3\n1 3\n", "1 2 1e200\n2 3 -1e200\n1 3 3e200\n", [], "3e+200"),
        "k6": ("decompose", "".join(f"{u} {v}\n" for u, v in K6_EDGES),
               "".join(f"{u} {v} {3e153 * (-1) ** i}\n" for i, (u, v) in enumerate(K6_EDGES)), [], "3e+153"),
        "k6_laplacian_residual": ("decompose", "".join(f"{u} {v}\n" for u, v in K6_EDGES),
                                  "".join(f"{u} {v} {3e153 * (-1) ** i}\n" for i, (u, v) in enumerate(K6_EDGES)),
                                  ["--method", "laplacian-residual"], "3e+153"),
        "vertex": ("decompose", "1 2\n2 3\n1 3\n", "1 -1e308\n", [], "1e+308"),
        "rank": ("rank", None, "v,a,b,1e308\nw,a,b,-1e308\nx,b,a,1e308\n", [], "3.33333333333e+307"),
        "game": ("game", None, json.dumps({"strategies": [["a", "b"]], "utilities": [{"a": 1e200, "b": -1e308}]}),
                 [], "1e+308"),
    }

    @pytest.mark.parametrize("case", sorted(OVERFLOWING_SOLVES))
    def test_overflowing_solve_exits_one_naming_the_largest_value(self, capsys, tmp_path, case):
        command, graph, data, extra, peak = self.OVERFLOWING_SOLVES[case]
        if graph is None:
            argv = [command, "--input", write(tmp_path, "data", data)]
        else:
            argv = [command, "--input", write(tmp_path, "g.txt", graph), "--cochain", write(tmp_path, "x.tsv", data)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no RuntimeWarning on the way
            assert main([*argv, *extra]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        message = f"the solves overflow float64 (the cochain's largest |value| is {peak})"
        assert captured.err == f"graphhodge: error: {message}\n"

    OVERFLOWING_WEIGHTED_SOLVES = {  # the same under weight tables: the range of the weights on degrees k-1..k+1
        # is named once one lies outside [1e-77, 1e77], where a ratio of two can square past float64
        "extreme_edges": ("2 4\n3 4\n", "3 4 -0.0609814799682\n", "2 3.9e-101\n4 1.8e248\n2 4 8.0e-196\n3 4 6.7e-84\n",
                          "laplacian-residual", "0.0609814799682; the weights of degrees 0..2 span 8e-196 to 1.8e+248"),
        "extreme_vertices": ("1 2\n2 3\n1 3\n", "1 -1e308\n", "1 1e-80\n2 3 5\n", "two-solve",
                             "1e+308; the weights of degrees 0..1 span 1e-80 to 5"),
        "moderate": ("1 2\n2 3\n1 3\n", "1 2 1e200\n2 3 -1e200\n1 3 3e200\n", "2 1 1e77\n1 2 3 1e-77\n", "two-solve",
                     "3e+200"),
    }

    @pytest.mark.parametrize("case", sorted(OVERFLOWING_WEIGHTED_SOLVES))
    def test_overflowing_weighted_solve_names_the_weight_range(self, capsys, tmp_path, case):
        graph, cochain, weights, method, shown = self.OVERFLOWING_WEIGHTED_SOLVES[case]
        argv = ["decompose", "--input", write(tmp_path, "g.txt", graph), "--cochain", write(tmp_path, "x.tsv", cochain),
                "--weights", write(tmp_path, "w.tsv", weights), "--method", method]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no RuntimeWarning on the way
            assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        message = f"the solves overflow float64 (the cochain's largest |value| is {shown})"
        assert captured.err == f"graphhodge: error: {message}\n"

    @pytest.mark.parametrize("method", ["two-solve", "laplacian-residual"])
    def test_large_cochain_that_fits_still_decomposes(self, capsys, tmp_path, c4_file, method):
        cochain = write(tmp_path, "x.tsv", "1 2 1e150\n2 3 -2e150\n3 4 1e150\n1 4 3e150\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out = run(capsys, "decompose", "--input", c4_file, "--cochain", cochain, "--method", method)
        assert code == 0
        assert json.loads(out)["residuals"]["reconstruction"] <= 1e-12 * json.loads(out)["norms"]["input"]

    def test_long_cochain_key_gives_a_short_message(self, capsys, tmp_path):
        triangle = write(tmp_path, "g.txt", "1 2\n2 3\n1 3\n")
        cochain = write(tmp_path, "x.tsv", " ".join(map(str, range(1, 2001))) + " 1\n")
        assert main(["decompose", "--input", triangle, "--cochain", cochain]) == 1
        err = capsys.readouterr().err
        assert err == "graphhodge: error: (1, 2, 3, 4, ..., 2000) is not a clique of order 2000\n"
        assert len(err.encode()) < 200

    def test_non_finite_residual_still_gives_exit_two_document(self, capsys, tmp_path, c4_file, monkeypatch):
        import graphhodge.decompose as module

        def fake_cg(A, b, callback=None, **kwargs):
            for _ in range(9):
                callback(b)
            return np.full_like(b, np.nan), 9

        monkeypatch.setattr(module, "cg", fake_cg)
        cochain = write(tmp_path, "x.tsv", "1 2 1\n")
        code, out = run(capsys, "decompose", "--input", c4_file, "--cochain", cochain)
        assert code == 2
        doc = json.loads(out)
        assert doc["residual"] is None and doc["iterations"] == 9

    def test_fmt_float_rejects_non_finite(self):
        from graphhodge.textio import fmt_float, id_value_lines, json_dumps

        for x in (float("nan"), float("inf"), -np.inf):
            with pytest.raises(ValueError, match="non-finite"):
                fmt_float(x)
            with pytest.raises(ValueError, match="non-finite"):
                json_dumps({"x": [1.0, x]})
            with pytest.raises(ValueError, match="non-finite"):
                id_value_lines(np.array([[1]]), np.array([x]), sep="\t")
        assert fmt_float(-0.0) == "0" and fmt_float(1e300) == "1e+300"
        rng = np.random.default_rng(20261018)
        for size in (0, 1, 2, 7, 40, 200):
            values = special_floats(rng, size)
            assert json_dumps({"x": values}) == '{"x": ' + loop_json_array(values) + "}"
            if size:
                for x in (np.nan, np.inf, -np.inf):
                    bad = with_value_at_random(rng, values, x)
                    assert raised_message(lambda: json_dumps({"x": bad})) == raised_message(
                        lambda: loop_json_array(bad))


# Labels whose text is easy to get wrong: JSON escapes, a comma (the profile-key
# separator), non-ASCII text, a JSON-legal line separator, and NULs, of which a
# trailing one is what a fixed-width numpy string array would drop.
TRICKY_LABELS = ('q"uote', "back\\slash", "com,ma", "naïve ü", "line\u2028sep", "in\x00side", "trail\x00")


def csv_text(rows) -> str:
    out = io.StringIO()
    csv.writer(out).writerows(rows)
    return out.getvalue()


class TestTableOracles:
    """Column tables against the per-row builders they replaced (conftest oracles), byte for byte."""

    def test_game_document_and_flow_out(self, tmp_path):
        rng = np.random.default_rng(20261018)
        games = [([["trail\x00"]], [{"trail\x00": -0.0}])]  # one profile: every edge table is empty
        labels = np.array(TRICKY_LABELS, dtype=object)  # a <U array would drop the trailing NUL
        for shape in ((3, 2), (2, 2, 3), (4, 3), (2, 2, 2)):
            strategies = [rng.choice(labels, size, replace=False).tolist() for size in shape]
            keys = [",".join(p) for p in product(*strategies)]
            values = [-0.0, 0.0, 1.0, -2.5, 1 / 3]
            games.append((strategies, [{k: float(rng.choice(values)) for k in keys} for _ in shape]))
        negative_zero = False
        for strategies, utilities in games:
            path = write(tmp_path, "g.json", json.dumps({"strategies": strategies, "utilities": utilities}))
            doc, flow = tmp_path / "doc.json", tmp_path / "flow.tsv"
            assert main(["game", "--input", path, "--output", str(doc), "--flow-out", str(flow)]) == 0
            loaded = json.loads(Path(path).read_text())
            form = GameForm.from_tables(loaded["strategies"], loaded["utilities"])
            assert (doc.read_text(), flow.read_text()) == loop_game_outputs(form)
            x = game_flow(form).values
            negative_zero |= bool(np.any(np.signbit(x) & (x == 0)))
        assert negative_zero  # some flow held -0.0, which both formats print as 0

    def test_rank_document_and_plot(self, tmp_path):
        rng = np.random.default_rng(20261019)
        labels = np.array(TRICKY_LABELS, dtype=object)
        ratings = [(f"v{v}", item, int(rng.integers(1, 6)))
                   for v in range(6) for item in rng.choice(labels, 4, replace=False)]
        pairwise = [(f"v{v}", *rng.choice(labels, 2, replace=False), f"{rng.normal():.4g}") for v in range(12)]
        ties = [(v, item, 3) for v in ("v1", "v2") for item in ("trail\x00", "com,ma", "q\"uote")]
        tied = rank(aggregate(ComparisonData.from_csv(csv_text(ties))))
        assert any(np.signbit(x) for x in tied.scores.values())  # -0.0 scores, which the plot prints as 0
        for records in (ratings, pairwise, ties):
            text = csv_text(records)
            path = write(tmp_path, "r.csv", text)
            for model in ("mean", "logodds"):
                doc, plot = tmp_path / "doc.json", tmp_path / "plot.tsv"
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")  # items compared with no other item
                    assert main(["rank", "--input", path, "--model", model, "--output", str(doc),
                                 "--plot", str(plot)]) == 0
                    expected = loop_rank_outputs(text, model)
                assert (doc.read_text(), plot.read_text()) == expected

    def test_spectrum_plot(self, capsys, tmp_path, golden_file):
        plot = tmp_path / "plot.tsv"
        for k in ("0", "1", "2"):
            code, out = run(capsys, "spectrum", "--k", k, "--input", golden_file, "--plot", str(plot))
            assert code == 0
            eigenvalues = json.loads(out)["eigenvalues"]
            assert plot.read_text() == tsv_lines((i + 1, v) for i, v in enumerate(eigenvalues))

    def test_labels_quoted_once_match_each_cell_quoted(self):
        from graphhodge.textio import _table_cells

        rng = np.random.default_rng(20261021)
        for size in (0, 1, 5, 60):
            for width in (1, 2):
                names = np.array(TRICKY_LABELS, dtype=object)[rng.integers(len(TRICKY_LABELS), size=(size, width))]
                x = special_floats(rng, size)
                assert _table_cells(names, [x], quote=True)[:width] == quote_each_cell(names)

    def test_json_rows_match_row_by_row_encoding(self):
        from graphhodge.textio import _Rows, json_dumps

        rng = np.random.default_rng(20261020)
        for size in (0, 1, 2, 7, 40):
            names = np.array(TRICKY_LABELS, dtype=object)[rng.integers(len(TRICKY_LABELS), size=(size, 2))]
            x, w = special_floats(rng, size), special_floats(rng, size)
            lists = _Rows(names, (x,))
            objects = _Rows(names, (w, x), ("item_i", "item_j", "weight", "x"))
            rows = [[a, b, float(v)] for a, b, v in zip(names[:, 0], names[:, 1], x)]
            dicts = [{"item_i": a, "item_j": b, "x": float(v), "weight": float(u)}
                     for a, b, u, v in zip(names[:, 0], names[:, 1], w, x)]
            assert json_dumps({"t": lists}) == json_dumps({"t": rows})
            assert json_dumps({"t": objects}) == json_dumps({"t": dicts})
            if size:
                # the first non-finite value in document order is named: row by row, weight before x
                for value in (np.nan, np.inf, -np.inf):
                    bad_w, bad_x = with_value_at_random(rng, w, value), with_value_at_random(rng, x, -value)
                    objects = _Rows(names, (bad_w, bad_x), ("item_i", "item_j", "weight", "x"))
                    dicts = [{"item_i": a, "item_j": b, "x": float(v), "weight": float(u)}
                             for a, b, u, v in zip(names[:, 0], names[:, 1], bad_w, bad_x)]
                    assert raised_message(lambda: json_dumps(objects)) == raised_message(lambda: json_dumps(dicts))


class TestOutputErrors:
    @pytest.mark.parametrize("option", ["--output", "--plot", "--flow-out"])
    def test_unwritable_output_path_exits_one(self, capsys, tmp_path, c4_file, option):
        target = str(tmp_path / "missing" / "out.txt")
        if option == "--flow-out":
            argv = ["game", "--input", str(DATA / "road_sharing.json"), option, target]
        else:
            argv = ["spectrum", "--k", "0", "--input", c4_file, option, target]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"graphhodge: error: cannot write {target}: ")
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("existing", [False, True])
    @pytest.mark.parametrize("unwritable", ["missing", "directory"])
    @pytest.mark.parametrize("bad", ["output", "side"])
    @pytest.mark.parametrize("argv, side", [
        (["spectrum", "--k", "0", "--input", str(DATA / "c4.txt")], "--plot"),
        (["decompose", "--input", str(DATA / "c4.txt"), "--cochain", str(DATA / "c4_cyclic_flow.tsv")], "--plot"),
        (["rank", "--input", str(DATA / "ratings_small.csv")], "--plot"),
        (["game", "--input", str(DATA / "road_sharing.json")], "--flow-out"),
    ])
    def test_outputs_are_written_all_or_none(self, capsys, tmp_path, argv, side, bad, unwritable, existing):
        (tmp_path / "directory").mkdir()
        bad_path = tmp_path / unwritable / "out.txt" if unwritable == "missing" else tmp_path / unwritable
        good_path = tmp_path / "good.txt"
        if existing:
            good_path.write_text("kept\n")
        before = sorted(tmp_path.rglob("*"))
        output, side_path = (bad_path, good_path) if bad == "output" else (good_path, bad_path)
        assert main([*argv, "--output", str(output), side, str(side_path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"graphhodge: error: cannot write {bad_path}: ")
        assert sorted(tmp_path.rglob("*")) == before
        if existing:
            assert good_path.read_text() == "kept\n"

    def test_unwritable_output_for_a_numerical_failure_exits_one(self, capsys, tmp_path, c4_file, monkeypatch):
        import graphhodge.decompose as decompose
        from graphhodge import ConvergenceError

        def no_convergence(*args, **kwargs):
            raise ConvergenceError("CG did not converge", 0.5, 9)

        monkeypatch.setattr(decompose, "hodge_decompose", no_convergence)
        cochain = write(tmp_path, "x.tsv", "1 2 1\n")
        target = str(tmp_path / "missing" / "out.json")
        assert main(["decompose", "--input", c4_file, "--cochain", cochain, "--output", target]) == 1
        assert capsys.readouterr().err.startswith(f"graphhodge: error: cannot write {target}: ")


class TestCommandsReturnDocuments:
    """Each command returns its main document and its side tables and writes nothing; main formats and writes them."""

    @pytest.mark.parametrize("argv, side", [
        (["cliques", "--input", "c4.txt", "--max-order", "4"], None),
        (["operator", "--input", "c3.txt", "--k", "1"], None),
        (["laplacian", "--input", "c3.txt", "--k", "0"], None),
        (["spectrum", "--input", "c4.txt", "--k", "1"], "--plot"),
        (["betti", "--input", "c4.txt", "--k", "1"], None),
        (["decompose", "--input", "c4.txt", "--cochain", "c4_cyclic_flow.tsv"], "--plot"),
        (["rank", "--input", "ratings_small.csv"], "--plot"),
        (["game", "--input", "road_sharing.json"], "--flow-out"),
        (["cheeger", "--input", "c4.txt"], None),
        (["plap", "--input", "c4.txt", "--f", "F", "--p", "3"], None),
        (["isospectral", "iso_pair_a1.txt", "iso_pair_a2.txt"], None),
    ], ids=lambda case: case[0] if isinstance(case, list) else None)
    def test_command_returns_its_documents_and_writes_nothing(self, capsys, tmp_path, argv, side):
        from graphhodge.cli import build_parser
        from graphhodge.textio import json_dumps

        f = write(tmp_path, "f.tsv", "1 0\n2 1\n3 0\n4 2\n")
        argv = [f if a == "F" else str(DATA / a) if (DATA / a).is_file() else a for a in argv]
        out = tmp_path / "out"
        out.mkdir()
        argv += ["--output", str(out / "main")] + ([side, str(out / "side")] if side else [])
        args = build_parser().parse_args(argv)
        doc, tables = args.func(args)
        assert list(out.iterdir()) == [] and capsys.readouterr() == ("", "")
        assert isinstance(doc, str if argv[0] in ("operator", "laplacian") else dict)
        assert set(tables) == ({side[2:].replace("-", "_")} if side else set())
        if side:
            ids, columns = tables[side[2:].replace("-", "_")]
            assert all(len(column) == len(ids) and column.dtype.kind == "f" for column in columns)
        assert main(argv) == 0 and capsys.readouterr() == ("", "")
        assert (out / "main").read_text() == (doc if isinstance(doc, str) else json_dumps(doc) + "\n")
        if side:
            assert (out / "side").read_text().count("\n") == len(ids)


class TestMalformedGame:
    @pytest.mark.parametrize("doc, field", [
        (5, "'strategies' and 'utilities'"),
        (None, "'strategies' and 'utilities'"),
        ("x", "'strategies' and 'utilities'"),
        ({"strategies": [["a", "b"]], "utilities": [["a", "b"]]}, "utility table 0"),
        ({"strategies": [["a", "b"]], "utilities": [5]}, "utility table 0"),
        ({"strategies": [["a", "b"]], "utilities": 5}, "'utilities'"),
        ({"strategies": [["a", "b"]], "utilities": [{"a": None, "b": 1}]}, "utility table 0"),
        ({"strategies": [["a", "b"]], "utilities": [{"a": [1], "b": 1}]}, "utility table 0"),
        ({"strategies": [1, 2], "utilities": [{}, {}]}, "'strategies'"),
        ({"strategies": [["a"]], "utilities": [{"a": 10**400}]}, "utility table 0"),  # overflows a float
        ({"strategies": "ab", "utilities": [{"a,b": 1}, {"a,b": 2}]}, "'strategies'"),  # one player per character
        ({"strategies": ["ab", ["x"]], "utilities": [{"a,x": 1, "b,x": 2}] * 2}, "'strategies'"),
        ({"strategies": [["a", "b"]], "utilities": [{"a": True, "b": "2"}]}, "utility table 0"),  # true is no 1
    ])
    def test_malformed_shape_exits_one_naming_the_field(self, capsys, tmp_path, doc, field):
        game = write(tmp_path, "g.json", json.dumps(doc))
        assert main(["game", "--input", game]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("graphhodge: error: ") and captured.err.count("\n") == 1
        assert field in captured.err


STARTUP_PROBE = """
import json, sys
from graphhodge.cli import main
seen = {"import": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}
for argv in json.loads(sys.argv[1]):
    assert main(argv) == 0, argv
    seen[argv[0]] = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
print(json.dumps(seen))
"""


class TestStartup:
    """Which scipy modules a fresh interpreter holds after importing graphhodge and running commands."""

    @staticmethod
    def probe(tmp_path, runs) -> dict:
        runs = [[*argv, "--output", str(tmp_path / f"{argv[0]}.out")] for argv in runs]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(DATA.parent / "src"), env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", STARTUP_PROBE, json.dumps(runs)], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout)

    def test_import_and_edge_commands_load_no_scipy(self, tmp_path):
        c4 = str(DATA / "c4.txt")
        f = write(tmp_path, "f.tsv", "1 0\n2 1\n3 0\n4 2\n")
        seen = self.probe(tmp_path, [["cliques", "--input", c4], ["cheeger", "--input", c4],
                                     ["plap", "--input", c4, "--f", f, "--p", "1"],
                                     ["plap", "--input", c4, "--f", f, "--p", "3"]])
        assert seen == {"import": [], "cliques": [], "cheeger": [], "plap": []}

    def test_spectral_and_operator_commands_load_no_scipy(self, tmp_path):
        # K_5 less one edge, with two 4-cliques: every Gram of d_0..d_2 has off-diagonal entries
        graph = write(tmp_path, "g.txt", "".join(f"{u} {v}\n" for u in range(1, 6) for v in range(u + 1, 6)
                                                 if (u, v) != (4, 5)))
        weights = write(tmp_path, "w.tsv", "1 2 2.5\n3 0.5\n1 2 3 4\n1 2 3 4 0.25\n")
        runs = [["operator", "--input", graph, "--k", str(k)] for k in range(3)]
        for name, k in product(("spectrum", "betti"), range(3)):
            runs += [[name, "--input", graph, "--k", str(k), *extra] for extra in ([], ["--weights", weights])]
        runs.append(["isospectral", str(DATA / "iso_pair_a1.txt"), str(DATA / "iso_pair_a2.txt"), "--max-k", "3"])
        seen = self.probe(tmp_path, runs)  # sys.modules only grows, so each entry covers every run before it too
        assert seen == {"import": [], "operator": [], "spectrum": [], "betti": [], "isospectral": []}

    def test_rank_on_a_dense_comparison_graph_loads_no_scipy(self, tmp_path):
        # 3 items and their triangle: 64 c_3 >= n^3, so the coexact solve takes the n x n product, and the
        # potential's d_0 is the edge array's
        seen = self.probe(tmp_path, [["rank", "--input", str(DATA / "ratings_small.csv")]])
        assert seen["rank"] == []

    def test_game_loads_no_scipy(self, tmp_path):
        seen = self.probe(tmp_path, [["game", "--input", str(DATA / "road_sharing.json")]])
        assert seen["game"] == []

    def test_game_with_a_round_off_curl_loads_no_scipy(self, tmp_path):
        # 27 profiles, 81 edges, 27 triangles: a sparse triangle level, and Gaussian utilities whose flow has a curl
        # of round-off size, so the coexact right-hand side is round-off too and CG takes no step
        rng = np.random.default_rng(0)
        strategies = [["a", "b", "c"], ["p", "q", "r"], ["x", "y", "z"]]
        utilities = [{",".join(p): float(rng.normal()) for p in product(*strategies)} for _ in strategies]
        form = GameForm.from_tables(strategies, utilities)
        flow = game_flow(form)
        assert flow.complex.n_cliques(3) == 27
        assert np.any(coboundary(flow.complex, 1).matrix @ flow.values)
        game = write(tmp_path, "g.json", json.dumps({"strategies": strategies, "utilities": utilities}))
        seen = self.probe(tmp_path, [["game", "--input", game]])
        assert seen["game"] == []

    def test_two_solve_decompose_of_a_vertex_function_loads_no_scipy(self, tmp_path):
        f = write(tmp_path, "f.tsv", "1 0.5\n2 -1\n3 2\n4 0.25\n")
        seen = self.probe(tmp_path, [["decompose", "--input", str(DATA / "c4.txt"), "--cochain", f]])
        assert seen["decompose"] == []

    def test_no_command_loads_the_sparse_solvers(self, tmp_path):
        c4 = str(DATA / "c4.txt")
        runs = [["decompose", "--input", c4, "--cochain", str(DATA / "c4_cyclic_flow.tsv")],
                ["decompose", "--input", c4, "--cochain", str(DATA / "c4_cyclic_flow.tsv"),
                 "--method", "laplacian-residual"],
                ["rank", "--input", str(DATA / "ratings_small.csv")],
                ["game", "--input", str(DATA / "road_sharing.json")],
                ["spectrum", "--input", c4, "--k", "1"]]
        seen = self.probe(tmp_path, runs)
        assert "scipy.sparse" in seen["decompose"]  # the probe sees what the solves load
        assert not any("scipy.sparse.linalg" in modules for modules in seen.values())


LAYER_PROBE = """
import json, sys
code, argv = json.loads(sys.argv[1])
exec(code)
if argv:
    from graphhodge.cli import main
    assert main(argv) == 0, argv
print(json.dumps({"layers": sorted(m for m in sys.modules if m.startswith("graphhodge.")),
                  "numpy": "numpy" in sys.modules}))
"""

PUBLIC_NAMES = {
    "Certificate", "CheegerReport", "CliqueComplex", "CoboundaryOperator", "Cochain", "ComparisonData",
    "ComparisonFlow", "ConvergenceError", "Cut", "GameFlowSplit", "GameForm", "Graph", "HodgeLaplacian", "HodgeSplit",
    "InputFormatError", "OperatorPairReport", "RankingResult", "Spectrum", "StrategyGraph", "WeightScheme", "adjoint",
    "aggregate", "apply_operator", "apply_p_laplacian", "betti", "borda_divergence", "cheeger_check",
    "cheeger_constant", "coboundary", "compare_fingerprints", "decompose_game_flow", "divergence_matrix",
    "enumerate_cliques", "game_flow", "harmonic_basis", "harmonic_project", "hodge_decompose", "hodge_laplacian",
    "inner_product", "is_harmonic_game", "is_potential_game", "isospectral_fingerprint", "norm", "parse_graph",
    "pure_nash", "rank", "read_cochain_tsv", "read_matrix", "read_weights_tsv", "spectrum", "strategy_graph",
    "verify_operator_pair", "write_cochain_tsv", "write_matrix",
}


class TestLazyLayers:
    """Which graphhodge layer modules a fresh interpreter holds after importing the package, using one name, or
    running one command."""

    @staticmethod
    def probe(tmp_path, code: str, argv=()) -> dict:
        argv = [*argv, "--output", str(tmp_path / "out")] if argv else []
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(DATA.parent / "src"), env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", LAYER_PROBE, json.dumps([code, argv])], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout)

    def test_import_loads_no_layer_module_and_no_numpy(self, tmp_path):
        assert self.probe(tmp_path, "import graphhodge") == {"layers": [], "numpy": False}

    def test_parse_graph_loads_only_complexes(self, tmp_path):
        seen = self.probe(tmp_path, "import graphhodge; graphhodge.parse_graph('1 2\\n')")
        assert seen["layers"] == ["graphhodge.complexes"]

    def test_layer_module_resolves_after_a_bare_import(self, tmp_path):
        seen = self.probe(tmp_path, "import graphhodge; assert graphhodge.spectral.__name__ == 'graphhodge.spectral'")
        assert "graphhodge.spectral" in seen["layers"]

    @pytest.mark.parametrize("case", [
        (["cheeger", "--input", "c4.txt"], "nonlinear", ("games", "hodgerank")),
        (["plap", "--input", "c4.txt", "--f", "F", "--p", "3"], "nonlinear", ("games", "hodgerank")),
        (["spectrum", "--input", "c4.txt", "--k", "1"], "spectral", ("games", "hodgerank", "nonlinear")),
        (["decompose", "--input", "c4.txt", "--cochain", "c4_cyclic_flow.tsv"], "decompose",
         ("games", "hodgerank", "nonlinear")),
        (["isospectral", "iso_pair_a1.txt", "iso_pair_a2.txt"], "spectral", ("games", "hodgerank", "nonlinear")),
        (["rank", "--input", "ratings_small.csv"], "hodgerank", ("games", "nonlinear")),
        (["game", "--input", "road_sharing.json"], "games", ("hodgerank", "nonlinear")),
    ], ids=lambda case: case[0][0])
    def test_command_loads_only_the_layers_it_uses(self, tmp_path, case):
        argv, used, unused = case
        f = write(tmp_path, "f.tsv", "1 0\n2 1\n3 0\n4 2\n")
        argv = [f if a == "F" else str(DATA / a) if (DATA / a).is_file() else a for a in argv]
        layers = self.probe(tmp_path, "", argv)["layers"]
        assert f"graphhodge.{used}" in layers  # the probe sees what the command loads
        assert not {f"graphhodge.{name}" for name in unused} & set(layers), layers

    def test_rank_plot_loads_no_spectral(self, tmp_path):
        argv = ["rank", "--input", str(DATA / "ratings_small.csv"), "--plot", str(tmp_path / "plot.tsv")]
        layers = self.probe(tmp_path, "", argv)["layers"]
        assert "graphhodge.hodgerank" in layers and (tmp_path / "plot.tsv").read_text()
        assert "graphhodge.spectral" not in layers, layers

    @pytest.mark.parametrize("argv", [
        ["cliques", "--input", "c4.txt", "--max-order", "4"],
        ["cheeger", "--input", "c4.txt"],
        ["plap", "--input", "c4.txt", "--f", "F", "--p", "1"],
    ], ids=lambda argv: argv[0])
    def test_graph_commands_load_no_operator_layers(self, tmp_path, argv):
        f = write(tmp_path, "f.tsv", "1 0\n2 1\n3 0\n4 2\n")
        argv = [f if a == "F" else str(DATA / a) if (DATA / a).is_file() else a for a in argv]
        layers = self.probe(tmp_path, "", argv)["layers"]
        assert "graphhodge.complexes" in layers  # the probe sees what the command loads
        assert not {"graphhodge.decompose", "graphhodge.operators", "graphhodge.spectral"} & set(layers), layers


class TestNamespace:
    """The package's public names, each the defining module's object, resolved on use."""

    def test_public_names(self):
        import graphhodge

        assert set(graphhodge.__all__) == PUBLIC_NAMES
        assert len(graphhodge.__all__) == 54
        assert PUBLIC_NAMES <= set(dir(graphhodge))

    def test_each_name_is_the_defining_modules_object(self):
        import graphhodge

        for name in PUBLIC_NAMES:
            obj = getattr(graphhodge, name)
            assert obj.__module__.startswith("graphhodge."), name
            assert obj is getattr(sys.modules[obj.__module__], name), name

    def test_star_import_binds_every_name(self):
        namespace = {}
        exec("from graphhodge import *", namespace)
        assert set(namespace) - {"__builtins__"} == PUBLIC_NAMES

    def test_unknown_name_raises_attribute_error_naming_it(self):
        import graphhodge

        with pytest.raises(AttributeError, match="no_such_name"):
            graphhodge.no_such_name
        assert not hasattr(graphhodge, "no_such_name")

    def test_a_replacement_on_the_defining_module_is_seen_through_the_package(self, monkeypatch):
        import graphhodge
        from graphhodge import operators

        original = operators.coboundary
        monkeypatch.setattr(operators, "coboundary", "replaced")
        assert graphhodge.coboundary == "replaced"
        monkeypatch.undo()
        assert graphhodge.coboundary is original
