import json
from pathlib import Path

import numpy as np
import pytest

from graphhodge.cli import emit_plot_data, main
from graphhodge import read_matrix

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
    def test_unsupported_object(self):
        with pytest.raises(TypeError):
            emit_plot_data(42)

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

    def test_negative_k_keeps_its_message(self, capsys, c4_file):
        for name in DEGREE_K_COMMANDS:
            assert main([name, "--k", "-1", "--input", c4_file]) == 1
            expected = "coboundary degree must be >= 0, got -1" if name == "operator" else \
                "laplacian degree -1 out of range 0..2"
            assert expected in capsys.readouterr().err

    def test_spectrum_and_betti_build_no_laplacian(self, capsys, tmp_path, golden_file, monkeypatch):
        import graphhodge.cli as cli
        import graphhodge.operators as operators
        import graphhodge.spectral as spectral

        def forbidden(*args, **kwargs):
            raise AssertionError("built a Hodge Laplacian")

        for module in (cli, operators, spectral):
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

    def test_matrix_writer_rejects_non_finite_and_keeps_negative_zero(self):
        from scipy.sparse import csr_matrix

        from graphhodge import write_matrix

        for x in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="non-finite number"):
                write_matrix(csr_matrix(np.array([[1.0, x]])))
        signed_zero = csr_matrix(([-0.0, 2.5], ([0, 0], [0, 1])), shape=(1, 2))
        assert write_matrix(signed_zero).endswith("1 1 -0\n1 2 2.5\n")

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
        from graphhodge.textio import fmt_float, json_dumps, tsv_lines

        for x in (float("nan"), float("inf"), -np.inf):
            with pytest.raises(ValueError, match="non-finite"):
                fmt_float(x)
            with pytest.raises(ValueError, match="non-finite"):
                json_dumps({"x": [1.0, x]})
            with pytest.raises(ValueError, match="non-finite"):
                tsv_lines([(1, x)])
        assert fmt_float(-0.0) == "0" and fmt_float(1e300) == "1e+300"
