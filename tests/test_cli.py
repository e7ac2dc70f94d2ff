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

    def test_numerical_failure_exits_two_with_diagnostic(
        self, capsys, tmp_path, c4_file, monkeypatch
    ):
        import graphhodge.decompose as module

        monkeypatch.setattr(
            module, "lsqr", lambda A, b, **kw: (np.zeros(A.shape[1]), 7, 9, 0.5)
        )
        cochain = write(tmp_path, "x.tsv", "1 2 1\n")
        code, out = run(capsys, "decompose", "--input", c4_file, "--cochain", cochain)
        assert code == 2
        doc = json.loads(out)
        assert doc["residual"] == 0.5
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
