"""Random edge lists, cochain and weight TSVs, comparison CSVs and game JSON through cli.main in process.

Every run exits 0, or 1 with a line on stderr that starts "graphhodge: error:"; none raises, and none
lets numpy warn (a RuntimeWarning). Vertex ids stay small (or are invalid), so no run builds a large dense
Gram. Weights are drawn from [0.1, 10]: where they span many orders of magnitude, the prepotential solve can
fail to converge, which is exit 2, a numerical failure with its diagnostic, not an input error.
"""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
import warnings
from itertools import product
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from graphhodge.cli import main

BAD_IDS = ("0", "-1", "1.5", "x", str(10**20), str(2**63))
IDS = st.one_of(st.integers(1, 7).map(str), st.integers(1, 7).map(str), st.sampled_from(BAD_IDS))
NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(-10, 10).map(repr),
    st.sampled_from(["nan", "inf", "-inf", "-0", "1e308", "-1e308", "1e-320", "abc", ""]),
)
WEIGHTS = st.one_of(st.floats(0.1, 10).map(repr), st.sampled_from(["0", "-1", "nan", "inf", "w"]))
NOISE = st.sampled_from(["# a comment", "", "7", "1 2 3 4 5 6 7 8 9"])


def lines(line) -> st.SearchStrategy[str]:
    return st.lists(st.one_of(line, line, NOISE), max_size=12).map(lambda ls: "".join(s + "\n" for s in ls))


def clique_line(values) -> st.SearchStrategy[str]:
    return st.tuples(st.lists(IDS, min_size=1, max_size=4), values).map(lambda t: " ".join([*t[0], t[1]]))


EDGE_LISTS = st.tuples(
    st.one_of(st.just(""), st.tuples(st.integers(0, 9), st.integers(0, 30)).map(lambda t: f"p {t[0]} {t[1]}\n")),
    lines(st.lists(IDS, min_size=1, max_size=3).map(" ".join)),
).map("".join)
COCHAINS = lines(clique_line(NUMBERS))
WEIGHT_TABLES = lines(clique_line(WEIGHTS))
LABELS = st.sampled_from(["a", "b", "c", "d", "", "voter", 'q"uote', "a,b"])
CSVS = st.tuples(
    st.sampled_from(["", "voter,item,score\n"]),
    lines(st.lists(st.one_of(LABELS, NUMBERS), min_size=2, max_size=5).map(",".join)),
).map("".join)
JSON = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-3, 3), st.floats(allow_nan=False), LABELS),
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.dictionaries(LABELS, inner, max_size=4)),
    max_leaves=12,
)


@st.composite
def games(draw) -> str:
    """Either any JSON document or a game-shaped one, whose utility tables may miss or add profiles."""
    if draw(st.booleans()):
        return json.dumps(draw(JSON))
    strategies = draw(st.lists(st.lists(st.sampled_from("abc"), min_size=1, max_size=3, unique=True),
                               min_size=1, max_size=3))
    profiles = [",".join(p) for p in product(*strategies)] + draw(st.lists(LABELS, max_size=2))
    utility = st.one_of(st.floats(-10, 10), st.floats(allow_nan=False, allow_infinity=False), JSON)
    tables = [draw(st.dictionaries(st.sampled_from(profiles), utility, max_size=len(profiles)))
              if draw(st.booleans()) else {p: draw(st.floats(-10, 10)) for p in profiles}
              for _ in strategies]
    return json.dumps({"strategies": strategies, "utilities": tables})


def run_cli(argv) -> None:
    """One run, in process: exit 0, or 1 naming its error on stderr; any exception or RuntimeWarning fails."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("ignore")  # hodgerank's own UserWarning on an excluded item is not numpy's
        warnings.simplefilter("error", RuntimeWarning)
        code = main([str(a) for a in argv])
    assert code in (0, 1), (argv, code, err.getvalue())
    if code == 1:
        assert any(line.startswith("graphhodge: error:") for line in err.getvalue().splitlines()), argv


@contextlib.contextmanager
def written(**texts):
    """Paths of the given texts, written to a new directory, and of "out" there; removed on exit."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = {name: Path(tmp) / name for name in (*texts, "out")}
        for name, text in texts.items():
            paths[name].write_text(text)
        yield paths


FUZZ = settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])


@given(EDGE_LISTS, COCHAINS, WEIGHT_TABLES, st.integers(0, 2), st.sampled_from(["two-solve", "laplacian-residual"]))
@FUZZ
def test_graph_cochain_and_weight_files(graph, cochain, weights, k, method):
    with written(g=graph, x=cochain, w=weights) as p:
        g, x, w, out = p["g"], p["x"], p["w"], p["out"]
        run_cli(["cliques", "--input", g, "--output", out])
        run_cli(["operator", "--input", g, "--k", k, "--output", out])
        for command in ("laplacian", "spectrum", "betti"):
            run_cli([command, "--input", g, "--k", k, "--weights", w, "--output", out])
        run_cli(["decompose", "--input", g, "--cochain", x, "--method", method, "--output", out])
        run_cli(["decompose", "--input", g, "--cochain", x, "--method", method, "--weights", w, "--output", out])
        run_cli(["plap", "--input", g, "--f", x, "--p", "1.5", "--output", out])
        run_cli(["cheeger", "--input", g, "--output", out])


@given(CSVS, st.sampled_from(["mean", "logodds"]))
@FUZZ
def test_comparison_csv(text, model):
    with written(c=text) as p:
        run_cli(["rank", "--input", p["c"], "--model", model, "--output", p["out"]])


@given(games())
@FUZZ
def test_game_json(text):
    with written(j=text) as p:
        run_cli(["game", "--input", p["j"], "--output", p["out"]])
