"""The array readers of edge lists, cochain tables and weight tables against the line-by-line loops they replaced
(conftest oracles): the same Graph, Cochain or WeightScheme, or the same exception type and message."""

from __future__ import annotations

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphhodge import Cochain, Graph, WeightScheme, enumerate_cliques, parse_graph, read_cochain_tsv, read_weights_tsv
from graphhodge.complexes import InputFormatError

from conftest import loop_parse_graph, loop_read_cochain_tsv, loop_read_weights_tsv, outcome
from test_cli_fuzz import COCHAINS, EDGE_LISTS, WEIGHT_TABLES

K7 = enumerate_cliques(Graph.from_edges(7, combinations(range(1, 8), 2)), 4)
READERS = settings(max_examples=300, deadline=None)
BIG = 2**63


def respelled(texts: st.SearchStrategy[str]) -> st.SearchStrategy[str]:
    """The documents with their line ends as \\n, \\r\\n or \\r, and their spaces as spaces, tabs or both."""
    return st.tuples(texts, st.sampled_from(["\n", "\r\n", "\r"]), st.sampled_from([" ", "\t", " \t "])).map(
        lambda t: t[0].replace(" ", t[2]).replace("\n", t[1]))


def nbsp_respelled(texts: st.SearchStrategy[str]) -> st.SearchStrategy[str]:
    """respelled, with no-break spaces (U+00A0), whitespace to str.split but not ASCII, among the spaces too."""
    return st.tuples(texts, st.sampled_from(["\n", "\r\n", "\r"]),
                     st.sampled_from([" ", "\t", "\xa0", " \xa0\t"])).map(
        lambda t: t[0].replace(" ", t[2]).replace("\n", t[1]))


def assert_same(got, want) -> None:
    """Two outcomes agree: the same exception type and message, or equal results, arrays bit for bit."""
    assert got[0] == want[0], (got, want)
    if got[0] == "raise":
        assert got == want
        return
    got, want = got[1], want[1]
    assert type(got) is type(want)
    if isinstance(got, Graph):
        assert got == want
    elif isinstance(got, Cochain):
        assert (got.degree, got.complex) == (want.degree, want.complex)
        assert got.values.tobytes() == want.values.tobytes()  # signed zeros too
    else:
        assert got.tables.keys() == want.tables.keys()
        for order, (cliques, weights) in got.tables.items():
            assert np.array_equal(cliques, want.tables[order][0]) and cliques.dtype == np.int64
            assert weights.tobytes() == want.tables[order][1].tobytes()


def assert_graph_matches(text: str) -> None:
    assert_same(outcome(parse_graph, text), outcome(loop_parse_graph, text))


def assert_cochain_matches(text: str, degree=None) -> None:
    assert_same(outcome(read_cochain_tsv, text, K7, degree), outcome(loop_read_cochain_tsv, text, K7, degree))


def assert_weights_match(text: str) -> None:
    assert_same(outcome(read_weights_tsv, text), outcome(loop_read_weights_tsv, text))


@given(respelled(EDGE_LISTS))
@READERS
def test_edge_lists_match_the_loop(text):
    assert_graph_matches(text)


@given(respelled(COCHAINS), st.sampled_from([None, 0, 1, 2]))
@READERS
def test_cochain_tables_match_the_loop(text, degree):
    assert_cochain_matches(text, degree)


@given(respelled(WEIGHT_TABLES))
@READERS
def test_weight_tables_match_the_loop(text):
    assert_weights_match(text)


@given(nbsp_respelled(EDGE_LISTS), nbsp_respelled(COCHAINS), nbsp_respelled(WEIGHT_TABLES), st.sampled_from([None, 1]))
@READERS
def test_documents_spaced_by_no_break_spaces_match_the_loop(edges, cochain, weights, degree):
    assert_graph_matches(edges)
    assert_cochain_matches(cochain, degree)
    assert_weights_match(weights)


@pytest.mark.parametrize("text", [
    "p 5 2\r\n1\t2\r\n2 3\r\n",  # CRLF and tabs
    "1 2 # an edge\n2#3\n",  # a comment inside a line, then a line it leaves one token
    "1 2  # an edge\n# a comment\n\n2 3#\n",
    "1 2\np 7 1\n",  # a header after the edges
    "p 3 1\n1 2\np 6 1\n",  # two headers: the last counts
    "p 3 1\n1 2\np 2 1\n",  # a last header below the largest id
    "p 5\n1 2\n", "p 5 1 2\n", "p\n", "p x 1\n", "p 5 y\n", "p 0 1\n", "p -3 1\n", f"p {BIG} 1\n",
    f"p {BIG - 1} 1\n", f"p 5 {BIG}\n1 2\n",
    "+5 1_000\n", "٣ ٧\n", "1 ٣\n+1 2\n",  # int()'s rules: a sign, underscores, Unicode digits
    "1.0 2\n", "0x10 2\n", "1e3 2\n",
    f"1 {BIG - 1}\n", f"1 {BIG}\n", f"{BIG} {BIG + 1}\n", f"1 2\n3 {10**30}\n", f"-{BIG + 1} 2\n",
    f"{BIG} {BIG}\n", f"1 {BIG}\n2 2\n",  # a self-loop after an id past int64: the line wins
    "1 2\n3 3\n0 1\nx y\n1 2 3\n",  # several errors: the first line wins
    "1 2 3\n3 3\n", "0 1\n3 3\n", "x y\n0 1\n", "p 5\n3 3\n", "3 3\np 5\n", "1 2\n2 3\np 0 1\n1\n",
    "", "\n\n", "# only a comment\n", "p 4 0\n", "1 2\n1 2\n2 1\n",
])
def test_edge_list_cases(text):
    assert_graph_matches(text)


# where numpy's C reader and the line tokenizer could part: other whitespace and line breaks, NUL, blank lines
SEPARATORS = ["\xa0", "\u2003", "\u3000", "\x1f"]
LINE_BREAKS = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@pytest.mark.parametrize("text", [
    *(f"p 5 2{sep}\n1{sep}2\n{sep}2 3{sep}\n" for sep in SEPARATORS),
    *(f"p 5 2{brk}1 2{brk}2 3\n" for brk in LINE_BREAKS), *(f"1 2{brk}{brk}3 4{brk}" for brk in LINE_BREAKS),
    "1\x002\n", "1 2\x00\n", "1 2\n\x00\n", "\x00",
    "p 5 2\n \t \n1 2\n\t\n2 3\n  \n", "1 2\n\xa0\n\u3000 \n2 3\n",  # whitespace-only lines
    "p 5 2 # p\n1 2\n", "1 2 # a p in a comment\n2 3\n", "# a comment\np 5 2\n1 2\n",  # a p besides the header's
    "p 6 0\n", "p 6 0\n# no edges\n", "1 2\n", "p 2 1\n1 2\n",  # a header with no edges; one data line
    "1.0 2\n", "1 2\n2 3.5\n", "p 5.0 1\n1 2\n", "p 5 1\n1e0 2\n",  # a float token in an id column
    "p 5 2 7\n1 2\n", "p 5\n1 2\n", "p 0 0\n1 2\n", f"p {BIG} 1\n1 2\n", "p 1_000 2\n1 2\n", "p +5 1\n1 2\n",
    "1 2 3\n4 5 6\n", "-1 2\n", "1 -2\n", "0 2\n", "2 2\n", "+1 +2\n", "007 08\n",
])
def test_edge_list_cases_at_the_c_readers_boundary(text):
    assert_graph_matches(text)


@pytest.mark.parametrize("text, degree", [
    ("1 2 0.5\r\n2\t3 -1\r\n", None),
    ("1 2 0.5 # a comment\n1 3#4 5\n", None),
    ("1 2 0.5\n2 1 0.5\n", None),  # a pair given twice in opposite order
    ("1 2 3 1\n3 1 2 1\n", None), ("1 1 2 1\n", None), ("1 2 nan\n", 1), ("1 2 -inf\n", None),
    ("1 2 1\n1 2 3 1\n", None), ("1 2 1\n", 0), ("2 0.5\n", 1),
    ("1 2 1e400\n", None), ("1 2 -0\n2 1 0\n", None), ("2 1 -0\n", None), ("1 2 1_0.5\n", None),
    ("1 x 1\n", None), ("1 2 x\n", None), ("5\n", None), ("", None), ("", 1), ("# nothing\n", 2),
    (f"1 {BIG} 1\n", None), (f"{BIG} {BIG} 1\n", None), (f"{BIG} 1 1\n1 {BIG} 2\n", None),
    (f"1 {BIG} 1\n2 2 1\n", None), (f"-{BIG + 1} 1 1\n", None), ("1 8 1\n", None), ("0 1 1\n", None),
    ("1 2 1\n3 3 1\n1 2 nan\n2 1 1\nx 1\n", None),  # several errors: the first line wins
    ("1 2 1\n2 3 1 5\n1 2 1\n", None), ("1 2 3 4 5 1\n", None), ("1 2 3 4 2.5\n2 4 3 1 1\n", None),
])
def test_cochain_cases(text, degree):
    assert_cochain_matches(text, degree)


@pytest.mark.parametrize("text, degree", [
    *((f"1{sep}2 0.5\n2 3{sep}-1{sep}\n", None) for sep in SEPARATORS),
    *((f"1 2 0.5{brk}2 3 -1{brk}", None) for brk in LINE_BREAKS),
    ("1 2 0.5\x00\n", None), ("1 2 0.5\n\x00\n", None), ("1\x002 0.5\n", None),
    ("1 2 0.5\n \t\n\n2 3 1\n", None), ("1 2 0.5\n\u3000\n2 3 1\n", None),  # whitespace-only lines
    ("1 2 0.5\n", None), ("1 2 0.5\n", 1), ("1 2 0.5\n", 0), ("3 0.5\n", 0), ("3 0.5\n", None),  # one data line
    ("1.0 2 0.5\n", None), ("1 2 0.5\n2 3.0 1\n", None), ("1e0 0.5\n", 0),  # a float token in an id column
    ("1 2 1e-400\n", None), ("1 2 -1e-400\n", None), ("1 2 Infinity\n", None), ("1 2 +nan\n", None),
    ("1 2 -nan\n", None), ("1 2 .5\n2 3 5.\n", None), ("1 2 1E5\n", None), ("1 2 0x1p3\n", None),
    ("1 2 1e-320\n", None), ("1 2 4.9e-324\n", None), ("1 2 1.7976931348623157e308\n", None),
    ("1 2 0.5\n1 2 3 1\n", None), ("+1 +2 +0.5\n", None), ("1 2 0.5\n2 1 0.5\n", 1), ("1 2 3 0.5\n", 2),
])
def test_cochain_cases_at_the_c_readers_boundary(text, degree):
    assert_cochain_matches(text, degree)


@pytest.mark.parametrize("text", [
    *(f"1{sep}2 0.5\n2{sep}3 2{sep}\n" for sep in SEPARATORS), *(f"1 2 0.5{brk}2 3 2{brk}" for brk in LINE_BREAKS),
    "1 2 0.5\x00\n", "1 2 1e-400\n", "1 2 Infinity\n", "1 2 +nan\n", "1.0 2 3\n", "1 2 3\n", "1 1e-320\n",
    "1 2 1\n\n \n2 3 1\n", "1 2 1 # a p\n2 3 2\n",
])
def test_weight_cases_at_the_c_readers_boundary(text):
    assert_weights_match(text)


def test_well_formed_benchmark_documents_take_the_c_reader(monkeypatch):
    """A header and sorted edges, and `id value` lines, never reach the line tokenizer, which would lose the C reader's
    speed without changing a result; a malformed document does reach it, to name its line."""
    import graphhodge.cochains as cochains
    import graphhodge.complexes as complexes

    tokenized, data_rows = [], complexes._data_rows
    for module in (cochains, complexes):
        monkeypatch.setattr(module, "_data_rows", lambda text: tokenized.append(text) or data_rows(text))
    rng = np.random.default_rng(20261020)
    pairs = np.array([(u, v) for u, v in combinations(range(1, 41), 2) if rng.random() < 0.1])
    edges = "".join(f"{u} {v}\n" for u, v in pairs)
    values = "".join(f"{v} {x!r}\n" for v, x in enumerate(np.round(rng.normal(size=40), 1).tolist(), 1))
    graph = parse_graph(f"p 40 {len(pairs)}\n{edges}")
    assert graph == Graph(40, pairs) and parse_graph(edges) == graph
    assert read_cochain_tsv(values, enumerate_cliques(graph, 1), 0) == loop_read_cochain_tsv(
        values, enumerate_cliques(graph, 1), 0)
    weights = "".join(f"{v} {x!r}\n" for v, x in enumerate(rng.uniform(0.5, 2, size=40).tolist(), 1))
    assert read_weights_tsv(weights) == loop_read_weights_tsv(weights)
    assert tokenized == []
    for bad in (f"p 40 1\n{edges}3 3\n", f"{edges}x 1\n"):
        with pytest.raises(InputFormatError):
            parse_graph(bad)
    with pytest.raises(InputFormatError):
        read_cochain_tsv(values + "1 nan\n", enumerate_cliques(graph, 1), 0)
    assert len(tokenized) == 3


@pytest.mark.parametrize("text", [
    "1 2.0\n1 2 3.0\n1 2 3 4.0\n3 1 2 0.5\n",  # mixed orders: 3 1 2 names 1 2 3 again
    "2 1 2.5\n1 3 0.5\n", "1 2 0\n", "1 2 -0\n", "1 2 -1\n", "1 2 inf\n", "1 2 nan\n", "1 2 w\n", "1\n",
    f"1 {BIG} 2\n", f"{BIG} {BIG} 2\n", f"1 {BIG} 2\n{BIG} 1 3\n", f"1 {BIG} 2\n2 3 0\n",
    "1 2 1\n2 2 1\n1 2 0\n", "\t1\t2\t1\r\n", "",
])
def test_weight_table_cases(text):
    assert_weights_match(text)


def test_from_dict_and_the_array_constructor_agree():
    rng = np.random.default_rng(20261020)
    for degree in (0, 1, 2, 3):
        rows = K7.level(degree + 1)
        keys = rng.permuted(rows, axis=1)[rng.permutation(len(rows))]
        values = rng.normal(size=len(keys))
        via_dict = Cochain.from_dict(K7, degree, dict(zip(map(tuple, keys.tolist()), values)))
        via_rows = Cochain._from_keys(K7, degree, keys, values)
        assert via_dict.values.tobytes() == via_rows.values.tobytes()
