import os
import subprocess
import sys
import tracemalloc
from itertools import combinations
from pathlib import Path

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphhodge import CliqueComplex, Graph, InputFormatError, coboundary, enumerate_cliques, parse_graph
from graphhodge import complexes
from graphhodge.cli import main
from graphhodge.complexes import MAX_VERTICES, _find, _keep_faces, _key

from conftest import (
    BIG_FIVE_CLIQUE,
    FULL_ISO_A,
    LAP_ISO_A,
    assert_is_tuple_graph,
    brute_force_cliques,
    clique_index,
    complete_graph,
    cycle_graph,
    dfs_connected_components,
    edge_set,
    locate_coboundary,
    locate_keys,
    locate_rows,
    loop_enumerate_levels,
    neighbor_sets,
    oracle_graphs,
    raised_message,
    random_graph,
    special_floats,
    stacked_levels,
    tuple_graph,
)


class TestParseGraph:
    def test_triangle(self):
        g = parse_graph("1 2\n2 3\n3 1")
        assert g.n_vertices == 3
        assert edge_set(g) == frozenset({(1, 2), (2, 3), (1, 3)})

    def test_seven_edge_example(self):
        text = "\n".join(f"{u} {v}" for u, v in LAP_ISO_A.directed_edges)
        g = parse_graph(text)
        assert g.n_vertices == 6
        assert len(edge_set(g)) == 7
        assert g == LAP_ISO_A.graph

    def test_self_loop_rejected_with_line_number(self):
        with pytest.raises(InputFormatError, match="line 2"):
            parse_graph("1 2\n1 1")

    def test_non_integer_rejected(self):
        with pytest.raises(InputFormatError, match="non-integer"):
            parse_graph("1 x")

    def test_duplicate_lines_collapse(self):
        g = parse_graph("1 2\n2 1\n1 2")
        assert len(edge_set(g)) == 1

    def test_comments_and_blank_lines(self):
        g = parse_graph("# header comment\n\n1 2  # trailing\n2 3\n")
        assert edge_set(g) == frozenset({(1, 2), (2, 3)})

    def test_header_declares_isolated_vertices(self):
        g = parse_graph("p 5 1\n1 2")
        assert g.n_vertices == 5
        assert len(neighbor_sets(g)[5]) == 0

    def test_header_loses_to_larger_seen_vertex(self):
        g = parse_graph("p 2 1\n1 7")
        assert g.n_vertices == 7

    def test_empty_document_rejected(self):
        with pytest.raises(InputFormatError):
            parse_graph("# nothing\n")

    def test_nonpositive_vertex_rejected(self):
        with pytest.raises(InputFormatError):
            parse_graph("0 2")

    @pytest.mark.parametrize("count", [2**63, 10**23, 2**200])
    def test_header_count_past_int64_rejected_naming_line_and_count(self, count):
        with pytest.raises(InputFormatError) as info:
            parse_graph(f"# big\np {count} 1\n1 2\n")
        assert str(info.value) == f"line 2: header vertex count {count} is past int64"
        assert parse_graph(f"p {2**63 - 1} 0\n").n_vertices == 2**63 - 1  # the largest int64 is accepted


class TestGraph:
    def test_components(self):
        g = Graph.from_edges(5, [(1, 2), (3, 4)])
        assert g.connected_components() == [[1, 2], [3, 4], [5]]
        assert not g.is_connected()

    def test_degrees(self):
        g = cycle_graph(4)
        assert g.degrees == (2, 2, 2, 2)

    @given(st.integers(min_value=1, max_value=30), st.floats(min_value=0, max_value=1),
           st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_degrees_and_components_match_the_oracles(self, n, p, seed):
        self.check_against_oracles(random_graph(np.random.default_rng(seed), n, p))

    def test_degrees_and_components_of_edge_cases(self, rng):
        perm = rng.permutation(np.arange(1, 61)).tolist()
        pieces = [perm[a:b] for a, b in zip([0, 1, 2, 5, 9, 20, 21, 40], [1, 2, 5, 9, 20, 21, 40, 60])]
        many = Graph.from_edges(60, [e for piece in pieces for e in zip(piece[:-1], piece[1:])])
        assert len(many.connected_components()) == 8
        for g in (Graph(1, frozenset()), Graph(6, frozenset()), many, *(g for g, _ in oracle_graphs(rng))):
            self.check_against_oracles(g)

    @staticmethod
    def check_against_oracles(g):
        assert g.degrees == tuple(map(len, neighbor_sets(g)[1:]))
        assert all(type(d) is int for d in g.degrees)
        comps = g.connected_components()
        assert comps == dfs_connected_components(g)
        assert all(type(v) is int for comp in comps for v in comp)
        assert g.is_connected() == (len(comps) == 1)

    @pytest.mark.parametrize("shuffled", [False, True])
    def test_components_of_long_paths(self, shuffled):
        n = 100_000
        rng = np.random.default_rng(11)
        order = rng.permutation(np.arange(1, n + 1)) if shuffled else np.r_[1, n:1:-1]  # 1, n, n-1, ..., 2
        pairs = list(zip(order[:-1].tolist(), order[1:].tolist()))
        path = Graph.from_edges(n, pairs)
        assert path.connected_components() == [list(range(1, n + 1))]
        cut = Graph.from_edges(n, [pairs[i] for i in np.flatnonzero(rng.random(len(pairs)) > 0.001)])
        assert cut.connected_components() == dfs_connected_components(cut)

    def test_edge_validation(self):
        with pytest.raises(ValueError):
            Graph(3, frozenset({(1, 4)}))
        with pytest.raises(ValueError):
            Graph(3, frozenset({(2, 2)}))


def pair_lists():
    """(n, pairs): up to 40 pairs of distinct vertices of 1..n, either orientation, repeats allowed."""
    def pairs(n):
        pair = st.tuples(st.integers(1, n), st.integers(1, n)).filter(lambda e: e[0] != e[1])
        return st.tuples(st.just(n), st.lists(pair, max_size=40))
    return st.integers(1, 12).flatmap(pairs)


class TestEdgeArray:
    @given(pair_lists(), st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_every_input_form_gives_the_tuple_graph(self, case, seed):
        n, raw = case
        rng = np.random.default_rng(seed)
        ascending = [(min(u, v), max(u, v)) for u, v in raw]
        shuffled = [ascending[i] for i in rng.permutation(len(ascending))]
        duplicated = shuffled + shuffled[: len(shuffled) // 2]
        forms = [
            Graph(n, ascending), Graph(n, shuffled), Graph(n, duplicated), Graph(n, frozenset(duplicated)),
            Graph(n, np.array(duplicated, dtype=np.int32).reshape(-1, 2)),
            Graph(n, np.array(duplicated, dtype=np.int64).reshape(-1, 2)),
            Graph.from_edges(n, raw), Graph.from_edges(n, [(v, u) for u, v in duplicated]),
            Graph.from_edges(n, frozenset(raw)),
            Graph.from_edges(n, np.array(raw, dtype=np.int32).reshape(-1, 2)),
        ]
        if not raw:
            forms += [Graph(n, np.empty((0, 2), dtype=np.int64)), Graph.from_edges(n, np.empty((0, 2)))]
        for g in forms:
            assert_is_tuple_graph(g, n, ascending)
            assert_is_tuple_graph(g, n, raw, orient=True)
            assert g == forms[0] and hash(g) == hash(forms[0])
        if ascending:
            assert forms[0] != Graph(n, forms[0].sorted_edges[1:]) and forms[0] != Graph(n + 1, ascending)

    def test_stored_array_is_the_edge_level(self):
        g = Graph.from_edges(5, [(2, 1), (3, 2), (1, 3), (4, 5), (1, 2)])
        assert enumerate_cliques(g, 2).level(2) is g.pairs
        assert enumerate_cliques(g, 4).level(2) is g.pairs
        assert g.pairs.tolist() == [[1, 2], [1, 3], [2, 3], [4, 5]]
        assert enumerate_cliques(g, 3).level(3).tolist() == [[1, 2, 3]]

    def test_caller_array_is_copied_not_frozen(self):
        given = np.array([[1, 2], [2, 3]])
        g = Graph(3, given)
        assert given.flags.writeable and g.pairs is not given
        given[0] = [1, 3]
        assert g.sorted_edges == ((1, 2), (2, 3))

    @pytest.mark.parametrize("n, pairs", [
        (0, []), (-2, [(1, 2)]),  # no vertex
        (3, [(1, 2), (2, 2)]), (3, [(3, 3)]),  # self-loop
        (3, [(1, 2), (3, 2)]), (3, [(2, 1)]),  # descending
        (3, [(1, 4)]), (3, [(0, 2)]), (3, [(-1, 2)]), (3, np.array([[1, 2], [2, 9]])),  # out of range
    ])
    def test_errors_keep_the_tuple_construction_messages(self, n, pairs):
        expected = raised_message(lambda: tuple_graph(n, [tuple(e) for e in np.asarray(pairs).tolist()]))
        assert raised_message(lambda: Graph(n, pairs)) == expected

    @pytest.mark.parametrize("pairs", [[(1, 2, 3)], np.arange(4), np.zeros((2, 2, 2)), np.zeros((3, 1))])
    def test_wrong_shape_rejected(self, pairs):
        for build in (Graph, Graph.from_edges):
            assert "(m, 2)" in raised_message(lambda: build(3, pairs))

    @pytest.mark.parametrize("pairs, shown", [
        ([(1.5, 2), (1, 2)], "(1.5,2)"),
        (frozenset({(1.5, 2), (1, 2)}), "(1.5,2)"),
        ([(1, 2), (2, float("nan"))], "(2,nan)"),
        ([(float("inf"), 3)], "(inf,3)"),
        (np.array([[1.0, 2.0], [2.0, 2.5]]), "(2.0,2.5)"),
    ])
    def test_non_integral_ids_rejected_naming_the_pair(self, pairs, shown):
        for build in (Graph, Graph.from_edges):
            assert raised_message(lambda: build(3, pairs)) == f"edge {shown} has a non-integral vertex id"

    def test_from_edges_no_longer_truncates(self):
        with pytest.raises(ValueError, match="non-integral"):
            Graph.from_edges(3, [(1.5, 2)])
        assert Graph.from_edges(3, [(2.0, 1.0)]).sorted_edges == ((1, 2),)

    @pytest.mark.parametrize("pairs, shown", [
        ([(1, 2**63)], 2**63),
        ([(1, 2), (2, 10**23)], 10**23),
        ([(-(2**70), 1)], -(2**70)),
        ([(1, 2**200)], 2**200),
        (np.array([[1, 2**63]], dtype=np.uint64), 2**63),
    ])
    def test_ids_past_int64_rejected_naming_the_id(self, pairs, shown):
        for build in (Graph, Graph.from_edges):
            assert raised_message(lambda: build(3, pairs)) == f"vertex id {shown} is past int64"

    @pytest.mark.parametrize("n", [2**63, 10**23, 2**200])
    def test_vertex_count_past_int64_rejected_naming_it(self, n):
        for build in (Graph, Graph.from_edges):
            assert raised_message(lambda: build(n, [(1, 2)])) == f"vertex count {n} is past int64"

    def test_construction_builds_no_edge_tuples(self, monkeypatch):
        import graphhodge.complexes as complexes

        pairs = np.column_stack([np.arange(1, 100_000), np.arange(2, 100_001)])

        def no_tuples(*args):
            raise AssertionError("built edge tuples")

        monkeypatch.setattr(complexes.Graph, "sorted_edges", property(no_tuples))
        g = complexes.Graph.from_edges(100_000, pairs[::-1, ::-1])
        assert g.degrees[:3] == (1, 2, 2) and g.is_connected()
        assert np.array_equal(enumerate_cliques(g, 3).level(2), pairs)


class TestEdgeArrayD0:
    """complexes._d0 against its oracle, the CSR d_0 = coboundary(cx, 0).matrix: equal products, always float64."""

    @staticmethod
    def assert_matches_csr(graph, rng):
        d = coboundary(enumerate_cliques(graph, 2), 0).matrix
        d0, d0t = complexes._d0(graph)
        for _ in range(3):
            x, y = special_floats(rng, graph.n_vertices), special_floats(rng, len(graph.pairs))
            grad, div = d0(x), d0t(y)
            assert np.array_equal(grad, d @ x) and np.array_equal(div, d.T @ y)
            assert grad.dtype == div.dtype == np.float64
            assert np.array_equal(d0t(y), div)  # the interleave buffer carries nothing between calls

    @given(pair_lists(), st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_products_equal_the_csr_ones(self, case, seed):
        n, raw = case
        self.assert_matches_csr(Graph.from_edges(n, raw), np.random.default_rng(seed))

    @pytest.mark.parametrize("graph", [Graph(1, []), Graph(5, []), Graph(12, [(1, 2), (2, 3), (1, 3), (7, 8)]),
                                       complete_graph(9)], ids=["one-vertex", "edgeless", "isolated", "K9"])
    def test_one_vertex_edgeless_isolated_and_complete(self, graph, rng):
        self.assert_matches_csr(graph, rng)

    @given(pair_lists(), st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_scaled_products_equal_the_diags_ones(self, case, seed):
        """With an edge vector w, the products are those of sp.diags(w) @ d_0, sorted as decompose sorts it."""
        import scipy.sparse as sp

        n, raw = case
        rng, graph = np.random.default_rng(seed), Graph.from_edges(n, raw)
        w = 10 ** rng.uniform(-2, 2, len(graph.pairs))
        d = sp.diags(w) @ coboundary(enumerate_cliques(graph, 2), 0).matrix
        d.sort_indices()
        d0, d0t = complexes._d0(graph, w)
        x, y = special_floats(rng, graph.n_vertices), special_floats(rng, len(graph.pairs))
        grad, div = d0(x), d0t(y)
        assert np.array_equal(grad, d @ x) and div.tobytes() == (d.T @ y).tobytes()
        assert grad.dtype == div.dtype == np.float64

    @pytest.mark.parametrize("weighted", [False, True])
    def test_signed_zeros_match_bit_for_bit_but_one_case(self, weighted):
        """D x is CSR's 0.0 + (-a) + b bit for bit, a = scale x[tail] and b = scale x[head], save where b is -0.0 and a
        is +0.0: there b - a is -0.0, and CSR's sum 0.0."""
        import scipy.sparse as sp

        exceptions = 0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            graph = random_graph(rng, int(rng.integers(2, 12)), 0.6)
            scale = 10 ** rng.uniform(-2, 2, len(graph.pairs)) if weighted else 1.0
            d = coboundary(enumerate_cliques(graph, 2), 0).matrix
            if weighted:
                d = sp.diags(scale) @ d
                d.sort_indices()  # as decompose sorts it
            x = rng.choice([0.0, -0.0, 1.5, -2.25], graph.n_vertices)
            grad = complexes._d0(graph, scale)[0](x)
            tail, head = (scale * x[graph.pairs[:, i] - 1] for i in (0, 1))
            odd = (head == 0) & np.signbit(head) & (tail == 0) & ~np.signbit(tail)
            assert grad[~odd].tobytes() == (d @ x)[~odd].tobytes(), seed
            assert np.all(np.signbit(grad[odd])) and not np.any(np.signbit((d @ x)[odd])), seed
            exceptions += int(odd.sum())
        assert exceptions >= 5


class TestEnumerateCliques:
    def test_c4_has_no_triangles(self, c4_complex):
        assert c4_complex.cliques(3) == ()

    def test_c3_single_triangle(self, c3_complex):
        assert c3_complex.cliques(3) == ((1, 2, 3),)

    def test_seven_vertex_example_one_triangle_no_tetrahedra(self):
        cx = enumerate_cliques(FULL_ISO_A.graph, 4)
        assert cx.cliques(3) == ((1, 2, 3),)
        assert cx.cliques(4) == ()
        assert cx.clique_number() == 3

    def test_counts_match_vertices_and_edges(self, rng):
        for _ in range(20):
            g = random_graph(rng, int(rng.integers(1, 13)), float(rng.random()))
            cx = enumerate_cliques(g, 2)
            assert cx.n_cliques(1) == g.n_vertices
            assert cx.n_cliques(2) == len(edge_set(g))

    def test_matches_brute_force(self, rng):
        for _ in range(25):
            n = int(rng.integers(2, 13))
            g = random_graph(rng, n, float(rng.uniform(0.2, 0.9)))
            cx = enumerate_cliques(g, min(n, 5))
            for order in range(1, cx.max_order + 1):
                assert list(cx.cliques(order)) == brute_force_cliques(g, order)

    def test_downward_closure(self, rng):
        for _ in range(10):
            g = random_graph(rng, 10, 0.5)
            cx = enumerate_cliques(g, 4)
            for order in range(2, 5):
                lower = set(cx.cliques(order - 1))
                for clique in cx.cliques(order):
                    for i in range(order):
                        assert clique[:i] + clique[i + 1 :] in lower

    def test_lexicographic_order(self, rng):
        g = random_graph(rng, 9, 0.6)
        cx = enumerate_cliques(g, 4)
        for order in range(1, 5):
            cliques = list(cx.cliques(order))
            assert cliques == sorted(cliques)
            assert all(list(c) == sorted(set(c)) for c in cliques)

    def test_levels_beyond_max_order(self):
        cx = enumerate_cliques(cycle_graph(4), 3)
        # triangles came out empty, so every higher level is provably empty
        assert cx.cliques(5) == ()
        dense = enumerate_cliques(Graph.from_edges(3, [(1, 2), (2, 3), (1, 3)]), 2)
        with pytest.raises(ValueError, match="not enumerated"):
            dense.cliques(3)

    def test_bad_max_order(self):
        with pytest.raises(ValueError):
            enumerate_cliques(cycle_graph(3), 0)

    def test_enumeration_stops_at_the_first_empty_level(self, monkeypatch):
        import graphhodge.complexes as complexes

        g = Graph.from_edges(3, [(1, 2), (2, 3), (1, 3)])
        cx = enumerate_cliques(g, 300)
        assert sorted(order for kind, order in g._memo if kind == "faces") == [2, 3, 4]
        assert [cx.n_cliques(order) for order in (1, 2, 3, 4, 5, 300)] == [3, 3, 1, 0, 0, 0]
        assert cx.clique_number() == 3 and enumerate_cliques(g, 3).clique_number() is None
        for order in (5, 300, 301):  # past max_order too: provably empty
            faces, level = cx._faces(order), cx.level(order)
            assert faces.shape == (0, order) and faces.dtype == np.int32 and not faces.flags.writeable
            assert level.shape == (0, order) and level.dtype == np.int64 and not level.flags.writeable
        monkeypatch.setattr(complexes, "_extend", lambda *args: pytest.fail("enumerated past an empty level"))
        assert enumerate_cliques(g, 100_000).n_cliques(100_000) == 0

    @given(st.integers(min_value=1, max_value=8))
    @settings(max_examples=8, deadline=None)
    def test_singleton_levels(self, n):
        g = Graph(n, frozenset())
        cx = enumerate_cliques(g, 3)
        assert cx.n_cliques(1) == n
        assert cx.cliques(2) == ()
        assert cx.clique_number() == 1


class TestArrayLevels:
    def test_levels_match_loop_oracle(self, rng):
        for g, max_order in oracle_graphs(rng):
            stepped = Graph(g.n_vertices, edge_set(g))  # its levels are extended one order per call
            for order in range(1, max_order):
                enumerate_cliques(stepped, order)
            expected = loop_enumerate_levels(g, max_order)
            for cx in (enumerate_cliques(g, max_order), enumerate_cliques(stepped, max_order)):
                for order, (level, ref) in enumerate(zip(cx.levels, expected), start=1):
                    assert level.dtype == np.int64 and level.shape == (len(ref), order)
                    assert not level.flags.writeable
                    assert cx.cliques(order) == ref
                    assert all(type(v) is int for c in cx.cliques(order) for v in c)

    @given(st.integers(min_value=1, max_value=12), st.floats(min_value=0, max_value=1),
           st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_levels_match_the_stacked_enumeration(self, n, p, seed):
        g = random_graph(np.random.default_rng(seed), n, p)
        expected = stacked_levels(g, 9)
        stepped = Graph(n, g.pairs)
        # through order 7 at once and after enumerating to 3, then shallower complexes of a deeper graph
        for graph, max_order in ((g, 7), (stepped, 3), (stepped, 7), (stepped, 3), (g, 2), (g, 1)):
            cx = enumerate_cliques(graph, max_order)
            settled = cx.clique_number() is not None
            for order in range(1, 10):
                if order > max_order and not settled:
                    with pytest.raises(ValueError, match="not enumerated"):
                        cx.level(order)
                    continue
                level, ref = cx.level(order), expected[order - 1]  # past max_order: provably empty
                assert level.dtype == np.int64 and level.shape == ref.shape and not level.flags.writeable
                assert np.array_equal(level, ref) and cx.n_cliques(order) == len(ref)
                assert cx.level(order) is level or not len(level)  # built once per graph

    def test_counts_keys_and_operators_build_no_vertex_rows(self, monkeypatch):
        import graphhodge.complexes as complexes

        built, rows = [], complexes.CliqueComplex._vertex_rows
        monkeypatch.setattr(complexes.CliqueComplex, "_vertex_rows",
                            lambda cx, order: built.append(order) or rows(cx, order))
        g = complete_graph(6)
        cx = enumerate_cliques(g, 8)
        assert [cx.n_cliques(order) for order in range(1, 9)] == [6, 15, 20, 15, 6, 1, 0, 0]
        assert cx.clique_number() == 6 and enumerate_cliques(g, 4).clique_number() is None
        for order in range(2, 8):
            assert len(cx._keys(order)) == cx.n_cliques(order)
            ids = np.array(list(combinations(range(1, 7), order)), dtype=np.int64).reshape(-1, order)
            assert cx.locate(ids).tolist() == list(range(cx.n_cliques(order)))
        for k in range(6):
            coboundary(cx, k)
        with pytest.raises(ValueError, match="not enumerated"):
            enumerate_cliques(g, 4).n_cliques(5)
        assert built == []
        assert np.array_equal(cx.level(5), stacked_levels(g, 5)[4])
        assert built == [5, 4, 3, 2]  # each order from the one below it, down to the graph's pairs

    def test_levels_match_networkx(self, rng):
        for g, max_order in oracle_graphs(rng):
            if g.n_vertices > 100:
                continue  # networkx visits every isolated vertex in Python
            cx = enumerate_cliques(g, max_order)
            nxg = nx.Graph(list(edge_set(g)))
            nxg.add_nodes_from(range(1, g.n_vertices + 1))
            found = sorted(tuple(sorted(c)) for c in nx.enumerate_all_cliques(nxg))
            for order in range(1, max_order + 1):
                assert cx.cliques(order) == tuple(c for c in found if len(c) == order)

    def test_tuple_view_built_once(self, rng):
        cx = enumerate_cliques(random_graph(rng, 9, 0.6), 3)
        assert cx.cliques(3) is cx.cliques(3)
        assert cx.n_cliques(3) == len(cx.levels[2])

    def test_locate_finds_every_clique_and_nothing_else(self, rng):
        for g, max_order in oracle_graphs(rng):
            cx = enumerate_cliques(g, max_order)
            n = g.n_vertices
            for order in range(1, max_order + 1):
                level = cx.level(order)
                assert np.array_equal(cx.locate(level), np.arange(len(level)))
                others = rng.integers(-1, 2 * n + 4, size=(60, order))
                present = set(cx.cliques(order))
                expected = [clique_index(cx, order)[t] if t in present else -1 for t in map(tuple, others.tolist())]
                assert cx.locate(others).tolist() == expected

    def test_locate_out_of_range_row_matches_no_key(self):
        # with no valid prefix, (0, n+3) would reach key n+3-(n+1) = 2, the key of edge (1, 2)
        cx = enumerate_cliques(cycle_graph(4), 3)
        assert cx.locate([[1, 2], [0, 7], [9, 7], [0, 2]]).tolist() == [0, -1, -1, -1]

    def test_locate_large_vertex_ids(self):
        cx = enumerate_cliques(BIG_FIVE_CLIQUE, 5)
        assert cx.locate([[3, 17, 40_000, 69_999], [17, 40_000, 69_999, 70_000]]).tolist() == [0, 4]
        assert cx.locate([[3, 17, 40_000, 69_998], [3, 17, 40_000, 70_001]]).tolist() == [-1, -1]
        assert cx.locate([[3, 17, 40_000, 69_999, 70_000]]).tolist() == [0]


class TestFaces:
    """The faces enumeration records, and the keys and d_k read from them, bit for bit against the locate oracles."""

    def check(self, cx, top: int) -> None:
        for order in range(2, top + 1):
            level, faces = cx.level(order), cx._faces(order)
            assert faces.shape == (len(level), order) and faces.dtype == np.int32
            assert not faces.flags.writeable  # past the first empty level too, an empty array like level(order)
            for j in range(order):  # column order-1-j is the face without vertex j
                assert np.array_equal(faces[:, order - 1 - j], locate_rows(cx, np.delete(level, j, 1))), (order, j)
            keys, expected = cx._keys(order), locate_keys(cx, order)
            assert keys.dtype == expected.dtype and np.array_equal(keys, expected), order
        for k in range(top - 1):
            d, expected = coboundary(cx, k).matrix, locate_coboundary(cx, k)
            assert d.shape == expected.shape, k
            for name in ("indices", "indptr", "data"):
                a, b = getattr(d, name), getattr(expected, name)
                assert a.dtype == b.dtype and np.array_equal(a, b), (k, name)
            if d.nnz:  # scipy keeps the int32 face array as d_k's column index, without a copy
                assert np.shares_memory(d.indices, cx._faces(k + 2)), k

    @given(st.integers(min_value=1, max_value=12), st.floats(min_value=0, max_value=1),
           st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_match_locate_through_order_7(self, n, p, seed):
        self.check(enumerate_cliques(random_graph(np.random.default_rng(seed), n, p), 7), 7)

    @given(st.integers(min_value=1, max_value=12), st.floats(min_value=0.3, max_value=1),
           st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_match_locate_after_enumerating_further(self, n, p, seed):
        g = random_graph(np.random.default_rng(seed), n, p)
        self.check(enumerate_cliques(g, 3), 3)
        self.check(enumerate_cliques(g, 7), 7)
        self.check(enumerate_cliques(g, 3), 3)  # a shallower complex reads the same faces

    def test_empty_levels_and_levels_past_max_order(self):
        triangle = Graph.from_edges(4, [(1, 2), (2, 3), (1, 3)])
        for g, max_order in ((cycle_graph(5), 3), (Graph(4, []), 2), (triangle, 4), (complete_graph(7), 8)):
            cx = enumerate_cliques(g, max_order)
            self.check(cx, 7)  # orders past max_order are served empty, and so are their faces
            assert cx._faces(7).shape == (len(cx.level(7)), 7)

    def test_large_vertex_ids(self):
        self.check(enumerate_cliques(BIG_FIVE_CLIQUE, 6), 6)

    def test_int32_only_while_every_position_fits(self):
        g = Graph(3, [])
        for below, dtype in ((2**31, np.int32), (2**31 + 1, np.int64)):
            _keep_faces(g, 2, [np.array([0, 1]), np.array([2, 2])], below)
            faces = g._memo["faces", 2]
            assert faces.dtype == dtype and faces.tolist() == [[0, 2], [1, 2]]

    def test_key_widens_int32_positions(self):
        pos = np.array([2**31 - 1, 2**31 - 2, 0], dtype=np.int32)
        last = np.array([70_000, 1, 5])
        for n in (70_000, MAX_VERTICES):
            key = _key(pos, last, n)
            assert key.dtype == np.int64
            assert key.tolist() == [p * (n + 1) + v for p, v in zip(pos.tolist(), last.tolist())]


class TestVertexCountBound:
    def test_largest_count_constructs(self):
        # never enumerated: its vertex level alone would take 24 GB
        g = Graph(3_037_000_499, [(1, 2), (2, 3_037_000_499)])
        assert g.n_vertices == MAX_VERTICES and len(g.pairs) == 2
        assert MAX_VERTICES * (MAX_VERTICES + 1) < 2**63 <= (MAX_VERTICES + 1) * (MAX_VERTICES + 2)

    @pytest.mark.parametrize("count", [3_037_000_500, 2**60, 2**63 - 2, 2**63 - 1])
    def test_larger_count_is_refused_naming_it(self, count):
        g = Graph(count, [(1, 2)])
        for _ in range(2):  # the refusal is not cached away
            with pytest.raises(ValueError) as info:
                enumerate_cliques(g, 2)
            assert str(info.value) == f"vertex count {count} is above 3037000499: clique keys would pass int64"

    def test_every_complex_refuses_when_built(self):
        # a lazily built complex enumerates nothing until a level is read: it refuses before any key is formed
        with pytest.raises(ValueError) as info:
            CliqueComplex(Graph(MAX_VERTICES + 1, [(1, 2), (1, 3), (2, 3)]), 3)
        assert str(info.value) == "vertex count 3037000500 is above 3037000499: clique keys would pass int64"
        with pytest.raises(ValueError) as info:
            CliqueComplex(Graph(MAX_VERTICES + 1, [(1, 2)]), 0)  # the order is checked first
        assert str(info.value) == "max_order must be >= 1, got 0"

    def test_the_edge_level_lays_out_no_per_vertex_array(self):
        g = Graph(10**7, [(1, 2)])
        tracemalloc.start()
        try:
            cx = enumerate_cliques(g, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cx.n_cliques(2) == 1 and cx.clique_number() is None
        assert peak < 1 << 20, peak  # an int64 array per vertex would take 80 MB

    @staticmethod
    def bounded_child(code: str, *argv: str) -> subprocess.CompletedProcess:
        """Run code in a fresh interpreter whose address space is capped at 3 GiB, so an array per vertex at
        n = 10**9 (7.45 GiB) fails to allocate rather than being laid out."""
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path(__file__).parent.parent / "src"),
                                                          env.get("PYTHONPATH")]))
        cap = "import resource, sys\nresource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))\n"
        return subprocess.run([sys.executable, "-c", cap + code, *argv], env=env, capture_output=True, text=True,
                              timeout=120)

    @pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS bounds allocations on Linux")
    def test_the_d0_export_of_a_billion_vertices_fits_in_3_gib(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("p 1000000000 1\n1 2\n")
        proc = self.bounded_child("from graphhodge.cli import main\nsys.exit(main(sys.argv[1:]))",
                                  "operator", "--input", str(path), "--k", "0")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[1:] == ["1 1000000000 2", "1 1 -1", "1 2 1"]

    @pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS bounds allocations on Linux")
    def test_a_lazy_complex_past_the_bound_is_refused_before_its_keys(self):
        # at n = 4e9 the key of the edge (n-1, n) is (n-2)(n+1)+n, about 1.6e19 > 2**63: it would wrap
        code = ("from graphhodge import CliqueComplex, Graph\nn = 4 * 10**9\n"
                "print(CliqueComplex(Graph(n, [(n - 1, n)]), 2).locate([[n - 1, n]]))")
        proc = self.bounded_child(code)
        assert proc.returncode == 1 and not proc.stdout
        assert proc.stderr.splitlines()[-1] == \
            "ValueError: vertex count 4000000000 is above 3037000499: clique keys would pass int64"


class TestTableLookup:
    """_extend finds a candidate's faces by one gather from a direct-address table when the keys' range is at most
    the number of queries, else by binary search; _find's binary search is the oracle."""

    @staticmethod
    def enumerate_both(monkeypatch, graph: Graph, max_order: int):
        """(complex, complex by binary search alone, (range, queries) of each lookup), each on a fresh graph."""
        lookups = []

        def spy(keys, key, bound=None):
            lookups.append((bound, len(key)))
            return _find(keys, key, bound)

        with monkeypatch.context() as patch:
            patch.setattr(complexes, "_find", spy)
            cx = enumerate_cliques(Graph(graph.n_vertices, graph.pairs), max_order)
            patch.setattr(complexes, "_find", lambda keys, key, bound=None: _find(keys, key))
            oracle = enumerate_cliques(Graph(graph.n_vertices, graph.pairs), max_order)
        return cx, oracle, lookups

    def test_faces_and_keys_match_binary_search_on_both_sides_of_the_rule(self, monkeypatch):
        # (11, 0.9, 31) and (15, 0.7, 30) have exactly as many order-3 queries as the range n(n+1)
        cases = [(11, 0.9, 31), (15, 0.7, 30), (12, 0.5, 0), (14, 0.8, 1), (16, 0.9, 2), (20, 0.3, 3), (9, 1.0, 4)]
        sides = set()
        for n, p, seed in cases:
            graph = random_graph(np.random.default_rng(seed), n, p)
            cx, oracle, lookups = self.enumerate_both(monkeypatch, graph, 5)
            sides |= {int(np.sign(queries - bound)) for bound, queries in lookups}
            for order in range(3, 6):
                faces = cx._faces(order)
                assert faces.dtype == np.int32 and not faces.flags.writeable, (n, p, seed, order)
                assert np.array_equal(faces, oracle._faces(order)), (n, p, seed, order)
                assert np.array_equal(cx._keys(order), oracle._keys(order)), (n, p, seed, order)
            assert all(np.array_equal(a, b) for a, b in zip(cx.levels, stacked_levels(graph, 5)))
        assert sides == {-1, 0, 1}

    def test_gnp_30_to_order_4_against_networkx(self, monkeypatch):
        graph = random_graph(np.random.default_rng(30), 30, 0.6)
        cx, _, lookups = self.enumerate_both(monkeypatch, graph, 4)
        bound, queries = lookups[0]  # order 3 takes the table
        assert bound == 30 * 31 <= queries
        nxg = nx.Graph(list(edge_set(graph)))
        nxg.add_nodes_from(range(1, 31))
        found = {order: [] for order in range(1, 5)}
        for clique in nx.enumerate_all_cliques(nxg):  # by size, ascending: stop past size 4
            if len(clique) > 4:
                break
            found[len(clique)].append(tuple(sorted(clique)))
        for order in range(1, 5):
            assert cx.cliques(order) == tuple(sorted(found[order])), order

    def test_find_by_table_equals_binary_search(self):
        rng = np.random.default_rng(5)
        keys = np.unique(rng.integers(0, 1000, 300))
        for bound in (1000, 1500):
            for size in (bound - 1, bound, bound + 1, 3 * bound):
                key = rng.integers(0, 1000, size)
                got, ref = _find(keys, key, bound), _find(keys, key)
                assert all(np.array_equal(a, b) for a, b in zip(got, ref)), (bound, size)
        assert [a.tolist() for a in _find(keys[:0], np.arange(5), 5)] == [[], []]

    def test_locate_keeps_minus_one_for_lost_and_out_of_range_rows(self):
        graph = random_graph(np.random.default_rng(6), 12, 0.8)
        cx = enumerate_cliques(graph, 3)
        index = {order: clique_index(cx, order) for order in (2, 3)}
        rng = np.random.default_rng(7)
        for order in (2, 3):  # more rows than n(n+1) = 156, ids 0 and n+1 included
            rows = rng.integers(0, 14, (400, order))
            expected = [index[order].get(tuple(row), -1) for row in rows.tolist()]
            assert -1 in expected and max(expected) >= 0
            assert cx.locate(rows).tolist() == expected, order


class TestEnumerationSizeGuard:
    """Enumeration refuses an order whose candidates would not fit in physical memory, before laying them out."""

    @staticmethod
    def probe(monkeypatch, memory):
        """os.sysconf reporting memory one-byte pages."""
        monkeypatch.setattr(complexes.os, "sysconf", lambda name: {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": memory}[name])

    # K_150 holds 551,300 candidates at order 3, one per triangle: 35 bytes each need 19,295,500
    NEED = 35 * 551_300

    def test_refused_past_physical_memory_naming_order_and_count(self, monkeypatch):
        graph = complete_graph(150)
        self.probe(monkeypatch, self.NEED - 1)
        for _ in range(2):  # the refusal is not cached away
            with pytest.raises(ValueError) as info:
                enumerate_cliques(graph, 3)
            assert str(info.value) == (f"clique enumeration at order 3 has 551300 candidates: it needs {self.NEED} "
                                       f"bytes, more than the {self.NEED - 1} bytes of physical memory")
        assert enumerate_cliques(graph, 2).n_cliques(2) == 150 * 149 // 2  # the orders below stay enumerated
        self.probe(monkeypatch, self.NEED)
        assert enumerate_cliques(graph, 3).n_cliques(3) == 551_300

    def test_small_steps_are_not_checked(self, monkeypatch):
        self.probe(monkeypatch, 1)  # K_12's steps need at most 35 * 924 bytes, under the 16 MiB checked from
        assert enumerate_cliques(complete_graph(12), 13).clique_number() == 12

    def test_cli_exits_1_naming_order_and_count(self, monkeypatch, tmp_path, capsys):
        path = tmp_path / "k150.txt"
        path.write_text("".join(f"{u} {v}\n" for u, v in combinations(range(1, 151), 2)))
        self.probe(monkeypatch, self.NEED - 1)
        assert main(["cliques", "--input", str(path), "--max-order", "3"]) == 1
        err = capsys.readouterr().err
        assert "clique enumeration at order 3 has 551300 candidates" in err and f"needs {self.NEED} bytes" in err
