import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphhodge import Graph, InputFormatError, enumerate_cliques, parse_graph

from conftest import (
    BIG_FIVE_CLIQUE,
    FULL_ISO_A,
    LAP_ISO_A,
    assert_is_tuple_graph,
    brute_force_cliques,
    cycle_graph,
    dfs_connected_components,
    loop_enumerate_levels,
    oracle_graphs,
    raised_message,
    random_graph,
    tuple_graph,
)


class TestParseGraph:
    def test_triangle(self):
        g = parse_graph("1 2\n2 3\n3 1")
        assert g.n_vertices == 3
        assert g.edges == frozenset({(1, 2), (2, 3), (1, 3)})

    def test_seven_edge_example(self):
        text = "\n".join(f"{u} {v}" for u, v in LAP_ISO_A.directed_edges)
        g = parse_graph(text)
        assert g.n_vertices == 6
        assert len(g.edges) == 7
        assert g == LAP_ISO_A.graph

    def test_self_loop_rejected_with_line_number(self):
        with pytest.raises(InputFormatError, match="line 2"):
            parse_graph("1 2\n1 1")

    def test_non_integer_rejected(self):
        with pytest.raises(InputFormatError, match="non-integer"):
            parse_graph("1 x")

    def test_duplicate_lines_collapse(self):
        g = parse_graph("1 2\n2 1\n1 2")
        assert len(g.edges) == 1

    def test_comments_and_blank_lines(self):
        g = parse_graph("# header comment\n\n1 2  # trailing\n2 3\n")
        assert g.edges == frozenset({(1, 2), (2, 3)})

    def test_header_declares_isolated_vertices(self):
        g = parse_graph("p 5 1\n1 2")
        assert g.n_vertices == 5
        assert g.degree(5) == 0

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
        assert g.degrees == tuple(len(g.neighbors[v]) for v in range(1, g.n_vertices + 1))
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
        monkeypatch.setattr(complexes.Graph, "edges", property(no_tuples))
        g = complexes.Graph.from_edges(100_000, pairs[::-1, ::-1])
        assert g.degrees[:3] == (1, 2, 2) and g.is_connected()
        assert np.array_equal(enumerate_cliques(g, 3).level(2), pairs)


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
            assert cx.n_cliques(2) == len(g.edges)

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
            stepped = Graph(g.n_vertices, g.edges)  # its levels are extended one order per call
            for order in range(1, max_order):
                enumerate_cliques(stepped, order)
            expected = loop_enumerate_levels(g, max_order)
            for cx in (enumerate_cliques(g, max_order), enumerate_cliques(stepped, max_order)):
                for order, (level, ref) in enumerate(zip(cx.levels, expected), start=1):
                    assert level.dtype == np.int64 and level.shape == (len(ref), order)
                    assert not level.flags.writeable
                    assert cx.cliques(order) == ref
                    assert all(type(v) is int for c in cx.cliques(order) for v in c)

    def test_levels_match_networkx(self, rng):
        for g, max_order in oracle_graphs(rng):
            if g.n_vertices > 100:
                continue  # networkx visits every isolated vertex in Python
            cx = enumerate_cliques(g, max_order)
            nxg = nx.Graph(list(g.edges))
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
                expected = [cx.index(order)[t] if t in present else -1 for t in map(tuple, others.tolist())]
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
