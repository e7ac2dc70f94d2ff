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
    brute_force_cliques,
    cycle_graph,
    dfs_connected_components,
    loop_enumerate_levels,
    oracle_graphs,
    random_graph,
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
