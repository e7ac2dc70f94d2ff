import os
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import graphhodge.operators as operators
from graphhodge import (
    Cochain,
    ComparisonData,
    Graph,
    InputFormatError,
    WeightScheme,
    adjoint,
    aggregate,
    apply_operator,
    betti,
    coboundary,
    decompose_game_flow,
    divergence_matrix,
    enumerate_cliques,
    game_flow,
    harmonic_basis,
    hodge_decompose,
    hodge_laplacian,
    rank,
    read_matrix,
    spectrum,
    strategy_graph,
    write_matrix,
)

from conftest import (
    BIG_FIVE_CLIQUE,
    CURL_A,
    FULL_ISO_A,
    GRAD_A,
    HELMHOLTZIAN_A,
    HELMHOLTZIAN_B,
    LAPLACIAN_A,
    LAPLACIAN_B,
    LAP_ISO_A,
    LAP_ISO_B,
    clique_index,
    complete_graph,
    cycle_graph,
    edge_set,
    loop_enumerate_levels,
    neighbor_sets,
    oracle_graphs,
    random_graph,
    special_floats,
)
from test_games import seeded_game


def reindexed(golden, matrix_rows_by_letter, cx):
    """Reorder a lettered golden matrix into the complex's lexicographic edge order."""
    pos = golden.edge_positions(cx)
    out = np.zeros_like(matrix_rows_by_letter)
    # both axes indexed by edges
    for a, pa in enumerate(pos):
        for b, pb in enumerate(pos):
            out[pa, pb] = matrix_rows_by_letter[a, b]
    return out


class TestCoboundaryGolden:
    def test_gradient_matches_up_to_row_sign(self):
        cx = enumerate_cliques(LAP_ISO_A.graph, 3)
        mine = coboundary(cx, 0).matrix.toarray()
        pos = LAP_ISO_A.edge_positions(cx)
        for letter, row in enumerate(pos):
            expected = GRAD_A[letter]
            got = mine[row]
            assert np.array_equal(got, expected) or np.array_equal(got, -expected)

    def test_each_gradient_row_has_one_plus_and_one_minus(self, rng):
        g = random_graph(rng, 9, 0.5)
        cx = enumerate_cliques(g, 2)
        mat = coboundary(cx, 0).matrix.toarray()
        for row in mat:
            assert sorted(row[row != 0]) == [-1.0, 1.0]

    def test_curl_row_support(self):
        cx = enumerate_cliques(LAP_ISO_A.graph, 3)
        mine = coboundary(cx, 1).matrix.toarray()
        assert mine.shape == (1, 7)
        pos = LAP_ISO_A.edge_positions(cx)
        support = {pos[4], pos[5], pos[6]}  # letters e, f, g
        assert set(np.flatnonzero(mine[0])) == support
        expected = np.zeros(7)
        for letter, value in zip((4, 5, 6), CURL_A[0, 4:]):
            expected[pos[letter]] = value
        assert np.array_equal(mine[0], expected) or np.array_equal(mine[0], -expected)

    def test_no_triangles_gives_empty_curl(self, c4_complex):
        op = coboundary(c4_complex, 1)
        assert op.matrix.shape == (0, 4)

    def test_degree_out_of_range(self, c4_complex):
        with pytest.raises(ValueError):
            coboundary(c4_complex, -1)
        with pytest.raises(ValueError):
            coboundary(enumerate_cliques(complete_graph(4), 2), 1)


class TestComposition:
    def test_coboundary_squares_to_zero(self, rng):
        for _ in range(30):
            n = int(rng.integers(2, 11))
            g = random_graph(rng, n, float(rng.uniform(0.3, 0.9)))
            cx = enumerate_cliques(g, n + 1)
            for k in range(0, cx.max_order - 2):
                product = (coboundary(cx, k + 1).matrix @ coboundary(cx, k).matrix).toarray()
                assert not np.any(product)


def dict_coboundary(levels, k: int) -> sp.csr_matrix:
    """d_k assembled one face at a time through a {clique: position} dict: the replaced path, as oracle."""
    cols, rows = levels[k], levels[k + 1]
    col_index = {c: i for i, c in enumerate(cols)}
    data, ri, ci = [], [], []
    for r, simplex in enumerate(rows):
        for j in range(len(simplex)):
            face = simplex[:j] + simplex[j + 1 :]
            ri.append(r)
            ci.append(col_index[face])
            data.append(1.0 if j % 2 == 0 else -1.0)
    return sp.csr_matrix((data, (ri, ci)), shape=(len(rows), len(cols)))


class TestCoboundaryOracle:
    def assert_bit_identical(self, got, ref):
        assert got.shape == ref.shape
        for name in ("indptr", "indices", "data"):
            a, b = getattr(got, name), getattr(ref, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name

    def test_matches_dict_assembly(self, rng):
        for g, max_order in oracle_graphs(rng):
            cx = enumerate_cliques(g, max_order)
            levels = loop_enumerate_levels(g, max_order)
            for k in range(max_order - 1):
                self.assert_bit_identical(coboundary(cx, k).matrix, dict_coboundary(levels, k))

    def test_index_arrays_are_the_face_arrays_dtype(self, rng):
        """indices is the face array itself and indptr is built in its dtype, so scipy copies neither."""
        for g, max_order in oracle_graphs(rng):
            cx = enumerate_cliques(g, max_order)
            for k in range(max_order - 1):
                matrix, faces = coboundary(cx, k).matrix, cx._faces(k + 2)
                assert matrix.indptr.dtype == faces.dtype
                assert faces.size == 0 or np.shares_memory(matrix.indices, faces)

    def test_top_degree_past_int64_base_keys(self):
        # d_3 of a 5-clique among 70,000 vertices: faces are 4-cliques, 70001**4 > 2**63
        assert (BIG_FIVE_CLIQUE.n_vertices + 1) ** 4 > 2**63
        cx = enumerate_cliques(BIG_FIVE_CLIQUE, 5)
        d3 = coboundary(cx, 3).matrix
        self.assert_bit_identical(d3, dict_coboundary(loop_enumerate_levels(BIG_FIVE_CLIQUE, 5), 3))
        assert d3.toarray().tolist() == [[1.0, -1.0, 1.0, -1.0, 1.0]]

    @given(st.integers(min_value=1, max_value=9).flatmap(
        lambda n: st.tuples(st.just(n), st.lists(st.booleans(), min_size=n * (n - 1) // 2,
                                                 max_size=n * (n - 1) // 2))))
    @settings(max_examples=60, deadline=None)
    def test_coboundary_squares_to_zero(self, graph_bits):
        n, bits = graph_bits
        pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
        cx = enumerate_cliques(Graph(n, frozenset(e for e, b in zip(pairs, bits) if b)), 5)
        for k in range(3):
            product = coboundary(cx, k + 1).matrix @ coboundary(cx, k).matrix
            assert product.shape == (cx.n_cliques(k + 3), cx.n_cliques(k + 1))
            assert not np.any(product.toarray())


class TestAdjoint:
    def test_unit_weights_is_transpose(self):
        cx = enumerate_cliques(LAP_ISO_A.graph, 3)
        op = coboundary(cx, 0)
        assert np.array_equal(adjoint(op).toarray(), op.matrix.toarray().T)

    def test_divergence_is_negative_adjoint(self, rng):
        g = random_graph(rng, 7, 0.6)
        cx = enumerate_cliques(g, 3)
        w = WeightScheme.from_table(
            {c: float(rng.uniform(0.5, 3.0)) for order in (1, 2) for c in cx.cliques(order)}
        )
        assert np.allclose(
            divergence_matrix(cx, w).toarray(), -adjoint(coboundary(cx, 0), w).toarray()
        )

    def test_gradient_adjoint_formula(self, rng):
        # independent elementwise evaluation of grad* X(i) = -sum_j (w_ij / w_i) X(i,j)
        g = random_graph(rng, 6, 0.7)
        cx = enumerate_cliques(g, 3)
        vweights = {(v,): float(rng.uniform(0.5, 2.0)) for v in range(1, 7)}
        eweights = {e: float(rng.uniform(0.5, 2.0)) for e in cx.cliques(2)}
        w = WeightScheme.from_table({**vweights, **eweights})
        x = Cochain(1, cx, rng.normal(size=cx.n_cliques(2)))
        got = adjoint(coboundary(cx, 0), w).toarray() @ x.values
        for i in range(1, g.n_vertices + 1):
            expected = -sum(
                w.weight(tuple(sorted((i, j)))) / w.weight((i,)) * x.eval((i, j))
                for j in neighbor_sets(g)[i]
            )
            assert got[i - 1] == pytest.approx(expected, abs=1e-12)

    def test_curl_adjoint_formula(self, rng):
        # independent elementwise evaluation of curl* Phi(i,j) = sum_k (w_ijk / w_ij) Phi(i,j,k)
        g = complete_graph(5)
        cx = enumerate_cliques(g, 3)
        eweights = {e: float(rng.uniform(0.5, 2.0)) for e in cx.cliques(2)}
        tweights = {t: float(rng.uniform(0.5, 2.0)) for t in cx.cliques(3)}
        w = WeightScheme.from_table({**eweights, **tweights})
        phi = Cochain(2, cx, rng.normal(size=cx.n_cliques(3)))
        got = adjoint(coboundary(cx, 1), w).toarray() @ phi.values
        for idx, (i, j) in enumerate(cx.cliques(2)):
            expected = sum(
                w.weight(tuple(sorted((i, j, k)))) / w.weight((i, j)) * phi.eval((i, j, k))
                for k in range(1, 6)
                if k not in (i, j)
            )
            assert got[idx] == pytest.approx(expected, abs=1e-12)

    def test_vertex_weight_two_halves_entries(self, c3_complex):
        w = WeightScheme.from_table({(v,): 2.0 for v in (1, 2, 3)})
        op = coboundary(c3_complex, 0)
        assert np.allclose(adjoint(op, w).toarray(), op.matrix.toarray().T / 2.0)

    def test_divergence_free_constant_cycle_flow(self, c3_complex):
        x = Cochain.from_dict(c3_complex, 1, {(1, 2): 2.0, (2, 3): 2.0, (3, 1): 2.0})
        netflow = divergence_matrix(c3_complex).toarray() @ x.values
        assert np.allclose(netflow, 0.0)


class TestHodgeLaplacian:
    def test_degree0_golden_exact(self):
        for golden, expected in ((LAP_ISO_A, LAPLACIAN_A), (LAP_ISO_B, LAPLACIAN_B)):
            cx = enumerate_cliques(golden.graph, 3)
            got = hodge_laplacian(cx, 0).dense()
            assert np.array_equal(got, expected)

    def test_degree1_golden_up_to_edge_orientation(self):
        for golden, expected in ((LAP_ISO_A, HELMHOLTZIAN_A), (LAP_ISO_B, HELMHOLTZIAN_B)):
            cx = enumerate_cliques(golden.graph, 3)
            got = hodge_laplacian(cx, 1).dense()
            signs = golden.edge_signs
            conjugated = reindexed(golden, expected * np.outer(signs, signs), cx)
            assert np.array_equal(got, conjugated)
            assert np.array_equal(np.sort(np.diag(got)), np.sort(np.diag(expected)))

    def test_degree2_single_triangle(self):
        cx = enumerate_cliques(FULL_ISO_A.graph, 4)
        assert np.array_equal(hodge_laplacian(cx, 2).dense(), [[3.0]])

    def test_unit_weight_degree0_is_degree_minus_adjacency(self, rng):
        g = random_graph(rng, 8, 0.5)
        cx = enumerate_cliques(g, 3)
        got = hodge_laplacian(cx, 0).dense()
        expected = np.diag(g.degrees).astype(float)
        for u, v in edge_set(g):
            expected[u - 1, v - 1] = -1.0
            expected[v - 1, u - 1] = -1.0
        assert np.array_equal(got, expected)

    def test_symmetric_psd_for_random_weights(self, rng):
        for _ in range(10):
            g = random_graph(rng, 7, 0.6)
            cx = enumerate_cliques(g, 4)
            entries = {}
            for order in range(1, 5):
                entries.update({c: float(rng.uniform(0.2, 3.0)) for c in cx.cliques(order)})
            w = WeightScheme.from_table(entries)
            for k in range(0, cx.max_order - 1):
                lap = hodge_laplacian(cx, k, w).dense()
                assert np.array_equal(lap, lap.T)
                if lap.size:
                    eig = np.linalg.eigvalsh(lap)
                    assert eig.min() >= -1e-10 * max(eig.max(), 1.0)

    def test_edge_laplacian_differs_from_helmholtzian_on_triangle(self, c3_complex):
        down = coboundary(c3_complex, 0).matrix.toarray()
        edge_laplacian = down @ down.T
        helmholtzian = hodge_laplacian(c3_complex, 1).dense()
        assert not np.array_equal(edge_laplacian, helmholtzian)

    def test_unknown_up_level_is_error(self):
        deep = complete_graph(4)
        cx = enumerate_cliques(deep, 4)
        clique_index(cx, 3)
        cx.locate([[1, 2, 3]])
        betti(cx, 1)  # leaves the triangles, their views and keys, d_1 and its Gram on the graph
        for g in (complete_graph(4), deep):
            shallow = enumerate_cliques(g, 2)
            for unknown in (lambda: hodge_laplacian(shallow, 1), lambda: shallow.level(3),
                            lambda: shallow.cliques(3), lambda: clique_index(shallow, 3),
                            lambda: shallow.locate([[1, 2, 3]]), lambda: coboundary(shallow, 1),
                            lambda: betti(shallow, 1)):
                with pytest.raises(ValueError, match="not enumerated"):
                    unknown()

    def test_degree_out_of_range(self, c4_complex):
        with pytest.raises(ValueError):
            hodge_laplacian(c4_complex, 3)


class TestApply:
    def test_curl_of_constant_triangle_flow(self, c3_complex):
        x = Cochain.from_dict(c3_complex, 1, {(1, 2): 2.0, (2, 3): 2.0, (3, 1): 2.0})
        curl = apply_operator(coboundary(c3_complex, 1), x)
        assert curl.degree == 2
        assert list(curl.values) == [6.0]

    def test_curl_on_square_is_zero_object(self, c4_complex):
        x = Cochain.from_dict(c4_complex, 1, {(1, 2): 2.0, (2, 3): 2.0, (3, 4): 2.0, (4, 1): 2.0})
        curl = apply_operator(coboundary(c4_complex, 1), x)
        assert curl.values.shape == (0,)

    def test_laplacian_kills_constants(self, rng):
        g = random_graph(rng, 8, 0.6)
        cx = enumerate_cliques(g, 3)
        const = Cochain(0, cx, np.full(8, 3.7))
        out = apply_operator(hodge_laplacian(cx, 0), const)
        assert np.allclose(out.values, 0.0, atol=1e-12)

    def test_degree_mismatch(self, c3_complex):
        f = Cochain.zero(c3_complex, 0)
        with pytest.raises(ValueError, match="degree"):
            apply_operator(coboundary(c3_complex, 1), f)

    def test_weighted_apply_matches_operator_action(self, rng):
        g = cycle_graph(5)
        cx = enumerate_cliques(g, 3)
        w = WeightScheme.from_table({(v,): float(rng.uniform(0.5, 2)) for v in range(1, 6)})
        f = Cochain(0, cx, rng.normal(size=5))
        lap = hodge_laplacian(cx, 0, w)
        got = apply_operator(lap, f).values
        down = coboundary(cx, 0)
        expected = adjoint(down, w).toarray() @ (down.matrix.toarray() @ f.values)
        assert np.allclose(got, expected, atol=1e-12)


class TestMatrixExport:
    def test_round_trip_bit_exact(self, rng):
        g = random_graph(rng, 8, 0.5)
        cx = enumerate_cliques(g, 3)
        op = coboundary(cx, 0)
        text = write_matrix(op.matrix)
        again = read_matrix(text)
        assert (again != op.matrix).nnz == 0
        assert write_matrix(again) == text

    def test_empty_matrix(self, c4_complex):
        op = coboundary(c4_complex, 1)
        text = write_matrix(op.matrix)
        again = read_matrix(text)
        assert again.shape == (0, 4)

    @pytest.mark.parametrize("text, lineno", [
        ("2 2 1\n1 1 nan\n", 2),
        ("2 2 1\n1 1 inf\n", 2),
        ("2 2 1\n1 1 -inf\n", 2),
        ("2 2 1\n1 1 1e999\n", 2),
        ("2 2 2\n1 1 1\n1 1 2\n", 3),  # a coordinate given twice
        ("2 2 1\n3 1 1\n", 2),
        ("2 2 1\n1 3 1\n", 2),
        ("2 2 1\n0 1 1\n", 2),
        ("2 2 1\n1 -1 1\n", 2),
        ("-2 2 0\n", 1),
        ("2 -2 0\n", 1),
        ("2 2 -1\n", 1),
        ("2 x 1\n", 1),
        ("2 2\n", 1),
        ("2 2 1\nx 1 1\n", 2),
        ("2 2 1\n1 1 x\n", 2),
        ("2 2 1\n1 1\n", 2),
        ("%%MatrixMarket matrix coordinate real general\n% note\n\n2 2 1\n1 1 1 1\n", 5),
    ])
    def test_reader_rejects_bad_documents_naming_the_line(self, text, lineno):
        with pytest.raises(InputFormatError, match=f"^line {lineno}: "):
            read_matrix(text)

    @pytest.mark.parametrize("size_line", ["100000000000000000000 1 0", "1 100000000000000000000 0"])
    def test_a_size_past_int64_names_the_line(self, size_line):
        with pytest.raises(InputFormatError, match="^line 2: size 100000000000000000000 is past int64$"):
            read_matrix(f"% sizes\n{size_line}\n")

    def test_a_row_pointer_past_physical_memory_names_the_line(self):
        """3e9 rows need a 24 GB row pointer (22.4 GiB); a machine with more memory is given more rows."""
        memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
        rows = max(3 * 10**9, memory // 8)
        with pytest.raises(InputFormatError, match=f"^line 1: the row pointer of {rows} rows needs {8 * (rows + 1)} "
                                                   f"bytes, more than the {memory} bytes of physical memory$"):
            read_matrix(f"{rows} 2 0\n")


def dense_scrub_laplacian(cx, k, w):
    """Hodge k-Laplacian assembled sparse, then symmetrized through a dense copy.

    This is the slow path hodge_laplacian replaced; its CSR arrays are the
    reference the sparse symmetrization must reproduce exactly.
    """
    n_here = cx.n_cliques(k + 1)
    lap = sp.csr_matrix((n_here, n_here))
    if n_here > 0:
        sqrt_w = np.sqrt(w.vector(cx, k))
        up = coboundary(cx, k).matrix
        if up.shape[0] > 0:
            scaled_up = sp.diags(np.sqrt(w.vector(cx, k + 1))) @ up @ sp.diags(1.0 / sqrt_w)
            lap = lap + scaled_up.transpose() @ scaled_up
        if k >= 1:
            down = coboundary(cx, k - 1).matrix
            scaled_down = sp.diags(sqrt_w) @ down @ sp.diags(1.0 / np.sqrt(w.vector(cx, k - 1)))
            lap = lap + scaled_down @ scaled_down.transpose()
    dense = lap.toarray()
    return sp.csr_matrix(0.5 * (dense + dense.T))


def random_table_weights(rng, cx, orders=None):
    """Random weights on every clique of the given orders (default: every enumerated order)."""
    entries = {}
    for order in orders or range(1, cx.max_order + 1):
        entries.update({c: float(rng.uniform(0.2, 3.0)) for c in cx.cliques(order)})
    return WeightScheme.from_table(entries)


def weight_schemes(rng, cx):
    """Unit, empty-table, empty-array, full-table and partial-table schemes: some orders tabled, others not."""
    partial = [random_table_weights(rng, cx, [o for o in orders if o <= cx.max_order])
               for orders in ((2,), (1, 3), (4,))]
    empty = WeightScheme({2: (np.empty((0, 2), dtype=np.int64), np.empty(0))})
    return [WeightScheme.unit(), WeightScheme.from_table({}), empty, random_table_weights(rng, cx), *partial]


class TestSparseSymmetrizationOracle:
    def assert_matches_oracle(self, cx, k, w):
        got = hodge_laplacian(cx, k, w).matrix
        ref = dense_scrub_laplacian(cx, k, w)
        assert got.shape == ref.shape
        assert np.array_equal(got.indptr, ref.indptr)
        assert np.array_equal(got.indices, ref.indices)
        assert np.array_equal(got.data, ref.data)

    def test_random_graphs_unit_and_table_weights(self, rng):
        for _ in range(12):
            g = random_graph(rng, int(rng.integers(4, 11)), 0.6)
            cx = enumerate_cliques(g, 5)
            for w in weight_schemes(rng, cx):
                for k in range(4):
                    self.assert_matches_oracle(cx, k, w)

    def test_empty_up_level(self, rng, c4_complex):
        # the 4-cycle has no triangles, so the up term of Delta_1 is empty
        for w in weight_schemes(rng, c4_complex):
            for k in range(3):
                self.assert_matches_oracle(c4_complex, k, w)

    def test_edgeless_graph(self, rng):
        cx = enumerate_cliques(Graph(5, frozenset()), 3)
        for w in weight_schemes(rng, cx):
            for k in range(3):
                self.assert_matches_oracle(cx, k, w)


class TestCoboundaryCache:
    def count_assembly(self, monkeypatch):
        calls = []
        assemble = operators._assemble_coboundary
        monkeypatch.setattr(operators, "_assemble_coboundary",
                            lambda cx, k: calls.append(k) or assemble(cx, k))
        return calls

    def assert_cache_matches_fresh_assembly(self, cx, degrees):
        for k in degrees:
            cached = coboundary(cx, k).matrix
            fresh = operators._assemble_coboundary(cx, k)
            assert cached.shape == fresh.shape
            assert np.array_equal(cached.indptr, fresh.indptr)
            assert np.array_equal(cached.indices, fresh.indices)
            assert np.array_equal(cached.data, fresh.data)

    def test_assembled_once_per_complex(self, rng, monkeypatch):
        calls = self.count_assembly(monkeypatch)
        cx = enumerate_cliques(random_graph(rng, 8, 0.6), 4)
        for _ in range(3):
            for k in range(3):
                assert coboundary(cx, k).matrix is coboundary(cx, k).matrix
                hodge_laplacian(cx, k)
        assert calls == [0, 1, 2]
        # every complex of the same graph shares its levels and operators
        coboundary(enumerate_cliques(cx.graph, 4), 1)
        shallow = enumerate_cliques(cx.graph, 2)
        assert shallow.level(2) is cx.level(2)
        assert coboundary(shallow, 0).matrix is coboundary(cx, 0).matrix
        assert calls == [0, 1, 2]
        # an equal but distinct graph builds its own
        coboundary(enumerate_cliques(Graph(cx.graph.n_vertices, edge_set(cx.graph)), 4), 1)
        assert calls == [0, 1, 2, 1]

    def test_cache_keeps_no_reference_cycle(self, rng):
        g = random_graph(rng, 8, 0.6)
        cx = enumerate_cliques(g, 4)
        for k in range(3):
            coboundary(cx, k)
            betti(cx, k)
            clique_index(cx, k + 1)
        refs = weakref.ref(cx), weakref.ref(g)
        del cx, g
        # both freed by reference counting, without a cyclic collection
        assert [ref() for ref in refs] == [None, None]

    def test_game_run_assembles_d1_once(self, monkeypatch):
        calls = self.count_assembly(monkeypatch)
        form = seeded_game(3, (3, 3, 3))
        sg = strategy_graph(form)
        split = decompose_game_flow(game_flow(form, sg))
        assert sg.complex.n_cliques(3) > 0
        assert calls.count(1) == 0  # the curl check and the round-off coexact rhs read the face array
        assert split.harmonic_flow.complex is sg.complex

    def test_pipelines_leave_cached_matrices_unmodified(self, rng):
        records = [(f"v{v}", f"i{i}", int(rng.integers(1, 6)))
                   for v in range(12) for i in rng.choice(10, 5, replace=False)]
        cf = aggregate(ComparisonData(ratings=tuple(records)))
        rank(cf)
        self.assert_cache_matches_fresh_assembly(cf.flow.complex, (0, 1))

        form = seeded_game(4, (3, 3, 2))
        flow = game_flow(form, strategy_graph(form))
        decompose_game_flow(flow)
        self.assert_cache_matches_fresh_assembly(flow.complex, (0, 1))

        cx = enumerate_cliques(random_graph(rng, 9, 0.6), 4)
        w = random_table_weights(rng, cx)
        for k in range(3):
            c = Cochain(k, cx, rng.normal(size=cx.n_cliques(k + 1)))
            for method in ("two-solve", "laplacian-residual"):
                for weights in (None, w):
                    hodge_decompose(c, weights, method=method)
            spectrum(hodge_laplacian(cx, k, w))
            betti(cx, k)
            harmonic_basis(cx, k, w)
            apply_operator(coboundary(cx, k), c)
            adjoint(coboundary(cx, k), w)
        divergence_matrix(cx, w)
        self.assert_cache_matches_fresh_assembly(cx, (0, 1, 2))


class TestFaceProducts:
    """_face_products' signed form against its oracle, scipy's CSR products with D = sp.diags(up) @ d_k, sorted as
    decompose sorts it, and with d_k itself when order k+2 has no table: the same bits, signed zeros included."""

    def assert_matches_csr(self, cx, k, w, rng):
        d, faces = coboundary(cx, k).matrix, cx._faces(k + 2)
        up = w.vector(cx, k + 1) if k + 2 in w.tables else 1.0
        if np.ndim(up):
            d = sp.diags(up) @ d
            d.sort_indices()
        x, y = special_floats(rng, d.shape[1]), special_floats(rng, d.shape[0])
        rows, cols = operators._face_products(faces, d.shape[1], x, y, up)
        assert rows.tobytes() == (d @ x).tobytes() and cols.tobytes() == (d.T @ y).tobytes(), k
        assert operators._face_products(faces, d.shape[1], x, None, up)[1] is None
        assert operators._face_products(faces, d.shape[1], None, y, up)[0] is None
        return d.nnz

    @pytest.mark.parametrize("block", [3, 1 << 13])
    def test_bit_equal_to_csr_under_unit_weights_and_tables(self, rng, monkeypatch, block):
        monkeypatch.setattr(operators, "_BLOCK", block)
        compared = {"empty": 0, "unit": 0, "table": 0}
        for graph, _ in oracle_graphs(rng):
            cx = enumerate_cliques(graph, 5)
            spread = WeightScheme.from_table({c: 10 ** rng.uniform(-2, 2) for o in range(1, 6) for c in cx.cliques(o)})
            for w in (WeightScheme.unit(), random_table_weights(rng, cx, [2, 3]), spread):
                for k in range(4):
                    nnz = self.assert_matches_csr(cx, k, w, rng)
                    compared["empty" if not nnz else "table" if k + 2 in w.tables else "unit"] += 1
        assert min(compared.values()) >= 20, compared

    @pytest.mark.parametrize("graph", [Graph(1, []), Graph(5, []), Graph(7, [(2, 5)])],
                             ids=["one-vertex", "edgeless", "one-edge"])
    def test_edgeless_graphs_and_empty_levels(self, graph, rng):
        cx = enumerate_cliques(graph, 5)
        for w in (WeightScheme.unit(), random_table_weights(rng, cx)):
            for k in range(4):
                self.assert_matches_csr(cx, k, w, rng)
