import tracemalloc
from fractions import Fraction
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphhodge import (
    Cut,
    Graph,
    apply_p_laplacian,
    cheeger_check,
    cheeger_constant,
    enumerate_cliques,
    hodge_laplacian,
)

import graphhodge.nonlinear as nonlinear
from conftest import (
    complete_graph,
    cycle_graph,
    edge_set,
    neighbor_sets,
    random_connected_graph,
    random_graph,
    sparse_cheeger_laplacian,
    sparse_p_laplacian,
    special_floats,
)


def p_laplacian_oracle(graph: Graph, f: np.ndarray, p: float) -> np.ndarray:
    """Direct per-vertex formula: sum over neighbors of |f(j)-f(i)|^(p-2) (f(i)-f(j))."""
    out, nbrs = np.zeros(graph.n_vertices), neighbor_sets(graph)
    for i in range(1, graph.n_vertices + 1):
        acc = 0.0
        for j in nbrs[i]:
            diff = f[j - 1] - f[i - 1]
            if diff != 0:
                acc += abs(diff) ** (p - 2) * (-diff)
        out[i - 1] = acc
    return out


def dense_incidence(graph: Graph) -> np.ndarray:
    """Dense gradient matrix built edge by edge: -1 at the smaller endpoint, +1 at the larger."""
    A = np.zeros((len(graph.sorted_edges), graph.n_vertices))
    for r, (u, v) in enumerate(graph.sorted_edges):
        A[r, u - 1] = -1.0
        A[r, v - 1] = 1.0
    return A


def dense_p1_intervals(graph: Graph, f: np.ndarray) -> np.ndarray:
    """p = 1 intervals from the dense incidence matrix (the path the sparse d0 replaced)."""
    A = dense_incidence(graph)
    grad = A @ f
    fixed = A.T @ np.sign(grad)
    free_edges = grad == 0
    slack = np.abs(A[free_edges]).sum(axis=0) if np.any(free_edges) else np.zeros(graph.n_vertices)
    return np.column_stack([fixed - slack, fixed + slack])


def scan_cheeger_constant(graph: Graph) -> tuple[Fraction, Cut]:
    """The chunked scan the meet-in-the-middle split replaced: one bit plane per vertex.

    Every mask with bit 0 set, 2^18 at a time; near-minimal masks are settled
    exactly as (Fraction, subset tuple) keys in a Python loop.
    """
    n = graph.n_vertices
    chunk = 1 << 18
    degrees = np.array(graph.degrees, dtype=np.int64)
    total_volume = int(degrees.sum())
    edge_bits = [(u - 1, v - 1) for u, v in graph.sorted_edges]

    best = None
    for start in range(0, 1 << (n - 1), chunk):
        stop = min(start + chunk, 1 << (n - 1))
        masks = (np.arange(start, stop, dtype=np.int64) << 1) | 1
        in_side = [(masks >> b) & 1 for b in range(n)]
        boundary = np.zeros(masks.shape[0], dtype=np.int64)
        for u, v in edge_bits:
            boundary += in_side[u] ^ in_side[v]
        vol = np.zeros(masks.shape[0], dtype=np.int64)
        for b in range(n):
            vol += in_side[b] * degrees[b]
        proper = vol < total_volume
        min_vol = np.minimum(vol, total_volume - vol)
        ratios = np.where(proper & (min_vol > 0), boundary / np.maximum(min_vol, 1), np.inf)
        near = np.flatnonzero(ratios <= ratios.min() * (1 + 1e-12) + 1e-300)
        for idx in near:
            if not proper[idx] or min_vol[idx] == 0:
                continue
            ratio = Fraction(int(boundary[idx]), int(min_vol[idx]))
            subset = tuple(b + 1 for b in range(n) if (int(masks[idx]) >> b) & 1)
            key = (ratio, subset, int(boundary[idx]), int(vol[idx]))
            if best is None or key[:2] < best[:2]:
                best = key
    ratio, subset, boundary_edges, vol_s = best
    return ratio, Cut(subset, boundary_edges, (vol_s, total_volume - vol_s), ratio)


def star_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(1, v) for v in range(2, n + 1)])


def complete_bipartite_graph(a: int, b: int) -> Graph:
    return Graph.from_edges(a + b, [(u, v) for u in range(1, a + 1) for v in range(a + 1, a + b + 1)])


def barbell_graph(n: int) -> Graph:
    """Two K_{n//2} joined by an edge, or through a middle vertex when n is odd."""
    m = n // 2
    edges = [*combinations(range(1, m + 1), 2), *combinations(range(n - m + 1, n + 1), 2)]
    edges += [(m, m + 1), (m + 1, n - m + 1)] if n % 2 else [(m, m + 1)]
    return Graph.from_edges(n, edges)


EDGELESS = Graph(5, frozenset())
ISOLATED_VERTICES = Graph.from_edges(8, [(1, 2), (2, 3), (1, 3), (5, 6)])  # 4, 7, 8 isolated


class TestPLaplacian:
    def test_p2_equals_graph_laplacian(self, rng):
        for _ in range(15):
            g = random_graph(rng, int(rng.integers(2, 10)), 0.5)
            cx = enumerate_cliques(g, 3)
            lap = hodge_laplacian(cx, 0).dense()
            f = rng.normal(size=g.n_vertices)
            assert np.allclose(apply_p_laplacian(g, f, 2.0), lap @ f, atol=1e-12)

    def test_path_p3_example(self):
        path = Graph.from_edges(3, [(1, 2), (2, 3)])
        f = np.array([0.0, 1.0, 3.0])
        got = apply_p_laplacian(path, f, 3.0)
        assert np.allclose(got, p_laplacian_oracle(path, f, 3.0))
        assert got == pytest.approx([-1.0, -3.0, 4.0])

    def test_matches_oracle_for_various_p(self, rng):
        for p in (1.5, 2.0, 2.5, 3.0, 4.0):
            for g in (random_connected_graph(rng, 7), EDGELESS, ISOLATED_VERTICES):
                f = rng.normal(size=g.n_vertices)
                got = apply_p_laplacian(g, f, p)
                assert np.allclose(got, p_laplacian_oracle(g, f, p), atol=1e-10)

    def test_oddness(self, rng):
        g = random_connected_graph(rng, 6)
        f = rng.normal(size=6)
        for p in (1.5, 2.0, 3.0):
            assert np.allclose(
                apply_p_laplacian(g, -f, p), -apply_p_laplacian(g, f, p), atol=1e-12
            )

    def test_constant_function(self):
        g = cycle_graph(5)
        f = np.full(5, 2.5)
        assert np.allclose(apply_p_laplacian(g, f, 3.0), 0.0)
        assert np.allclose(apply_p_laplacian(g, f, 1.0, mode="selection"), 0.0)
        intervals = apply_p_laplacian(g, f, 1.0)
        # intervals are symmetric and contain the zero representative
        assert np.allclose(intervals[:, 0], -intervals[:, 1])
        assert np.all(intervals[:, 0] <= 0.0) and np.all(intervals[:, 1] >= 0.0)

    def test_p1_intervals_negate(self, rng):
        for g in (random_connected_graph(rng, 6), EDGELESS, ISOLATED_VERTICES):
            f = rng.integers(0, 3, size=g.n_vertices).astype(float)  # forces some flat edges
            a = apply_p_laplacian(g, f, 1.0)
            b = apply_p_laplacian(g, -f, 1.0)
            assert np.allclose(a[:, 0], -b[:, 1])
            assert np.allclose(a[:, 1], -b[:, 0])

    def test_p1_selection_lies_inside_interval(self, rng):
        for g in (random_connected_graph(rng, 7), EDGELESS, ISOLATED_VERTICES):
            f = rng.integers(-2, 3, size=g.n_vertices).astype(float)
            intervals = apply_p_laplacian(g, f, 1.0)
            sel = apply_p_laplacian(g, f, 1.0, mode="selection")
            assert np.all(intervals[:, 0] <= sel + 1e-12)
            assert np.all(sel <= intervals[:, 1] + 1e-12)

    def test_p1_interval_width_counts_flat_edges(self):
        path = Graph.from_edges(3, [(1, 2), (2, 3)])
        f = np.array([1.0, 1.0, 5.0])
        intervals = apply_p_laplacian(path, f, 1.0)
        # edge (1,2) is flat: one unit of slack at vertices 1 and 2
        assert intervals[0].tolist() == [-1.0, 1.0]
        assert intervals[1].tolist() == [-2.0, 0.0]
        assert intervals[2].tolist() == [1.0, 1.0]

    def test_p_below_one_rejected(self):
        for p in (0.5, 0.0, -3.0, -np.inf, np.nan):
            with pytest.raises(ValueError, match="p must be"):
                apply_p_laplacian(cycle_graph(3), np.zeros(3), p)

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError, match="expected 3 vertex values"):
            apply_p_laplacian(cycle_graph(3), np.zeros(4), 2.0)


class TestDenseIncidenceOracle:
    def graphs(self, rng):
        yield EDGELESS
        yield ISOLATED_VERTICES
        for _ in range(10):
            yield random_graph(rng, int(rng.integers(2, 12)), 0.5)

    def test_p1_intervals_are_exact(self, rng):
        for g in self.graphs(rng):
            f = rng.integers(-2, 3, size=g.n_vertices).astype(float)
            assert np.array_equal(apply_p_laplacian(g, f, 1.0), dense_p1_intervals(g, f))

    def test_p_above_one_matches_dense_product(self, rng):
        for g in self.graphs(rng):
            f = rng.normal(size=g.n_vertices)
            A = dense_incidence(g)
            for p in (1.5, 2.0, 3.0):
                grad = A @ f
                ref = A.T @ (np.sign(grad) * np.abs(grad) ** (p - 1.0))
                assert np.allclose(apply_p_laplacian(g, f, p), ref, rtol=0, atol=1e-12)

    def test_cheeger_eigenvalues_are_exact(self, rng):
        for _ in range(10):
            g = random_connected_graph(rng, int(rng.integers(2, 10)))
            A = dense_incidence(g)
            scale = 1.0 / np.sqrt(np.array(g.degrees, dtype=float))
            laplacian = A.T @ A
            report = cheeger_check(g)
            assert report.lambda2_plain == np.linalg.eigvalsh(laplacian)[1]
            normalized = scale[:, None] * laplacian * scale[None, :]
            assert report.lambda2_normalized == np.linalg.eigvalsh(normalized)[1]


def assert_same_bits(got: np.ndarray, ref: np.ndarray) -> None:
    assert got.shape == ref.shape
    assert np.array_equal(got, ref, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(ref))


class TestSparseOracle:
    """The edge-array gradient and dense Cheeger Laplacian against the sparse d_0 products they replaced."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 14), st.floats(0.0, 1.0), st.sampled_from(["special", "ties"]),
           st.integers(0, 2**32 - 1))
    def test_p_laplacian_bit_identical(self, n, density, values, seed):
        rng = np.random.default_rng(seed)
        g = random_graph(rng, n, density)
        if values == "special":  # signed zeros, extreme exponents and normal draws of random magnitude
            f = special_floats(rng, n)
        else:  # few distinct values, so many flat edges
            f = rng.choice([-0.0, 0.0, 1.0, -1.0, 2.5], n)
        if len(g.pairs):  # one edge holds 0 at one end and -0.0 at the other
            u, v = g.pairs[rng.integers(len(g.pairs))] - 1
            f[u], f[v] = rng.permutation([0.0, -0.0])
        with np.errstate(all="ignore"):  # 1e300 to a power overflows on both paths alike
            for p in (1.0001, 1.5, 2.0, 3.0, 7.0):
                assert_same_bits(apply_p_laplacian(g, f, p), sparse_p_laplacian(g, f, p))
            for mode in ("interval", "selection"):
                assert_same_bits(apply_p_laplacian(g, f, 1.0, mode), sparse_p_laplacian(g, f, 1.0, mode))

    def test_signed_zero_gradient(self):
        g = Graph.from_edges(3, [(1, 2), (2, 3)])
        for f in ([0.0, -0.0, 1.0], [-0.0, 0.0, -0.0], [0.0, -0.0, 0.0]):
            f = np.array(f)
            for p in (1.0001, 2.0, 3.0):
                assert_same_bits(apply_p_laplacian(g, f, p), sparse_p_laplacian(g, f, p))
            for mode in ("interval", "selection"):
                assert_same_bits(apply_p_laplacian(g, f, 1.0, mode), sparse_p_laplacian(g, f, 1.0, mode))

    @pytest.mark.parametrize("n", [1, 4])
    def test_edgeless_graph_gives_float_zeros(self, n):
        g, f = Graph(n, []), np.arange(n, dtype=float)
        for p, mode in ((3.0, "interval"), (1.0, "interval"), (1.0, "selection")):
            got = apply_p_laplacian(g, f, p, mode)
            assert got.dtype == np.float64  # np.bincount of no weights is int64
            assert_same_bits(got, sparse_p_laplacian(g, f, p, mode))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 12), st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))
    def test_cheeger_laplacians_bit_identical(self, n, extra, seed):
        g = random_connected_graph(np.random.default_rng(seed), n, extra)
        seen, lambda2 = [], nonlinear._lambda2
        with mock.patch.object(nonlinear, "_lambda2", lambda m: seen.append(m) or lambda2(m)):
            cheeger_check(g)
        laplacian = sparse_cheeger_laplacian(g)
        scale = 1.0 / np.sqrt(np.array(g.degrees, dtype=float))
        assert_same_bits(seen[0], laplacian)
        assert_same_bits(seen[1], scale[:, None] * laplacian * scale[None, :])


class TestCheegerConstant:
    def test_square(self):
        h, cut = cheeger_constant(cycle_graph(4))
        assert h == Fraction(1, 2)
        assert cut.subset == (1, 2)
        assert cut.boundary_edges == 2
        assert cut.volumes == (4, 4)

    def test_complete_four(self):
        h, cut = cheeger_constant(complete_graph(4))
        assert h == Fraction(2, 3)
        assert len(cut.subset) == 2
        assert cut.boundary_edges == 4

    def test_single_edge(self):
        h, cut = cheeger_constant(Graph.from_edges(2, [(1, 2)]))
        assert h == Fraction(1, 1)
        assert cut.subset == (1,)
        assert cut.volumes == (1, 1)

    def test_exhaustive_matches_direct_enumeration(self, rng):
        from itertools import combinations

        for _ in range(10):
            g = random_connected_graph(rng, int(rng.integers(3, 9)))
            n, edges, nbrs = g.n_vertices, edge_set(g), neighbor_sets(g)
            best = None
            for size in range(1, n):
                for subset in combinations(range(1, n + 1), size):
                    s = set(subset)
                    boundary = sum(1 for u, v in edges if (u in s) != (v in s))
                    vol_s = sum(len(nbrs[v]) for v in subset)
                    vol_c = sum(g.degrees) - vol_s
                    ratio = Fraction(boundary, min(vol_s, vol_c))
                    if best is None or ratio < best:
                        best = ratio
            h, _ = cheeger_constant(g)
            assert h == best

    def test_relabeling_invariance(self, rng):
        g = random_connected_graph(rng, 8)
        perm = list(rng.permutation(np.arange(1, 9)))
        relabeled = Graph.from_edges(8, [(perm[u - 1], perm[v - 1]) for u, v in edge_set(g)])
        assert cheeger_constant(g)[0] == cheeger_constant(relabeled)[0]

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError, match="connected"):
            cheeger_constant(Graph.from_edges(4, [(1, 2), (3, 4)]))

    def test_too_large_rejected(self):
        g = cycle_graph(30)
        with pytest.raises(ValueError, match="capped at 24"):
            cheeger_constant(g)

    def test_complete_graph_closed_form(self):
        # h(K_n) = ceil(n/2) / (n-1); every half ties, and the first floor(n/2) vertices win
        for n in (*range(2, 9), 24):
            h, cut = cheeger_constant(complete_graph(n))
            assert h == Fraction((n + 1) // 2, n - 1)
            assert cut.subset == tuple(range(1, n // 2 + 1))

    def test_cycle_closed_form(self):
        # h(C_n) = 1 / floor(n/2): two edges cut off an arc of floor(n/2) vertices
        for n in (*range(3, 10), 24):
            h, cut = cheeger_constant(cycle_graph(n))
            assert h == Fraction(1, n // 2)
            assert cut.subset == tuple(range(1, n // 2 + 1))
            assert cut.boundary_edges == 2
            assert cut.volumes == (2 * (n // 2), 2 * (n - n // 2))

    def test_memory_is_bounded_by_the_block(self, rng):
        g = random_connected_graph(rng, 24)
        tracemalloc.start()
        try:
            cheeger_constant(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 32 * 2**20


class TestCheegerScanOracle:
    def test_seeded_graphs_at_every_n(self, rng):
        for n in range(2, 23):
            for extra in (0.1, 0.4) if n <= 16 else (0.3,):
                g = random_connected_graph(rng, n, extra)
                assert cheeger_constant(g) == scan_cheeger_constant(g), (n, extra)

    def test_tie_heavy_families(self):
        # from n = 20 on the cuts span several blocks, and the cycles' tied arcs lie in different ones
        graphs = [cycle_graph(21), cycle_graph(22)]
        for n in range(2, 17):
            graphs += [complete_graph(n), star_graph(n), complete_bipartite_graph(n // 2, n - n // 2)]
            if n >= 3:
                graphs.append(cycle_graph(n))
            if n >= 4:
                graphs += [barbell_graph(n), complete_bipartite_graph(1 + n // 4, n - 1 - n // 4)]
        for g in graphs:
            assert cheeger_constant(g) == scan_cheeger_constant(g), g

    def test_past_eight_blocks(self):
        # n = 23 is 16 blocks and n = 24 is 32; the cycle's tied arcs lie in different blocks, the winning one
        # in the last, next to the cell S = V
        graphs = [random_connected_graph(np.random.default_rng(23), 23), cycle_graph(24), barbell_graph(24)]
        for g in graphs:
            assert cheeger_constant(g) == scan_cheeger_constant(g), g


class TestCheegerInequality:
    def test_square_report(self):
        report = cheeger_check(cycle_graph(4))
        assert float(report.h) == 0.5
        assert report.lambda2_normalized == pytest.approx(1.0, abs=1e-12)
        assert report.normalized_holds
        assert not report.plain_holds  # 0.5 * 2 > 1/2 for the plain Laplacian

    def test_single_edge_boundary_tight(self):
        report = cheeger_check(Graph.from_edges(2, [(1, 2)]))
        assert report.lambda2_normalized == pytest.approx(2.0, abs=1e-12)
        assert report.normalized_holds  # 1/2 * 2 == 1 == h

    def test_complete_graphs(self):
        for n in range(2, 9):
            report = cheeger_check(complete_graph(n))
            assert report.lambda2_normalized == pytest.approx(n / (n - 1), abs=1e-10)
            assert report.normalized_holds

    def test_normalized_inequality_on_random_graphs(self, rng):
        for _ in range(40):
            g = random_connected_graph(rng, int(rng.integers(2, 13)))
            assert cheeger_check(g).normalized_holds
