import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from graphhodge import (
    Cochain,
    Graph,
    WeightScheme,
    betti,
    coboundary,
    compare_fingerprints,
    enumerate_cliques,
    harmonic_basis,
    hodge_laplacian,
    inner_product,
    isospectral_fingerprint,
    norm,
    spectrum,
)
import graphhodge.complexes as complexes
import graphhodge.spectral as spectral
from graphhodge.cli import main
from graphhodge.operators import _weighted_coboundary
from graphhodge.spectral import _gram, _kernel_mask

from conftest import (
    FULL_ISO_A,
    FULL_ISO_B,
    LAP_ISO_A,
    LAP_ISO_B,
    SHARED_SPECTRUM_0,
    SPECTRUM_1_A,
    SPECTRUM_1_B,
    complete_graph,
    cycle_graph,
    diags_coboundary,
    random_graph,
    random_interval_graph,
    sparse_gram,
    union_find_components,
    wheel_graph,
)
from test_operators import random_table_weights, weight_schemes


class TestSpectrum:
    def test_degree0_golden(self):
        for golden in (LAP_ISO_A, LAP_ISO_B):
            cx = enumerate_cliques(golden.graph, 3)
            spec = spectrum(hodge_laplacian(cx, 0))
            assert np.max(np.abs(spec.eigenvalues - SHARED_SPECTRUM_0)) < 1e-9

    def test_degree1_golden(self):
        cx_a = enumerate_cliques(LAP_ISO_A.graph, 3)
        cx_b = enumerate_cliques(LAP_ISO_B.graph, 3)
        spec_a = spectrum(hodge_laplacian(cx_a, 1))
        spec_b = spectrum(hodge_laplacian(cx_b, 1))
        assert np.max(np.abs(spec_a.eigenvalues - SPECTRUM_1_A)) < 1e-9
        assert np.max(np.abs(spec_b.eigenvalues - SPECTRUM_1_B)) < 1e-9

    def test_empty_graph_all_zeros(self):
        g = Graph(6, frozenset())
        cx = enumerate_cliques(g, 3)
        spec = spectrum(hodge_laplacian(cx, 0))
        assert spec.eigenvalues.shape == (6,)
        assert np.all(spec.eigenvalues == 0.0)
        assert spec.kernel_dim == 6

    def test_ascending_and_deterministic(self, rng):
        g = random_graph(rng, 9, 0.5)
        cx = enumerate_cliques(g, 3)
        a = spectrum(hodge_laplacian(cx, 1))
        b = spectrum(hodge_laplacian(cx, 1))
        assert np.array_equal(a.eigenvalues, b.eigenvalues)
        assert np.all(np.diff(a.eigenvalues) >= 0)
        assert np.all(a.eigenvalues >= -a.tolerance)

    def test_trace_identity(self, rng):
        g = random_graph(rng, 8, 0.6)
        cx = enumerate_cliques(g, 3)
        lap = hodge_laplacian(cx, 1)
        spec = spectrum(lap)
        assert spec.eigenvalues.sum() == pytest.approx(np.trace(lap.dense()), rel=1e-10)

    def test_with_tolerance_recounts_kernel(self, rng):
        g = random_graph(rng, 9, 0.5)
        cx = enumerate_cliques(g, 3)
        spec = spectrum(hodge_laplacian(cx, 1))
        assert spec.with_tolerance(spec.tolerance) == spec
        for tol in (0.5, 2.0, 1e6):
            again = spec.with_tolerance(tol)
            assert again.tolerance == tol
            assert again.kernel_dim == int(np.count_nonzero(spec.eigenvalues <= tol))
            assert again.eigenvalues is spec.eigenvalues

    def test_harmonic_basis_size_is_kernel_dim(self, rng):
        for _ in range(5):
            cx = enumerate_cliques(random_graph(rng, 8, 0.4), 3)
            for k in (0, 1):
                assert len(harmonic_basis(cx, k)) == spectrum(hodge_laplacian(cx, k)).kernel_dim


class TestBetti:
    def test_cycles(self):
        assert betti(enumerate_cliques(cycle_graph(3), 3), 1) == 0
        assert betti(enumerate_cliques(cycle_graph(4), 3), 1) == 1
        for n in range(5, 11):
            assert betti(enumerate_cliques(cycle_graph(n), 3), 1) == 1

    def test_wheels(self):
        for n in (5, 6, 7):
            assert betti(enumerate_cliques(wheel_graph(n), 3), 1) == 0

    def test_component_count_matches_union_find(self, rng):
        for _ in range(60):
            n = int(rng.integers(1, 13))
            g = random_graph(rng, n, float(rng.uniform(0.05, 0.5)))
            cx = enumerate_cliques(g, 2)
            assert betti(cx, 0) == union_find_components(g)

    def test_chordal_graphs_have_no_one_dimensional_holes(self, rng):
        for _ in range(25):
            g = random_interval_graph(rng, int(rng.integers(3, 10)))
            cx = enumerate_cliques(g, 3)
            assert betti(cx, 1) == 0

    def test_euler_characteristic(self, rng):
        for _ in range(15):
            n = int(rng.integers(2, 11))
            g = random_graph(rng, n, float(rng.uniform(0.2, 0.8)))
            cx = enumerate_cliques(g, n + 1)
            omega = cx.clique_number()
            lhs = sum((-1) ** k * betti(cx, k) for k in range(omega))
            rhs = sum((-1) ** k * cx.n_cliques(k + 1) for k in range(omega))
            assert lhs == rhs

    def test_rank_nullity_consistency(self, rng):
        # dim ker Delta_k = dim ker d_k - rank d_{k-1}
        for _ in range(10):
            g = random_graph(rng, 8, 0.5)
            cx = enumerate_cliques(g, 4)
            for k in range(1, 3):
                up = coboundary(cx, k).matrix.toarray()
                down = coboundary(cx, k - 1).matrix.toarray()
                if up.shape[1] == 0:
                    continue
                dim_ker_up = up.shape[1] - np.linalg.matrix_rank(up) if up.size else up.shape[1]
                rank_down = np.linalg.matrix_rank(down) if down.size else 0
                assert betti(cx, k) == dim_ker_up - rank_down


class TestHarmonicBasis:
    def test_square_cycle_flow(self, c4_complex):
        basis = harmonic_basis(c4_complex, 1)
        assert len(basis) == 1
        magnitudes = np.abs(basis[0].values)
        assert np.allclose(magnitudes, magnitudes[0])
        assert norm(basis[0]) == pytest.approx(1.0)

    def test_triangle_has_none(self, c3_complex):
        assert harmonic_basis(c3_complex, 1) == []

    def test_two_disjoint_triangles_span_piecewise_constants(self):
        g = Graph.from_edges(6, [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6)])
        cx = enumerate_cliques(g, 3)
        basis = harmonic_basis(cx, 0)
        assert len(basis) == 2
        indicators = np.zeros((6, 2))
        indicators[:3, 0] = 1.0
        indicators[3:, 1] = 1.0
        stacked = np.column_stack([b.values for b in basis])
        proj_basis = stacked @ stacked.T
        q, _ = np.linalg.qr(indicators)
        proj_ind = q @ q.T
        assert np.allclose(proj_basis, proj_ind, atol=1e-10)

    def test_basis_is_closed_and_coclosed(self, rng):
        g = cycle_graph(6)
        cx = enumerate_cliques(g, 3)
        for b in harmonic_basis(cx, 1):
            up = coboundary(cx, 1).matrix
            down = coboundary(cx, 0).matrix
            assert np.linalg.norm(up @ b.values) < 1e-10 if up.shape[0] else True
            assert np.linalg.norm(down.T @ b.values) < 1e-10

    def test_orthonormal_in_weighted_inner_product(self, rng):
        g = Graph.from_edges(6, [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6)])
        cx = enumerate_cliques(g, 3)
        from graphhodge import WeightScheme

        w = WeightScheme.from_table({(v,): float(rng.uniform(0.5, 2)) for v in range(1, 7)})
        basis = harmonic_basis(cx, 0, w)
        for i, a in enumerate(basis):
            for j, b in enumerate(basis):
                assert inner_product(a, b, w) == pytest.approx(1.0 if i == j else 0.0, abs=1e-10)


class TestFingerprints:
    def test_pair_distinguished_at_degree_one(self):
        fa = isospectral_fingerprint(LAP_ISO_A.graph, 1)
        fb = isospectral_fingerprint(LAP_ISO_B.graph, 1)
        distinguished, level = compare_fingerprints(fa, fb)
        assert distinguished and level == 1
        assert np.max(np.abs(fa[0].eigenvalues - fb[0].eigenvalues)) < 1e-9

    def test_pair_never_distinguished(self):
        fa = isospectral_fingerprint(FULL_ISO_A.graph, 2)
        fb = isospectral_fingerprint(FULL_ISO_B.graph, 2)
        distinguished, level = compare_fingerprints(fa, fb)
        assert not distinguished and level is None

    def test_self_comparison(self, rng):
        g = random_graph(rng, 7, 0.5)
        fa = isospectral_fingerprint(g, 2)
        fb = isospectral_fingerprint(g, 2)
        assert compare_fingerprints(fa, fb) == (False, None)

    def test_length_mismatch_rejected(self):
        fa = isospectral_fingerprint(cycle_graph(4), 1)
        fb = isospectral_fingerprint(cycle_graph(4), 2)
        with pytest.raises(ValueError):
            compare_fingerprints(fa, fb)


def dense_spectrum(cx, k, w):
    """The dense path spectrum replaced: eigvalsh of the whole Delta_k, then the kernel rule."""
    lap = hodge_laplacian(cx, k, w)
    if lap.shape[0] == 0:
        return np.zeros(0), 0
    eigvals = np.linalg.eigvalsh(lap.dense())
    mask, _ = _kernel_mask(eigvals)
    return eigvals, int(np.count_nonzero(mask))


def exact_rank(op) -> int:
    """Rank over the rationals of a 0/+-1 coboundary matrix."""
    if min(op.shape) == 0:
        return 0
    return sympy.Matrix(op.matrix.toarray().astype(int)).rank()


def oracle_complexes(rng):
    """Random graphs with 4-cliques plus the degenerate shapes, each enumerated to order 5."""
    graphs = [random_graph(rng, int(rng.integers(6, 10)), float(rng.uniform(0.6, 0.8))) for _ in range(8)]
    graphs += [
        Graph(5, frozenset()),  # edgeless
        cycle_graph(4),  # no triangles: empty up level at k = 1
        Graph.from_edges(9, [(1, 2), (2, 3), (1, 3), (3, 4), (4, 5), (3, 5), (2, 4)]),  # 6-9 isolated
    ]
    return [enumerate_cliques(g, 5) for g in graphs]


class TestGramSpectraOracle:
    def test_matches_dense_laplacian_eigensolve(self, rng):
        seen_four_cliques = False
        for cx in oracle_complexes(rng):
            seen_four_cliques |= cx.n_cliques(4) > 0
            for w in weight_schemes(rng, cx):
                for k in range(4):
                    got = spectrum(hodge_laplacian(cx, k, w))
                    ref, ref_kernel = dense_spectrum(cx, k, w)
                    assert got.eigenvalues.shape == ref.shape
                    if ref.size:
                        err = np.max(np.abs(got.eigenvalues - ref))
                        assert err <= 1e-10 * max(1.0, ref[-1])
                    assert got.kernel_dim == ref_kernel
                    assert betti(cx, k, w) == ref_kernel
                    # kernel eigenvalues are exact zeros and nothing else is
                    assert np.count_nonzero(got.eigenvalues == 0.0) == got.kernel_dim
                    assert got.with_tolerance(got.tolerance) == got
        assert seen_four_cliques

    def test_betti_is_rank_nullity_with_exact_ranks(self, rng):
        for cx in oracle_complexes(rng):
            ranks = [exact_rank(coboundary(cx, j)) for j in range(4)]
            w = random_table_weights(rng, cx)
            for k in range(4):
                expected = cx.n_cliques(k + 1) - (ranks[k - 1] if k >= 1 else 0) - ranks[k]
                assert betti(cx, k) == expected
                assert betti(cx, k, w) == expected

    def test_fingerprint_matches_dense_oracle(self, rng):
        for _ in range(5):
            g = random_graph(rng, 8, 0.6)
            fp = isospectral_fingerprint(g, 2)
            cx = enumerate_cliques(g, 4)
            for k, spec in enumerate(fp):
                ref, ref_kernel = dense_spectrum(cx, k, WeightScheme.unit())
                assert np.max(np.abs(spec.eigenvalues - ref), initial=0.0) <= 1e-10 * max(1.0, np.max(ref, initial=0.0))
                assert spec.kernel_dim == ref_kernel

    def test_betti_and_fingerprint_build_no_laplacian(self, rng, monkeypatch):
        import graphhodge.spectral as spectral

        def forbidden(*args, **kwargs):
            raise AssertionError("built a Hodge Laplacian")

        monkeypatch.setattr(spectral, "hodge_laplacian", forbidden)
        g = random_graph(rng, 8, 0.5)
        cx = enumerate_cliques(g, 4)
        assert [betti(cx, k) for k in range(3)] == [s.kernel_dim for s in isospectral_fingerprint(g, 2)]

    def test_unit_gram_spectra_computed_once_per_complex(self, rng, monkeypatch):
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a.shape) or eigvalsh(a))
        cx = enumerate_cliques(random_graph(rng, 9, 0.7), 4)
        assert cx.n_cliques(4) > 0
        for _ in range(2):
            for k in range(3):
                spectrum(hodge_laplacian(cx, k))
                betti(cx, k)
                betti(cx, k, WeightScheme.from_table({}))
        assert len(calls) == 3  # one Gram for each of d_0, d_1, d_2
        isospectral_fingerprint(cx.graph, 2)  # enumerates the same graph again
        assert len(calls) == 3
        w = random_table_weights(rng, cx)
        betti(cx, 1, w)
        betti(cx, 1, w)
        assert len(calls) == 7  # weighted spectra are not cached

    def test_gram_cache_serves_every_scheme_that_leaves_d_j_unscaled(self, rng, monkeypatch):
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a.shape) or eigvalsh(a))
        cx = enumerate_cliques(random_graph(rng, 9, 0.7), 5)
        assert cx.n_cliques(4) > 0
        unit = [betti(cx, k) for k in range(3)]
        assert len(calls) == 3
        tetra = random_table_weights(rng, cx, [4])  # scales d_2 and d_3, leaves d_0 and d_1 as they are
        assert [betti(cx, k, tetra) for k in range(2)] == unit[:2]
        assert len(calls) == 3
        betti(cx, 2, tetra)
        assert len(calls) == 4  # d_1 from the cache, the scaled d_2 eigensolved


def spread_weights(rng, cx, decades: float, partial: bool) -> WeightScheme:
    """Weights 10^U(-decades, decades) on every clique of every order, or on about half the cliques of a random
    subset of the orders."""
    orders = [o for o in range(1, cx.max_order + 1) if not partial or rng.random() < 0.6]
    return WeightScheme.from_table({c: float(10 ** rng.uniform(-decades, decades))
                                    for o in orders for c in cx.cliques(o) if not partial or rng.random() < 0.5})


def gram_schemes(rng, cx):
    """Unit weights, the empty and partial tables of weight_schemes, and full and partial tables spanning
    10^+-3 and 10^+-150."""
    spread = [spread_weights(rng, cx, decades, partial) for decades in (3, 150) for partial in (False, True)]
    return [*weight_schemes(rng, cx), *spread]


class TestFaceArrayGramOracle:
    """The Gram built from the face array is the sparse product's, bit for bit, and so are its eigenvalues."""

    def assert_matches_sparse_gram(self, cx, rng):
        for w in gram_schemes(rng, cx):
            for j in range(4):
                got, ref = _gram(cx, j, w), sparse_gram(cx, j, w)
                assert got.shape == ref.shape and np.array_equal(got, ref), (j, w.tables.keys())
                b, old = _weighted_coboundary(cx, j, w), diags_coboundary(cx, j, w)
                assert np.array_equal(b.data, old.data) and np.array_equal(b.indices, old.indices)
                assert np.array_equal(b.indptr, old.indptr) and b.shape == old.shape

    @given(st.integers(1, 10), st.floats(0.2, 0.95), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_random_complexes(self, n, p, seed):
        rng = np.random.default_rng(seed)
        self.assert_matches_sparse_gram(enumerate_cliques(random_graph(rng, n, p), 5), rng)

    def test_ties_and_empty_levels(self, rng):
        shapes = {
            "C5": (cycle_graph(5), [(0, 5, 5)]),  # as many edges as vertices, and no triangle
            "K5": (complete_graph(5), [(1, 10, 10)]),  # as many triangles as edges
            "K6": (complete_graph(6), [(2, 15, 20), (3, 6, 15)]),
            "edgeless": (Graph(4, frozenset()), [(0, 0, 4)]),
            "one vertex": (Graph(1, frozenset()), [(0, 0, 1)]),
        }
        for graph, sizes in shapes.values():
            cx = enumerate_cliques(graph, 5)
            for j, rows, cols in sizes:
                d = diags_coboundary(cx, j, WeightScheme.unit())
                assert d.shape == (rows, cols)
                expected = (d @ d.T if rows < cols else d.T @ d).toarray()  # a tie takes the column Gram
                assert np.array_equal(_gram(cx, j, WeightScheme.unit()), expected)
            self.assert_matches_sparse_gram(cx, rng)

    def test_eigenvalues_bit_identical_on_dense_weighted_complexes(self, rng):
        for _ in range(3):
            cx = enumerate_cliques(random_graph(rng, 12, 0.8), 5)
            for w in (WeightScheme.unit(), spread_weights(rng, cx, 3, False), spread_weights(rng, cx, 150, True)):
                for j in range(3):
                    got, ref = _gram(cx, j, w), sparse_gram(cx, j, w)
                    assert np.array_equal(np.linalg.eigvalsh(got), np.linalg.eigvalsh(ref))


class TestGramSizeGuard:
    """A Gram that, with eigvalsh's copy, would not fit in physical memory is refused before it is allocated."""

    @staticmethod
    def probe(monkeypatch, pages):
        """os.sysconf reporting the given number of one-byte pages."""
        monkeypatch.setattr(complexes.os, "sysconf", lambda name: {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": pages}[name])

    def test_refused_past_physical_memory(self, monkeypatch):
        cx = enumerate_cliques(complete_graph(6), 3)  # d_1: 20 triangles x 15 edges, Gram side 15
        self.probe(monkeypatch, 2 * 8 * 15**2 - 1)
        with pytest.raises(ValueError, match="Gram of d_1 has side 15: .* needs 3600 bytes, more than the 3599"):
            betti(cx, 1)
        self.probe(monkeypatch, 2 * 8 * 15**2)
        assert betti(cx, 1) == 0

    def test_cli_exits_1_naming_side_and_bytes(self, monkeypatch, tmp_path, capsys):
        path = tmp_path / "k6.txt"
        path.write_text("".join(f"{u} {v}\n" for u in range(1, 7) for v in range(u + 1, 7)))
        self.probe(monkeypatch, 1000)  # d_0's Gram, side 6, fits; d_1's does not
        assert main(["spectrum", "--input", str(path), "--k", "1"]) == 1
        err = capsys.readouterr().err
        assert "Gram of d_1 has side 15" in err and "needs 3600 bytes" in err

    @pytest.mark.parametrize("sysconf", [{}, {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": -1}])
    def test_no_guard_where_sysconf_cannot_tell(self, monkeypatch, sysconf):
        def report(name):
            if name not in sysconf:
                raise ValueError(f"unrecognized configuration name {name!r}")
            return sysconf[name]

        monkeypatch.setattr(complexes.os, "sysconf", report)
        assert betti(enumerate_cliques(complete_graph(6), 3), 1) == 0


class TestHarmonicBasisSizeGuard:
    """harmonic_basis refuses a dense Laplacian that, with eigh's copies and workspace, would not fit in physical
    memory, before it builds any Laplacian."""

    def test_refused_past_physical_memory(self, monkeypatch):
        cx = enumerate_cliques(complete_graph(6), 3)  # Delta_1 has side 15: 40 bytes an entry need 9000
        built = []
        monkeypatch.setattr(spectral, "hodge_laplacian", lambda *args: built.append(args) or hodge_laplacian(*args))
        TestGramSizeGuard.probe(monkeypatch, 40 * 15**2 - 1)
        with pytest.raises(ValueError, match="Hodge 1-Laplacian has side 15: .* needs 9000 bytes, more than the 8999"):
            harmonic_basis(cx, 1)
        assert not built
        TestGramSizeGuard.probe(monkeypatch, 40 * 15**2)
        assert harmonic_basis(cx, 1) == [] and len(built) == 1

    def test_range_checked_before_size(self, monkeypatch):
        TestGramSizeGuard.probe(monkeypatch, 1)
        with pytest.raises(ValueError, match="laplacian degree 3 out of range"):
            harmonic_basis(enumerate_cliques(complete_graph(6), 3), 3)
        assert harmonic_basis(enumerate_cliques(cycle_graph(5), 3), 2) == []  # no triangles: nothing to allocate
