import numpy as np
import pytest
from scipy.sparse.linalg import lsqr

from graphhodge import (
    Cochain,
    WeightScheme,
    betti,
    coboundary,
    enumerate_cliques,
    harmonic_project,
    hodge_decompose,
    hodge_laplacian,
    inner_product,
    norm,
    verify_operator_pair,
)
from graphhodge.decompose import SOLVER_RTOL

from conftest import LAP_ISO_A, cycle_graph, pinv_split, random_connected_graph, random_graph
from test_operators import random_table_weights


def decompose_setup(rng, n=None):
    n = n or int(rng.integers(4, 11))
    g = random_connected_graph(rng, n)
    cx = enumerate_cliques(g, 3)
    x = Cochain(1, cx, rng.normal(size=cx.n_cliques(2)))
    return cx, x


class TestExamples:
    def test_square_constant_flow_is_harmonic(self, c4_complex):
        x = Cochain.from_dict(c4_complex, 1, {(1, 2): 2, (2, 3): 2, (3, 4): 2, (4, 1): 2})
        split = hodge_decompose(x)
        assert norm(split.exact) < 1e-10
        assert norm(split.coexact) < 1e-10
        assert np.allclose(split.harmonic.values, x.values, atol=1e-10)

    def test_triangle_cyclic_flow_is_pure_curl(self, c3_complex):
        x = Cochain.from_dict(c3_complex, 1, {(1, 2): 1, (2, 3): 1, (3, 1): 1})
        split = hodge_decompose(x)
        assert norm(split.exact) < 1e-10
        assert norm(split.harmonic) < 1e-10
        assert np.allclose(split.coexact.values, x.values, atol=1e-10)
        assert split.prepotential is not None
        assert split.prepotential.values == pytest.approx([1.0], abs=1e-10)

    def test_gradient_flow_recovers_potential_up_to_constant(self, rng):
        for _ in range(5):
            g = random_connected_graph(rng, 8)
            cx = enumerate_cliques(g, 3)
            f = rng.normal(size=8)
            grad = coboundary(cx, 0)
            x = Cochain(1, cx, grad.matrix @ f)
            split = hodge_decompose(x)
            assert norm(split.harmonic) < 1e-8
            assert norm(split.coexact) < 1e-8
            recovered = split.potential.values
            assert np.allclose(recovered - recovered.mean(), f - f.mean(), atol=1e-8)

    def test_pinv_oracle_agreement(self, rng):
        for _ in range(10):
            cx, x = decompose_setup(rng)
            down = coboundary(cx, 0).matrix.toarray()
            up = coboundary(cx, 1).matrix.toarray()
            exact, harmonic, coexact = pinv_split(down, up, x.values)
            split = hodge_decompose(x)
            assert np.allclose(split.exact.values, exact, atol=1e-8)
            assert np.allclose(split.harmonic.values, harmonic, atol=1e-8)
            assert np.allclose(split.coexact.values, coexact, atol=1e-8)


class TestProperties:
    def test_reconstruction_orthogonality_harmonicity(self, rng):
        for _ in range(30):
            cx, x = decompose_setup(rng)
            scale = norm(x)
            split = hodge_decompose(x)
            total = split.exact + split.harmonic + split.coexact
            assert norm(x - total) <= 1e-8 * scale
            for a, b in (
                (split.exact, split.harmonic),
                (split.exact, split.coexact),
                (split.harmonic, split.coexact),
            ):
                assert abs(inner_product(a, b)) <= 1e-8 * scale**2
            lap = hodge_laplacian(cx, 1)
            from graphhodge import apply_operator

            assert norm(apply_operator(lap, split.harmonic)) <= 1e-7 * scale

    def test_method_agreement(self, rng):
        for _ in range(20):
            cx, x = decompose_setup(rng)
            a = hodge_decompose(x, method="two-solve")
            b = hodge_decompose(x, method="laplacian-residual")
            assert norm(a.harmonic - b.harmonic) <= 1e-7 * norm(x)
            assert norm(a.exact - b.exact) <= 1e-7 * norm(x)

    def test_idempotence(self, rng):
        cx, x = decompose_setup(rng, n=8)
        split = hodge_decompose(x)
        for part, name in (
            (split.exact, "exact"),
            (split.harmonic, "harmonic"),
            (split.coexact, "coexact"),
        ):
            again = hodge_decompose(part)
            for other in ("exact", "harmonic", "coexact"):
                expected = part.values if other == name else np.zeros_like(part.values)
                got = getattr(again, other).values
                assert np.allclose(got, expected, atol=1e-7 * max(norm(x), 1.0))

    def test_weighted_decomposition_orthogonality(self, rng):
        for _ in range(10):
            cx, x = decompose_setup(rng)
            entries = {}
            for order in (1, 2, 3):
                entries.update({c: float(rng.uniform(0.3, 3.0)) for c in cx.cliques(order)})
            w = WeightScheme.from_table(entries)
            split = hodge_decompose(x, w)
            scale = norm(x, w)
            total = split.exact + split.harmonic + split.coexact
            assert norm(x - total, w) <= 1e-8 * scale
            assert abs(inner_product(split.exact, split.harmonic, w)) <= 1e-8 * scale**2
            assert abs(inner_product(split.exact, split.coexact, w)) <= 1e-8 * scale**2
            assert abs(inner_product(split.harmonic, split.coexact, w)) <= 1e-8 * scale**2

    def test_harmonic_dimension_matches_betti(self, rng):
        for _ in range(10):
            g = random_graph(rng, 8, 0.4)
            cx = enumerate_cliques(g, 3)
            m = cx.n_cliques(2)
            if m == 0:
                continue
            b1 = betti(cx, 1)
            projections = np.column_stack(
                [hodge_decompose(Cochain(1, cx, rng.normal(size=m))).harmonic.values for _ in range(m)]
            )
            assert np.linalg.matrix_rank(projections, tol=1e-8) == b1

    def test_degree_zero_input(self, rng):
        g = random_connected_graph(rng, 7)
        cx = enumerate_cliques(g, 3)
        f = Cochain(0, cx, rng.normal(size=7))
        split = hodge_decompose(f)
        assert norm(split.exact) < 1e-12  # no level below the vertices
        # harmonic part of a vertex function is its componentwise mean
        assert np.allclose(split.harmonic.values, f.values.mean(), atol=1e-8)


class TestHarmonicProject:
    def test_idempotent_on_harmonic_input(self, c4_complex):
        x = Cochain.from_dict(c4_complex, 1, {(1, 2): 2, (2, 3): 2, (3, 4): 2, (4, 1): 2})
        assert np.allclose(harmonic_project(x).values, x.values, atol=1e-10)

    def test_gradient_maps_to_zero(self, rng):
        g = random_connected_graph(rng, 6)
        cx = enumerate_cliques(g, 3)
        x = Cochain(1, cx, coboundary(cx, 0).matrix @ rng.normal(size=6))
        assert norm(harmonic_project(x)) < 1e-8

    def test_uneven_square_flow_projects_to_mean(self, c4_complex):
        x = Cochain.from_dict(c4_complex, 1, {(1, 2): 2, (2, 3): 2, (3, 4): 2, (4, 1): 4})
        # oracle: project onto the constant-cycle kernel vector with a dense pseudoinverse
        down = coboundary(c4_complex, 0).matrix.toarray()
        up = coboundary(c4_complex, 1).matrix.toarray()
        _, harmonic, _ = pinv_split(down, up, x.values)
        got = harmonic_project(x)
        assert np.allclose(got.values, harmonic, atol=1e-10)
        expected = Cochain.from_dict(
            c4_complex, 1, {(1, 2): 2.5, (2, 3): 2.5, (3, 4): 2.5, (4, 1): 2.5}
        )
        assert np.allclose(got.values, expected.values, atol=1e-10)


class TestConvergenceFailure:
    def test_error_carries_best_residual(self, rng, monkeypatch):
        import graphhodge.decompose as module

        def fake_lsqr(A, b, **kwargs):
            return np.zeros(A.shape[1]), 7, 42, 0.125

        monkeypatch.setattr(module, "lsqr", fake_lsqr)
        cx, x = decompose_setup(rng, n=6)
        with pytest.raises(module.ConvergenceError) as info:
            hodge_decompose(x)
        assert info.value.residual == 0.125
        assert info.value.iterations == 42


    def test_laplacian_image_error_carries_residual_and_iterations(self, rng, monkeypatch):
        import graphhodge.decompose as module

        seen = {}

        def fake_cg(A, b, callback=None, **kwargs):
            seen["rhs_norm"] = float(np.linalg.norm(b))
            for _ in range(5):
                callback(np.zeros_like(b))
            return np.zeros_like(b), 5

        monkeypatch.setattr(module, "cg", fake_cg)
        cx, x = decompose_setup(rng, n=6)
        with pytest.raises(module.ConvergenceError) as info:
            hodge_decompose(x, method="laplacian-residual")
        assert info.value.residual == seen["rhs_norm"] > 0  # |Delta b - Delta 0|
        assert info.value.iterations == 5


def lsqr_laplacian_residual(c, w):
    """The laplacian-residual route as LSQR solved it: min_y |Delta y - b|, b = sqrt(w) c.

    Delta y is the image part, split by the same least-squares potential solve
    as two-solve; returns (exact, harmonic, coexact) values.
    """
    cx, k = c.complex, c.degree
    sqrt_w = np.sqrt(w.vector(cx, k))
    lap = hodge_laplacian(cx, k, w).matrix
    n = lap.shape[0]
    y = lsqr(lap, sqrt_w * c.values, atol=SOLVER_RTOL, btol=SOLVER_RTOL, iter_lim=10 * n + 10)[0]
    image = (lap @ y) / sqrt_w
    exact = hodge_decompose(Cochain(k, cx, image), w, method="two-solve").exact.values
    return exact, c.values - image, image - exact


class TestLaplacianImageOracle:
    def assert_matches_oracle(self, c, w):
        got = hodge_decompose(c, w, method="laplacian-residual")
        tol = 1e-7 * np.linalg.norm(c.values)
        for part, ref in zip((got.exact, got.harmonic, got.coexact), lsqr_laplacian_residual(c, w)):
            assert np.linalg.norm(part.values - ref) <= tol
        return got

    def test_random_cochains_unit_and_table_weights(self, rng):
        for _ in range(6):
            g = random_connected_graph(rng, int(rng.integers(6, 12)), extra=0.5)
            cx = enumerate_cliques(g, 4)
            for w in (WeightScheme.unit(), random_table_weights(rng, cx)):
                for k in range(3):
                    if cx.n_cliques(k + 1) == 0:
                        continue
                    c = Cochain(k, cx, rng.normal(size=cx.n_cliques(k + 1)))
                    got = self.assert_matches_oracle(c, w)
                    assert got.residuals["laplacian_solve"] == pytest.approx(
                        norm(got.harmonic, w), rel=1e-9, abs=1e-12
                    )

    def test_harmonic_input_has_zero_right_hand_side(self, rng, c4_complex):
        x = Cochain.from_dict(c4_complex, 1, {(1, 2): 2, (2, 3): 2, (3, 4): 2, (4, 1): 2})
        assert not np.any(hodge_laplacian(c4_complex, 1).matrix @ x.values)
        got = self.assert_matches_oracle(x, WeightScheme.unit())
        assert np.array_equal(got.harmonic.values, x.values)
        assert not np.any(got.exact.values) and not np.any(got.coexact.values)

    def test_zero_cochain(self, rng, c4_complex):
        cx = enumerate_cliques(random_connected_graph(rng, 7), 3)
        # the last case has no triangles at all: an empty cochain
        for cx, k in ((cx, 0), (cx, 1), (c4_complex, 2)):
            got = self.assert_matches_oracle(Cochain.zero(cx, k), random_table_weights(rng, cx))
            assert got.residuals["laplacian_solve"] == 0.0
            assert norm(got.harmonic) == 0.0


def random_pair(rng, m=8, n=12, p=3):
    """Random A with B drawn inside ker(A), so AB = 0 up to roundoff."""
    A = rng.normal(size=(m, n))
    _, _, vt = np.linalg.svd(A)
    kernel = vt[np.linalg.matrix_rank(A) :].T
    if kernel.shape[1] == 0:
        return A, np.zeros((n, p))
    coeff = rng.normal(size=(kernel.shape[1], p))
    return A, kernel @ coeff


class TestOperatorPair:
    def test_b_zero_collapses_to_fredholm(self, rng):
        A = rng.normal(size=(5, 7))
        report = verify_operator_pair(A, np.zeros((7, 2)))
        assert report.passed
        assert report.rank_b == 0
        assert report.kernel_laplacian_dim == 7 - report.rank_a

    def test_golden_graph_dims_sum(self):
        cx = enumerate_cliques(LAP_ISO_A.graph, 3)
        A = coboundary(cx, 1).matrix.toarray()
        B = coboundary(cx, 0).matrix.toarray()
        report = verify_operator_pair(A, B)
        assert report.passed
        assert report.rank_b == 5
        assert report.kernel_laplacian_dim == 1
        assert report.rank_a == 1
        assert report.rank_b + report.kernel_laplacian_dim + report.rank_a == 7

    def test_random_pairs_with_three_dim_kernel_slice(self, rng):
        for _ in range(20):
            A, B = random_pair(rng)
            report = verify_operator_pair(A, B)
            assert report.passed

    def test_nonzero_product_rejected(self, rng):
        A = rng.normal(size=(4, 4))
        B = rng.normal(size=(4, 4))
        with pytest.raises(ValueError, match="AB != 0"):
            verify_operator_pair(A, B)

    def test_clause_names_cover_both_theorems(self, rng):
        A, B = random_pair(rng, 6, 9, 2)
        report = verify_operator_pair(A, B)
        names = {c.name for c in report.clauses}
        assert len(names) == 10
