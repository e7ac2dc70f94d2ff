import json
import tracemalloc
from itertools import combinations, product

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import LinearOperator, cg, lsqr

from graphhodge import (
    CliqueComplex,
    Cochain,
    ComparisonData,
    Graph,
    WeightScheme,
    aggregate,
    betti,
    coboundary,
    enumerate_cliques,
    harmonic_project,
    hodge_decompose,
    hodge_laplacian,
    inner_product,
    norm,
    rank,
    verify_operator_pair,
)
import graphhodge.complexes as complexes
import graphhodge.decompose as decompose
import graphhodge.operators as operators
from graphhodge.cli import main
from graphhodge.decompose import SOLVER_RTOL, _mean_zero_gauge, matrix_rank

from conftest import (
    LAP_ISO_A,
    abs_gram_bound,
    coexact_bound,
    complete_graph,
    csr_edge_potential,
    csr_vertex_coexact,
    cycle_graph,
    pinv_split,
    potential_bound,
    random_connected_graph,
    random_graph,
)
from test_operators import random_table_weights, weight_schemes


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

        seen = {}

        def fake_cg(A, b, callback=None, **kwargs):
            seen["rhs_norm"] = float(np.linalg.norm(b))
            for _ in range(42):
                callback(np.zeros_like(b))
            return np.zeros_like(b), 42

        monkeypatch.setattr(module, "cg", fake_cg)
        cx, x = decompose_setup(rng, n=6)
        with pytest.raises(module.ConvergenceError) as info:
            hodge_decompose(x)
        assert info.value.residual == seen["rhs_norm"] > 0  # |rhs - M 0| at the iterate returned
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


class TestTinyCochains:
    """A cochain whose every |sqrt(w) c| is below 2^-256 splits as c 2^s does, scaled back: bit for bit the split of
    c times 2^-600, where the norms and the solves' stop tolerances would otherwise underflow to 0."""

    @pytest.mark.parametrize("method", ["two-solve", "laplacian-residual"])
    def test_split_commutes_with_a_tiny_power_of_two(self, method):
        compared = 0
        for seed in range(3):
            rng = np.random.default_rng(seed)
            cx = enumerate_cliques(random_graph(rng, 12, 0.45), 4)
            w = WeightScheme.from_table({c: 10 ** rng.uniform(-1, 1) for o in (1, 2, 3, 4) for c in cx.cliques(o)})
            for weights, k in product((None, w), range(3)):
                c = rng.normal(size=cx.n_cliques(k + 1))
                big = hodge_decompose(Cochain(k, cx, c), weights, method=method)
                tiny = hodge_decompose(Cochain(k, cx, np.ldexp(c, -600)), weights, method=method)
                for name in ("exact", "harmonic", "coexact", "potential", "prepotential"):
                    part, scaled = getattr(big, name), getattr(tiny, name)
                    assert (part is None) == (scaled is None), (seed, k, name)
                    if part is not None:
                        assert np.ldexp(part.values, -600).tobytes() == scaled.values.tobytes(), (seed, k, name)
                        compared += name == "prepotential"
                for record in ("norms", "residuals"):
                    expected = {key: np.ldexp(v, -600) for key, v in getattr(big, record).items()}
                    assert getattr(tiny, record) == expected, (seed, k, record)
                assert tiny.input.values.tobytes() == np.ldexp(c, -600).tobytes()
        assert compared >= (6 if method == "two-solve" else 0)


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


def lsqr_min_norm(A, b):
    """min_x |A x - b|_2 by LSQR as the two-solve route ran it: the least-norm x in the limit."""
    rows, cols = A.shape
    if cols == 0 or rows == 0:
        return np.zeros(cols)
    return lsqr(A, b, atol=SOLVER_RTOL, btol=SOLVER_RTOL, iter_lim=10 * max(rows, cols) + 10)[0]


def lsqr_two_solve(c, w):
    """The two-solve route as LSQR solved it, kept as oracle: potential g over C^{k-1} and
    prepotential h over C^{k+1} as unknowns. Returns (exact, harmonic, coexact, g, h)."""
    cx, k = c.complex, c.degree
    w_here = w.vector(cx, k)
    sqrt_w = np.sqrt(w_here)
    exact, g = np.zeros_like(c.values), None
    if k >= 1 and cx.n_cliques(k):
        down = coboundary(cx, k - 1).matrix
        g = lsqr_min_norm(sp.diags(sqrt_w) @ down, sqrt_w * c.values)
        g = _mean_zero_gauge(g, cx) if k == 1 else g
        exact = down @ g
    coexact, h = np.zeros_like(c.values), None
    up = coboundary(cx, k).matrix
    if up.shape[0]:
        w_up = w.vector(cx, k + 1)
        h = lsqr_min_norm(sp.diags(1.0 / sqrt_w) @ up.T @ sp.diags(w_up), sqrt_w * c.values)
        coexact = (up.T @ (w_up * h)) / w_here
    return exact, c.values - exact - coexact, coexact, g, h


class TestTwoSolveOracle:
    def assert_matches_lsqr(self, c, w):
        got = hodge_decompose(c, w)
        exact, harmonic, coexact, g, h = lsqr_two_solve(c, w)
        tol = 1e-7 * np.linalg.norm(c.values)
        for part, ref in ((got.exact, exact), (got.harmonic, harmonic), (got.coexact, coexact)):
            assert np.linalg.norm(part.values - ref) <= tol
        for pot, ref in ((got.potential, g), (got.prepotential, h)):
            assert (pot is None) == (ref is None)
            assert pot is None or np.linalg.norm(pot.values - ref) <= tol
        return got

    def test_degrees_0_to_2_under_every_weight_scheme(self, rng):
        graphs = [random_connected_graph(rng, int(rng.integers(6, 13)), extra=0.6) for _ in range(5)]
        for g in graphs + [complete_graph(6), cycle_graph(12)]:
            cx = enumerate_cliques(g, 5)
            for w in weight_schemes(rng, cx):
                for k in range(3):
                    if cx.n_cliques(k + 1):
                        self.assert_matches_lsqr(Cochain(k, cx, rng.normal(size=cx.n_cliques(k + 1))), w)

    def test_weighted_prepotential_is_the_least_2_norm_one(self, rng):
        """Not the least W-norm prepotential W_{k+1}^{-1/2} z of B_k: a weighted case tells them apart."""
        g = random_connected_graph(rng, 14, extra=0.6)
        cx = enumerate_cliques(g, 4)
        assert cx.n_cliques(4) > 0
        w = random_table_weights(rng, cx)
        c = Cochain(1, cx, rng.normal(size=cx.n_cliques(2)))
        h = self.assert_matches_lsqr(c, w).prepotential.values
        up = coboundary(cx, 1).matrix.toarray()
        w_here, w_up = w.vector(cx, 1), w.vector(cx, 2)
        a_c = (up.T * w_up) / np.sqrt(w_here)[:, None]
        least_w_norm = np.linalg.pinv(a_c / np.sqrt(w_up)) @ (np.sqrt(w_here) * c.values) / np.sqrt(w_up)
        assert np.allclose(a_c @ least_w_norm, a_c @ h, atol=1e-8)  # the same coexact part
        assert np.linalg.norm(least_w_norm - h) > 1e-3 * np.linalg.norm(c.values)

    def test_stops_scale_with_the_weights(self, rng):
        """Every table times 1e8, or the triangles' alone times 1e3, leaves each stop as tight
        relative to its answer as at the original weights."""
        cx = enumerate_cliques(random_connected_graph(rng, 11, extra=0.6), 5)
        assert cx.n_cliques(4) > 0
        for w in (WeightScheme.unit(), random_table_weights(rng, cx)):
            table = {c: x for order in range(1, 5) for c, x in zip(cx.cliques(order), w.vector(cx, order - 1))}
            heavy = WeightScheme.from_table({c: 1e8 * x for c, x in table.items()})
            heavy_triangles = WeightScheme.from_table({c: 1e3 * x if len(c) == 3 else x for c, x in table.items()})
            for scheme in (heavy, heavy_triangles):
                for k in range(3):
                    self.assert_matches_lsqr(Cochain(k, cx, rng.normal(size=cx.n_cliques(k + 1))), scheme)
        triangle = enumerate_cliques(complete_graph(3), 3)
        c = Cochain(1, triangle, np.array([1.0, 0.0, 0.0]))
        heavy = WeightScheme.from_table(dict.fromkeys([c for o in (1, 2, 3) for c in triangle.cliques(o)], 1e11))
        got = self.assert_matches_lsqr(c, heavy)
        assert np.allclose(got.prepotential.values, [1 / 3]) and np.allclose(got.coexact.values, [1 / 3, -1 / 3, 1 / 3])

    def test_round_off_right_hand_sides(self, rng):
        g = random_connected_graph(rng, 10, extra=0.6)
        cx = enumerate_cliques(g, 4)
        for w in (WeightScheme.unit(), random_table_weights(rng, cx)):
            split = hodge_decompose(Cochain(1, cx, rng.normal(size=cx.n_cliques(2))), w)
            # each part of a split splits again into itself and two parts of round-off
            for part in (split.exact, split.harmonic, split.coexact):
                again = self.assert_matches_lsqr(part, w)
                assert np.isfinite(again.prepotential.values).all() and np.isfinite(again.potential.values).all()

    def test_zero_and_empty_cochains(self, rng, c4_complex):
        cx = enumerate_cliques(random_connected_graph(rng, 8, extra=0.6), 4)
        edgeless = enumerate_cliques(random_graph(rng, 4, 0.0), 3)
        cases = [(cx, 0), (cx, 1), (cx, 2), (c4_complex, 2), (edgeless, 1), (edgeless, 0)]
        for cx, k in cases:
            got = self.assert_matches_lsqr(Cochain.zero(cx, k), random_table_weights(rng, cx))
            for part in (got.exact, got.harmonic, got.coexact, got.potential, got.prepotential):
                assert part is None or not part.values.any()
            assert not any(got.residuals.values()) and not any(got.norms.values())


def lstsq_prepotential(c, w):
    """The least-norm h minimizing |A_c h - b|, A_c = W_k^{-1/2} d_k^T W_{k+1}, by dense np.linalg.lstsq."""
    cx, k = c.complex, c.degree
    w_here, w_up = w.vector(cx, k), w.vector(cx, k + 1)
    a_c = (coboundary(cx, k).matrix.toarray().T * w_up) / np.sqrt(w_here)[:, None]
    return np.linalg.lstsq(a_c, np.sqrt(w_here) * c.values, rcond=None)[0]


def gnm_graph(rng, n, m):
    """G(n, m): m of the n(n-1)/2 vertex pairs, drawn uniformly without replacement."""
    pairs = list(combinations(range(1, n + 1), 2))
    return Graph.from_edges(n, [pairs[i] for i in rng.choice(len(pairs), m, replace=False)])


class TestPrepotentialDenseOracle:
    def test_sparse_gnm_unit_weights(self):
        rng = np.random.default_rng(0)
        cx = enumerate_cliques(gnm_graph(rng, 100, 1000), 3)
        c = Cochain(1, cx, rng.normal(size=cx.n_cliques(2)))
        ref = lstsq_prepotential(c, WeightScheme.unit())
        assert np.linalg.norm(hodge_decompose(c).prepotential.values - ref) <= 1e-8 * np.linalg.norm(ref)

    def test_weights_spanning_four_decades_never_silently_off(self):
        """Weights 10^U(-2, 2) on orders 1-4: each h matches, or the split raises; it is never silently off."""
        matched = 0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(6, 16))
            cx = enumerate_cliques(random_graph(rng, n, 0.6), 5)
            w = WeightScheme.from_table({c: 10 ** rng.uniform(-2, 2) for o in range(1, 5) for c in cx.cliques(o)})
            for k in range(3):
                if cx.n_cliques(k + 2) == 0:
                    continue
                c = Cochain(k, cx, rng.normal(size=cx.n_cliques(k + 1)))
                try:
                    h = hodge_decompose(c, w).prepotential.values
                except decompose.ConvergenceError:
                    continue
                ref = lstsq_prepotential(c, w)
                assert np.linalg.norm(h - ref) <= 1e-6 * np.linalg.norm(ref), (seed, k)
                matched += 1
        assert matched >= 40


class TestPrepotentialOnDemand:
    @pytest.fixture
    def solves(self, monkeypatch):
        seen = []
        solve = decompose._cg

        def recording(matvec, rhs, atol, what, *diag):
            seen.append(what)
            return solve(matvec, rhs, atol, what, *diag)

        monkeypatch.setattr(decompose, "_cg", recording)
        return seen

    def test_only_a_read_solves_for_it(self, rng, solves):
        cx, x = decompose_setup(rng, n=9)
        split = hodge_decompose(x)
        assert solves == ["the potential", "the coexact part"]
        assert split.prepotential is split.prepotential
        assert solves == ["the potential", "the coexact part", "the prepotential"]

    def test_rank_and_game_never_solve_for_it(self, solves, capsys, tmp_path, rng):
        records = [f"v{v},i{i},{int(rng.integers(1, 6))}" for v in range(12) for i in rng.choice(9, 5, replace=False)]
        ratings = tmp_path / "r.csv"
        ratings.write_text("voter,item,score\n" + "\n".join(records) + "\n")
        utilities = [{f"{a},{b}": float(rng.normal()) for a in "xyz" for b in "xyz"} for _ in range(2)]
        game = tmp_path / "g.json"
        game.write_text(json.dumps({"strategies": [list("xyz"), list("xyz")], "utilities": utilities}))
        assert main(["rank", "--input", str(ratings)]) == 0
        assert main(["game", "--input", str(game)]) == 0
        assert solves and "the prepotential" not in solves
        assert "the coexact part" in solves  # both flows live on complexes with triangles
        del solves[:]
        cochain = tmp_path / "x.tsv"
        cochain.write_text("1 2 1\n2 3 -0.5\n")
        triangle = tmp_path / "c3.txt"
        triangle.write_text("1 2\n2 3\n1 3\n")
        assert main(["decompose", "--input", str(triangle), "--cochain", str(cochain)]) == 0
        assert json.loads(capsys.readouterr().out.splitlines()[-1])["prepotential"]
        assert solves[-1] == "the prepotential"


class TestEdgeArrayPotential:
    """An edge flow's potential and exact part by complexes._d0, against conftest's CG with the CSR d_0: equal."""

    @staticmethod
    def graphs(rng):
        for _ in range(12):
            graph = random_graph(rng, int(rng.integers(2, 16)), float(rng.uniform(0.2, 0.9)))
            yield Graph(graph.n_vertices + int(rng.integers(0, 3)), graph.pairs)  # up to 2 isolated vertices
        yield from (Graph(1, []), Graph(4, []), Graph(9, list(combinations(range(1, 5), 2)) + [(6, 7)]))

    def test_two_solve_matches_the_csr_solve(self, rng):
        compared = 0
        for graph in self.graphs(rng):
            cx = enumerate_cliques(graph, 3)
            spread = WeightScheme.from_table({c: 10 ** rng.uniform(-2, 2) for o in (1, 2) for c in cx.cliques(o)})
            for w in (WeightScheme.unit(), random_table_weights(rng, cx, [2]), random_table_weights(rng, cx), spread):
                c = Cochain(1, cx, rng.normal(size=cx.n_cliques(2)) * 10 ** rng.uniform(-3, 3))
                split = hodge_decompose(c, w, method="two-solve")
                assert ("coboundary", 2) not in cx.graph._memo  # no CSR d_0 was built for it
                exact, g = csr_edge_potential(c, w)
                assert np.array_equal(split.exact.values, exact) and np.array_equal(split.potential.values, g)
                assert split.potential.values.dtype == np.float64
                compared += 1
                del cx.graph._memo["coboundary", 2]
        assert compared == 60


class TestEdgeArrayCoexact:
    """A 0-cochain's coexact part and prepotential by complexes._d0 scaled by W_1, against conftest's CG with the CSR
    D = W_1 d_0: the same bits, and no CSR d_0 built."""

    def test_two_solve_matches_the_csr_solves(self, rng):
        compared = 0
        for graph in TestEdgeArrayPotential.graphs(rng):
            cx = enumerate_cliques(graph, 2)
            spread = WeightScheme.from_table({c: 10 ** rng.uniform(-2, 2) for o in (1, 2) for c in cx.cliques(o)})
            for w in (WeightScheme.unit(), random_table_weights(rng, cx, [1]), random_table_weights(rng, cx), spread):
                c = Cochain(0, cx, rng.normal(size=graph.n_vertices) * 10 ** rng.uniform(-3, 3))
                split = hodge_decompose(c, w, method="two-solve")
                coexact, h = split.coexact.values, split.prepotential
                assert ("coboundary", 2) not in cx.graph._memo
                ref_coexact, ref_h = csr_vertex_coexact(c, w)
                assert coexact.tobytes() == ref_coexact.tobytes(), graph
                assert (h is None) == (not len(graph.pairs))
                assert h is None or h.values.tobytes() == ref_h.tobytes(), graph
                compared += h is not None
                cx.graph._memo.pop(("coboundary", 2), None)
        assert compared >= 50


class TestOneOffProducts:
    """A right-hand side and exact = d g read the face array, and D is assembled only when CG steps: every part,
    potential and prepotential bit for bit those of the same solves with every product taken by CSR."""

    @staticmethod
    def all_csr(monkeypatch):
        monkeypatch.setattr(decompose, "_first_call", lambda first, later: later)

    def test_bit_equal_to_csr_products(self, monkeypatch):
        compared = 0
        for seed in range(6):
            rng = np.random.default_rng(seed)
            cx = enumerate_cliques(random_graph(rng, int(rng.integers(6, 16)), 0.5), 5)
            schemes = (WeightScheme.unit(), random_table_weights(rng, cx, [2, 3]), random_table_weights(rng, cx))
            for w, k in ((w, k) for w in schemes for k in (1, 2)):
                if not cx.n_cliques(k + 2) or decompose._dense_curl(cx, k, decompose._up_weights(cx, k, w)):
                    continue
                c = Cochain(k, cx, rng.normal(size=cx.n_cliques(k + 1)))
                got = hodge_decompose(c, w)
                with monkeypatch.context() as patch:
                    self.all_csr(patch)
                    ref = hodge_decompose(c, w)
                    ref_h = ref.prepotential.values
                for part in ("exact", "harmonic", "coexact", "potential"):
                    assert getattr(got, part).values.tobytes() == getattr(ref, part).values.tobytes(), (seed, k)
                assert got.prepotential.values.tobytes() == ref_h.tobytes(), (seed, k)
                compared += 1
        assert compared >= 15

    def test_a_round_off_coexact_rhs_assembles_no_d(self):
        """A gradient flow on a sparse triangle level has a round-off curl: CG takes no step, so no d_1 is built."""
        steps = 0
        for seed in range(6):
            rng = np.random.default_rng(seed)
            cx = enumerate_cliques(random_graph(rng, 30, 0.2), 3)
            assert cx.n_cliques(3) and not decompose._dense_curl(cx, 1, 1.0)
            flow = Cochain(1, cx, coboundary(cx, 0).matrix @ rng.normal(size=30))
            split = hodge_decompose(flow)
            assert ("coboundary", 3) not in cx.graph._memo and not split.coexact.values.any()
            curl = Cochain(1, cx, flow.values + coboundary(cx, 1).matrix.T @ rng.normal(size=cx.n_cliques(3)))
            steps += hodge_decompose(curl).coexact.values.any() and ("coboundary", 3) in cx.graph._memo
        assert steps == 6

    def test_later_products_are_bit_equal_to_a_fresh_transpose(self):
        """Every call after the first applies the CSR D, or D^T transposed once: bit for bit D.dot(x) and a transpose
        taken anew for each product, as every D^T product once was."""
        for seed in range(4):
            rng = np.random.default_rng(seed)
            cx = enumerate_cliques(random_graph(rng, 14, 0.5), 4)
            for w, k in product((WeightScheme.unit(), random_table_weights(rng, cx)), (1, 2)):
                up = decompose._up_weights(cx, k, w)
                d = coboundary(cx, k).matrix
                if np.ndim(up):
                    d = sp.diags(up) @ d
                    d.sort_indices()
                apply_d, apply_dt = decompose._products(cx, k, up)
                apply_d(np.zeros(d.shape[1])), apply_dt(np.zeros(d.shape[0]))  # the first calls read the faces
                for _ in range(3):
                    x, y = rng.normal(size=d.shape[1]), rng.normal(size=d.shape[0])
                    assert apply_d(x).tobytes() == d.dot(x).tobytes()
                    assert apply_dt(y).tobytes() == (d.T @ y).tobytes()

    def test_d_is_transposed_at_most_once_per_products(self, monkeypatch):
        transposes, products = [], []
        transpose, make = sp.csr_matrix.transpose, decompose._products
        monkeypatch.setattr(sp.csr_matrix, "transpose", lambda *a, **kw: transposes.append(1) or transpose(*a, **kw))
        monkeypatch.setattr(decompose, "_products", lambda *args: products.append(1) or make(*args))
        for seed in range(4):
            rng = np.random.default_rng(seed)
            cx = enumerate_cliques(random_graph(rng, 14, 0.5), 4)
            for w in (WeightScheme.unit(), random_table_weights(rng, cx)):
                split = hodge_decompose(Cochain(1, cx, rng.normal(size=cx.n_cliques(2))), w)
                assert split.coexact.values.any() and split.prepotential is not None  # the solves take CG steps
        assert products and len(transposes) <= len(products)

    def test_a_split_reads_the_coexact_bound_once(self, monkeypatch):
        """The stop bound and the Gram share one _coexact_bound, on sparse and dense triangle levels alike."""
        bound, calls = decompose._coexact_bound, []
        monkeypatch.setattr(decompose, "_coexact_bound", lambda *args: calls.append(1) or bound(*args))
        dense = set()
        for seed, p in product(range(4), (0.2, 0.9)):
            rng = np.random.default_rng(seed)
            cx = enumerate_cliques(random_graph(rng, 12, p), 3)
            dense.add(decompose._dense_curl(cx, 1, 1.0))
            curl = Cochain(1, cx, coboundary(cx, 1).matrix.T @ rng.normal(size=cx.n_cliques(3)))
            calls.clear()
            assert hodge_decompose(curl).coexact.values.any()  # CG steps, so the Gram is built
            assert len(calls) == 1, (seed, p)
        assert dense == {True, False}


class TestStopBoundOracle:
    """The CG stop bounds, read off the face array, against conftest's products with abs(d): bit for bit."""

    @pytest.fixture
    def atols(self, monkeypatch):
        seen = {}

        def recording(matvec, rhs, atol, what):
            seen[what] = atol
            return np.zeros_like(rhs)  # no solve, so every stop is reached whatever the weights

        monkeypatch.setattr(decompose, "_cg", recording)
        return seen

    def test_bit_equal_under_unit_and_spread_weights(self, atols):
        cases = {"the potential": 0, "the coexact part": 0, "weighted D": 0}
        for seed in range(12):
            rng = np.random.default_rng(seed)
            cx = enumerate_cliques(random_graph(rng, int(rng.integers(6, 16)), 0.6), 5)
            # 10^U(-2, 2) tables; one on order k+2 scales D = W_{k+1} d_k, as a diags product
            schemes = [WeightScheme.unit()] + [
                WeightScheme.from_table({c: 10 ** rng.uniform(-2, 2) for o in orders for c in cx.cliques(o)})
                for orders in ((1, 2, 3, 4), (2,), (3,), (4,), (1, 3))]
            for w in schemes:
                for k in range(3):
                    sqrt_w = np.sqrt(w.vector(cx, k))
                    c = Cochain(k, cx, rng.normal(size=cx.n_cliques(k + 1)))
                    atols.clear()
                    hodge_decompose(c, w).prepotential
                    scale = np.linalg.norm(sqrt_w * c.values)
                    if k >= 1 and cx.n_cliques(k):
                        bound = potential_bound(cx, k, sqrt_w)
                        assert atols["the potential"] == SOLVER_RTOL * np.sqrt(bound) * scale, (seed, k)
                        cases["the potential"] += 1
                    if cx.n_cliques(k + 2):
                        bound = coexact_bound(cx, k, w, sqrt_w)
                        up = decompose._up_weights(cx, k, w)
                        assert decompose._coexact_bound(cx, k, up, sqrt_w) == bound, (seed, k)
                        assert atols["the coexact part"] == SOLVER_RTOL * bound * scale, (seed, k)
                        assert atols["the prepotential"] == SOLVER_RTOL * np.sqrt(bound) * scale, (seed, k)
                        cases["the coexact part"] += 1
                        cases["weighted D"] += k + 2 in w.tables
        assert min(cases.values()) >= 30, cases

    def test_weighted_coexact_part_bit_equal_to_the_abs_path(self):
        """With a table on order k+2, the coexact part is the one solved with D as abs() left it: sorted in place."""
        compared = 0
        for seed in range(8):
            rng = np.random.default_rng(seed)
            cx = enumerate_cliques(random_graph(rng, int(rng.integers(7, 14)), 0.7), 5)
            w = WeightScheme.from_table({c: 10 ** rng.uniform(-1, 1) for o in (1, 2, 3, 4) for c in cx.cliques(o)})
            for k in range(3):
                if not cx.n_cliques(k + 2):
                    continue
                c = Cochain(k, cx, rng.normal(size=cx.n_cliques(k + 1)))
                sqrt_w = np.sqrt(w.vector(cx, k))
                d = sp.diags(w.vector(cx, k + 1)) @ coboundary(cx, k).matrix
                bound = abs_gram_bound(d, 1.0 / sqrt_w)  # abs() sums duplicates, sorting d in place

                def gram(x):
                    return (d.T @ (d @ (x / sqrt_w))) / sqrt_w

                b = sqrt_w * c.values
                ref = decompose._cg(gram, gram(b), SOLVER_RTOL * bound * np.linalg.norm(b), "the coexact part")
                assert hodge_decompose(c, w).coexact.values.tobytes() == (ref / sqrt_w).tobytes(), (seed, k)
                compared += 1
        assert compared >= 10

    def test_coexact_operator_copies_nothing_of_d(self):
        """With d_1 cached, building the coexact operator and its bound allocates less than d_1's data."""
        rng = np.random.default_rng(0)
        cx = enumerate_cliques(random_graph(rng, 100, 0.6), 3)
        w = WeightScheme.from_table({c: 10 ** rng.uniform(-2, 2) for c in cx.cliques(2)})
        d, sqrt_w = coboundary(cx, 1).matrix, np.sqrt(w.vector(cx, 1))
        assert cx.n_cliques(3) > 30_000
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            decompose._coexact_gram(cx, 1, decompose._up_weights(cx, 1, w), sqrt_w)
            decompose._coexact_bound(cx, 1, decompose._up_weights(cx, 1, w), sqrt_w)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < d.data.nbytes


def csr_coexact_gram(cx, w, sqrt_w):
    """A_c A_c^T by the CSR products with D = W_2 d_1, the path kept for sparse triangle levels and tables on them."""
    d = coboundary(cx, 1).matrix
    if 3 in w.tables:
        d = sp.diags(w.vector(cx, 2)) @ d
    return lambda x: (d.T @ (d @ (x / sqrt_w))) / sqrt_w


def is_dense(cx) -> bool:
    return 64 * cx.n_cliques(3) >= cx.graph.n_vertices ** 3


class TestDenseCurlGram:
    """On a dense triangle level with no table on it, A_c A_c^T is one n x n product with no d_1, against CSR."""

    def assert_matches_csr(self, graph, w_of, rng):
        """Build the operator on a fresh copy of graph; returns whether it took the dense product."""
        cx = enumerate_cliques(Graph(graph.n_vertices, graph.pairs), 3)
        w = w_of(cx)
        sqrt_w = np.sqrt(w.vector(cx, 1))
        gram = decompose._coexact_gram(cx, 1, decompose._up_weights(cx, 1, w), sqrt_w)
        x = rng.normal(size=cx.n_cliques(2))
        gram(gram(x))  # the second call applies D, the sparse path's CSR, built then
        dense = ("coboundary", 3) not in cx.graph._memo
        assert dense == (is_dense(cx) and 3 not in w.tables)
        assert (("adjacency", 2) in cx.graph._memo) == dense
        ref_gram = csr_coexact_gram(cx, w, sqrt_w)
        for x in (x, np.zeros(cx.n_cliques(2))):
            got, ref = gram(x), ref_gram(x)
            assert np.allclose(got, ref, rtol=1e-13, atol=1e-13 * np.max(np.abs(ref), initial=0.0))
            assert gram(x).tobytes() == got.tobytes()  # the function's buffers carry nothing between calls
        return dense

    def test_both_sides_of_the_rule_with_and_without_edge_weights(self, rng):
        taken = {True: 0, False: 0}
        for n in (6, 9, 14, 20, 30):
            for p in (0.15, 0.4, 0.7, 0.95):
                graph = random_graph(rng, n, p)
                for w_of in (lambda cx: WeightScheme.unit(), lambda cx: random_table_weights(rng, cx, [2]),
                             lambda cx: random_table_weights(rng, cx, [1, 2])):
                    taken[self.assert_matches_csr(graph, w_of, rng)] += 1
        assert min(taken.values()) >= 15, taken

    def test_isolated_vertices_pendant_edges_and_empty_levels(self, rng):
        k8 = list(combinations(range(1, 9), 2))
        cases = [Graph(12, k8 + [(8, 9), (9, 10)]),  # 11 and 12 isolated; edges on no triangle
                 Graph(3, [(1, 2)]), Graph(4, [])]  # a level of edges with no triangles, and none at all
        for graph in cases:
            for w_of in (lambda cx: WeightScheme.unit(), lambda cx: random_table_weights(rng, cx, [2])):
                assert self.assert_matches_csr(graph, w_of, rng) == (graph.n_vertices == 12)
        cx = enumerate_cliques(cases[0], 3)
        x = Cochain(1, cx, rng.normal(size=cx.n_cliques(2)))
        TestTwoSolveOracle().assert_matches_lsqr(x, random_table_weights(rng, cx, [2]))

    def test_a_triangle_table_takes_csr_on_a_dense_graph(self, rng):
        graph = random_graph(rng, 12, 0.8)
        assert is_dense(enumerate_cliques(graph, 3))
        for orders in ([3], [2, 3]):
            assert not self.assert_matches_csr(graph, lambda cx: random_table_weights(rng, cx, orders), rng)

    def test_rank_on_a_dense_input_never_assembles_d1(self):
        rng = np.random.default_rng(3)
        records = [f"v{v},i{i},{int(rng.integers(1, 6))}" for v in range(30) for i in rng.choice(12, 8, replace=False)]
        cf = aggregate(ComparisonData.from_csv("voter,item,score\n" + "\n".join(records) + "\n"))
        assert is_dense(cf.complex) and 3 not in cf.weights.tables
        result = rank(cf)
        assert result.certificate.norm_locally_inconsistent > 0
        assert ("coboundary", 3) not in cf.graph._memo and ("adjacency", 2) in cf.graph._memo

    def test_prepotential_after_a_dense_split_matches_the_csr_built_one(self):
        for seed in range(4):
            rng = np.random.default_rng(seed)
            cx = enumerate_cliques(random_graph(rng, 14, 0.8), 3)
            assert is_dense(cx)
            edges = random_table_weights(rng, cx, [2])
            c = Cochain(1, cx, rng.normal(size=cx.n_cliques(2)))
            split = hodge_decompose(c, edges)
            assert ("coboundary", 3) not in cx.graph._memo
            h = split.prepotential.values
            assert ("coboundary", 3) in cx.graph._memo
            # unit triangle weights as a table: the same weights, solved by CSR products throughout
            table = {q: x for order in (2, 3) for q, x in zip(cx.cliques(order), edges.vector(cx, order - 1))}
            csr = hodge_decompose(c, WeightScheme.from_table(table))
            assert h.tobytes() == csr.prepotential.values.tobytes()
            assert np.linalg.norm(h - lstsq_prepotential(c, edges)) <= 1e-8 * np.linalg.norm(h)
            scale = np.linalg.norm(c.values)
            for part in ("exact", "harmonic", "coexact"):
                assert np.linalg.norm(getattr(split, part).values - getattr(csr, part).values) <= 1e-9 * scale


class TestDenseCoexactBound:
    """Where the coexact Gram is the n x n product, the bound's triangle counts come from the adjacency matrix, and
    the bound and counts are bit for bit those _abs_products sums off the faces."""

    def test_bit_equal_to_the_face_sums(self):
        taken = {True: 0, False: 0}
        for seed in range(8):
            rng = np.random.default_rng(seed)
            graph = random_graph(rng, int(rng.integers(6, 30)), float(rng.uniform(0.3, 0.95)))
            cx = enumerate_cliques(graph, 3)
            for w in (WeightScheme.unit(), random_table_weights(rng, cx, [2]), random_table_weights(rng, cx, [1, 2])):
                sqrt_w = np.sqrt(w.vector(cx, 1))
                right = 1.0 / sqrt_w
                rows, cols = operators._abs_products(cx._faces(3), len(right), right, 1.0, 1.0)
                expected = float(np.max(rows, initial=0.0) * np.max(right * cols, initial=0.0))
                bound, counts = decompose._coexact_bound(cx, 1, 1.0, sqrt_w), operators._edge_triangles(cx)
                assert bound.hex() == expected.hex() and counts.tobytes() == cols.tobytes(), seed
                dense = decompose._dense_curl(cx, 1, 1.0)
                assert (("adjacency", 2) in cx.graph._memo) == dense == is_dense(cx)
                taken[dense] += 1
        assert min(taken.values()) >= 6, taken

    def test_row_sums_alone(self):
        cx = enumerate_cliques(random_graph(np.random.default_rng(9), 16, 0.7), 4)
        for order in (3, 4):
            x = 10 ** np.random.default_rng(order).uniform(-2, 2, cx.n_cliques(order - 1))
            faces = cx._faces(order)
            rows, cols = operators._abs_products(faces, len(x), x, None)
            assert cols is None and rows.tobytes() == operators._abs_products(faces, len(x), x, 1.0)[0].tobytes()


class TestFacelessRowMaximum:
    """_curl_row_max reads no face and is bit for bit the row maximum of |d_1| right off the faces, on graphs on both
    sides of the size rule (9 n^6 > 8192 m^3) and of 64 c_3 >= n^3, with isolated vertices and pendant edges."""

    GRAPHS = [(40, 0.08), (30, 0.3), (25, 0.45), (12, 0.9), (16, 0.7), (9, 1.0)]  # (n, p) of G(n, p)

    @staticmethod
    def with_extras(graph, isolated):
        """graph, a pendant edge (1, n+1) on no triangle, and `isolated` isolated vertices after it."""
        n = graph.n_vertices
        return Graph(n + 1 + isolated, np.vstack([graph.pairs, [(1, n + 1)]]))

    def test_hex_equal_to_the_face_row_maximum(self):
        sides = set()
        for seed, (n, p) in enumerate(self.GRAPHS):
            rng = np.random.default_rng(seed)
            for isolated in (0, 3, 2000):  # 2000 shrinks the scan's batches to 4 edges
                cx = enumerate_cliques(self.with_extras(random_graph(rng, n, p), isolated), 3)
                size, m = cx.graph.n_vertices, cx.n_cliques(2)
                sides.add((9 * size**6 > 8192 * m**3, is_dense(cx)))
                for w in (np.ones(m), rng.integers(1, 30, m).astype(float), 10 ** rng.uniform(-2, 2, m)):
                    right = 1.0 / np.sqrt(w)
                    rows, _ = operators._abs_products(cx._faces(3), m, right, None)
                    expected = float(np.max(rows, initial=0.0))
                    assert operators._curl_row_max(cx, right).hex() == expected.hex(), (seed, isolated)
        assert sides == {(True, False), (False, False), (False, True)}, sides

    def test_a_lazily_built_complex_splits_as_the_enumerated_one(self):
        sides = set()
        for seed, (n, p) in enumerate(self.GRAPHS):
            rng = np.random.default_rng(seed)
            graph = self.with_extras(random_graph(rng, n, p), 2)
            eager = enumerate_cliques(Graph(graph.n_vertices, graph.pairs), 3)
            x = rng.normal(size=eager.n_cliques(2))
            counts = WeightScheme({2: (graph.pairs, rng.integers(1, 30, len(x)).astype(float))})
            sides.add((9 * graph.n_vertices**6 > 8192 * len(x)**3, is_dense(eager)))
            for w in (WeightScheme.unit(), counts, random_table_weights(rng, eager, [1, 2])):
                lazy = CliqueComplex(Graph(graph.n_vertices, graph.pairs), 3)
                got, ref = (hodge_decompose(Cochain(1, cx, x), w) for cx in (lazy, eager))
                assert (("faces", 3) in lazy.graph._memo) != is_dense(eager), seed
                for part in ("exact", "harmonic", "coexact", "potential", "prepotential"):
                    assert getattr(got, part).values.tobytes() == getattr(ref, part).values.tobytes(), (seed, part)
                assert got.norms == ref.norms and got.residuals == ref.residuals
        assert sides == {(True, False), (False, False), (False, True)}, sides


def old_abs_products(faces, n_cols, x, y, scale=1.0):
    """_abs_products as it was before blocking: one strided int32 gather or scatter per face column."""
    rows, cols, weights = np.zeros(len(faces)), np.zeros(n_cols), scale * y
    for column in faces.T:
        term = x[column]
        term *= scale
        rows += term
    for column in faces.T[::-1]:
        np.add.at(cols, column, weights)
    return rows, cols


class TestBlockedAbsProducts:
    @pytest.mark.parametrize("block", [1, 5, 64, 1 << 13])
    def test_bit_equal_to_the_unblocked_sums(self, monkeypatch, block):
        monkeypatch.setattr(operators, "_BLOCK", block)
        compared = 0
        for seed in range(6):
            rng = np.random.default_rng(seed)
            cx = enumerate_cliques(random_graph(rng, int(rng.integers(8, 18)), 0.7), 5)
            for order in range(2, 6):
                faces, n_cols = cx._faces(order), cx.n_cliques(order - 1)
                n_rows = len(faces)
                x, rows_w = 10 ** rng.uniform(-2, 2, n_cols), 10 ** rng.uniform(-2, 2, n_rows)
                for y, scale in ((1.0, 1.0), (rows_w, 1.0), (1.0, rows_w), (rows_w[::-1].copy(), rows_w)):
                    got = operators._abs_products(faces, n_cols, x, y, scale)
                    ref = old_abs_products(faces, n_cols, x, y, scale)
                    assert all(a.tobytes() == b.tobytes() for a, b in zip(got, ref)), (seed, order)
                    compared += n_rows > block
        assert compared >= 10 or block == 1 << 13


class TestLaplacianStopBound:
    def test_bit_equal_to_abs_lap_through_the_split(self, monkeypatch):
        seen = {}

        def recording(matvec, rhs, atol, what):
            seen[what] = atol
            return np.zeros_like(rhs)

        monkeypatch.setattr(decompose, "_cg", recording)
        compared = 0
        for seed in range(8):
            rng = np.random.default_rng(seed)
            cx = enumerate_cliques(random_graph(rng, int(rng.integers(6, 15)), 0.6), 5)
            for w in (WeightScheme.unit(), random_table_weights(rng, cx)):
                for k in range(3):
                    if not cx.n_cliques(k + 1):
                        continue
                    c = Cochain(k, cx, rng.normal(size=cx.n_cliques(k + 1)))
                    hodge_decompose(c, w, method="laplacian-residual")
                    lap = hodge_laplacian(cx, k, w).matrix
                    bound = float(np.max(abs(lap) @ np.ones(lap.shape[0]), initial=0.0))
                    scale = np.linalg.norm(np.sqrt(w.vector(cx, k)) * c.values)
                    assert seen["the laplacian image"] == SOLVER_RTOL * bound * scale, (seed, k)
                    compared += 1
        assert compared >= 40

    def test_row_sums_copy_no_index_array(self):
        rng = np.random.default_rng(0)
        cx = enumerate_cliques(random_graph(rng, 100, 0.5), 3)
        lap = hodge_laplacian(cx, 1, random_table_weights(rng, cx, [1, 2, 3])).matrix
        assert lap.nnz > 100_000
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            got = operators._abs_row_sums(lap)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert got.tobytes() == (abs(lap) @ np.ones(lap.shape[0])).tobytes()
        assert peak < lap.data.nbytes + lap.indices.nbytes // 2  # abs(lap) copies both


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


class TestOperatorPairSizeGuard:
    """verify_operator_pair refuses a pair whose n x n arrays, with [A; B^T] and an SVD's copy, would not fit in
    physical memory, before it forms any product or SVD."""

    @staticmethod
    def refused_at(monkeypatch, A, B, need: int) -> None:
        ranks = []
        monkeypatch.setattr(decompose, "matrix_rank", lambda M, rtol: ranks.append(M.shape) or matrix_rank(M, rtol))
        monkeypatch.setattr(complexes.os, "sysconf", lambda name: {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": need - 1}[name])
        n = A.shape[1]
        with pytest.raises(ValueError, match=rf"A\^T A \+ B B\^T has side {n}: .* needs {need} bytes, more than the "
                                             rf"{need - 1} bytes of physical memory"):
            verify_operator_pair(A, B)
        assert not ranks
        monkeypatch.setattr(complexes.os, "sysconf", lambda name: {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": need}[name])
        assert verify_operator_pair(A, B).passed and len(ranks) == 6

    def test_the_laplacian_and_its_terms(self, monkeypatch):
        A, B = np.ones((1, 5)), np.zeros((5, 1))  # three 5 x 5 arrays
        self.refused_at(monkeypatch, A, B, 8 * 3 * 5**2)

    def test_the_stacked_pair_and_its_copy(self, monkeypatch):
        A, B = np.ones((6, 2)), np.zeros((2, 1))  # the 2 x 2 sum, then [A; B^T] and its copy, 7 x 2 each
        self.refused_at(monkeypatch, A, B, 8 * (2**2 + 2 * 7 * 2))


class TestCgOracle:
    """decompose.cg against scipy.sparse.linalg.cg, which it replaced: x, info and callbacks bit for bit."""

    @staticmethod
    def both(matvec, b, atol):
        steps = {"ours": 0, "scipy": 0}

        def count(name):
            return lambda _: steps.__setitem__(name, steps[name] + 1)

        ours = decompose.cg(matvec, b, atol, callback=count("ours"))
        op = LinearOperator((b.size, b.size), matvec=matvec, dtype=float)
        theirs = cg(op, b, rtol=0.0, atol=atol, callback=count("scipy"))
        return ours, theirs, steps

    def assert_same(self, *args):
        with np.errstate(all="ignore"):  # a loop run past convergence divides 0 by 0 on both sides
            (x, info), (x_ref, info_ref), steps = self.both(*args)
        assert x.tobytes() == x_ref.tobytes()
        assert info == info_ref and steps["ours"] == steps["scipy"]
        return info, steps["ours"]

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 30), st.integers(0, 2**32 - 1))
    def test_consistent_psd_systems(self, n, seed):
        rng = np.random.default_rng(seed)
        B = rng.normal(size=(n, int(rng.integers(1, n + 1))))  # rank-deficient when it has fewer columns
        A = B @ B.T
        b = A @ rng.normal(size=n)  # in im(A)
        atol = float(rng.choice([0.0, 1e-10, 1e-6, 1e-3])) * np.linalg.norm(b)
        self.assert_same(A.dot, b, atol)

    def test_sparse_laplacian_system(self, rng):
        lap = hodge_laplacian(enumerate_cliques(random_connected_graph(rng, 12), 3), 1).matrix
        b = lap @ rng.normal(size=lap.shape[0])
        info, steps = self.assert_same(lap.dot, b, 1e-10 * np.linalg.norm(b))
        assert info == 0 and steps > 0

    def test_runs_out_of_steps(self, rng):
        A = np.diag(rng.uniform(1.0, 2.0, size=6))
        info, steps = self.assert_same(A.dot, rng.normal(size=6), 0.0)  # |r| < 0 never holds
        assert info == steps == 60

    def test_zero_right_hand_side(self):
        info, steps = self.assert_same(np.eye(3).dot, np.zeros(3), 0.0)
        assert info == steps == 0
