import json

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import LinearOperator, cg, lsqr

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
import graphhodge.decompose as decompose
from graphhodge.cli import main
from graphhodge.decompose import SOLVER_RTOL, _mean_zero_gauge

from conftest import LAP_ISO_A, complete_graph, cycle_graph, pinv_split, random_connected_graph, random_graph
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
            tables = {order: dict.fromkeys(cx.cliques(order), 1.0) | w.tables.get(order, {}) for order in range(1, 5)}
            heavy = WeightScheme({o: {c: 1e8 * x for c, x in t.items()} for o, t in tables.items()})
            heavy_triangles = WeightScheme(tables | {3: {c: 1e3 * x for c, x in tables[3].items()}})
            for scheme in (heavy, heavy_triangles):
                for k in range(3):
                    self.assert_matches_lsqr(Cochain(k, cx, rng.normal(size=cx.n_cliques(k + 1))), scheme)
        triangle = enumerate_cliques(complete_graph(3), 3)
        c = Cochain(1, triangle, np.array([1.0, 0.0, 0.0]))
        got = self.assert_matches_lsqr(c, WeightScheme({o: dict.fromkeys(triangle.cliques(o), 1e11) for o in (1, 2, 3)}))
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


class TestCgOracle:
    """decompose.cg against scipy.sparse.linalg.cg, which it replaced: x, info and callbacks bit for bit."""

    @staticmethod
    def both(matvec, b, diag=None, **tolerances):
        steps = {"ours": 0, "scipy": 0}

        def count(name):
            return lambda _: steps.__setitem__(name, steps[name] + 1)

        ours = decompose.cg(matvec, b, M=None if diag is None else lambda r: r / diag,
                            callback=count("ours"), **tolerances)
        op = LinearOperator((b.size, b.size), matvec=matvec, dtype=float)
        jacobi = None if diag is None else LinearOperator(op.shape, matvec=lambda r: r / diag, dtype=float)
        theirs = cg(op, b, M=jacobi, callback=count("scipy"), **tolerances)
        return ours, theirs, steps

    def assert_same(self, *args, **tolerances):
        with np.errstate(all="ignore"):  # a loop run past convergence divides 0 by 0 on both sides
            (x, info), (x_ref, info_ref), steps = self.both(*args, **tolerances)
        assert x.tobytes() == x_ref.tobytes()
        assert info == info_ref and steps["ours"] == steps["scipy"]
        return info, steps["ours"]

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 30), st.integers(0, 2**32 - 1), st.booleans(), st.sampled_from([0.0, 1e-12, 1e-6]))
    def test_consistent_psd_systems(self, n, seed, jacobi, rtol):
        rng = np.random.default_rng(seed)
        B = rng.normal(size=(n, int(rng.integers(1, n + 1))))  # rank-deficient when it has fewer columns
        A = B @ B.T
        b = A @ rng.normal(size=n)  # in im(A)
        diag = np.where(np.diag(A) > 0, np.diag(A), 1.0) if jacobi else None
        atol = float(rng.choice([0.0, 1e-10, 1e-3])) * np.linalg.norm(b)
        self.assert_same(A.dot, b, diag, rtol=rtol, atol=atol)

    def test_sparse_laplacian_system(self, rng):
        lap = hodge_laplacian(enumerate_cliques(random_connected_graph(rng, 12), 3), 1).matrix
        b = lap @ rng.normal(size=lap.shape[0])
        info, steps = self.assert_same(lap.dot, b, rtol=0.0, atol=1e-10 * np.linalg.norm(b))
        assert info == 0 and steps > 0

    def test_runs_out_of_steps(self, rng):
        A = np.diag(rng.uniform(1.0, 2.0, size=6))
        b = rng.normal(size=6)
        for diag in (None, np.diag(A)):
            info, steps = self.assert_same(A.dot, b, diag, rtol=0.0, atol=0.0)  # |r| < 0 never holds
            assert info == steps == 60

    def test_zero_right_hand_side(self):
        info, steps = self.assert_same(np.eye(3).dot, np.zeros(3), rtol=0.0, atol=0.0)
        assert info == steps == 0
