"""Least-squares Hodge decomposition of cochains and operator-pair verification.

A degree-k cochain c splits orthogonally (in the weighted inner product) as

    c = exact + harmonic + coexact,   exact in im(d_{k-1}), coexact in im(d_k*),

with the harmonic part in ker(Delta_k). The two-solve route minimizes
``|d_{k-1} g - c|`` and ``|d_k* h - c|`` and takes the harmonic part as the
leftover; the laplacian-residual route projects c onto im(Delta_k) =
im(d_{k-1}) + im(d_k*), reads the harmonic part off the remainder, and splits
the projection between the two images. Both work after symmetric diagonal
scaling, so that norms and projections are the weighted ones.

The potential and prepotential problems are least squares with a rank-deficient
operator; LSQR solves them. The projection onto im(Delta_k) is the solution u
of the singular but consistent system Delta_k u = Delta_k c: conjugate
gradients started from zero keep every iterate in the Krylov space of
Delta_k c, inside im(Delta_k), and converge to that projection (Kaasschieter,
J. Comput. Appl. Math. 1988). CG needs a few hundred iterations where LSQR on
Delta_k, which is CG on Delta_k^2, needs thousands.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import cg, lsqr

from .cochains import Cochain, WeightScheme, norm
from .operators import coboundary, hodge_laplacian

SOLVER_RTOL = 1e-10
METHODS = ("two-solve", "laplacian-residual")


class ConvergenceError(RuntimeError):
    """Iterative solver did not converge; carries the best residual reached."""

    def __init__(self, message: str, residual: float, iterations: int):
        super().__init__(f"{message} (best residual {residual:.3e} after {iterations} iterations)")
        self.residual = residual
        self.iterations = iterations


def _solve_least_squares(A: sp.spmatrix, b: np.ndarray, what: str) -> tuple[np.ndarray, float]:
    """min_x |A x - b|_2 via LSQR with the package-wide tolerance and iteration cap."""
    rows, cols = A.shape
    if cols == 0:
        return np.zeros(0), float(np.linalg.norm(b))
    if rows == 0:
        return np.zeros(cols), 0.0
    iter_lim = 10 * max(rows, cols) + 10
    x, istop, itn, r1norm = lsqr(A, b, atol=SOLVER_RTOL, btol=SOLVER_RTOL, iter_lim=iter_lim)[:4]
    if istop not in (0, 1, 2, 4, 5):
        raise ConvergenceError(f"least-squares solve for {what} did not converge", float(r1norm), int(itn))
    return x, float(r1norm)


def _laplacian_image(lap: sp.spmatrix, b: np.ndarray) -> tuple[np.ndarray, float]:
    """Orthogonal projection u of b onto im(lap), lap symmetric PSD, and |b - u|_2.

    CG on the consistent system lap u = lap b, started from zero.
    """
    iterations = 0

    def count(_):
        nonlocal iterations
        iterations += 1

    rhs = lap @ b
    u, info = cg(lap, rhs, rtol=SOLVER_RTOL, callback=count)
    if info != 0:
        residual = float(np.linalg.norm(rhs - lap @ u))
        raise ConvergenceError("conjugate-gradient solve for the laplacian image did not converge",
                               residual, iterations)
    return u, float(np.linalg.norm(b - u))


def _mean_zero_gauge(values: np.ndarray, cx) -> np.ndarray:
    """Shift a 0-cochain to mean zero on each connected component."""
    out = values.copy()
    for comp in cx.graph.connected_components():
        idx = [v - 1 for v in comp]
        out[idx] -= out[idx].mean()
    return out


@dataclass(frozen=True)
class HodgeSplit:
    """Result of a Hodge decomposition, with potentials and a norm certificate."""

    input: Cochain
    exact: Cochain
    harmonic: Cochain
    coexact: Cochain
    potential: Cochain | None
    prepotential: Cochain | None
    norms: dict[str, float]
    residuals: dict[str, float]
    method: str
    weights: WeightScheme = field(repr=False, default_factory=WeightScheme.unit)

    def to_json_dict(self) -> dict:
        from .cochains import write_cochain_tsv

        out = {
            "k": self.input.degree,
            "method": self.method,
            "norms": self.norms,
            "residuals": self.residuals,
            "input": write_cochain_tsv(self.input),
            "exact": write_cochain_tsv(self.exact),
            "harmonic": write_cochain_tsv(self.harmonic),
            "coexact": write_cochain_tsv(self.coexact),
            "solver_rtol": SOLVER_RTOL,
        }
        if self.potential is not None:
            out["potential"] = write_cochain_tsv(self.potential)
        if self.prepotential is not None:
            out["prepotential"] = write_cochain_tsv(self.prepotential)
        return out


def hodge_decompose(
    c: Cochain, weights: WeightScheme | None = None, method: str = "two-solve"
) -> HodgeSplit:
    """Split a cochain into exact, harmonic, and coexact parts by least squares.

    Requires the complex to be enumerated through level k+2 so d_k exists
    (possibly with an empty target). Empty adjacent levels reduce cleanly: the
    corresponding component is identically zero.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; choose from {METHODS}")
    w = weights or WeightScheme.unit()
    cx = c.complex
    k = c.degree
    w_here = w.vector(cx, k)
    sqrt_w = np.sqrt(w_here)

    down = coboundary(cx, k - 1) if k >= 1 else None
    up = coboundary(cx, k)

    def solve_exact(target: np.ndarray) -> tuple[np.ndarray, np.ndarray | None, float]:
        """min_g |d_{k-1} g - target|_w; returns (exact coords, potential, residual)."""
        if down is None or down.matrix.shape[1] == 0:
            return np.zeros_like(target), None, float(np.linalg.norm(sqrt_w * target))
        A = sp.diags(sqrt_w) @ down.matrix
        g, res = _solve_least_squares(A, sqrt_w * target, "the potential")
        if k - 1 == 0:
            g = _mean_zero_gauge(g, cx)
        return down.matrix @ g, g, res

    def solve_coexact(target: np.ndarray) -> tuple[np.ndarray, np.ndarray | None, float]:
        """min_h |d_k* h - target|_w; returns (coexact coords, prepotential, residual)."""
        if up.matrix.shape[0] == 0:
            return np.zeros_like(target), None, float(np.linalg.norm(sqrt_w * target))
        w_up = w.vector(cx, k + 1)
        A = sp.diags(1.0 / sqrt_w) @ up.matrix.transpose() @ sp.diags(w_up)
        h, res = _solve_least_squares(A, sqrt_w * target, "the prepotential")
        coex = (up.matrix.transpose() @ (w_up * h)) / w_here
        return coex, h, res

    residuals: dict[str, float] = {}
    if method == "two-solve":
        exact_vals, g, res_e = solve_exact(c.values)
        coexact_vals, h, res_c = solve_coexact(c.values)
        harmonic_vals = c.values - exact_vals - coexact_vals
        residuals["exact_solve"] = res_e
        residuals["coexact_solve"] = res_c
    else:
        lap = hodge_laplacian(cx, k, w)
        image_scaled, res_l = _laplacian_image(lap.matrix, sqrt_w * c.values)
        image_vals = image_scaled / sqrt_w if image_scaled.size else image_scaled
        harmonic_vals = c.values - image_vals
        exact_vals, g, res_e = solve_exact(image_vals)
        coexact_vals = image_vals - exact_vals
        h = None
        residuals["laplacian_solve"] = res_l
        residuals["split_solve"] = res_e

    exact = Cochain(k, cx, exact_vals)
    harmonic = Cochain(k, cx, harmonic_vals)
    coexact = Cochain(k, cx, coexact_vals)
    recon = c.values - (exact_vals + harmonic_vals + coexact_vals)
    residuals["reconstruction"] = float(np.linalg.norm(sqrt_w * recon))
    norms = {
        "input": norm(c, w),
        "exact": norm(exact, w),
        "harmonic": norm(harmonic, w),
        "coexact": norm(coexact, w),
    }
    potential = Cochain(k - 1, cx, g) if g is not None else None
    prepotential = Cochain(k + 1, cx, h) if h is not None else None
    return HodgeSplit(c, exact, harmonic, coexact, potential, prepotential, norms, residuals, method, w)


def harmonic_project(c: Cochain, weights: WeightScheme | None = None) -> Cochain:
    """The harmonic component alone: the canonical cohomology representative."""
    return hodge_decompose(c, weights).harmonic


def matrix_rank(M: np.ndarray, rtol: float = 1e-9) -> int:
    """Numerical rank: singular values above rtol times the largest."""
    M = np.atleast_2d(np.asarray(M, dtype=float))
    if M.size == 0:
        return 0
    sigma = np.linalg.svd(M, compute_uv=False)
    if sigma.size == 0 or sigma[0] == 0:
        return 0
    return int(np.count_nonzero(sigma > rtol * sigma[0]))


@dataclass(frozen=True)
class ClauseCheck:
    name: str
    lhs: int
    rhs: int

    @property
    def ok(self) -> bool:
        return self.lhs == self.rhs


@dataclass(frozen=True)
class OperatorPairReport:
    """Dimension identities satisfied by a pair (A, B) with AB = 0."""

    shape_a: tuple[int, int]
    shape_b: tuple[int, int]
    rank_a: int
    rank_b: int
    kernel_laplacian_dim: int
    clauses: tuple[ClauseCheck, ...]
    rank_rtol: float

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.clauses)

    def to_json_dict(self) -> dict:
        return {
            "shape_a": list(self.shape_a),
            "shape_b": list(self.shape_b),
            "rank_a": self.rank_a,
            "rank_b": self.rank_b,
            "kernel_laplacian_dim": self.kernel_laplacian_dim,
            "rank_rtol": self.rank_rtol,
            "passed": self.passed,
            "clauses": {c.name: {"lhs": c.lhs, "rhs": c.rhs, "ok": c.ok} for c in self.clauses},
        }


def verify_operator_pair(A, B, rank_rtol: float = 1e-9, product_tol: float = 1e-12) -> OperatorPairReport:
    """Check the Fredholm and pair decomposition identities for AB = 0.

    Every clause is a dimension identity evaluated with independent
    rank-revealing SVDs: of A, of B, of A^T A, of the stacked [A; B^T], and of
    the Hodge Laplacian A^T A + B B^T.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    m, n = A.shape
    n2, p = B.shape
    if n != n2:
        raise ValueError(f"inner dimensions differ: A is {A.shape}, B is {B.shape}")
    scale = max(1.0, float(np.linalg.norm(A, 2) * np.linalg.norm(B, 2))) if A.size and B.size else 1.0
    product = A @ B
    if product.size and np.max(np.abs(product)) > product_tol * scale:
        raise ValueError(
            f"AB != 0: max entry {np.max(np.abs(product)):.3e} exceeds {product_tol * scale:.3e}"
        )

    rank_a = matrix_rank(A, rank_rtol)
    rank_at = matrix_rank(A.T, rank_rtol)
    rank_ata = matrix_rank(A.T @ A, rank_rtol)
    rank_b = matrix_rank(B, rank_rtol)
    laplacian = A.T @ A + B @ B.T
    rank_lap = matrix_rank(laplacian, rank_rtol)
    ker_lap = n - rank_lap
    stacked = np.vstack([A, B.T])
    ker_a_cap_ker_bstar = n - matrix_rank(stacked, rank_rtol)

    clauses = (
        # single-matrix (Fredholm) identities
        ClauseCheck("ker_normal_equals_ker", n - rank_ata, n - rank_a),
        ClauseCheck("rank_normal_equals_rank", rank_ata, rank_a),
        ClauseCheck("coker_dim", m - rank_at, m - rank_a),
        ClauseCheck("row_space_dim", rank_at, rank_a),
        ClauseCheck("domain_splits", n, (n - rank_a) + rank_at),
        # pair identities
        ClauseCheck("harmonic_is_closed_and_coclosed", ker_lap, ker_a_cap_ker_bstar),
        ClauseCheck("ker_a_splits", n - rank_a, rank_b + ker_lap),
        ClauseCheck("ker_bstar_splits", n - rank_b, rank_a + ker_lap),
        ClauseCheck("three_way_sum", n, rank_a + ker_lap + rank_b),
        ClauseCheck("laplacian_image_splits", rank_lap, rank_a + rank_b),
    )
    return OperatorPairReport(A.shape, B.shape, rank_a, rank_b, ker_lap, clauses, rank_rtol)
