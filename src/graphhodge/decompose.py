"""Least-squares Hodge decomposition of cochains and operator-pair verification.

A degree-k cochain c splits orthogonally (in the weighted inner product) as

    c = exact + harmonic + coexact,   exact in im(d_{k-1}), coexact in im(d_k*),

with the harmonic part in ker(Delta_k). The two-solve route minimizes
``|d_{k-1} g - c|`` and ``|d_k* h - c|`` and takes the harmonic part as the
leftover; the laplacian-residual route projects c onto im(Delta_k), reads the
harmonic part off the remainder, and splits the projection between the two
images. Both work after symmetric diagonal scaling, so that norms and
projections are the weighted ones: b = W_k^{1/2} c, A_e = W_k^{1/2} d_{k-1}
and A_c = W_k^{-1/2} d_k^T W_{k+1}.

Every solve is conjugate gradients from zero on a consistent symmetric PSD
system in C^{k-1} or C^k, whose iterates stay in the image of its matrix and
converge to the minimum-norm solution (Kaasschieter, J. Comput. Appl. Math.
1988): A_e^T A_e g = A_e^T b for the potential g; A_c A_c^T u = A_c A_c^T b
for the coexact part, u the projection of b onto im(A_c); A_c A_c^T y = u for
the prepotential h = A_c^T y, solved only when read and Jacobi-preconditioned
(every solution y gives the same h); Delta_k u = Delta_k b for the laplacian
image. g and h are LSQR's limits, the least-norm minimizers.
A_e and A_c act as products with the cached d_j and the weights. CG stops at
a residual of SOLVER_RTOL times a bound on |rhs| in units of |b|: |M|_2 |b| for
the coexact part and the laplacian image, |A_e|_2 |b| for the potential and
|b| for the prepotential, so that the stop scales with the weights as the
answer does, and never relative to the right-hand side alone, which can be
round-off (the exact part of a harmonic cochain). The residuals |b - A_e g|
and |b - u| come from the returned parts. CG is the in-house loop cg().
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .cochains import Cochain, WeightScheme, _weighted_norm, write_cochain_tsv
from .operators import coboundary, hodge_laplacian

SOLVER_RTOL = 1e-10
METHODS = ("two-solve", "laplacian-residual")


class ConvergenceError(RuntimeError):
    """Iterative solver did not converge; carries the best residual reached."""

    def __init__(self, message: str, residual: float, iterations: int):
        super().__init__(f"{message} (best residual {residual:.3e} after {iterations} iterations)")
        self.residual = residual
        self.iterations = iterations


def __getattr__(name: str):
    if name != "lsqr":  # unused, but the benchmark's tracer wraps it under this name: loaded on lookup
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from scipy.sparse.linalg import lsqr
    return lsqr


def cg(matvec, b: np.ndarray, rtol: float = 1e-5, atol: float = 0.0, M=None, callback=None):
    """scipy.sparse.linalg.cg (scipy 1.17) step for step, for callables: x from zero, stopping when
    |r| < max(atol, rtol |b|) or after 10n steps. Returns (x, 0), or (x, 10n) when it ran out."""
    b_norm = np.linalg.norm(b)
    atol = max(float(atol), float(rtol) * float(b_norm))
    if b_norm == 0:
        return b.copy(), 0
    x, r, maxiter = np.zeros_like(b), b.copy(), 10 * len(b)
    for step in range(maxiter):
        if np.linalg.norm(r) < atol:
            return x, 0
        z = M(r) if M else r
        rho = np.dot(r, z)
        p, rho_prev = (p * (rho / rho_prev) + z if step else z.copy()), rho
        q = matvec(p)
        alpha = rho / np.dot(p, q)
        x += alpha * p
        r -= alpha * q
        if callback:
            callback(x)
    return x, maxiter


def _cg(matvec, rhs: np.ndarray, atol: float, what: str, diag: np.ndarray | None = None) -> np.ndarray:
    """x with M x = rhs by CG from zero, M = matvec symmetric PSD and rhs in im(M);
    stops at |rhs - M x| <= atol. A positive diag preconditions (Jacobi), and x is then a
    solution but not the least-norm one."""
    if not rhs.any():
        return np.zeros_like(rhs)
    steps: list[int] = []
    jacobi = None if diag is None else lambda r: r / diag
    x, info = cg(matvec, rhs, rtol=0.0, atol=atol, M=jacobi, callback=lambda _: steps.append(1))
    if info != 0:
        raise ConvergenceError(f"conjugate-gradient solve for {what} did not converge",
                               float(np.linalg.norm(rhs - matvec(x))), len(steps))
    return x


def _gram_bound(m, right: np.ndarray) -> float:
    """|D|_1 |D|_inf >= |D^T D|_2 = |D D^T|_2 for D = m diag(right), m sparse."""
    mag = abs(m)
    col_sums = right * (mag.T @ np.ones(m.shape[0]))
    return float(np.max(mag @ right, initial=0.0) * np.max(col_sums, initial=0.0))


def _coexact_operator(cx, k: int, w: WeightScheme, sqrt_w: np.ndarray):
    """(A_c A_c^T, bound >= |A_c A_c^T|_2, D) for A_c = W_k^{-1/2} D^T, applied as products with
    D = W_{k+1} d_k: the cached d_k itself when order k+2 has no weight table."""
    d = coboundary(cx, k).matrix
    if w.tables.get(k + 2):
        import scipy.sparse as sp
        d = sp.diags(w.vector(cx, k + 1)) @ d
    return lambda x: (d.T @ (d @ (x / sqrt_w))) / sqrt_w, _gram_bound(d, 1.0 / sqrt_w), d


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
    norms: dict[str, float]
    residuals: dict[str, float]
    method: str
    weights: WeightScheme = field(repr=False, default_factory=WeightScheme.unit)

    @cached_property
    def prepotential(self) -> Cochain | None:
        """h = A_c^T y, A_c A_c^T y = W^{1/2} coexact, the least-norm minimizer of |d_k* h - c|_w;
        two-solve only, None without (k+2)-cliques, and solved on first read."""
        cx, k = self.input.complex, self.input.degree
        if self.method != "two-solve" or cx.n_cliques(k + 2) == 0:
            return None
        w_here = self.weights.vector(cx, k)
        sqrt_w = np.sqrt(w_here)
        gram, _, d = _coexact_operator(cx, k, self.weights, sqrt_w)
        diag = (d.multiply(d).T @ np.ones(d.shape[0])) / w_here
        atol = SOLVER_RTOL * np.linalg.norm(sqrt_w * self.input.values)  # |rhs| <= |b|
        # every solution y gives the same h, so a preconditioner costs nothing in the answer
        y = _cg(gram, sqrt_w * self.coexact.values, atol, "the prepotential", np.where(diag > 0, diag, 1.0))
        return Cochain(k + 1, cx, d @ (y / sqrt_w))

    def to_json_dict(self) -> dict:
        out = {"k": self.input.degree, "method": self.method, "norms": self.norms,
               "residuals": self.residuals, "solver_rtol": SOLVER_RTOL}
        for name in ("input", "exact", "harmonic", "coexact", "potential", "prepotential"):
            part = getattr(self, name)
            if part is not None:
                out[name] = write_cochain_tsv(part)
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
    cx, k = c.complex, c.degree
    has_up = cx.n_cliques(k + 2) > 0  # raises when level k+2 was never enumerated
    w_here = w.vector(cx, k)
    sqrt_w = np.sqrt(w_here)
    b = sqrt_w * c.values
    scale = np.linalg.norm(b)

    def solve_exact(target: np.ndarray) -> tuple[np.ndarray, np.ndarray | None, float]:
        """min_g |d_{k-1} g - target|_w; returns (exact coords, potential, residual)."""
        if k == 0 or cx.n_cliques(k) == 0:
            return np.zeros_like(target), None, float(np.linalg.norm(sqrt_w * target))
        d = coboundary(cx, k - 1).matrix
        atol = SOLVER_RTOL * np.sqrt(_gram_bound(d.T, sqrt_w)) * scale  # |rhs| <= |A_e|_2 |b|
        g = _cg(lambda x: d.T @ (w_here * (d @ x)), d.T @ (w_here * target), atol, "the potential")
        if k - 1 == 0:
            g = _mean_zero_gauge(g, cx)
        exact = d @ g
        return exact, g, float(np.linalg.norm(sqrt_w * (target - exact)))

    residuals: dict[str, float] = {}
    if method == "two-solve":
        exact_vals, g, residuals["exact_solve"] = solve_exact(c.values)
        coexact_vals = np.zeros_like(c.values)
        if has_up:
            gram, bound, _ = _coexact_operator(cx, k, w, sqrt_w)
            coexact_vals = _cg(gram, gram(b), SOLVER_RTOL * bound * scale, "the coexact part") / sqrt_w
        residuals["coexact_solve"] = float(np.linalg.norm(sqrt_w * (c.values - coexact_vals)))
        harmonic_vals = c.values - exact_vals - coexact_vals
    else:
        lap = hodge_laplacian(cx, k, w).matrix
        bound = float(np.max(abs(lap) @ np.ones(lap.shape[0]), initial=0.0))  # |lap|_1 >= |lap|_2
        image_scaled = _cg(lap.dot, lap @ b, SOLVER_RTOL * bound * scale, "the laplacian image")
        residuals["laplacian_solve"] = float(np.linalg.norm(b - image_scaled))
        image_vals = image_scaled / sqrt_w
        harmonic_vals = c.values - image_vals
        exact_vals, g, residuals["split_solve"] = solve_exact(image_vals)
        coexact_vals = image_vals - exact_vals

    parts = (exact_vals, harmonic_vals, coexact_vals)
    recon = c.values - (exact_vals + harmonic_vals + coexact_vals)
    residuals["reconstruction"] = float(np.linalg.norm(sqrt_w * recon))
    names = ("input", "exact", "harmonic", "coexact")
    norms = {name: _weighted_norm(v, w_here) for name, v in zip(names, (c.values, *parts))}
    potential = Cochain(k - 1, cx, g) if g is not None else None
    return HodgeSplit(c, *(Cochain(k, cx, v) for v in parts), potential, norms, residuals, method, w)


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
