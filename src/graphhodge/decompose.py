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

Every solve is unpreconditioned conjugate gradients from zero on a consistent
symmetric PSD system, whose iterates stay in the image of its matrix and
converge to the minimum-norm solution (Kaasschieter, J. Comput. Appl. Math.
1988): A_e^T A_e g = A_e^T b in C^{k-1} for the potential g; A_c A_c^T u =
A_c A_c^T b for the coexact part, u the projection of b onto im(A_c); A_c^T A_c
h = A_c^T b in C^{k+1} for the prepotential h, solved only when read; Delta_k u
= Delta_k b for the laplacian image. g and h are LSQR's limits, the least-norm
minimizers. A_e and A_c act through _products: D and D^T each read the face array
on their first call, and every later call applies the CSR D, built then, so a product
used once (a right-hand side) builds none: CG from zero repeats one only when it steps.
d_0 is always complexes._d0. On a dense triangle level (64 c_3 >= n^3)
with no triangle weights A_c A_c^T is operators._curl_gram's n x n product and no
triangle is enumerated: c_3 is counted from the adjacency matrix A (see _n_up).
CG stops at a residual of SOLVER_RTOL times a bound on |rhs| in units of |b|:
|M|_2 |b| for the coexact part and the laplacian image, and |A_e|_2 |b| and
|A_c|_2 |b| for the potentials, so that the stop scales with the weights as the
answer does, and never relative to the right-hand side alone, which can be
round-off (the exact part of a harmonic cochain). The bounds for A_e and A_c are
1- times inf-norms read off d_j's faces; on the n x n path the column sums of
|d_1| are the triangles on each edge, (A A)_ij, and the row maximum is scanned
from dense rows of A (operators._curl_row_max). The
residuals |b - A_e g| and |b - u| come from the returned parts. CG is the
in-house loop cg().
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, cached_property, partial

import numpy as np

from .cochains import Cochain, WeightScheme, _weighted_norm, write_cochain_tsv
from .complexes import _check_fits, _d0
from .operators import (_abs_products, _abs_row_sums, _curl_gram, _curl_row_max, _edge_triangles, _face_products,
                        coboundary, hodge_laplacian)

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


def cg(matvec, b: np.ndarray, atol: float, callback=None):
    """scipy.sparse.linalg.cg (scipy 1.17) with rtol=0 and no preconditioner, step for step, for callables: x from
    zero, stopping when |r| < atol or after 10n steps. Returns (x, 0), or (x, 10n) when it ran out."""
    if np.linalg.norm(b) == 0:
        return b.copy(), 0
    x, r, maxiter = np.zeros_like(b), b.copy(), 10 * len(b)
    for step in range(maxiter):
        if np.linalg.norm(r) < atol:
            return x, 0
        rho = np.dot(r, r)
        p, rho_prev = (p * (rho / rho_prev) + r if step else r.copy()), rho
        q = matvec(p)
        alpha = rho / np.dot(p, q)
        x += alpha * p
        r -= alpha * q
        if callback:
            callback(x)
    return x, maxiter


def _cg(matvec, rhs: np.ndarray, atol: float, what: str) -> np.ndarray:
    """The least-norm x with M x = rhs by CG from zero, M = matvec symmetric PSD and rhs in im(M);
    stops at |rhs - M x| <= atol."""
    if not rhs.any():
        return np.zeros_like(rhs)
    steps: list[int] = []
    x, info = cg(matvec, rhs, atol=atol, callback=lambda _: steps.append(1))
    if info != 0:
        raise ConvergenceError(f"conjugate-gradient solve for {what} did not converge",
                               float(np.linalg.norm(rhs - matvec(x))), len(steps))
    return x


def _shift(b: np.ndarray) -> int:
    """s with max |b| 2^s in [1/2, 1) when max |b| < 2^-256, else 0. Below that a norm or a CG inner product of b can
    underflow, and every stop tolerance with it; in the normal range a split commutes bit for bit with 2^s."""
    top = np.max(np.abs(b), initial=0.0)
    return -int(np.frexp(top)[1]) if top < 2.0**-256 else 0


def _up_weights(cx, k: int, w: WeightScheme):
    """W_{k+1} as the weight vector of order k+2, or 1.0 when that order has no table."""
    return w.vector(cx, k + 1) if k + 2 in w.tables else 1.0


def _n_up(cx, k: int) -> int:
    """c_{k+2}; for triangles not enumerated, sum_ij (A A)_ij / 3, exact in float64, unless c_3 <= (sqrt 2 / 3) m^{3/2}
    rules a dense level out, 9 n^6 > 8192 m^3: then, as at k != 1, the level is enumerated on this read."""
    n, m = cx.graph.n_vertices, len(cx.graph.pairs)
    if k != 1 or ("faces", 3) in cx.graph._memo or 9 * n**6 > 8192 * m**3:
        return cx.n_cliques(k + 2)
    return int(_edge_triangles(cx).sum()) // 3


def _dense_curl(cx, k: int, up) -> bool:
    """Whether A_c A_c^T is _curl_gram's n x n product: an edge flow whose triangles have no weight table and fill a
    dense level, 64 c_3 >= n^3."""
    return k == 1 and np.ndim(up) == 0 and 64 * _n_up(cx, k) >= cx.graph.n_vertices ** 3


def _coexact_bound(cx, k: int, up, sqrt_w: np.ndarray) -> float:
    """|A_c|_1 |A_c|_inf for A_c = W_k^{-1/2} D^T, D = diag(up) d_k, read off d_k's faces; where _dense_curl holds,
    |D|^T 1 is the triangles on each edge, counted from the adjacency matrix, and the row maximum is _curl_row_max's,
    with no face read."""
    right = 1.0 / sqrt_w
    rows, cols = ((_curl_row_max(cx, right), _edge_triangles(cx)) if _dense_curl(cx, k, up)
                  else _abs_products(cx._faces(k + 2), len(right), right, 1.0, up))
    return float(np.max(rows, initial=0.0) * np.max(right * cols, initial=0.0))


def _coexact_gram(cx, k: int, up, sqrt_w: np.ndarray):
    """x -> A_c A_c^T x for A_c = W_k^{-1/2} D^T, D = diag(up) d_k: operators._curl_gram's one n x n product where
    _dense_curl holds, and d_1 is not assembled; otherwise D's products."""
    if _dense_curl(cx, k, up):
        gram = _curl_gram(cx)
        return lambda x: gram(x / sqrt_w) / sqrt_w
    d, dt = _products(cx, k, up)
    return lambda x: dt(d(x / sqrt_w)) / sqrt_w


def _products(cx, j: int, up):
    """(D, D^T) as functions, D = diag(up) d_j, up 1.0 or a vector: complexes._d0 at j = 0; else each reads the face
    array (_face_products) on its first call, and every later call applies the CSR D or its transpose, both built
    then, once. Both sum in CSR order, so bit for bit alike, and a product used once builds no CSR: CG from zero
    repeats one only when it steps."""
    if j == 0:
        return _d0(cx.graph, up)
    faces = partial(_face_products, cx._faces(j + 2), cx.n_cliques(j + 1), scale=up)

    @cache
    def csr():
        d = coboundary(cx, j).matrix
        if np.ndim(up):
            import scipy.sparse as sp
            d = sp.diags(up) @ d
            d.sort_indices()  # the product stores each row last face first; the solves sum it in face order
        return d, d.T

    return (_first_call(lambda x: faces(x, None)[0], lambda x: csr()[0].dot(x)),
            _first_call(lambda y: faces(None, y)[1], lambda y: csr()[1] @ y))


def _first_call(first, later):
    """x -> first(x) on the first call, later(x) on every other."""
    calls = iter([first])
    return lambda x: next(calls, later)(x)


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
        """h with A_c^T A_c h = A_c^T b, the least-norm minimizer of |d_k* h - c|_w, solved from the input;
        two-solve only, None without (k+2)-cliques, and solved on first read."""
        cx, k = self.input.complex, self.input.degree
        if self.method != "two-solve" or _n_up(cx, k) == 0:
            return None
        w_here = self.weights.vector(cx, k)
        sqrt_w = np.sqrt(w_here)
        shift = _shift(sqrt_w * self.input.values)
        values = np.ldexp(self.input.values, shift)  # the input as _split solved it
        up = _up_weights(cx, k, self.weights)
        bound = _coexact_bound(cx, k, up, sqrt_w)
        atol = SOLVER_RTOL * np.sqrt(bound) * np.linalg.norm(sqrt_w * values)  # |rhs| <= |A_c|_2 |b|
        d, dt = _products(cx, k, up)
        h = _cg(lambda x: d(dt(x) / w_here), d(values), atol, "the prepotential")
        return Cochain(k + 1, cx, np.ldexp(h, -shift))

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

    Requires the complex to cover level k+2 so d_k exists (possibly with an
    empty target). Empty adjacent levels reduce cleanly: the corresponding
    component is identically zero. Raises ValueError when a solve
    overflows float64, naming the cochain's largest |value|, and the range of the
    weights of degrees k-1..k+1 when one lies outside [1e-77, 1e77]; ConvergenceError
    when a CG solve does not converge.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; choose from {METHODS}")
    w = weights or WeightScheme.unit()
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):  # before numpy warns or CG stalls on it
            return _split(c, w, method)
    except FloatingPointError:  # an overflow, or the inf or nan it leaves: an input error
        message = f"the solves overflow float64 (the cochain's largest |value| is {np.max(np.abs(c.values)):.12g}"
        cx, k = c.complex, c.degree
        low, high = max(k - 1, 0), k + 1  # the degrees d_{k-1} and d_k join
        # an untabled degree weighs 1 where it has a clique: its size is read (_n_up's, above k), no level enumerated
        used = np.concatenate([w.vector(cx, j) if j + 1 in w.tables else
                               np.ones(min(1, _n_up(cx, k) if j > k else cx.n_cliques(j + 1)))
                               for j in range(low, high + 1)])
        if used.min() < 1e-77 or used.max() > 1e77:  # past these, a ratio of two weights can square past float64
            message += f"; the weights of degrees {low}..{high} span {used.min():.12g} to {used.max():.12g}"
        raise ValueError(message + ")") from None


def _split(c: Cochain, w: WeightScheme, method: str) -> HodgeSplit:
    """hodge_decompose, with the weight scheme given and the method checked."""
    cx, k = c.complex, c.degree
    has_up = _n_up(cx, k) > 0  # raises when the complex does not cover level k+2
    w_here = w.vector(cx, k)
    sqrt_w = np.sqrt(w_here)
    b = sqrt_w * c.values
    shift = _shift(b)
    if shift:  # a tiny cochain: split c 2^shift, then scale every result back by 2^-shift
        s, back = _split(Cochain(k, cx, np.ldexp(c.values, shift)), w, method), 2.0**-shift
        potential = None if s.potential is None else s.potential * back
        norms, residuals = ({name: v * back for name, v in d.items()} for d in (s.norms, s.residuals))
        return HodgeSplit(c, s.exact * back, s.harmonic * back, s.coexact * back, potential, norms, residuals, method, w)
    scale = np.linalg.norm(b)

    def solve_exact(target: np.ndarray) -> tuple[np.ndarray, np.ndarray | None, float]:
        """min_g |d_{k-1} g - target|_w; returns (exact coords, potential, residual)."""
        if k == 0 or cx.n_cliques(k) == 0:
            return np.zeros_like(target), None, float(np.linalg.norm(sqrt_w * target))
        d, dt = _products(cx, k - 1, 1.0)
        cols = _abs_products(cx._faces(k + 1), cx.n_cliques(k), None, sqrt_w)[1]
        # |A_e|_inf |A_e|_1: each row of |d_{k-1}| sums to k + 1, the faces of a (k+1)-clique
        bound = np.max(cols, initial=0.0) * ((k + 1) * np.max(sqrt_w, initial=0.0))
        atol = SOLVER_RTOL * np.sqrt(bound) * scale  # |rhs| <= |A_e|_2 |b|
        g = _cg(lambda x: dt(w_here * d(x)), dt(w_here * target), atol, "the potential")
        if k - 1 == 0:
            g = _mean_zero_gauge(g, cx)
        exact = d(g)
        return exact, g, float(np.linalg.norm(sqrt_w * (target - exact)))

    residuals: dict[str, float] = {}
    if method == "two-solve":
        exact_vals, g, residuals["exact_solve"] = solve_exact(c.values)
        coexact_vals = np.zeros_like(c.values)
        if has_up:
            up = _up_weights(cx, k, w)
            bound = _coexact_bound(cx, k, up, sqrt_w)
            gram = _coexact_gram(cx, k, up, sqrt_w)  # D is assembled only when CG steps: not at a round-off rhs
            coexact_vals = _cg(gram, gram(b), SOLVER_RTOL * bound * scale, "the coexact part") / sqrt_w
        residuals["coexact_solve"] = float(np.linalg.norm(sqrt_w * (c.values - coexact_vals)))
        harmonic_vals = c.values - exact_vals - coexact_vals
    else:
        lap = hodge_laplacian(cx, k, w).matrix
        bound = float(np.max(_abs_row_sums(lap), initial=0.0))  # |lap|_1 >= |lap|_2
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
    the Hodge Laplacian A^T A + B B^T. A pair whose dense n x n arrays would not fit in physical memory is
    refused (ValueError naming n and the bytes) before any product is formed.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    m, n = A.shape
    n2, p = B.shape
    if n != n2:
        raise ValueError(f"inner dimensions differ: A is {A.shape}, B is {B.shape}")
    # at the peak: A^T A, B B^T and their sum as it is formed, or later the sum, [A; B^T] and the SVD's copy of it
    _check_fits(8 * n * max(3 * n, n + 2 * (m + p)),
                f"the Hodge Laplacian A^T A + B B^T has side {n}: with its terms and the stacked [A; B^T] it")
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
