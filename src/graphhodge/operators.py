"""Coboundary operators, weighted adjoints, and Hodge k-Laplacians as matrices.

The degree-k coboundary sends k-cochains to (k+1)-cochains:

    (d_k f)(i0,...,i_{k+1}) = sum_j (-1)^j f(i0,...,^i_j,...,i_{k+1})

In the canonical ascending-clique bases its matrix has rows indexed by
(k+2)-cliques, columns by (k+1)-cliques, entries in {-1, 0, +1}. d_0 is the
gradient, (grad f)(i,j) = f(j) - f(i); d_1 is the curl,
(curl X)(i,j,k) = X(i,j) + X(j,k) + X(k,i).

With weighted inner products <x,y>_k = x^T W_k y, the adjoint of a matrix M
mapping level k to level k+1 is W_k^{-1} M^T W_{k+1}. The Hodge k-Laplacian
d_{k-1} d_{k-1}* + d_k* d_k is self-adjoint in that inner product but not
symmetric as a plain matrix unless weights are unit, so HodgeLaplacian stores
the similarity-symmetrized form W^{1/2} L W^{-1/2} (identical to L for unit
weights) and converts in apply(). Eigenvalues are unaffected.

coboundary() is the package's only incidence builder, and it assembles each
d_k once per complex: the gradient used by the nonlinear p-Laplacian and the
Cheeger report is coboundary(cx, 0), and every Hodge Laplacian is assembled
and symmetrized as a sparse matrix. spectral eigensolves the coboundaries'
Gram matrices instead; only harmonic_basis turns a Laplacian dense.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .cochains import Cochain, WeightScheme
from .complexes import CliqueComplex, InputFormatError


@dataclass(frozen=True)
class CoboundaryOperator:
    """Matrix of d_k: rows (k+2)-cliques, columns (k+1)-cliques, entries 0/+-1."""

    degree: int
    complex: CliqueComplex
    matrix: sp.csr_matrix = field(repr=False)

    @property
    def shape(self) -> tuple[int, int]:
        return self.matrix.shape


def coboundary(cx: CliqueComplex, k: int) -> CoboundaryOperator:
    """d_k, assembled once per complex. Requires levels k+1 and k+2 to be known (the latter may be empty).

    Every caller on the same complex gets the same matrix, so it must never be
    modified in place.
    """
    if k < 0:
        raise ValueError(f"coboundary degree must be >= 0, got {k}")
    cache = cx._operator_cache
    key = ("coboundary", k)
    if key not in cache:
        # the matrix alone: an operator would refer back to cx and keep it alive in a cycle
        cache[key] = _assemble_coboundary(cx, k)
    return CoboundaryOperator(k, cx, cache[key])


def _assemble_coboundary(cx: CliqueComplex, k: int) -> sp.csr_matrix:
    cols = cx.cliques(k + 1)
    rows = cx.cliques(k + 2)
    col_index = cx.index(k + 1)
    data, ri, ci = [], [], []
    for r, simplex in enumerate(rows):
        for j in range(len(simplex)):
            face = simplex[:j] + simplex[j + 1 :]
            ri.append(r)
            ci.append(col_index[face])
            data.append(1.0 if j % 2 == 0 else -1.0)
    return sp.csr_matrix((data, (ri, ci)), shape=(len(rows), len(cols)))


def adjoint(op: CoboundaryOperator, weights: WeightScheme | None = None) -> sp.csr_matrix:
    """Weighted adjoint W_lower^{-1} M^T W_upper; plain transpose for unit weights."""
    w = weights or WeightScheme.unit()
    if w.mode == "unit":
        return op.matrix.transpose().tocsr()
    w_lower = w.vector(op.complex, op.degree)
    w_upper = w.vector(op.complex, op.degree + 1)
    lower_inv = sp.diags(1.0 / w_lower) if w_lower.size else sp.csr_matrix((0, 0))
    upper = sp.diags(w_upper) if w_upper.size else sp.csr_matrix((0, 0))
    return (lower_inv @ op.matrix.transpose() @ upper).tocsr()


def divergence_matrix(cx: CliqueComplex, weights: WeightScheme | None = None) -> sp.csr_matrix:
    """div = -grad*, mapping edge flows to vertex functions."""
    return (-adjoint(coboundary(cx, 0), weights)).tocsr()


@dataclass(frozen=True)
class HodgeLaplacian:
    """Hodge k-Laplacian in weight-symmetrized coordinates.

    matrix = W^{1/2} (d_{k-1} d_{k-1}* + d_k* d_k) W^{-1/2}, which is symmetric
    PSD for every weight scheme and equals the operator matrix when weights are
    unit. apply() acts on cochain coordinates directly.
    """

    degree: int
    complex: CliqueComplex
    weights: WeightScheme
    matrix: sp.csr_matrix = field(repr=False)

    @property
    def shape(self) -> tuple[int, int]:
        return self.matrix.shape

    def dense(self) -> np.ndarray:
        return self.matrix.toarray()


def _laplacian_dim(cx: CliqueComplex, k: int) -> int:
    """Size of Delta_k, after checking that k is in range and its up level is known."""
    if k < 0 or k > cx.max_order - 1:
        raise ValueError(f"laplacian degree {k} out of range 0..{cx.max_order - 1}")
    cx.cliques(k + 2)  # raises if the up level is unknown
    return cx.n_cliques(k + 1)


def hodge_laplacian(cx: CliqueComplex, k: int, weights: WeightScheme | None = None) -> HodgeLaplacian:
    """Assemble the Hodge k-Laplacian d_{k-1} d_{k-1}* + d_k* d_k.

    The up term needs the (k+2)-clique level; if that level was never
    enumerated and cannot be proven empty, this raises rather than return a
    silently wrong Laplacian.
    """
    w = weights or WeightScheme.unit()
    n_here = _laplacian_dim(cx, k)
    lap = sp.csr_matrix((n_here, n_here))
    if n_here > 0:
        sqrt_w = np.sqrt(w.vector(cx, k))
        up = coboundary(cx, k)
        if up.matrix.shape[0] > 0:
            w_up = w.vector(cx, k + 1)
            # W^{1/2} d* d W^{-1/2} with d* = W^{-1} d^T W_up
            scaled_up = sp.diags(np.sqrt(w_up)) @ up.matrix @ sp.diags(1.0 / sqrt_w)
            lap = lap + scaled_up.transpose() @ scaled_up
        if k >= 1:
            down = coboundary(cx, k - 1)
            w_down = w.vector(cx, k - 1)
            # W^{1/2} d d* W^{-1/2} with d* = W_down^{-1} d^T W
            scaled_down = sp.diags(sqrt_w) @ down.matrix @ sp.diags(1.0 / np.sqrt(w_down))
            lap = lap + scaled_down @ scaled_down.transpose()
    lap = (0.5 * (lap + lap.T)).tocsr()  # scrub assembly roundoff
    lap.eliminate_zeros()  # store no cancelled or underflowed entries
    lap.sort_indices()
    return HodgeLaplacian(k, cx, w, lap)


def apply_operator(op: CoboundaryOperator | HodgeLaplacian, c: Cochain) -> Cochain:
    """Matrix action on a cochain, returning a cochain of the appropriate degree."""
    if c.complex != op.complex:
        raise ValueError("cochain and operator live on different complexes")
    if isinstance(op, CoboundaryOperator):
        if c.degree != op.degree:
            raise ValueError(f"operator expects degree {op.degree}, got {c.degree}")
        return Cochain(op.degree + 1, op.complex, op.matrix @ c.values)
    if isinstance(op, HodgeLaplacian):
        if c.degree != op.degree:
            raise ValueError(f"laplacian expects degree {op.degree}, got {c.degree}")
        sqrt_w = np.sqrt(op.weights.vector(op.complex, op.degree))
        out = op.matrix @ (sqrt_w * c.values)
        if out.size:
            out = out / sqrt_w
        return Cochain(op.degree, op.complex, out)
    raise TypeError(f"cannot apply object of type {type(op).__name__}")


def write_matrix(mat: sp.spmatrix, fmt: str = "%.12g") -> str:
    """Serialize in MatrixMarket coordinate format, 1-indexed, sorted by (row, col)."""
    coo = sp.coo_matrix(mat)
    order = np.lexsort((coo.col, coo.row))
    lines = ["%%MatrixMarket matrix coordinate real general",
             f"{coo.shape[0]} {coo.shape[1]} {coo.nnz}"]
    for idx in order:
        lines.append(f"{coo.row[idx] + 1} {coo.col[idx] + 1} " + fmt % coo.data[idx])
    return "\n".join(lines) + "\n"


def read_matrix(text: str) -> sp.csr_matrix:
    """Parse the coordinate format written by write_matrix."""
    lines = [ln.strip() for ln in text.splitlines()]
    body = [ln for ln in lines if ln and not ln.startswith("%")]
    if not body:
        raise InputFormatError("empty matrix document")
    try:
        n_rows, n_cols, nnz = (int(t) for t in body[0].split())
    except ValueError:
        raise InputFormatError("malformed size line") from None
    if len(body) - 1 != nnz:
        raise InputFormatError(f"expected {nnz} entries, found {len(body) - 1}")
    rows, cols, data = [], [], []
    for ln in body[1:]:
        tokens = ln.split()
        if len(tokens) != 3:
            raise InputFormatError(f"malformed entry line: {ln!r}")
        rows.append(int(tokens[0]) - 1)
        cols.append(int(tokens[1]) - 1)
        data.append(float(tokens[2]))
    return sp.csr_matrix((data, (rows, cols)), shape=(n_rows, n_cols))
