"""Coboundary operators, weighted adjoints, and Hodge k-Laplacians as matrices.

The degree-k coboundary sends k-cochains to (k+1)-cochains:

    (d_k f)(i0,...,i_{k+1}) = sum_j (-1)^j f(i0,...,^i_j,...,i_{k+1})

In the canonical ascending-clique bases its matrix has rows indexed by
(k+2)-cliques, columns by (k+1)-cliques, entries in {-1, 0, +1}. d_0 is the
gradient, (grad f)(i,j) = f(j) - f(i); d_1 is the curl,
(curl X)(i,j,k) = X(i,j) + X(j,k) + X(k,i).

With weighted inner products <x,y>_k = x^T W_k y, the adjoint of a matrix M
mapping level k to level k+1 is W_k^{-1} M^T W_{k+1}. In the scaled coboundary
B_j = W_{j+1}^{1/2} d_j W_j^{-1/2} that adjoint is a plain transpose, so the
Hodge k-Laplacian L = d_{k-1} d_{k-1}* + d_k* d_k becomes the symmetric
B_k^T B_k + B_{k-1} B_{k-1}^T = W^{1/2} L W^{-1/2}, which HodgeLaplacian stores
(identical to L for unit weights; apply() converts). Unit weight means no
table, and B_j is d_j itself when neither of its levels has one.

coboundary() is the package's only incidence builder, and it assembles each
d_k once per graph; every Hodge Laplacian is a sparse sum of B products.
spectral eigensolves the Grams of the same B_j instead; only harmonic_basis
turns a Laplacian dense. nonlinear applies d_0 from the edge array itself.
scipy.sparse is imported by the functions that build matrices, not on import.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .cochains import Cochain, WeightScheme
from .complexes import CliqueComplex, InputFormatError
from .textio import id_value_lines

if TYPE_CHECKING:
    import scipy.sparse as sp


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
    """d_k, assembled once per graph. Requires levels k+1 and k+2 to be known (the latter may be empty).

    Every caller on the same graph gets the same matrix, so it must never be
    modified in place.
    """
    if k < 0:
        raise ValueError(f"coboundary degree must be >= 0, got {k}")
    # the memo keeps the matrix alone: an operator refers back to cx
    return CoboundaryOperator(k, cx, cx._memo("coboundary", k + 2, lambda: _assemble_coboundary(cx, k)))


def _assemble_coboundary(cx: CliqueComplex, k: int) -> sp.csr_matrix:
    """Row r of d_k holds (-1)^j at the face of (k+2)-clique r without its vertex j.

    A face without a later vertex comes earlier in lexicographic order, so
    taking j from k+1 down to 0 lists each row's columns ascending.
    """
    import scipy.sparse as sp
    rows = cx.level(k + 2)
    n_rows, order = rows.shape
    drop = range(order - 1, -1, -1)
    indices = np.column_stack([cx.locate(np.delete(rows, j, axis=1)) for j in drop]).ravel()
    data = np.tile([1.0 if j % 2 == 0 else -1.0 for j in drop], n_rows)
    indptr = np.arange(0, order * n_rows + 1, order)
    return sp.csr_matrix((data, indices, indptr), shape=(n_rows, cx.n_cliques(k + 1)))


def adjoint(op: CoboundaryOperator, weights: WeightScheme | None = None) -> sp.csr_matrix:
    """Weighted adjoint W_lower^{-1} M^T W_upper; plain transpose for unit weights."""
    import scipy.sparse as sp
    w = weights or WeightScheme.unit()
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
    cx.level(k + 2)  # raises if the up level is unknown
    return cx.n_cliques(k + 1)


def _unscaled(w: WeightScheme, j: int) -> bool:
    """True when neither level of d_j (orders j+1 and j+2) has a weight table."""
    return not (w.tables.get(j + 1) or w.tables.get(j + 2))


def _weighted_coboundary(cx: CliqueComplex, j: int, w: WeightScheme) -> sp.csr_matrix:
    """B_j = W_{j+1}^{1/2} d_j W_j^{-1/2}; the cached d_j itself when _unscaled(w, j)."""
    d = coboundary(cx, j).matrix
    if _unscaled(w, j):
        return d
    import scipy.sparse as sp
    return sp.diags(np.sqrt(w.vector(cx, j + 1))) @ d @ sp.diags(1.0 / np.sqrt(w.vector(cx, j)))


def hodge_laplacian(cx: CliqueComplex, k: int, weights: WeightScheme | None = None) -> HodgeLaplacian:
    """Assemble the Hodge k-Laplacian B_k^T B_k + B_{k-1} B_{k-1}^T, B_j the weight-scaled d_j.

    The up term needs the (k+2)-clique level; if that level was never
    enumerated and cannot be proven empty, this raises rather than return a
    silently wrong Laplacian. Both sparse products come out bitwise symmetric,
    so nothing is symmetrized afterwards.
    """
    w = weights or WeightScheme.unit()
    _laplacian_dim(cx, k)  # range and up-level checks
    up = _weighted_coboundary(cx, k, w)
    lap = up.T @ up
    if k >= 1:
        down = _weighted_coboundary(cx, k - 1, w)
        lap = lap + down @ down.T
    lap = lap.tocsr()
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


def write_matrix(mat: sp.spmatrix) -> str:
    """Serialize in MatrixMarket coordinate format, 1-indexed, sorted by (row, col); ValueError on nan/inf."""
    coo = mat.tocoo()
    order = np.lexsort((coo.col, coo.row))
    header = f"%%MatrixMarket matrix coordinate real general\n{coo.shape[0]} {coo.shape[1]} {coo.nnz}\n"
    return header + id_value_lines(np.column_stack((coo.row[order] + 1, coo.col[order] + 1)), coo.data[order])


def read_matrix(text: str) -> sp.csr_matrix:
    """Parse the coordinate format written by write_matrix.

    Raises InputFormatError, naming the line, at a malformed size or entry
    line, an index outside 1..size, a non-finite value or a coordinate given twice.
    """
    import scipy.sparse as sp
    body = [(lineno, line.split()) for lineno, raw in enumerate(text.splitlines(), start=1)
            if (line := raw.strip()) and not line.startswith("%")]
    if not body:
        raise InputFormatError("empty matrix document")
    (lineno, tokens), entry_lines = body[0], body[1:]
    try:
        n_rows, n_cols, nnz = (int(t) for t in tokens)
    except ValueError:
        raise InputFormatError(f"line {lineno}: malformed size line") from None
    if min(n_rows, n_cols, nnz) < 0:
        raise InputFormatError(f"line {lineno}: sizes must be >= 0")
    if len(entry_lines) != nnz:
        raise InputFormatError(f"expected {nnz} entries, found {len(entry_lines)}")
    entries: dict[tuple[int, int], float] = {}
    for lineno, tokens in entry_lines:
        if len(tokens) != 3:
            raise InputFormatError(f"line {lineno}: expected a row, a column and a value")
        try:
            i, j, value = int(tokens[0]), int(tokens[1]), float(tokens[2])
        except ValueError:
            raise InputFormatError(f"line {lineno}: non-numeric token") from None
        if not (1 <= i <= n_rows and 1 <= j <= n_cols):
            raise InputFormatError(f"line {lineno}: entry ({i}, {j}) outside {n_rows} x {n_cols}")
        if not math.isfinite(value):
            raise InputFormatError(f"line {lineno}: value must be finite, got {value}")
        if (i, j) in entries:
            raise InputFormatError(f"line {lineno}: duplicate entry for ({i}, {j})")
        entries[i, j] = value
    rows, cols = np.array(list(entries), dtype=np.int64).reshape(-1, 2).T - 1
    return sp.csr_matrix((list(entries.values()), (rows, cols)), shape=(n_rows, n_cols))
