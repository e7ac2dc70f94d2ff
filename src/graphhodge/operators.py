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

_coboundary_entries reads B_j's entries off the recorded faces, their one home:
coboundary() assembles d_k from them as CSR once per graph, for the sparse sums of
every Hodge Laplacian and for CG steps, and spectral's dense Grams and the operator
command read them with no sparse matrix. A product used once (a right-hand side, a
CG stop bound, the game's curl check) reads the faces by _face_products, bit for bit
CSR's; d_k is assembled only when CG takes a step. On a dense triangle level, CG
applies d_1^T d_1 as _curl_gram's one product with the dense adjacency matrix; a
product with d_0 outside a Laplacian runs on the edge array (complexes._d0). Only harmonic_basis
turns a Laplacian dense. scipy.sparse is imported by the functions that build sparse matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING

import numpy as np

from .cochains import Cochain, WeightScheme
from .complexes import CliqueComplex, InputFormatError, _check_fits, _fields_equal, _frozen
from .textio import id_value_lines

if TYPE_CHECKING:
    import scipy.sparse as sp


@dataclass(frozen=True)
class CoboundaryOperator:
    """Matrix of d_k: rows (k+2)-cliques, columns (k+1)-cliques, entries 0/+-1."""

    degree: int
    complex: CliqueComplex
    matrix: sp.csr_matrix = field(repr=False)

    __eq__ = _fields_equal

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


def _coboundary_entries(cx: CliqueComplex, j: int, w: WeightScheme) -> tuple[np.ndarray, np.ndarray]:
    """B_j's entries as (faces, values): row r holds values[r, i] in column faces[r, i], and nothing else.

    Column i of the faces drops vertex j+1-i, where d_j holds (-1)^(j+1-i); weighted values are those of
    sp.diags(sqrt(w_up)) @ d_j @ sp.diags(1 / sqrt(w_low)), operation for operation."""
    if j < 0:
        raise ValueError(f"coboundary degree must be >= 0, got {j}")
    faces = cx._faces(j + 2)
    sign = (-1.0) ** np.arange(faces.shape[1] - 1, -1, -1)
    if _unscaled(w, j):
        return faces, np.broadcast_to(sign, faces.shape)
    return faces, (np.sqrt(w.vector(cx, j + 1))[:, None] * sign) * (1.0 / np.sqrt(w.vector(cx, j)))[faces]


_BLOCK = 1 << 13  # rows per block of _face_products: an intp copy of its faces stays in cache


def _face_products(faces: np.ndarray, n_cols: int, x, y, scale=1.0, signed=True) -> tuple:
    """(B x, B^T y), B = diag(scale) d_j, or |B| when not signed, from d_j's faces, summed as scipy's CSR and CSC
    products sum them, so bit for bit; None for the product whose x or y is None. A face's later rows insert a vertex
    ever later, so hold it at earlier face columns: run those last to first, and each column sum runs down the rows,
    block after block of _BLOCK rows. A block gathers and scatters through a contiguous intp copy of its face
    columns, not the strided int32 ones. Column i's coefficient is d_j's (-1)^(j+1-i), or 1 when not signed."""
    rows, cols = (None if x is None else np.zeros(len(faces))), (None if y is None else np.zeros(n_cols))
    weights = None if y is None else scale * y
    signs = (-1.0) ** np.arange(faces.shape[1] - 1, -1, -1) if signed else np.ones(faces.shape[1])

    def part(values, block):
        return values[block] if np.ndim(values) else values

    for start in range(0, len(faces), _BLOCK):
        block = slice(start, start + _BLOCK)
        columns = faces[block].T.astype(np.intp, order="C")
        if rows is not None:
            for column, sign in zip(columns, signs):
                term = x[column]
                term *= part(scale, block) * sign  # scale * sign is B's entry, exactly
                rows[block] += term
        if cols is not None:
            for column, sign in zip(columns[::-1], signs[::-1]):
                np.add.at(cols, column, part(weights, block) * sign)
    return rows, cols


_abs_products = partial(_face_products, signed=False)  # (|B| x, |B|^T y)


def _abs_row_sums(m: sp.csr_matrix) -> np.ndarray:
    """abs(m) @ ones, bit for bit, with |m.data| the one copy: the matrix it multiplies shares m's index arrays."""
    import scipy.sparse as sp
    return sp.csr_matrix((np.abs(m.data), m.indices, m.indptr), shape=m.shape) @ np.ones(m.shape[1])


def _curl_gram(cx: CliqueComplex):
    """y -> d_1^T d_1 y for flows y on cx's edges, as one product of n x n matrices and no d_1.

    Every triangle on the edge (i, j) is a common neighbour k, so with Y the skew matrix of y, A the adjacency
    matrix and counts the triangles on each edge (_edge_triangles), (d_1^T d_1 y)(i, j) = sum_k Y_ij + Y_jk + Y_ki
    = counts_ij Y_ij + (Y A)_ji - (Y A)_ij: the local inconsistency operator of HodgeRank (Jiang, Lim, Yao and Ye,
    Math. Program. 2011). Each entry of Y A sums over the common neighbours alone, as d_1's products do, in another
    order. A is kept once per graph; Y and Y A are the returned function's own buffers, and Y is zero off the edges.
    """
    n, adjacency, ends, counts = cx.graph.n_vertices, _adjacency(cx), cx.graph.pairs - 1, _edge_triangles(cx)
    ij, ji = ends @ (n, 1), ends @ (1, n)
    flow, product = np.zeros((n, n)), np.empty((n, n))
    flat_flow, flat_product = flow.reshape(-1), product.reshape(-1)

    def apply(y: np.ndarray) -> np.ndarray:
        flat_flow[ij] = y
        flat_flow[ji] = -y
        np.matmul(flow, adjacency, out=product)
        return (counts * y + flat_product.take(ji)) - flat_product.take(ij)

    return apply


def _edge_triangles(cx: CliqueComplex) -> np.ndarray:
    """|d_1|^T 1, the triangles on each edge (i, j), bit for bit: (A A)_ij counts their common neighbours exactly.
    Kept once per graph next to A, from an A of its own: the dense path's readers alone keep one."""

    def build() -> np.ndarray:
        adjacency, ends = _adjacency(cx, kept=False), cx.graph.pairs - 1
        return _frozen((adjacency @ adjacency)[ends[:, 0], ends[:, 1]])

    return cx._memo("edge triangles", 3, build)


def _curl_row_max(cx: CliqueComplex, right: np.ndarray) -> float:
    """max |d_1| right, bit for bit _abs_products' row maximum, read from n x n rows with no face: row (a, b, c) is
    (r_ab + r_ac) + r_bc, r = right. Addition is monotone, so u_bc = (top_b + top_c) + r_bc bounds every row whose
    last face is (b, c), top_v the largest r on an edge at v on a triangle. Edges are scanned by decreasing u, ~8192
    entries at a time, over their common neighbours a < b, until the next u is at most the largest row found."""
    n, on = cx.graph.n_vertices, _edge_triangles(cx) > 0
    (b, c), r, rs = cx.graph.pairs[on].T - 1, right[on], np.zeros((n, n))
    rs[b, c] = rs[c, b] = r
    top, adjacency, best = rs.max(axis=1), _adjacency(cx), 0.0
    u = (top[b] + top[c]) + r
    order, step = np.argsort(-u, kind="stable"), max(1, 8192 // n)
    for e in (order[at:at + step] for at in range(0, len(order), step)):
        if u[e[0]] <= best:
            break
        common = np.logical_and(adjacency[b[e]], adjacency[c[e]]) & (np.arange(n) < b[e, None])
        best = max(best, float(np.max((rs[b[e]] + rs[c[e]]) + r[e, None], where=common, initial=0.0)))
    return best


def _adjacency(cx: CliqueComplex, kept: bool = True) -> np.ndarray:
    """The read-only dense n x n adjacency matrix of cx's graph, as floats, kept once per graph unless not kept."""

    def build() -> np.ndarray:
        n, ends = cx.graph.n_vertices, cx.graph.pairs - 1
        adjacency = np.zeros((n, n))
        adjacency[ends[:, 0], ends[:, 1]] = adjacency[ends[:, 1], ends[:, 0]] = 1.0
        return _frozen(adjacency)

    return cx._memo("adjacency", 2, build) if kept else build()


def _assemble_coboundary(cx: CliqueComplex, k: int, w: WeightScheme | None = None) -> sp.csr_matrix:
    """B_k (d_k for unit weights) as CSR: the face array raveled is its column index as it stands, and its
    row pointer is built in the face array's dtype, so scipy keeps an int32 pair without a copy."""
    import scipy.sparse as sp
    faces, values = _coboundary_entries(cx, k, w or WeightScheme.unit())
    n_rows, order = faces.shape
    indptr = np.arange(0, faces.size + 1, order, dtype=faces.dtype if faces.size < 2**31 else np.int64)
    return sp.csr_matrix((values.ravel(), faces.ravel(), indptr), shape=(n_rows, cx.n_cliques(k + 1)))


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

    __eq__ = _fields_equal

    @property
    def shape(self) -> tuple[int, int]:
        return self.matrix.shape

    def dense(self) -> np.ndarray:
        return self.matrix.toarray()


def _laplacian_dim(cx: CliqueComplex, k: int) -> int:
    """Size of Delta_k, after checking that k is in range and its up level is known."""
    if k < 0 or k > cx.max_order - 1:
        raise ValueError(f"laplacian degree {k} out of range 0..{cx.max_order - 1}")
    cx.n_cliques(k + 2)  # raises if the up level is unknown
    return cx.n_cliques(k + 1)


def _unscaled(w: WeightScheme, j: int) -> bool:
    """True when neither level of d_j (orders j+1 and j+2) has a weight table."""
    return j + 1 not in w.tables and j + 2 not in w.tables


def _weighted_coboundary(cx: CliqueComplex, j: int, w: WeightScheme) -> sp.csr_matrix:
    """B_j = W_{j+1}^{1/2} d_j W_j^{-1/2}; the cached d_j itself when _unscaled(w, j)."""
    return coboundary(cx, j).matrix if _unscaled(w, j) else _assemble_coboundary(cx, j, w)


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
    return _write_coordinates(coo.shape, coo.row, coo.col, coo.data)


def _write_coordinates(shape: tuple[int, int], row: np.ndarray, col: np.ndarray, data: np.ndarray) -> str:
    """write_matrix of the matrix holding data[i] at (row[i], col[i]), 0-indexed and each coordinate once."""
    order = np.lexsort((col, row))
    header = f"%%MatrixMarket matrix coordinate real general\n{shape[0]} {shape[1]} {len(data)}\n"
    return header + id_value_lines(np.column_stack((row[order] + 1, col[order] + 1)), data[order])


def read_matrix(text: str) -> sp.csr_matrix:
    """Parse the coordinate format written by write_matrix.

    Raises InputFormatError, naming the line, at a malformed size or entry
    line, a size past int64 or whose row pointer exceeds physical memory, an
    index outside 1..size, a non-finite value or a coordinate given twice.
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
    if max(n_rows, n_cols) >= 2**63:
        raise InputFormatError(f"line {lineno}: size {max(n_rows, n_cols)} is past int64")
    try:
        _check_fits(8 * (n_rows + 1), f"line {lineno}: the row pointer of {n_rows} rows")
    except ValueError as exc:
        raise InputFormatError(str(exc)) from None
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
