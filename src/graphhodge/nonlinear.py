"""Nonlinear p-Laplacians on graphs, exhaustive Cheeger constants, and the
Cheeger inequality report.

The p-Laplacian acts on vertex functions through the gradient edge flow:

    (L_p f)(i) = sum_{j ~ i} |f(j) - f(i)|^{p-2} (f(i) - f(j)),   p > 1,

where the magnitude factor is applied entrywise per edge (a package
convention; the edgewise reading is the one that reduces to the graph
Laplacian at p = 2). At p = 1 the sign function is set-valued on zero-gradient
edges, so the operator returns per-vertex intervals of attainable values; a
selection mode with sgn(0) := 0 picks a single representative. The gradient
is f(head) - f(tail) on each edge of graph.pairs (tail < head), and d_0^T adds
each edge's term into its tail and head in edge order (complexes._d0).

The Cheeger constant of a connected graph,

    h(G) = min over nonempty proper S of |E(S, V\\S)| / min(Vol(S), Vol(V\\S)),

with Vol the sum of degrees, is computed exactly over every subset containing
vertex 1 (complement symmetry halves the work). The vertices are split in two
halves; each half's cut counts are tabulated once, and a block of cuts is
scored in buffers allocated once: its boundary sizes are one small matrix
product of the halves' augmented tables, its volumes one broadcast sum. All
counts are integers or half-integers, held exactly in float32; ties are settled
exactly, by cross-multiplication and then the lexicographically smallest subset.

The classical two-sided eigenvalue bound lambda_2/2 <= h <= sqrt(2 lambda_2)
is reported for both the plain and the degree-normalized Laplacian; only the
normalized form is guaranteed by this package (the plain form fails already
on the 4-cycle with this volume-based h).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .complexes import Graph, _d0

MAX_EXHAUSTIVE_VERTICES = 24
_CHUNK = 1 << 18


def apply_p_laplacian(graph: Graph, f, p: float, mode: str = "interval"):
    """Evaluate the nonlinear p-Laplacian at a vertex function (unit weights).

    For p > 1 returns the value vector. For p = 1 returns an (n, 2) array of
    per-vertex [lo, hi] attainable values when mode="interval", or the single
    representative with sgn(0) := 0 when mode="selection".
    """
    if not p >= 1:  # also rejects NaN
        raise ValueError(f"p must be >= 1, got {p}")
    values = np.asarray(f, dtype=float)
    n = graph.n_vertices
    if values.shape != (n,):
        raise ValueError(f"expected {n} vertex values, got shape {values.shape}")
    if p == 1 and mode not in ("interval", "selection"):
        raise ValueError(f"unknown mode {mode!r}")
    d0, d0t = _d0(graph)
    grad = d0(values)
    edge_term = np.sign(grad) * np.abs(grad) ** (p - 1.0)  # sgn(grad) exactly at p = 1: |x|**0 is 1
    out = d0t(edge_term)
    if p > 1 or mode == "selection":
        return out
    slack = np.bincount(graph.pairs[grad == 0].ravel() - 1, minlength=n).astype(float)
    return np.column_stack([out - slack, out + slack])


@dataclass(frozen=True)
class Cut:
    """A vertex bipartition witness: subset, boundary size, volumes, exact ratio."""

    subset: tuple[int, ...]
    boundary_edges: int
    volumes: tuple[int, int]
    ratio: Fraction

    def to_json_dict(self) -> dict:
        return {
            "subset": list(self.subset),
            "boundary_edges": self.boundary_edges,
            "volumes": list(self.volumes),
            "ratio": str(self.ratio),
            "ratio_value": float(self.ratio),
        }


def cheeger_constant(graph: Graph) -> tuple[Fraction, Cut]:
    """Exact Cheeger constant over every cut, with a witnessing cut.

    Meet in the middle (Horowitz and Sahni, J. ACM 1974): the first
    a = ceil(n/2) vertices form the half L, with vertex 1 always in S, and
    the rest form R. For indicator rows x = (x_L, x_R),

        Vol(S) = vol_L + vol_R,  vol_H = x_H . deg_H,
        |E(S, V\\S)| = x . deg - x A x^T = b_L + b_R - 2 x_L C x_R^T,
        b_H = vol_H - x_H A_HH x_H^T,

    with C the L-by-R block of the adjacency matrix A. Each half is tabulated
    once. A block of L rows against every R row fills buffers allocated once:
    the boundary as one product of augmented tables,

        [x_L | b_L | 1] . [-2 C x_R^T ; 1 ; b_R],

    and the centred volume Vol(S) - T/2 = (vol_L - T/2) + vol_R, T the total
    volume, as one broadcast sum, whence min(Vol(S), Vol(V\\S)) =
    T/2 - |Vol(S) - T/2| in place. The cell S = V, the last of the last block,
    gets boundary inf and volume 1, so it is no cut. Entries and partial sums
    are integers or half-integers of magnitude at most 4|E|, cross-multiplied
    counts at most |E|^2, all below 2^17 (|E| <= 276 at 24 vertices): float32
    holds them exactly, and BLAS in any summation order.

    Rounding keeps order, and two distinct ratios b/m, b'/m' with b, m, b', m'
    <= |E| differ by a relative |b m' - b' m| / (b m') >= 1/|E|^2 > 2^-17, far
    above float32 rounding, so a block's smallest float ratio b*/m* is an exact
    minimum. The cuts tied with it are found exactly by cross-multiplication in
    place, b m* = b* m, and the lexicographically smallest of them wins.
    Limited to 24 vertices; larger graphs need heuristics out of scope here.
    """
    n = graph.n_vertices
    if n > MAX_EXHAUSTIVE_VERTICES:
        raise ValueError(
            f"exhaustive enumeration is capped at {MAX_EXHAUSTIVE_VERTICES} vertices (got {n}); "
            "use a partitioning heuristic instead"
        )
    if n < 2:
        raise ValueError("Cheeger constant needs at least two vertices")
    if not graph.is_connected():
        raise ValueError("Cheeger constant is defined for connected graphs only")

    degrees = np.array(graph.degrees, dtype=np.float32)
    total_volume = degrees.sum()
    adjacency = np.zeros((n, n), np.float32)
    u, v = (graph.pairs - 1).T
    adjacency[u, v] = adjacency[v, u] = 1.0

    a = (n + 1) // 2
    left_masks = (np.arange(1 << (a - 1)) << 1) | 1  # bit 0 set: one side of every bipartition
    right_masks = np.arange(1 << (n - a))
    x_left, x_right = _bit_rows(left_masks, a), _bit_rows(right_masks, n - a)
    vol_left, vol_right = x_left @ degrees[:a], x_right @ degrees[a:]
    b_left = vol_left - np.einsum("ij,jk,ik->i", x_left, adjacency[:a, :a], x_left)
    b_right = vol_right - np.einsum("ij,jk,ik->i", x_right, adjacency[a:, a:], x_right)
    left_cut = np.column_stack([x_left, b_left, np.ones(len(left_masks), np.float32)])
    right_cut = np.vstack([-2.0 * adjacency[:a, a:] @ x_right.T, np.ones(len(right_masks), np.float32), b_right])
    half = total_volume / 2
    centred_left = vol_left - half

    step = min(_CHUNK // len(right_masks), len(left_masks))
    boundary, small, ratio = (np.empty((step, len(right_masks)), np.float32) for _ in range(3))
    best_b, best_m, best_mask = 1, 0, None  # the smallest ratio so far, 1/0 before any cut
    for start in range(0, len(left_masks), step):
        np.matmul(left_cut[start:start + step], right_cut, out=boundary)
        np.add(centred_left[start:start + step, None], vol_right, out=small)
        np.abs(small, out=small)
        np.subtract(half, small, out=small)
        if start + step == len(left_masks):
            boundary[-1, -1], small[-1, -1] = np.inf, 1.0  # S = V
        np.divide(boundary, small, out=ratio)
        k = int(np.argmin(ratio))
        b, m = int(boundary.flat[k]), int(small.flat[k])
        if b * best_m > best_b * m:
            continue
        boundary *= m
        small *= b
        i, j = np.divmod(np.flatnonzero(boundary == small), len(right_masks))
        mask = _lexicographic_min(left_masks[start + i] | (right_masks[j] << a))
        if b * best_m == best_b * m:
            mask = _lexicographic_min(np.array([best_mask, mask]))
        best_b, best_m, best_mask = b, m, mask

    # the winner's own counts: tied cuts share the ratio, not always b* and m*
    x = _bit_rows(np.array([best_mask]), n)[0]
    vol_s = int(x @ degrees)
    boundary_edges = vol_s - int(x @ adjacency @ x)
    volumes = (vol_s, int(total_volume) - vol_s)
    ratio = Fraction(boundary_edges, min(volumes))
    subset = tuple(int(i) + 1 for i in np.flatnonzero(x))
    return ratio, Cut(subset, boundary_edges, volumes, ratio)


def _bit_rows(masks: np.ndarray, width: int) -> np.ndarray:
    """0/1 float32 rows: column b holds bit b of each mask."""
    return ((masks[:, None] >> np.arange(width)) & 1).astype(np.float32)


def _lexicographic_min(masks: np.ndarray) -> int:
    """The mask whose ascending vertex tuple is smallest, among distinct masks.

    One pass over the bits keeps the rows that tie on every lower bit. A row
    with no bit at or above the current one is a prefix of the others, so it
    is smallest; otherwise the rows with the current bit set are smaller.
    """
    bit = 0
    while len(masks) > 1:
        high = masks >> bit
        if not high.all():
            return int(masks[high == 0][0])
        ones = high & 1 == 1
        if ones.any():
            masks = masks[ones]
        bit += 1
    return int(masks[0])


def _lambda2(matrix: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(matrix)[1])


@dataclass(frozen=True)
class CheegerReport:
    """h(G) with the eigenvalue bounds for both Laplacian normalizations."""

    h: Fraction
    cut: Cut
    lambda2_plain: float
    lambda2_normalized: float
    plain_holds: bool
    normalized_holds: bool

    inequality = "lambda2/2 <= h <= sqrt(2*lambda2)"

    def to_json_dict(self) -> dict:
        return {
            "h": str(self.h),
            "h_value": float(self.h),
            "cut": self.cut.to_json_dict(),
            "inequality": self.inequality,
            "lambda2_plain": self.lambda2_plain,
            "lambda2_normalized": self.lambda2_normalized,
            "plain_holds": self.plain_holds,
            "normalized_holds": self.normalized_holds,
        }


def cheeger_check(graph: Graph, slack: float = 1e-12) -> CheegerReport:
    """Compute h(G) and test the two-sided eigenvalue bound for both normalizations.

    Only the degree-normalized bound is asserted by this package's test suite;
    the plain-Laplacian version is reported for comparison.
    """
    h, cut = cheeger_constant(graph)
    d = np.array(graph.degrees, dtype=float)
    laplacian = np.diag(d)  # d_0^T d_0, dense: at most 24 vertices
    u, v = (graph.pairs - 1).T
    laplacian[u, v] = laplacian[v, u] = -1.0
    scale = 1.0 / np.sqrt(d)
    normalized = scale[:, None] * laplacian * scale[None, :]
    lam_plain = _lambda2(laplacian)
    lam_norm = _lambda2(normalized)
    h_val = float(h)

    def holds(lam: float) -> bool:
        return 0.5 * lam <= h_val + slack and h_val <= np.sqrt(2 * lam) + slack

    return CheegerReport(h, cut, lam_plain, lam_norm, holds(lam_plain), holds(lam_norm))
