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
each edge's term into its tail and head in edge order, as a sparse d_0 would.

The Cheeger constant of a connected graph,

    h(G) = min over nonempty proper S of |E(S, V\\S)| / min(Vol(S), Vol(V\\S)),

with Vol the sum of degrees, is computed exactly over every subset containing
vertex 1 (complement symmetry halves the work). The vertices are split in two
halves; each half's cut counts are tabulated once, and a block of cuts is one
small matrix product over the adjacency block between the halves. All counts
are integers, held exactly in float64; ties are settled exactly, by
cross-multiplication and then the lexicographically smallest subset.

The classical two-sided eigenvalue bound lambda_2/2 <= h <= sqrt(2 lambda_2)
is reported for both the plain and the degree-normalized Laplacian; only the
normalized form is guaranteed by this package (the plain form fails already
on the 4-cycle with this volume-based h).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .complexes import Graph

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
    ends = graph.pairs.ravel() - 1  # tail, head of each edge in turn
    grad = values[ends[1::2]] - values[ends[::2]]
    edge_term = np.sign(grad) * np.abs(grad) ** (p - 1.0)  # sgn(grad) exactly at p = 1: |x|**0 is 1
    out = np.bincount(ends, (edge_term[:, None] * [-1.0, 1.0]).ravel(), minlength=n)  # d_0^T edge_term
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
    once, and a block of L rows against every R row is one matrix product.
    Every count is an integer below 2^53, so float64 holds it exactly.

    Rounding keeps order, and two distinct ratios b/m with b, m <= |E| differ
    by a relative 1/|E|^3 or more, far above float64 rounding, so a block's
    smallest float ratio b*/m* is an exact minimum. The cuts tied with it are
    found exactly by cross-multiplication, b m* = b* m. Among the tied cuts
    the lexicographically smallest subset wins. Limited to 24 vertices;
    larger graphs need heuristics that are out of scope here.
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

    degrees = np.array(graph.degrees, dtype=float)
    total_volume = degrees.sum()
    adjacency = np.zeros((n, n))
    u, v = (graph.pairs - 1).T
    adjacency[u, v] = adjacency[v, u] = 1.0

    a = (n + 1) // 2
    left_masks = (np.arange(1 << (a - 1)) << 1) | 1  # bit 0 set: one side of every bipartition
    right_masks = np.arange(1 << (n - a))
    x_left, x_right = _bit_rows(left_masks, a), _bit_rows(right_masks, n - a)
    vol_left, vol_right = x_left @ degrees[:a], x_right @ degrees[a:]
    b_left = vol_left - np.einsum("ij,jk,ik->i", x_left, adjacency[:a, :a], x_left)
    b_right = vol_right - np.einsum("ij,jk,ik->i", x_right, adjacency[a:, a:], x_right)
    cross = adjacency[:a, a:] @ x_right.T

    best_b, best_m, best_mask = 1, 0, None  # the smallest ratio so far, 1/0 before any cut
    step = _CHUNK // len(right_masks)
    for start in range(0, len(left_masks), step):
        rows = slice(start, start + step)
        boundary = x_left[rows] @ cross
        boundary *= -2.0
        boundary += b_left[rows, None]
        boundary += b_right
        vol = vol_left[rows, None] + vol_right
        small = np.minimum(vol, total_volume - vol)  # 0 only for S = V
        ratio = np.divide(boundary, small, out=np.full_like(boundary, np.inf), where=small > 0)
        k = int(np.argmin(ratio))
        b, m = int(boundary.flat[k]), int(small.flat[k])
        if b * best_m > best_b * m:
            continue
        tied = np.flatnonzero((boundary * m == b * small) & (small > 0))
        i, j = np.divmod(tied, len(right_masks))
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
    """0/1 float rows: column b holds bit b of each mask."""
    return ((masks[:, None] >> np.arange(width)) & 1).astype(float)


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
