"""Nonlinear p-Laplacians on graphs, exhaustive Cheeger constants, and the
Cheeger inequality report.

The p-Laplacian acts on vertex functions through the gradient edge flow:

    (L_p f)(i) = sum_{j ~ i} |f(j) - f(i)|^{p-2} (f(i) - f(j)),   p > 1,

where the magnitude factor is applied entrywise per edge (a package
convention; the edgewise reading is the one that reduces to the graph
Laplacian at p = 2). At p = 1 the sign function is set-valued on zero-gradient
edges, so the operator returns per-vertex intervals of attainable values; a
selection mode with sgn(0) := 0 picks a single representative. The gradient is
the sparse d_0 = coboundary(cx, 0) of the graph's 2-clique complex, whose rows
are the sorted edges with -1 at the smaller endpoint and +1 at the larger.

The Cheeger constant of a connected graph,

    h(G) = min over nonempty proper S of |E(S, V\\S)| / min(Vol(S), Vol(V\\S)),

with Vol the sum of degrees, is computed exactly by enumerating every subset
containing vertex 1 (complement symmetry halves the work). The classical
two-sided eigenvalue bound lambda_2/2 <= h <= sqrt(2 lambda_2) is reported for
both the plain and the degree-normalized Laplacian; only the normalized form
is guaranteed by this package (the plain form fails already on the 4-cycle
with this volume-based h).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .complexes import Graph, enumerate_cliques
from .operators import coboundary

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
    if values.shape != (graph.n_vertices,):
        raise ValueError(f"expected {graph.n_vertices} vertex values, got shape {values.shape}")
    A = coboundary(enumerate_cliques(graph, 2), 0).matrix
    grad = A @ values
    if p > 1:
        edge_term = np.sign(grad) * np.abs(grad) ** (p - 1.0)
        return A.T @ edge_term
    if mode not in ("interval", "selection"):
        raise ValueError(f"unknown mode {mode!r}")
    fixed = A.T @ np.sign(grad)
    if mode == "selection":
        return fixed
    slack = abs(A).T @ (grad == 0).astype(float)
    return np.column_stack([fixed - slack, fixed + slack])


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
    """Exact Cheeger constant by exhaustive cuts, with a witnessing cut.

    Ties are broken by the lexicographically smallest subset among those
    containing vertex 1. Limited to 24 vertices; larger graphs need heuristics
    that are out of scope here.
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

    degrees = np.array(graph.degrees, dtype=np.int64)
    total_volume = int(degrees.sum())
    edge_bits = [(u - 1, v - 1) for u, v in graph.sorted_edges]

    best: tuple[Fraction, tuple[int, ...], int, int] | None = None
    # masks with bit 0 set cover every bipartition once (complement symmetry)
    for start in range(0, 1 << (n - 1), _CHUNK):
        stop = min(start + _CHUNK, 1 << (n - 1))
        masks = (np.arange(start, stop, dtype=np.int64) << 1) | 1
        in_side = [(masks >> b) & 1 for b in range(n)]
        boundary = np.zeros(masks.shape[0], dtype=np.int64)
        for u, v in edge_bits:
            boundary += in_side[u] ^ in_side[v]
        vol = np.zeros(masks.shape[0], dtype=np.int64)
        for b in range(n):
            vol += in_side[b] * degrees[b]
        proper = vol < total_volume  # excludes S = V (mask with every vertex)
        min_vol = np.minimum(vol, total_volume - vol)
        ratios = np.where(proper & (min_vol > 0), boundary / np.maximum(min_vol, 1), np.inf)
        near = np.flatnonzero(ratios <= ratios.min() * (1 + 1e-12) + 1e-300)
        for idx in near:
            if not proper[idx] or min_vol[idx] == 0:
                continue
            ratio = Fraction(int(boundary[idx]), int(min_vol[idx]))
            subset = tuple(b + 1 for b in range(n) if (int(masks[idx]) >> b) & 1)
            key = (ratio, subset, int(boundary[idx]), int(vol[idx]))
            if best is None or key[:2] < best[:2]:
                best = key
    assert best is not None
    ratio, subset, boundary_edges, vol_s = best
    cut = Cut(subset, boundary_edges, (vol_s, total_volume - vol_s), ratio)
    return ratio, cut


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
    A = coboundary(enumerate_cliques(graph, 2), 0).matrix
    laplacian = (A.T @ A).toarray()
    d = np.array(graph.degrees, dtype=float)
    scale = 1.0 / np.sqrt(d)
    normalized = scale[:, None] * laplacian * scale[None, :]
    lam_plain = _lambda2(laplacian)
    lam_norm = _lambda2(normalized)
    h_val = float(h)

    def holds(lam: float) -> bool:
        return 0.5 * lam <= h_val + slack and h_val <= np.sqrt(2 * lam) + slack

    return CheegerReport(h, cut, lam_plain, lam_norm, holds(lam_plain), holds(lam_norm))
