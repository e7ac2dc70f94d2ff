"""Spectra of Hodge Laplacians, Betti numbers, and isospectrality fingerprints.

Delta_k = d_{k-1} d_{k-1}* + d_k* d_k splits into a down and an up part whose
images, im d_{k-1} and im d_k*, are orthogonal. So the nonzero spectrum of
Delta_k is the union of the nonzero spectra of the two coboundary Grams, and
the rest of its c_k eigenvalues are zero. spectrum, betti and
isospectral_fingerprint therefore eigensolve, for each scaled coboundary B_j
that operators builds Delta_k from, only the smaller of B_j B_j^T and
B_j^T B_j, and build no Hodge Laplacian; kernel eigenvalues come out as exact
zeros. The Gram is built dense from B_j's entries on the face array, bit for
bit the sparse product's, so these paths load no scipy. When B_j is d_j (no
weight table on its levels) its Gram spectrum is computed once per graph, so
d_j is eigensolved once for Delta_j and Delta_{j+1}.
harmonic_basis needs eigenvectors and still diagonalizes the dense Laplacian.
Both dense paths first check the bytes they need against physical memory.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .cochains import Cochain, WeightScheme
from .complexes import CliqueComplex, Graph, _check_fits, _fields_equal, enumerate_cliques
from .operators import HodgeLaplacian, _coboundary_entries, _laplacian_dim, _unscaled, hodge_laplacian

KERNEL_TOL_FLOOR = 1e-12
FINGERPRINT_ATOL = 1e-8


def kernel_tolerance(dim: int, lambda_max: float) -> float:
    """Numerical-rank threshold: dim * eps * lambda_max, floored at 1e-12."""
    return max(dim * np.finfo(float).eps * abs(lambda_max), KERNEL_TOL_FLOOR)


def _check_tolerance(tol: float) -> float:
    """tol itself if it is a valid kernel tolerance override (finite, >= 0); ValueError otherwise."""
    if not 0 <= tol < np.inf:  # also rejects NaN
        raise ValueError(f"kernel tolerance must be finite and >= 0, got {tol}")
    return tol


def _kernel_mask(eigvals: np.ndarray, tol: float | None = None) -> tuple[np.ndarray, float]:
    """The one kernel rule: eigenvalues <= tol, tol defaulting to kernel_tolerance."""
    if tol is None:
        tol = kernel_tolerance(eigvals.size, eigvals[-1])
    return eigvals <= tol, tol


@dataclass(frozen=True)
class Spectrum:
    """Ascending eigenvalues of a Hodge Laplacian plus its kernel dimension."""

    degree: int
    eigenvalues: np.ndarray
    kernel_dim: int
    tolerance: float

    __eq__ = _fields_equal

    def to_json_dict(self) -> dict:
        return {
            "k": self.degree,
            "eigenvalues": self.eigenvalues,
            "betti": self.kernel_dim,
            "tolerance": self.tolerance,
        }

    def with_tolerance(self, tol: float) -> "Spectrum":
        """The same eigenvalues with the kernel recounted at another tolerance (finite, >= 0)."""
        mask, tol = _kernel_mask(self.eigenvalues, _check_tolerance(tol))
        return replace(self, kernel_dim=int(np.count_nonzero(mask)), tolerance=tol)


def _gram(cx: CliqueComplex, j: int, w: WeightScheme) -> np.ndarray:
    """The smaller Gram of B_j, dense, from its entries: B B^T when B has fewer rows than columns, else B^T B.

    Two cliques share at most one face, and two faces lie in at most one clique, so each off-diagonal entry
    is one product, written by assignment; the diagonal sums in scipy's order, so the Gram is scipy's bit for bit.
    """
    side = min(cx.n_cliques(j + 2), cx.n_cliques(j + 1))
    # the Gram and eigvalsh's copy of it
    _check_fits(16 * side**2, f"the dense Gram of d_{j} has side {side}: with its LAPACK copy it")
    faces, values = _coboundary_entries(cx, j, w)
    (n_rows, order), n_cols = faces.shape, cx.n_cliques(j + 1)
    # entries grouped by where they meet, each with its Gram index: B^T B pairs them within a row of B
    meet, index, value = np.arange(n_rows).repeat(order), faces.ravel(), values.ravel()
    if n_rows < n_cols:  # B B^T within a face; stable, so each face's rows and each row's faces stay ascending
        by_face = np.argsort(index, kind="stable")
        meet, index, value = index[by_face], meet[by_face], value[by_face]
    size = np.bincount(meet)[meet]
    left = np.repeat(np.arange(meet.size), size)  # each entry against every entry of its group, itself included
    right = np.repeat(np.searchsorted(meet, meet) - np.cumsum(size) + size, size) + np.arange(left.size)
    gram = np.zeros((side, side))
    gram[index[left], index[right]] = value[left] * value[right]
    np.fill_diagonal(gram, np.bincount(index, value * value, len(gram)))  # in the order the entries stand
    return gram


def _gram_eigenvalues(cx: CliqueComplex, j: int, w: WeightScheme) -> np.ndarray:
    """Ascending eigenvalues of the smaller Gram of B_j, computed once per graph when B_j is d_j."""

    def solve() -> np.ndarray:
        gram = _gram(cx, j, w)
        return np.linalg.eigvalsh(gram) if gram.size else np.zeros(0)

    return cx._memo("gram", j + 2, solve) if _unscaled(w, j) else solve()


def _hodge_spectrum(cx: CliqueComplex, k: int, w: WeightScheme) -> Spectrum:
    """Spectrum of Delta_k as the Gram spectra of d_{k-1} and d_k plus exact zeros."""
    n = _laplacian_dim(cx, k)
    if n == 0:
        return Spectrum(k, np.zeros(0), 0, KERNEL_TOL_FLOOR)
    grams = [_gram_eigenvalues(cx, j, w) for j in (k - 1, k) if j >= 0]
    lambda_max = max((g[-1] for g in grams if g.size), default=0.0)
    tol = kernel_tolerance(n, lambda_max)
    nonzero = [g[~_kernel_mask(g, tol)[0]] for g in grams]
    n_zero = n - sum(g.size for g in nonzero)
    eigvals = np.sort(np.concatenate([np.zeros(n_zero), *nonzero]))
    return Spectrum(k, eigvals, n_zero, tol)


def spectrum(lap: HodgeLaplacian) -> Spectrum:
    """Ascending eigenvalues of a Hodge Laplacian, from its coboundaries' Gram spectra."""
    return _hodge_spectrum(lap.complex, lap.degree, lap.weights)


def betti(cx: CliqueComplex, k: int, weights: WeightScheme | None = None) -> int:
    """dim ker of the Hodge k-Laplacian under the kernel tolerance."""
    return _hodge_spectrum(cx, k, weights or WeightScheme.unit()).kernel_dim


def harmonic_basis(cx: CliqueComplex, k: int, weights: WeightScheme | None = None) -> list[Cochain]:
    """Orthonormal basis of ker(Delta_k), orthonormal in the weighted inner product."""
    w = weights or WeightScheme.unit()
    n = _laplacian_dim(cx, k)
    if n == 0:
        return []
    # the matrix, eigh's copy of it, its eigenvectors and syevd's 2 n^2 workspace
    _check_fits(40 * n**2, f"the dense Hodge {k}-Laplacian has side {n}: with eigh's copies and workspace it")
    eigvals, eigvecs = np.linalg.eigh(hodge_laplacian(cx, k, w).dense())
    mask, _ = _kernel_mask(eigvals)
    sqrt_w = np.sqrt(w.vector(cx, k))
    # symmetrized-coordinate eigenvectors back to cochain coordinates
    return [Cochain(k, cx, eigvecs[:, i] / sqrt_w) for i in np.flatnonzero(mask)]


def isospectral_fingerprint(graph: Graph, max_k: int) -> list[Spectrum]:
    """Spectra of Delta_0..Delta_max_k with unit weights.

    Enumerates cliques through order max_k + 2 so every needed coboundary is
    known (levels past the clique number come out empty).
    """
    if max_k < 0:
        raise ValueError(f"max_k must be >= 0, got {max_k}")
    cx = enumerate_cliques(graph, max_order=max_k + 2)
    return [_hodge_spectrum(cx, k, WeightScheme.unit()) for k in range(max_k + 1)]


def compare_fingerprints(
    a: list[Spectrum], b: list[Spectrum], atol: float = FINGERPRINT_ATOL
) -> tuple[bool, int | None]:
    """(distinguished, first differing k). Lists of different length differ at that k."""
    if len(a) != len(b):
        raise ValueError("fingerprints cover different degree ranges")
    for sa, sb in zip(a, b):
        if sa.eigenvalues.shape != sb.eigenvalues.shape:
            return True, sa.degree
        if sa.eigenvalues.size and np.max(np.abs(sa.eigenvalues - sb.eigenvalues)) > atol:
            return True, sa.degree
    return False, None
