"""Spectra of Hodge Laplacians, Betti numbers, and isospectrality fingerprints."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .cochains import Cochain, WeightScheme
from .complexes import CliqueComplex, Graph, enumerate_cliques
from .operators import HodgeLaplacian, hodge_laplacian

KERNEL_TOL_FLOOR = 1e-12
FINGERPRINT_ATOL = 1e-8


def kernel_tolerance(dim: int, lambda_max: float) -> float:
    """Numerical-rank threshold: dim * eps * lambda_max, floored at 1e-12."""
    return max(dim * np.finfo(float).eps * abs(lambda_max), KERNEL_TOL_FLOOR)


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

    def to_json_dict(self) -> dict:
        return {
            "k": self.degree,
            "eigenvalues": [float(x) for x in self.eigenvalues],
            "betti": self.kernel_dim,
            "tolerance": self.tolerance,
        }

    def with_tolerance(self, tol: float) -> "Spectrum":
        """The same eigenvalues with the kernel recounted at another tolerance."""
        mask, tol = _kernel_mask(self.eigenvalues, tol)
        return replace(self, kernel_dim=int(np.count_nonzero(mask)), tolerance=tol)


def spectrum(lap: HodgeLaplacian) -> Spectrum:
    """Full symmetric eigendecomposition of a Hodge Laplacian, values ascending."""
    n = lap.shape[0]
    if n == 0:
        return Spectrum(lap.degree, np.zeros(0), 0, KERNEL_TOL_FLOOR)
    eigvals = np.linalg.eigvalsh(lap.dense())
    mask, tol = _kernel_mask(eigvals)
    return Spectrum(lap.degree, eigvals, int(np.count_nonzero(mask)), tol)


def betti(cx: CliqueComplex, k: int, weights: WeightScheme | None = None) -> int:
    """dim ker of the Hodge k-Laplacian under the kernel tolerance."""
    return spectrum(hodge_laplacian(cx, k, weights)).kernel_dim


def harmonic_basis(cx: CliqueComplex, k: int, weights: WeightScheme | None = None) -> list[Cochain]:
    """Orthonormal basis of ker(Delta_k), orthonormal in the weighted inner product."""
    w = weights or WeightScheme.unit()
    lap = hodge_laplacian(cx, k, w)
    n = lap.shape[0]
    if n == 0:
        return []
    eigvals, eigvecs = np.linalg.eigh(lap.dense())
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
    return [spectrum(hodge_laplacian(cx, k)) for k in range(max_k + 1)]


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
