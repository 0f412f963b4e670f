"""Weighted POD baseline: the best fixed-frame rank-r approximation.

The snapshot matrix is weighted on both sides before the SVD: rows by the
square roots of the time-quadrature weights, columns by a symmetric square
root of the P1 mass matrix, so that the truncation error is measured in
exactly the space-time norm the shifted-mode cost minimizes.  The mass
matrix is circulant, so its square root comes from its Fourier symbol.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import SnapshotSet, SpatialGrid, TimeGrid, _frozen_array
from .cost_grad import Decomposition, Frame, PathRepr
from .shift_fem import apply_gram, gram_F

__all__ = [
    "PodResult",
    "truncated_svd",
    "pod",
    "pod_reconstruction",
    "as_decomposition",
    "x_weighted_relative_error",
]


@dataclass(frozen=True, eq=False)
class PodResult:
    """Rank-r POD basis with X-orthonormal mode rows and projection coefficients."""

    modes: np.ndarray = field(repr=False)
    coeffs: np.ndarray = field(repr=False)
    singular_values: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "modes", _frozen_array(self.modes))
        object.__setattr__(self, "coeffs", _frozen_array(self.coeffs))
        object.__setattr__(self, "singular_values", _frozen_array(self.singular_values))

    @property
    def r(self) -> int:
        return self.modes.shape[0]


def truncated_svd(A: np.ndarray, r: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Best rank-r factors ``(U_r, S_r, V_r)`` with ``A ~ U_r diag(S_r) V_r^T``.

    The discarded energy satisfies ``||A - U_r S_r V_r^T||_F^2 = sum_{i>r} s_i^2``.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2:
        raise ValueError("expected a 2-D matrix")
    if not 1 <= r <= min(A.shape):
        raise ValueError(f"rank {r} out of range for shape {A.shape}")
    U, s, Vt = np.linalg.svd(A, full_matrices=False)
    return U[:, :r], s[:r], Vt[:r].T


def _mass_symbol(grid: SpatialGrid) -> np.ndarray:
    """Eigenvalues of the P1 mass circulant: ``h (2 + cos(2 pi j / n)) / 3``."""
    j = np.arange(grid.n)
    return grid.h * (2.0 + np.cos(2.0 * np.pi * j / grid.n)) / 3.0


def _apply_symbol(rows: np.ndarray, symbol: np.ndarray) -> np.ndarray:
    """Apply the symmetric circulant with the given Fourier symbol to each row."""
    return np.fft.ifft(np.fft.fft(rows, axis=1) * symbol[None, :], axis=1).real


def _weighted_svd(
    values: np.ndarray, grid: SpatialGrid, weights: np.ndarray, r: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """SVD of the doubly weighted matrix ``W^{1/2} Z R`` (``R`` the symmetric
    square root of the mass matrix), whose plain SVD is the weighted POD.

    Returns the leading ``r`` left singular vectors, all singular values, and
    the ``r`` X-orthonormal mode rows ``R^{-1} v_i``.
    """
    sq = np.sqrt(_mass_symbol(grid))
    B = np.sqrt(weights)[:, None] * _apply_symbol(values, sq)
    U, s, Vt = np.linalg.svd(B, full_matrices=False)
    return U[:, :r], s, _apply_symbol(Vt[:r], 1.0 / sq)


def pod(z: SnapshotSet, r: int) -> PodResult:
    """Weighted POD of a snapshot set.

    Mode rows are X-orthonormal (``phi_i^T F(0) phi_j = delta_ij``) and the
    coefficients are the X projections ``alpha_i(t_k) = z_k^T F(0) phi_i``.
    """
    nt, n = z.values.shape
    if not 1 <= r <= min(nt, n):
        raise ValueError(f"rank {r} out of range for {nt} x {n} data")
    _, s, modes = _weighted_svd(z.values, z.grid, z.tgrid.weights, r)
    coeffs = z.values @ apply_gram(gram_F(0.0, z.grid), modes).T
    return PodResult(modes, coeffs, s)


def pod_reconstruction(pr: PodResult, z: SnapshotSet) -> SnapshotSet:
    """Snapshot set reconstructed from a POD result on the grids of ``z``."""
    return SnapshotSet(z.grid, z.tgrid, pr.coeffs @ pr.modes)


def as_decomposition(pr: PodResult, grid: SpatialGrid, tgrid: TimeGrid) -> Decomposition:
    """View a POD result as a single zero-path frame."""
    frame = Frame(PathRepr.polynomial([0.0]), pr.modes, pr.coeffs)
    return Decomposition((frame,), grid, tgrid)


def x_weighted_relative_error(z: SnapshotSet, zhat: SnapshotSet) -> float:
    """Relative error in the POD's own norm: time weights plus mass matrix.

    This is the metric in which the POD truncation identity
    ``err(r)^2 = sum_{i>r} s_i^2 / sum_i s_i^2`` is exact; the reporting
    metric ``core.relative_l2_error`` differs from it by spatial quadrature.
    """
    if z.grid != zhat.grid or z.tgrid != zhat.tgrid:
        raise ValueError("snapshot sets live on different grids")
    F0 = gram_F(0.0, z.grid)
    w = z.tgrid.weights
    diff = z.values - zhat.values
    num = float(np.dot(w, np.einsum("kl,kl->k", diff, apply_gram(F0, diff))))
    den = float(np.dot(w, np.einsum("kl,kl->k", z.values, apply_gram(F0, z.values))))
    if den == 0.0:
        raise ZeroDivisionError("relative error undefined: data is identically zero")
    return float(np.sqrt(num / den))
