"""Weighted POD baseline: the best fixed-frame rank-r approximation.

The snapshot matrix is weighted on both sides before the SVD: rows by the
square roots of the time-quadrature weights, columns by a symmetric square
root of the P1 mass matrix, so that the truncation error is measured in
exactly the space-time norm the shifted-mode cost minimizes.  The mass
matrix is circulant, so its square root comes from its Fourier symbol.
The path-only fit solves the same problem at each path for the data pulled
back by the transposed shift Grams, weighted on the right by the inverse mass
root instead.  It needs only the leading singular triplets, which
``_leading_svd`` finds by a block subspace iteration warm-started from the
previous path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .core import SnapshotSet, SpatialGrid, TimeGrid, _frozen_array
from .cost_grad import Decomposition, Frame, PathRepr
from .shift_fem import apply_gram, zero_shift_grams

__all__ = [
    "PodResult",
    "truncated_svd",
    "pod",
    "pod_reconstruction",
    "as_decomposition",
]

# block subspace iteration in _leading_svd: block width k = min(3 r, nt, n)
SUBSPACE_FACTOR = 3
# settled once sum_{i<=r} s_i^2 moves by at most this, relatively, in a sweep
SUBSPACE_RTOL = 1e-15
# sweeps before falling back to the full SVD
SUBSPACE_MAX_SWEEPS = 6


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
    """Apply the symmetric circulant with the given Fourier symbol to each row.

    The symbol is real and even (``symbol[j] == symbol[n - j]``), so the real
    transform of each row only needs its first ``n // 2 + 1`` entries.
    """
    n = rows.shape[1]
    return np.fft.irfft(np.fft.rfft(rows, axis=1) * symbol[: n // 2 + 1], n=n, axis=1)


def _weighted_svd(
    values: np.ndarray, grid: SpatialGrid, weights: np.ndarray, r: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """SVD of the doubly weighted matrix ``B = W^{1/2} Z R`` (``R`` the
    symmetric square root of the mass matrix), whose plain SVD is the
    weighted POD.

    Returns the leading ``r`` left singular vectors, all singular values, and
    the ``r`` X-orthonormal mode rows ``R^{-1} v_i``.
    """
    sq = np.sqrt(_mass_symbol(grid))
    B = np.sqrt(weights)[:, None] * _apply_symbol(values, sq)
    U, s, Vt = np.linalg.svd(B, full_matrices=False)
    return U[:, :r], s, _apply_symbol(Vt[:r], 1.0 / sq)


def _leading_svd(
    B: np.ndarray, r: int, V: Optional[np.ndarray] = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """Leading ``r`` singular triplets of ``B`` and the discarded energy
    ``sum_{i>r} s_i^2 / 2``, by block subspace iteration.

    ``V`` (``n x k`` with ``k = min(3 r, nt, n)``) warm-starts the block;
    ``None`` runs the full SVD.  Each sweep orthonormalizes ``Q = qr(B V)``
    and takes the Rayleigh-Ritz triplets from the small SVD of
    ``(B^T Q)^T`` (Golub & Van Loan, Matrix Computations, section 8.2).  The
    block has settled once ``sum_{i<=r} s_i^2`` moves by at most
    ``SUBSPACE_RTOL`` relatively between two sweeps and the energy left
    outside the block, ``E = ||B||_F^2 - sum_{i<=k} s_i^2``, is below
    ``s_r^2``.  Every singular value of ``B`` missing from an invariant block
    has ``s^2 <= E``, so the second test rules out a missed direction above
    ``s_r``; a block that settles on the wrong invariant subspace (say,
    trailing vectors) fails it.  Otherwise, after ``SUBSPACE_MAX_SWEEPS``
    sweeps, the full SVD is taken, and then the discarded energy is summed
    from its tail ``s[r:]``.

    Returns ``(U_r, s_r, V, discarded)``; the ``k`` columns of ``V`` (the
    leading ``r`` first) warm-start the next call.
    """
    nt, n = B.shape
    k = min(SUBSPACE_FACTOR * r, nt, n)
    if V is not None:
        # per-row sums: a whole-matrix dot product is split across BLAS threads
        total = math.fsum(np.einsum("kl,kl->k", B, B))
        head = None
        for _ in range(SUBSPACE_MAX_SWEEPS):
            Q = np.linalg.qr(B @ V)[0]
            # (B^T Q)^T = X diag(s) V^T: LAPACK factors the tall n x k side faster
            V, s, Xt = np.linalg.svd(B.T @ Q, full_matrices=False)
            prev, head = head, math.fsum(s[:r] ** 2)
            if (
                prev is not None
                and abs(head - prev) <= SUBSPACE_RTOL * head
                and (k == min(nt, n) or total - math.fsum(s**2) < s[r - 1] ** 2)
            ):
                return Q @ Xt[:r].T, s[:r], V, 0.5 * (total - head)
    U, s, Vt = np.linalg.svd(B, full_matrices=False)
    return U[:, :r], s[:r], Vt[:k].T, 0.5 * float(np.dot(s[r:], s[r:]))


def pod(z: SnapshotSet, r: int) -> PodResult:
    """Weighted POD of a snapshot set.

    Mode rows are X-orthonormal (``phi_i^T F(0) phi_j = delta_ij``) and the
    coefficients are the X projections ``alpha_i(t_k) = z_k^T F(0) phi_i``.
    """
    nt, n = z.values.shape
    if not 1 <= r <= min(nt, n):
        raise ValueError(f"rank {r} out of range for {nt} x {n} data")
    _, s, modes = _weighted_svd(z.values, z.grid, z.tgrid.weights, r)
    coeffs = z.values @ apply_gram(zero_shift_grams(z.grid)[0], modes).T
    return PodResult(modes, coeffs, s)


def pod_reconstruction(pr: PodResult, z: SnapshotSet) -> SnapshotSet:
    """Snapshot set reconstructed from a POD result on the grids of ``z``."""
    return SnapshotSet(z.grid, z.tgrid, pr.coeffs @ pr.modes)


def as_decomposition(pr: PodResult, grid: SpatialGrid, tgrid: TimeGrid) -> Decomposition:
    """View a POD result as a single zero-path frame."""
    frame = Frame(PathRepr.polynomial([0.0]), pr.modes, pr.coeffs)
    return Decomposition((frame,), grid, tgrid)
