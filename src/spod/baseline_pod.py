"""Weighted POD baseline: the best fixed-frame rank-r approximation.

The snapshot matrix is weighted on both sides before the SVD: rows by the
square roots of the time-quadrature weights, columns by a symmetric square
root of the P1 mass matrix, so that the truncation error is measured in
exactly the space-time norm the shifted-mode cost minimizes.  The mass
matrix is circulant, so its roots come from its Fourier symbol.

One inner solve, :func:`_inner_solve`, serves the POD and every path-only
evaluation.  For a path ``p`` it builds ``B = W^{1/2} Y M^{-1/2}``, the rows
of ``Y`` being the data pulled back by the transposed shift Grams,
``y_k = F(p_k)^T z_k``, in Fourier space from the data's spectra with the
inverse root applied (:func:`_pullback_rows`), and takes the leading
singular triplets of ``B`` with ``_leading_svd``: a block subspace iteration
started from evenly spaced rows of ``B``, or warm from a previous path's
block.  At the zero path ``F(0) = M``, so ``B = W^{1/2} Z M^{1/2}``: the POD
is the inner solve there, and :func:`pod` takes no SVD of its own.  The
whole spectrum, which only the ``pod`` command's manifest lists, is a
separate values-only SVD of the same matrix (:func:`pod_spectrum`).  Every
SVD with vectors goes through :func:`truncated_svd`; a full one runs only
where the iteration falls back.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from .core import SnapshotSet, SpatialGrid, TimeGrid, _frozen_array
from .cost_grad import Decomposition, Frame, PathRepr
from .shift_fem import BAND_OFFSETS, _band_F, decompose_shift, roll_rows

__all__ = [
    "PodResult",
    "truncated_svd",
    "pod",
    "pod_spectrum",
    "pod_reconstruction",
    "as_decomposition",
]

# block subspace iteration in _leading_svd: block width k = min(3 r, nt, n)
SUBSPACE_FACTOR = 3
# settled once sum_{i<=r} s_i^2 moves by at most this, relatively, in a sweep
SUBSPACE_RTOL = 1e-15
# sweeps before falling back to the full SVD
SUBSPACE_MAX_SWEEPS = 6
# the last sweep settles at this instead: SUBSPACE_RTOL is the rounding floor
# of that sum, which the moves of a converged block can straddle every sweep
SUBSPACE_FLOOR_RTOL = 1e-13


@dataclass(frozen=True, eq=False)
class PodResult:
    """Rank-r POD basis with X-orthonormal mode rows, projection coefficients
    and the ``r`` leading singular values (:func:`pod_spectrum` gives them all)."""

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


def _leading_svd(
    B: np.ndarray,
    r: int,
    V: Optional[np.ndarray] = None,
    row_energy: Optional[np.ndarray] = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """Leading ``r`` singular triplets of ``B`` and the discarded energy
    ``sum_{i>r} s_i^2 / 2``, by block subspace iteration.

    ``V`` (``n x k`` with ``k = min(3 r, nt, n)``) warm-starts the block;
    ``None`` starts it from ``k`` rows of ``B`` evenly spaced in time.  Each
    sweep orthonormalizes ``Q = qr(B V)`` and takes the Rayleigh-Ritz
    triplets from the small SVD of ``(B^T Q)^T`` (Golub & Van Loan, Matrix
    Computations, section 8.2).  The block has settled once
    ``sum_{i<=r} s_i^2`` moves by at most ``SUBSPACE_RTOL`` relatively
    between two sweeps (``SUBSPACE_FLOOR_RTOL`` at the last sweep, so that
    rounding alone never forces the full SVD) and the energy left outside
    the block, ``E = ||B||_F^2 - sum_{i<=k} s_i^2``, is below ``s_r^2``.  Every singular
    value of ``B`` missing from an invariant block has ``s^2 <= E``, so the
    second test rules out a missed direction above ``s_r``; a block that
    settles on the wrong invariant subspace (say, trailing vectors) fails
    it.  Otherwise, after ``SUBSPACE_MAX_SWEEPS`` sweeps, the full SVD is
    taken, and then the discarded energy is summed from its tail ``s[r:]``.
    Every SVD goes through :func:`truncated_svd`.  ``row_energy``, the
    squared row norms of ``B``, is taken here unless the caller has it.

    Returns ``(U_r, s_r, V, discarded)``; the ``k`` columns of ``V`` (the
    leading ``r`` first) warm-start the next call.
    """
    nt, n = B.shape
    k = min(SUBSPACE_FACTOR * r, nt, n)
    if V is None:
        V = B[np.linspace(0, nt - 1, k).round().astype(int)].T
    if row_energy is None:
        # per-row sums: a whole-matrix dot product is split across BLAS threads
        row_energy = np.einsum("kl,kl->k", B, B)
    total = math.fsum(row_energy)
    head = None
    for sweep in range(1, SUBSPACE_MAX_SWEEPS + 1):
        Q = np.linalg.qr(B @ V)[0]
        # (B^T Q)^T = X diag(s) V^T: LAPACK factors the tall n x k side faster
        V, s, X = truncated_svd(B.T @ Q, k)
        prev, head = head, math.fsum(s[:r] ** 2)
        rtol = SUBSPACE_RTOL if sweep < SUBSPACE_MAX_SWEEPS else SUBSPACE_FLOOR_RTOL
        if (
            prev is not None
            and abs(head - prev) <= rtol * head
            and (k == min(nt, n) or total - math.fsum(s**2) < s[r - 1] ** 2)
        ):
            return Q @ X[:, :r], s[:r], V, 0.5 * (total - head)
    U, s, V = truncated_svd(B, min(nt, n))
    return U[:, :r], s[:r], V[:, :k], 0.5 * float(np.dot(s[r:], s[r:]))


def _pullback_rows(spectra: np.ndarray, bands: np.ndarray, q: np.ndarray, n: int) -> np.ndarray:
    """Rows ``F(p_k)^T z_k`` from the half spectra ``rfft(z_k)``, the bands of
    ``p_k``'s fractional part and its whole-cell offset ``q[k]``; a circulant
    applied to the spectra, or a row scale to the bands, carries through.

    ``F(p_k)^T`` has the Fourier symbol ``e^{2 pi i j q_k / n} sum_d
    bands[k, d] e^{-2 pi i j delta_d / n}``: the band sums are one
    ``(nt, 4) @ (4, n // 2 + 1)`` product, and the phase a roll of each row
    after the inverse transform."""
    j = np.arange(spectra.shape[1])
    product = bands @ np.exp(-2j * np.pi / n * np.outer(BAND_OFFSETS, j))
    product *= spectra
    rows = np.fft.irfft(product, n, axis=1)
    del product  # freed before the roll's padded copy of the rows
    return roll_rows(rows, -q)


def _pullback_spectra(z: SnapshotSet) -> np.ndarray:
    """The data's half spectra with ``M^{-1/2}`` applied: fixed for a whole fit."""
    n = z.grid.n
    spectra = np.fft.rfft(z.values, axis=1)
    spectra *= 1.0 / np.sqrt(_mass_symbol(z.grid))[: n // 2 + 1]
    return spectra


def _pullback_matrix(z: SnapshotSet, spectra: np.ndarray, shifts: np.ndarray) -> np.ndarray:
    """``B = W^{1/2} Y M^{-1/2}`` at the shifts ``p_k``, with ``W^{1/2}`` in the bands."""
    q, frac = decompose_shift(shifts, z.grid)
    bands = np.sqrt(z.tgrid.weights)[:, None] * _band_F(frac, z.grid.h)
    return _pullback_rows(spectra, bands, q, z.grid.n)


class _InnerSolution(NamedTuple):
    """The best rank-r single frame at one path.  ``row_energy[k]`` is the
    squared norm of row ``k`` of ``B``, ``w_k y_k^T M^{-1} y_k``; ``warm`` is
    the block that warm-starts the next solve; ``discarded`` is
    ``sum_{i>r} s_i^2 / 2``."""

    modes: np.ndarray
    coeffs: np.ndarray
    s: np.ndarray
    warm: np.ndarray
    row_energy: np.ndarray
    discarded: float


def _inner_solve(
    z: SnapshotSet,
    spectra: np.ndarray,
    shifts: np.ndarray,
    r: int,
    warm: Optional[np.ndarray] = None,
) -> _InnerSolution:
    """Best rank-``r`` modes and coefficients of ``z`` at the shifts ``p_k``.

    ``spectra`` comes from :func:`_pullback_spectra`.  The leading triplets
    ``(u_i, s_i, v_i)`` of ``B`` (:func:`_leading_svd`, warm-started from
    ``warm`` if given) give the X-orthonormal mode rows ``M^{-1/2} v_i`` and
    the coefficients ``s_i u_i / w^{1/2}``."""
    B = _pullback_matrix(z, spectra, shifts)
    row_energy = np.einsum("kl,kl->k", B, B)
    U, s, warm, discarded = _leading_svd(B, r, warm, row_energy)
    modes = _apply_symbol(warm[:, :r].T, 1.0 / np.sqrt(_mass_symbol(z.grid)))
    coeffs = (U * s) / np.sqrt(z.tgrid.weights)[:, None]
    return _InnerSolution(modes, coeffs, s, warm, row_energy, discarded)


def pod(z: SnapshotSet, r: int) -> PodResult:
    """Weighted POD of a snapshot set: the inner solve at the zero path.

    Mode rows are X-orthonormal (``phi_i^T F(0) phi_j = delta_ij``) and the
    coefficients are the X projections ``alpha_i(t_k) = z_k^T F(0) phi_i``.
    Each mode's largest-magnitude entry (the first of equals) is positive.
    """
    nt, n = z.values.shape
    if not 1 <= r <= min(nt, n):
        raise ValueError(f"rank {r} out of range for {nt} x {n} data")
    sol = _inner_solve(z, _pullback_spectra(z), np.zeros(nt), r)
    # the sign a singular pair comes with depends on the route that found it
    peaks = sol.modes[np.arange(r), np.argmax(np.abs(sol.modes), axis=1)]
    sign = np.where(peaks < 0.0, -1.0, 1.0)
    return PodResult(sign[:, None] * sol.modes, sol.coeffs * sign, sol.s)


def pod_spectrum(z: SnapshotSet) -> np.ndarray:
    """Every singular value of the POD matrix ``W^{1/2} Z M^{1/2}``, largest
    first, from one SVD without vectors."""
    B = _pullback_matrix(z, _pullback_spectra(z), np.zeros(z.values.shape[0]))
    return np.linalg.svd(B, compute_uv=False)


def pod_reconstruction(pr: PodResult, z: SnapshotSet) -> SnapshotSet:
    """Snapshot set reconstructed from a POD result on the grids of ``z``."""
    return SnapshotSet(z.grid, z.tgrid, pr.coeffs @ pr.modes)


def as_decomposition(pr: PodResult, grid: SpatialGrid, tgrid: TimeGrid) -> Decomposition:
    """View a POD result as a single zero-path frame."""
    frame = Frame(PathRepr.polynomial([0.0]), pr.modes, pr.coeffs)
    return Decomposition((frame,), grid, tgrid)
