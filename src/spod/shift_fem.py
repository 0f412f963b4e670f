"""Periodic shift operator on P1 finite elements.

All inner products between shifted hat functions are circulant matrices with
four nonzero bands, evaluated here in closed form.  For a shift
``p = q h + pt`` with integer cell offset ``q`` and fractional part
``pt in [0, h)``, the entry ``(k, l)`` of the mass-type Gram ``F(p)`` is

* ``(1/h^2) (2/3 (h-pt)^3 + pt (h-pt)^2 + pt h (h-pt) + pt^3/6)``  at ``l = k - q``,
* ``(1/(6 h^2)) (h-pt)^3``                                          at ``l = k - q + 1``,
* ``(1/h^2) ((h-pt)^3/6 - pt^3/3 + h^2 pt)``                        at ``l = k - q - 1``,
* ``pt^3 / (6 h^2)``                                                at ``l = k - q - 2``,

and zero otherwise.  ``G(p)`` is the derivative of ``F`` with respect to the
shift; because the shift semigroup is unitary with generator ``-d/dx``, the
two-path Grams reduce to ``M(p_i, p_j) = F(p_i - p_j)`` and
``N(p_i, p_j) = G(p_i - p_j)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import SpatialGrid, _frozen_array

__all__ = [
    "ShiftGram",
    "decompose_shift",
    "gram_F",
    "gram_G",
    "zero_shift_grams",
    "stiffness_gram",
    "periodic_windows",
    "apply_gram",
    "roll_rows",
    "shift_rows",
    "shift_field",
]

# band slot d holds the entry at column l = k - q + BAND_OFFSETS[d]
BAND_OFFSETS = (-2, -1, 0, 1)


@dataclass(frozen=True, eq=False)
class ShiftGram:
    """Banded circulant Gram matrix.

    ``band`` holds the four values ``(b_{k-2}, b_{k-1}, b_k, b_{k+1})``: entry
    ``(k, l)`` equals ``band[d]`` when ``l == k - offset_q + BAND_OFFSETS[d]``
    modulo ``n``, and zero otherwise.
    """

    offset_q: int
    frac: float
    band: np.ndarray
    n: int
    h: float

    def __post_init__(self) -> None:
        band = _frozen_array(self.band)
        if band.shape != (4,):
            raise ValueError("band must hold exactly four values")
        object.__setattr__(self, "band", band)


# fractional parts closer to a cell boundary than this (relative to h) are
# snapped onto it: there the closed-form band polynomials only reproduce the
# boundary values up to rounding jitter, while the true change is O(frac^2)
_SNAP_REL = 1e-9


def decompose_shift(p, grid: SpatialGrid) -> tuple[np.ndarray, np.ndarray]:
    """Split shifts into whole cells and fractional rests, modulo the domain.

    Returns integer ``q`` and ``frac`` arrays shaped like ``p`` with
    ``p = q h + frac (mod L)``, ``frac in [0, h)`` and ``q in {0, ..., n-1}``.
    """
    L = grid.length
    h = grid.h
    pm = np.mod(np.asarray(p, dtype=float), L)
    pm = np.where(pm >= L, 0.0, pm)  # mod of tiny negatives can round up to L
    q = np.floor(pm / h).astype(np.int64)
    frac = pm - q * h
    over = frac >= (1.0 - _SNAP_REL) * h
    q = np.where(over, q + 1, q)
    frac = np.where(over | (frac < _SNAP_REL * h), 0.0, frac)
    frac = np.maximum(frac, 0.0)
    q = np.mod(q, grid.n)
    return q, frac


def _band_F(frac: np.ndarray, h: float) -> np.ndarray:
    """Closed-form F band values; ``frac`` broadcast to shape ``(..., 4)``."""
    pt = np.asarray(frac)
    r = h - pt
    diag = (2.0 / 3.0 * r**3 + pt * r**2 + pt * h * r + pt**3 / 6.0) / h**2
    sup = r**3 / (6.0 * h**2)
    sub = (r**3 / 6.0 - pt**3 / 3.0 + h**2 * pt) / h**2
    subsub = pt**3 / (6.0 * h**2)
    return np.stack([subsub, sub, diag, sup], axis=-1)


def _band_G(frac: np.ndarray, h: float) -> np.ndarray:
    """Closed-form G band values (derivative of the F band in the shift)."""
    pt = np.asarray(frac)
    r = h - pt
    diag = -(2.0 * pt * h - 1.5 * pt**2) / h**2
    sup = -(r**2) / (2.0 * h**2)
    sub = -(2.0 * pt**2 - 2.0 * h * pt - 0.5 * r**2) / h**2
    subsub = pt**2 / (2.0 * h**2)
    return np.stack([subsub, sub, diag, sup], axis=-1)


def gram_F(p: float, grid: SpatialGrid) -> ShiftGram:
    """Gram matrix ``<psi_k, T(p) psi_l>`` of the hat basis against its shift."""
    q, frac = decompose_shift(p, grid)
    q, frac = int(q), float(frac)
    return ShiftGram(q, frac, _band_F(frac, grid.h), grid.n, grid.h)


def gram_G(p: float, grid: SpatialGrid) -> ShiftGram:
    """Gram matrix ``<psi_k, d/dp T(p) psi_l>``; at cell boundaries the
    one-sided value from above is used."""
    q, frac = decompose_shift(p, grid)
    q, frac = int(q), float(frac)
    return ShiftGram(q, frac, _band_G(frac, grid.h), grid.n, grid.h)


@lru_cache(maxsize=16)
def zero_shift_grams(grid: SpatialGrid) -> tuple[ShiftGram, ShiftGram]:
    """``(F(0), G(0))``, built once per grid: the same-frame Grams of every
    cost evaluation on it."""
    return gram_F(0.0, grid), gram_G(0.0, grid)


def stiffness_gram(grid: SpatialGrid) -> ShiftGram:
    """P1 stiffness matrix ``<psi_k', psi_l'>`` as a zero-offset band."""
    h = grid.h
    band = np.array([0.0, -1.0 / h, 2.0 / h, -1.0 / h])
    return ShiftGram(0, 0.0, band, grid.n, h)


def periodic_windows(A: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Every periodic rotation of ``A``'s last axis from ``lo`` to ``hi``:
    ``W[..., s, k] = A[..., (k + lo + s) mod n]`` for ``s = 0, ..., hi - lo``.

    ``W`` is one read-only strided view of a copy of ``A`` padded once to
    ``n + hi - lo`` columns, for spans ``hi - lo <= n``: no index array is
    built and no window is copied.
    """
    n = A.shape[-1]
    # columns lo, lo + 1, ..., n + hi - 1, all modulo n
    start = lo % n
    rest = start + hi - lo
    padded = np.concatenate([A[..., start:], A[..., :rest], A[..., : max(rest - n, 0)]], axis=-1)
    shape = A.shape[:-1] + (hi - lo + 1, n)
    W = np.ndarray(shape, padded.dtype, padded, strides=padded.strides + padded.strides[-1:])
    W.flags.writeable = False
    return W


def apply_gram(gram: ShiftGram, v: np.ndarray) -> np.ndarray:
    """Matrix-vector product with a banded circulant in O(n).

    ``v`` may also be a 2-D array of row vectors; the product is applied to
    the last axis.  ``(A v)_k = sum_d band[d] v[(k - q + delta_d) mod n]``,
    summed over the bands in order; band ``d`` reads window ``d`` of
    :func:`periodic_windows`.
    """
    v = np.asarray(v, dtype=float)
    if v.shape[-1] != gram.n:
        raise ValueError(f"vector length {v.shape[-1]} does not match n={gram.n}")
    W = periodic_windows(v, BAND_OFFSETS[0] - gram.offset_q, BAND_OFFSETS[-1] - gram.offset_q)
    out = np.zeros_like(v)
    for d, b in enumerate(gram.band):
        out += b * W[..., d, :]
    return out


def roll_rows(A: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Rotate each row by its own whole number of cells:
    ``out[k, l] = A[k, (l - q[k]) mod n]``, row ``k`` one window of
    :func:`periodic_windows`."""
    n = A.shape[1]
    return periodic_windows(A, 0, n - 1)[np.arange(len(A)), np.mod(-np.asarray(q), n)]


def shift_rows(A: np.ndarray, p: np.ndarray, grid: SpatialGrid) -> np.ndarray:
    """Row-wise shift: row ``k`` of the result holds the nodal values of
    ``T(p[k]) A[k]``, the periodic P1 interpolant of ``A[k]`` at ``x_l - p[k]``.

    Exact (a pure index rotation) where ``p[k]`` is a whole number of cells.
    """
    q, frac = decompose_shift(p, grid)
    theta = (frac / grid.h)[:, None]
    # the rotation by q + 1 is window s, the one by q window s + 1; blended
    # in place, so that no more than the padded copy and two gathers are held
    rows, s = np.arange(len(A)), np.mod(-1 - q, grid.n)
    W = periodic_windows(A, 0, grid.n)
    out, blend = W[rows, s + 1], W[rows, s]
    out *= 1.0 - theta
    blend *= theta
    out += blend
    return out


def shift_field(p: float, v: np.ndarray, grid: SpatialGrid) -> np.ndarray:
    """Nodal values of ``T(p) v`` for one shift; ``v`` is one field or a 2-D
    array of fields, one per row.  No program path calls it: it stays while
    ``benchmarks/tracing.py`` traces it, whose checks need its metrics."""
    v = np.asarray(v, dtype=float)
    if v.shape[-1] != grid.n:
        raise ValueError(f"vector length {v.shape[-1]} does not match n={grid.n}")
    rows = np.atleast_2d(v)
    return shift_rows(rows, np.full(rows.shape[0], float(p)), grid).reshape(v.shape)
