"""Independent reference computations for the tests.

Each function recomputes, by a route that does not go through the code under
test, a quantity the package assembles in closed form: dense Gram matrices,
P1 interpolation by direct evaluation, Gram entries by exact quadrature, and
the POD error in the POD's own norm.
"""

import numpy as np

from spod.core import SnapshotSet, SpatialGrid
from spod.shift_fem import BAND_OFFSETS, ShiftGram, apply_gram, zero_shift_grams


def gram_to_dense(gram: ShiftGram) -> np.ndarray:
    """Materialize the full circulant matrix."""
    n = gram.n
    dense = np.zeros((n, n))
    rows = np.arange(n)
    for d, delta in enumerate(BAND_OFFSETS):
        dense[rows, (rows - gram.offset_q + delta) % n] += gram.band[d]
    return dense


def eval_p1(v: np.ndarray, grid: SpatialGrid, x: np.ndarray) -> np.ndarray:
    """Evaluate the periodic P1 interpolant with nodal values ``v`` at ``x``."""
    v = np.asarray(v, dtype=float)
    x = np.asarray(x, dtype=float)
    s = np.mod(x, grid.length) / grid.h
    cell = np.floor(s).astype(np.int64)
    theta = s - cell
    cell = np.mod(cell, grid.n)
    nxt = np.mod(cell + 1, grid.n)
    return (1.0 - theta) * v[cell] + theta * v[nxt]


def quadrature_inner_oracle(
    a: np.ndarray, b: np.ndarray, p: float, grid: SpatialGrid, derivative: bool = False
) -> float:
    """``<a, T(p) b>``, or with ``derivative`` ``<a, d/dp T(p) b>``, for P1
    fields by quadrature: an independent check of the closed-form Gram bands.

    Between consecutive points of ``{nodes} U {nodes + p}`` the field ``a`` is
    linear and ``T(p) b`` linear (its shift derivative ``-T(p) b'``, by the
    semigroup generator identity, constant), so 2-point Gauss-Legendre on
    each such piece is exact up to rounding.  ``a`` and ``T(p) b`` are
    evaluated pointwise through :func:`eval_p1` and ``b'`` from node
    differences, not through the band formulas.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    L = grid.length
    cuts = np.unique(np.concatenate([grid.nodes, np.mod(grid.nodes + p, L), [0.0, L]]))
    mid = 0.5 * (cuts[1:] + cuts[:-1])
    half = 0.5 * (cuts[1:] - cuts[:-1])
    x = (mid[:, None] + half[:, None] * np.array([-1.0, 1.0]) / np.sqrt(3.0)).ravel()
    if derivative:
        # b' is constant on the cell that holds x - p
        cell = np.mod(np.floor(np.mod(x - p, L) / grid.h).astype(np.int64), grid.n)
        fb = -(b[np.mod(cell + 1, grid.n)] - b[cell]) / grid.h
    else:
        fb = eval_p1(b, grid, x - p)
    return float(np.dot(np.repeat(half, 2), eval_p1(a, grid, x) * fb))


def x_weighted_relative_error(z: SnapshotSet, zhat: SnapshotSet) -> float:
    """Relative error in the POD's own norm: time weights plus mass matrix.

    This is the metric in which the POD truncation identity
    ``err(r)^2 = sum_{i>r} s_i^2 / sum_i s_i^2`` is exact; the reporting
    metric ``core.relative_l2_error`` differs from it by spatial quadrature.
    """
    if z.grid != zhat.grid or z.tgrid != zhat.tgrid:
        raise ValueError("snapshot sets live on different grids")
    F0, _ = zero_shift_grams(z.grid)
    w = z.tgrid.weights
    diff = z.values - zhat.values
    num = float(np.dot(w, np.einsum("kl,kl->k", diff, apply_gram(F0, diff))))
    den = float(np.dot(w, np.einsum("kl,kl->k", z.values, apply_gram(F0, z.values))))
    if den == 0.0:
        raise ZeroDivisionError("relative error undefined: data is identically zero")
    return float(np.sqrt(num / den))
