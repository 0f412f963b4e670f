"""Discretized reconstruction cost, its gradients, and the penalty functional.

The approximation ansatz groups modes into reference frames: each frame
carries one shift path ``p(t)``, a stack of mode vectors, and per-mode time
coefficients.  The cost is the quadrature-weighted squared distance between
the data and the superposition of all shifted frames,

    J = 1/2 sum_k w_k || z_k - sum_{frames f} sum_i a_{f,i}(t_k) T(p_f(t_k)) phi_{f,i} ||_X^2,

assembled exactly through the closed-form Gram matrices of ``shift_fem`` so
that shifted fields are never materialized.  Gradients with respect to
coefficients, paths, and modes follow the same assembly.
"""

from __future__ import annotations

import functools
import math
import weakref
from dataclasses import dataclass, field
from typing import Literal

import numpy as np

from .core import SnapshotSet, SpatialGrid, TimeGrid, _frozen_array
from .shift_fem import (
    BAND_OFFSETS,
    _band_F,
    _band_G,
    apply_gram,
    decompose_shift,
    periodic_windows,
    roll_rows,
    shift_rows,
    stiffness_gram,
    zero_shift_grams,
)

__all__ = [
    "PathRepr",
    "Frame",
    "Decomposition",
    "CostGradient",
    "path_values",
    "path_pullback",
    "reconstruct",
    "eval_cost",
    "eval_cost_gradient",
    "penalty_value",
    "penalty_gradient",
    "eval_penalized_cost",
    "data_norm_sq",
]

MAX_POLY_DEGREE = 10


@dataclass(frozen=True, eq=False)
class PathRepr:
    """A shift path, either nodal samples ``p(t_k)`` or polynomial coefficients.

    Polynomial paths store ``c_0..c_d`` with ``p(t) = sum_j c_j t^j`` and are
    limited to degree 10.
    """

    kind: Literal["nodal", "polynomial"]
    values: np.ndarray

    def __post_init__(self) -> None:
        if self.kind not in ("nodal", "polynomial"):
            raise ValueError(f"unknown path kind {self.kind!r}")
        values = _frozen_array(self.values)
        if values.ndim != 1 or values.size == 0:
            raise ValueError("path values must be a nonempty 1-D array")
        if not np.all(np.isfinite(values)):
            raise ValueError("path values must be finite")
        if self.kind == "polynomial" and values.size - 1 > MAX_POLY_DEGREE:
            raise ValueError(
                f"polynomial path degree {values.size - 1} exceeds {MAX_POLY_DEGREE}"
            )
        object.__setattr__(self, "values", values)

    @classmethod
    def nodal(cls, values) -> "PathRepr":
        return cls("nodal", np.asarray(values, dtype=float))

    @classmethod
    def polynomial(cls, coeffs) -> "PathRepr":
        return cls("polynomial", np.asarray(coeffs, dtype=float))


def path_values(path: PathRepr, times: np.ndarray) -> np.ndarray:
    """Evaluate a path at the time grid points."""
    if path.kind == "nodal":
        if path.values.size != times.size:
            raise ValueError(
                f"nodal path has {path.values.size} samples, expected {times.size}"
            )
        return path.values
    return np.polynomial.polynomial.polyval(times, path.values)


def path_pullback(path: PathRepr, times: np.ndarray, nodal: np.ndarray) -> np.ndarray:
    """A gradient with respect to the samples ``p(t_k)`` as one with respect
    to ``path.values``: unchanged for nodal paths, through the transposed
    Vandermonde of the monomial basis for polynomial ones."""
    if path.kind == "nodal":
        return nodal
    return np.vander(times, path.values.size, increasing=True).T @ nodal


@dataclass(frozen=True, eq=False)
class Frame:
    """One reference frame: a path, its modes, and their time coefficients.

    ``modes`` has one row per mode (``r x n``); ``coeffs`` has one column per
    mode (``(m+1) x r``).
    """

    path: PathRepr
    modes: np.ndarray = field(repr=False)
    coeffs: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        modes = _frozen_array(self.modes)
        coeffs = _frozen_array(self.coeffs)
        if modes.ndim != 2 or modes.shape[0] < 1:
            raise ValueError("modes must be a 2-D array with at least one row")
        if coeffs.ndim != 2 or coeffs.shape[1] != modes.shape[0]:
            raise ValueError("coeffs must have one column per mode")
        if not (np.all(np.isfinite(modes)) and np.all(np.isfinite(coeffs))):
            raise ValueError("frame data must be finite")
        object.__setattr__(self, "modes", modes)
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def r(self) -> int:
        return self.modes.shape[0]


@dataclass(frozen=True, eq=False)
class Decomposition:
    """Ordered frames plus the grids they live on; evaluable to a reconstruction."""

    frames: tuple[Frame, ...]
    grid: SpatialGrid
    tgrid: TimeGrid

    def __post_init__(self) -> None:
        frames = tuple(self.frames)
        if not frames:
            raise ValueError("decomposition needs at least one frame")
        nt = self.tgrid.m + 1
        for f in frames:
            if f.modes.shape[1] != self.grid.n:
                raise ValueError(
                    f"frame modes have {f.modes.shape[1]} columns, grid has {self.grid.n} nodes"
                )
            if f.coeffs.shape[0] != nt:
                raise ValueError(
                    f"frame coeffs have {f.coeffs.shape[0]} rows, time grid has {nt} points"
                )
            if f.path.kind == "nodal" and f.path.values.size != nt:
                raise ValueError(
                    f"nodal path has {f.path.values.size} samples, time grid has {nt} points"
                )
        object.__setattr__(self, "frames", frames)

    @property
    def total_modes(self) -> int:
        return sum(f.r for f in self.frames)


@dataclass(frozen=True, eq=False)
class CostGradient:
    """Cost value plus per-frame gradients.

    ``g_paths`` entries have length ``m+1`` for nodal paths and ``d+1`` for
    polynomial paths (chain rule through the monomial basis).
    """

    value: float
    g_coeffs: tuple[np.ndarray, ...]
    g_paths: tuple[np.ndarray, ...]
    g_modes: tuple[np.ndarray, ...]


def _check_same_grids(z: SnapshotSet, d: Decomposition) -> None:
    if z.grid != d.grid:
        raise ValueError("snapshot data and decomposition use different spatial grids")
    if z.tgrid != d.tgrid:
        raise ValueError("snapshot data and decomposition use different time grids")


# per-row data energy of each snapshot set; weak keys, so no snapshot set is
# kept alive by it, and one O(nt) array per set, never its data rows
_DATA_ENERGY: "weakref.WeakKeyDictionary[SnapshotSet, np.ndarray]" = weakref.WeakKeyDictionary()


def _data_energy(z: SnapshotSet) -> np.ndarray:
    """Per-time-step ``z_k^T F(0) z_k``, computed once per snapshot set (its
    values are read-only, so the result never goes stale)."""
    energy = _DATA_ENERGY.get(z)
    if energy is None:
        F0, _ = zero_shift_grams(z.grid)
        energy = np.einsum("kl,kl->k", z.values, apply_gram(F0, z.values))
        energy.setflags(write=False)
        _DATA_ENERGY[z] = energy
    return energy


class _Workspace:
    """The state of one evaluation point, shared by its value and its gradient.

    Built once per point ``(z, d)``: per frame ``a`` its modes rolled by each
    band offset, one C-ordered ``(4 r, n)`` matrix of periodic windows, and
    its sources, the rows its shifted modes meet, each rotated into the
    frame's alignment and paired with the fractional parts of the shift
    between them: first the data rows (shift ``p_a``), then each partner
    ``b``'s ``coeffs @ modes`` rows (shift ``p_a - p_b``).  Each source meets
    the rolled modes in one row product, ``(nt, r, 4)``, shared by both Gram
    families; a family contracts it with its bands.  Everything else is a
    cached property, built when first read: the row products, the mass Grams
    ``Phi F(0) Phi^T``, the families ``F`` (for the value) and ``G`` (for the
    path gradient), each ``(bands, DZ, R)``, and the value.  So a gradient
    after the value at the same point adds only ``G`` and the mode rows.  The
    zero-shift Grams come from the per-grid cache of ``shift_fem``, the data
    energy from the per-snapshot-set cache above.
    """

    def __init__(self, z: SnapshotSet, d: Decomposition):
        _check_same_grids(z, d)
        self.z = z
        self.d = d
        grid = d.grid
        self.h = grid.h
        self.times = d.tgrid.times
        self.w = d.tgrid.weights
        self.F0, self.G0 = zero_shift_grams(grid)
        pvals = [path_values(f.path, self.times) for f in d.frames]
        # row 4 i + d holds phi_i[(l + delta_d) % n]; the reshape copies, C-ordered
        self.rolls = [periodic_windows(f.modes, -2, 1).reshape(4 * f.r, grid.n) for f in d.frames]
        self.sources = []
        for a, pa in enumerate(pvals):
            partners = [(pa - pb, self.U[b]) for b, pb in enumerate(pvals) if b != a]
            self.sources.append([])
            for p, rows in [(pa, z.values), *partners]:
                q, frac = decompose_shift(p, grid)
                self.sources[a].append((frac, roll_rows(rows, -q)))

    @functools.cached_property
    def U(self) -> list[np.ndarray]:
        """Each frame's ``coeffs @ modes`` rows; only multi-frame points read them."""
        return [f.coeffs @ f.modes for f in self.d.frames]

    @functools.cached_property
    def rows(self):
        """Per frame and source, ``[k, i, d] = x_k . phi_i[. + delta_d]``."""
        nt = self.times.size
        return [
            [(x @ rolls.T).reshape(nt, -1, 4) for _, x in src]
            for src, rolls in zip(self.sources, self.rolls)
        ]

    @functools.cached_property
    def mass_grams(self) -> list[np.ndarray]:
        """Each frame's ``Phi F(0) Phi^T``, shared with the Gauss-Newton diagonal."""
        return [f.modes @ apply_gram(self.F0, f.modes).T for f in self.d.frames]

    @functools.cached_property
    def F(self):
        """The F family per frame: bands per source, data products FZ and
        reconstruction products R."""
        return self._family(_band_F, self.mass_grams)

    @functools.cached_property
    def G(self):
        """The G family per frame: bands per source, GZ and RN."""
        grams = [f.modes @ apply_gram(self.G0, f.modes).T for f in self.d.frames]
        return self._family(_band_G, grams)

    def _family(self, band, grams):
        """``(bands, DZ, R)`` of one family, from its same-frame Grams."""
        bands = [[band(fr, self.h) for fr, _ in src] for src in self.sources]
        DZ, R = [], []
        for f, gram, fbands, rows in zip(self.d.frames, grams, bands, self.rows):
            dz, *partners = (np.einsum("kd,kid->ki", b, p) for b, p in zip(fbands, rows))
            DZ.append(dz)
            R.append(sum(partners, f.coeffs @ gram))
        return bands, DZ, R

    @functools.cached_property
    def value(self) -> float:
        """The cost, from the F-family products."""
        # the cost is a small difference of large sums near a good fit, so
        # accumulate all weighted addends exactly (the data-energy terms and
        # the frame terms cancel addend-by-addend for exact reconstructions)
        addends = [self.w * _data_energy(self.z)]
        _, FZ, R = self.F
        for f, fz, rmat in zip(self.d.frames, FZ, R):
            addends.append(self.w * np.einsum("ki,ki->k", f.coeffs, rmat - 2.0 * fz))
        return 0.5 * math.fsum(np.concatenate(addends).tolist())

    def path_gradients(self) -> list[np.ndarray]:
        """Nodal path gradient of each frame, from the G-family products alone."""
        _, GZ, RN = self.G
        return [
            self.w * (f.coeffs * (rn - gz)).sum(axis=1)
            for f, gz, rn in zip(self.d.frames, GZ, RN)
        ]

    def mode_gradient(self, fi: int) -> np.ndarray:
        """Gradient rows for frame ``fi``'s modes: with ``c = w a`` they are
        ``c^T (F(0) u + sum_j F(p_j - p_i) u_j - F(p_i)^T z)``, row by row.

        A transposed band family on rows ``x`` is ``sum_d shift_{delta_d}
        ((c b_d)^T x)``: one ``(4 r, nt) @ (nt, n)`` product per source, and
        band ``d``'s rows read at offset ``-delta_d`` from the periodic
        windows of offsets ``-1..2``.  The partners take this form as
        ``F(p_j - p_i) = F(p_i - p_j)^T``; the same-frame term is ``F(0) c^T
        a Phi``.
        """
        f = self.d.frames[fi]
        c = self.w[:, None] * f.coeffs
        data, *partners = (
            (c[:, :, None] * b[:, None, :]).reshape(len(c), -1).T @ x
            for b, (_, x) in zip(self.F[0][fi], self.sources[fi])
        )
        Y = sum(partners, -data).reshape(f.r, len(BAND_OFFSETS), -1)
        # band d at offset -delta_d is window 1 - delta_d
        d = np.arange(len(BAND_OFFSETS))
        row = periodic_windows(Y, -1, 2)[:, d, 1 - np.array(BAND_OFFSETS)].sum(axis=1)
        return row + apply_gram(self.F0, (c.T @ f.coeffs) @ f.modes)


def _point_workspace(z: SnapshotSet, d: Decomposition, workspace) -> _Workspace:
    """The caller's workspace, if it was built for these very ``z`` and ``d``,
    or a new one."""
    if workspace is None:
        return _Workspace(z, d)
    if workspace.z is not z or workspace.d is not d:
        raise ValueError("workspace was built for another snapshot set or decomposition")
    return workspace


def reconstruct(d: Decomposition) -> SnapshotSet:
    """Evaluate the decomposition to nodal snapshot values.

    Row ``k`` is the sum over frames of ``sum_i coeffs[k, i] * mode_i``
    shifted by ``p(t_k)`` (:func:`~spod.shift_fem.shift_rows`).
    """
    times = d.tgrid.times
    out = np.zeros((times.size, d.grid.n))
    for f in d.frames:
        out += shift_rows(f.coeffs @ f.modes, path_values(f.path, times), d.grid)
    return SnapshotSet(d.grid, d.tgrid, out)


def eval_cost(z: SnapshotSet, d: Decomposition, *, workspace=None) -> float:
    """Quadrature-weighted squared-residual cost, assembled via Gram matrices.

    Bitwise equal to ``eval_cost_gradient(z, d).value``: the same F-family
    products, summed in the same order; no G band or product is built.
    ``workspace``, if given, is a ``_Workspace`` built for these very ``z``
    and ``d`` (``ValueError`` otherwise); it keeps the F products and the
    value for a gradient taken later at the same point.
    """
    return _point_workspace(z, d, workspace).value


def eval_cost_gradient(z: SnapshotSet, d: Decomposition, *, workspace=None) -> CostGradient:
    """Cost together with its gradients w.r.t. coefficients, paths, and modes.

    Polynomial path gradients are the nodal gradients pulled back through
    the monomial basis (:func:`path_pullback`).  Given the ``workspace`` of
    an earlier :func:`eval_cost` at the same point (see there), the value,
    the row products and the F products come from it, and only the G
    products and the mode rows are built; the result is bitwise the same.
    """
    ws = _point_workspace(z, d, workspace)
    _, FZ, R = ws.F
    value = ws.value
    path_grads = ws.path_gradients()
    g_coeffs, g_paths, g_modes = [], [], []
    for fi, f in enumerate(d.frames):
        g_coeffs.append(ws.w[:, None] * (R[fi] - FZ[fi]))
        g_paths.append(path_pullback(f.path, ws.times, path_grads[fi]))
        g_modes.append(ws.mode_gradient(fi))
    return CostGradient(value, tuple(g_coeffs), tuple(g_paths), tuple(g_modes))


def path_gradient_nodal(z: SnapshotSet, d: Decomposition) -> list[np.ndarray]:
    """Nodal path gradients only (coefficient and mode blocks skipped).

    This is the partial gradient used by the reduced path-only optimization,
    where coefficients and modes sit at an inner minimizer.  It reads the G
    family alone: no F band or product is built.  Pulled back through
    :func:`path_pullback`, it is bitwise ``eval_cost_gradient(z, d).g_paths``.
    """
    return _Workspace(z, d).path_gradients()


def data_norm_sq(z: SnapshotSet) -> float:
    """Squared data norm ``sum_k w_k z_k^T F(0) z_k`` (the cost's own metric)."""
    return float(np.dot(z.tgrid.weights, _data_energy(z)))


def _discrete_h1_norm_sq(pv: np.ndarray, tgrid: TimeGrid) -> float:
    """Path H1 norm: trapezoidal L2 part plus central-difference derivative part."""
    w = tgrid.weights
    pdot = np.gradient(pv, tgrid.times)
    return float(np.dot(w, pv**2) + np.dot(w, pdot**2))


def _gradient_transpose(v: np.ndarray, times: np.ndarray) -> np.ndarray:
    """``D^T v`` for the linear map ``D`` of ``np.gradient(., times)``.

    ``D`` is the second-order three-point stencil at interior nodes and the
    one-sided difference at both ends; its transpose is applied stencil by
    stencil, never as a dense matrix.
    """
    dt = np.diff(times)
    hs, hd = dt[:-1], dt[1:]
    out = np.zeros_like(v)
    vi = v[1:-1]
    out[:-2] -= hd / (hs * (hs + hd)) * vi
    out[1:-1] += (hd - hs) / (hs * hd) * vi
    out[2:] += hs / (hd * (hs + hd)) * vi
    out[0] -= v[0] / dt[0]
    out[1] += v[0] / dt[0]
    out[-2] -= v[-1] / dt[-1]
    out[-1] += v[-1] / dt[-1]
    return out


def _penalty_norms(d: Decomposition, C: float):
    """Per frame: path samples, ``(F(0)+K)`` applied to the modes, and per mode
    the (coefficient L2, path H1, mode H1) norms the penalty bounds by ``C``."""
    if not C > 0:
        raise ValueError(f"penalty bound must be positive, got C={C}")
    w = d.tgrid.weights
    stiff = stiffness_gram(d.grid)
    F0, _ = zero_shift_grams(d.grid)
    out = []
    for f in d.frames:
        pv = path_values(f.path, d.tgrid.times)
        path_norm = math.sqrt(_discrete_h1_norm_sq(pv, d.tgrid))
        ymodes = apply_gram(F0, f.modes) + apply_gram(stiff, f.modes)
        mode_sq = np.einsum("il,il->i", f.modes, ymodes)
        coeff_sq = np.einsum("ki,k->i", f.coeffs**2, w)
        norms = [
            (math.sqrt(coeff_sq[i]), path_norm, math.sqrt(max(mode_sq[i], 0.0)))
            for i in range(f.r)
        ]
        out.append((pv, ymodes, norms))
    return out


def penalty_value(d: Decomposition, C: float) -> float:
    """Admissible-set penalty: per (frame, mode) pair, how far the largest of
    the coefficient L2, path H1, and mode H1 norms exceeds the bound ``C``.

    Zero exactly on the admissible set; the shared frame path enters once per
    mode of its frame.
    """
    total = 0.0
    for _, _, norms in _penalty_norms(d, C):
        for triple in norms:
            total += max(0.0, max(triple) - C)
    return total


def penalty_gradient(d: Decomposition, C: float) -> CostGradient:
    """The penalty (bitwise :func:`penalty_value`) and its closed-form subgradient.

    Each (frame, mode) pair whose largest norm exceeds ``C`` contributes the
    gradient of that norm: ``w a_i / |a_i|_w`` in coefficient column ``i``,
    ``(F(0)+K) phi_i / |phi_i|_Y`` in mode row ``i``, or
    ``(w p + D^T (w p')) / |p|_H1`` in the path, once per such mode of the
    frame (``D`` is the map of ``np.gradient``; polynomial paths go through
    :func:`path_pullback`).  Ties between norms resolve to the first of
    (coefficients, path, mode).  Pairs at or below ``C`` contribute exact
    zeros.
    """
    times, w = d.tgrid.times, d.tgrid.weights
    total = 0.0
    g_coeffs, g_paths, g_modes = [], [], []
    for f, (pv, ymodes, norms) in zip(d.frames, _penalty_norms(d, C)):
        gc = np.zeros(f.coeffs.shape)
        gm = np.zeros(f.modes.shape)
        gp = np.zeros(f.path.values.size)
        path_scale = 0.0  # sum of 1/|p|_H1 over the modes whose path norm is active
        for i, triple in enumerate(norms):
            largest = max(triple)
            total += max(0.0, largest - C)
            if not largest > C:
                continue
            active = triple.index(largest)
            if active == 0:
                gc[:, i] = w * f.coeffs[:, i] / largest
            elif active == 1:
                path_scale += 1.0 / largest
            else:
                gm[i] = ymodes[i] / largest
        if path_scale:
            pdot = np.gradient(pv, times)
            gp = path_pullback(
                f.path, times, path_scale * (w * pv + _gradient_transpose(w * pdot, times))
            )
        g_coeffs.append(gc)
        g_paths.append(gp)
        g_modes.append(gm)
    return CostGradient(total, tuple(g_coeffs), tuple(g_paths), tuple(g_modes))


def eval_penalized_cost(
    z: SnapshotSet, d: Decomposition, C: float = 1.0, lam: float = 0.0, *, workspace=None
) -> float:
    """Cost plus ``lam`` times the admissible-set penalty (``lam = 0`` default);
    ``workspace`` goes to :func:`eval_cost`."""
    if lam < 0:
        raise ValueError(f"penalty coefficient must be nonnegative, got {lam}")
    value = eval_cost(z, d, workspace=workspace)
    if lam > 0.0:
        value += lam * penalty_value(d, C)
    return value
