"""Dataset generators: analytic Burgers snapshots, a FitzHugh-Nagumo wave
train, and synthetic traveling-profile fixtures with known ground truth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .core import SnapshotSet, SpatialGrid, TimeGrid, make_uniform_time_grid
from .cost_grad import Decomposition, Frame, PathRepr
from .shift_fem import shift_rows

__all__ = [
    "BurgersParams",
    "FhnParams",
    "IntegratorBlowupError",
    "TravelingProfile",
    "burgers_analytic",
    "burgers_value",
    "fhn_simulate",
    "fhn_stability_limit",
    "synthetic_traveling",
]


@dataclass(frozen=True)
class BurgersParams:
    """Viscous Burgers benchmark on (0,1) x (0,2) with a closed-form solution."""

    reynolds: float = 1000.0
    nx_intervals: int = 100
    nt_intervals: int = 100
    length: float = 1.0
    tfinal: float = 2.0

    def __post_init__(self) -> None:
        if not self.reynolds > 0:
            raise ValueError("Reynolds number must be positive")
        if self.nx_intervals < 2 or self.nt_intervals < 2:
            raise ValueError("need at least 2 intervals per axis")


def burgers_value(t, x, reynolds: float = 1000.0):
    """Closed-form Burgers field, broadcastable over ``t`` and ``x``."""
    t = np.asarray(t, dtype=float)
    x = np.asarray(x, dtype=float)
    tp1 = t + 1.0
    # sqrt((t+1)/exp(Re/8)) * exp(Re x^2/(4t+4)) combined in the exponent to
    # stay finite for large Reynolds numbers
    expo = reynolds * (x**2 / (4.0 * tp1) - 0.125 / 2.0)
    return (x / tp1) / (1.0 + np.sqrt(tp1) * np.exp(expo))


def burgers_analytic(p: BurgersParams = BurgersParams()) -> SnapshotSet:
    """Sample the closed form on the experiment grid.

    The data lives on ``nx_intervals`` nodes ``x_l = l/nx`` with the right
    endpoint dropped (periodic identification): the profile is near zero at
    both ends for the times considered, so the periodic-shift model applies
    with wrap-around contamination below the reported errors.
    """
    grid = SpatialGrid(p.nx_intervals, p.length)
    tgrid = make_uniform_time_grid(p.nt_intervals, p.tfinal)
    values = burgers_value(tgrid.times[:, None], grid.nodes[None, :], p.reynolds)
    return SnapshotSet(grid, tgrid, values)


class IntegratorBlowupError(RuntimeError):
    """Raised when the fixed-step integration leaves the stable regime."""


# classical RK4 absolute-stability interval on the negative real axis
_RK4_REAL_LIMIT = 2.785

# central sixth-order second-derivative stencil, offsets -3..3
_D2_STENCIL = np.array([2.0, -27.0, 270.0, -490.0, 270.0, -27.0, 2.0]) / 180.0
# largest magnitude of the stencil symbol: (490 + 540 + 54 + 4) / 180
_D2_SYMBOL_MAX = 1088.0 / 180.0


def _periodic_laplacian(u: np.ndarray, stencil: np.ndarray) -> np.ndarray:
    """Periodic 7-point second difference of ``u`` with the scaled stencil,
    as one convolution of the wrap-padded row (the stencil is symmetric)."""
    return np.convolve(np.concatenate((u[-3:], u, u[:3])), stencil, "valid")


def fhn_stability_limit(nu: float, h: float) -> float:
    """Largest RK4-stable step for the diffusion part of the right-hand side."""
    return _RK4_REAL_LIMIT * h * h / (nu * _D2_SYMBOL_MAX)


@dataclass(frozen=True)
class FhnParams:
    """Two-component excitable-medium model on a periodic domain.

    ``dt_int`` is the fixed integrator step; outputs are sampled every
    ``dt_out``.  The default step sits well below the diffusion stability
    limit (~0.115 for nu=1, h=0.5).
    """

    nu: float = 1.0
    a: float = -0.1
    eps: float = 0.05
    b: float = 0.3
    length: float = 500.0
    tfinal: float = 1000.0
    h: float = 0.5
    dt_out: float = 1.0
    dt_int: float = 0.01

    def __post_init__(self) -> None:
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite, got {getattr(self, f.name)}")
        if self.nu <= 0 or self.h <= 0 or self.length <= 0:
            raise ValueError("nu, h, and length must be positive")
        if self.tfinal <= 0 or self.dt_out <= 0 or self.dt_int <= 0:
            raise ValueError("time parameters must be positive")
        n = self.length / self.h
        if abs(n - round(n)) > 1e-9 or round(n) < 7:
            raise ValueError("mesh width must divide the domain into >= 7 cells")
        steps = self.dt_out / self.dt_int
        if abs(steps - round(steps)) > 1e-9:
            raise ValueError("dt_int must divide dt_out")
        ratio = self.tfinal / self.dt_out
        if abs(ratio - round(ratio)) > 1e-9:
            raise ValueError("dt_out must divide tfinal")
        limit = fhn_stability_limit(self.nu, self.h)
        if self.dt_int > limit:
            raise ValueError(
                f"dt_int={self.dt_int} exceeds the diffusion stability limit {limit:.4g}"
            )

    @property
    def n(self) -> int:
        return round(self.length / self.h)


def _default_fhn_initial(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    u0 = 0.5 * (1.0 + np.sin(np.pi * x / 50.0))
    v0 = 0.5 * (1.0 + np.cos(np.pi * x / 50.0))
    return u0, v0


def fhn_simulate(
    p: FhnParams = FhnParams(),
    u0: Optional[np.ndarray] = None,
    v0: Optional[np.ndarray] = None,
) -> SnapshotSet:
    """Integrate the two-component model and return the first component.

    Spatial derivatives use the periodic central sixth-order stencil; time
    stepping is classical fixed-step RK4.  ``u0``/``v0`` override the default
    initial data (mainly for integrator verification).  Raises
    :class:`IntegratorBlowupError` when any ``|u|`` exceeds 1e3, which
    suggests a smaller ``dt_int``.
    """
    n = p.n
    x = np.arange(n) * p.h
    if u0 is None and v0 is None:
        u, v = _default_fhn_initial(x)
    else:
        u = np.array(u0 if u0 is not None else np.zeros(n), dtype=float)
        v = np.array(v0 if v0 is not None else np.zeros(n), dtype=float)
        if u.shape != (n,) or v.shape != (n,):
            raise ValueError(f"initial data must have shape ({n},)")
    stencil = _D2_STENCIL / (p.h * p.h)
    nu, a, eps, b = p.nu, p.a, p.eps, p.b

    def rhs(u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        du = nu * _periodic_laplacian(u, stencil) - v + u * (1.0 - u) * (u - a)
        dv = eps * (b * u - v)
        return du, dv

    steps_per_out = round(p.dt_out / p.dt_int)
    n_out = round(p.tfinal / p.dt_out)
    dt = p.dt_int
    out = np.empty((n_out + 1, n))
    out[0] = u
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, n_out + 1):
            for _ in range(steps_per_out):
                k1u, k1v = rhs(u, v)
                k2u, k2v = rhs(u + 0.5 * dt * k1u, v + 0.5 * dt * k1v)
                k3u, k3v = rhs(u + 0.5 * dt * k2u, v + 0.5 * dt * k2v)
                k4u, k4v = rhs(u + dt * k3u, v + dt * k3v)
                u = u + (dt / 6.0) * (k1u + 2.0 * k2u + 2.0 * k3u + k4u)
                v = v + (dt / 6.0) * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
            if not np.all(np.isfinite(u)) or np.max(np.abs(u)) > 1e3:
                raise IntegratorBlowupError(
                    f"solution blew up near t={k * p.dt_out:g}; try a smaller dt_int"
                )
            out[k] = u
    grid = SpatialGrid(n, p.length)
    tgrid = make_uniform_time_grid(n_out, p.tfinal)
    return SnapshotSet(grid, tgrid, out)


@dataclass(frozen=True)
class TravelingProfile:
    """One traveling component: a spatial shape moving at constant speed,
    scaled by a time-dependent amplitude (constant 1 by default)."""

    shape: np.ndarray
    speed: float
    amplitude: Union[None, float, Callable[[np.ndarray], np.ndarray]] = None

    def amplitudes(self, times: np.ndarray) -> np.ndarray:
        if self.amplitude is None:
            return np.ones_like(times)
        if callable(self.amplitude):
            return np.asarray(self.amplitude(times), dtype=float)
        return float(self.amplitude) * np.ones_like(times)


def synthetic_traveling(
    profiles: Sequence[TravelingProfile], grid: SpatialGrid, tgrid: TimeGrid
) -> tuple[SnapshotSet, Decomposition]:
    """Superpose shifted profiles and return the data with its ground truth.

    The returned decomposition (one single-mode frame per profile, nodal
    paths ``speed * t``) reconstructs the data exactly when every speed is a
    whole number of cells per time step, and to O(h^2) otherwise.
    """
    if not profiles:
        raise ValueError("need at least one profile")
    times = tgrid.times
    values = np.zeros((times.size, grid.n))
    frames = []
    for prof in profiles:
        shape = np.asarray(prof.shape, dtype=float)
        if shape.shape != (grid.n,):
            raise ValueError(f"profile shape must have {grid.n} nodes")
        amps = prof.amplitudes(times)
        pv = prof.speed * times
        values += amps[:, None] * shift_rows(np.tile(shape, (times.size, 1)), pv, grid)
        frames.append(
            Frame(PathRepr.nodal(pv), shape[None, :], amps[:, None])
        )
    data = SnapshotSet(grid, tgrid, values)
    return data, Decomposition(tuple(frames), grid, tgrid)
