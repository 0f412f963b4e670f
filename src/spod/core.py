"""Grids, snapshot containers, file I/O, and error metrics.

Spatial data lives on a uniform periodic grid with ``n`` nodes on a domain
of length ``L``; node ``n`` is identified with node ``0``.  Nodal values are
interpreted as coefficients of the periodic piecewise-linear (P1) hat basis,
which is interpolatory on this grid.  Time integrals are approximated with
trapezoidal weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Union

import numpy as np

__all__ = [
    "SpatialGrid",
    "TimeGrid",
    "SnapshotSet",
    "SnapshotFormatError",
    "make_uniform_time_grid",
    "save_snapshots",
    "load_snapshots",
    "relative_l2_error",
    "export_heatmap",
]

PathLike = Union[str, Path]

SNAPSHOT_MAGIC = "# spod-v1"

# 17 significant digits round-trip any IEEE double exactly.
_FMT = "%.17g"


class SnapshotFormatError(ValueError):
    """Raised when a snapshot file does not parse as ``spod-v1``."""


def _frozen_array(a, dtype=float) -> np.ndarray:
    out = np.array(a, dtype=dtype)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class SpatialGrid:
    """Uniform periodic 1-D grid with nodes ``x_l = l * h``, ``l = 0..n-1``.

    Parameters
    ----------
    n : int
        Number of nodes; node ``n`` is identified with node ``0``.
    length : float
        Domain size ``L``; the mesh width is ``h = L / n``.
    """

    n: int
    length: float

    def __post_init__(self) -> None:
        if not isinstance(self.n, (int, np.integer)) or self.n < 3:
            raise ValueError(f"grid needs at least 3 nodes, got n={self.n}")
        if not (self.length > 0 and math.isfinite(self.length)):
            raise ValueError(f"domain length must be positive, got {self.length}")
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "length", float(self.length))

    @property
    def h(self) -> float:
        return self.length / self.n

    @property
    def nodes(self) -> np.ndarray:
        return np.arange(self.n) * self.h


@dataclass(frozen=True, eq=False)
class TimeGrid:
    """Strictly increasing times ``t_0 = 0 < ... < t_m`` with quadrature weights.

    The weights are trapezoidal, so they are nonnegative and sum to
    ``t_m - t_0`` (up to 1e-12 relative).
    """

    times: np.ndarray
    weights: np.ndarray

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TimeGrid):
            return NotImplemented
        return np.array_equal(self.times, other.times) and np.array_equal(
            self.weights, other.weights
        )

    def __hash__(self) -> int:
        return hash((self.times.tobytes(), self.weights.tobytes()))

    def __post_init__(self) -> None:
        times = _frozen_array(self.times)
        weights = _frozen_array(self.weights)
        if times.ndim != 1 or times.size < 2:
            raise ValueError("time grid needs at least two time points")
        if times[0] != 0.0:
            raise ValueError(f"time grid must start at t=0, got t_0={times[0]}")
        if not np.all(np.isfinite(times)):
            raise ValueError("time grid contains non-finite times")
        if np.any(np.diff(times) <= 0):
            raise ValueError("times must be strictly increasing")
        if weights.shape != times.shape:
            raise ValueError("weights must match times in shape")
        if np.any(weights < 0) or not np.all(np.isfinite(weights)):
            raise ValueError("weights must be nonnegative and finite")
        span = float(times[-1] - times[0])
        if abs(math.fsum(weights) - span) > 1e-12 * span:
            raise ValueError("weights must sum to the time span")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "weights", weights)

    @classmethod
    def from_times(cls, times) -> "TimeGrid":
        """Trapezoidal weights for a (possibly nonuniform) time vector."""
        times = np.asarray(times, dtype=float)
        if times.ndim != 1 or times.size < 2:
            raise ValueError("time grid needs at least two time points")
        dt = np.diff(times)
        weights = np.zeros_like(times)
        weights[:-1] += 0.5 * dt
        weights[1:] += 0.5 * dt
        return cls(times, weights)

    @property
    def m(self) -> int:
        return self.times.size - 1

    @property
    def tfinal(self) -> float:
        return float(self.times[-1])


def make_uniform_time_grid(m: int, T: float) -> TimeGrid:
    """Uniform grid ``t_k = k T / m`` with trapezoidal weights.

    End weights are ``T / (2 m)``, interior weights ``T / m``.
    """
    if not isinstance(m, (int, np.integer)) or m < 1:
        raise ValueError(f"need at least one time interval, got m={m}")
    if not (T > 0 and math.isfinite(T)):
        raise ValueError(f"final time must be positive, got T={T}")
    m = int(m)
    times = np.arange(m + 1) * (T / m)
    weights = np.full(m + 1, T / m)
    weights[0] = weights[-1] = T / (2 * m)
    return TimeGrid(times, weights)


@dataclass(frozen=True, eq=False)
class SnapshotSet:
    """Snapshot matrix: row ``k`` holds the nodal values of the field at ``t_k``."""

    grid: SpatialGrid
    tgrid: TimeGrid
    values: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        values = _frozen_array(self.values)
        if values.ndim != 2:
            raise ValueError("snapshot values must be a 2-D array")
        nt, nx = values.shape
        if nt != self.tgrid.m + 1:
            raise ValueError(
                f"snapshot rows ({nt}) must match time points ({self.tgrid.m + 1})"
            )
        if nx != self.grid.n:
            raise ValueError(
                f"snapshot columns ({nx}) must match grid nodes ({self.grid.n})"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError("snapshot values must all be finite")
        object.__setattr__(self, "values", values)


def save_snapshots(s: SnapshotSet, destination: Union[PathLike, IO[str]]) -> None:
    """Write a snapshot set in the ``spod-v1`` text format.

    The format only represents uniform time grids; saving a nonuniform grid
    raises ``ValueError``.  All values round-trip bit-identically.
    """
    times = s.tgrid.times
    dt = np.diff(times)
    if not np.allclose(dt, dt[0], rtol=1e-12, atol=0.0):
        raise ValueError("spod-v1 files only represent uniform time grids")
    lines = [SNAPSHOT_MAGIC]
    lines.append(
        "nt %d nx %d length %s tfinal %s"
        % (s.tgrid.m + 1, s.grid.n, _FMT % s.grid.length, _FMT % s.tgrid.tfinal)
    )
    for row in s.values:
        lines.append(" ".join(_FMT % v for v in row))
    text = "\n".join(lines) + "\n"
    if hasattr(destination, "write"):
        destination.write(text)
    else:
        Path(destination).write_text(text, encoding="utf-8")


def _parse_header(line: str) -> tuple[int, int, float, float]:
    tokens = line.split()
    if len(tokens) != 8 or tokens[0::2] != ["nt", "nx", "length", "tfinal"]:
        raise SnapshotFormatError(f"line 2: malformed header {line!r}")
    try:
        nt = int(tokens[1])
        nx = int(tokens[3])
        length = float(tokens[5])
        tfinal = float(tokens[7])
    except ValueError as exc:
        raise SnapshotFormatError(f"line 2: malformed header {line!r}") from exc
    if nt < 2 or nx < 3:
        raise SnapshotFormatError(f"line 2: invalid dimensions in header {line!r}")
    if not all(math.isfinite(v) and v > 0 for v in (length, tfinal)):
        raise SnapshotFormatError(
            f"line 2: length and tfinal must be positive and finite in header {line!r}"
        )
    return nt, nx, length, tfinal


def load_snapshots(source: Union[PathLike, IO[str]]) -> SnapshotSet:
    """Read a ``spod-v1`` snapshot file.

    Raises ``SnapshotFormatError`` naming the offending line on any
    malformed header, row/column count mismatch, or non-finite value.
    """
    if hasattr(source, "read"):
        text = source.read()
    else:
        text = Path(source).read_text(encoding="utf-8")
    lines = text.splitlines()
    if not lines or lines[0].strip() != SNAPSHOT_MAGIC:
        raise SnapshotFormatError("line 1: missing '# spod-v1' magic line")
    if len(lines) < 2:
        raise SnapshotFormatError("line 2: missing header line")
    nt, nx, length, tfinal = _parse_header(lines[1].strip())
    data_lines = lines[2:]
    # trailing blank lines are tolerated, internal ones are not
    while data_lines and data_lines[-1].strip() == "":
        data_lines.pop()
    if len(data_lines) != nt:
        raise SnapshotFormatError(
            f"line {2 + len(data_lines) + 1}: expected {nt} data rows, found {len(data_lines)}"
        )
    values = np.empty((nt, nx))
    for k, line in enumerate(data_lines):
        lineno = k + 3
        parts = line.split()
        if len(parts) != nx:
            raise SnapshotFormatError(
                f"line {lineno}: row {k} has {len(parts)} values, expected {nx}"
            )
        try:
            row = np.array([float(p) for p in parts])
        except ValueError as exc:
            raise SnapshotFormatError(f"line {lineno}: row {k} has a non-numeric value") from exc
        if not np.all(np.isfinite(row)):
            raise SnapshotFormatError(f"line {lineno}: row {k} has a non-finite value")
        values[k] = row
    grid = SpatialGrid(nx, length)
    tgrid = make_uniform_time_grid(nt - 1, tfinal)
    return SnapshotSet(grid, tgrid, values)


def relative_l2_error(z: SnapshotSet, zhat: SnapshotSet) -> float:
    """Relative space-time L2 error of ``zhat`` against the data ``z``.

    Both integrals use the trapezoidal rule: weights ``w_k`` in time and the
    periodic trapezoid in space, which by periodicity assigns the equal
    weight ``h`` to every node.
    """
    if z.grid != zhat.grid or z.tgrid != zhat.tgrid:
        if z.grid != zhat.grid:
            raise ValueError("snapshot sets live on different spatial grids")
        raise ValueError("snapshot sets live on different time grids")
    w = z.tgrid.weights
    h = z.grid.h
    den_sq = h * float(np.dot(w, np.sum(z.values**2, axis=1)))
    if den_sq == 0.0:
        raise ZeroDivisionError("relative error undefined: data is identically zero")
    diff = z.values - zhat.values
    num_sq = h * float(np.dot(w, np.sum(diff**2, axis=1)))
    return math.sqrt(num_sq) / math.sqrt(den_sq)


def export_heatmap(s: SnapshotSet, destination: Union[PathLike, IO[str]]) -> None:
    """Write ``t,x,value`` CSV rows, one per (time, node) pair."""
    x = s.grid.nodes
    t = s.tgrid.times
    lines = ["t,x,value"]
    for k in range(t.size):
        tk = _FMT % t[k]
        row = s.values[k]
        for ell in range(x.size):
            lines.append("%s,%s,%s" % (tk, _FMT % x[ell], _FMT % row[ell]))
    text = "\n".join(lines) + "\n"
    if hasattr(destination, "write"):
        destination.write(text)
    else:
        Path(destination).write_text(text, encoding="utf-8")
