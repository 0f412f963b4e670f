"""Grids, snapshot containers, both text file formats, and error metrics.

Spatial data lives on a uniform periodic grid with ``n`` nodes on a domain
of length ``L``; node ``n`` is identified with node ``0``.  Nodal values are
interpreted as coefficients of the periodic piecewise-linear (P1) hat basis,
which is interpolatory on this grid.  Time integrals are approximated with
trapezoidal weights.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Iterable, Iterator, Optional, Union

import numpy as np

__all__ = [
    "SpatialGrid",
    "TimeGrid",
    "SnapshotSet",
    "SnapshotFormatError",
    "make_uniform_time_grid",
    "save_snapshots",
    "load_snapshots",
    "save_decomposition",
    "load_decomposition",
    "load_field",
    "relative_l2_error",
    "export_heatmap",
]

PathLike = Union[str, Path]

SNAPSHOT_MAGIC = "# spod-v1"
DECOMP_MAGIC = "# spod-decomp-v1"

# 17 significant digits round-trip any IEEE double exactly.
_FMT = "%.17g"


class SnapshotFormatError(ValueError):
    """Raised when a file does not parse as ``spod-v1`` or ``spod-decomp-v1``;
    the message starts with the 1-based line number."""


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
        if other is self:
            return True
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


def _format_row(values: np.ndarray) -> str:
    return " ".join([_FMT] * values.size) % tuple(values.tolist())


def _write_lines(destination: Union[PathLike, IO[str]], lines: Iterable[str]) -> None:
    """Write ``lines``, each ended by a newline, to a stream, or to a path
    through a temporary file renamed over it, so that no reader ever sees a
    partly written file."""
    text = "\n".join(lines) + "\n"
    if hasattr(destination, "write"):
        destination.write(text)
        return
    path = Path(destination)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


class _LineReader:
    """The numbered lines of a ``spod-v1`` or ``spod-decomp-v1`` file.

    Used as a context manager: a ``ValueError`` raised inside the block
    becomes a ``SnapshotFormatError`` naming the 1-based line last read, and
    a block that completes must have left nothing but blank lines unread.
    A count of rows or values that the unread text cannot hold is rejected
    before anything is allocated for it.
    """

    def __init__(self, source: Union[PathLike, IO[str]]):
        # One read of the whole text, as _write_lines writes one: freeing a
        # large string raises glibc's dynamic mmap threshold.  With both
        # files streamed line by line it stayed at 128 KiB, and the crossing
        # benchmark's fit then ran 27% slower, page-faulting on its large
        # temporary arrays.
        if hasattr(source, "read"):
            text = source.read()
        else:
            text = Path(source).read_text(encoding="utf-8")
        self._lines = text.splitlines()
        self._chars = len(text)  # an upper bound on the characters not yet read
        self.lineno = 0

    def __enter__(self) -> "_LineReader":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            while (text := self._next()) is not None:
                if text.strip():
                    raise SnapshotFormatError(
                        f"line {self.lineno}: unexpected content after the data"
                    )
        elif issubclass(exc_type, ValueError):
            raise SnapshotFormatError(f"line {self.lineno}: {exc}") from exc

    def _next(self) -> Optional[str]:
        self.lineno += 1
        if self.lineno > len(self._lines):
            return None
        text = self._lines[self.lineno - 1]
        self._chars -= len(text) + 1
        return text

    def _hold(self, values: int, what: str) -> None:
        """Reject a count of values the unread text cannot hold, one
        character each at least, before anything is allocated for them."""
        if values > self._chars:
            raise ValueError(
                f"{what} need {values} values, but only {self._chars} characters follow"
            )

    def line(self, what: str) -> str:
        """The next line, stripped; ``what`` names it if the file ends first."""
        text = self._next()
        if text is None:
            raise ValueError(f"missing {what}")
        return text.strip()

    def magic(self, *magics: str) -> str:
        """The magic line, which must be one of ``magics``."""
        names = " or ".join(repr(m) for m in magics)
        text = self.line(f"{names} magic line")
        if text not in magics:
            raise ValueError(f"missing {names} magic line")
        return text

    def header(self, keys: tuple[str, ...], sep: str) -> tuple[dict, SpatialGrid, TimeGrid]:
        """A header line of ``key<sep>value`` fields with exactly ``keys``, in
        order, and the grids its ``nt``, ``nx``, ``length`` and ``tfinal`` give."""
        text = self.line("header line")
        tokens = text.replace(sep, " ").split()
        if tokens[0::2] != list(keys) or len(tokens) != 2 * len(keys):
            raise ValueError(f"malformed header {text!r}")
        f = dict(zip(tokens[0::2], tokens[1::2]))
        nt, nx = int(f["nt"]), int(f["nx"])
        # both formats hold at least nt + nx values after the header
        self._hold(nt + nx, "header counts")
        grid = SpatialGrid(nx, float(f["length"]))
        return f, grid, make_uniform_time_grid(nt - 1, float(f["tfinal"]))

    def value(self, key: str) -> str:
        """The value of the next line, which must read ``key=value``."""
        text = self.line(f"'{key}=' line")
        name, sep, value = text.partition("=")
        if not sep or name != key:
            raise ValueError(f"expected '{key}=', got {text[:40]!r}")
        return value

    def rows(self, count: int, width: int, what: str) -> np.ndarray:
        """The next ``count`` lines as a ``count x width`` array of finite numbers."""
        left = len(self._lines) - self.lineno
        if count > left:
            raise ValueError(f"expected {count} {what} rows, found {left}")
        self._hold(count * width, f"{count} x {width} {what} rows")
        out = np.empty((count, width))
        for k in range(count):
            out[k] = _numbers(self._next(), f"row {k}", width)
        return out


def _numbers(text: str, what: str, count: Optional[int] = None, kind=float) -> np.ndarray:
    """The finite numbers of ``text``; with ``count``, exactly that many."""
    parts = text.split()
    if count is not None and len(parts) != count:
        raise ValueError(f"{what} has {len(parts)} values, expected {count}")
    try:
        values = np.array([kind(p) for p in parts])
    except ValueError:
        raise ValueError(f"{what} has a non-numeric value") from None
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{what} has a non-finite value")
    return values


def save_snapshots(s: SnapshotSet, destination: Union[PathLike, IO[str]]) -> None:
    """Write a snapshot set in the ``spod-v1`` text format.

    The format only represents uniform time grids; saving a nonuniform grid
    raises ``ValueError``.  All values round-trip bit-identically.
    """
    times = s.tgrid.times
    dt = np.diff(times)
    if not np.allclose(dt, dt[0], rtol=1e-12, atol=0.0):
        raise ValueError("spod-v1 files only represent uniform time grids")
    header = "nt %d nx %d length %s tfinal %s" % (
        s.tgrid.m + 1, s.grid.n, _FMT % s.grid.length, _FMT % s.tgrid.tfinal
    )
    _write_lines(destination, [SNAPSHOT_MAGIC, header, *map(_format_row, s.values)])


def _read_snapshots(lines: _LineReader) -> SnapshotSet:
    _, grid, tgrid = lines.header(("nt", "nx", "length", "tfinal"), " ")
    values = lines.rows(tgrid.m + 1, grid.n, "data")
    return SnapshotSet(grid, tgrid, values)


def save_decomposition(d, destination: Union[PathLike, IO[str]]) -> None:
    """Write a ``cost_grad.Decomposition`` in the ``spod-decomp-v1`` text
    format; all values round-trip bit-identically."""

    def lines() -> Iterator[str]:
        yield DECOMP_MAGIC
        yield "nframes=%d nt=%d nx=%d length=%s tfinal=%s" % (
            len(d.frames), d.tgrid.m + 1, d.grid.n, _FMT % d.grid.length, _FMT % d.tgrid.tfinal
        )
        for f in d.frames:
            yield "[frame]"
            yield "path_kind=%s" % f.path.kind
            yield "path=" + _format_row(f.path.values)
            yield "modes=%d %d" % f.modes.shape
            yield from map(_format_row, f.modes)
            yield "coeffs=%d %d" % f.coeffs.shape
            yield from map(_format_row, f.coeffs)

    _write_lines(destination, lines())


def _read_decomposition(lines: _LineReader):
    from .cost_grad import Decomposition, Frame, PathRepr

    fields, grid, tgrid = lines.header(("nframes", "nt", "nx", "length", "tfinal"), "=")
    frames = []
    for _ in range(int(fields["nframes"])):
        if lines.line("'[frame]' line") != "[frame]":
            raise ValueError("expected '[frame]'")
        kind = lines.value("path_kind")
        path = PathRepr(kind, _numbers(lines.value("path"), "path"))
        r, n = _numbers(lines.value("modes"), "modes shape", 2, int)
        modes = lines.rows(r, n, "mode")
        nt, cr = _numbers(lines.value("coeffs"), "coeffs shape", 2, int)
        coeffs = lines.rows(nt, cr, "coefficient")
        frames.append(Frame(path, modes, coeffs))
    return Decomposition(tuple(frames), grid, tgrid)


_READERS = {SNAPSHOT_MAGIC: _read_snapshots, DECOMP_MAGIC: _read_decomposition}


def _load(source: Union[PathLike, IO[str]], *magics: str):
    with _LineReader(source) as lines:
        return _READERS[lines.magic(*magics)](lines)


def load_snapshots(source: Union[PathLike, IO[str]]) -> SnapshotSet:
    """Read a ``spod-v1`` snapshot file.

    Raises ``SnapshotFormatError`` naming the offending line on any
    malformed header, row/column count mismatch, non-finite value or
    content after the last row.
    """
    return _load(source, SNAPSHOT_MAGIC)


def load_decomposition(source: Union[PathLike, IO[str]]):
    """Read a ``spod-decomp-v1`` file as a ``cost_grad.Decomposition``; errors
    as for :func:`load_snapshots`."""
    return _load(source, DECOMP_MAGIC)


def load_field(source: Union[PathLike, IO[str]]) -> SnapshotSet:
    """The space-time field a file holds: the snapshots of a ``spod-v1`` file,
    or the reconstruction of a ``spod-decomp-v1`` one."""
    loaded = _load(source, SNAPSHOT_MAGIC, DECOMP_MAGIC)
    if isinstance(loaded, SnapshotSet):
        return loaded
    from .cost_grad import reconstruct

    return reconstruct(loaded)


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
    x = [_FMT % v for v in s.grid.nodes.tolist()]

    def lines() -> Iterator[str]:
        yield "t,x,value"
        for tk, row in zip(s.tgrid.times.tolist(), s.values.tolist()):
            tk = _FMT % tk
            for xl, v in zip(x, row):
                yield "%s,%s,%s" % (tk, xl, _FMT % v)

    _write_lines(destination, lines())
