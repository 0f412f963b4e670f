"""Independent checkers for the benchmark's outputs.

None of them repeats the computation it checks: the weighted POD is built
from the dense P1 mass matrix instead of its Fourier symbol, the train speed
comes from a cross-correlation of the raw snapshots, the readers parse the
documented text formats, and the gradient check compares the program's
gradient with central differences of its cost along a random direction.
"""

from __future__ import annotations

import math

import numpy as np


def dense_mass_sqrt(n: int, h: float) -> np.ndarray:
    """Symmetric square root of the periodic P1 mass matrix ``h/6 [1, 4, 1]``."""
    M = np.zeros((n, n))
    idx = np.arange(n)
    M[idx, idx] = 4.0 * h / 6.0
    M[idx, (idx + 1) % n] += h / 6.0
    M[idx, (idx - 1) % n] += h / 6.0
    lam, Q = np.linalg.eigh(M)
    return (Q * np.sqrt(lam)) @ Q.T


def trapezoid_weights(nt: int, tfinal: float) -> np.ndarray:
    dt = tfinal / (nt - 1)
    w = np.full(nt, dt)
    w[0] = w[-1] = 0.5 * dt
    return w


class DensePod:
    """Weighted POD of a snapshot matrix from the dense mass-matrix square root.

    ``B = W^1/2 Z M^1/2``; its singular values are the POD singular values and
    the rank-r reconstruction is ``Z M^1/2 V_r V_r^T M^-1/2``.
    """

    def __init__(self, values: np.ndarray, length: float, tfinal: float):
        nt, n = values.shape
        self.values = values
        self.h = length / n
        self.w = trapezoid_weights(nt, tfinal)
        R = dense_mass_sqrt(n, self.h)
        self.R = R
        B = np.sqrt(self.w)[:, None] * (values @ R)
        _, self.s, self.Vt = np.linalg.svd(B, full_matrices=False)

    def reconstruction(self, r: int) -> np.ndarray:
        V = self.Vt[:r].T
        proj = (self.values @ self.R) @ V
        return np.linalg.solve(self.R, (proj @ V.T).T).T

    def relative_error(self, r: int) -> float:
        return nodal_relative_error(self.values, self.reconstruction(r), self.w, self.h)


def nodal_relative_error(z: np.ndarray, zhat: np.ndarray, w: np.ndarray, h: float) -> float:
    """Space-time trapezoid L2 error of ``zhat`` relative to ``z`` (periodic nodes)."""
    num = h * float(w @ np.sum((z - zhat) ** 2, axis=1))
    den = h * float(w @ np.sum(z**2, axis=1))
    return math.sqrt(num / den)


def pattern_speed(values: np.ndarray, h: float, times: np.ndarray, t_start: float = 0.0) -> float:
    """Mean speed of the pattern over the steps that start at ``t_start`` or later.

    Each step's displacement is the peak lag of the circular cross-correlation
    of consecutive mean-free snapshots, refined below one cell by the parabola
    through the peak sample and its two neighbours.
    """
    a = values - values.mean(axis=1, keepdims=True)
    n = a.shape[1]
    spec = np.fft.rfft(a, axis=1)
    corr = np.fft.irfft(spec[1:] * np.conj(spec[:-1]), n=n, axis=1)
    k = np.argmax(corr, axis=1)
    rows = np.arange(corr.shape[0])
    c0 = corr[rows, (k - 1) % n]
    c1 = corr[rows, k]
    c2 = corr[rows, (k + 1) % n]
    sub = 0.5 * (c0 - c2) / (c0 - 2.0 * c1 + c2)
    lag = np.where(k > n // 2, k - n, k) + sub
    keep = times[:-1] >= t_start
    span = times[-1] - times[:-1][keep][0]
    return float(lag[keep].sum()) * h / span


def read_spod_v1(path) -> tuple[np.ndarray, float, float]:
    """Values, domain length and final time of a ``spod-v1`` file."""
    with open(path, encoding="utf-8") as fh:
        magic = fh.readline().strip()
        header = fh.readline().split()
        if magic != "# spod-v1" or header[0::2] != ["nt", "nx", "length", "tfinal"]:
            raise ValueError(f"{path}: not a spod-v1 file")
        values = np.loadtxt(fh, ndmin=2)
    if values.shape != (int(header[1]), int(header[3])):
        raise ValueError(f"{path}: data shape {values.shape} does not match its header")
    return values, float(header[5]), float(header[7])


def read_decomposition(path) -> dict:
    """Parse a ``spod-decomp-v1`` file into plain arrays.

    Returns ``{"nt", "nx", "length", "tfinal", "frames": [{"path_kind", "path",
    "modes", "coeffs"}, ...]}``.
    """
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if lines[0] != "# spod-decomp-v1":
        raise ValueError(f"{path}: not a spod-decomp-v1 file")
    head = dict(tok.split("=", 1) for tok in lines[1].split())
    out = {
        "nt": int(head["nt"]),
        "nx": int(head["nx"]),
        "length": float(head["length"]),
        "tfinal": float(head["tfinal"]),
        "frames": [],
    }
    i = 2
    for _ in range(int(head["nframes"])):
        if lines[i] != "[frame]":
            raise ValueError(f"{path}: line {i + 1}: expected [frame]")
        kind = lines[i + 1].split("=", 1)[1]
        path_vals = np.array(lines[i + 2].split("=", 1)[1].split(), dtype=float)
        r, n = map(int, lines[i + 3].split("=", 1)[1].split())
        modes = np.array([row.split() for row in lines[i + 4 : i + 4 + r]], dtype=float)
        i += 4 + r
        m, rc = map(int, lines[i].split("=", 1)[1].split())
        coeffs = np.array([row.split() for row in lines[i + 1 : i + 1 + m]], dtype=float)
        i += 1 + m
        if modes.shape != (r, n) or coeffs.shape != (m, rc):
            raise ValueError(f"{path}: frame block shapes disagree with their headers")
        out["frames"].append(
            {"path_kind": kind, "path": path_vals, "modes": modes, "coeffs": coeffs}
        )
    return out


def directional_gradient_check(z, d, rng, grad_fn=None):
    """Relative gap between ``grad . v`` and a central difference of the cost.

    The point is the decomposition ``d`` moved by 1e-3 times the scale of
    each block in a random direction, so the gradient is well away from zero
    even when ``d`` is a minimizer; ``v`` is a second random direction with the
    same block scaling, and the difference step is 1e-6.  ``grad_fn`` replaces
    ``spod.eval_cost_gradient`` (the tests pass a wrong one).  Returns
    ``(gap, analytic, finite_difference)``.
    """
    import spod

    grad_fn = grad_fn or spod.eval_cost_gradient
    step = 1e-6

    def draws():
        out = []
        for f in d.frames:
            blocks = (f.coeffs, f.path.values, f.modes)
            out.append(
                [rng.standard_normal(b.shape) * np.sqrt(np.mean(b**2)) for b in blocks]
            )
        return out

    def moved(base, direction, t):
        frames = []
        for f, (dc, dp, dm) in zip(base.frames, direction):
            frames.append(
                spod.Frame(
                    spod.PathRepr(f.path.kind, f.path.values + t * dp),
                    f.modes + t * dm,
                    f.coeffs + t * dc,
                )
            )
        return spod.Decomposition(tuple(frames), base.grid, base.tgrid)

    x = moved(d, draws(), 1e-3)
    v = draws()
    g = grad_fn(z, x)
    analytic = sum(
        float(np.sum(gc * dc) + np.sum(gp * dp) + np.sum(gm * dm))
        for gc, gp, gm, (dc, dp, dm) in zip(g.g_coeffs, g.g_paths, g.g_modes, v)
    )
    up, down = spod.eval_cost(z, moved(x, v, step)), spod.eval_cost(z, moved(x, v, -step))
    fd = (up - down) / (2.0 * step)
    return abs(analytic - fd) / abs(fd), analytic, fd

