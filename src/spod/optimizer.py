"""Quasi-Newton minimization of the decomposition cost.

Two drivers share one L-BFGS core:

* :func:`optimize_decomposition` minimizes the (optionally penalized) cost
  over any subset of {coefficients, paths, modes}.
* :func:`optimize_path_only` minimizes the same cost over the path alone,
  with the coefficients and modes at their best rank-``r`` values for each
  path (variable projection; Golub & Pereyra, SIAM J. Numer. Anal. 1973).
  For a fixed path the cost is a weighted POD problem: its minimum is the
  truncation of ``B = W^{1/2} Y M^{-1/2}``, the rows of ``Y`` being the data
  pulled back by the transposed shift Grams, ``y_k = F(p_k)^T z_k``, and
  ``M = F(0)`` the mass matrix.  Both operators are circulant, so ``B`` is
  built from the data's spectra (taken once per fit) and the Fourier symbols
  of the ``F(p_k)^T`` (Davis, Circulant Matrices, 1979); the full fit stays
  on the band route, whose value is summed exactly.  The leading singular
  triplets come from a block subspace iteration, started from evenly spaced
  rows of ``B`` at the first evaluation and warm-started from the previous
  evaluation's right singular vectors at every later one; it falls back to
  the full SVD only when the block has not settled.  By the envelope theorem
  the partial path gradient of the cost at the inner minimizer is the
  gradient of the reduced objective.

An objective maps a point to ``(f, g, D)`` in one call: the value, the
gradient and a positive diagonal ``D`` of the Hessian there, or ``None``
(the usual L-BFGS interface; Nocedal & Wright, Numerical Optimization,
section 7.2).  The Armijo line search decides on values, and reads one
gradient besides: at a unit step that passes Armijo it checks the weak Wolfe
curvature condition (section 3.1), and doubles the step only when that says
it is too short.  Every trial, backtracked or doubled, costs one evaluation.
The two-loop recursion starts from
``H_0 = gamma D^{-1}`` with ``gamma = s^T y / y^T D^{-1} y`` (Liu & Nocedal,
Math. Prog. 1989; Nocedal & Wright, section 7.2), or from the scalar
``(s^T y / y^T y) I`` without a diagonal.  The full fit supplies the
Gauss-Newton diagonal of the cost, closed form and blind to the penalty
(:func:`_gauss_newton_diagonal`); the path-only fit supplies none.

A fit ends ``converged`` once the gradient infinity norm reaches
``grad_tol``; ``stalled`` once the last ``STALL_WINDOW = 50`` iterations
lowered the cost by at most ``STALL_RTOL = 1e-6`` relative,
``f[k-50] - f[k] <= 1e-6 |f[k]|`` (a relative test, so it scales with the
cost where ``grad_tol`` does not); ``max-iters`` after ``max_iters``
accepted steps; and ``line-search-failure`` when no step lowers the cost.
The first three are tested in that order before each step.

Everything is deterministic: no randomized initialization anywhere.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .baseline_pod import _inner_solve, _pullback_spectra
from .core import SnapshotSet
from .cost_grad import (
    CostGradient,
    Decomposition,
    Frame,
    PathRepr,
    _data_energy,
    _Workspace,
    eval_cost,
    eval_cost_gradient,
    path_gradient_nodal,
    path_pullback,
    path_values,
    penalty_gradient,
)
from .shift_fem import BAND_OFFSETS, periodic_windows

__all__ = [
    "VARIABLE_GROUPS",
    "OptimizerConfig",
    "OptimizerResult",
    "pack",
    "unpack",
    "pack_gradient",
    "lbfgs_minimize",
    "optimize_decomposition",
    "optimize_path_only",
]

VARIABLE_GROUPS = ("coeffs", "paths", "modes")

# a line search starts from the unit step and multiplies it by BACKTRACK_FACTOR
# until the Armijo rule with ARMIJO_C holds, giving up after MAX_BACKTRACKS
# steps; it doubles an immediately accepted step that fails the curvature
# condition with CURVATURE_C (the quasi-Newton value of Nocedal & Wright,
# section 3.1) at most MAX_EXPANSIONS times
ARMIJO_C = 1e-4
CURVATURE_C = 0.9
BACKTRACK_FACTOR = 0.5
MAX_BACKTRACKS = 60
MAX_EXPANSIONS = 30
# a fit has stalled once its last STALL_WINDOW iterations lowered the cost by
# at most STALL_RTOL of it (a windowed form of the relative-decrease test of
# Gill, Murray & Wright, Practical Optimization, section 8.2.3)
STALL_WINDOW = 50
STALL_RTOL = 1e-6

ProgressCallback = Callable[[int, float, float], None]
# a point -> its value, gradient and Hessian diagonal or None there (see the
# module docstring)
Objective = Callable[[np.ndarray], tuple[float, np.ndarray, Optional[np.ndarray]]]


@dataclass(frozen=True)
class OptimizerConfig:
    """Settings for the quasi-Newton drivers.

    ``variables`` selects which blocks are optimized; ``C`` and ``lam`` steer
    the admissible-set penalty (``lam = 0`` disables it, the default).  Its
    subgradient is closed form, at the cost of one penalty evaluation.
    """

    max_iters: int = 500
    grad_tol: float = 1e-8
    lbfgs_memory: int = 10
    variables: tuple[str, ...] = VARIABLE_GROUPS
    C: float = 1.0
    lam: float = 0.0

    def __post_init__(self) -> None:
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if self.lbfgs_memory < 1:
            raise ValueError("lbfgs_memory must be at least 1")
        variables = tuple(self.variables)
        if not variables or any(v not in VARIABLE_GROUPS for v in variables):
            raise ValueError(f"variables must be a nonempty subset of {VARIABLE_GROUPS}")
        if not (math.isfinite(self.C) and self.C > 0):
            raise ValueError(f"C must be finite and positive, got {self.C}")
        if not (math.isfinite(self.grad_tol) and self.grad_tol >= 0):
            raise ValueError(f"grad_tol must be finite and nonnegative, got {self.grad_tol}")
        if not (math.isfinite(self.lam) and self.lam >= 0):
            raise ValueError(f"lam must be finite and nonnegative, got {self.lam}")
        object.__setattr__(self, "variables", variables)


@dataclass(frozen=True, eq=False)
class OptimizerResult:
    """Best-found decomposition with the monotone cost trace.

    :func:`lbfgs_minimize` leaves ``decomposition`` as ``None``; the drivers
    fill it in from the final point.  ``termination`` is ``converged``,
    ``stalled``, ``max-iters`` or ``line-search-failure`` (see
    :func:`lbfgs_minimize`).  ``n_evals`` counts objective evaluations.
    """

    decomposition: Optional[Decomposition]
    cost_history: np.ndarray
    grad_norm_history: np.ndarray
    iterations: int
    termination: str
    n_evals: int
    isometry_defect: Optional[float] = None


# storage order of each block in the packed vector
_ORDER = {"coeffs": "F", "paths": "C", "modes": "C"}


def _flatten(blocks, variables: Sequence[str]) -> np.ndarray:
    """Concatenate the selected blocks of per-frame ``(coeffs, path, modes)``
    triples: frames in sequence, blocks in :data:`VARIABLE_GROUPS` order."""
    parts = [
        block.ravel(order=_ORDER[name])
        for frame in blocks
        for name, block in zip(VARIABLE_GROUPS, frame)
        if name in variables
    ]
    if not parts:
        raise ValueError("no variables selected")
    return np.concatenate(parts)


def pack(d: Decomposition, variables: Sequence[str] = VARIABLE_GROUPS) -> np.ndarray:
    """Flatten the selected variable blocks.

    Order: frames in sequence; per frame coefficients column-major, then the
    path, then modes row-major.
    """
    return _flatten(((f.coeffs, f.path.values, f.modes) for f in d.frames), variables)


def unpack(
    x: np.ndarray, template: Decomposition, variables: Sequence[str] = VARIABLE_GROUPS
) -> Decomposition:
    """Rebuild a decomposition from a flat vector; unselected blocks are
    taken from the template.  Inverse of :func:`pack`."""
    x = np.asarray(x, dtype=float)
    frames = []
    pos = 0
    for f in template.frames:
        blocks = [f.coeffs, f.path.values, f.modes]
        for i, name in enumerate(VARIABLE_GROUPS):
            if name in variables:
                size = blocks[i].size
                block = x[pos : pos + size]
                if block.size != size:
                    raise ValueError("packed vector too short for the template")
                blocks[i] = block.reshape(blocks[i].shape, order=_ORDER[name])
                pos += size
        coeffs, values, modes = blocks
        frames.append(Frame(PathRepr(f.path.kind, values), modes, coeffs))
    if pos != x.size:
        raise ValueError(f"packed vector has {x.size} entries, expected {pos}")
    return Decomposition(tuple(frames), template.grid, template.tgrid)


def pack_gradient(
    g: CostGradient, d: Decomposition, variables: Sequence[str] = VARIABLE_GROUPS
) -> np.ndarray:
    """Flatten the gradient of ``d``'s cost in the same order as :func:`pack`."""
    if len(g.g_coeffs) != len(d.frames):
        raise ValueError(f"gradient has {len(g.g_coeffs)} frames, expected {len(d.frames)}")
    return _flatten(zip(g.g_coeffs, g.g_paths, g.g_modes), variables)


def _two_loop(g: np.ndarray, memory: deque, diagonal: Optional[np.ndarray]) -> np.ndarray:
    """The L-BFGS direction ``-H g`` from the ``(s, y, 1/s.y)`` memory.

    ``H_0`` is ``gamma D^{-1}`` with ``gamma = s.y / y.D^{-1}y`` for the
    newest pair and the positive ``diagonal`` ``D``, or ``(s.y / y.y) I``
    when ``diagonal`` is ``None``; with an empty memory it is the identity.
    """
    q = g.copy()
    alphas = []
    for s, y, rho in reversed(memory):
        a = rho * np.dot(s, q)
        alphas.append(a)
        q -= a * y
    if memory:
        s, y, _ = memory[-1]
        inverse = 1.0 if diagonal is None else 1.0 / diagonal
        q *= (np.dot(s, y) / np.dot(y, inverse * y)) * inverse
    for (s, y, rho), a in zip(memory, reversed(alphas)):
        q += (a - rho * np.dot(y, q)) * s
    return -q


def _line_search(objective: Objective, x: np.ndarray, f: float, direction: np.ndarray, gd: float):
    """Armijo backtracking from the unit step along ``direction`` (with
    ``gd`` the directional derivative): the accepted ``(x, f, g, D)``, or
    ``None`` once ``MAX_BACKTRACKS`` steps failed or a step no longer moves
    ``x``.  A step is accepted only if it also lowers the cost.

    A unit step that passes Armijo is accepted if its gradient meets the
    weak Wolfe curvature condition ``g_n.d >= CURVATURE_C gd``: the step is
    not too short.  Otherwise it is doubled while the decrease rule holds
    and the value keeps falling, and the last step accepted is returned."""

    def accepts(step, fn):
        return np.isfinite(fn) and fn < f and fn <= f + ARMIJO_C * step * gd

    step = 1.0
    for bt in range(MAX_BACKTRACKS):
        xn = x + step * direction
        if np.array_equal(xn, x):
            # step underflowed against x: no progress possible
            return None
        fn, gn, dn = objective(xn)
        if accepts(step, fn):
            if bt > 0 or np.dot(gn, direction) >= CURVATURE_C * gd:
                return xn, fn, gn, dn
            # the unit step is too short: grow it while the decrease rule
            # holds, to escape stagnation on over-short quasi-Newton directions
            while step <= 2.0**MAX_EXPANSIONS:
                xe = x + 2.0 * step * direction
                fe, ge, de = objective(xe)
                if not (accepts(2.0 * step, fe) and fe < fn):
                    break
                step *= 2.0
                xn, fn, gn, dn = xe, fe, ge, de
            return xn, fn, gn, dn
        step *= BACKTRACK_FACTOR
    return None


def _keep_freed_memory() -> None:
    """Keep the arrays freed by one objective evaluation for the next (glibc).

    By default glibc serves arrays above a threshold that moves with earlier
    frees from fresh mmaps, and returns the top of the heap to the system
    whenever a few hundred KiB there are free, so every evaluation's
    temporaries page-fault in again.  How often depends on where unrelated
    long-lived objects happen to sit in the heap, so on the code layout
    alone.  The workspace's rotated rows are still above the default
    threshold: one 300-iteration ``crossing`` fit of ``benchmarks/`` made
    ~76 thousand minor faults and 0.07-0.12 s of system time by default
    (0.53 s in all), and under a thousand faults with these settings (0.42 s;
    2 cores).  Elsewhere a no-op.
    """
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD: arrays up to 32 MiB from the heap
    mallopt(-1, 128 << 20)  # M_TRIM_THRESHOLD


def lbfgs_minimize(
    objective: Objective,
    x0: np.ndarray,
    cfg: OptimizerConfig,
    callback: Optional[ProgressCallback] = None,
) -> tuple[np.ndarray, OptimizerResult]:
    """Two-loop-recursion L-BFGS with an Armijo line search that doubles
    a unit step only when the curvature condition says it is too short.

    ``objective(x)`` returns ``(f, g, D)``: the value, the gradient and a
    positive diagonal of the Hessian there, or ``None`` for no diagonal.
    Each quasi-Newton direction starts from ``H_0 = gamma D^{-1}``, ``D``
    the diagonal at the current point and ``gamma = s^T y / y^T D^{-1} y``
    for the newest pair (Liu & Nocedal, Math. Prog. 1989), or from the
    scalar ``(s^T y / y^T y) I`` where ``D`` is ``None``; a step from an
    empty memory (the first, and the steepest-descent restart) is the
    unscaled ``-g`` either way.  :func:`optimize_decomposition` supplies
    the Gauss-Newton diagonal of the cost, which ignores the penalty;
    :func:`optimize_path_only` supplies none.  ``n_evals`` counts the
    calls of ``objective``, one per line-search trial and one at ``x0``.

    Returns the final point and its trace, an :class:`OptimizerResult` with
    no decomposition.  Before each step it tests, in this order: the
    gradient infinity norm has dropped to ``grad_tol`` (``converged``); at
    an iteration ``k >= STALL_WINDOW`` the last ``STALL_WINDOW`` iterations
    lowered the cost by at most ``STALL_RTOL`` of it,
    ``f[k - STALL_WINDOW] - f[k] <= STALL_RTOL |f[k]|`` (``stalled``, so a
    fit of fewer than ``STALL_WINDOW`` iterations never stalls);
    ``max_iters`` accepted steps were taken (``max-iters``).  It also ends
    when a line search fails (``line-search-failure``): 60 backtracks in a
    row, or a step that no longer moves ``x`` (retried once from a cleared
    memory before giving up).  A step is accepted only if it lowers the cost
    as well as meeting the Armijo rule, so the cost trace is strictly
    decreasing, and once the Armijo decrease rounds away against the cost
    the search ends instead of taking steps that leave the cost unchanged.
    It first sets the allocator to keep freed memory
    (:func:`_keep_freed_memory`).
    """
    _keep_freed_memory()
    n_evals = 0

    def evaluate(x: np.ndarray):
        nonlocal n_evals
        n_evals += 1
        return objective(x)

    x = np.array(x0, dtype=float)
    f, g, diagonal = evaluate(x)
    if not (np.isfinite(f) and np.all(np.isfinite(g))):
        raise ValueError("objective is not finite at the initial point")
    costs = [float(f)]
    gnorms = [float(np.max(np.abs(g)))]
    memory: deque = deque(maxlen=cfg.lbfgs_memory)
    iterations = 0
    if callback is not None:
        callback(0, costs[0], gnorms[0])
    while True:
        if gnorms[-1] <= cfg.grad_tol:
            termination = "converged"
            break
        if (
            iterations >= STALL_WINDOW
            and costs[-1 - STALL_WINDOW] - costs[-1] <= STALL_RTOL * abs(costs[-1])
        ):
            termination = "stalled"
            break
        if iterations == cfg.max_iters:
            termination = "max-iters"
            break
        direction = _two_loop(g, memory, diagonal)
        gd = float(np.dot(g, direction))
        if gd >= 0.0:
            # not a descent direction: fall back to steepest descent
            memory.clear()
            direction = -g
            gd = -float(np.dot(g, g))
        hit = _line_search(evaluate, x, f, direction, gd)
        if hit is None and memory:
            # quasi-Newton direction failed: restart from steepest descent
            memory.clear()
            hit = _line_search(evaluate, x, f, -g, -float(np.dot(g, g)))
        if hit is None:
            termination = "line-search-failure"
            break
        xn, fn, gn, diagonal = hit
        s = xn - x
        y = gn - g
        sy = float(np.dot(s, y))
        if sy > 1e-10 * float(np.linalg.norm(s) * np.linalg.norm(y)):
            memory.append((s, y, 1.0 / sy))
        x, f, g = xn, fn, gn
        iterations += 1
        costs.append(float(f))
        gnorms.append(float(np.max(np.abs(g))))
        if callback is not None:
            callback(iterations, costs[-1], gnorms[-1])
    result = OptimizerResult(
        None, np.array(costs), np.array(gnorms), iterations, termination, n_evals
    )
    return x, result


def optimize_decomposition(
    z: SnapshotSet,
    d0: Decomposition,
    cfg: OptimizerConfig = OptimizerConfig(),
    callback: Optional[ProgressCallback] = None,
) -> OptimizerResult:
    """Minimize the (penalized) cost over the selected variable blocks,
    starting from the supplied decomposition.

    Each objective evaluation builds one workspace for its point and makes
    one :func:`~spod.cost_grad.eval_cost_gradient` call on it, plus, with
    ``cfg.lam > 0``, one :func:`~spod.cost_grad.penalty_gradient` call (the
    closed-form subgradient).  Their values are bitwise those of
    :func:`~spod.cost_grad.eval_penalized_cost`.  The Gauss-Newton diagonal
    of the cost (:func:`_gauss_newton_diagonal`, from the same workspace)
    scales the L-BFGS initial inverse Hessian.
    """
    variables = cfg.variables
    x0 = pack(d0, variables)

    def objective(x: np.ndarray):
        d = unpack(x, d0, variables)
        ws = _Workspace(z, d)
        cost = eval_cost_gradient(z, d, workspace=ws)
        value, gx = cost.value, pack_gradient(cost, d, variables)
        if cfg.lam > 0.0:
            penalty = penalty_gradient(d, cfg.C)
            value += cfg.lam * penalty.value
            gx = gx + cfg.lam * pack_gradient(penalty, d, variables)
        return value, gx, _gauss_newton_diagonal(ws, variables)

    xs, result = lbfgs_minimize(objective, x0, cfg, callback)
    return replace(result, decomposition=unpack(xs, d0, variables))


def _gauss_newton_diagonal(ws: _Workspace, variables: Sequence[str]) -> np.ndarray:
    """The diagonal of the cost's Gauss-Newton Hessian at ``ws``'s point,
    packed like :func:`pack` and floored at 1e-12 of its largest entry.

    Per frame, with ``w`` the time weights, ``a`` the coefficients, ``M =
    F(0)``, ``K`` the stiffness Gram and ``u_k = (a Phi)_k`` the frame's
    rows, all from ``r x r`` Grams of the modes:

    * coefficient ``(k, i)``: ``w_k phi_i^T M phi_i``, from ``ws.mass_grams``;
    * path node ``k``: ``w_k a_k^T (Phi K Phi^T) a_k = w_k ||d/dp T(p) u_k||^2``
      since the shift is exact in L2; a polynomial path takes ``(V^2)^T`` of
      it, ``V`` the monomial Vandermonde;
    * mode entry ``(i, l)``: ``M_ll sum_k w_k a_ki^2``.

    The admissible-set penalty is ignored; the floor also lifts path entries
    that round below zero (constant modes).  A point where every entry is
    zero gets the all-ones diagonal, which is the scalar scaling.
    """
    d = ws.d
    mass = np.full(d.grid.n, ws.F0.band[BAND_OFFSETS.index(0)])
    blocks = []
    for f, gram in zip(d.frames, ws.mass_grams):
        # Phi K Phi^T from the periodic node differences of the modes
        W = periodic_windows(f.modes, 0, 1)
        dphi = W[:, 1] - W[:, 0]
        nodal = ws.w * np.einsum("ki,ki->k", f.coeffs @ (dphi @ dphi.T / d.grid.h), f.coeffs)
        if f.path.kind == "polynomial":
            nodal = (np.vander(ws.times, f.path.values.size, increasing=True) ** 2).T @ nodal
        amplitude = ws.w @ f.coeffs**2
        blocks.append((np.outer(ws.w, np.diagonal(gram)), nodal, np.outer(amplitude, mass)))
    D = _flatten(blocks, variables)
    top = D.max()
    return np.maximum(D, 1e-12 * top) if top > 0.0 else np.ones_like(D)


def optimize_path_only(
    z: SnapshotSet,
    path0: PathRepr,
    r: int,
    cfg: OptimizerConfig = OptimizerConfig(),
    callback: Optional[ProgressCallback] = None,
) -> OptimizerResult:
    """Single-frame reduced optimization over the path alone.

    At each path the best rank-``r`` coefficients and modes follow from the
    leading ``r`` singular triplets of ``B = W^{1/2} Y M^{-1/2}`` (see the
    module docstring), and the reduced objective is the cost there,

        J*(p) = 1/2 (sum_k w_k z_k^T M z_k - ||B||_F^2) + 1/2 sum_{i>r} s_i(B)^2.

    Every evaluation is the inner solve at its path
    (:func:`spod.baseline_pod._inner_solve`, which the POD runs at the zero
    path): it builds ``B`` from the data's spectra, taken once per fit, and
    runs a block subspace iteration on ``min(3 r, nt, n)`` columns: the first
    starts from evenly spaced rows of ``B``, later ones from the previous
    evaluation's right singular vectors, and it falls back to the full SVD
    only when it has not settled (see
    :func:`spod.baseline_pod._leading_svd`).  The gradient is
    :func:`~spod.cost_grad.path_gradient_nodal` at the inner solution.  The
    returned decomposition is rebuilt at the final path, warm-started like
    any other evaluation; ``isometry_defect`` is the gap between the last
    reduced value and :func:`~spod.cost_grad.eval_cost` of that
    decomposition, a rounding-level consistency check.  The admissible-set
    penalty is not supported: ``cfg.lam`` must be 0.  The fit always solves
    for the path with the coefficients and modes at their inner optimum, so
    ``cfg.variables`` must name all of :data:`VARIABLE_GROUPS`.
    """
    nt, n = z.values.shape
    if not 1 <= r <= min(nt, n):
        raise ValueError(f"rank {r} out of range for {nt} x {n} data")
    if cfg.lam > 0.0:
        raise ValueError("the path-only fit takes no admissible-set penalty (lam must be 0)")
    if set(cfg.variables) != set(VARIABLE_GROUPS):
        raise ValueError(f"the path-only fit takes no variable subset, got {cfg.variables=}")
    times = z.tgrid.times
    if path0.kind == "nodal" and path0.values.size != nt:
        raise ValueError(f"nodal path has {path0.values.size} samples, expected {nt}")
    # the weighted data energy w_k z_k^T M z_k and the data's spectra, per fit
    energy = z.tgrid.weights * _data_energy(z)
    spectra = _pullback_spectra(z)

    # right singular vectors of the previous evaluation: the warm start
    warm = None

    def inner(x: np.ndarray) -> tuple[float, Decomposition]:
        nonlocal warm
        path = PathRepr(path0.kind, x)
        sol = _inner_solve(z, spectra, path_values(path, times), r, warm)
        warm = sol.warm
        # w_k (z_k^T M z_k - y_k^T M^{-1} y_k) >= 0 per row, summed exactly
        projected = math.fsum(np.concatenate([energy, -sol.row_energy]).tolist())
        frame = Frame(path, sol.modes, sol.coeffs)
        return 0.5 * projected + sol.discarded, Decomposition((frame,), z.grid, z.tgrid)

    def objective(x: np.ndarray):
        cost, d = inner(x)
        return cost, path_pullback(d.frames[0].path, times, path_gradient_nodal(z, d)[0]), None

    xs, result = lbfgs_minimize(objective, np.array(path0.values, dtype=float), cfg, callback)
    final_cost, d_final = inner(xs)
    defect = abs(final_cost - eval_cost(z, d_final))
    return replace(result, decomposition=d_final, isometry_defect=defect)
