import weakref

import numpy as np
import pytest

from spod.baseline_pod import _mass_symbol
from spod.core import SnapshotSet, SpatialGrid, make_uniform_time_grid
from spod.cost_grad import (
    Decomposition,
    Frame,
    PathRepr,
    _Workspace,
    data_norm_sq,
    eval_cost,
    eval_cost_gradient,
    path_gradient_nodal,
    reconstruct,
)
from spod.generators import TravelingProfile, synthetic_traveling
from spod.optimizer import (
    ARMIJO_C,
    MAX_BACKTRACKS,
    VARIABLE_GROUPS,
    OptimizerConfig,
    _gauss_newton_diagonal,
    _pullback_rows,
    lbfgs_minimize,
    optimize_decomposition,
    optimize_path_only,
    pack,
    pack_gradient,
    unpack,
)
from spod.shift_fem import (
    _SNAP_REL,
    _band_F,
    apply_gram,
    decompose_shift,
    gram_F,
    stiffness_gram,
)

from oracles import gram_to_dense


def spike_fixture(n=32, m=16):
    grid = SpatialGrid(n, 1.0)
    tg = make_uniform_time_grid(m, 1.0)
    s1 = np.zeros(n)
    s1[3] = 1.0
    s2 = np.zeros(n)
    s2[(5 * n) // 8] = 1.0
    profiles = [
        TravelingProfile(s1, speed=1.0),
        TravelingProfile(s2, speed=-0.5, amplitude=0.5),
    ]
    return synthetic_traveling(profiles, grid, tg)


def pulse_and_wave(n=24, m=12, speed=0.37):
    """A Gaussian pulse moving at ``speed`` over a standing-phase sine wave."""
    grid = SpatialGrid(n, 1.0)
    tg = make_uniform_time_grid(m, 1.0)
    x = grid.nodes
    profile = np.exp(-0.5 * ((x - 0.5) / 0.1) ** 2)
    values = np.stack(
        [
            np.interp((x - speed * t) % 1.0, x, profile, period=1.0)
            + 0.1 * np.sin(2 * np.pi * (x + t))
            for t in tg.times
        ]
    )
    return SnapshotSet(grid, tg, values)


class TestPacking:
    def test_round_trip(self, rng):
        grid = SpatialGrid(12, 1.0)
        tg = make_uniform_time_grid(5, 1.0)
        frames = (
            Frame(
                PathRepr.nodal(rng.standard_normal(6)),
                rng.standard_normal((2, 12)),
                rng.standard_normal((6, 2)),
            ),
            Frame(
                PathRepr.polynomial(rng.standard_normal(3)),
                rng.standard_normal((1, 12)),
                rng.standard_normal((6, 1)),
            ),
        )
        d = Decomposition(frames, grid, tg)
        for variables in (("coeffs",), ("paths",), ("modes",), ("coeffs", "paths", "modes")):
            x = pack(d, variables)
            back = unpack(x, d, variables)
            for fa, fb in zip(d.frames, back.frames):
                assert np.array_equal(fa.coeffs, fb.coeffs)
                assert np.array_equal(fa.path.values, fb.path.values)
                assert np.array_equal(fa.modes, fb.modes)

    def test_polynomial_path_length(self):
        grid = SpatialGrid(8, 1.0)
        tg = make_uniform_time_grid(4, 1.0)
        d = Decomposition(
            (Frame(PathRepr.polynomial([0.0, 1.0, 2.0]), np.ones((1, 8)), np.ones((5, 1))),),
            grid,
            tg,
        )
        assert pack(d, ("paths",)).size == 3

    def test_full_vector_length(self):
        grid = SpatialGrid(32, 1.0)
        tg = make_uniform_time_grid(20, 1.0)
        d = Decomposition(
            (Frame(PathRepr.nodal(np.zeros(21)), np.zeros((2, 32)), np.zeros((21, 2))),),
            grid,
            tg,
        )
        assert pack(d).size == 2 * 21 + 21 + 2 * 32 == 127

    def test_mismatched_vector(self):
        grid = SpatialGrid(8, 1.0)
        tg = make_uniform_time_grid(4, 1.0)
        d = Decomposition(
            (Frame(PathRepr.nodal(np.zeros(5)), np.zeros((1, 8)), np.zeros((5, 1))),),
            grid,
            tg,
        )
        with pytest.raises(ValueError):
            unpack(np.zeros(pack(d).size + 1), d)


def quadratic(A, b):
    """The objective ``x^T A x / 2 - b^T x`` with its deferred gradient and
    no diagonal.

    The value is taken in the centred form ``(x - x*)^T A (x - x*) / 2``,
    which differs by a constant: near the optimum the plain form reads
    rounding noise of a few ulps of its optimal value, so a search whose
    gradient is still above a tight tolerance can see a better step read
    higher and end there."""
    xstar = np.linalg.solve(A, b)

    def objective(x):
        e = x - xstar
        return 0.5 * float(e @ A @ e), lambda: (A @ x - b, None)

    return objective


def rosenbrock(x):
    a, b = x
    f = (1 - a) ** 2 + 100 * (b - a * a) ** 2
    return f, lambda: (np.array([-2 * (1 - a) - 400 * a * (b - a * a), 200 * (b - a * a)]), None)


def recording(objective):
    """``objective`` wrapped to append ``(x, f)`` of every evaluation to
    ``trials`` and the index of the trial of every gradient call to
    ``taken``; returns ``(wrapped, trials, taken)``."""
    trials, taken = [], []

    def wrapped(x):
        trial = len(trials)
        f, gradient = objective(x)
        trials.append((x.copy(), f))

        def recorded_gradient():
            taken.append(trial)
            return gradient()

        return f, recorded_gradient

    return wrapped, trials, taken


def well_conditioned_quadratic(rng):
    A = rng.standard_normal((10, 10))
    A = A @ A.T + 10 * np.eye(10)
    b = 1e-2 * rng.standard_normal(10)
    return A, b


class TestLbfgs:
    @pytest.mark.parametrize("seed", [None, *range(8)])
    def test_quadratic_matches_direct_solve(self, rng, seed):
        # seed None is the fixture's generator
        A, b = well_conditioned_quadratic(rng if seed is None else np.random.default_rng(seed))
        cfg = OptimizerConfig(max_iters=50, grad_tol=1e-10)
        x, hist = lbfgs_minimize(quadratic(A, b), np.zeros(10), cfg)
        assert hist.termination == "converged"
        assert hist.iterations <= 50
        assert np.max(np.abs(x - np.linalg.solve(A, b))) < 1e-9

    def test_rosenbrock(self):
        cfg = OptimizerConfig(max_iters=500, grad_tol=1e-10)
        x, hist = lbfgs_minimize(rosenbrock, np.array([-1.2, 1.0]), cfg)
        f, _ = rosenbrock(x)
        assert f < 1e-8

    @pytest.mark.parametrize("case", ["quadratic", "rosenbrock"])
    def test_gradient_protocol(self, monkeypatch, rng, case):
        # a gradient is taken at x0, at a unit step that passed Armijo (the
        # curvature probe) and at each accepted point, and at most once per
        # trial; a probe that a doubled step supersedes is counted too
        import spod.optimizer

        if case == "quadratic":
            objective, x0 = quadratic(*well_conditioned_quadratic(rng)), np.zeros(10)
        else:
            objective, x0 = rosenbrock, np.array([-1.2, 1.0])
        recorded, trials, taken = recording(objective)
        probes, accepted = set(), set()
        line_search = spod.optimizer._line_search

        def spy(evaluate, x, f, direction, gd):
            first = len(trials)
            hit = line_search(evaluate, x, f, direction, gd)
            if first < len(trials):
                fu = trials[first][1]
                if fu < f and fu <= f + ARMIJO_C * gd:
                    probes.add(first)
            if hit is not None:
                accepted.update(
                    i for i in range(first, len(trials)) if np.array_equal(trials[i][0], hit[0])
                )
            return hit

        monkeypatch.setattr(spod.optimizer, "_line_search", spy)
        _, hist = lbfgs_minimize(recorded, x0, OptimizerConfig(max_iters=500, grad_tol=1e-10))
        assert hist.termination == "converged"
        assert len(accepted) == hist.iterations
        assert sorted(taken) == sorted({0} | probes | accepted)
        assert hist.n_gradients == len(taken) == hist.iterations + 1 + len(probes - accepted)
        assert hist.n_evals == len(trials)

    @pytest.mark.parametrize("case", ["quadratic", "rosenbrock"])
    def test_spent_trials_are_freed(self, rng, case):
        # each trial's gradient closure holds a token; a rejected trial, and
        # an accepted one once its gradient is taken, must be dropped, so at
        # most the trial an expanding line search holds is alive at a call
        if case == "quadratic":
            objective, x0 = quadratic(*well_conditioned_quadratic(rng)), np.zeros(10)
        else:
            objective, x0 = rosenbrock, np.array([-1.2, 1.0])

        class Token:
            pass

        live = weakref.WeakSet()
        alive_at_call = []

        def tokened(x):
            alive_at_call.append(len(live))
            token = Token()
            live.add(token)
            f, gradient = objective(x)
            return f, lambda: (token, gradient())[1]

        _, hist = lbfgs_minimize(tokened, x0, OptimizerConfig(max_iters=500, grad_tol=1e-10))
        assert hist.n_evals > hist.n_gradients
        assert max(alive_at_call) <= 1

    def test_stationary_start_returns_immediately(self):
        def objective(x):
            return float(x @ x), lambda: (2 * x, None)

        x, hist = lbfgs_minimize(objective, np.zeros(4), OptimizerConfig(grad_tol=1e-12))
        assert hist.iterations == 0
        assert hist.termination == "converged"

    def test_nonfinite_start_rejected(self):
        def objective(x):
            return np.inf, lambda: (x, None)

        with pytest.raises(ValueError):
            lbfgs_minimize(objective, np.zeros(2), OptimizerConfig())

    def test_history_nonincreasing(self, rng):
        A = rng.standard_normal((8, 8))
        A = A @ A.T + np.eye(8)
        b = rng.standard_normal(8)

        _, hist = lbfgs_minimize(
            quadratic(A, b), rng.standard_normal(8), OptimizerConfig(max_iters=40)
        )
        assert np.all(np.diff(hist.cost_history) <= 0)

    def test_rounded_away_decrease_ends_the_search(self):
        # near 1e20 a unit decrease rounds away: no step can lower the cost,
        # and the Armijo test alone would accept every one of them
        evals = 0

        def objective(x):
            nonlocal evals
            evals += 1
            return 1e20 + float(np.sum(x)), lambda: (np.ones_like(x), None)

        _, hist = lbfgs_minimize(objective, np.ones(3), OptimizerConfig(max_iters=1000))
        assert hist.termination == "line-search-failure"
        assert hist.iterations == 0
        assert evals < 2 * MAX_BACKTRACKS + 2

    def test_allocator_is_set_before_the_first_evaluation(self, monkeypatch, rng):
        # library fits, not only the CLI, keep freed memory (glibc mallopt)
        import spod.optimizer

        calls = []
        keep = spod.optimizer._keep_freed_memory
        monkeypatch.setattr(
            spod.optimizer, "_keep_freed_memory", lambda: (calls.append("allocator"), keep())
        )
        A, b = well_conditioned_quadratic(rng)
        quad = quadratic(A, b)

        def objective(x):
            calls.append("evaluation")
            return quad(x)

        lbfgs_minimize(objective, np.zeros(10), OptimizerConfig(max_iters=5))
        assert calls[:2] == ["allocator", "evaluation"]
        assert calls.count("allocator") == 1


def separable_quadratic(with_diagonal):
    """``sum_i h_i x_i^2 / 2 - b^T x`` with curvatures ``h`` from 1 to 1e6,
    minimized at ``x_i`` from 1 to 2; its gradient comes with the exact
    Hessian diagonal ``h``, or with none."""
    h = np.logspace(0, 6, 20)
    b = h * np.linspace(1.0, 2.0, 20)

    def objective(x):
        f = 0.5 * float(np.sum(h * x * x)) - float(b @ x)
        return f, lambda: (h * x - b, h if with_diagonal else None)

    return objective, b / h


class TestDiagonalScaling:
    def test_exact_diagonal_converges_in_a_few_iterations(self):
        cfg = OptimizerConfig(max_iters=500, grad_tol=1e-6)
        scaled, xstar = separable_quadratic(True)
        x, hist = lbfgs_minimize(scaled, np.zeros(xstar.size), cfg)
        assert hist.termination == "converged"
        assert hist.iterations <= 3
        assert np.max(np.abs(x - xstar)) < 1e-12
        # the scalar scaling crawls along the stiff coordinates
        plain, _ = separable_quadratic(False)
        _, hist = lbfgs_minimize(plain, np.zeros(xstar.size), cfg)
        assert hist.termination == "max-iters"
        assert hist.iterations == 500

    def test_only_the_full_fit_supplies_a_diagonal(self, monkeypatch):
        import spod.optimizer

        diagonals = []
        two_loop = spod.optimizer._two_loop

        def spy(g, memory, diagonal):
            diagonals.append(diagonal)
            return two_loop(g, memory, diagonal)

        monkeypatch.setattr(spod.optimizer, "_two_loop", spy)
        z = pulse_and_wave()
        cfg = OptimizerConfig(max_iters=5, grad_tol=1e-12)
        optimize_path_only(z, PathRepr.nodal(0.3 * z.tgrid.times + 0.0031), 2, cfg)
        assert diagonals and all(d is None for d in diagonals)
        diagonals.clear()
        z, dtrue = spike_fixture()
        h = dtrue.grid.h
        d0 = Decomposition(
            tuple(
                Frame(PathRepr.nodal(f.path.values + off * h), f.modes, f.coeffs)
                for f, off in zip(dtrue.frames, (0.3, -0.2))
            ),
            dtrue.grid,
            dtrue.tgrid,
        )
        optimize_decomposition(z, d0, cfg)
        assert diagonals
        assert all(d.shape == pack(d0).shape and np.all(d > 0) for d in diagonals)


class TestCurvatureCondition:
    def test_newton_unit_step_costs_one_evaluation(self):
        # with the exact diagonal every direction after the first is the
        # Newton step: its unit step meets the curvature condition, so each
        # of those line searches makes one evaluation and takes one gradient
        objective, xstar = separable_quadratic(True)
        recorded, trials, taken = recording(objective)
        counts = []  # evaluations and gradients so far, at each iteration

        def callback(k, f, gnorm):
            counts.append((len(trials), len(taken)))

        cfg = OptimizerConfig(max_iters=500, grad_tol=1e-6)
        _, hist = lbfgs_minimize(recorded, np.zeros(xstar.size), cfg, callback)
        assert hist.termination == "converged" and hist.iterations >= 2
        assert np.diff(counts, axis=0)[1:].tolist() == [[1, 1]] * (hist.iterations - 1)
        assert hist.n_gradients == hist.iterations + 1

    def test_short_unit_step_is_doubled(self):
        # on a flat quadratic the first steepest-descent unit step moves
        # 1e-6 of the way: the probe fails the curvature condition, the step
        # is doubled up to ~2^20, and the superseded probe is counted
        eps = 1e-6
        xstar = np.linspace(1.0, 2.0, 4)

        def objective(x):
            e = x - xstar
            return 0.5 * eps * float(e @ e), lambda: (eps * e, None)

        x, hist = lbfgs_minimize(objective, np.zeros(4), OptimizerConfig(max_iters=1))
        assert hist.iterations == 1
        # x0, the unit step's probe and the accepted doubled step
        assert hist.n_gradients == 3
        assert hist.n_evals > 3
        assert np.max(np.abs(x - xstar)) < 0.1 * np.max(xstar)

    def test_probe_gradient_is_kept_when_no_doubling_is_accepted(self):
        # a slope of -1 up to a steep wall at 1.5: the unit step from 0 is too
        # short by the curvature condition, its doubling hits the wall, and
        # the unit step is accepted with the probe's gradient, not a new one
        def objective(x):
            wall = np.maximum(x - 1.5, 0.0)
            return float(np.sum(100.0 * wall**2 - x)), lambda: (200.0 * wall - 1.0, None)

        recorded, trials, taken = recording(objective)
        x, hist = lbfgs_minimize(recorded, np.zeros(1), OptimizerConfig(max_iters=1))
        assert [t[0].tolist() for t in trials] == [[0.0], [1.0], [2.0]]
        assert taken == [0, 1] and hist.n_gradients == 2
        assert x.tolist() == [1.0]


def random_decomposition(rng, grid, tg, kinds=("nodal", "polynomial")):
    nt = tg.m + 1
    frames = []
    for r, kind in enumerate(kinds, start=1):
        size = nt if kind == "nodal" else 3
        frames.append(
            Frame(
                PathRepr(kind, rng.standard_normal(size)),
                rng.standard_normal((r, grid.n)),
                rng.standard_normal((nt, r)),
            )
        )
    return Decomposition(tuple(frames), grid, tg)


class TestGaussNewtonDiagonal:
    def test_path_block_is_the_stiffness_energy_of_the_frame_rows(self, rng):
        # nodal paths take w_k u_k^T K u_k as it is, polynomial ones (V^2)^T of it
        grid = SpatialGrid(20, 1.3)
        tg = make_uniform_time_grid(9, 0.8)
        d = random_decomposition(rng, grid, tg)
        z = SnapshotSet(grid, tg, rng.standard_normal((tg.m + 1, grid.n)))
        diagonal = _gauss_newton_diagonal(_Workspace(z, d), VARIABLE_GROUPS)
        K = gram_to_dense(stiffness_gram(grid))
        for f, got in zip(d.frames, unpack(diagonal, d).frames):
            u = f.coeffs @ f.modes
            nodal = tg.weights * np.einsum("kl,lm,km->k", u, K, u)
            if f.path.kind == "polynomial":
                V = np.vander(tg.times, f.path.values.size, increasing=True)
                expected = (V**2).T @ nodal
            else:
                expected = nodal
            assert np.allclose(got.path.values, expected, rtol=1e-13, atol=0)

    def test_coefficient_and_mode_blocks_match_the_hessian_diagonal(self):
        # at an exact fit the Gauss-Newton matrix is the Hessian; the cost is
        # quadratic in each coefficient and mode entry, so central differences
        # of the gradient are exact up to rounding
        z, d = spike_fixture()
        variables = ("coeffs", "modes")
        x = pack(d, variables)

        def gradient(xv):
            dv = unpack(xv, d, variables)
            return pack_gradient(eval_cost_gradient(z, dv), dv, variables)

        step = 1e-2
        fd = np.empty(x.size)
        for j in range(x.size):
            e = np.zeros(x.size)
            e[j] = step
            fd[j] = (gradient(x + e)[j] - gradient(x - e)[j]) / (2 * step)
        diagonal = _gauss_newton_diagonal(_Workspace(z, d), variables)
        assert np.allclose(diagonal, fd, rtol=1e-9, atol=0)

    @pytest.mark.parametrize("kind", ["nodal", "polynomial"])
    def test_constant_mode_path_block_is_floored(self, rng, kind):
        # a frame of constant modes moves nothing: Phi K Phi^T vanishes up to
        # rounding, and its quadratic form may round to either side of zero
        grid = SpatialGrid(20, 1.3)
        tg = make_uniform_time_grid(9, 0.8)
        d = random_decomposition(rng, grid, tg, kinds=(kind, "nodal"))
        x = 2 * np.pi * grid.nodes / grid.length
        # one exactly constant row, one constant up to rounding
        flat = np.stack([np.full(grid.n, 0.3), np.cos(x) ** 2 + np.sin(x) ** 2])
        frame = Frame(d.frames[0].path, flat, rng.standard_normal((tg.m + 1, 2)))
        d = Decomposition((frame, d.frames[1]), grid, tg)
        z = SnapshotSet(grid, tg, rng.standard_normal((tg.m + 1, grid.n)))
        diagonal = _gauss_newton_diagonal(_Workspace(z, d), VARIABLE_GROUPS)
        assert np.all(np.isfinite(diagonal)) and np.all(diagonal > 0)
        path = unpack(diagonal, d).frames[0].path.values
        assert np.all(path == 1e-12 * diagonal.max())

    def test_zero_mode_frame_is_floored(self, rng):
        grid = SpatialGrid(16, 1.0)
        tg = make_uniform_time_grid(7, 1.0)
        d = random_decomposition(rng, grid, tg, kinds=("nodal", "nodal"))
        silent = Frame(d.frames[0].path, np.zeros(d.frames[0].modes.shape), d.frames[0].coeffs)
        d = Decomposition((silent, d.frames[1]), grid, tg)
        z = SnapshotSet(grid, tg, rng.standard_normal((tg.m + 1, grid.n)))
        diagonal = _gauss_newton_diagonal(_Workspace(z, d), VARIABLE_GROUPS)
        assert np.all(np.isfinite(diagonal)) and np.all(diagonal > 0)
        floor = 1e-12 * diagonal.max()
        blocks = unpack(diagonal, d).frames[0]
        # its coefficients and path see no modes: both blocks sit at the floor
        assert np.all(blocks.coeffs == floor)
        assert np.all(blocks.path.values == floor)
        assert diagonal.min() == floor
        # with no mode and no coefficient anywhere, every entry is zero: the
        # all-ones diagonal, the scalar scaling
        blank = Frame(silent.path, silent.modes, np.zeros(silent.coeffs.shape))
        d = Decomposition((blank,), grid, tg)
        zeros = _gauss_newton_diagonal(_Workspace(z, d), VARIABLE_GROUPS)
        assert np.array_equal(zeros, np.ones(pack(d).size))


class TestOptimizeDecomposition:
    def test_truth_init_converges_immediately(self):
        z, dtrue = spike_fixture()
        res = optimize_decomposition(z, dtrue, OptimizerConfig(grad_tol=1e-8))
        assert res.iterations == 0
        assert res.termination == "converged"

    def test_coeffs_only_matches_normal_equations(self, rng):
        # random data is not exactly representable, so the optimum is positive
        _, template = spike_fixture(n=16, m=10)
        grid, tg = template.grid, template.tgrid
        z = SnapshotSet(grid, tg, rng.standard_normal((tg.m + 1, grid.n)))
        frames = tuple(
            Frame(f.path, rng.standard_normal(f.modes.shape), np.zeros(f.coeffs.shape))
            for f in template.frames
        )
        d0 = Decomposition(frames, grid, tg)
        cfg = OptimizerConfig(max_iters=400, grad_tol=1e-13, variables=("coeffs",))
        res = optimize_decomposition(z, d0, cfg)

        # direct least squares per time step on the transformed-mode Gram
        from spod.cost_grad import path_values

        paths = [path_values(f.path, tg.times) for f in d0.frames]
        modes = [f.modes for f in d0.frames]
        nmodes = sum(f.r for f in d0.frames)
        cost_direct = 0.0
        F0 = gram_F(0.0, grid)
        for k in range(tg.m + 1):
            blocks = []
            for fi, f in enumerate(d0.frames):
                for i in range(f.r):
                    blocks.append((paths[fi][k], modes[fi][i]))
            A = np.empty((nmodes, nmodes))
            rhs = np.empty(nmodes)
            for a, (pa, va) in enumerate(blocks):
                rhs[a] = float(z.values[k] @ apply_gram(gram_F(pa, grid), va))
                for b, (pb, vb) in enumerate(blocks):
                    A[a, b] = float(va @ apply_gram(gram_F(pb - pa, grid), vb))
            alpha = np.linalg.solve(A, rhs)
            zz = float(z.values[k] @ apply_gram(F0, z.values[k]))
            cost_direct += tg.weights[k] * (zz - float(alpha @ rhs))
        cost_direct *= 0.5
        achieved = res.cost_history[-1]
        assert abs(achieved - cost_direct) <= 1e-6 * max(abs(cost_direct), 1e-12)

    def test_frame_permutation_equivariance(self, rng):
        z, dtrue = spike_fixture()
        f0, f1 = dtrue.frames
        h = dtrue.grid.h
        perturbed = (
            Frame(PathRepr.nodal(f0.path.values + 0.31 * h), f0.modes, f0.coeffs),
            Frame(PathRepr.nodal(f1.path.values - 0.17 * h), f1.modes, f1.coeffs),
        )
        # compare before the rounding floor of the cost, eps |z|^2, where the
        # line search decides on last-ulp rounding and the path is known only
        # to ~1e-8 h: 15 iterations stay six orders of magnitude above it
        cfg = OptimizerConfig(max_iters=15, grad_tol=1e-12)
        res_a = optimize_decomposition(z, Decomposition(perturbed, dtrue.grid, dtrue.tgrid), cfg)
        res_b = optimize_decomposition(
            z, Decomposition(perturbed[::-1], dtrue.grid, dtrue.tgrid), cfg
        )
        floor = np.finfo(float).eps * data_norm_sq(z)
        assert min(res_a.cost_history[-1], res_b.cost_history[-1]) > 1e6 * floor
        na = min(len(res_a.cost_history), len(res_b.cost_history))
        assert np.allclose(res_a.cost_history[:na], res_b.cost_history[:na], rtol=0, atol=1e-12)
        for fa, fb in zip(res_a.decomposition.frames, res_b.decomposition.frames[::-1]):
            assert np.allclose(fa.path.values, fb.path.values, atol=1e-10)

    def test_one_workspace_per_evaluation(self, monkeypatch):
        # the deferred gradient reuses the workspace its value was built on
        import spod.cost_grad as cost_grad

        built = 0
        init = cost_grad._Workspace.__init__

        def counted(self, z, d):
            nonlocal built
            built += 1
            init(self, z, d)

        monkeypatch.setattr(cost_grad._Workspace, "__init__", counted)
        z, dtrue = spike_fixture()
        h = dtrue.grid.h
        d0 = Decomposition(
            tuple(
                Frame(PathRepr.nodal(f.path.values + off * h), f.modes, f.coeffs)
                for f, off in zip(dtrue.frames, (0.3, -0.2))
            ),
            dtrue.grid,
            dtrue.tgrid,
        )
        res = optimize_decomposition(z, d0, OptimizerConfig(max_iters=20, grad_tol=1e-12))
        assert res.iterations > 0 and res.n_gradients == res.iterations + 1
        assert built == res.n_evals

    def test_monotone_history_on_real_problem(self):
        z, dtrue = spike_fixture()
        f0, f1 = dtrue.frames
        h = dtrue.grid.h
        d0 = Decomposition(
            (
                Frame(PathRepr.nodal(f0.path.values + 0.3 * h), f0.modes, f0.coeffs),
                Frame(PathRepr.nodal(f1.path.values - 0.2 * h), f1.modes, f1.coeffs),
            ),
            dtrue.grid,
            dtrue.tgrid,
        )
        res = optimize_decomposition(z, d0, OptimizerConfig(max_iters=100, grad_tol=1e-10))
        assert np.all(np.diff(res.cost_history) <= 0)

    def test_gaussian_path_recovery_from_offset(self):
        grid = SpatialGrid(32, 1.0)
        tg = make_uniform_time_grid(16, 1.0)
        x = grid.nodes
        gauss = np.exp(-0.5 * ((x - 0.5) / 0.08) ** 2)
        z, dtrue = synthetic_traveling([TravelingProfile(gauss, speed=1.0)], grid, tg)
        f = dtrue.frames[0]
        d0 = Decomposition(
            (Frame(PathRepr.nodal(f.path.values + 0.1 * grid.length), f.modes, f.coeffs),),
            grid,
            tg,
        )
        res = optimize_decomposition(z, d0, OptimizerConfig(max_iters=800, grad_tol=1e-12))
        dev = np.max(np.abs(res.decomposition.frames[0].path.values - f.path.values))
        assert dev <= grid.h

    def test_penalized_run_decreases_penalty(self, rng):
        z, dtrue = spike_fixture(n=16, m=8)
        f = dtrue.frames[0]
        big = Frame(f.path, 40.0 * f.modes, f.coeffs)
        d0 = Decomposition((big, dtrue.frames[1]), dtrue.grid, dtrue.tgrid)
        from spod.cost_grad import penalty_value

        cfg = OptimizerConfig(
            max_iters=60, grad_tol=1e-12, variables=("modes",), C=2.0, lam=5.0
        )
        res = optimize_decomposition(z, d0, cfg)
        assert penalty_value(res.decomposition, 2.0) < penalty_value(d0, 2.0)
        assert np.all(np.diff(res.cost_history) <= 0)

    def test_inactive_penalty_leaves_fit_unchanged(self):
        from spod.cost_grad import penalty_value

        z, dtrue = spike_fixture(n=16, m=8)
        h = dtrue.grid.h
        d0 = Decomposition(
            tuple(
                Frame(PathRepr.nodal(f.path.values + off * h), f.modes, f.coeffs)
                for f, off in zip(dtrue.frames, (0.3, -0.2))
            ),
            dtrue.grid,
            dtrue.tgrid,
        )
        C = 1e3  # far above every norm
        plain = optimize_decomposition(z, d0, OptimizerConfig(max_iters=5, grad_tol=1e-12))
        penalized = optimize_decomposition(
            z, d0, OptimizerConfig(max_iters=5, grad_tol=1e-12, C=C, lam=1.0)
        )
        assert plain.iterations == penalized.iterations == 5
        assert penalty_value(penalized.decomposition, C) == 0.0
        assert np.array_equal(plain.cost_history, penalized.cost_history)
        assert np.array_equal(plain.grad_norm_history, penalized.grad_norm_history)
        for fa, fb in zip(plain.decomposition.frames, penalized.decomposition.frames):
            assert np.array_equal(fa.path.values, fb.path.values)
            assert np.array_equal(fa.modes, fb.modes)
            assert np.array_equal(fa.coeffs, fb.coeffs)


class TestOptimizePathOnly:
    @pytest.mark.parametrize("n", [15, 16], ids=["odd-n", "even-n"])
    def test_fourier_built_B_matches_dense_grams(self, rng, n):
        """B = W^{1/2} (F(p_k)^T z_k) M^{-1/2}, built as the fit builds it, against
        dense Grams: whole cells, rests within the snap tolerance of a cell
        boundary on either side, negative shifts and shifts far beyond L."""
        grid = SpatialGrid(n, 1.3)
        h, L = grid.h, grid.length
        snap = _SNAP_REL * h
        p = np.array([0.0, 3 * h, -5 * h, 2 * h - snap / 2, 4 * h + snap / 2, 6 * h + 3 * snap,
                      0.37 * h, -2.6 * h, 1e3 * L + 0.3 * h, -1e4 * L - 1.7 * h])
        tg = make_uniform_time_grid(p.size - 1, 1.0)
        Z = rng.standard_normal((p.size, n))
        sqw = np.sqrt(tg.weights)
        evals, evecs = np.linalg.eigh(gram_to_dense(gram_F(0.0, grid)))
        inv_root = (evecs / np.sqrt(evals)) @ evecs.T
        Y = np.stack([gram_to_dense(gram_F(pk, grid)).T @ zk for pk, zk in zip(p, Z)])
        expected = sqw[:, None] * (Y @ inv_root)
        spectra = np.fft.rfft(Z, axis=1) / np.sqrt(_mass_symbol(grid))[: n // 2 + 1]
        q, frac = decompose_shift(p, grid)
        B = _pullback_rows(spectra, sqw[:, None] * _band_F(frac, h), q, n)
        assert np.max(np.abs(B - expected)) <= 1e-13 * np.max(np.abs(expected))

    def test_exactly_representable_profile(self):
        grid = SpatialGrid(32, 1.0)
        tg = make_uniform_time_grid(16, 1.0)
        x = grid.nodes
        profile = np.exp(-0.5 * ((x - 0.4) / 0.07) ** 2)
        z, dtrue = synthetic_traveling([TravelingProfile(profile, speed=1.0)], grid, tg)
        ptrue = dtrue.frames[0].path.values
        path0 = PathRepr.nodal(ptrue + 0.3 * grid.h)
        res = optimize_path_only(z, path0, 1, OptimizerConfig(max_iters=300, grad_tol=1e-10))
        assert res.cost_history[-1] <= 1e-12 * data_norm_sq(z)
        assert np.max(np.abs(res.decomposition.frames[0].path.values - ptrue)) <= grid.h

    def test_constant_in_space_data(self):
        grid = SpatialGrid(16, 1.0)
        tg = make_uniform_time_grid(8, 1.0)
        values = np.outer(1.0 + tg.times, np.ones(grid.n))
        z = SnapshotSet(grid, tg, values)
        # a shift-invariant field is reproduced exactly for any path
        path0 = PathRepr.nodal(0.3 * tg.times + 0.1)
        res = optimize_path_only(z, path0, 1, OptimizerConfig(max_iters=5, grad_tol=1e-8))
        from spod.core import relative_l2_error

        err = relative_l2_error(z, reconstruct(res.decomposition))
        assert err <= 1e-10
        assert res.iterations == 0  # already stationary

    def test_reduced_cost_matches_tail_energy_within_defect(self, rng):
        z = pulse_and_wave()
        tg = z.tgrid
        res = optimize_path_only(
            z, PathRepr.nodal(0.37 * tg.times), 2, OptimizerConfig(max_iters=3, grad_tol=1e-12)
        )
        recon_cost = eval_cost(z, res.decomposition)
        assert abs(res.cost_history[-1] - recon_cost) <= res.isometry_defect + 1e-12
        # the reduced objective is the cost at its inner minimum: the defect
        # is rounding
        assert res.isometry_defect <= 1e-12 * max(res.cost_history[-1], recon_cost)

    def test_repeated_calls_are_bitwise_equal(self):
        # the warm start lives in one call: nothing carries over to the next
        z = pulse_and_wave()
        path0 = PathRepr.nodal(0.3 * z.tgrid.times + 0.0031)
        cfg = OptimizerConfig(max_iters=8, grad_tol=1e-12)
        a = optimize_path_only(z, path0, 2, cfg)
        b = optimize_path_only(z, path0, 2, cfg)
        assert a.iterations == b.iterations > 1
        assert np.array_equal(a.cost_history, b.cost_history)
        assert np.array_equal(a.grad_norm_history, b.grad_norm_history)
        fa, fb = a.decomposition.frames[0], b.decomposition.frames[0]
        assert np.array_equal(fa.path.values, fb.path.values)
        assert np.array_equal(fa.modes, fb.modes)
        assert np.array_equal(fa.coeffs, fb.coeffs)
        assert a.isometry_defect == b.isometry_defect

    def test_warm_start_replaces_the_full_svd(self, svd_shapes):
        # no evaluation, the first and the final rebuild included, factors
        # the whole matrix
        z = pulse_and_wave()
        path0 = PathRepr.nodal(0.3 * z.tgrid.times + 0.0031)
        res = optimize_path_only(z, path0, 2, OptimizerConfig(max_iters=8, grad_tol=1e-12))
        assert res.iterations > 1
        assert svd_shapes.count(z.values.shape) == 0
        assert len(svd_shapes) > 2 * len(res.cost_history)

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_final_cost_is_the_cost_of_the_decomposition(self, r):
        # off-node start: p(0) = 0.0031 is no multiple of h
        z = pulse_and_wave()
        path0 = PathRepr.nodal(0.3 * z.tgrid.times + 0.0031)
        res = optimize_path_only(z, path0, r, OptimizerConfig(max_iters=8, grad_tol=1e-12))
        assert res.iterations > 1
        assert res.cost_history[-1] == pytest.approx(eval_cost(z, res.decomposition), rel=1e-12)

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_gradient_matches_central_difference(self, r):
        # the reduced objective J*(p) is read at iteration 0 of a fit that
        # stops there, which returns the inner solution at p
        z = pulse_and_wave()
        rng = np.random.default_rng(100 + r)
        p = 0.3 * z.tgrid.times + 0.0031 + 0.01 * rng.standard_normal(z.tgrid.m + 1)
        v = rng.standard_normal(p.size)
        cfg = OptimizerConfig(grad_tol=1e300)

        def reduced(x):
            res = optimize_path_only(z, PathRepr.nodal(x), r, cfg)
            assert res.iterations == 0
            return res, res.cost_history[0]

        res, _ = reduced(p)
        slope = float(path_gradient_nodal(z, res.decomposition)[0] @ v)
        step = 1e-6
        fd = (reduced(p + step * v)[1] - reduced(p - step * v)[1]) / (2 * step)
        assert slope == pytest.approx(fd, rel=1e-6)

    def test_polynomial_path_variant(self):
        grid = SpatialGrid(24, 1.0)
        tg = make_uniform_time_grid(12, 1.0)
        x = grid.nodes
        profile = np.exp(-0.5 * ((x - 0.4) / 0.08) ** 2)
        z, _ = synthetic_traveling([TravelingProfile(profile, speed=0.5)], grid, tg)
        res = optimize_path_only(
            z,
            PathRepr.polynomial([0.0, 0.4]),
            1,
            OptimizerConfig(max_iters=200, grad_tol=1e-10),
        )
        slope = res.decomposition.frames[0].path.values[1]
        assert abs(slope - 0.5) < 0.02

    def test_rank_out_of_range(self):
        z, _ = spike_fixture(n=16, m=8)
        with pytest.raises(ValueError):
            optimize_path_only(z, PathRepr.nodal(np.zeros(9)), 10, OptimizerConfig())

    def test_penalty_is_rejected(self):
        z, _ = spike_fixture(n=16, m=8)
        with pytest.raises(ValueError, match="penalty"):
            optimize_path_only(z, PathRepr.nodal(np.zeros(9)), 1, OptimizerConfig(lam=1.0))

    @pytest.mark.parametrize("variables", [("coeffs",), ("paths",), ("coeffs", "modes")])
    def test_variable_subset_is_rejected(self, variables):
        # the inner POD solve always moves coefficients and modes with the path
        z, _ = spike_fixture(n=16, m=8)
        cfg = OptimizerConfig(variables=variables)
        with pytest.raises(ValueError, match="variables"):
            optimize_path_only(z, PathRepr.nodal(np.zeros(9)), 1, cfg)


class TestConfigValidation:
    def test_bad_values(self):
        with pytest.raises(ValueError):
            OptimizerConfig(max_iters=0)
        with pytest.raises(ValueError):
            OptimizerConfig(variables=("coeffs", "bogus"))
        with pytest.raises(ValueError):
            OptimizerConfig(lam=-0.1)

    @pytest.mark.parametrize(
        "option",
        [
            {"lam": float("nan")},
            {"lam": float("inf")},
            {"grad_tol": float("nan")},
            {"grad_tol": float("inf")},
            {"grad_tol": -1e-8},
            {"C": float("inf")},
        ],
        ids=["lam-nan", "lam-inf", "grad-tol-nan", "grad-tol-inf", "grad-tol-negative", "C-inf"],
    )
    def test_nonfinite_or_negative_option_rejected(self, option):
        # a NaN tolerance never converges, a NaN lambda or an infinite bound
        # fits without the penalty; each would also reach the manifests as
        # invalid JSON
        with pytest.raises(ValueError, match=next(iter(option))):
            OptimizerConfig(**option)
