import gc
import weakref

import numpy as np
import pytest

from spod.core import SnapshotSet, SpatialGrid, make_uniform_time_grid
from spod.cost_grad import (
    Decomposition,
    Frame,
    PathRepr,
    data_norm_sq,
    eval_cost,
    eval_cost_gradient,
    eval_penalized_cost,
    path_gradient_nodal,
    path_pullback,
    penalty_gradient,
    penalty_value,
    _Workspace,
    reconstruct,
)
from spod.baseline_pod import _pullback_rows
from spod.generators import TravelingProfile, synthetic_traveling
from spod.optimizer import pack, pack_gradient, unpack
from spod.shift_fem import (
    _SNAP_REL,
    BAND_OFFSETS,
    _band_F,
    _band_G,
    apply_gram,
    decompose_shift,
    gram_F,
    roll_rows,
    shift_field,
)

from oracles import eval_p1, gram_to_dense

GRID = SpatialGrid(16, 1.0)
TG = make_uniform_time_grid(8, 1.0)


def single_frame(path, modes, coeffs, grid=GRID, tg=TG):
    return Decomposition((Frame(path, np.atleast_2d(modes), coeffs),), grid, tg)


def random_instance(rng, n, m, frame_shapes, kinds, L=1.0):
    """Random data and decomposition with paths kept away from cell kinks."""
    grid = SpatialGrid(n, L)
    tg = make_uniform_time_grid(m, 1.0)
    z = SnapshotSet(grid, tg, rng.standard_normal((m + 1, n)))
    h = grid.h
    frames = []
    for r, kind in zip(frame_shapes, kinds):
        if kind == "nodal":
            pv = rng.uniform(0, L, m + 1)
            frac = np.mod(pv, h)
            pv = np.where(np.minimum(frac, h - frac) < 1e-3 * h, pv + 0.3 * h, pv)
            path = PathRepr.nodal(pv)
        else:
            path = PathRepr.polynomial(rng.uniform(-0.3, 0.3, rng.integers(1, 4)))
        frames.append(
            Frame(path, rng.standard_normal((r, n)), rng.standard_normal((m + 1, r)))
        )
    return z, Decomposition(tuple(frames), grid, tg)


class TestReconstruct:
    def test_identity_transform(self, rng):
        mode = rng.standard_normal(GRID.n)
        d = single_frame(
            PathRepr.nodal(np.zeros(TG.m + 1)), mode, np.ones((TG.m + 1, 1))
        )
        out = reconstruct(d)
        assert np.array_equal(out.values, np.tile(mode, (TG.m + 1, 1)))

    def test_zero_coefficients(self, rng):
        d = single_frame(
            PathRepr.nodal(np.zeros(TG.m + 1)),
            rng.standard_normal(GRID.n),
            np.zeros((TG.m + 1, 1)),
        )
        assert np.all(reconstruct(d).values == 0.0)

    def test_moving_unit_spike(self):
        mode = np.zeros(GRID.n)
        mode[0] = 1.0
        pv = np.arange(TG.m + 1) * GRID.h
        d = single_frame(PathRepr.nodal(pv), mode, np.ones((TG.m + 1, 1)))
        out = reconstruct(d).values
        for k in range(TG.m + 1):
            expected = np.zeros(GRID.n)
            expected[k % GRID.n] = 1.0
            assert np.array_equal(out[k], expected)


class TestEvalCost:
    def test_exact_fit_is_zero(self):
        shape = np.zeros(32)
        shape[5] = 1.0
        grid = SpatialGrid(32, 1.0)
        tg = make_uniform_time_grid(16, 1.0)
        z, d = synthetic_traveling([TravelingProfile(shape, speed=1.0)], grid, tg)
        assert eval_cost(z, d) <= 1e-12 * data_norm_sq(z)

    def test_zero_coeffs_give_half_data_norm(self, rng):
        z = SnapshotSet(GRID, TG, rng.standard_normal((TG.m + 1, GRID.n)))
        d = single_frame(
            PathRepr.nodal(rng.uniform(0, 1, TG.m + 1)),
            rng.standard_normal(GRID.n),
            np.zeros((TG.m + 1, 1)),
        )
        assert eval_cost(z, d) == pytest.approx(0.5 * data_norm_sq(z), rel=1e-13)

    def test_data_energy_cache_keeps_no_snapshot_set_alive(self, rng):
        z, d = random_instance(rng, 16, 8, [2], ["nodal"])
        eval_cost(z, d)
        data_norm_sq(z)
        ref = weakref.ref(z)
        del z
        gc.collect()
        assert ref() is None

    def test_matches_residual_quadrature_oracle(self, rng):
        n, m = 12, 6
        z, d = random_instance(rng, n, m, [2, 1], ["nodal", "polynomial"])
        grid, tg = d.grid, d.tgrid
        panels = 10**4 * n
        dx = grid.length / panels
        xm = (np.arange(panels) + 0.5) * dx
        total = 0.0
        from spod.cost_grad import path_values

        for k in range(m + 1):
            rk = eval_p1(z.values[k], grid, xm)
            for f in d.frames:
                pv = path_values(f.path, tg.times)[k]
                for i in range(f.r):
                    rk = rk - f.coeffs[k, i] * eval_p1(f.modes[i], grid, xm - pv)
            total += tg.weights[k] * float(np.sum(rk**2) * dx)
        assert abs(eval_cost(z, d) - 0.5 * total) < 1e-8

    def test_grid_mismatch(self, rng):
        z = SnapshotSet(GRID, TG, rng.standard_normal((TG.m + 1, GRID.n)))
        other = SpatialGrid(GRID.n + 2, 1.0)
        d = single_frame(
            PathRepr.nodal(np.zeros(TG.m + 1)),
            np.zeros(other.n),
            np.ones((TG.m + 1, 1)),
            grid=other,
        )
        with pytest.raises(ValueError):
            eval_cost(z, d)

    def test_translation_covariance(self, rng):
        z, d = random_instance(rng, 16, 8, [2], ["nodal"])
        base = eval_cost(z, d)
        delta = 3 * d.grid.h  # whole-cell translation
        shifted_vals = np.stack([shift_field(delta, row, d.grid) for row in z.values])
        z2 = SnapshotSet(d.grid, d.tgrid, shifted_vals)
        f = d.frames[0]
        d2 = Decomposition(
            (Frame(PathRepr.nodal(f.path.values + delta), f.modes, f.coeffs),),
            d.grid,
            d.tgrid,
        )
        assert abs(eval_cost(z2, d2) - base) < 1e-12 * max(1.0, base)


class TestGradient:
    def test_vanishes_at_exact_reconstruction(self):
        shape = np.zeros(32)
        shape[7] = 1.0
        grid = SpatialGrid(32, 1.0)
        tg = make_uniform_time_grid(16, 1.0)
        z, d = synthetic_traveling([TravelingProfile(shape, speed=0.5)], grid, tg)
        g = eval_cost_gradient(z, d)
        assert max(np.max(np.abs(b)) for b in g.g_coeffs) < 1e-10
        assert max(np.max(np.abs(b)) for b in g.g_paths) < 1e-10
        assert max(np.max(np.abs(b)) for b in g.g_modes) < 1e-10

    def test_zero_coeff_closed_form(self, rng):
        z = SnapshotSet(GRID, TG, rng.standard_normal((TG.m + 1, GRID.n)))
        mode = rng.standard_normal(GRID.n)
        pv = rng.uniform(0, 1, TG.m + 1)
        d = single_frame(PathRepr.nodal(pv), mode, np.zeros((TG.m + 1, 1)))
        g = eval_cost_gradient(z, d)
        w = TG.weights
        expected = np.array(
            [
                -w[k] * float(z.values[k] @ apply_gram(gram_F(pv[k], GRID), mode))
                for k in range(TG.m + 1)
            ]
        )
        assert np.allclose(g.g_coeffs[0][:, 0], expected, atol=1e-14)
        assert np.all(g.g_paths[0] == 0.0)
        assert np.all(g.g_modes[0] == 0.0)

    @pytest.mark.parametrize("trial", range(5))
    def test_finite_difference_agreement(self, trial):
        rng = np.random.default_rng(100 + trial)
        nf = int(rng.integers(1, 3))
        shapes = [int(rng.integers(1, 4)) for _ in range(nf)]
        kinds = [str(rng.choice(["nodal", "polynomial"])) for _ in range(nf)]
        n = int(rng.integers(12, 33))
        m = int(rng.integers(8, 21))
        z, d = random_instance(rng, n, m, shapes, kinds)
        grad = eval_cost_gradient(z, d)
        analytic = pack_gradient(grad, d)
        x0 = pack(d)
        for i in range(x0.size):
            step = 1e-6 * max(1.0, abs(x0[i]))
            xp = x0.copy()
            xp[i] += step
            xm = x0.copy()
            xm[i] -= step
            fd = (eval_cost(z, unpack(xp, d)) - eval_cost(z, unpack(xm, d))) / (2 * step)
            assert abs(analytic[i] - fd) <= 1e-5 * max(abs(fd), 1e-4)

    @pytest.mark.parametrize(
        "kinds", [("nodal",), ("polynomial",), ("nodal", "polynomial"), ("polynomial", "nodal")]
    )
    def test_value_only_calls_equal_gradient_values_bitwise(self, rng, kinds):
        # the full fit's values come from eval_cost_gradient /
        # penalty_gradient and the path-only fit's gradient from
        # path_gradient_nodal; eval_cost / eval_penalized_cost and
        # eval_cost_gradient's path block report the same numbers only if
        # they agree bitwise
        for _ in range(10):
            n, m = int(rng.integers(12, 33)), int(rng.integers(4, 21))
            shapes = [int(rng.integers(1, 4)) for _ in kinds]
            z, d = random_instance(rng, n, m, shapes, kinds)
            full = eval_cost_gradient(z, d)
            assert eval_cost(z, d) == full.value
            for f, nodal, g in zip(d.frames, path_gradient_nodal(z, d), full.g_paths):
                assert np.array_equal(path_pullback(f.path, d.tgrid.times, nodal), g)
            C, lam = float(rng.uniform(0.5, 20.0)), float(rng.uniform(0.1, 10.0))
            assert penalty_value(d, C) == penalty_gradient(d, C).value
            penalized = full.value + lam * penalty_gradient(d, C).value
            assert eval_penalized_cost(z, d, C, lam) == penalized

    @pytest.mark.parametrize("nframes", [1, 2])
    def test_each_gram_family_is_built_on_demand(self, rng, monkeypatch, nframes):
        # the value needs only F bands, the path gradient only G bands
        import spod.cost_grad as cost_grad

        calls = {"F": 0, "G": 0}

        def spy(name, band):
            def counted(frac, h):
                calls[name] += 1
                return band(frac, h)

            return counted

        monkeypatch.setattr(cost_grad, "_band_F", spy("F", _band_F))
        monkeypatch.setattr(cost_grad, "_band_G", spy("G", _band_G))
        z, d = random_instance(rng, 20, 10, [2] * nframes, ["nodal"] * nframes)
        eval_cost(z, d)
        assert calls["F"] > 0 and calls["G"] == 0
        calls.update(F=0, G=0)
        path_gradient_nodal(z, d)
        assert calls["F"] == 0 and calls["G"] > 0
        calls.update(F=0, G=0)
        eval_cost_gradient(z, d)
        # one band per frame and per ordered frame pair, for each family
        assert calls["F"] == calls["G"] == nframes**2

    def test_gradient_on_the_value_workspace_is_bitwise_fresh(self, rng):
        # the optimizer hands each trial's workspace to eval_cost_gradient;
        # a workspace whose value was read first may differ in no product
        # from a fresh call
        z, d = random_instance(rng, 20, 10, [2, 1], ["nodal", "polynomial"])
        ws = _Workspace(z, d)
        value = ws.value
        reused = eval_cost_gradient(z, d, workspace=ws)
        fresh = eval_cost_gradient(z, d)
        assert value == reused.value == fresh.value
        for got, want in zip(
            reused.g_coeffs + reused.g_paths + reused.g_modes,
            fresh.g_coeffs + fresh.g_paths + fresh.g_modes,
        ):
            assert got.tobytes() == want.tobytes()

    def test_workspace_of_another_point_is_rejected(self, rng):
        z, d = random_instance(rng, 16, 8, [1, 1], ["nodal", "nodal"])
        # equal values, another object: a workspace is tied to its own point
        other = unpack(pack(d), d)
        ws = _Workspace(z, other)
        with pytest.raises(ValueError, match="workspace"):
            eval_cost_gradient(z, d, workspace=ws)
        z_other = SnapshotSet(z.grid, z.tgrid, z.values.copy())
        with pytest.raises(ValueError, match="workspace"):
            eval_cost_gradient(z_other, other, workspace=ws)

    def test_polynomial_equals_vandermonde_pushforward(self, rng):
        coeffs_poly = np.array([0.07, -0.2, 0.11])
        z = SnapshotSet(GRID, TG, rng.standard_normal((TG.m + 1, GRID.n)))
        modes = rng.standard_normal((2, GRID.n))
        amps = rng.standard_normal((TG.m + 1, 2))
        d_poly = single_frame(PathRepr.polynomial(coeffs_poly), modes, amps)
        pv = np.polynomial.polynomial.polyval(TG.times, coeffs_poly)
        d_nodal = single_frame(PathRepr.nodal(pv), modes, amps)
        g_poly = eval_cost_gradient(z, d_poly).g_paths[0]
        g_nodal = eval_cost_gradient(z, d_nodal).g_paths[0]
        V = np.vander(TG.times, 3, increasing=True)
        assert np.max(np.abs(g_poly - V.T @ g_nodal)) < 1e-13


def penalty_fd_subgradient(d0, x, variables, C):
    """Central-difference subgradient of the penalty in the packed variables."""
    out = np.zeros_like(x)
    for i in range(x.size):
        step = 1e-7 * max(1.0, abs(x[i]))
        xp = x.copy()
        xp[i] += step
        xm = x.copy()
        xm[i] -= step
        out[i] = (
            penalty_value(unpack(xp, d0, variables), C)
            - penalty_value(unpack(xm, d0, variables), C)
        ) / (2.0 * step)
    return out


def penalty_instance(rng, active):
    """Two two-mode frames for C = 1, every norm well below 1 except:
    frame 0's ``active`` norm (about 2-3), and in frame 1 the coefficient
    norm of mode 0 and the mode norm of mode 1."""
    nt = TG.m + 1
    t = TG.times
    smooth = np.sin(2 * np.pi * GRID.nodes)

    def small():
        return 0.01 * rng.standard_normal((2, GRID.n)), 0.1 * rng.standard_normal((nt, 2))

    modes, coeffs = small()
    path = PathRepr.nodal(0.01 * rng.standard_normal(nt))
    if active == "coeffs":
        coeffs[:, 0] *= 30.0
    elif active == "modes":
        modes[1] += 2.5 * smooth
    elif active == "nodal-path":
        path = PathRepr.nodal(2.5 + 0.3 * np.sin(2 * np.pi * t) + 0.01 * rng.standard_normal(nt))
    else:
        path = PathRepr.polynomial(np.array([2.0, 1.0, -0.5]) + 0.01 * rng.standard_normal(3))
    frame0 = Frame(path, modes, coeffs)
    modes, coeffs = small()
    coeffs[:, 0] *= 30.0
    modes[1] += 2.5 * smooth
    frame1 = Frame(PathRepr.nodal(0.01 * rng.standard_normal(nt)), modes, coeffs)
    return Decomposition((frame0, frame1), GRID, TG)


class TestPenalty:
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize(
        "variables", [("coeffs", "paths", "modes"), ("paths",), ("modes", "coeffs")]
    )
    @pytest.mark.parametrize("active", ["coeffs", "nodal-path", "polynomial-path", "modes"])
    def test_gradient_matches_central_differences(self, active, variables, seed):
        d = penalty_instance(np.random.default_rng(seed), active)
        pen = penalty_gradient(d, 1.0)
        # the intended norm is the active one in frame 0, and only there
        blocks = {"coeffs": pen.g_coeffs[0], "path": pen.g_paths[0], "modes": pen.g_modes[0]}
        for name, block in blocks.items():
            assert np.any(block != 0.0) == active.endswith(name)
        analytic = pack_gradient(pen, d, variables)
        fd = penalty_fd_subgradient(d, pack(d, variables), variables, 1.0)
        assert np.max(np.abs(analytic - fd)) <= 1e-6 * np.max(np.abs(fd))

    def test_gradient_exact_zeros_below_bound(self, rng):
        _, d = random_instance(rng, 16, 8, [2, 1], ["nodal", "polynomial"])
        pen = penalty_gradient(d, 1e3)
        assert pen.value == 0.0
        for block in pen.g_coeffs + pen.g_paths + pen.g_modes:
            assert np.all(block == 0.0) and not np.any(np.signbit(block))

    def test_gradient_zero_at_bound(self):
        from spod.cost_grad import _penalty_norms

        d = penalty_instance(np.random.default_rng(0), "modes")
        C = max(max(triple) for _, _, norms in _penalty_norms(d, 1.0) for triple in norms)
        pen = penalty_gradient(d, C)
        assert pen.value == 0.0
        for block in pen.g_coeffs + pen.g_paths + pen.g_modes:
            assert np.all(block == 0.0)

    def test_gradient_value_is_penalty_value(self, rng):
        for _ in range(50):
            nf = int(rng.integers(1, 3))
            _, d = random_instance(rng, 16, 8, [2] * nf, ["nodal", "polynomial"][:nf])
            C = float(rng.uniform(0.5, 20.0))
            assert penalty_gradient(d, C).value == penalty_value(d, C)

    @pytest.mark.parametrize("uniform", [True, False])
    def test_gradient_transpose_stencil(self, rng, uniform):
        from spod.cost_grad import _gradient_transpose

        nt = 11
        t = np.linspace(0.0, 2.0, nt) if uniform else np.sort(rng.uniform(0.0, 2.0, nt))
        v = rng.standard_normal(nt)
        dense = np.gradient(np.eye(nt), t, axis=0).T @ v
        assert np.max(np.abs(_gradient_transpose(v, t) - dense)) <= 1e-13

    def test_zero_inside_admissible_set(self):
        d = single_frame(
            PathRepr.nodal(np.full(TG.m + 1, 0.01)),
            np.full(GRID.n, 0.1),
            np.full((TG.m + 1, 1), 0.1),
        )
        assert penalty_value(d, C=1.0) == 0.0

    def test_unit_excess_single_mode(self):
        C = 1.0
        # constant mode: stiffness part vanishes, |phi|_Y = c sqrt(L)
        c = (C + 1.0) / np.sqrt(GRID.length)
        d = single_frame(
            PathRepr.nodal(np.zeros(TG.m + 1)),
            np.full(GRID.n, c),
            np.full((TG.m + 1, 1), 0.01),
        )
        assert penalty_value(d, C) == pytest.approx(1.0, abs=1e-12)

    def test_zero_iff_all_norms_bounded(self, rng):
        # the discrete-norm characterization, sampled
        from spod.cost_grad import _discrete_h1_norm_sq, path_values
        from spod.shift_fem import stiffness_gram

        stiff = stiffness_gram(GRID)
        F0 = gram_F(0.0, GRID)
        for _ in range(50):
            modes = rng.standard_normal((2, GRID.n)) * rng.uniform(0.05, 2.0)
            coeffs = rng.standard_normal((TG.m + 1, 2)) * rng.uniform(0.05, 2.0)
            pv = rng.standard_normal(TG.m + 1) * rng.uniform(0.05, 2.0)
            d = single_frame(PathRepr.nodal(pv), modes, coeffs)
            C = 1.0
            norms = []
            pn = np.sqrt(_discrete_h1_norm_sq(path_values(d.frames[0].path, TG.times), TG))
            for i in range(2):
                an = np.sqrt(float(np.dot(TG.weights, coeffs[:, i] ** 2)))
                mn = np.sqrt(
                    float(modes[i] @ (apply_gram(F0, modes[i]) + apply_gram(stiff, modes[i])))
                )
                norms += [an, mn, pn]
            inside = all(v <= C for v in norms)
            val = penalty_value(d, C)
            assert (val == 0.0) == inside

    def test_scaling_past_bound_increases_penalty(self, rng):
        mode = rng.standard_normal(GRID.n)
        d1 = single_frame(
            PathRepr.nodal(np.zeros(TG.m + 1)), 5.0 * mode, np.full((TG.m + 1, 1), 0.01)
        )
        d2 = single_frame(
            PathRepr.nodal(np.zeros(TG.m + 1)), 7.0 * mode, np.full((TG.m + 1, 1), 0.01)
        )
        C = 0.5
        assert penalty_value(d2, C) > penalty_value(d1, C) > 0.0

    def test_invalid_bound(self):
        d = single_frame(
            PathRepr.nodal(np.zeros(TG.m + 1)), np.ones(GRID.n), np.ones((TG.m + 1, 1))
        )
        with pytest.raises(ValueError):
            penalty_value(d, 0.0)


class TestPenalizedCost:
    def setup_method(self):
        rng = np.random.default_rng(7)
        self.z = SnapshotSet(GRID, TG, rng.standard_normal((TG.m + 1, GRID.n)))
        self.d = single_frame(
            PathRepr.nodal(rng.uniform(0, 1, TG.m + 1)),
            3.0 * rng.standard_normal(GRID.n),
            rng.standard_normal((TG.m + 1, 1)),
        )

    def test_lambda_zero_is_plain_cost(self):
        assert eval_penalized_cost(self.z, self.d, C=1.0, lam=0.0) == eval_cost(self.z, self.d)

    def test_zero_penalty_is_plain_cost(self):
        big_C = 1e6
        assert eval_penalized_cost(self.z, self.d, C=big_C, lam=10.0) == eval_cost(self.z, self.d)

    def test_monotone_in_lambda(self):
        C = 0.1
        assert penalty_value(self.d, C) > 0
        values = [eval_penalized_cost(self.z, self.d, C=C, lam=lam) for lam in (0.0, 0.5, 1.0, 4.0)]
        assert np.all(np.diff(values) > 0)

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError):
            eval_penalized_cost(self.z, self.d, C=1.0, lam=-1.0)


class TestBandKernelsMatchRolls:
    """The band kernels on periodic windows equal their ``np.roll`` forms
    bitwise, and the Fourier pullback matches them to rounding."""

    GRID = SpatialGrid(13, 1.0)

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_mode_rolls(self, rng, order):
        # the workspace's (4 r, n) matrix of rolled modes, C-ordered for
        # modes in either memory order
        z, d = random_instance(rng, self.GRID.n, 6, [3], ["nodal"])
        f = d.frames[0]
        modes = np.asarray(f.modes, order=order)
        d = Decomposition((Frame(f.path, modes, f.coeffs),), d.grid, d.tgrid)
        expected = np.stack(
            [np.stack([np.roll(m, -delta) for delta in BAND_OFFSETS]) for m in modes]
        ).reshape(-1, self.GRID.n)
        out = _Workspace(z, d).rolls[0]
        assert out.flags.c_contiguous
        assert out.shape == expected.shape and out.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("band", [_band_F, _band_G])
    def test_pullback_rows_match_rolled_transposes(self, rng, band):
        # rows sum_d b_d[k] A[k] rolled by delta_d and then by -q_k through
        # np.roll: F(p_k)^T A[k]
        A = rng.standard_normal((9, self.GRID.n))
        q, fr = decompose_shift(rng.uniform(-3.0, 3.0, 9), self.GRID)
        bands = band(fr, self.GRID.h)
        rolled = np.zeros_like(A)
        for dlt, b in zip(BAND_OFFSETS, bands.T):
            rolled += b[:, None] * np.roll(A, dlt, axis=1)
        expected = roll_rows(rolled, -q)
        out = _pullback_rows(np.fft.rfft(A, axis=1), bands, q, self.GRID.n)
        assert np.max(np.abs(out - expected)) <= 1e-13 * np.max(np.abs(expected))


def awkward_shifts(rng, grid, size):
    """Whole cells, shifts within ``_SNAP_REL`` of a cell boundary on either
    side, and generic fractions, each also moved by a thousand domains."""
    h, L = grid.h, grid.length
    cells = h * rng.integers(-3 * grid.n, 3 * grid.n, size)
    jitter = rng.choice([0.0, 0.3, -0.3, 0.9, -0.9], size) * _SNAP_REL * h
    generic = rng.uniform(-3 * L, 3 * L, size)
    shifts = np.where(rng.uniform(size=size) < 0.5, cells + jitter, generic)
    return shifts + L * 1e3 * rng.choice([-1.0, 0.0, 1.0], size)


class TestModeGradient:
    GRID = SpatialGrid(11, 1.7)

    def test_gram_of_negated_shift_is_the_transpose(self, rng):
        # the mode gradient's partner terms use F(p_j - p_i) = F(p_i - p_j)^T
        for p in awkward_shifts(rng, self.GRID, 400):
            forward = gram_to_dense(gram_F(p, self.GRID))
            backward = gram_to_dense(gram_F(-p, self.GRID))
            assert np.max(np.abs(backward - forward.T)) <= 4 * np.finfo(float).eps * self.GRID.h

    @pytest.mark.parametrize("nframes", [1, 2, 3])
    def test_matches_dense_oracle(self, rng, nframes):
        # gradient of 1/2 sum_k w_k |z_k - sum_f T(p_f) u_f|^2 in the Gram
        # metric with respect to frame f's modes, from dense Grams:
        # sum_k w_k a_{f,k} (sum_g F(p_g - p_f) u_{g,k} - F(p_f)^T z_k)
        grid = self.GRID
        tg = make_uniform_time_grid(6, 1.0)
        nt = tg.m + 1
        z = SnapshotSet(grid, tg, rng.standard_normal((nt, grid.n)))
        frames = tuple(
            Frame(
                PathRepr.nodal(awkward_shifts(rng, grid, nt)),
                rng.standard_normal((r, grid.n)),
                rng.standard_normal((nt, r)),
            )
            for r in (2, 1, 3)[:nframes]
        )
        d = Decomposition(frames, grid, tg)
        ws = _Workspace(z, d)
        paths = [f.path.values for f in frames]
        for fi, f in enumerate(frames):
            row = np.zeros((nt, grid.n))
            for k in range(nt):
                row[k] = -gram_to_dense(gram_F(paths[fi][k], grid)).T @ z.values[k]
                for g, pg in zip(frames, paths):
                    shift = pg[k] - paths[fi][k]
                    row[k] += gram_to_dense(gram_F(shift, grid)) @ (g.coeffs[k] @ g.modes)
            expected = (tg.weights[:, None] * f.coeffs).T @ row
            got = ws.mode_gradient(fi)
            assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))
