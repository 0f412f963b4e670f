import numpy as np
import pytest

from spod.core import SpatialGrid, make_uniform_time_grid, relative_l2_error
from spod.cost_grad import data_norm_sq, eval_cost, reconstruct
from spod.generators import (
    BurgersParams,
    FhnParams,
    IntegratorBlowupError,
    TravelingProfile,
    _D2_OFFSETS,
    _D2_STENCIL,
    burgers_analytic,
    burgers_value,
    fhn_simulate,
    fhn_stability_limit,
    synthetic_traveling,
)


def tracked_speed(data, t_start=0.0):
    """Mean pattern speed in ``data`` over the steps starting at ``t_start`` or later.

    Each step's displacement is the lag of the peak of the circular
    cross-correlation between consecutive (mean-removed) snapshots.  The peak
    is read at sub-cell resolution from the parabola through the three samples
    around the largest one; rounding to whole cells would bias a speed of
    2.18 cells per step down to 2.  Stepwise tracking has no whole-lap or
    wavelength ambiguity as long as a step moves less than half the domain.
    """
    vals = data.values - data.values.mean(axis=1, keepdims=True)
    n = vals.shape[1]
    F = np.fft.fft(vals, axis=1)
    cc = np.fft.ifft(F[1:] * np.conj(F[:-1]), axis=1).real
    rows = np.arange(cc.shape[0])
    peak = np.argmax(cc, axis=1)
    left = cc[rows, (peak - 1) % n]
    mid = cc[rows, peak]
    right = cc[rows, (peak + 1) % n]
    frac = 0.5 * (left - right) / (left - 2.0 * mid + right)
    lags = (peak + n // 2) % n - n // 2 + frac
    times = data.tgrid.times
    steps = times[:-1] >= t_start
    duration = times[-1] - times[:-1][steps][0]
    return float(np.sum(lags[steps])) * data.grid.h / duration


class TestBurgers:
    def test_zero_at_left_boundary(self, burgers_data):
        assert np.all(burgers_data.values[:, 0] == 0.0)

    def test_high_precision_regression_values(self):
        # frozen from a 50-digit mpmath evaluation of the closed form
        assert burgers_value(0.0, 0.5) == pytest.approx(0.25, abs=1e-16)
        assert burgers_value(1.0, 0.3) == pytest.approx(0.15, abs=1e-16)
        assert burgers_value(2.0, 0.8) == pytest.approx(0.2666184254740437, abs=2e-16)
        assert burgers_value(0.5, 0.53) == pytest.approx(0.35333326649201097, abs=2e-16)

    def test_values_bounded_and_finite(self, burgers_data):
        vals = burgers_data.values
        assert np.all(np.isfinite(vals))
        assert vals.min() >= 0.0 and vals.max() <= 1.0

    def test_single_steep_front_decaying_in_time(self, burgers_data):
        vals = burgers_data.values
        peaks = vals.max(axis=1)
        assert np.all(np.diff(peaks) < 0)
        for k in range(0, vals.shape[0], 10):
            # one contiguous run of steep cell-to-cell decreases (the front
            # is a few cells wide)
            steep = np.diff(vals[k]) < -0.1 * peaks[k]
            runs = np.sum(steep[1:] & ~steep[:-1]) + int(steep[0])
            assert runs == 1

    def test_grid_convention(self, burgers_data):
        assert burgers_data.values.shape == (101, 100)
        assert burgers_data.grid.length == 1.0
        assert burgers_data.tgrid.tfinal == 2.0

    def test_param_validation(self):
        with pytest.raises(ValueError):
            BurgersParams(reynolds=-1)
        with pytest.raises(ValueError):
            BurgersParams(nx_intervals=1)


class TestFhn:
    def test_uniform_state_follows_scalar_ode(self):
        # with the coupling removed, a flat field obeys u' = u(1-u)(u-a)
        p = FhnParams(eps=0.0, b=0.0, tfinal=10.0, length=50.0)
        n = p.n
        z = fhn_simulate(p, u0=np.full(n, 0.5), v0=np.zeros(n))
        u = 0.5
        dt = 1e-5
        a = p.a
        f = lambda u: u * (1.0 - u) * (u - a)
        for _ in range(int(round(10.0 / dt))):
            k1 = f(u)
            k2 = f(u + 0.5 * dt * k1)
            k3 = f(u + 0.5 * dt * k2)
            k4 = f(u + dt * k3)
            u += (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        assert np.max(np.abs(z.values[-1] - u)) < 1e-8

    def test_zero_data_is_fixed_point(self):
        p = FhnParams(tfinal=5.0, length=50.0)
        z = fhn_simulate(p, u0=np.zeros(p.n), v0=np.zeros(p.n))
        assert np.all(z.values == 0.0)

    def test_bitwise_equal_to_roll_stencil(self):
        # the padded-slice Laplacian against the np.roll right-hand side
        p = FhnParams(tfinal=4.0, length=50.0)
        x = np.arange(p.n) * p.h
        u = 0.5 * (1.0 + np.sin(np.pi * x / 50.0))
        v = 0.5 * (1.0 + np.cos(np.pi * x / 50.0))
        stencil = _D2_STENCIL / (p.h * p.h)

        def rhs(u, v):
            lap = stencil[3] * u
            for c, off in zip(stencil, _D2_OFFSETS):
                if off != 0:
                    lap += c * np.roll(u, -off)
            du = p.nu * lap - v + u * (1.0 - u) * (u - p.a)
            return du, p.eps * (p.b * u - v)

        dt = p.dt_int
        rows = [u]
        for _ in range(round(p.tfinal / p.dt_out)):
            for _ in range(round(p.dt_out / dt)):
                k1u, k1v = rhs(u, v)
                k2u, k2v = rhs(u + 0.5 * dt * k1u, v + 0.5 * dt * k1v)
                k3u, k3v = rhs(u + 0.5 * dt * k2u, v + 0.5 * dt * k2v)
                k4u, k4v = rhs(u + dt * k3u, v + dt * k3v)
                u = u + (dt / 6.0) * (k1u + 2.0 * k2u + 2.0 * k3u + k4u)
                v = v + (dt / 6.0) * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
            rows.append(u)
        assert fhn_simulate(p).values.tobytes() == np.array(rows).tobytes()

    def test_step_doubling_convergence(self):
        base = FhnParams(tfinal=120.0)
        fine = FhnParams(tfinal=120.0, dt_int=0.005)
        za = fhn_simulate(base)
        zb = fhn_simulate(fine)
        assert relative_l2_error(zb, za) <= 1e-6

    def test_travelling_train_speed(self, fhn_data):
        # speed from per-step cross-correlation lags read at sub-cell
        # resolution (the steady train moves ~2.18 cells per step).  The
        # train settles from a transient near 0.73 for t <~ 200 to a steady
        # ~1.09; the mean over the whole run also includes the first steps,
        # where the initial sinusoid reshapes into pulses (lags of ~24, 10
        # and 5 cells) rather than being transported.
        assert tracked_speed(fhn_data) == pytest.approx(1.04, abs=0.05)
        assert tracked_speed(fhn_data, t_start=700.0) == pytest.approx(1.09, abs=0.02)

    def test_output_shape(self, fhn_data):
        assert fhn_data.values.shape == (1001, 1000)
        assert fhn_data.grid.length == 500.0

    def test_stability_bound_enforced(self):
        limit = fhn_stability_limit(1.0, 0.5)
        assert 0.1 < limit < 0.13
        with pytest.raises(ValueError, match="stability"):
            FhnParams(dt_int=0.2)

    def test_blowup_detection(self):
        p = FhnParams(tfinal=2.0, length=50.0)
        with pytest.raises(IntegratorBlowupError, match="dt_int"):
            fhn_simulate(p, u0=np.full(p.n, 50.0), v0=np.zeros(p.n))

    def test_param_validation(self):
        with pytest.raises(ValueError):
            FhnParams(dt_out=0.3)  # does not divide tfinal evenly
        with pytest.raises(ValueError):
            FhnParams(dt_int=0.03)  # does not divide dt_out evenly

    @pytest.mark.parametrize(
        "field, value",
        [("a", np.nan), ("nu", np.nan), ("eps", np.inf), ("b", np.nan), ("length", np.inf),
         ("tfinal", np.nan), ("dt_int", -np.inf)],
    )
    def test_nonfinite_parameter_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            FhnParams(**{field: value})


class TestSyntheticTraveling:
    def setup_method(self):
        self.grid = SpatialGrid(32, 1.0)
        self.tg = make_uniform_time_grid(16, 1.0)

    @pytest.mark.parametrize("speed", [1.09, 0.73, -0.6])
    def test_tracked_speed_recovers_fractional_cell_speeds(self, speed):
        # 2.18, 1.46 and -1.2 cells per step: a whole-cell lag reading is
        # off by 0.09 to 0.23 here
        grid = SpatialGrid(64, 1.0)
        tg = make_uniform_time_grid(32, 1.0)
        shape = np.exp(-0.5 * ((grid.nodes - 0.5) / 0.08) ** 2)
        z, _ = synthetic_traveling([TravelingProfile(shape, speed)], grid, tg)
        assert tracked_speed(z) == pytest.approx(speed, abs=1e-3)

    def test_zero_speed_constant_in_time(self, rng):
        shape = rng.standard_normal(32)
        z, _ = synthetic_traveling([TravelingProfile(shape, 0.0)], self.grid, self.tg)
        assert np.array_equal(z.values, np.tile(shape, (17, 1)))

    def test_unit_spike_permutation_rows(self):
        shape = np.zeros(32)
        shape[0] = 1.0
        # two cells per step
        speed = 2 * self.grid.h / (self.tg.times[1])
        z, _ = synthetic_traveling([TravelingProfile(shape, speed)], self.grid, self.tg)
        for k in range(17):
            row = np.zeros(32)
            row[(2 * k) % 32] = 1.0
            assert np.array_equal(z.values[k], row)

    def test_crossing_gaussians_exact_reconstruction(self):
        x = self.grid.nodes
        g1 = np.exp(-0.5 * ((x - 0.25) / 0.06) ** 2)
        g2 = np.exp(-0.5 * ((x - 0.75) / 0.06) ** 2)
        z, d = synthetic_traveling(
            [TravelingProfile(g1, 1.0), TravelingProfile(g2, -1.0)], self.grid, self.tg
        )
        recon = reconstruct(d)
        assert np.max(np.abs(recon.values - z.values)) <= 1e-12

    def test_true_decomposition_cost_vanishes(self):
        # supports stay disjoint for all times, so the Gram-assembled cost
        # cancels exactly; overlapping supports leave rounding at the
        # 1e-16 * |z|^2 level instead
        dt = self.tg.times[1]
        shapes = [np.zeros(32), np.zeros(32)]
        shapes[0][4] = 1.0
        shapes[1][12] = 1.0
        z, d = synthetic_traveling(
            [
                TravelingProfile(shapes[0], 0.0),
                TravelingProfile(shapes[1], self.grid.h / dt, amplitude=0.5),
            ],
            self.grid,
            self.tg,
        )
        assert eval_cost(z, d) <= 1e-20 * data_norm_sq(z)

    def test_amplitude_callable(self):
        shape = np.zeros(32)
        shape[5] = 1.0
        amp = lambda t: 1.0 + t
        z, d = synthetic_traveling(
            [TravelingProfile(shape, 0.0, amplitude=amp)], self.grid, self.tg
        )
        assert z.values[-1, 5] == pytest.approx(2.0, abs=1e-15)

    def test_empty_profiles_rejected(self):
        with pytest.raises(ValueError):
            synthetic_traveling([], self.grid, self.tg)
