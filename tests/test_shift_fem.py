import numpy as np
import pytest

from spod.core import SpatialGrid, make_uniform_time_grid
from spod.generators import TravelingProfile, synthetic_traveling
from spod.shift_fem import (
    BAND_OFFSETS,
    apply_gram,
    decompose_shift,
    gram_F,
    gram_G,
    periodic_windows,
    roll_rows,
    shift_field,
    shift_rows,
    stiffness_gram,
    zero_shift_grams,
)

from oracles import eval_p1, gram_to_dense, quadrature_inner_oracle

GRID = SpatialGrid(10, 1.0)


class TestDecomposeShift:
    def test_plain(self):
        q, frac = decompose_shift(0.25, GRID)
        assert q == 2 and abs(frac - 0.05) < 1e-12

    def test_negative_wraps(self):
        q, frac = decompose_shift(-0.03, GRID)
        assert q == 9 and abs(frac - 0.07) < 1e-12

    def test_exact_cell(self):
        q, frac = decompose_shift(GRID.h, GRID)
        assert q == 1 and frac == 0.0

    def test_range(self, rng):
        for p in rng.uniform(-50, 50, 200):
            q, frac = decompose_shift(float(p), GRID)
            assert 0 <= q < GRID.n
            assert 0.0 <= frac < GRID.h
            recon = (q * GRID.h + frac) % GRID.length
            assert abs(recon - p % GRID.length) < 1e-12 or abs(recon - p % GRID.length - 1.0) < 1e-12


class TestGramF:
    def test_zero_shift_is_mass_stencil(self):
        g = gram_F(0.0, GRID)
        h = GRID.h
        assert np.allclose(g.band, [0.0, h / 6, 2 * h / 3, h / 6], atol=1e-16)

    def test_half_cell_unit_mesh(self):
        grid = SpatialGrid(4, 4.0)  # h = 1
        g = gram_F(0.5, grid)
        assert np.allclose(g.band, np.array([1, 23, 23, 1]) / 48.0, atol=1e-15)
        # cross-check every band slot against the quadrature oracle
        for d, delta in enumerate(BAND_OFFSETS):
            a = np.zeros(4)
            a[2] = 1.0
            b = np.zeros(4)
            b[(2 - g.offset_q + delta) % 4] = 1.0
            assert abs(quadrature_inner_oracle(a, b, 0.5, grid) - g.band[d]) < 1e-12

    def test_row_sums(self, rng):
        for p in rng.uniform(-3, 3, 50):
            assert abs(gram_F(float(p), GRID).band.sum() - GRID.h) < 1e-12
            assert abs(gram_G(float(p), GRID).band.sum()) < 1e-12


class TestGramG:
    def test_zero_shift(self):
        g = gram_G(0.0, GRID)
        assert np.allclose(g.band, [0.0, 0.5, 0.0, -0.5], atol=1e-16)

    def test_matches_fd_of_gram_f(self, rng):
        grid = SpatialGrid(24, 1.0)
        step = 1e-6
        checked = 0
        for p in rng.uniform(0, 1, 80):
            p = float(p)
            _, frac = decompose_shift(p, grid)
            if min(frac, grid.h - frac) < 1e-4 * grid.h + step:
                continue
            fd = (gram_F(p + step, grid).band - gram_F(p - step, grid).band) / (2 * step)
            assert np.max(np.abs(fd - gram_G(p, grid).band)) < 1e-6
            checked += 1
        assert checked > 50

    def test_quarter_cell_against_dp_oracle(self):
        grid = SpatialGrid(8, 1.0)
        p = grid.h / 4
        g = gram_G(p, grid)
        for d, delta in enumerate(BAND_OFFSETS):
            a = np.zeros(8)
            a[3] = 1.0
            b = np.zeros(8)
            b[(3 - g.offset_q + delta) % 8] = 1.0
            oracle = quadrature_inner_oracle(a, b, p, grid, derivative=True)
            assert abs(oracle - g.band[d]) < 1e-12


class TestTwoPathGrams:
    def test_same_path_is_mass(self, rng):
        for p in rng.uniform(-2, 2, 10):
            m = gram_F(float(p) - float(p), GRID)
            f0 = gram_F(0.0, GRID)
            assert m.offset_q == f0.offset_q
            assert np.array_equal(m.band, f0.band)

    def test_difference_rule(self):
        # 0.3 - 0.1 rounds just below 0.2, so compare the realized matrices
        m = gram_F(0.3 - 0.1, GRID)
        f = gram_F(0.2, GRID)
        assert np.max(np.abs(gram_to_dense(m) - gram_to_dense(f))) < 1e-12

    def test_n_same_path_is_g0(self):
        for p in (0.0, 0.37, -1.2):
            n = gram_G(p - p, GRID)
            g0 = gram_G(0.0, GRID)
            assert n.offset_q == g0.offset_q and np.array_equal(n.band, g0.band)


class TestApplyGram:
    def test_mass_times_ones(self):
        out = apply_gram(gram_F(0.0, GRID), np.ones(GRID.n))
        assert np.allclose(out, GRID.h, atol=1e-15)

    def test_g_times_ones(self):
        out = apply_gram(gram_G(0.0, GRID), np.ones(GRID.n))
        assert np.allclose(out, 0.0, atol=1e-15)

    def test_against_dense(self, rng):
        for p in rng.uniform(-2, 2, 8):
            g = gram_F(float(p), GRID)
            v = rng.standard_normal(GRID.n)
            assert np.max(np.abs(apply_gram(g, v) - gram_to_dense(g) @ v)) < 1e-13

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            apply_gram(gram_F(0.0, GRID), np.ones(GRID.n + 1))

    @pytest.mark.parametrize("gram", [gram_F, gram_G])
    @pytest.mark.parametrize("shape", [(GRID.n,), (6, GRID.n)], ids=["1-D", "2-D"])
    def test_bitwise_equal_to_roll_form(self, rng, gram, shape):
        for p in [0.0, GRID.h, -0.03, 0.57, 3.3, *rng.uniform(-5, 5, 6)]:
            g = gram(float(p), GRID)
            v = rng.standard_normal(shape)
            expected = np.zeros_like(v)
            for d, delta in enumerate(BAND_OFFSETS):
                expected += g.band[d] * np.roll(v, g.offset_q - delta, axis=-1)
            assert apply_gram(g, v).tobytes() == expected.tobytes()


class TestZeroShiftGrams:
    def test_cached_per_grid(self):
        F0, G0 = zero_shift_grams(SpatialGrid(10, 1.0))
        again = zero_shift_grams(SpatialGrid(10, 1.0))
        assert again[0] is F0 and again[1] is G0
        assert zero_shift_grams(SpatialGrid(12, 1.0))[0] is not F0

    def test_bands_equal_fresh_grams(self):
        F0, G0 = zero_shift_grams(GRID)
        for cached, fresh in ((F0, gram_F(0.0, GRID)), (G0, gram_G(0.0, GRID))):
            assert cached.offset_q == fresh.offset_q and cached.frac == fresh.frac
            assert cached.band.tobytes() == fresh.band.tobytes()


class TestPeriodicWindows:
    @pytest.mark.parametrize("n", [3, 11])
    @pytest.mark.parametrize("shape", [(), (5,), (2, 4)], ids=["1-D", "2-D", "3-D"])
    @pytest.mark.parametrize("q", ["0", "1", "n-1", "n", "-3", "2n+5"])
    def test_matches_roll_both_directions(self, rng, n, shape, q):
        q = {"0": 0, "1": 1, "n-1": n - 1, "n": n, "-3": -3, "2n+5": 2 * n + 5}[q]
        v = rng.standard_normal(shape + (n,))
        for sign in (1, -1):
            offsets = sorted(sign * (delta - q) for delta in BAND_OFFSETS)
            W = periodic_windows(v, offsets[0], offsets[-1])
            assert W.shape == shape + (len(offsets), n)
            for s, o in enumerate(offsets):
                assert W[..., s, :].tobytes() == np.roll(v, -o, axis=-1).tobytes()

    @pytest.mark.parametrize("shape", [(), (5,), (2, 4)], ids=["1-D", "2-D", "3-D"])
    @pytest.mark.parametrize("span", ["n-1", "n"])
    @pytest.mark.parametrize("lo", [0, -3, 25])
    def test_spans_up_to_n(self, rng, shape, span, lo):
        n = 11
        span = {"n-1": n - 1, "n": n}[span]
        v = rng.standard_normal(shape + (n,))
        W = periodic_windows(v, lo, lo + span)
        assert W.shape == shape + (span + 1, n)
        for s in range(span + 1):
            assert W[..., s, :].tobytes() == np.roll(v, -(lo + s), axis=-1).tobytes()

    @pytest.mark.parametrize("shape", [(11,), (4, 11), (2, 3, 11)], ids=["1-D", "2-D", "3-D"])
    def test_windows_share_one_padded_copy(self, rng, shape):
        v = rng.standard_normal(shape)
        W = periodic_windows(v, -3, 3)
        assert W.base.shape == shape[:-1] + (11 + 6,) and W.base.base is None
        assert all(np.shares_memory(W[..., 0, :], W[..., s, :]) for s in range(1, 7))
        assert not np.shares_memory(W, v)
        assert not W.flags.writeable


class TestShiftField:
    def test_whole_cell_rotation(self, rng):
        v = rng.standard_normal(GRID.n)
        assert np.array_equal(shift_field(GRID.h, v, GRID), np.roll(v, 1))

    def test_identity(self, rng):
        v = rng.standard_normal(GRID.n)
        assert np.array_equal(shift_field(0.0, v, GRID), v)

    def test_half_cell_spike(self):
        v = np.zeros(GRID.n)
        v[4] = 1.0
        out = shift_field(GRID.h / 2, v, GRID)
        expected = np.zeros(GRID.n)
        expected[4] = expected[5] = 0.5
        assert np.allclose(out, expected, atol=1e-15)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            shift_field(0.1, np.ones(3), GRID)


class TestRollRows:
    NT, N = 7, 12

    @pytest.mark.parametrize(
        "offsets",
        [
            lambda rng, nt, n: np.zeros(nt, dtype=np.int64),
            lambda rng, nt, n: np.full(nt, n - 1),
            lambda rng, nt, n: rng.integers(-3 * n, 0, nt),
            lambda rng, nt, n: rng.integers(n, 3 * n, nt),
        ],
        ids=["zero", "n-1", "negative", "beyond-n"],
    )
    def test_matches_per_row_roll(self, rng, offsets):
        A = rng.standard_normal((self.NT, self.N))
        q = offsets(rng, self.NT, self.N)
        expected = np.stack([np.roll(row, qk) for row, qk in zip(A, q)])
        assert roll_rows(A, q).tobytes() == expected.tobytes()


class TestShiftRows:
    GRID = SpatialGrid(16, 1.0)

    def _check_against_interpolant(self, rng, p):
        grid = self.GRID
        # values in [0, 0.5) bound the node-to-node jumps by 0.5, so snapping
        # a shift within ~1e-12 h of a node moves a value by at most ~5e-13
        A = rng.uniform(0.0, 0.5, (p.size, grid.n))
        out = shift_rows(A, p, grid)
        for k in range(p.size):
            expected = eval_p1(A[k], grid, grid.nodes - p[k])
            assert np.max(np.abs(out[k] - expected)) <= 1e-12

    def test_shifts_far_beyond_the_domain(self, rng):
        self._check_against_interpolant(rng, rng.uniform(50.0, 100.0, 9) * self.GRID.length)

    def test_negative_shifts(self, rng):
        self._check_against_interpolant(rng, rng.uniform(-3.0, 0.0, 9) * self.GRID.length)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_shifts_inside_the_snap_band(self, rng, sign):
        h = self.GRID.h
        cells = np.arange(-4, 2 * self.GRID.n)
        self._check_against_interpolant(rng, cells * h + sign * 1e-12 * h)

    def test_whole_cells_are_rotations(self, rng):
        A = rng.standard_normal((5, self.GRID.n))
        q = np.array([0, 1, 5, -3, 17])
        assert np.array_equal(shift_rows(A, q * self.GRID.h, self.GRID), roll_rows(A, q))

    def test_bitwise_equal_to_two_row_rotations(self, rng):
        # the blend of the rotations by q and q + 1, each its own roll_rows
        grid = self.GRID
        p = np.concatenate([rng.uniform(-3.0, 3.0, 40), grid.h * np.arange(-3, 2 * grid.n)])
        A = rng.standard_normal((p.size, grid.n))
        q, frac = decompose_shift(p, grid)
        theta = (frac / grid.h)[:, None]
        expected = (1.0 - theta) * roll_rows(A, q) + theta * roll_rows(A, q + 1)
        assert shift_rows(A, p, grid).tobytes() == expected.tobytes()


def _per_row_shift_field_reference(profiles, grid, tgrid):
    """synthetic_traveling as one whole-or-blended rotation per row."""
    times = tgrid.times
    values = np.zeros((times.size, grid.n))
    for prof in profiles:
        shape = np.asarray(prof.shape, dtype=float)
        amps = prof.amplitudes(times)
        pv = prof.speed * times
        for k in range(times.size):
            q, frac = decompose_shift(pv[k], grid)
            theta = frac / grid.h
            if theta == 0.0:
                row = np.roll(shape, q)
            else:
                row = (1.0 - theta) * np.roll(shape, q) + theta * np.roll(shape, q + 1)
            values[k] += amps[k] * row
    return values


@pytest.mark.parametrize("speeds", [(0.25, -0.5), (0.4137, -0.2871), (1.09, 0.0)])
def test_synthetic_traveling_matches_per_row_reference(rng, speeds):
    grid = SpatialGrid(64, 1.0)
    tgrid = make_uniform_time_grid(32, 1.0)
    profiles = [
        TravelingProfile(rng.standard_normal(grid.n), speeds[0], lambda t: 1.0 + 0.3 * np.sin(t)),
        TravelingProfile(rng.standard_normal(grid.n), speeds[1], -0.7),
    ]
    z, _ = synthetic_traveling(profiles, grid, tgrid)
    expected = _per_row_shift_field_reference(profiles, grid, tgrid)
    assert z.values.tobytes() == expected.tobytes()


class TestQuadratureOracle:
    def test_hat_self_product(self):
        a = np.zeros(GRID.n)
        a[0] = 1.0
        val = quadrature_inner_oracle(a, a, 0.0, GRID)
        assert abs(val - 2 * GRID.h / 3) < 1e-12

    def test_band_assembly_agreement(self, rng):
        grid = SpatialGrid(12, 1.0)
        for _ in range(5):
            a = rng.standard_normal(grid.n)
            b = rng.standard_normal(grid.n)
            p = float(rng.uniform(-2, 2))
            exact = float(a @ apply_gram(gram_F(p, grid), b))
            assert abs(exact - quadrature_inner_oracle(a, b, p, grid)) < 1e-12

    def test_half_domain_shift_of_triangle_wave(self):
        # triangle wave min(x, L-x) is P1-exact on an even grid; its overlap
        # with the half-period shift integrates to L^3/24
        grid = SpatialGrid(16, 2.0)
        x = grid.nodes
        tri = np.minimum(x, grid.length - x)
        val = quadrature_inner_oracle(tri, tri, grid.length / 2, grid)
        assert abs(val - grid.length**3 / 24) < 1e-12
        exact = float(tri @ apply_gram(gram_F(grid.length / 2, grid), tri))
        assert abs(exact - grid.length**3 / 24) < 1e-12


class TestStiffness:
    def test_constants_in_kernel(self):
        out = apply_gram(stiffness_gram(GRID), np.full(GRID.n, 3.7))
        assert np.allclose(out, 0.0, atol=1e-12)

    def test_positive_semidefinite(self, rng):
        s = stiffness_gram(GRID)
        for _ in range(20):
            v = rng.standard_normal(GRID.n)
            assert float(v @ apply_gram(s, v)) >= -1e-12

    def test_half_mesh(self):
        s = stiffness_gram(SpatialGrid(4, 2.0))
        assert np.allclose(s.band, [0.0, -2.0, 4.0, -2.0], atol=1e-15)


class TestStructuralInvariants:
    def test_transpose_identity(self, rng):
        for p in rng.uniform(-2, 2, 10):
            A = gram_to_dense(gram_F(float(p), GRID))
            B = gram_to_dense(gram_F(float(-p), GRID))
            assert np.max(np.abs(A.T - B)) < 1e-15

    def test_asymmetric_away_from_zero(self):
        A = gram_to_dense(gram_F(0.35 * GRID.h, GRID))
        assert np.max(np.abs(A - A.T)) > 1e-4

    def test_periodicity_bit_identical(self):
        # dyadic shifts stay exact under adding one period
        for p in (0.125, 0.375, -0.25, 0.0625):
            a = gram_F(p, GRID)
            b = gram_F(p + GRID.length, GRID)
            assert a.offset_q == b.offset_q
            assert np.array_equal(a.band, b.band)

    def test_shift_isometry(self, rng):
        # v^T M(p,p) v equals v^T F(0) v, and the quadrature of the shifted
        # field's square matches the unshifted one
        v = rng.standard_normal(GRID.n)
        for p in (0.234, 1.7, -0.41):
            m = gram_F(p - p, GRID)
            assert float(v @ apply_gram(m, v)) == pytest.approx(
                float(v @ apply_gram(gram_F(0.0, GRID), v)), abs=1e-15
            )
            panels = 10**4 * GRID.n
            dx = GRID.length / panels
            xm = (np.arange(panels) + 0.5) * dx
            shifted_sq = float(np.sum(eval_p1(v, GRID, xm - p) ** 2) * dx)
            plain_sq = float(np.sum(eval_p1(v, GRID, xm) ** 2) * dx)
            assert abs(shifted_sq - plain_sq) < 1e-8
