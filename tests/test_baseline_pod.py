import numpy as np
import pytest

from spod import baseline_pod
from spod.baseline_pod import (
    SUBSPACE_FACTOR,
    SUBSPACE_MAX_SWEEPS,
    _apply_symbol,
    _leading_svd,
    _mass_symbol,
    pod,
    pod_reconstruction,
    truncated_svd,
)
from spod.core import SnapshotSet, SpatialGrid, make_uniform_time_grid, relative_l2_error
from spod.shift_fem import apply_gram, gram_F

from oracles import x_weighted_relative_error


def make_set(values, length=1.0, tfinal=1.0):
    values = np.asarray(values, dtype=float)
    grid = SpatialGrid(values.shape[1], length)
    tgrid = make_uniform_time_grid(values.shape[0] - 1, tfinal)
    return SnapshotSet(grid, tgrid, values)


class TestTruncatedSvd:
    def test_rank_one(self, rng):
        u = rng.standard_normal(7)
        v = rng.standard_normal(5)
        A = np.outer(u, v)
        U, s, V = truncated_svd(A, 1)
        assert s[0] == pytest.approx(np.linalg.norm(u) * np.linalg.norm(v), rel=1e-12)
        assert np.max(np.abs(A - s[0] * np.outer(U[:, 0], V[:, 0]))) < 1e-12

    def test_identity(self):
        U, s, V = truncated_svd(np.eye(5), 3)
        assert np.allclose(s, 1.0, atol=1e-14)
        residual = np.eye(5) - (U * s) @ V.T
        assert np.linalg.norm(residual) ** 2 == pytest.approx(2.0, rel=1e-12)

    def test_against_gram_eigenvalue_oracle(self, rng):
        for _ in range(5):
            A = rng.standard_normal((20, 30))
            _, s, _ = truncated_svd(A, 20)
            eigs = np.sort(np.linalg.eigvalsh(A @ A.T))[::-1]
            oracle = np.sqrt(np.maximum(eigs, 0.0))
            assert np.max(np.abs(s - oracle)) <= 1e-10 * max(1.0, oracle[0])

    def test_truncation_energy_identity(self, rng):
        A = rng.standard_normal((12, 9))
        _, s_full, _ = truncated_svd(A, 9)
        for r in (1, 3, 7):
            U, s, V = truncated_svd(A, r)
            res = np.linalg.norm(A - (U * s) @ V.T, "fro") ** 2
            assert res == pytest.approx(float(np.sum(s_full[r:] ** 2)), rel=1e-10, abs=1e-12)

    def test_rank_out_of_range(self):
        with pytest.raises(ValueError):
            truncated_svd(np.eye(3), 4)
        with pytest.raises(ValueError):
            truncated_svd(np.eye(3), 0)


def spectrum_matrix(rng, nt, n, s):
    """``nt x n`` matrix with singular values ``s`` and random singular vectors."""
    U = np.linalg.qr(rng.standard_normal((nt, s.size)))[0]
    V = np.linalg.qr(rng.standard_normal((n, s.size)))[0]
    return (U * s) @ V.T


def spy_truncated_svd(monkeypatch):
    """``(shape, r)`` of every :func:`truncated_svd` call the module makes."""
    calls = []

    def spy(A, r):
        calls.append((np.shape(A), r))
        return truncated_svd(A, r)

    monkeypatch.setattr(baseline_pod, "truncated_svd", spy)
    return calls


class TestLeadingSvd:
    def assert_matches_full_svd(self, B, r, got):
        U, s, V, discarded = got
        U0, s0, Vt0 = np.linalg.svd(B, full_matrices=False)
        k = min(SUBSPACE_FACTOR * r, *B.shape)
        assert U.shape == (B.shape[0], r) and s.shape == (r,) and V.shape == (B.shape[1], k)
        assert np.max(np.abs(s - s0[:r]) / s0[:r]) <= 1e-12
        assert abs(discarded - 0.5 * np.sum(s0[r:] ** 2)) <= 1e-12 * np.sum(B**2)
        best = (U0[:, :r] * s0[:r]) @ Vt0[:r]
        assert np.max(np.abs((U * s) @ V[:, :r].T - best)) <= 1e-10

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_warm_start_from_perturbed_vectors(self, seed, svd_shapes):
        rng = np.random.default_rng(seed)
        B = spectrum_matrix(rng, 60, 50, 0.7 ** np.arange(50))
        V0 = np.linalg.svd(B)[2][:12].T + 1e-3 * rng.standard_normal((50, 12))
        svd_shapes.clear()
        got = _leading_svd(B, 4, V0)
        assert B.shape not in svd_shapes  # settled without the full SVD
        self.assert_matches_full_svd(B, 4, got)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_block_at_the_rounding_floor_settles_on_the_last_sweep(
        self, seed, svd_shapes, monkeypatch
    ):
        # a converged block whose energy moves by rounding on every sweep
        # straddles SUBSPACE_RTOL; below-zero stands in for missing it each time
        monkeypatch.setattr(baseline_pod, "SUBSPACE_RTOL", -1.0)
        rng = np.random.default_rng(seed)
        B = spectrum_matrix(rng, 60, 50, 0.7 ** np.arange(50))
        V0 = np.linalg.svd(B)[2][:12].T
        calls = spy_truncated_svd(monkeypatch)
        svd_shapes.clear()
        got = _leading_svd(B, 4, V0)
        assert B.shape not in svd_shapes
        assert len(calls) == SUBSPACE_MAX_SWEEPS
        self.assert_matches_full_svd(B, 4, got)

    @pytest.mark.parametrize("seed", [4, 5, 6])
    def test_warm_start_spanning_trailing_vectors(self, seed):
        # an invariant block: without a global check the sweeps settle on it
        rng = np.random.default_rng(seed)
        B = spectrum_matrix(rng, 60, 50, 0.8 ** np.arange(50))
        V0 = np.linalg.svd(B)[2][12:24].T
        self.assert_matches_full_svd(B, 4, _leading_svd(B, 4, V0))

    @pytest.mark.parametrize("seed", [15, 16, 17])
    def test_warm_start_missing_only_the_top_vector(self, seed, svd_shapes):
        # the invariant block v2..v13 leaves out v1 (energy 1) but less energy
        # than 38 s_13^2 outside it, so only the s_r^2 test can reject it
        rng = np.random.default_rng(seed)
        B = spectrum_matrix(rng, 60, 50, 0.9 ** np.arange(50))
        V0 = np.linalg.svd(B)[2][1:13].T
        svd_shapes.clear()
        got = _leading_svd(B, 4, V0)
        assert svd_shapes.count(B.shape) == 1
        self.assert_matches_full_svd(B, 4, got)

    @pytest.mark.parametrize("seed", [7, 8, 9])
    def test_flat_spectrum_falls_back(self, seed, svd_shapes, monkeypatch):
        # s_4 = s_13: the block of 12 columns cannot separate the leading four
        rng = np.random.default_rng(seed)
        B = spectrum_matrix(rng, 60, 50, np.r_[1.3, 1.2, 1.1, np.ones(47)])
        V0 = rng.standard_normal((50, 12))
        calls = spy_truncated_svd(monkeypatch)
        got = _leading_svd(B, 4, V0)
        assert svd_shapes.count(B.shape) == 1
        # the fall-back is criterion 8's kernel at full rank
        assert calls[-1] == (B.shape, min(B.shape))
        self.assert_matches_full_svd(B, 4, got)

    @pytest.mark.parametrize("seed", [10, 11, 12])
    def test_block_as_wide_as_the_matrix(self, seed):
        # k = min(3 r, nt, n) = nt = 9
        rng = np.random.default_rng(seed)
        B = rng.standard_normal((9, 16)) * 0.6 ** np.arange(16)
        V0 = np.linalg.svd(B)[2][:9].T + 1e-3 * rng.standard_normal((16, 9))
        self.assert_matches_full_svd(B, 4, _leading_svd(B, 4, V0))

    @pytest.mark.parametrize("seed", [13, 14])
    def test_cold_start_settles_without_the_full_svd(self, seed, svd_shapes):
        # the block starts from evenly spaced rows of B, not from a full SVD
        rng = np.random.default_rng(seed)
        B = spectrum_matrix(rng, 30, 20, 0.7 ** np.arange(20))
        got = _leading_svd(B, 2)
        assert svd_shapes and B.shape not in svd_shapes
        self.assert_matches_full_svd(B, 2, got)


class TestPod:
    def test_identical_rows_rank_one(self, rng):
        row = rng.standard_normal(12)
        z = make_set(np.tile(row, (6, 1)))
        pr = pod(z, 1)
        assert relative_l2_error(z, pod_reconstruction(pr, z)) <= 1e-10

    def test_separable_data_rank_one(self, rng):
        amp = 1.0 + rng.uniform(0, 1, 8)
        shape = rng.standard_normal(10)
        z = make_set(np.outer(amp, shape))
        pr = pod(z, 1)
        assert relative_l2_error(z, pod_reconstruction(pr, z)) <= 1e-10

    def test_one_truncated_svd_at_full_rank(self, rng, monkeypatch):
        # criterion 8's kernel is the one pod runs
        z = make_set(rng.standard_normal((9, 14)))
        calls = spy_truncated_svd(monkeypatch)
        pr = pod(z, 3)
        assert calls == [((9, 14), 9)]
        assert pr.singular_values.shape == (9,)

    def test_modes_are_x_orthonormal(self, rng):
        z = make_set(rng.standard_normal((9, 14)))
        pr = pod(z, 4)
        F0 = gram_F(0.0, z.grid)
        gram = pr.modes @ apply_gram(F0, pr.modes).T
        assert np.max(np.abs(gram - np.eye(4))) <= 1e-10

    def test_error_nonincreasing_in_rank(self, rng):
        z = make_set(rng.standard_normal((10, 12)))
        errors = [
            x_weighted_relative_error(z, pod_reconstruction(pod(z, r), z))
            for r in range(1, 9)
        ]
        assert np.all(np.diff(errors) <= 1e-12)

    def test_error_identity_against_spectrum(self, rng):
        z = make_set(rng.standard_normal((10, 12)))
        pr_full = pod(z, 1)
        s = pr_full.singular_values
        total = float(np.sum(s**2))
        for r in (1, 2, 5, 8):
            pr = pod(z, r)
            err = x_weighted_relative_error(z, pod_reconstruction(pr, z))
            identity = np.sqrt(float(np.sum(s[r:] ** 2)) / total)
            assert abs(err - identity) <= 1e-8

    def test_full_rank_reconstructs(self, rng):
        z = make_set(rng.standard_normal((6, 9)))
        pr = pod(z, 6)
        assert relative_l2_error(z, pod_reconstruction(pr, z)) <= 1e-10

    def test_rank_out_of_range(self, rng):
        z = make_set(rng.standard_normal((4, 6)))
        with pytest.raises(ValueError):
            pod(z, 5)

    def test_burgers_rank_one_error(self, burgers_data):
        pr = pod(burgers_data, 1)
        err = relative_l2_error(burgers_data, pod_reconstruction(pr, burgers_data))
        assert err == pytest.approx(4.499e-1, rel=0.02)

    def test_singular_values_nonincreasing(self, rng):
        z = make_set(rng.standard_normal((8, 11)))
        s = pod(z, 2).singular_values
        assert np.all(np.diff(s) <= 1e-14)


@pytest.mark.parametrize("n", [12, 13])
def test_apply_symbol_matches_complex_fft(rng, n):
    # the real transform of the even mass-root symbols against the full complex one
    rows = rng.standard_normal((7, n))
    sq = np.sqrt(_mass_symbol(SpatialGrid(n, 3.0)))
    for symbol in (sq, 1.0 / sq):
        full = np.fft.ifft(np.fft.fft(rows, axis=1) * symbol[None, :], axis=1).real
        out = _apply_symbol(rows, symbol)
        assert out.shape == rows.shape
        assert np.max(np.abs(out - full)) <= 1e-14 * np.max(np.abs(full))
