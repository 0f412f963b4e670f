"""Tests of the benchmark's own checkers on small cases with known answers.

    PYTHONPATH=src python3 -m pytest benchmarks/test_checks.py -q
"""

import numpy as np
import pytest

import spod
from spod.generators import TravelingProfile, synthetic_traveling

from checks import (
    DensePod,
    directional_gradient_check,
    pattern_speed,
    read_decomposition,
    read_spod_v1,
)


@pytest.mark.parametrize("speed", [1.09, 0.73, -0.6, 0.3137])
def test_pattern_speed_recovers_fractional_cell_speeds(speed):
    # h = 0.5 and dt = 1: these speeds move 2.18, 1.46, -1.2 and 0.63 cells a step
    grid = spod.SpatialGrid(400, 200.0)
    tgrid = spod.make_uniform_time_grid(150, 150.0)
    x = grid.nodes
    shape = np.exp(-(((x - 60.0) / 6.0) ** 2)) + 0.6 * np.exp(-(((x - 140.0) / 4.0) ** 2))
    z, _ = synthetic_traveling([TravelingProfile(shape, speed)], grid, tgrid)
    assert pattern_speed(z.values, grid.h, tgrid.times) == pytest.approx(speed, abs=1e-3)
    late = pattern_speed(z.values, grid.h, tgrid.times, t_start=100.0)
    assert late == pytest.approx(speed, abs=1e-3)


def _mass(n, h):
    M = np.zeros((n, n))
    i = np.arange(n)
    M[i, i] = 4.0 * h / 6.0
    M[i, (i + 1) % n] += h / 6.0
    M[i, (i - 1) % n] += h / 6.0
    return M


@pytest.mark.parametrize("shape", [(9, 14), (20, 11), (16, 16)])
def test_dense_pod_spectrum_matches_gram_eigenvalues(shape):
    rng = np.random.default_rng(shape[0] * 100 + shape[1])
    nt, n = shape
    Z = rng.standard_normal(shape)
    pod = DensePod(Z, length=2.0, tfinal=3.0)
    h = 2.0 / n
    w = np.full(nt, 3.0 / (nt - 1))
    w[0] = w[-1] = 1.5 / (nt - 1)
    sw = np.sqrt(w)
    gram = (sw[:, None] * Z) @ _mass(n, h) @ (sw[:, None] * Z).T
    eig = np.sort(np.linalg.eigvalsh(gram))[::-1][: min(shape)]
    np.testing.assert_allclose(pod.s**2, eig, rtol=1e-10, atol=1e-12 * eig[0])


def test_dense_pod_truncation_identity():
    rng = np.random.default_rng(5)
    Z = rng.standard_normal((12, 10))
    pod = DensePod(Z, length=1.0, tfinal=1.0)
    for r in (1, 3, 6):
        resid = np.sqrt(pod.w)[:, None] * ((Z - pod.reconstruction(r)) @ pod.R)
        assert np.sum(resid**2) == pytest.approx(np.sum(pod.s[r:] ** 2), rel=1e-10)


def test_dense_pod_matches_program_pod_error():
    z = spod.burgers_analytic(spod.BurgersParams(nx_intervals=40, nt_intervals=30))
    pod = DensePod(z.values, z.grid.length, z.tgrid.tfinal)
    for r in (1, 2, 4):
        want = spod.relative_l2_error(z, spod.pod_reconstruction(spod.pod(z, r), z))
        assert pod.relative_error(r) == pytest.approx(want, rel=1e-8)


def _small_instance():
    grid = spod.SpatialGrid(20, 1.0)
    tgrid = spod.make_uniform_time_grid(10, 1.0)
    x, t = grid.nodes, tgrid.times
    z = spod.SnapshotSet(grid, tgrid, np.sin(2 * np.pi * (x[None, :] - 0.3 * t[:, None])))
    frame = spod.Frame(spod.PathRepr.nodal(0.27 * t), np.sin(2 * np.pi * x)[None, :],
                       np.ones((t.size, 1)))
    return z, spod.Decomposition((frame,), grid, tgrid)


def test_directional_gradient_check_passes_and_flags_a_wrong_gradient():
    z, d = _small_instance()
    gap, _, _ = directional_gradient_check(z, d, np.random.default_rng(1))
    assert gap <= 1e-5

    def scaled(z, d):
        g = spod.eval_cost_gradient(z, d)
        return spod.CostGradient(g.value, g.g_coeffs, tuple(1.01 * p for p in g.g_paths),
                                 g.g_modes)

    gap, _, _ = directional_gradient_check(z, d, np.random.default_rng(1), grad_fn=scaled)
    assert gap > 1e-4


def test_readers_parse_the_documented_formats(tmp_path):
    z, _ = _small_instance()
    spod.save_snapshots(z, tmp_path / "z.spod")
    values, length, tfinal = read_spod_v1(tmp_path / "z.spod")
    assert np.array_equal(values, z.values) and (length, tfinal) == (1.0, 1.0)

    (tmp_path / "d.decomp").write_text(
        "# spod-decomp-v1\n"
        "nframes=1 nt=3 nx=3 length=1 tfinal=2\n"
        "[frame]\n"
        "path_kind=nodal\n"
        "path=0 0.5 1\n"
        "modes=1 3\n"
        "1 2 3\n"
        "coeffs=3 1\n"
        "1\n0.5\n0.25\n"
    )
    d = read_decomposition(tmp_path / "d.decomp")
    (f,) = d["frames"]
    assert (d["nt"], d["nx"], d["length"], d["tfinal"]) == (3, 3, 1.0, 2.0)
    assert f["path_kind"] == "nodal" and f["path"].tolist() == [0.0, 0.5, 1.0]
    assert f["modes"].tolist() == [[1.0, 2.0, 3.0]]
    assert f["coeffs"].tolist() == [[1.0], [0.5], [0.25]]
