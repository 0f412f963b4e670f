import io
import math

import numpy as np
import pytest

from spod.core import (
    SnapshotFormatError,
    SnapshotSet,
    SpatialGrid,
    TimeGrid,
    export_heatmap,
    load_snapshots,
    make_uniform_time_grid,
    relative_l2_error,
    save_decomposition,
    save_snapshots,
)
from spod.cost_grad import Decomposition, Frame, PathRepr


def make_set(values, length=1.0, tfinal=1.0):
    values = np.asarray(values, dtype=float)
    grid = SpatialGrid(values.shape[1], length)
    tgrid = make_uniform_time_grid(values.shape[0] - 1, tfinal)
    return SnapshotSet(grid, tgrid, values)


class TestTimeGrid:
    def test_trapezoid_weights_m4(self):
        tg = make_uniform_time_grid(4, 1.0)
        assert np.allclose(tg.weights, [0.125, 0.25, 0.25, 0.25, 0.125], atol=0)

    def test_single_interval(self):
        tg = make_uniform_time_grid(1, 2.0)
        assert np.allclose(tg.weights, [1.0, 1.0], atol=0)

    def test_weights_sum_exact(self):
        tg = make_uniform_time_grid(100, 2.0)
        assert math.fsum(tg.weights) == 2.0

    @pytest.mark.parametrize("m", [1, 2, 7, 33, 1000])
    def test_weights_sum_all_m(self, m):
        T = 3.7
        tg = make_uniform_time_grid(m, T)
        assert abs(math.fsum(tg.weights) - T) <= 1e-12 * T

    def test_nonuniform_weights(self):
        times = np.array([0.0, 0.1, 0.4, 1.0])
        tg = TimeGrid.from_times(times)
        assert abs(math.fsum(tg.weights) - 1.0) <= 1e-12
        assert np.allclose(tg.weights, [0.05, 0.2, 0.45, 0.3])

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            make_uniform_time_grid(0, 1.0)
        with pytest.raises(ValueError):
            make_uniform_time_grid(4, 0.0)
        with pytest.raises(ValueError):
            TimeGrid.from_times([0.0, 0.5, 0.5, 1.0])
        with pytest.raises(ValueError):
            TimeGrid.from_times([0.5, 1.0])


class TestSpatialGrid:
    def test_mesh_width(self):
        g = SpatialGrid(10, 2.0)
        assert g.h == 0.2
        assert np.allclose(g.nodes, 0.2 * np.arange(10))

    def test_validation(self):
        with pytest.raises(ValueError):
            SpatialGrid(2, 1.0)
        with pytest.raises(ValueError):
            SpatialGrid(10, -1.0)


class TestSnapshotIO:
    def test_roundtrip_bit_identical(self, rng, tmp_path):
        z = make_set(rng.standard_normal((3, 4)), length=0.7, tfinal=1.3)
        path = tmp_path / "z.spod"
        save_snapshots(z, path)
        back = load_snapshots(path)
        assert np.array_equal(back.values, z.values)
        assert back.grid == z.grid
        assert back.tgrid == z.tgrid

    def test_roundtrip_awkward_values(self, tmp_path):
        vals = np.array([[1e-300, -1.0 / 3.0, 0.1, 7e300], [np.pi, -0.0, 2**-1074, 1.0]])
        z = make_set(vals)
        buf = io.StringIO()
        save_snapshots(z, buf)
        back = load_snapshots(io.StringIO(buf.getvalue()))
        assert np.array_equal(back.values, z.values)

    def test_written_bytes_pinned(self):
        # the exact %.17g text, so that a writer change cannot alter files unnoticed
        vals = np.array([[-0.0, 5e-324, 1.7976931348623157e308], [0.1, -1e-300, 3.0]])
        z = make_set(vals, length=0.1, tfinal=3.0)
        buf = io.StringIO()
        save_snapshots(z, buf)
        assert buf.getvalue() == (
            "# spod-v1\n"
            "nt 2 nx 3 length 0.10000000000000001 tfinal 3\n"
            "-0 4.9406564584124654e-324 1.7976931348623157e+308\n"
            "0.10000000000000001 -1e-300 3\n"
        )
        frames = (
            Frame(PathRepr.nodal([-1e-300, 0.1]), vals[:1], np.array([[3.0], [5e-324]])),
            Frame(PathRepr.polynomial([-0.0]), vals[1:], np.array([[-1e-300], [0.1]])),
        )
        buf = io.StringIO()
        save_decomposition(Decomposition(frames, z.grid, z.tgrid), buf)
        assert buf.getvalue() == (
            "# spod-decomp-v1\n"
            "nframes=2 nt=2 nx=3 length=0.10000000000000001 tfinal=3\n"
            "[frame]\n"
            "path_kind=nodal\n"
            "path=-1e-300 0.10000000000000001\n"
            "modes=1 3\n"
            "-0 4.9406564584124654e-324 1.7976931348623157e+308\n"
            "coeffs=2 1\n"
            "3\n"
            "4.9406564584124654e-324\n"
            "[frame]\n"
            "path_kind=polynomial\n"
            "path=-0\n"
            "modes=1 3\n"
            "0.10000000000000001 -1e-300 3\n"
            "coeffs=2 1\n"
            "-1e-300\n"
            "0.10000000000000001\n"
        )

    def test_wrong_column_count_cites_row(self):
        text = "# spod-v1\nnt 4 nx 4 length 1 tfinal 1\n" + "\n".join(
            ["0 0 0 0", "0 0 0 0", "0 0 0", "0 0 0 0"]
        )
        with pytest.raises(SnapshotFormatError, match="row 2"):
            load_snapshots(io.StringIO(text))

    def test_empty_file(self):
        with pytest.raises(SnapshotFormatError, match="line 1"):
            load_snapshots(io.StringIO(""))

    def test_malformed_header(self):
        with pytest.raises(SnapshotFormatError, match="line 2"):
            load_snapshots(io.StringIO("# spod-v1\nnt x nx 4\n"))

    def test_non_finite_value(self):
        text = "# spod-v1\nnt 2 nx 3 length 1 tfinal 1\n0 0 0\n0 nan 0\n"
        with pytest.raises(SnapshotFormatError, match="line 4"):
            load_snapshots(io.StringIO(text))

    def test_missing_rows(self):
        text = "# spod-v1\nnt 3 nx 3 length 1 tfinal 1\n0 0 0\n"
        with pytest.raises(SnapshotFormatError, match="expected 3 data rows"):
            load_snapshots(io.StringIO(text))

    def test_nonuniform_grid_rejected_on_save(self):
        tg = TimeGrid.from_times([0.0, 0.1, 1.0])
        z = SnapshotSet(SpatialGrid(3, 1.0), tg, np.zeros((3, 3)))
        with pytest.raises(ValueError, match="uniform"):
            save_snapshots(z, io.StringIO())


class TestRelativeError:
    def test_identical_fields(self, rng):
        z = make_set(rng.standard_normal((5, 8)))
        assert relative_l2_error(z, z) == 0.0

    def test_zero_reconstruction(self, rng):
        z = make_set(rng.standard_normal((5, 8)) + 1.0)
        zero = make_set(np.zeros((5, 8)))
        assert abs(relative_l2_error(z, zero) - 1.0) <= 1e-14

    def test_constant_fields(self):
        # closed form: |1 - 0.9| / |1| over the unit space-time box
        z = make_set(np.ones((11, 10)))
        zhat = make_set(np.full((11, 10), 0.9))
        assert abs(relative_l2_error(z, zhat) - 0.1) <= 1e-13

    def test_zero_data_raises(self):
        z = make_set(np.zeros((3, 4)))
        zhat = make_set(np.ones((3, 4)))
        with pytest.raises(ZeroDivisionError):
            relative_l2_error(z, zhat)

    def test_grid_mismatch(self, rng):
        z = make_set(rng.standard_normal((3, 4)))
        other = make_set(rng.standard_normal((3, 5)))
        with pytest.raises(ValueError):
            relative_l2_error(z, other)

    def test_triangle_like_bound(self, rng):
        for _ in range(20):
            vals = rng.standard_normal((4, 6))
            z = make_set(vals)
            a = make_set(rng.standard_normal((4, 6)))
            b = make_set(rng.standard_normal((4, 6)))
            w = z.tgrid.weights
            h = z.grid.h
            cross = math.sqrt(h * float(np.dot(w, np.sum((b.values - a.values) ** 2, axis=1))))
            den = math.sqrt(h * float(np.dot(w, np.sum(z.values**2, axis=1))))
            lhs = relative_l2_error(z, a)
            rhs = relative_l2_error(z, b) + cross / den
            assert lhs <= rhs + 1e-12


def test_heatmap_export(tmp_path):
    z = make_set(np.arange(6, dtype=float).reshape(2, 3), length=3.0, tfinal=1.0)
    out = tmp_path / "z.csv"
    export_heatmap(z, out)
    lines = out.read_text().splitlines()
    assert lines[0] == "t,x,value"
    assert len(lines) == 1 + 2 * 3
    assert lines[1] == "0,0,0"
    t, x, v = lines[-1].split(",")
    assert float(t) == 1.0 and float(x) == 2.0 and float(v) == 5.0
