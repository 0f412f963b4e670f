import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import spod
from spod.cli import _build_parser, main
from spod.core import (
    SpatialGrid,
    load_decomposition,
    load_snapshots,
    make_uniform_time_grid,
    save_snapshots,
)
from spod.generators import BurgersParams, TravelingProfile, burgers_analytic, synthetic_traveling


@pytest.fixture
def exact_fixture_file(tmp_path):
    """Single traveling Gaussian whose truth matches the CLI initialization:
    mode = first snapshot, coefficients = 1, path = linear."""
    grid = SpatialGrid(40, 1.0)
    tg = make_uniform_time_grid(20, 1.0)
    x = grid.nodes
    shape = np.exp(-0.5 * ((x - 0.4) / 0.08) ** 2)
    speed = 2 * grid.h / tg.times[1]  # two cells per step
    z, _ = synthetic_traveling([TravelingProfile(shape, speed)], grid, tg)
    path = tmp_path / "exact.spod"
    save_snapshots(z, path)
    return path, speed


class TestGenerate:
    def test_synthetic_roundtrip_and_determinism(self, tmp_path):
        out = tmp_path / "syn.spod"
        assert main(["generate", "synthetic", "--nx", "32", "--nt", "16", "-o", str(out)]) == 0
        z = load_snapshots(out)
        assert z.values.shape == (17, 32)
        first = out.read_bytes()
        assert main(["generate", "synthetic", "--nx", "32", "--nt", "16", "-o", str(out)]) == 0
        assert out.read_bytes() == first

    def test_burgers_dimensions(self, tmp_path):
        out = tmp_path / "b.spod"
        code = main(
            ["generate", "burgers", "--re", "1000", "--nx", "60", "--nt", "40", "-o", str(out)]
        )
        assert code == 0
        z = load_snapshots(out)
        assert z.values.shape == (41, 60)
        manifest = json.loads((tmp_path / "b.spod.manifest.json").read_text())
        assert manifest["config"]["re"] == 1000
        assert manifest["command"] == "generate"

    def test_missing_output_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["generate", "burgers"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "extra, code",
        [(["--a", "nan"], 2), (["--nu", "nan"], 2), (["--eps", "inf"], 2), (["--b", "nan"], 2),
         (["--a", "1e6"], 1)],
        ids=["a-nan", "nu-nan", "eps-inf", "b-nan", "a-blowup"],
    )
    def test_bad_fhn_parameter_is_one_error_line(self, tmp_path, capsys, extra, code):
        out = tmp_path / "f.spod"
        capsys.readouterr()
        argv = ["generate", "fhn", "--dt-int", "0.05", "--tfinal", "20", *extra, "-o", str(out)]
        assert main(argv) == code
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert ("dt_int" in err[0]) == (code == 1)
        assert not out.exists()


@pytest.mark.parametrize(
    "argv, skipped",
    [
        (["generate", "burgers", "--re", "500", "--nx", "20", "--nt", "10"], ()),
        (["generate", "fhn", "--tfinal", "2", "--h", "1.0", "--dt-int", "0.05"], ()),
        (["generate", "synthetic", "--nx", "16", "--nt", "8"], ()),
        (["decompose", "{src}", "--frames", "r=1,path=linear:0.5", "--iters", "2",
          "--memory", "3", "--penalty-lambda", "0.5", "--progress"],
         ("require_converged", "progress")),
        (["decompose", "{src}", "--mode", "path-only", "--r", "1",
          "--frames", "r=1,path=linear:0.5", "--iters", "2"],
         ("require_converged", "progress")),
        (["pod", "{src}", "--r", "2"], ()),
    ],
    ids=["burgers", "fhn", "synthetic", "decompose", "path-only", "pod"],
)
def test_manifest_config_echoes_every_parsed_argument(tmp_path, exact_fixture_file, argv, skipped):
    """A rerun from the manifest needs every option: none may drop out of its config."""
    src, _ = exact_fixture_file
    out = tmp_path / "out"
    argv = [str(src) if a == "{src}" else a for a in argv] + ["-o", str(out)]
    assert main(argv) == 0
    dropped = {"command", "input", "output", *skipped}
    expected = {k: v for k, v in vars(_build_parser().parse_args(argv)).items() if k not in dropped}
    config = json.loads(out.with_name("out.manifest.json").read_text())["config"]
    assert {k: config.get(k, "<missing>") for k in expected} == expected
    derived = {"coarsened"} if argv[1] == "fhn" else set()
    assert set(config) - set(expected) == derived


class TestDecompose:
    def test_exact_fixture_truth_init(self, tmp_path, exact_fixture_file):
        src, speed = exact_fixture_file
        out = tmp_path / "exact.decomp"
        code = main(
            [
                "decompose",
                str(src),
                "--frames",
                f"r=1,path=linear:{speed}",
                "--iters",
                "50",
                "-o",
                str(out),
            ]
        )
        assert code == 0
        manifest = json.loads((tmp_path / "exact.decomp.manifest.json").read_text())
        assert manifest["final_relative_error"] <= 1e-10
        assert manifest["iterations"] == 0
        assert manifest["n_objective_evals"] == 1
        assert "n_gradient_evals" not in manifest
        assert manifest["termination"] == "converged"

    def test_outputs_are_deterministic(self, tmp_path, exact_fixture_file):
        src, speed = exact_fixture_file
        out = tmp_path / "d.decomp"
        argv = [
            "decompose",
            str(src),
            "--frames",
            f"r=1,path=linear:{0.7 * speed}",
            "--iters",
            "20",
            "-o",
            str(out),
        ]
        assert main(argv) == 0
        first = out.read_bytes()
        assert main(argv) == 0
        assert out.read_bytes() == first

    def test_path_only_mode(self, tmp_path, exact_fixture_file):
        src, speed = exact_fixture_file
        out = tmp_path / "po.decomp"
        code = main(
            [
                "decompose",
                str(src),
                "--mode",
                "path-only",
                "--r",
                "1",
                "--frames",
                f"r=1,path=linear:{speed}",
                "--iters",
                "30",
                "-o",
                str(out),
            ]
        )
        assert code == 0
        manifest = json.loads((tmp_path / "po.decomp.manifest.json").read_text())
        assert manifest["final_relative_error"] <= 1e-8
        assert "isometry_defect" in manifest

    @pytest.mark.parametrize(
        "rank_args",
        [["--r", "2", "--frames", "r=2,{path}"], ["--r", "2", "--frames", "{path}"],
         ["--frames", "r=2,{path}"]],
        ids=["equal", "option-alone", "spec-alone"],
    )
    def test_path_only_rank_from_either_form(self, tmp_path, exact_fixture_file, rank_args):
        # --r and the r= of --frames may both be given only when they agree
        src, speed = exact_fixture_file
        out = tmp_path / "po.decomp"
        path = f"path=linear:{speed}"
        argv = ["decompose", str(src), "--mode", "path-only",
                *(arg.format(path=path) for arg in rank_args), "--iters", "3", "-o", str(out)]
        assert main(argv) == 0
        assert load_decomposition(out).total_modes == 2

    def test_nodal_file_path_spec(self, tmp_path, exact_fixture_file):
        src, speed = exact_fixture_file
        z = load_snapshots(src)
        pfile = tmp_path / "path.csv"
        np.savetxt(pfile, speed * z.tgrid.times, delimiter=",")
        out = tmp_path / "nf.decomp"
        code = main(
            [
                "decompose",
                str(src),
                "--frames",
                f"r=1,path=nodal-file:{pfile}",
                "--iters",
                "5",
                "-o",
                str(out),
            ]
        )
        assert code == 0
        manifest = json.loads((tmp_path / "nf.decomp.manifest.json").read_text())
        assert manifest["final_relative_error"] <= 1e-10

    def test_progress_prints_every_iteration(self, tmp_path, capsys, monkeypatch):
        import spod.optimizer

        results = []
        lbfgs = spod.optimizer.lbfgs_minimize

        def recorded(*args):
            x, result = lbfgs(*args)
            results.append(result)
            return x, result

        monkeypatch.setattr(spod.optimizer, "lbfgs_minimize", recorded)
        data = tmp_path / "b.spod"
        save_snapshots(burgers_analytic(BurgersParams(nx_intervals=60, nt_intervals=40)), data)
        out = tmp_path / "b.decomp"
        capsys.readouterr()
        argv = ["decompose", str(data), "--frames", "r=2,path=linear:0.185", "--iters", "12",
                "--progress", "-o", str(out)]
        assert main(argv) == 0
        lines = capsys.readouterr().err.splitlines()
        manifest = json.loads((tmp_path / "b.decomp.manifest.json").read_text())
        assert manifest["iterations"] > 0
        # the manifest repeats the fit's count: one evaluation at the start
        # and at least one per iteration
        [result] = results
        assert manifest["n_objective_evals"] == result.n_evals
        assert manifest["n_objective_evals"] >= manifest["iterations"] + 1
        fields = [line.split() for line in lines]
        assert [f[0] for f in fields] == ["iter"] * len(lines)
        assert [int(f[1]) for f in fields] == list(range(manifest["iterations"] + 1))
        assert fields[-1][2:4] == ["cost", f"{manifest['final_cost']:.6e}"]

    def test_require_converged_failure_exit(self, tmp_path, exact_fixture_file):
        src, speed = exact_fixture_file
        out = tmp_path / "nc.decomp"
        code = main(
            [
                "decompose",
                str(src),
                "--frames",
                f"r=1,path=linear:{0.5 * speed}",
                "--iters",
                "2",
                "--grad-tol",
                "1e-14",
                "--require-converged",
                "-o",
                str(out),
            ]
        )
        assert code == 1

    def test_require_converged_accepts_a_stalled_fit(self, tmp_path):
        # a cost that stops falling ends the fit "stalled" long before its
        # --grad-tol or --iters; --require-converged takes that as an answer
        src = tmp_path / "b.spod"
        assert main(["generate", "burgers", "--re", "500", "--nx", "20", "--nt", "10",
                     "-o", str(src)]) == 0
        out = tmp_path / "stalled.decomp"
        code = main(["decompose", str(src), "--frames", "r=2,path=linear:0.185",
                     "--iters", "2000", "--grad-tol", "1e-14", "--require-converged",
                     "-o", str(out)])
        assert code == 0
        manifest = json.loads((tmp_path / "stalled.decomp.manifest.json").read_text())
        assert manifest["termination"] == "stalled"
        assert manifest["iterations"] < 2000

    def test_oversized_rank_is_usage_error(self, tmp_path, exact_fixture_file):
        src, _ = exact_fixture_file
        code = main(
            [
                "decompose",
                str(src),
                "--frames",
                "r=999,path=linear:0.0",
                "-o",
                str(src.parent / "x.decomp"),
            ]
        )
        assert code == 2

    @pytest.mark.parametrize(
        "extra",
        [
            ["--mode", "path-only", "--penalty-lambda", "5"],
            ["--mode", "full", "--r", "3"],
            ["--mode", "full", "--penalty-c", "5"],
            ["--mode", "path-only", "--penalty-c", "5"],
            ["--mode", "full", "--penalty-lambda", "nan"],
            ["--mode", "path-only", "--penalty-lambda", "nan"],
            ["--mode", "full", "--grad-tol", "nan"],
            ["--mode", "path-only", "--grad-tol", "nan"],
            ["--mode", "full", "--grad-tol", "-1"],
            ["--mode", "full", "--penalty-lambda", "1", "--penalty-c", "inf"],
            ["--mode", "path-only", "--r", "2"],
        ],
        ids=["path-only-penalty", "full-r", "full-penalty-c", "path-only-penalty-c",
             "full-penalty-nan", "path-only-penalty-nan", "full-grad-tol-nan",
             "path-only-grad-tol-nan", "full-grad-tol-negative", "full-penalty-c-inf",
             "path-only-r-conflict"],
    )
    def test_option_the_mode_ignores_is_usage_error(
        self, tmp_path, exact_fixture_file, capsys, extra
    ):
        src, speed = exact_fixture_file
        out = tmp_path / "x.decomp"
        capsys.readouterr()
        argv = ["decompose", str(src), "--frames", f"r=1,path=linear:{speed}", *extra]
        assert main(argv + ["-o", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert not out.exists()

    def test_missing_input_is_io_error(self, tmp_path):
        code = main(
            [
                "decompose",
                str(tmp_path / "nope.spod"),
                "--frames",
                "r=1,path=linear:0.0",
                "-o",
                str(tmp_path / "x.decomp"),
            ]
        )
        assert code == 3


class TestPodAndCompare:
    def test_pod_manifest(self, tmp_path, exact_fixture_file):
        src, _ = exact_fixture_file
        out = tmp_path / "p.decomp"
        assert main(["pod", str(src), "--r", "2", "-o", str(out)]) == 0
        manifest = json.loads((tmp_path / "p.decomp.manifest.json").read_text())
        assert 0.0 <= manifest["final_relative_error"] <= 1.0
        assert len(manifest["singular_values"]) == 21

    def test_compare_orders_methods(self, tmp_path, exact_fixture_file, capsys):
        src, speed = exact_fixture_file
        dec = tmp_path / "s.decomp"
        main(
            [
                "decompose",
                str(src),
                "--frames",
                f"r=1,path=linear:{speed}",
                "--iters",
                "5",
                "-o",
                str(dec),
            ]
        )
        csv = tmp_path / "cmp.csv"
        code = main(
            ["compare", str(src), "--decomp", str(dec), "--pod", "1", "--csv", str(csv)]
        )
        assert code == 0
        table = capsys.readouterr().out.splitlines()
        rows = [line.split() for line in table if line and not line.startswith("method")]
        errs = {row[0]: float(row[2]) for row in rows if row[1] == "1"}
        assert errs["spod"] < errs["pod"]
        lines = csv.read_text().splitlines()
        assert lines[0] == "method,r,rel_l2_error,source"
        assert len(lines) == 3

    @pytest.mark.parametrize("extra", [[], ["--decomp", "--pod"]], ids=["none", "empty"])
    def test_compare_without_methods_is_usage_error(
        self, tmp_path, exact_fixture_file, capsys, extra
    ):
        src, _ = exact_fixture_file
        csv = tmp_path / "cmp.csv"
        capsys.readouterr()
        assert main(["compare", str(src), *extra, "--csv", str(csv)]) == 2
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert captured.out == "" and not csv.exists()


class TestGradcheck:
    def test_builtin_fixture_passes(self, capsys):
        assert main(["gradcheck"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out

    def test_on_data_file(self, tmp_path, exact_fixture_file, capsys):
        src, speed = exact_fixture_file
        # offset path so the gradient is not evaluated at a kink
        code = main(["gradcheck", str(src), "--frames", f"r=1,path=poly:0.003;{0.9 * speed}"])
        assert code == 0
        assert "PASS" in capsys.readouterr().out

    def test_frames_without_data_file_is_usage_error(self, capsys):
        # the built-in fixture has its own frames; the option would do nothing
        capsys.readouterr()
        assert main(["gradcheck", "--frames", "r=1,path=linear:0.2"]) == 2
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert captured.out == ""


class TestExportHeatmap:
    def test_from_snapshots(self, tmp_path, exact_fixture_file):
        src, _ = exact_fixture_file
        out = tmp_path / "hm.csv"
        assert main(["export-heatmap", str(src), "-o", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t,x,value"
        assert len(lines) == 1 + 21 * 40

    def test_from_decomposition(self, tmp_path, exact_fixture_file):
        src, speed = exact_fixture_file
        dec = tmp_path / "d.decomp"
        main(
            [
                "decompose",
                str(src),
                "--frames",
                f"r=1,path=linear:{speed}",
                "--iters",
                "2",
                "-o",
                str(dec),
            ]
        )
        out = tmp_path / "hm.csv"
        assert main(["export-heatmap", str(dec), "-o", str(out)]) == 0
        assert out.read_text().startswith("t,x,value")

    def test_decomposition_roundtrip_matches(self, tmp_path, exact_fixture_file):
        from spod.core import load_decomposition, save_decomposition
        from spod.cost_grad import reconstruct

        src, speed = exact_fixture_file
        dec = tmp_path / "d.decomp"
        main(
            [
                "decompose",
                str(src),
                "--frames",
                f"r=1,path=linear:{speed}",
                "--iters",
                "2",
                "-o",
                str(dec),
            ]
        )
        d = load_decomposition(dec)
        again = tmp_path / "again.decomp"
        save_decomposition(d, again)
        assert again.read_bytes() == dec.read_bytes()
        reconstruct(d)  # loaded object is well-formed


def _stderr_lines(capsys) -> list[str]:
    return capsys.readouterr().err.strip().splitlines()


class TestMalformedInput:
    """Broken input files end in exit 3 with one stderr line naming the line."""

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda text: text[:3000],
            lambda text: text.replace("nframes=1", "nframes", 1),
            lambda text: text.replace("length=1", "length=nan", 1),
            lambda text: text.replace("length=1", "length=inf", 1),
            lambda text: text.replace("nframes=1", "nframes=2", 1),
            lambda text: text.replace("path_kind=", "kind=", 1),
            lambda text: text.replace("modes=2 60", "modes=2", 1),
            lambda text: text.replace("modes=2 60", "modes=2 100000000000", 1),
            lambda text: text.replace("\ncoeffs=", " x\ncoeffs=", 1),
            lambda text: text + "garbage line\n[frame]\n",
            lambda text: text[: text.index("modes=")] + "modes=0 60\ncoeffs=41 0\n" + "\n" * 41,
        ],
        ids=["cut", "token-without-=", "length-nan", "length-inf", "missing-frame",
             "wrong-key", "short-shape", "huge-shape", "bad-row", "trailing-content",
             "zero-width"],
    )
    def test_decomposition_file(self, tmp_path, capsys, corrupt):
        z = burgers_analytic(BurgersParams(nx_intervals=60, nt_intervals=40))
        data = tmp_path / "b.spod"
        save_snapshots(z, data)
        good = tmp_path / "good.decomp"
        assert main(["pod", str(data), "--r", "2", "-o", str(good)]) == 0
        text = good.read_text()
        assert len(text) > 3000
        bad = tmp_path / "bad.decomp"
        bad.write_text(corrupt(text))
        capsys.readouterr()
        assert main(["compare", str(data), "--decomp", str(bad)]) == 3
        err = _stderr_lines(capsys)
        assert len(err) == 1 and err[0].startswith(f"error: {bad}: line ")

    @pytest.mark.parametrize(
        "header",
        ["nt 21 nx 40 length nan tfinal 1", "nt 21 nx 40 length inf tfinal 1",
         "nt 21 nx 40 length 1 tfinal inf", "nt 21 nx 40 length -inf tfinal 1",
         "nt 100000000000 nx 4 length 1 tfinal 1", "nt 2 nx 100000000000 length 1 tfinal 1"],
    )
    def test_snapshot_file(self, tmp_path, capsys, exact_fixture_file, header):
        src, _ = exact_fixture_file
        lines = src.read_text().splitlines()
        lines[1] = header
        bad = tmp_path / "bad.spod"
        bad.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["pod", str(bad), "--r", "1", "-o", str(tmp_path / "p.decomp")]) == 3
        err = _stderr_lines(capsys)
        assert len(err) == 1 and err[0].startswith(f"error: {bad}: line 2: ")

    @pytest.mark.parametrize("command", ["pod", "export-heatmap"])
    def test_non_utf8_file(self, tmp_path, capsys, command):
        bad = tmp_path / "bad.spod"
        bad.write_bytes(b"# spod-v1\nnt 2 nx 3 length 1 tfinal 1\n\xff\xfe 0 0\n0 0 0\n")
        argv = [command, str(bad), "-o", str(tmp_path / "out")]
        capsys.readouterr()
        assert main(argv + (["--r", "1"] if command == "pod" else [])) == 3
        assert len(_stderr_lines(capsys)) == 1


def test_outputs_identical_across_blas_thread_counts(tmp_path):
    """The byte-for-byte rerun claim holds with one and with two BLAS threads."""
    data = tmp_path / "burgers.spod"
    save_snapshots(burgers_analytic(), data)
    src_dir = str(Path(spod.__file__).resolve().parents[1])
    commands = {
        "full": ["decompose", data, "--frames", "r=2,path=linear:0.185", "--iters", "300"],
        "two-frame": ["decompose", data, "--frames", "r=1,path=linear:0.185",
                      "--frames", "r=1,path=linear:0", "--iters", "100"],
        "path-only": ["decompose", data, "--mode", "path-only", "--r", "3",
                      "--frames", "r=3,path=linear:0.185", "--iters", "30"],
        "pod": ["pod", data, "--r", "3"],
        "generate": ["generate", "fhn", "--tfinal", "20", "--dt-int", "0.05"],
    }
    outputs = {}
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src_dir, env.get("PYTHONPATH")]))
        for name, argv in commands.items():
            out = tmp_path / f"{name}-{threads}.out"
            subprocess.run(
                [sys.executable, "-m", "spod.cli", *map(str, argv), "-o", str(out)],
                env=env, check=True, capture_output=True,
            )
            outputs[name, threads] = out.read_bytes()
    for name in commands:
        assert outputs[name, "1"] == outputs[name, "2"], name
