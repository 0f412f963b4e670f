"""Command-line interface: dataset generation, decomposition, POD baseline,
comparison tables, gradient checks, and heatmap export.

Every command that writes outputs also writes a JSON run manifest next to
them (atomically) echoing the full configuration; re-running with the echoed
configuration reproduces the data outputs byte for byte.

Exit codes: 0 success, 1 numerical failure (a blown-up integration, or a fit
that ended at ``max-iters`` or ``line-search-failure`` with
``--require-converged``, which accepts ``converged`` and ``stalled``), 2 usage
error, 3 I/O or parse error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .baseline_pod import as_decomposition, pod, pod_reconstruction, pod_spectrum
from .core import (
    _FMT,
    SnapshotFormatError,
    SnapshotSet,
    SpatialGrid,
    _write_lines,
    export_heatmap,
    load_decomposition,
    load_field,
    load_snapshots,
    make_uniform_time_grid,
    relative_l2_error,
    save_decomposition,
    save_snapshots,
)
from .cost_grad import Decomposition, Frame, PathRepr, eval_cost, eval_cost_gradient, reconstruct
from .generators import (
    BurgersParams,
    FhnParams,
    IntegratorBlowupError,
    TravelingProfile,
    burgers_analytic,
    fhn_simulate,
    synthetic_traveling,
)
from .optimizer import (
    OptimizerConfig,
    _keep_freed_memory,
    optimize_decomposition,
    optimize_path_only,
    pack,
    pack_gradient,
    unpack,
)

__all__ = ["main"]

USAGE_EXIT = 2
IO_EXIT = 3
NUMERICAL_EXIT = 1


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _write_manifest(out_path: Path, payload: dict) -> Path:
    payload = dict(payload)
    payload.setdefault("versions", {})
    payload["versions"].update(
        {
            "spod": __version__,
            "numpy": np.__version__,
            "python": "%d.%d.%d" % sys.version_info[:3],
        }
    )
    manifest_path = out_path.with_name(out_path.name + ".manifest.json")
    _write_lines(manifest_path, [json.dumps(payload, indent=2, sort_keys=True)])
    return manifest_path


def _config(args, *skip: str) -> dict:
    """The parsed arguments for a manifest's ``config``, without the command
    and the file names, and without ``skip``."""
    skip = ("command", "input", "output", *skip)
    return {key: value for key, value in vars(args).items() if key not in skip}


def _parse_frame_spec(spec: str, tgrid, default_r: int | None = None):
    """Parse ``r=2,path=linear:0.185`` style frame specifications."""
    r = default_r
    path = None
    for item in spec.split(","):
        item = item.strip()
        if not item:
            continue
        if "=" not in item:
            raise CliError(f"malformed frame spec item {item!r}", USAGE_EXIT)
        key, value = item.split("=", 1)
        key = key.strip()
        if key == "r":
            try:
                r = int(value)
            except ValueError:
                raise CliError(f"bad mode count {value!r}", USAGE_EXIT) from None
        elif key == "path":
            if ":" not in value:
                raise CliError(f"path spec {value!r} needs kind:args", USAGE_EXIT)
            kind, args = value.split(":", 1)
            if kind == "linear":
                slope = float(args)
                path = PathRepr.nodal(slope * tgrid.times)
            elif kind == "poly":
                path = PathRepr.polynomial([float(c) for c in args.split(";")])
            elif kind == "nodal-file":
                vals = np.loadtxt(args, delimiter=",", ndmin=1)
                path = PathRepr.nodal(vals)
            else:
                raise CliError(f"unknown path kind {kind!r}", USAGE_EXIT)
        else:
            raise CliError(f"unknown frame spec key {key!r}", USAGE_EXIT)
    if r is None or r < 1:
        raise CliError("frame spec needs r=<modes>", USAGE_EXIT)
    if path is None:
        raise CliError("frame spec needs path=kind:args", USAGE_EXIT)
    return r, path


def _initial_decomposition(z, frame_specs):
    """Paper-style initialization: mode stacks from the leading snapshots,
    unit coefficients, user-supplied path guesses."""
    frames = []
    nt = z.tgrid.m + 1
    offset = 0
    for spec in frame_specs:
        r, path = _parse_frame_spec(spec, z.tgrid)
        if r > min(nt, z.grid.n):
            raise CliError(f"r={r} exceeds data rank bound", USAGE_EXIT)
        modes = np.array(z.values[offset % nt : offset % nt + r])
        if modes.shape[0] < r:  # wrap for tiny datasets
            modes = np.vstack([modes, np.zeros((r - modes.shape[0], z.grid.n))])
        coeffs = np.ones((nt, r))
        frames.append(Frame(path, modes, coeffs))
        offset += r
    return Decomposition(tuple(frames), z.grid, z.tgrid)


def _load(loader, path: str):
    """``loader(path)``, with a missing or malformed file as an I/O error
    whose message names the file (and the line, see ``SnapshotFormatError``)."""
    try:
        return loader(path)
    except FileNotFoundError as exc:
        raise CliError(f"{path}: {exc.strerror}", IO_EXIT) from exc
    except SnapshotFormatError as exc:
        raise CliError(f"{path}: {exc}", IO_EXIT) from exc


def _cmd_generate(args) -> int:
    t0 = time.perf_counter()
    if args.dataset == "burgers":
        params = BurgersParams(
            reynolds=args.re, nx_intervals=args.nx, nt_intervals=args.nt
        )
        z = burgers_analytic(params)
    elif args.dataset == "fhn":
        params = FhnParams(
            nu=args.nu,
            a=args.a,
            eps=args.eps,
            b=args.b,
            h=args.h,
            tfinal=args.tfinal,
            dt_int=args.dt_int,
        )
        z = fhn_simulate(params)
    else:
        grid = SpatialGrid(args.nx, 1.0)
        tgrid = make_uniform_time_grid(args.nt, 1.0)
        x = grid.nodes
        profiles = [
            TravelingProfile(np.exp(-0.5 * ((x - 0.3) / 0.05) ** 2), speed=0.4),
            TravelingProfile(np.exp(-0.5 * ((x - 0.7) / 0.05) ** 2), speed=-0.4),
        ]
        z, _ = synthetic_traveling(profiles, grid, tgrid)

    config = _config(args)
    if args.dataset == "fhn":
        config["coarsened"] = args.h != 0.5
    out = Path(args.output)
    save_snapshots(z, out)
    _write_manifest(
        out,
        {
            "command": "generate",
            "config": config,
            "outputs": [str(out)],
            "wall_time_s": time.perf_counter() - t0,
            "nt": z.tgrid.m + 1,
            "nx": z.grid.n,
        },
    )
    return 0


def _cmd_decompose(args) -> int:
    t0 = time.perf_counter()
    z = _load(load_snapshots, args.input)
    if args.penalty_c is not None and not args.penalty_lambda > 0:
        raise CliError("--penalty-c takes effect only with a positive --penalty-lambda", USAGE_EXIT)
    cfg = OptimizerConfig(
        max_iters=args.iters,
        grad_tol=args.grad_tol,
        lbfgs_memory=args.memory,
        lam=args.penalty_lambda,
        C=OptimizerConfig.C if args.penalty_c is None else args.penalty_c,
    )
    progress = _make_progress(args)
    if args.mode == "path-only":
        if len(args.frames) != 1:
            raise CliError("path-only mode takes exactly one --frames spec", USAGE_EXIT)
        if args.penalty_lambda > 0:
            raise CliError("path-only mode takes no --penalty-lambda", USAGE_EXIT)
        r, path0 = _parse_frame_spec(args.frames[0], z.tgrid, default_r=args.r)
        if args.r is not None and r != args.r:
            raise CliError(f"--r {args.r} conflicts with r={r} in --frames", USAGE_EXIT)
        result = optimize_path_only(z, path0, r, cfg, callback=progress)
    else:
        if args.r is not None:
            raise CliError("--r applies to path-only mode; give r= in --frames", USAGE_EXIT)
        d0 = _initial_decomposition(z, args.frames)
        result = optimize_decomposition(z, d0, cfg, callback=progress)

    if args.require_converged and result.termination not in ("converged", "stalled"):
        print(f"error: optimizer terminated with {result.termination}", file=sys.stderr)
        return NUMERICAL_EXIT

    err = relative_l2_error(z, reconstruct(result.decomposition))
    out = Path(args.output)
    save_decomposition(result.decomposition, out)
    manifest = {
        "command": "decompose",
        "inputs": [args.input],
        "outputs": [str(out)],
        "config": _config(args, "require_converged", "progress"),
        "iterations": result.iterations,
        "n_objective_evals": result.n_evals,
        "termination": result.termination,
        "final_cost": float(result.cost_history[-1]),
        "final_relative_error": err,
        "wall_time_s": time.perf_counter() - t0,
    }
    if result.isometry_defect is not None:
        manifest["isometry_defect"] = result.isometry_defect
    _write_manifest(out, manifest)
    print(f"relative L2 error: {err:.6e} ({result.termination})")
    return 0


def _make_progress(args):
    if not getattr(args, "progress", False):
        return None

    def progress(it, cost, gnorm):
        print(f"iter {it:5d}  cost {cost:.6e}  grad {gnorm:.3e}", file=sys.stderr)

    return progress


def _cmd_pod(args) -> int:
    t0 = time.perf_counter()
    z = _load(load_snapshots, args.input)
    if args.r > min(z.tgrid.m + 1, z.grid.n):
        raise CliError(f"r={args.r} exceeds data rank bound", USAGE_EXIT)
    pr = pod(z, args.r)
    err = relative_l2_error(z, pod_reconstruction(pr, z))
    out = Path(args.output)
    save_decomposition(as_decomposition(pr, z.grid, z.tgrid), out)
    _write_manifest(
        out,
        {
            "command": "pod",
            "inputs": [args.input],
            "outputs": [str(out)],
            "config": _config(args),
            "final_relative_error": err,
            "singular_values": [float(s) for s in pod_spectrum(z)],
            "wall_time_s": time.perf_counter() - t0,
        },
    )
    print(f"relative L2 error: {err:.6e}")
    return 0


def _cmd_compare(args) -> int:
    if not (args.decomp or args.pod):
        raise CliError("compare needs --decomp files or --pod ranks", USAGE_EXIT)
    z = _load(load_snapshots, args.input)
    rows = []
    for path in args.decomp:
        d = _load(load_decomposition, path)
        err = relative_l2_error(z, reconstruct(d))
        rows.append(("spod", d.total_modes, err, path))
    for r in args.pod or []:
        pr = pod(z, r)
        err = relative_l2_error(z, pod_reconstruction(pr, z))
        rows.append(("pod", r, err, ""))
    rows.sort(key=lambda row: (row[1], row[0]))
    lines = ["method       r   rel_l2_error"]
    for method, r, err, _ in rows:
        lines.append(f"{method:10s} {r:3d}   {err:.6e}")
    table = "\n".join(lines)
    print(table)
    if args.csv:
        csv_lines = ["method,r,rel_l2_error,source"]
        csv_lines += [f"{m},{r},{_FMT % e},{src}" for m, r, e, src in rows]
        _write_lines(args.csv, csv_lines)
    return 0


def _gradcheck_fixture():
    """Small deterministic two-frame instance (no randomness anywhere)."""
    grid = SpatialGrid(24, 1.0)
    tgrid = make_uniform_time_grid(12, 1.0)
    x = grid.nodes
    t = tgrid.times
    data = (
        np.sin(2 * np.pi * (x[None, :] - 0.37 * t[:, None]))
        + 0.5 * np.cos(2 * np.pi * (x[None, :] + 0.21 * t[:, None]))
    )
    z = SnapshotSet(grid, tgrid, data)
    h = grid.h
    frames = (
        Frame(
            PathRepr.nodal(0.31 * t + 0.4 * h),
            np.vstack([np.sin(2 * np.pi * x), np.cos(4 * np.pi * x)]),
            np.vstack([1.0 + 0.1 * t, 0.5 - 0.2 * t]).T,
        ),
        Frame(
            PathRepr.polynomial([0.3 * h, -0.23, 0.05]),
            np.cos(2 * np.pi * x)[None, :],
            (0.8 + 0.05 * t)[:, None],
        ),
    )
    return z, Decomposition(frames, grid, tgrid)


def _cmd_gradcheck(args) -> int:
    if args.input:
        z = _load(load_snapshots, args.input)
        if not args.frames:
            raise CliError("gradcheck on a data file needs --frames", USAGE_EXIT)
        d = _initial_decomposition(z, args.frames)
    elif args.frames:
        raise CliError("--frames needs a data file; the built-in fixture has its own", USAGE_EXIT)
    else:
        z, d = _gradcheck_fixture()
    g = eval_cost_gradient(z, d)
    analytic = pack_gradient(g, d)
    x0 = pack(d)
    worst = 0.0
    worst_index = -1
    for i in range(x0.size):
        step = args.step * max(1.0, abs(x0[i]))
        xp = x0.copy()
        xp[i] += step
        xm = x0.copy()
        xm[i] -= step
        fd = (eval_cost(z, unpack(xp, d)) - eval_cost(z, unpack(xm, d))) / (2 * step)
        dev = abs(analytic[i] - fd) / max(abs(fd), 1e-9 / 1e-5)
        if dev > worst:
            worst, worst_index = dev, i
    status = "PASS" if worst <= 1e-5 else "FAIL"
    print(
        f"gradcheck {status}: {x0.size} components, max relative deviation "
        f"{worst:.3e} at component {worst_index} (threshold 1e-05)"
    )
    return 0 if worst <= 1e-5 else NUMERICAL_EXIT


def _cmd_export_heatmap(args) -> int:
    export_heatmap(_load(load_field, args.input), Path(args.output))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spod",
        description="Decompose snapshot data into amplitude-modulated, path-shifted modes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate benchmark datasets")
    gsub = gen.add_subparsers(dest="dataset", required=True)
    gb = gsub.add_parser("burgers", help="analytic viscous Burgers solution")
    gb.add_argument("--re", type=float, default=1000.0)
    gb.add_argument("--nx", type=int, default=100)
    gb.add_argument("--nt", type=int, default=100)
    gf = gsub.add_parser("fhn", help="two-component excitable wave train")
    gf.add_argument("--nu", type=float, default=1.0)
    gf.add_argument("--a", type=float, default=-0.1)
    gf.add_argument("--eps", type=float, default=0.05)
    gf.add_argument("--b", type=float, default=0.3)
    gf.add_argument("--h", type=float, default=0.5)
    gf.add_argument("--tfinal", type=float, default=1000.0)
    gf.add_argument("--dt-int", type=float, default=0.01)
    gs = gsub.add_parser("synthetic", help="two crossing Gaussians fixture")
    gs.add_argument("--nx", type=int, default=64)
    gs.add_argument("--nt", type=int, default=32)
    for g in (gb, gf, gs):
        g.add_argument("-o", "--output", required=True)

    dec = sub.add_parser("decompose", help="fit a shifted-mode decomposition")
    dec.add_argument("input")
    dec.add_argument(
        "--frames",
        action="append",
        required=True,
        help='frame spec like "r=2,path=linear:0.185"; repeat for more frames',
    )
    dec.add_argument("--mode", choices=["full", "path-only"], default="full")
    dec.add_argument("--r", type=int, help="mode count (path-only); must equal an r= in --frames")
    dec.add_argument("--iters", type=int, default=500)
    dec.add_argument("--grad-tol", type=float, default=1e-8)
    dec.add_argument("--memory", type=int, default=10)
    dec.add_argument("--penalty-lambda", type=float, default=0.0)
    dec.add_argument("--penalty-c", type=float, default=None)
    dec.add_argument("--require-converged", action="store_true")
    dec.add_argument("--progress", action="store_true")
    dec.add_argument("-o", "--output", required=True)

    podp = sub.add_parser("pod", help="weighted POD baseline")
    podp.add_argument("input")
    podp.add_argument("--r", type=int, required=True)
    podp.add_argument("-o", "--output", required=True)

    cmp_ = sub.add_parser("compare", help="relative-error table for methods")
    cmp_.add_argument("input")
    cmp_.add_argument("--decomp", nargs="*", default=[])
    cmp_.add_argument("--pod", nargs="*", type=int, default=[])
    cmp_.add_argument("--csv")

    gc = sub.add_parser("gradcheck", help="finite-difference gradient check")
    gc.add_argument("input", nargs="?")
    gc.add_argument("--frames", action="append", default=[])
    gc.add_argument("--step", type=float, default=1e-6)

    hm = sub.add_parser("export-heatmap", help="t,x,value CSV from snapshots or decomposition")
    hm.add_argument("input")
    hm.add_argument("-o", "--output", required=True)
    return parser


_COMMANDS = {
    "generate": _cmd_generate,
    "decompose": _cmd_decompose,
    "pod": _cmd_pod,
    "compare": _cmd_compare,
    "gradcheck": _cmd_gradcheck,
    "export-heatmap": _cmd_export_heatmap,
}


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    args = parser.parse_args(argv)
    _keep_freed_memory()
    try:
        return _COMMANDS[args.command](args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except IntegratorBlowupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return NUMERICAL_EXIT
    except UnicodeDecodeError as exc:
        print(f"error: input is not UTF-8 text: {exc}", file=sys.stderr)
        return IO_EXIT
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return IO_EXIT


if __name__ == "__main__":
    sys.exit(main())
