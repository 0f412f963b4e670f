"""One workload in one process: set up its inputs, run its timed steps in
whole rounds, check the outputs and report one result line.

Started by ``run.py``; the protocol lines it reads start with ``@@bench``.
Everything else printed (the CLI's own output, check results) is for people.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

PROTOCOL = "@@bench "

# acceptance criterion 4's Burgers start slope (37/200) and error bounds
BURGERS_SLOPE = 0.185
BURGERS_BOUNDS = {1: 1.5 * 1.217e-1, 2: 1.5 * 2.887e-2}
# L-BFGS iterations and objective evaluations of the five Burgers fits
# together, as first measured.  A round whose counts differ followed another
# trajectory, so its times measure a different amount of work.
BURGERS_REFERENCE = {"iterations": 6224, "evals": 17506}
# FitzHugh-Nagumo path-only fit: start slope and L-BFGS iterations
FHN_SLOPE = 1.04
FHN_ITERS = 15
# crossing: unpenalized budget (ends before the discretization floor, see
# README) and the iterations repeated with the penalty switched on
CROSSING_ITERS = 300
CROSSING_PENALTY_ITERS = 2
CROSSING_LAM = 1.0
CROSSING_C = 100.0
SLOPE_TOL = 1e-3
GRAD_TOL = 1e-5


def emit(kind: str, payload) -> None:
    print(PROTOCOL + kind + " " + json.dumps(payload), flush=True)


class OperationFailed(Exception):
    pass


class Ops:
    """Runs operations, counts them and times the steps of a round."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.evals = 0
        self.times: dict[str, float] = {}

    def cli(self, argv: list) -> None:
        import spod.cli

        self.attempted += 1
        try:
            with contextlib.redirect_stdout(sys.stderr):
                rc = spod.cli.main([str(a) for a in argv])
        except (Exception, SystemExit) as exc:
            self.failed += 1
            raise OperationFailed(f"spod {argv[0]}: {exc!r}") from exc
        if rc != 0:
            self.failed += 1
            raise OperationFailed(f"spod {argv[0]} exited {rc}")

    def fit(self, fn, *args, **kwargs):
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            self.failed += 1
            raise OperationFailed(f"{fn.__name__}: {exc!r}") from exc

    @contextlib.contextmanager
    def step(self, kind: str):
        t0 = time.perf_counter()
        yield
        self.times[kind] = self.times.get(kind, 0.0) + time.perf_counter() - t0

    def count_evaluations(self) -> None:
        """Count the objective evaluations of every fit in ``self.evals``.

        Costs one Python call per evaluation (under a microsecond, against
        ~1.3 ms for the cheapest evaluation here).
        """
        import spod.optimizer

        lbfgs = spod.optimizer.lbfgs_minimize

        def counting_lbfgs(objective, *args, **kwargs):
            def counted(x):
                self.evals += 1
                return objective(x)

            return lbfgs(counted, *args, **kwargs)

        spod.optimizer.lbfgs_minimize = counting_lbfgs


class Checks:
    def __init__(self):
        self.results: list[tuple[str, bool, str]] = []

    def add(self, name: str, ok: bool, detail: str) -> None:
        ok = bool(ok)
        self.results.append((name, ok, detail))
        print(f"check {'PASS' if ok else 'FAIL'} {name}: {detail}", file=sys.stderr)

    @property
    def ok(self) -> bool:
        return all(ok for _, ok, _ in self.results)


def read_manifest(path: Path) -> dict:
    return json.loads(path.with_name(path.name + ".manifest.json").read_text())


def read_compare_csv(path: Path) -> list[dict]:
    lines = path.read_text().splitlines()[1:]
    rows = []
    for line in lines:
        method, r, err, source = line.split(",", 3)
        rows.append({"method": method, "r": int(r), "err": float(err), "source": source})
    return rows


def load_inputs(data_path: Path):
    """The snapshot file as a spod SnapshotSet, parsed by the benchmark."""
    import spod
    from checks import read_spod_v1

    values, length, tfinal = read_spod_v1(data_path)
    grid = spod.SpatialGrid(values.shape[1], length)
    return spod.SnapshotSet(grid, spod.make_uniform_time_grid(values.shape[0] - 1, tfinal), values)


def as_decomposition(parsed: dict, z):
    import spod

    frames = tuple(
        spod.Frame(spod.PathRepr(f["path_kind"], f["path"]), f["modes"], f["coeffs"])
        for f in parsed["frames"]
    )
    return spod.Decomposition(frames, z.grid, z.tgrid)


def check_reloads(checks: Checks, rows: list[dict], decomps: list[Path]) -> None:
    """Each .decomp read back by ``spod compare`` gives its manifest's error."""
    by_source = {row["source"]: row["err"] for row in rows if row["method"] == "spod"}
    for path in decomps:
        want = read_manifest(path)["final_relative_error"]
        got = by_source.get(str(path))
        ok = got is not None and abs(got - want) <= 1e-12 * want
        checks.add(f"reload {path.name}", ok, f"compare {got} vs manifest {want}")


def check_gradient(checks: Checks, name: str, z, d, seed: int) -> None:
    from checks import directional_gradient_check

    gap, an, fd = directional_gradient_check(z, d, np.random.default_rng([seed, 7]))
    checks.add(
        f"{name} directional gradient",
        gap <= GRAD_TOL,
        f"analytic {an:.9e} vs central difference {fd:.9e}, gap {gap:.2e} (tol {GRAD_TOL:g})",
    )


class Burgers:
    """Viscous Burgers front, 101 x 100, fitted with r = 1..5 through the CLI."""

    ranks = (1, 2, 3, 4, 5)

    def __init__(self, work: Path, seed: int):
        self.work = work
        self.seed = seed
        self.data = work / "burgers.spod"
        self.decomps = [work / f"burgers_r{r}.decomp" for r in self.ranks]
        self.csv = work / "burgers_compare.csv"

    def setup(self, ops: Ops) -> None:
        ops.cli(["generate", "burgers", "--re", "1000", "--nx", "100", "--nt", "100", "-o", self.data])

    def round(self, ops: Ops) -> float:
        fits = []
        for r, out in zip(self.ranks, self.decomps):
            evals = ops.evals
            with ops.step("decompose"):
                ops.cli(["decompose", self.data, "--frames", f"r={r},path=linear:{BURGERS_SLOPE}",
                         "--iters", "2000", "--grad-tol", "1e-10", "-o", out])
            manifest = read_manifest(out)
            fits.append({"r": r, "iterations": manifest["iterations"],
                         "evals": ops.evals - evals, "termination": manifest["termination"]})
        with ops.step("compare"):
            ops.cli(["compare", self.data, "--decomp", *self.decomps,
                     "--pod", *map(str, self.ranks), "--csv", self.csv])
        totals = {k: sum(f[k] for f in fits) for k in BURGERS_REFERENCE}
        trajectory = "reference" if totals == BURGERS_REFERENCE else "shifted"
        print(f"burgers trajectory {trajectory}: {totals} (reference {BURGERS_REFERENCE})",
              file=sys.stderr)
        self.notes = {"fits": fits, "trajectory": trajectory}
        errs = [read_manifest(p)["final_relative_error"] for p in self.decomps]
        return math.exp(sum(map(math.log, errs)) / len(errs))

    def check(self, checks: Checks) -> None:
        from checks import DensePod, read_decomposition

        z = load_inputs(self.data)
        rows = read_compare_csv(self.csv)
        pod_err = {row["r"]: row["err"] for row in rows if row["method"] == "pod"}
        dense = DensePod(z.values, z.grid.length, z.tgrid.tfinal)
        for r in self.ranks:
            ref = dense.relative_error(r)
            checks.add(f"pod r={r} vs dense POD", abs(pod_err[r] - ref) <= 1e-8 * ref,
                       f"{pod_err[r]:.12e} vs {ref:.12e}")
        for r, path in zip(self.ranks, self.decomps):
            err = read_manifest(path)["final_relative_error"]
            detail = f"shifted {err:.6e} vs pod {pod_err[r]:.6e}"
            ok = err < pod_err[r]
            if r in BURGERS_BOUNDS:
                ok = ok and err <= BURGERS_BOUNDS[r]
                detail += f", bound {BURGERS_BOUNDS[r]:.4e}"
            checks.add(f"shifted r={r}", ok, detail)
        check_reloads(checks, rows, self.decomps)
        d2 = as_decomposition(read_decomposition(self.decomps[1]), z)
        check_gradient(checks, "burgers r=2", z, d2, self.seed)


class Fhn:
    """FitzHugh-Nagumo wave train, 1001 x 1000: r = 4 path-only fit and POD."""

    def __init__(self, work: Path, seed: int):
        self.work = work
        rng = np.random.default_rng([seed, 2])
        self.slope = FHN_SLOPE + rng.uniform(-0.002, 0.002)
        self.data = work / "fhn.spod"
        self.fit = work / "fhn_r4.decomp"
        self.pod = work / "fhn_pod4.decomp"
        self.csv = work / "fhn_compare.csv"

    def setup(self, ops: Ops) -> None:
        ops.cli(["generate", "fhn", "--dt-int", "0.05", "-o", self.data])

    def round(self, ops: Ops) -> float:
        with ops.step("decompose"):
            ops.cli(["decompose", self.data, "--mode", "path-only", "--r", "4",
                     "--frames", f"r=4,path=linear:{self.slope!r}", "--iters", FHN_ITERS,
                     "-o", self.fit])
        with ops.step("pod"):
            ops.cli(["pod", self.data, "--r", "4", "-o", self.pod])
        with ops.step("compare"):
            ops.cli(["compare", self.data, "--decomp", self.fit, self.pod, "--pod", "4",
                     "--csv", self.csv])
        return read_manifest(self.fit)["final_relative_error"]

    def check(self, checks: Checks) -> None:
        from checks import DensePod, pattern_speed, read_spod_v1

        values, length, tfinal = read_spod_v1(self.data)
        checks.add("fhn data finite", np.all(np.isfinite(values)), f"shape {values.shape}")
        times = np.linspace(0.0, tfinal, values.shape[0])
        speed = pattern_speed(values, length / values.shape[1], times, t_start=700.0)
        checks.add("fhn steady train speed", abs(speed - 1.09) <= 0.02, f"{speed:.4f} (1.09 +- 0.02)")
        dense = DensePod(values, length, tfinal)
        s = np.array(read_manifest(self.pod)["singular_values"])
        gap = float(np.max(np.abs(s - dense.s)) / dense.s[0])
        checks.add("fhn pod singular values vs dense", gap <= 1e-8, f"max gap {gap:.2e} of s_1")
        pod_err = dense.relative_error(4)
        rows = read_compare_csv(self.csv)
        cmp_pod = next(row["err"] for row in rows if row["method"] == "pod")
        checks.add("fhn pod r=4 vs dense POD", abs(cmp_pod - pod_err) <= 1e-8 * pod_err,
                   f"{cmp_pod:.12e} vs {pod_err:.12e}")
        err = read_manifest(self.fit)["final_relative_error"]
        checks.add("fhn path-only vs pod", err <= 0.20 and err < pod_err and pod_err >= 0.25,
                   f"path-only {err:.4f} (<= 0.20), pod {pod_err:.4f} (>= 0.25)")
        check_reloads(checks, rows, [self.fit, self.pod])


def crossing_inputs(seed: int):
    """Two amplitude-modulated profiles crossing at fractional cell speeds."""
    import spod
    from spod.generators import TravelingProfile

    rng = np.random.default_rng([seed, 3])
    grid = spod.SpatialGrid(256, 1.0)
    tgrid = spod.make_uniform_time_grid(128, 1.0)
    x = grid.nodes
    c1, c2 = rng.uniform(0.2475, 0.2525), rng.uniform(0.6975, 0.7025)
    w1, w2 = rng.uniform(0.047, 0.048), rng.uniform(0.037, 0.038)
    s1, s2 = rng.uniform(0.4075, 0.4125), rng.uniform(-0.2925, -0.2875)
    ph1, ph2 = rng.uniform(-0.05, 0.05, 2)
    dp1, dp2 = rng.uniform(0.0095, 0.0105, 2)

    def centred(c):
        return (x - c + 0.5) % 1.0 - 0.5

    profiles = [
        TravelingProfile(np.exp(-0.5 * (centred(c1) / w1) ** 2), s1,
                         lambda t: 1.0 + 0.3 * np.sin(2 * np.pi * t + ph1)),
        TravelingProfile(1.0 / np.cosh(centred(c2) / w2) ** 2, s2,
                         lambda t: 0.8 + 0.2 * np.cos(2 * np.pi * t + ph2)),
    ]
    z, _ = spod.generators.synthetic_traveling(profiles, grid, tgrid)
    # start: Gaussians 25% wider than the true profiles at their centres, unit
    # coefficients, straight paths whose slopes miss the true speeds by ~0.01
    # (2.6 cells over the run)
    guesses = [np.exp(-0.5 * (centred(c) / (1.25 * w)) ** 2) for c, w in ((c1, w1), (c2, w2))]
    start = [((s1 + dp1), guesses[0]), ((s2 - dp2), guesses[1])]
    return z, start, (s1, s2)


class Crossing:
    """Two crossing profiles, two one-mode frames, fitted through the library."""

    def __init__(self, work: Path, seed: int):
        self.work = work
        self.seed = seed
        self.data = work / "crossing.spod"

    def setup(self, ops: Ops) -> None:
        import spod

        z, self.start, self.speeds = crossing_inputs(self.seed)
        spod.core.save_snapshots(z, self.data)

    def _start(self, z):
        import spod

        nt = z.tgrid.m + 1
        frames = tuple(
            spod.Frame(spod.PathRepr.nodal(slope * z.tgrid.times), mode[None, :], np.ones((nt, 1)))
            for slope, mode in self.start
        )
        return spod.Decomposition(frames, z.grid, z.tgrid)

    def round(self, ops: Ops) -> float:
        import spod

        with ops.step("load"):
            z = spod.core.load_snapshots(self.data)
        d0 = self._start(z)
        plain = spod.OptimizerConfig(max_iters=CROSSING_ITERS, grad_tol=1e-12)
        penalized = spod.OptimizerConfig(max_iters=CROSSING_PENALTY_ITERS, grad_tol=1e-12,
                                         lam=CROSSING_LAM, C=CROSSING_C)
        with ops.step("decompose"):
            res = ops.fit(spod.optimizer.optimize_decomposition, z, d0, plain)
            zhat = spod.cost_grad.reconstruct(res.decomposition)
        with ops.step("compare"):
            err = spod.core.relative_l2_error(z, zhat)
        with ops.step("decompose"):
            res_pen = ops.fit(spod.optimizer.optimize_decomposition, z, d0, penalized)
        self.z, self.res, self.res_pen, self.err = z, res, res_pen, err
        return err

    def check(self, checks: Checks) -> None:
        import spod
        from checks import DensePod

        z, res, res_pen = self.z, self.res, self.res_pen
        for i, (frame, speed) in enumerate(zip(res.decomposition.frames, self.speeds)):
            slope = np.polyfit(z.tgrid.times, frame.path.values, 1)[0]
            checks.add(f"crossing frame {i} speed", abs(slope - speed) <= SLOPE_TOL,
                       f"fitted slope {slope:.6f} vs generator speed {speed:.6f} (tol {SLOPE_TOL:g})")
        pod_err = DensePod(z.values, z.grid.length, z.tgrid.tfinal).relative_error(2)
        checks.add("crossing fit vs dense POD r=2", self.err < pod_err,
                   f"{self.err:.6e} vs {pod_err:.6e}")
        check_gradient(checks, "crossing", z, res.decomposition, self.seed)
        k = CROSSING_PENALTY_ITERS + 1
        same = res_pen.iterations == CROSSING_PENALTY_ITERS and np.array_equal(
            res_pen.cost_history, res.cost_history[:k]
        )
        checks.add("crossing penalized history", same,
                   f"first {k} costs bitwise equal: {same} ({res_pen.iterations} iterations)")
        pen = spod.penalty_value(res_pen.decomposition, CROSSING_C)
        checks.add("crossing penalty at result", pen == 0.0, f"penalty_value {pen!r}")


WORKLOADS = {"burgers": Burgers, "fhn": Fhn, "crossing": Crossing}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", help="trace the spod modules and write the spans here")
    args = ap.parse_args()

    sys.path.insert(0, str(Path(__file__).resolve().parent))
    work = Path(args.workdir)
    work.mkdir(parents=True, exist_ok=True)
    try:
        return run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run(args, work: Path) -> int:
    import spod  # noqa: F401  (import time is part of set-up)

    ops = Ops()
    tracer = None
    if args.spans:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    ops.count_evaluations()
    # numpy seeds must be nonnegative
    workload = WORKLOADS[args.workload](work, args.seed % 2**63)
    try:
        workload.setup(ops)
    except Exception:  # failed operations are counted; the result still follows
        traceback.print_exc()
        emit("result", {"attempted": ops.attempted, "failed": ops.failed, "correct": False,
                        "rounds": [], "checks": []})
        return 0
    emit("ready", {"t": time.monotonic()})
    if args.setup_only:
        emit("result", {"attempted": ops.attempted, "failed": ops.failed})
        return 0

    rounds = []
    aborted = False
    start = time.perf_counter()
    while True:
        ops.times = {}
        evals = ops.evals
        try:
            err = workload.round(ops)
        except Exception:
            traceback.print_exc()
            aborted = True
            break
        rounds.append({"run_s": sum(ops.times.values()),
                       "decompose_s": ops.times.get("decompose", 0.0),
                       "rel_l2_error": err, "steps": dict(ops.times),
                       "evals": ops.evals - evals, **getattr(workload, "notes", {})})
        if time.perf_counter() - start >= args.seconds:
            break
    # before the checks, whose dense matrices would otherwise set the peak
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6

    checks = Checks()
    if tracer is not None:
        tracer.enabled = False
    if rounds and not aborted:
        try:
            workload.check(checks)
        except Exception as exc:  # a checker that breaks is a failed check
            traceback.print_exc()
            checks.add("checks completed", False, repr(exc))
        errs = {r["rel_l2_error"] for r in rounds}
        checks.add("rounds agree", len(errs) == 1, f"{len(rounds)} rounds, errors {sorted(errs)}")
    result = {
        "attempted": ops.attempted,
        "failed": ops.failed,
        "correct": bool(rounds) and not aborted and checks.ok,
        "rounds": rounds,
        "checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in checks.results],
        "peak_rss_mb": peak_rss_mb,
    }
    if rounds:
        result["run_s"] = statistics.median(r["run_s"] for r in rounds)
        result["decompose_s"] = statistics.median(r["decompose_s"] for r in rounds)
        result["rel_l2_error"] = rounds[-1]["rel_l2_error"]
    if tracer is not None:
        tracer.write_spans(args.spans)
        result["layers"] = {k: {"value": v, "unit": u} for k, (v, u) in tracer.metrics().items()}
        result["missing"] = tracer.missing
    emit("result", result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
