"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
complete.  The FitzHugh-Nagumo and Burgers criteria share session-scoped
datasets with the rest of the suite.
"""

import time

import numpy as np
import pytest

from spod.baseline_pod import pod, pod_reconstruction, pod_spectrum, truncated_svd
from spod.core import SnapshotSet, SpatialGrid, make_uniform_time_grid, relative_l2_error
from spod.cost_grad import (
    Decomposition,
    Frame,
    PathRepr,
    data_norm_sq,
    eval_cost,
    eval_cost_gradient,
    eval_penalized_cost,
    penalty_value,
    reconstruct,
)
from spod.generators import TravelingProfile, synthetic_traveling
from spod.optimizer import (
    OptimizerConfig,
    optimize_decomposition,
    optimize_path_only,
    pack,
    pack_gradient,
    unpack,
)
from spod.shift_fem import (
    BAND_OFFSETS,
    decompose_shift,
    gram_F,
    gram_G,
)

from oracles import quadrature_inner_oracle, x_weighted_relative_error

TABLE_POD = [4.499e-1, 2.853e-1, 2.102e-1, 1.654e-1, 1.347e-1]
TABLE_SPOD = [1.217e-1, 2.887e-2, 1.312e-2, 8.406e-3, 6.565e-3]


def _report(number, name, ok, detail, elapsed, budget):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} ({name}): {status} — {detail} [{elapsed:.1f}s / budget {budget:.0f}s]")
    assert ok, f"criterion {number} ({name}): {detail}"
    assert elapsed < budget, f"criterion {number} exceeded its {budget:.0f}s runtime budget"


def test_criterion_1_gram_closed_forms_vs_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1)
    worst_entry = 0.0
    worst_rowsum = 0.0
    for _ in range(200):
        n = int(rng.integers(4, 21))
        h = float(rng.uniform(0.02, 1.5))
        grid = SpatialGrid(n, n * h)
        p = float(rng.uniform(-2 * grid.length, 2 * grid.length))
        F = gram_F(p, grid)
        G = gram_G(p, grid)
        worst_rowsum = max(
            worst_rowsum, abs(float(F.band.sum()) - h), abs(float(G.band.sum()))
        )
        k = int(rng.integers(0, n))
        for d, delta in enumerate(BAND_OFFSETS):
            a = np.zeros(n)
            a[k] = 1.0
            b = np.zeros(n)
            b[(k - F.offset_q + delta) % n] = 1.0
            worst_entry = max(
                worst_entry,
                abs(quadrature_inner_oracle(a, b, p, grid) - F.band[d]),
                abs(quadrature_inner_oracle(a, b, p, grid, derivative=True) - G.band[d]),
            )
    elapsed = time.perf_counter() - t0
    ok = worst_entry <= 1e-12 and worst_rowsum <= 1e-12
    _report(
        1,
        "gram closed forms vs oracle",
        ok,
        f"200 triples: max entry dev {worst_entry:.2e} (tol 1e-12), "
        f"max row-sum dev {worst_rowsum:.2e} (tol 1e-12)",
        elapsed,
        30,
    )


def test_criterion_2_gradient_correctness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(8, 33))
        m = int(rng.integers(6, 21))
        grid = SpatialGrid(n, 1.0)
        tg = make_uniform_time_grid(m, 1.0)
        z = SnapshotSet(grid, tg, rng.standard_normal((m + 1, n)))
        frames = []
        for _ in range(int(rng.integers(1, 3))):
            r = int(rng.integers(1, 4))
            if rng.random() < 0.5:
                pv = rng.uniform(0, 1, m + 1)
                frac = np.mod(pv, grid.h)
                pv = np.where(
                    np.minimum(frac, grid.h - frac) < 1e-4 * grid.h + 2e-6,
                    pv + 0.3 * grid.h,
                    pv,
                )
                path = PathRepr.nodal(pv)
            else:
                path = PathRepr.polynomial(rng.uniform(-0.3, 0.3, int(rng.integers(1, 4))))
            frames.append(
                Frame(path, rng.standard_normal((r, n)), rng.standard_normal((m + 1, r)))
            )
        d = Decomposition(tuple(frames), grid, tg)
        analytic = pack_gradient(eval_cost_gradient(z, d), d)
        x0 = pack(d)
        for i in range(x0.size):
            step = 1e-6 * max(1.0, abs(x0[i]))
            xp = x0.copy()
            xp[i] += step
            xm = x0.copy()
            xm[i] -= step
            fd = (eval_cost(z, unpack(xp, d)) - eval_cost(z, unpack(xm, d))) / (2 * step)
            worst = max(worst, abs(analytic[i] - fd) / max(abs(fd), 1e-4))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-5
    _report(
        2,
        "gradient correctness",
        ok,
        f"50 instances, every component: max relative FD deviation {worst:.2e} (tol 1e-5)",
        elapsed,
        120,
    )


def test_criterion_3_pod_table_column(burgers_data):
    t0 = time.perf_counter()
    devs = []
    for r in range(1, 6):
        err = relative_l2_error(burgers_data, pod_reconstruction(pod(burgers_data, r), burgers_data))
        devs.append(abs(err - TABLE_POD[r - 1]) / TABLE_POD[r - 1])
    elapsed = time.perf_counter() - t0
    ok = max(devs) <= 0.02
    _report(
        3,
        "POD reference errors r=1..5",
        ok,
        "relative deviations " + ", ".join(f"{d:.3%}" for d in devs) + " (tol 2%)",
        elapsed,
        10,
    )


def test_criterion_4_spod_burgers(burgers_data):
    t0 = time.perf_counter()
    z = burgers_data
    tg = z.tgrid
    bounds = {1: 1.5 * TABLE_SPOD[0], 2: 1.5 * TABLE_SPOD[1]}
    details = []
    ok = True
    for r in range(1, 6):
        d0 = Decomposition(
            (
                Frame(
                    PathRepr.nodal((37.0 / 200.0) * tg.times),
                    z.values[:r].copy(),
                    np.ones((tg.m + 1, r)),
                ),
            ),
            z.grid,
            tg,
        )
        cfg = OptimizerConfig(max_iters=2000, grad_tol=1e-10)
        res = optimize_decomposition(z, d0, cfg)
        err = relative_l2_error(z, reconstruct(res.decomposition))
        pod_err = relative_l2_error(z, pod_reconstruction(pod(z, r), z))
        ok = ok and err < pod_err
        line = f"r={r}: spod {err:.3e} vs pod {pod_err:.3e}"
        if r in bounds:
            ok = ok and err <= bounds[r]
            line += f" (bound {bounds[r]:.3e})"
        line += (
            f", {res.iterations} iterations, {res.n_evals} evaluations, "
            f"{res.n_gradients} gradients, {res.termination}"
        )
        details.append(line)
    elapsed = time.perf_counter() - t0
    _report(4, "shifted-mode Burgers errors", ok, "; ".join(details), elapsed, 900)


def test_criterion_5_fhn_path_only(fhn_data):
    t0 = time.perf_counter()
    z = fhn_data
    pod_err = relative_l2_error(z, pod_reconstruction(pod(z, 4), z))
    path0 = PathRepr.nodal(1.04 * z.tgrid.times)
    cfg = OptimizerConfig(max_iters=100, grad_tol=1e-8)
    res = optimize_path_only(z, path0, 4, cfg)
    err = relative_l2_error(z, reconstruct(res.decomposition))
    # the coefficients and modes sit at their inner minimum, so the full
    # gradient there has rounding-level coefficient and mode blocks, and its
    # path block is the reduced gradient (envelope theorem)
    cost = res.cost_history[-1]
    full = eval_cost_gradient(z, res.decomposition)
    coeff_norm, mode_norm, path_norm = (
        float(np.max(np.abs(block[0]))) for block in (full.g_coeffs, full.g_modes, full.g_paths)
    )
    path_gap = abs(path_norm - res.grad_norm_history[-1])
    elapsed = time.perf_counter() - t0
    # the reduced objective is the cost at its inner minimum: the two agree
    # to rounding
    ok = (
        err <= 0.20
        and pod_err >= 0.25
        and res.isometry_defect <= 1e-9 * cost
        and max(coeff_norm, mode_norm) <= 1e-12 * cost
    )
    _report(
        5,
        "wave-train path-only vs POD",
        ok,
        f"path-only r=4 error {err:.4f} (bound 0.20), POD r=4 error {pod_err:.4f} (bound >= 0.25), "
        f"isometry defect {res.isometry_defect:.2e} (bound 1e-9 x cost {cost:.4e}), "
        f"full gradient coefficient/mode inf-norms {coeff_norm:.1e}/{mode_norm:.1e} "
        f"(bound 1e-12 x cost), path block {path_norm:.4e} vs last reduced gradient "
        f"{res.grad_norm_history[-1]:.4e} (gap {path_gap:.1e}), "
        f"{res.n_evals} evaluations, {res.n_gradients} gradients",
        elapsed,
        1200,
    )


def test_criterion_6_exact_recovery():
    t0 = time.perf_counter()
    grid = SpatialGrid(32, 1.0)
    tg = make_uniform_time_grid(64, 1.0)
    dt = tg.times[1]
    cells = grid.h / dt  # speed of one cell per step

    x = grid.nodes
    spike1 = np.zeros(32)
    spike1[4] = 1.0
    spike2 = np.zeros(32)
    spike2[20] = 1.0
    gauss = np.exp(-0.5 * ((x - 0.5) / 0.08) ** 2)
    # the spikes move in lockstep and never overlap: at a collision instant
    # opposite path perturbations become a flat (gauge) direction, which
    # would make pointwise path recovery ill-posed
    fixtures = [
        (
            "two spikes",
            [TravelingProfile(spike1, cells), TravelingProfile(spike2, cells)],
            (0.3, -0.2),
        ),
        ("gaussian", [TravelingProfile(gauss, 2 * cells)], (0.25,)),
    ]
    ok = True
    details = []
    for name, profiles, offsets in fixtures:
        z, dtrue = synthetic_traveling(profiles, grid, tg)
        frames = tuple(
            Frame(PathRepr.nodal(f.path.values + off * grid.h), f.modes, f.coeffs)
            for f, off in zip(dtrue.frames, offsets)
        )
        d0 = Decomposition(frames, grid, tg)
        # run the line search into the cost evaluator's rounding floor: the
        # monotone Armijo descent ends at the bottom of the noise band, so
        # the reported cost is at most the bound (and possibly slightly
        # negative, the floor being ~1 ulp of the data energy)
        cfg = OptimizerConfig(max_iters=150, grad_tol=1e-11, variables=("paths",))
        res = optimize_decomposition(z, d0, cfg)
        bound = 1e-16 * data_norm_sq(z)
        cost = float(res.cost_history[-1])
        dev = max(
            float(np.max(np.abs(fr.path.values - ft.path.values)))
            for fr, ft in zip(res.decomposition.frames, dtrue.frames)
        )
        ok = ok and cost <= bound and abs(cost) <= 10 * bound and dev <= grid.h
        details.append(
            f"{name}: cost {cost:.2e} <= {bound:.2e}, path dev {dev / grid.h:.2e} h"
        )
    elapsed = time.perf_counter() - t0
    _report(6, "exact recovery on integer-cell fixtures", ok, "; ".join(details), elapsed, 60)


def test_criterion_7_penalty_semantics():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    grid = SpatialGrid(16, 1.0)
    tg = make_uniform_time_grid(8, 1.0)

    from spod.cost_grad import _discrete_h1_norm_sq, path_values
    from spod.shift_fem import apply_gram, stiffness_gram

    F0 = gram_F(0.0, grid)
    stiff = stiffness_gram(grid)
    C = 1.0
    ok = True
    z = SnapshotSet(grid, tg, rng.standard_normal((tg.m + 1, grid.n)))
    monotone_checked = 0
    for _ in range(500):
        nf = int(rng.integers(1, 3))
        frames = []
        norms = []
        for _ in range(nf):
            r = int(rng.integers(1, 3))
            modes = rng.standard_normal((r, grid.n)) * rng.uniform(0.02, 1.2)
            coeffs = rng.standard_normal((tg.m + 1, r)) * rng.uniform(0.02, 1.2)
            pv = rng.standard_normal(tg.m + 1) * rng.uniform(0.02, 1.2)
            frames.append(Frame(PathRepr.nodal(pv), modes, coeffs))
            pn = np.sqrt(_discrete_h1_norm_sq(pv, tg))
            for i in range(r):
                an = np.sqrt(float(np.dot(tg.weights, coeffs[:, i] ** 2)))
                mn = np.sqrt(
                    float(modes[i] @ (apply_gram(F0, modes[i]) + apply_gram(stiff, modes[i])))
                )
                norms += [an, mn, pn]
        d = Decomposition(tuple(frames), grid, tg)
        val = penalty_value(d, C)
        inside = all(v <= C for v in norms)
        ok = ok and ((val == 0.0) == inside) and val >= 0.0
        if val > 0.0 and monotone_checked < 25:
            vals = [eval_penalized_cost(z, d, C=C, lam=lam) for lam in (0.0, 0.1, 1.0, 10.0)]
            ok = ok and bool(np.all(np.diff(vals) > 0))
            monotone_checked += 1
    elapsed = time.perf_counter() - t0
    _report(
        7,
        "penalty semantics",
        ok,
        f"500 random decompositions: zero iff admissible; penalized cost monotone in lambda "
        f"({monotone_checked} positive-penalty cases)",
        elapsed,
        10,
    )


def test_criterion_8_svd_kernel(rng):
    t0 = time.perf_counter()
    worst_sv = 0.0
    for _ in range(20):
        rows = int(rng.integers(20, 201))
        cols = int(rng.integers(20, 301))
        A = rng.standard_normal((rows, cols))
        k = min(rows, cols)
        _, s, _ = truncated_svd(A, k)
        # independent route: eigenvalues of the smaller Gram matrix
        G = A @ A.T if rows <= cols else A.T @ A
        oracle = np.sqrt(np.maximum(np.sort(np.linalg.eigvalsh(G))[::-1], 0.0))
        worst_sv = max(worst_sv, float(np.max(np.abs(s - oracle))) / max(1.0, float(oracle[0])))

    grid = SpatialGrid(24, 1.0)
    tg = make_uniform_time_grid(14, 1.0)
    z = SnapshotSet(grid, tg, rng.standard_normal((15, 24)))
    s = pod_spectrum(z)
    total = float(np.sum(s**2))
    worst_identity = 0.0
    for r in (1, 3, 7, 12):
        err = x_weighted_relative_error(z, pod_reconstruction(pod(z, r), z))
        identity = np.sqrt(float(np.sum(s[r:] ** 2)) / total)
        worst_identity = max(worst_identity, abs(err - identity))
    elapsed = time.perf_counter() - t0
    ok = worst_sv <= 1e-10 and worst_identity <= 1e-8
    _report(
        8,
        "SVD kernel vs Gram-eigenvalue oracle",
        ok,
        f"20 matrices: max singular-value deviation {worst_sv:.2e} (tol 1e-10); "
        f"POD energy identity deviation {worst_identity:.2e} (tol 1e-8)",
        elapsed,
        30,
    )
