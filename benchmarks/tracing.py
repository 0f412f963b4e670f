"""Span tracing of the spod modules, installed from outside the package.

``Tracer.install`` replaces each traced function, wherever a spod module
binds it by name, with a wrapper that records a span (name, start, end,
parent) in memory.  Callers that look the name up at call time, in the
defining module or in a module that imported it, then go through the
wrapper.  ``numpy.linalg.svd`` is traced only when the caller is a spod
module.  A traced name that no longer exists is listed in ``missing`` and the
metrics built on it are left out.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import time

import numpy as np

SPOD_MODULES = ("cli", "core", "generators", "shift_fem", "cost_grad", "baseline_pod", "optimizer")

# module -> public functions wrapped in that module
TRACED = {
    "cli": ("main",),
    "core": ("save_snapshots", "load_snapshots", "relative_l2_error"),
    "generators": ("burgers_analytic", "fhn_simulate", "synthetic_traveling"),
    "shift_fem": ("apply_gram", "shift_field"),
    "cost_grad": (
        "eval_cost_gradient",
        "eval_cost",
        "reconstruct",
        "path_gradient_nodal",
        "penalty_value",
    ),
    "baseline_pod": ("pod",),
    "optimizer": ("optimize_decomposition", "optimize_path_only", "lbfgs_minimize"),
}
SVD_SPAN = "baseline_pod.svd"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self._stack: list[int] = []
        self.counters: dict[str, float] = {}
        self.missing: list[str] = []
        self.enabled = True

    # -- recording -------------------------------------------------------
    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def _wrap(self, name: str, fn, before=None, after=None):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            span_name = name
            if before is not None:
                span_name, args, kwargs = before(args, kwargs)
            idx = tracer._open(span_name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if after is not None:
                after(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- hooks for derived counts ----------------------------------------
    def _cli_before(self, args, kwargs):
        argv = args[0] if args else kwargs.get("argv")
        return "cli." + (argv[0] if argv else "main"), args, kwargs

    def _lbfgs_before(self, args, kwargs):
        if args and callable(args[0]):
            objective = args[0]

            def counted(*a, **k):
                self.count("optimizer.evals")
                return objective(*a, **k)

            args = (counted,) + args[1:]
        return "optimizer.lbfgs_minimize", args, kwargs

    def _fit_after(self, args, kwargs, result):
        self.count("optimizer.iterations", getattr(result, "iterations", 0))

    def _fhn_after(self, args, kwargs, result):
        p = args[0] if args else kwargs.get("p")
        if p is None:
            from spod.generators import FhnParams

            p = FhnParams()
        self.count("generators.rk4_steps", round(p.tfinal / p.dt_int))

    def _io_after(self, args, kwargs, result):
        target = args[0] if args else None
        if isinstance(target, (str, os.PathLike)):
            self.count("core.snapshot_io.bytes", os.path.getsize(target))

    def _save_after(self, args, kwargs, result):
        self._io_after(args[1:], kwargs, result)

    # -- installation ----------------------------------------------------
    def install(self) -> None:
        mods = {name: importlib.import_module("spod." + name) for name in SPOD_MODULES}
        holders = [sys.modules["spod"]] + list(mods.values())
        hooks = {
            "cli.main": (self._cli_before, None),
            "optimizer.lbfgs_minimize": (self._lbfgs_before, None),
            "optimizer.optimize_decomposition": (None, self._fit_after),
            "optimizer.optimize_path_only": (None, self._fit_after),
            "generators.fhn_simulate": (None, self._fhn_after),
            "core.load_snapshots": (None, self._io_after),
            "core.save_snapshots": (None, self._save_after),
        }
        for mod_name, names in TRACED.items():
            for fn_name in names:
                key = f"{mod_name}.{fn_name}"
                original = getattr(mods[mod_name], fn_name, None)
                if original is None:
                    self.missing.append(key)
                    continue
                before, after = hooks.get(key, (None, None))
                wrapper = self._wrap(key, original, before, after)
                for holder in holders:
                    for attr, value in list(vars(holder).items()):
                        if value is original:
                            setattr(holder, attr, wrapper)
        self._install_svd()

    def _install_svd(self) -> None:
        original = np.linalg.svd
        inner = self._wrap(SVD_SPAN, original)

        def svd(*args, **kwargs):
            if sys._getframe(1).f_globals.get("__name__", "").startswith("spod"):
                return inner(*args, **kwargs)
            return original(*args, **kwargs)

        np.linalg.svd = svd

    # -- output ----------------------------------------------------------
    def write_spans(self, path) -> None:
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {
                            "id": i,
                            "name": name,
                            "start_s": round(start - t0, 9),
                            "end_s": round(end - t0, 9),
                            "parent": parent,
                        }
                    )
                    + "\n"
                )

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """Per span name: (calls, inclusive seconds, self seconds)."""
        n = len(self.spans)
        dur = np.array([s[2] - s[1] for s in self.spans]) if n else np.zeros(0)
        child = np.zeros(n)
        for i, s in enumerate(self.spans):
            if s[3] >= 0:
                child[s[3]] += dur[i]
        out: dict[str, list] = {}
        for i, s in enumerate(self.spans):
            rec = out.setdefault(s[0], [0, 0.0, 0.0])
            rec[0] += 1
            rec[1] += dur[i]
            rec[2] += dur[i] - child[i]
        return {k: tuple(v) for k, v in out.items()}

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-module metrics by name, as ``(value, unit)``."""
        tot = self.totals()
        gone = set(self.missing)

        def calls(key):
            return tot.get(key, (0, 0.0, 0.0))[0]

        def secs(key):
            return tot.get(key, (0, 0.0, 0.0))[1]

        def per(num, den, scale=1.0):
            return scale * num / den if den else 0.0

        m: dict[str, tuple[float, str]] = {}

        def put(name, value, unit, needs):
            if not any(k in gone for k in needs):
                m[name] = (float(value), unit)

        for cmd in ("generate", "decompose", "pod", "compare"):
            put(f"cli.{cmd}.s", secs(f"cli.{cmd}"), "s", ["cli.main"])
        for fn in ("save_snapshots", "load_snapshots", "relative_l2_error"):
            put(f"core.{fn}.s", secs(f"core.{fn}"), "s", [f"core.{fn}"])
        put("core.load_snapshots.calls", calls("core.load_snapshots"), "count", ["core.load_snapshots"])
        io_s = secs("core.save_snapshots") + secs("core.load_snapshots")
        put(
            "core.snapshot_io.mb_per_s",
            per(self.counters.get("core.snapshot_io.bytes", 0), io_s, 1e-6),
            "MB/s",
            ["core.save_snapshots", "core.load_snapshots"],
        )
        fhn_s = secs("generators.fhn_simulate")
        put("generators.fhn_simulate.s", fhn_s, "s", ["generators.fhn_simulate"])
        put(
            "generators.rk4_steps_per_s",
            per(self.counters.get("generators.rk4_steps", 0), fhn_s),
            "1/s",
            ["generators.fhn_simulate"],
        )
        put("generators.synthetic_traveling.s", secs("generators.synthetic_traveling"), "s",
            ["generators.synthetic_traveling"])
        for fn in ("apply_gram", "shift_field"):
            put(f"shift_fem.{fn}.calls", calls(f"shift_fem.{fn}"), "count", [f"shift_fem.{fn}"])
            put(f"shift_fem.{fn}.s", secs(f"shift_fem.{fn}"), "s", [f"shift_fem.{fn}"])
        for fn in ("eval_cost_gradient", "eval_cost", "reconstruct", "path_gradient_nodal",
                   "penalty_value"):
            key = f"cost_grad.{fn}"
            put(f"{key}.calls", calls(key), "count", [key])
            put(f"{key}.s", secs(key), "s", [key])
            if fn in ("eval_cost_gradient", "path_gradient_nodal"):
                put(f"{key}.ms_per_call", per(secs(key), calls(key), 1e3), "ms", [key])
        put("baseline_pod.pod.calls", calls("baseline_pod.pod"), "count", ["baseline_pod.pod"])
        put("baseline_pod.pod.s", secs("baseline_pod.pod"), "s", ["baseline_pod.pod"])
        put("baseline_pod.svd.calls", calls(SVD_SPAN), "count", [])
        put("baseline_pod.svd.s", secs(SVD_SPAN), "s", [])
        put("baseline_pod.svd.ms_per_call", per(secs(SVD_SPAN), calls(SVD_SPAN), 1e3), "ms", [])
        fits = ["optimizer.optimize_decomposition", "optimizer.optimize_path_only"]
        no_fits = fits if all(k in gone for k in fits) else []
        put("optimizer.fit.s", sum(secs(k) for k in fits), "s", no_fits)
        iters = self.counters.get("optimizer.iterations", 0)
        evals = self.counters.get("optimizer.evals", 0)
        lb = ["optimizer.lbfgs_minimize"]
        put("optimizer.iterations", iters, "count", no_fits)
        put("optimizer.evals", evals, "count", lb)
        put("optimizer.evals_per_iter", per(evals, iters), "1", lb + no_fits)
        for mod in SPOD_MODULES:
            self_s = sum(v[2] for k, v in tot.items() if k.split(".", 1)[0] == mod)
            put(f"{mod}.self_s", self_s, "s", [])
        return m
