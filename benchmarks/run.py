"""spod benchmark: one workload per call, end to end or traced per module.

    python3 benchmarks/run.py --workload {burgers,fhn,crossing} --seed N \
        --seconds S --trace {0,1}

Each workload runs in worker processes started one at a time from here, with
``PYTHONPATH=src`` and the BLAS thread pools capped at the number of usable
cores unless the caller set them.  ``--trace 0`` sets the inputs up
``SETUP_REPS`` times (the last time in the measured process), repeats the
workload's timed steps in whole rounds until ``--seconds`` have passed, and
reports the end-to-end metrics.  ``--trace 1`` runs one untraced and one
traced round in two processes and reports the per-module metrics, with the
difference of their run times as the tracing overhead.  The last line of
standard output is the JSON result; ``benchmarks/out/`` keeps a copy with
per-round figures and check results, and the span file of the traced run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKLOADS = ("burgers", "fhn", "crossing")
# set-ups per measured run; the median is reported.  Sub-second set-ups
# need more repeats for a steady median; the FitzHugh-Nagumo one takes ~10 s,
# so a third one would add a quarter to every run.
SETUP_REPS = {"burgers": 7, "fhn": 2, "crossing": 7}
# every run ends within 180 s; leave room to stop a stuck worker
DEADLINE_S = 170.0
PROTOCOL = "@@bench "


class BenchError(Exception):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env.setdefault(var, threads)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_worker(args: list, deadline: float) -> dict:
    """Run one worker to its end; return its result, with the set-up time if
    the set-up completed."""
    cmd = [sys.executable, str(BENCH / "worker.py"), *map(str, args)]
    started = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"worker {args[:4]} ran past the deadline") from None
    messages = {}
    for line in out.splitlines():
        if line.startswith(PROTOCOL):
            kind, payload = line[len(PROTOCOL):].split(" ", 1)
            messages[kind] = json.loads(payload)
        else:
            print(line, file=sys.stderr)
    if proc.returncode != 0 or "result" not in messages:
        raise BenchError(f"worker {args[:4]} exited {proc.returncode} without a result")
    result = messages["result"]
    if "ready" in messages:
        result["setup_s"] = messages["ready"]["t"] - started
    return result


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(workload: str, seed: int, seconds: int, deadline: float) -> tuple[dict, dict]:
    common = ["--workload", workload, "--seed", seed]
    reps = [run_worker([*common, "--setup-only", "--workdir", workdir(workload, i)], deadline)
            for i in range(SETUP_REPS[workload] - 1)]
    main = run_worker([*common, "--seconds", seconds, "--workdir", workdir(workload, "main")],
                      deadline)
    reps.append(main)
    setups = [rep["setup_s"] for rep in reps if "setup_s" in rep]
    report = {
        "correct": main["correct"] and len(setups) == len(reps),
        "attempted": sum(rep["attempted"] for rep in reps),
        "failed": sum(rep["failed"] for rep in reps),
    }
    if main["rounds"]:
        report["metrics"] = {
            "setup_s": metric(statistics.median(setups), "s"),
            "run_s": metric(main["run_s"], "s"),
            "decompose_s": metric(main["decompose_s"], "s"),
            "rel_l2_error": metric(main["rel_l2_error"], "1"),
            "peak_rss_mb": metric(main["peak_rss_mb"], "MB"),
        }
    else:
        report["metrics"] = {}
    details = {"setups_s": setups, "rounds": main["rounds"], "checks": main["checks"]}
    return report, details


def traced(workload: str, seed: int, deadline: float) -> tuple[dict, dict]:
    common = ["--workload", workload, "--seed", seed, "--seconds", 0]
    plain = run_worker([*common, "--workdir", workdir(workload, "plain")], deadline)
    spans = OUT / f"spans-{workload}.jsonl"
    tr = run_worker([*common, "--workdir", workdir(workload, "traced"), "--spans", spans], deadline)
    layers = dict(tr.get("layers", {}))
    if "run_s" in tr and "run_s" in plain:
        layers["trace.overhead_s"] = metric(tr["run_s"] - plain["run_s"], "s")
    if tr.get("missing"):
        print("traced names no longer in spod (metrics left out): " + ", ".join(tr["missing"]),
              file=sys.stderr)
    report = {
        "correct": plain["correct"] and tr["correct"],
        "attempted": plain["attempted"] + tr["attempted"],
        "failed": plain["failed"] + tr["failed"],
        "metrics": layers,
    }
    details = {"untraced_run_s": plain.get("run_s"), "traced_run_s": tr.get("run_s"),
               "spans": str(spans.relative_to(ROOT)), "checks": tr["checks"]}
    return report, details


def workdir(workload: str, tag) -> Path:
    return OUT / f"work-{workload}-{os.getpid()}-{tag}"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "spod" / "__init__.py").is_file():
        print(f"error: no spod sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    try:
        if args.trace:
            report, details = traced(args.workload, args.seed, deadline)
        else:
            report, details = end_to_end(args.workload, args.seed, args.seconds, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    record = dict(report, workload=args.workload, seed=args.seed, details=details)
    (OUT / f"result-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
