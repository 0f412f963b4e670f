"""Run one workload on several seeds and report the spread of each metric.

    python3 benchmarks/spread.py --workload burgers --seeds 1-10 [--seconds 10]

The runs are untraced (``--trace 0``).  For every metric it prints the
median, the first and third quartiles (``statistics.quantiles(values, n=4)``)
and their distance as a share of the median, next to the metric's bound from
``BENCHMARK.json``.  The runs are made one at a time; their result lines are
appended to ``benchmarks/out/spread-<workload>.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, help="e.g. 1-10 or 3,5,8")
    ap.add_argument("--seconds", type=int)
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    log = BENCH / "out" / f"spread-{args.workload}.jsonl"
    log.parent.mkdir(exist_ok=True)
    values: dict[str, list[float]] = {}
    shares = set()
    for seed in seed_list(args.seeds):
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        started = time.monotonic()
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True)
        wall = time.monotonic() - started
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}")
            return 1
        result = json.loads(proc.stdout.splitlines()[-1])
        with log.open("a") as fh:
            fh.write(json.dumps(dict(result, seed=seed)) + "\n")
        shares.add(result["failed"] / result["attempted"])
        summary = " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()
                           if k in bounds)
        print(f"seed {seed}: wall={wall:.1f}s correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']} {summary}", flush=True)
        for k, v in result["metrics"].items():
            values.setdefault(k, []).append(v["value"])
    print(f"failed share(s): {sorted(shares)}")
    for k, vals in values.items():
        if len(vals) < 2:
            continue
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(k)
        tail = f" bound {bound}" if bound is not None else ""
        print(f"{k:40s} median {med:.6g} q1 {q1:.6g} q3 {q3:.6g} spread {spread:.3f}{tail}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
