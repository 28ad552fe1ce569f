#!/usr/bin/env python3
"""Run one workload several times and report each metric's spread.

    python3 bench/spread.py --workload fewshot_grid --runs 10
    python3 bench/spread.py --workload fewshot_grid --runs 10 --seed-sweep

By default every run uses the default seed, so the spread is run-to-run
noise only. With ``--seed-sweep`` run i uses seed 1000 + i, so each run
has other inputs; there the spread of ``top1_mean`` is the difference
between seeds, not noise.

For every end-to-end metric it prints the median, the first and third
quartiles (``statistics.quantiles(values, n=4)``) and the spread,
(q3 - q1) / median, which must stay under a third of the metric's
bound in BENCHMARK.json for the benchmark to count as steady. The runs
and the summary are saved to ``.bench_out/spread-<workload>-<view>.json``;
that file is the baseline a later change is compared against.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SWEEP_FIRST_SEED = 1000


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=None,
                    help="default: run_seconds from BENCHMARK.json")
    ap.add_argument("--seed-sweep", action="store_true",
                    help="give run i seed 1000 + i instead of the default seed")
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    default_seed = json.loads((HERE / "reference.json").read_text())["default_seed"]
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs = []
    for i in range(args.runs):
        seed = SWEEP_FIRST_SEED + i if args.seed_sweep else default_seed
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, "exit": done.returncode, **result})
        print(f"run {i} seed {seed}: exit {done.returncode} failed "
              f"{result['failed']}/{result['attempted']}", file=sys.stderr)

    summary = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, median, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / abs(median)
        bound = bounds[name]
        summary[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                         "bound": bound}
        mark = "" if name == "setup_s" else (
            "ok" if spread < bound / 3 else "within bound" if spread <= bound
            else "OVER BOUND")
        print(f"{name:14s} median {median:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  "
              f"spread {spread:7.4f}  bound {bound}  {mark}")
    view = "seeds" if args.seed_sweep else "noise"
    out = ROOT / ".bench_out" / f"spread-{args.workload}-{view}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({"runs": runs, "summary": summary}, indent=1) + "\n")
    return 0 if all(r["exit"] == 0 and r["failed"] == 0 for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
