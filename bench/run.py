#!/usr/bin/env python3
"""cniprobe benchmark: study workloads, end-to-end metrics, traced layers.

    python3 bench/run.py --workload fewshot_grid --seed 17 --seconds 20 --trace 0

Runs one workload (see ``workloads.py``) in this process, as a closed
loop with one caller: set-up, one warm-up pass whose outputs are the
reference, then timed passes until ``--seconds`` have passed. Every
pass is checked against the warm-up pass byte for byte. The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``,
and with ``--trace 1`` the per-layer metrics of a run that alternates
untraced and traced passes. Full results, the trace summary and the
spans go to ``.bench_out/`` at the repository root.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter, process_time

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
REFERENCE = HERE / "reference.json"

# name -> unit. Times are process CPU time (all threads), which leaves
# out the time a shared host's other guests take the CPU away ("steal");
# wall time moves with it by tens of percent. wall_s, steps_per_s and
# failed_ratio are printed in the table but are not metrics: the first
# two for that reason, failed_ratio because it is 0 whenever the
# program is right.
END_TO_END = {
    "cpu_s": "s",
    "steps_per_cpu_s": "1/s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "top1_mean": "ratio",
}

MIN_TIMED_PASSES = 2
SETUP_REPEATS = 5
IMPORT_REPEATS = 5
IMPORT_PROBE = ("import time; t = time.process_time(); import cniprobe; "
                "print(time.process_time() - t)")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("fewshot_grid", "teacher_distill", "cli_pipeline"))
    ap.add_argument("--seed", type=int, default=None,
                    help="workload seed (default: the default seed in reference.json)")
    ap.add_argument("--seconds", type=float, default=10.0,
                    help="how long the timed passes run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--update-reference", action="store_true",
                    help="record this run's final top-1 values as the "
                         "default seed's references")
    return ap.parse_args(argv)


def pin_threads() -> dict:
    """Keep BLAS single-threaded and the sweep within the usable cores.

    Must run before numpy is imported. Returns what was set, for the
    environment record.
    """
    nproc = len(os.sched_getaffinity(0))
    pinned = {}
    for var in BLAS_THREAD_VARS:
        if var not in os.environ:
            os.environ[var] = pinned[var] = "1"
    # train.sweep defaults to os.cpu_count() workers.
    if "CNI_PROBE_THREADS" not in os.environ and (os.cpu_count() or 1) > nproc:
        os.environ["CNI_PROBE_THREADS"] = pinned["CNI_PROBE_THREADS"] = str(nproc)
    return pinned


def environment(pinned: dict) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    nproc = len(os.sched_getaffinity(0))
    threads = os.environ.get("CNI_PROBE_THREADS")
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "set_by_bench": pinned,
        "blas_single_threaded": all(os.environ.get(v) == "1" for v in BLAS_THREAD_VARS),
        "nproc": nproc,
        "os_cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "sweep_workers": int(threads) if threads else (os.cpu_count() or 1),
    }


def import_seconds() -> float:
    """Median CPU time to import cniprobe (and numpy) in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    times = []
    for _ in range(IMPORT_REPEATS):
        done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT,
                              env=env, capture_output=True, text=True,
                              timeout=60, check=True)
        times.append(float(done.stdout.strip()))
    return statistics.median(times)


class Checks:
    """Counts operations and failed operations; reports each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add_pass(self, p) -> None:
        self.attempted += p.attempted
        self.failed += p.failed

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"bench: check failed: {what}", file=sys.stderr)


def check_reference(checks: Checks, reference: dict, workload: str, top1: dict) -> None:
    expected = reference["final_top1"].get(workload, {})
    tol = reference["top1_tolerance"]
    ok = expected.keys() == top1.keys() and all(
        abs(top1[k] - v) <= tol for k, v in expected.items())
    checks.check(ok, f"final top-1 {top1} vs reference {expected} (tolerance {tol})")


def measure(workload, seed: int, seconds: float, tracer, checks: Checks) -> dict:
    """Set up, warm up, then run timed passes; returns raw samples."""
    samples = {"walls": [], "cpus": [], "traced_walls": [], "traced_cpus": [],
               "setup": [], "import_s": None}
    if tracer is None:
        samples["import_s"] = import_seconds()
        for _ in range(SETUP_REPEATS):
            start = process_time()
            workload.setup(seed)
            samples["setup"].append(process_time() - start)
    else:
        tracer.pass_id = "setup"
        tracer.install()
        try:
            workload.setup(seed)
        finally:
            tracer.uninstall()

    gc.collect()
    first = workload.run_pass()
    checks.add_pass(first)
    samples["first"] = first

    def timed(pass_id):
        gc.collect()
        if pass_id is not None:
            tracer.pass_id = pass_id
            tracer.install()
        try:
            p = workload.run_pass()
        finally:
            if pass_id is not None:
                tracer.uninstall()
        checks.add_pass(p)
        checks.check(p.outputs == first.outputs,
                     f"pass outputs differ from the first pass ({pass_id or 'untraced'})")
        return p

    def record(prefix, p):
        samples[prefix + "walls"].append(p.wall)
        samples[prefix + "cpus"].append(p.cpu)

    deadline = perf_counter() + seconds
    while True:
        record("", timed(None))
        if tracer is not None:
            record("traced_", timed(len(samples["traced_cpus"]) + 1))
        if perf_counter() >= deadline and len(samples["cpus"]) >= MIN_TIMED_PASSES:
            return samples


def end_to_end(samples: dict) -> dict:
    first = samples["first"]
    cpu = statistics.median(samples["cpus"])
    top1 = list(first.top1.values())
    return {
        "cpu_s": cpu,
        "steps_per_cpu_s": first.steps / cpu,
        "setup_s": samples["import_s"] + statistics.median(samples["setup"]),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "top1_mean": sum(top1) / len(top1) if top1 else 0.0,
    }


def per_layer(tracing, tracer, samples: dict) -> dict:
    by_pass = {}
    for span in tracer.spans:
        by_pass.setdefault(span.pass_id, []).append(span)
    setup = tracing.pass_metrics(by_pass.pop("setup", []))
    passes = [tracing.pass_metrics(spans) for _, spans in sorted(by_pass.items())]
    metrics = {}
    for name, _, _ in tracing.PER_LAYER:
        if name == "trace.overhead_ratio":
            metrics[name] = (statistics.median(samples["traced_cpus"])
                             / statistics.median(samples["cpus"]))
            continue
        value = statistics.median(p[name] for p in passes)
        if name in tracing.SETUP_LAYER:
            value += setup[name]
        metrics[name] = value
    return metrics


def print_table(title: str, rows: list[tuple]) -> None:
    print(title)
    for row in rows:
        print("  " + "  ".join(str(c) for c in row))


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "cniprobe" / "__init__.py").is_file():
        print(f"error: no cniprobe sources under {SRC}", file=sys.stderr)
        return 2
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
    seed = reference["default_seed"] if args.seed is None else args.seed
    if args.update_reference and seed != reference["default_seed"]:
        print("error: references are recorded at the default seed only", file=sys.stderr)
        return 2

    pinned = pin_threads()
    sys.path.insert(0, str(SRC))
    import tracing
    import workloads

    env = environment(pinned)
    OUT.mkdir(exist_ok=True)
    workload = workloads.make(args.workload, OUT / "tmp")
    tracer = tracing.Tracer() if args.trace else None
    checks = Checks()
    try:
        samples = measure(workload, seed, args.seconds, tracer, checks)
        checks.check(workload.exactness(),
                     "untrained CNI head disagrees with zero_shot_predictions")
    finally:
        workload.close()
    first = samples["first"]
    if seed == reference["default_seed"] and not args.update_reference:
        check_reference(checks, reference, args.workload, first.top1)

    tag = f"{args.workload}-seed{seed}-trace{args.trace}"
    result = {
        "workload": args.workload, "seed": seed, "seconds": args.seconds,
        "trace": args.trace, "env": env, "steps_per_pass": first.steps,
        **{k: samples[k] for k in ("walls", "cpus", "traced_walls", "traced_cpus",
                                   "import_s", "setup")},
        "final_top1": first.top1, "attempted": checks.attempted,
        "failed": checks.failed,
        "failed_ratio": checks.failed / max(1, checks.attempted),
    }
    print("env " + json.dumps(env, sort_keys=True))
    if tracer is None:
        metrics = end_to_end(samples)
        units = END_TO_END
        wall = statistics.median(samples["walls"])
        result["wall_s"] = wall
        result["steps_per_s"] = first.steps / wall
        print_table(f"{args.workload} seed {seed}: {len(samples['walls'])} timed passes",
                    [(k, f"{v:.6g}", units[k]) for k, v in metrics.items()]
                    + [("wall_s", f"{wall:.6g}", "s"),
                       ("steps_per_s", f"{result['steps_per_s']:.6g}", "1/s"),
                       ("failed_ratio", f"{result['failed_ratio']:.6g}", "ratio")])
    else:
        metrics = per_layer(tracing, tracer, samples)
        units = {name: unit for name, unit, _ in tracing.PER_LAYER}
        passes = len(samples["traced_walls"])
        result["layers"] = tracing.layer_table(
            [s for s in tracer.spans if s.pass_id != "setup"], passes)
        result["reference_calls"] = tracing.reference_rows(tracer.spans)
        result["missing_hooks"] = tracer.missing
        result["trace_overhead_s"] = (statistics.median(samples["traced_cpus"])
                                      - statistics.median(samples["cpus"]))
        print(f"trace_overhead_s {result['trace_overhead_s']:.6g} s "
              f"(traced minus untraced median cpu_s)")
        print_table(f"{args.workload} seed {seed}: self time per layer, per pass "
                    f"({passes} traced passes)",
                    [(r["layer"], f"{r['self_s']:.4f} s", f"{r['calls']:.0f} calls")
                     for r in result["layers"]])
        print_table("per-call medians vs re-anchor figures",
                    [(r["call"], "n/a" if r["median_us"] is None
                      else f"{r['median_us']:.1f} us", f"ref {r['reference_us']} us",
                      f"{r['calls']} calls", "FLAG >2x off" if r["flag"] else "")
                     for r in result["reference_calls"]])
        tracer.write(OUT / f"spans-{tag}.jsonl")
    result["metrics"] = metrics
    (OUT / f"result-{tag}.json").write_text(json.dumps(result, indent=1, default=str) + "\n")

    if args.update_reference:
        reference["final_top1"][args.workload] = first.top1
        REFERENCE.write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n")

    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if checks.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
