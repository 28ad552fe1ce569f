"""Smoke tests of the benchmark itself.

    python3 -m pytest -q bench/test_bench.py

Each workload runs at its minimum length (one warm-up and two timed
passes) with no failed operation; the printed metric names and units
match BENCHMARK.json; the tracer puts back every attribute it wraps.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(workload: str, trace: int, cwd: Path = ROOT):
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "17",
         "--seconds", "0", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    return done


def names_and_units(metrics: list[dict]) -> dict:
    return {m["name"]: m["unit"] for m in metrics}


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_workload_runs_clean_at_minimum_length(workload):
    done = run_bench(workload, trace=0)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    assert printed == names_and_units(SPEC["end_to_end"])
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_run_prints_every_per_layer_metric():
    done = run_bench("cli_pipeline", trace=1)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["failed"] == 0
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    assert printed == names_and_units(SPEC["per_layer"])
    assert printed == {name: unit for name, unit, _ in tracing.PER_LAYER}


def test_workload_names_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.NAMES)


def _bindings():
    seen = {}
    for space in tracing._namespaces():
        for attr, value in vars(space).items():
            seen[(space.__name__, attr)] = value
    stream = sys.modules["cniprobe.rng"].Stream
    for attr, value in vars(stream).items():
        seen[("Stream", attr)] = value
    return seen


def test_tracer_restores_every_wrapped_attribute(tmp_path):
    before = _bindings()
    tracer = tracing.Tracer()
    workload = workloads.make("cli_pipeline", tmp_path)
    workload.setup(17)
    tracer.pass_id = 1
    tracer.install()
    try:
        assert any(before[key] is not value for key, value in _bindings().items())
        result = workload.run_pass()
    finally:
        tracer.uninstall()
        workload.close()
    assert result.failed == 0
    assert tracer.missing == []
    assert {"cli.main", "tensorio.read_tensor", "model.backward"} <= {
        s.name for s in tracer.spans}
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench("fewshot_grid", trace=0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
