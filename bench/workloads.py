"""The three study workloads the benchmark runs.

Each workload builds its inputs from the seed in ``setup`` and then runs
whole passes. ``run_pass`` times one pass from the first library call
to the last return and returns a ``Pass``: its wall time and process
CPU time (all threads), optimizer steps, operations attempted and
failed, the final test top-1 of every training run, and the pass's
outputs as bytes, so that passes can be compared for byte-identity.
Library functions are looked up through their modules at call time, so
the tracer's wrappers are seen.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
import tempfile
import traceback
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter, process_time

import numpy as np

import cniprobe.benchmark as B
import cniprobe.cli as C
import cniprobe.distill as D
import cniprobe.evaluate as E
import cniprobe.headinit as H
import cniprobe.model as M

# ``cniprobe/__init__.py`` rebinds ``cniprobe.train`` to the function.
T = sys.modules["cniprobe.train"]


@dataclass
class Pass:
    wall: float
    cpu: float
    steps: int
    attempted: int
    failed: int
    top1: dict[str, float]
    outputs: dict[str, bytes]


def _report(what: str) -> None:
    print(f"bench: {what}", file=sys.stderr)


def _cni_params(bank):
    head = H.init_head(H.HeadInitSpec(mode=H.MODE_CNI),
                       H.average_text_embeddings(bank), bank.num_classes, bank.dim)
    return M.init_params(head)


def zero_shot_exact(bank, test_ds) -> bool:
    """The untrained CNI head predicts exactly like the zero-shot oracle."""
    model = E.predictions(_cni_params(bank), test_ds)
    return bool(np.array_equal(model, E.zero_shot_predictions(bank, test_ds)))


class Workload:
    name = ""

    def setup(self, seed: int) -> None:
        raise NotImplementedError

    def run_pass(self) -> Pass:
        raise NotImplementedError

    def exactness(self) -> bool:
        return zero_shot_exact(self.bank, self.test_ds)

    def close(self) -> None:
        pass


class FewshotGrid(Workload):
    """{cni, random} x {1, 5} shots x {L, PL, ALL} through ``train.sweep``."""

    name = "fewshot_grid"

    def setup(self, seed: int) -> None:
        self.train_ds, self.test_ds, self.bank = B.make_benchmark(seed)
        self.entries = [
            T.SweepEntry(label=f"{mode}_{shots}shot_{policy}",
                         init=H.HeadInitSpec(mode=mode, seed=seed),
                         cfg=B.default_train_config(mode, seed, shots=shots,
                                                    policy=policy))
            for mode in (H.MODE_CNI, H.MODE_RANDOM)
            for shots in (1, 5)
            for policy in ("L", "PL", "ALL")
        ]

    def run_pass(self) -> Pass:
        # Sweep rows carry only the final top-1; the whole histories are
        # caught at the ``train`` binding each entry calls, keyed by config.
        histories = []
        inner = T.train

        def capture(params0, train_ds, test_ds, cfg):
            result = inner(params0, train_ds, test_ds, cfg)
            histories.append((repr(cfg), result[1]))
            return result

        T.train = capture
        try:
            start, cpu_start = perf_counter(), process_time()
            rows = T.sweep(self.bank, self.train_ds, self.test_ds, self.entries)
            wall, cpu = perf_counter() - start, process_time() - cpu_start
        finally:
            T.train = inner
        failed = 0
        for row in rows:
            if row.error:
                failed += 1
                _report(f"sweep row {row.label} failed: {row.error}")
        outputs = {key: h.to_csv().encode() for key, h in histories}
        outputs["rows"] = repr([(r.label, r.final_top1, r.error) for r in rows]).encode()
        return Pass(wall=wall, cpu=cpu,
                    steps=sum(h.final.step for _, h in histories),
                    attempted=len(rows), failed=failed,
                    top1={r.label: r.final_top1 for r in rows if r.error is None},
                    outputs=outputs)


class TeacherDistill(Workload):
    """The study of scripts/distill_study.py for one seed, same calls."""

    name = "teacher_distill"
    RUNS = ("teacher", "plain", "distilled")

    def setup(self, seed: int) -> None:
        self.train_ds, self.test_ds, self.bank = B.make_benchmark(seed)
        self.start = _cni_params(self.bank)
        self.teacher_cfg = B.default_train_config(H.MODE_CNI, seed, policy="ALL")
        base = B.default_train_config(H.MODE_CNI, seed, shots=1, policy="ALL")
        self.plain_cfg = replace(base, loss=M.LossConfig(distill_weight=0.0))
        self.distill_cfg = replace(base, loss=M.LossConfig(
            distill_weight=B.DISTILL_WEIGHT,
            distill_temperature=B.DISTILL_TEMPERATURE))

    def run_pass(self) -> Pass:
        histories = {}
        start, cpu_start = perf_counter(), process_time()
        try:
            teacher, histories["teacher"] = T.train(
                self.start.copy(), self.train_ds, self.test_ds, self.teacher_cfg)
            _, histories["plain"] = D.distill_train(
                teacher, self.start.copy(), self.train_ds, None, self.test_ds,
                self.plain_cfg)
            _, histories["distilled"] = D.distill_train(
                teacher, self.start.copy(), self.train_ds, self.train_ds,
                self.test_ds, self.distill_cfg)
        except Exception:  # noqa: BLE001 - counted as failed runs
            _report(traceback.format_exc())
        wall, cpu = perf_counter() - start, process_time() - cpu_start
        return Pass(wall=wall, cpu=cpu,
                    steps=sum(h.final.step for h in histories.values()),
                    attempted=len(self.RUNS),
                    failed=len(self.RUNS) - len(histories),
                    top1={k: h.final.test_top1 for k, h in histories.items()},
                    outputs={k: h.to_csv().encode() for k, h in histories.items()})


def _file_bytes(path: Path) -> bytes:
    """File content with the run-time fields (timestamps, paths) left out."""
    data = path.read_bytes()
    if path.suffix == ".json":
        doc = json.loads(data)
        doc.pop("generated_at", None)
        data = json.dumps(doc, sort_keys=True).encode()
    return data


class CliPipeline(Workload):
    """synth -> init-head -> sample-shots -> train -> eval x2 via cli.main."""

    name = "cli_pipeline"

    def __init__(self, scratch: Path):
        self.scratch = scratch
        self.first_dir = None

    def setup(self, seed: int) -> None:
        self.seed = str(seed)
        self.scratch.mkdir(parents=True, exist_ok=True)

    def commands(self, d: Path) -> list[list[str]]:
        manifest = str(d / "data" / "manifest.json")
        return [
            ["synth", "--out", str(d / "data"), "--seed", self.seed],
            ["init-head", "--manifest", manifest, "--out", str(d / "head")],
            ["sample-shots", "--manifest", manifest, "--out", str(d / "shots"),
             "--k", "1", "--seed", self.seed],
            ["train", "--manifest", manifest, "--out", str(d / "run"),
             "--shots", "1", "--seed", self.seed],
            ["eval", "--manifest", manifest, "--out", str(d / "eval_params"),
             "--params", str(d / "run")],
            ["eval", "--manifest", manifest, "--out", str(d / "eval_zero"),
             "--zero-shot"],
        ]

    def run_pass(self) -> Pass:
        d = Path(tempfile.mkdtemp(prefix="cli-", dir=self.scratch))
        commands = self.commands(d)
        failed = 0
        sink = io.StringIO()
        start, cpu_start = perf_counter(), process_time()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            for argv in commands:
                try:
                    code = C.main(argv)
                except (Exception, SystemExit) as exc:  # noqa: BLE001 - counted
                    code = f"{type(exc).__name__}: {exc}"
                if code != 0:
                    failed += 1
                    print(f"bench: {argv[0]} exited with {code}", file=sys.stderr)
        wall, cpu = perf_counter() - start, process_time() - cpu_start
        if failed:
            _report(sink.getvalue())
        # config.json echoes the per-pass output paths, so it is left out.
        outputs = {str(p.relative_to(d)): _file_bytes(p)
                   for p in sorted(d.rglob("*"))
                   if p.is_file() and p.name != "config.json"}
        steps, top1 = 0, {}
        summary = d / "run" / "summary.json"
        if summary.is_file():
            last = (d / "run" / "metrics.csv").read_text().strip().splitlines()[-1]
            steps = int(last.split(",")[1])
            top1["train"] = json.loads(summary.read_text())["final_top1"]
        if self.first_dir is None:
            self.first_dir = d
        else:
            shutil.rmtree(d)
        return Pass(wall=wall, cpu=cpu, steps=steps, attempted=len(commands),
                    failed=failed, top1=top1, outputs=outputs)

    def exactness(self) -> bool:
        _, test_ds, bank = C.load_experiment(self.first_dir / "data" / "manifest.json")
        return zero_shot_exact(bank, test_ds)

    def close(self) -> None:
        if self.first_dir is not None:
            shutil.rmtree(self.first_dir, ignore_errors=True)
            self.first_dir = None


def make(name: str, scratch: Path) -> Workload:
    if name == FewshotGrid.name:
        return FewshotGrid()
    if name == TeacherDistill.name:
        return TeacherDistill()
    if name == CliPipeline.name:
        return CliPipeline(scratch)
    raise ValueError(f"unknown workload {name!r}")


NAMES = (FewshotGrid.name, TeacherDistill.name, CliPipeline.name)
