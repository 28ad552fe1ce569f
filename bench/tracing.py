"""Runtime call tracing of cniprobe from outside the library.

``Tracer.install()`` rebinds each hooked function, in every namespace
that binds it, to a wrapper that records a span: name, start, end,
parent span, thread id and pass id, plus one small ``info`` value taken
from the arguments (batch size, policy, file size...). Wrapping the
bindings rather than the defining module matters because callers use
``from .model import backward``; ``cniprobe.train.backward`` is the name
the training loop actually calls. ``uninstall()`` puts every original
back. Spans stay in memory until the caller writes them out.

``pass_metrics`` turns the spans of one workload pass into the
per-layer metrics listed in ``PER_LAYER``. A metric ending in ``.s`` is
the total time inside calls of that function; ``.self_s`` excludes the
time of traced calls it made on the same thread.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import statistics
import sys
import threading
from collections import defaultdict
from time import perf_counter


def _arg(args, kwargs, index, name):
    if len(args) > index:
        return args[index]
    return kwargs.get(name)


def _backward_info(args, kwargs, result):
    return (_arg(args, kwargs, 5, "policy"), len(_arg(args, kwargs, 1, "tokens")))


def _file_bytes(args, kwargs, result):
    path = _arg(args, kwargs, 0, "path")
    try:
        return (str(path), os.path.getsize(path))
    except OSError:
        return (str(path), 0)


def _cli_command(args, kwargs, result):
    argv = _arg(args, kwargs, 0, "argv") or ["?"]
    return argv[0]


# (defining module, attribute, span name, info extractor). Attributes
# with a dot are methods, patched on their class. ``_sweep_one`` is
# private but is the one place a sweep entry starts and ends.
HOOKS = (
    ("cniprobe.model", "forward", "model.forward",
     lambda a, k, r: len(_arg(a, k, 1, "tokens"))),
    ("cniprobe.model", "backward", "model.backward", _backward_info),
    ("cniprobe.model", "loss_total", "model.loss_total", None),
    ("cniprobe.optim", "adafactor_step", "optim.adafactor_step",
     lambda a, k, r: len(_arg(a, k, 2, "grads"))),
    ("cniprobe.evaluate", "top1", "evaluate.top1",
     lambda a, k, r: _arg(a, k, 1, "ds").num_examples),
    ("cniprobe.evaluate", "zero_shot", "evaluate.zero_shot", None),
    ("cniprobe.train", "train", "train.train", None),
    ("cniprobe.train", "sweep", "train.sweep", None),
    ("cniprobe.train", "_sweep_one", "train.sweep.entry", None),
    ("cniprobe.distill", "teacher_predict", "distill.teacher_predict", None),
    ("cniprobe.distill", "distill_train", "distill.distill_train", None),
    ("cniprobe.rng", "Stream.permutation", "rng.permutation",
     lambda a, k, r: _arg(a, k, 1, "n")),
    ("cniprobe.dataset", "make_synthetic", "dataset.make_synthetic", None),
    ("cniprobe.dataset", "sample_k_shot", "dataset.sample_k_shot", None),
    ("cniprobe.benchmark", "make_benchmark", "benchmark.make_benchmark", None),
    ("cniprobe.headinit", "init_head", "headinit.init_head", None),
    ("cniprobe.tensorio", "read_tensor", "tensorio.read_tensor", _file_bytes),
    ("cniprobe.tensorio", "write_tensor", "tensorio.write_tensor", _file_bytes),
    ("cniprobe.tensorio", "write_json", "tensorio.write_json", None),
    ("cniprobe.cli", "main", "cli.main", _cli_command),
    ("cniprobe.cli", "load_experiment", "cli.load_experiment", None),
)

CLI_COMMANDS = ("synth", "init-head", "sample-shots", "train", "eval")

# (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = (
    [(f"model.backward.{p}.s", "s", "lower") for p in ("L", "PL", "ALL")]
    + [
        ("model.backward.calls", "count", "lower"),
        ("model.backward.examples", "count", "lower"),
        ("model.forward.s", "s", "lower"),
        ("model.forward.examples", "count", "lower"),
        ("model.loss_total.s", "s", "lower"),
        ("optim.adafactor_step.calls", "count", "lower"),
        ("optim.adafactor_step.s", "s", "lower"),
        ("evaluate.top1.calls", "count", "lower"),
        ("evaluate.top1.s", "s", "lower"),
        ("evaluate.top1.examples", "count", "lower"),
        ("evaluate.zero_shot.s", "s", "lower"),
        ("train.train.self_s", "s", "lower"),
        ("train.sweep.s", "s", "lower"),
        ("train.sweep.wait_s", "s", "lower"),
        ("train.sweep.overlap", "ratio", "higher"),
        ("train.eval_forward_ratio", "ratio", "lower"),
        ("distill.teacher_predict.s", "s", "lower"),
        ("distill.distill_train.self_s", "s", "lower"),
        ("rng.permutation.calls", "count", "lower"),
        ("rng.permutation.s", "s", "lower"),
        ("dataset.make_synthetic.s", "s", "lower"),
        ("dataset.sample_k_shot.s", "s", "lower"),
        ("benchmark.make_benchmark.s", "s", "lower"),
        ("headinit.init_head.s", "s", "lower"),
        ("tensorio.read_tensor.calls", "count", "lower"),
        ("tensorio.read_tensor.s", "s", "lower"),
        ("tensorio.read_tensor.bytes", "bytes", "lower"),
        ("tensorio.write_tensor.calls", "count", "lower"),
        ("tensorio.write_tensor.s", "s", "lower"),
        ("tensorio.write_tensor.bytes", "bytes", "lower"),
        ("tensorio.write_json.s", "s", "lower"),
        ("tensorio.read_useful_ratio", "ratio", "higher"),
    ]
    + [(f"cli.{c}.s", "s", "lower") for c in CLI_COMMANDS]
    + [
        ("cli.load_experiment.s", "s", "lower"),
        ("cli.main.self_s", "s", "lower"),
        ("trace.overhead_ratio", "ratio", "lower"),
    ]
)

# Layers whose work is set-up on some workloads: their metrics add the
# traced set-up to the per-pass value.
SETUP_LAYER = ("dataset.make_synthetic.s", "dataset.sample_k_shot.s",
               "benchmark.make_benchmark.s", "headinit.init_head.s")

# Per-call medians set beside the figures measured when the roadmap was
# last re-anchored: (label, span name, filter on info, use self time,
# reference in microseconds).
REFERENCE_CALLS = (
    ("forward (B=32)", "model.forward", lambda i: i == 32, False, 80),
    ("backward L (B=32)", "model.backward", lambda i: i == ("L", 32), True, 25),
    ("backward PL (B=32)", "model.backward", lambda i: i == ("PL", 32), True, 67),
    ("backward ALL (B=32)", "model.backward", lambda i: i == ("ALL", 32), True, 162),
    ("adafactor_step (ALL)", "optim.adafactor_step", lambda i: i == 5, False, 154),
    ("permutation(500)", "rng.permutation", lambda i: i == 500, False, 419),
    ("top1 (500 examples)", "evaluate.top1", lambda i: i == 500, False, 1000),
    ("make_benchmark", "benchmark.make_benchmark", lambda i: True, False, 200000),
)


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "thread", "pass_id", "info")

    def __init__(self, sid, name, start, end, parent, thread, pass_id, info):
        self.id = sid
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.thread = thread
        self.pass_id = pass_id
        self.info = info

    @property
    def dur(self) -> float:
        return self.end - self.start


def _namespaces():
    """Every loaded cniprobe module, which together hold all bindings."""
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "cniprobe" or name.startswith("cniprobe."))]


class Tracer:
    """Installs span-recording wrappers and keeps the spans in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self.pass_id = None
        self.missing: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_thread = threading.get_ident()
        self._main_stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main_thread:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, name, info):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                # A worker thread's first span belongs to whatever the
                # main thread is blocked in (the sweep).
                main = tracer._main_stack
                parent = main[-1] if main else None
            sid = next(tracer._ids)
            stack.append(sid)
            start = perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                detail = info(args, kwargs, result) if info else None
                tracer.spans.append(Span(sid, name, start, end, parent,
                                         threading.get_ident(), tracer.pass_id,
                                         detail))

        return traced

    def _patch(self, owner, attr, value):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        self.missing = []
        spaces = _namespaces()
        for module_name, attr, name, info in HOOKS:
            module = sys.modules.get(module_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name, None)
                orig = cls.__dict__.get(meth) if cls is not None else None
                if orig is None:
                    self.missing.append(f"{module_name}.{attr}")
                    continue
                self._patch(cls, meth, self._wrap(orig, name, info))
                continue
            orig = getattr(module, attr, None)
            if orig is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            wrapped = self._wrap(orig, name, info)
            for space in spaces:
                if space.__dict__.get(attr) is orig:
                    self._patch(space, attr, wrapped)
        for hook in self.missing:
            print(f"bench: hook target {hook} not found", file=sys.stderr)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    def write(self, path) -> None:
        """JSON lines: a header naming the fields, then one list per span."""
        with open(path, "w", encoding="utf-8") as f:
            f.write(json.dumps({"fields": Span.__slots__}) + "\n")
            for span in self.spans:
                f.write(json.dumps([getattr(span, k) for k in Span.__slots__]) + "\n")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus same-thread child spans."""
    own = {s.id: s.dur for s in spans}
    by_id = {s.id: s for s in spans}
    for s in spans:
        parent = by_id.get(s.parent)
        if parent is not None and parent.thread == s.thread:
            own[parent.id] -= s.dur
    return own


def pass_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one pass (trace.overhead_ratio excepted)."""
    own = self_times(spans)
    by_id = {s.id: s for s in spans}
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)

    def total(name, pick=lambda s: True):
        return sum(s.dur for s in by_name[name] if pick(s))

    def self_total(name):
        return sum(own[s.id] for s in by_name[name])

    m: dict[str, float] = {}
    backward = by_name["model.backward"]
    for policy in ("L", "PL", "ALL"):
        m[f"model.backward.{policy}.s"] = total(
            "model.backward", lambda s, p=policy: s.info[0] == p)
    m["model.backward.calls"] = len(backward)
    m["model.backward.examples"] = sum(s.info[1] for s in backward)
    m["model.forward.s"] = total("model.forward")
    m["model.forward.examples"] = sum(s.info for s in by_name["model.forward"])
    m["model.loss_total.s"] = total("model.loss_total")
    m["optim.adafactor_step.calls"] = len(by_name["optim.adafactor_step"])
    m["optim.adafactor_step.s"] = total("optim.adafactor_step")
    m["evaluate.top1.calls"] = len(by_name["evaluate.top1"])
    m["evaluate.top1.s"] = total("evaluate.top1")
    m["evaluate.top1.examples"] = sum(s.info for s in by_name["evaluate.top1"])
    m["evaluate.zero_shot.s"] = total("evaluate.zero_shot")

    m["train.train.self_s"] = self_total("train.train")
    sweeps = by_name["train.sweep"]
    entries = by_name["train.sweep.entry"]
    m["train.sweep.s"] = sum(s.dur for s in sweeps)
    starts = {s.id: s.start for s in sweeps}
    m["train.sweep.wait_s"] = sum(e.start - starts[e.parent] for e in entries
                                  if e.parent in starts)
    m["train.sweep.overlap"] = (sum(e.dur for e in entries) / m["train.sweep.s"]
                                if m["train.sweep.s"] > 0 else 0.0)
    not_eval = {"model.backward", "distill.teacher_predict"}
    eval_examples = sum(
        s.info for s in by_name["model.forward"]
        if s.parent not in by_id or by_id[s.parent].name not in not_eval)
    m["train.eval_forward_ratio"] = (eval_examples / m["model.backward.examples"]
                                     if m["model.backward.examples"] else 0.0)

    m["distill.teacher_predict.s"] = total("distill.teacher_predict")
    m["distill.distill_train.self_s"] = self_total("distill.distill_train")
    m["rng.permutation.calls"] = len(by_name["rng.permutation"])
    m["rng.permutation.s"] = total("rng.permutation")
    m["dataset.make_synthetic.s"] = total("dataset.make_synthetic")
    m["dataset.sample_k_shot.s"] = total("dataset.sample_k_shot")
    m["benchmark.make_benchmark.s"] = total("benchmark.make_benchmark")
    m["headinit.init_head.s"] = total("headinit.init_head")

    for op in ("read_tensor", "write_tensor"):
        calls = by_name[f"tensorio.{op}"]
        m[f"tensorio.{op}.calls"] = len(calls)
        m[f"tensorio.{op}.s"] = total(f"tensorio.{op}")
        m[f"tensorio.{op}.bytes"] = sum(s.info[1] for s in calls)
    m["tensorio.write_json.s"] = total("tensorio.write_json")
    # Reads of one file under the same caller span are redundant.
    reads = by_name["tensorio.read_tensor"]
    distinct = len({(s.parent, s.info[0]) for s in reads})
    m["tensorio.read_useful_ratio"] = distinct / len(reads) if reads else 0.0

    mains = by_name["cli.main"]
    for command in CLI_COMMANDS:
        m[f"cli.{command}.s"] = sum(s.dur for s in mains if s.info == command)
    m["cli.load_experiment.s"] = total("cli.load_experiment")
    m["cli.main.self_s"] = self_total("cli.main")
    return m


def layer_table(spans: list[Span], passes: int) -> list[dict]:
    """Self time and call count per layer (module), per pass."""
    own = self_times(spans)
    by_id = {s.id: s for s in spans}
    # A span whose children run on other threads (the sweep) is blocked
    # on them, not busy; its self time gets a row of its own.
    waiting = {s.parent for s in spans
               if s.parent in by_id and by_id[s.parent].thread != s.thread}
    rows = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
    for s in spans:
        key = f"{s.name} (waiting)" if s.id in waiting else s.name.split(".")[0]
        row = rows[key]
        row["calls"] += 1
        row["self_s"] += own[s.id]
    return [{"layer": layer, "calls": r["calls"] / passes,
             "self_s": r["self_s"] / passes}
            for layer, r in sorted(rows.items(), key=lambda kv: -kv[1]["self_s"])]


def reference_rows(spans: list[Span]) -> list[dict]:
    """Per-call medians against the re-anchor figures; flags >2x gaps."""
    own = self_times(spans)
    rows = []
    for label, name, pick, use_self, ref_us in REFERENCE_CALLS:
        times = [(own[s.id] if use_self else s.dur) * 1e6
                 for s in spans if s.name == name and pick(s.info)]
        median = statistics.median(times) if times else None
        ratio = median / ref_us if median is not None else None
        rows.append({
            "call": label, "calls": len(times), "median_us": median,
            "reference_us": ref_us, "ratio": ratio,
            "flag": ratio is not None and not 0.5 <= ratio <= 2.0,
        })
    return rows
