"""Command-line experiment runner.

Subcommands: synth, init-head, sample-shots, train, distill, eval,
sweep, study. Each command's settings are the fields of one spec dataclass
(``RunSpec`` for train, ``DistillSpec`` for distill, ``ShotSpec`` for
sample-shots, ...). Every field is a flag and a key of the optional
--config JSON file; a flag beats a config key, which beats the
default, and the resolved spec is echoed into the output directory as
config.json. A sweep entry is ``{"label": ...}`` plus the keys that
``train --config`` accepts. ``study`` prints ``benchmark.study``.
``--out`` must be new or an empty directory; it is checked before any
input is read and made, by ``_save``, only once the results are computed.

Exit codes: 0 success, 2 configuration error, 3 data error,
4 numerical error. Outputs are deterministic given flags and seeds;
the only timestamps live in summary metadata files, never in
metrics.csv or tensor files.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import asdict, dataclass, fields, replace
from datetime import datetime, timezone
from pathlib import Path
from typing import get_args, get_type_hints

from . import benchmark
from .benchmark import DistillSpec, RunSpec, fit
from .dataset import (EmbeddingDataset, ShotSpec, SynthSpec, make_synthetic,
                      sample_k_shot)
from .errors import (
    CniProbeError,
    ConfigError,
    DataError,
    NumericalError,
    ParseError,
    WriteError,
)
from .evaluate import top1, zero_shot
from .headinit import (MODE_CNI, MODE_RANDOM, TextEmbeddingBank,
                       average_text_embeddings, init_head)
from .model import POLICY_ALL, TRAINABLE, ModelParams, init_params
from .tensorio import read_tensor, write_json, write_tensor
from .train import SweepEntry, sweep


@dataclass
class EvalSpec:
    """What ``eval`` scores: saved parameters or the zero-shot oracle."""

    params: str | None = None
    zero_shot: bool = False
    split: str = "test"

    def __post_init__(self):
        if self.split not in ("train", "test"):
            raise ConfigError(f"unknown split {self.split!r}")
        if self.zero_shot == (self.params is not None):
            raise ConfigError("choose exactly one of --zero-shot / --params")


def _names(cls, skip=()) -> tuple[str, ...]:
    return tuple(f.name for f in fields(cls) if f.name not in skip)


_RUN_FIELDS = _names(RunSpec)


def _timestamp() -> str:
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def _check_out(out: Path) -> None:
    """Raise WriteError unless `out` is new or an empty directory, and
    the nearest existing path at or above it is a directory, so that a
    directory holds one command's outputs. Makes nothing."""
    existing = next((p for p in (out, *out.parents) if p.exists()), out)
    if not existing.is_dir():
        raise WriteError(f"cannot make output directory {out}: "
                         f"{existing} is not a directory")
    if existing == out and any(out.iterdir()):
        raise WriteError(f"output directory {out} is not empty")


def _save(args, files: dict, spec=None) -> Path:
    """Make ``--out`` and write `files` into it, by name: an array as
    CNIT, a dict as JSON, a string as text; then echo `spec`, the
    resolved settings, as config.json. Any failure is a WriteError and
    removes the files and directories that this call made."""
    out = Path(args.out)
    if spec is not None:
        files = {**files, "config.json": {
            "command": args.command, **{k: getattr(args, k) for k in args.paths},
            **{n: getattr(spec, n) for n in args.spec_names}}}
    made = [p for p in (out, *out.parents) if not p.exists()]  # nearest first
    written = []
    try:
        out.mkdir(parents=True, exist_ok=True)
        for name, value in files.items():
            written.append(path := out / name)
            if isinstance(value, str):
                path.write_text(value, encoding="utf-8")
            elif isinstance(value, dict):
                write_json(path, value)
            else:
                write_tensor(path, value)
    except (OSError, WriteError) as exc:  # an OSError names its file
        for path in written:
            if not path.is_dir():  # one that blocked its write stays
                path.unlink(missing_ok=True)
        for path in filter(Path.exists, made):
            path.rmdir()
        if isinstance(exc, WriteError):
            raise
        raise WriteError(f"cannot write to {out}: {exc}") from exc
    return out


def _read_json(path: str | Path, error: type[CniProbeError]) -> dict:
    """The JSON object in `path`; any failure to read one raises `error`."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except OSError as exc:
        raise error(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise error(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise error(f"{path}: must be a JSON object")
    return doc


def _whole(value) -> int | None:
    """`value` if it is a whole JSON number (3 or 3.0, not true), else None."""
    whole = type(value) is int or type(value) is float and value.is_integer()
    return int(value) if whole else None


# --- specs from flags and config files ----------------------------------------

def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


_hints = functools.cache(get_type_hints)  # spec class -> {field: type}


def _convert(hint, value, where: str):
    """A flag string or JSON value as the field type `hint` (X or X | None).

    Only a bool field takes a boolean, an int field takes a whole
    number or a string of one, and a float field takes only a finite
    value; anything else raises ConfigError.
    """
    kinds = get_args(hint) or (hint,)
    if value is None and type(None) in kinds:
        return None
    kind = kinds[0]
    if isinstance(value, bool) == (kind is bool):
        arg = value
        if kind is int and not isinstance(value, str):
            arg = _whole(value)
        try:
            result = kind(arg)
            if kind is not float or math.isfinite(result):
                return result
        except (TypeError, ValueError, OverflowError):  # float(10**400)
            pass
    what = "finite float" if kind is float else kind.__name__
    raise ConfigError(f"{where}: expected {what}, got {value!r}")


def _build_spec(cls, names: tuple[str, ...], doc: dict, where: str,
                flags: dict | None = None):
    """`cls` from config keys (``-`` or ``_``), overridden by non-None flags.

    Keys outside `names` and values that do not convert to their
    field's type raise ConfigError; unset fields keep their defaults.
    """
    hints = _hints(cls)
    values = {}
    for key, value in doc.items():
        name = key.replace("-", "_")
        if name not in names:
            raise ConfigError(f"{where}: unknown key {key!r}")
        values[name] = _convert(hints[name], value, f"{where}: {key}")
    for name, value in (flags or {}).items():
        if value is not None:
            values[name] = _convert(hints[name], value, _flag(name))
    return cls(**values)


def _resolve(args):
    """The command's spec from its flags and --config file."""
    names = args.spec_names
    doc = _read_json(args.config, ConfigError) if args.config else {}
    return _build_spec(args.spec_cls, names, doc, args.config,
                       {n: getattr(args, n) for n in names})


# --- experiment manifest: cmd_synth writes it, load_experiment reads it ------

def cmd_synth(args) -> int:
    spec = _resolve(args)
    train_ds, test_ds, bank = make_synthetic(spec)
    out = _save(args, {
        "train_tokens.cnit": train_ds.tokens,
        "train_labels.cnit": train_ds.labels,
        "test_tokens.cnit": test_ds.tokens,
        "test_labels.cnit": test_ds.labels,
        "bank.cnit": bank.embeddings,
        "manifest.json": {
            "format": "cniprobe-experiment",
            "train": {"tokens": "train_tokens.cnit", "labels": "train_labels.cnit"},
            "test": {"tokens": "test_tokens.cnit", "labels": "test_labels.cnit"},
            "bank": {"embeddings": "bank.cnit",
                     "prompt_templates": bank.prompt_templates,
                     "class_names": bank.class_names},
            "generator": asdict(spec),
        },
    }, spec)
    print(f"wrote synthetic dataset to {out}")
    return 0


def _strings(doc: dict, key: str, where: str) -> list[str]:
    """The optional list ``doc[key]``, as strings."""
    value = doc.get(key, [])
    if not isinstance(value, list):
        raise ParseError(f"{where}: {key!r} must be a list")
    return [str(s) for s in value]


def _named(where: str | Path, cls, *args, **kwargs):
    """``cls(*args, **kwargs)``; a DataError it raises names `where` first."""
    try:
        return cls(*args, **kwargs)
    except DataError as exc:
        exc.args = (f"{where}: {exc}",)
        raise


def _read_split(doc, base: Path, where: str, num_classes: int) -> EmbeddingDataset:
    """One split's tensor pair; T and D come from the tokens, C from the bank."""
    if not isinstance(doc, dict):
        raise ParseError(f"{where}: split must be a JSON object")
    for key in ("tokens", "labels"):
        if key not in doc:
            raise ParseError(f"{where}: split missing field {key!r}")
    return _named(where, EmbeddingDataset,
                  tokens=read_tensor(base / str(doc["tokens"])),
                  labels=read_tensor(base / str(doc["labels"])),
                  num_classes=num_classes)


def load_experiment(manifest_path: str | Path):
    """Read an experiment manifest: train/test datasets plus the bank.

    Keys the reader does not use are ignored, so manifests that also
    give each split's name, counts and class names still load.
    """
    path = Path(manifest_path)
    doc = _read_json(path, ParseError)
    for key in ("train", "test", "bank"):
        if key not in doc:
            raise ParseError(f"{path}: experiment manifest missing {key!r}")

    base = path.parent
    bank_doc = doc["bank"]
    if not isinstance(bank_doc, dict) or "embeddings" not in bank_doc:
        raise ParseError(f"{path}: bank section needs an 'embeddings' path")
    where = f"{path}: bank"
    bank = _named(where, TextEmbeddingBank,
                  embeddings=read_tensor(base / str(bank_doc["embeddings"])),
                  prompt_templates=_strings(bank_doc, "prompt_templates", where),
                  class_names=_strings(bank_doc, "class_names", where))
    train_ds, test_ds = (_read_split(doc[key], base, f"{path}: {key}",
                                     bank.num_classes)
                         for key in ("train", "test"))
    if {train_ds.dim, test_ds.dim} != {bank.dim}:
        raise ParseError(f"{path}: bank and splits disagree on C or D")
    return train_ds, test_ds, bank


# --- saved models -------------------------------------------------------------

def _model_files(params: ModelParams) -> dict:
    """A model's outputs, one CNIT file per group: ``params_{A,a,q,W,b}``."""
    return {f"params_{n}.cnit": params.group(n) for n in TRAINABLE[POLICY_ALL]}


def _read_params(path: str | Path) -> ModelParams:
    """The model that ``init-head``, ``train`` or ``distill`` saved in `path`."""
    d = Path(path)
    return _named(d, ModelParams, *(read_tensor(d / f"params_{n}.cnit")
                                    for n in TRAINABLE[POLICY_ALL]))


# --- subcommands --------------------------------------------------------------

def cmd_init_head(args) -> int:
    run = _resolve(args)
    spec = run.head_spec()
    _, _, bank = load_experiment(args.manifest)
    head = init_head(spec, average_text_embeddings(bank), bank.num_classes, bank.dim)
    out = _save(args, {**_model_files(init_params(head)),
                       "head.json": {"provenance": head.init_provenance}}, run)
    print(f"wrote head ({spec.mode}) to {out}")
    return 0


def cmd_sample_shots(args) -> int:
    spec = _resolve(args)
    train_ds, _, _ = load_experiment(args.manifest)
    indices = sample_k_shot(train_ds, spec)
    out = _save(args, {"shots.json": {"indices": indices, "k": spec.k,
                                      "seed": spec.seed}}, spec)
    print(f"wrote {len(indices)} indices to {out / 'shots.json'}")
    return 0


def cmd_train(args) -> int:
    """``train`` and ``distill``: ``fit`` the spec."""
    spec = _resolve(args)
    spec.head_spec()  # validate before any input is read
    cfg = spec.train_config()
    teacher = _read_params(args.teacher) if "teacher" in args.paths else None
    train_ds, test_ds, bank = load_experiment(args.manifest)
    params, history = fit(spec, train_ds, test_ds, bank, teacher)
    files = {**_model_files(params), "metrics.csv": history.to_csv(),
             "summary.json": {"final_top1": history.final.test_top1,
                              "final_epoch": history.final.epoch,
                              "generated_at": _timestamp()}}
    # echo the resolved default LR, not the None sentinel
    _save(args, files, replace(spec, lr=cfg.base_lr))
    print(f"final_top1={history.final.test_top1!r}")
    return 0


def cmd_eval(args) -> int:
    spec = _resolve(args)
    train_ds, test_ds, bank = load_experiment(args.manifest)
    ds = test_ds if spec.split == "test" else train_ds
    if spec.zero_shot:
        report = zero_shot(bank, ds)
    else:
        report = top1(_read_params(spec.params), ds)
    _save(args, {"eval.json": {"generated_at": _timestamp(),
                               "report": report.to_json_dict()}}, spec)
    print(f"top1={report.top1!r}")
    return 0


def _sweep_entries(path: str | None) -> list[SweepEntry]:
    """Entries from the --config file, else shots {1,5} x init {cni,random};
    an entry's unset keys take the defaults of a ``train --config`` file."""
    doc = _read_json(path, ConfigError) if path else {}
    for key in doc:
        if key != "entries":
            raise ConfigError(f"{path}: unknown key {key!r}")
    docs = doc.get("entries", [
        {"label": f"{mode}_{shots}shot", "init": mode, "shots": shots}
        for shots in (1, 5) for mode in (MODE_CNI, MODE_RANDOM)
    ])
    if not isinstance(docs, list) or not docs:
        raise ConfigError(f"{path}: 'entries' must be a non-empty list")
    entries = []
    for i, e in enumerate(docs):
        if not isinstance(e, dict) or "label" not in e:
            raise ConfigError(f"sweep entry {i} must be an object with a 'label'")
        doc = dict(e)
        label = str(doc.pop("label"))
        if any(c in label for c in ",\r\n"):
            raise ConfigError(f"sweep entry {i}: label {label!r} must not "
                              "contain a comma or a line break")
        spec = _build_spec(RunSpec, _RUN_FIELDS, doc, f"sweep entry {i}")
        entries.append(SweepEntry(label=label, init=spec.head_spec(),
                                  cfg=spec.train_config()))
    return entries


def cmd_sweep(args) -> int:
    entries = _sweep_entries(args.config)
    train_ds, test_ds, bank = load_experiment(args.manifest)
    rows = sweep(bank, train_ds, test_ds, entries)
    lines = ["label,final_top1,error"]
    for r in rows:
        acc = "" if r.final_top1 is None else repr(r.final_top1)
        err = r.error or ""
        lines.append(f"{r.label},{acc},{err.replace(',', ';')}")
    text = "\n".join(lines) + "\n"
    summary = {"rows": [{"label": r.label, "final_top1": r.final_top1,
                         "error": r.error} for r in rows],
               "generated_at": _timestamp()}
    _save(args, {"sweep.csv": text, "summary.json": summary})
    print(text, end="")
    return 0


def cmd_study(args) -> int:
    text = "\n".join(benchmark.study(args.name, args.seeds)) + "\n"
    _save(args, {"study.txt": text})
    print(text, end="")
    return 0


# --- parser -------------------------------------------------------------------

_PATH_HELP = {
    "manifest": "experiment manifest.json",
    "teacher": "directory with the teacher's params_*.cnit",
}

# command, help, handler, spec class, spec fields exposed, required paths
_COMMANDS = (
    ("synth", "generate a synthetic embedding dataset", cmd_synth,
     SynthSpec, _names(SynthSpec), ()),
    ("init-head", "build a head from the text bank", cmd_init_head,
     RunSpec, ("init", "fraction", "seed"), ("manifest",)),
    ("sample-shots", "sample a k-shot index subset", cmd_sample_shots,
     ShotSpec, _names(ShotSpec), ("manifest",)),
    ("train", "fine-tune from an initialized head", cmd_train,
     RunSpec, _RUN_FIELDS, ("manifest",)),
    ("distill", "train an ALL-policy student against a teacher", cmd_train,
     DistillSpec, _names(DistillSpec, skip=("policy",)),
     ("manifest", "teacher")),
    ("eval", "evaluate a model or the zero-shot oracle", cmd_eval,
     EvalSpec, _names(EvalSpec), ("manifest",)),
    ("sweep", "run a list of training configurations", cmd_sweep,
     None, (), ("manifest",)),
)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``cniprobe`` parser, built on first use and shared by every `main`."""
    parser = argparse.ArgumentParser(
        prog="cniprobe",
        description="Few-shot adaptation experiments on frozen embeddings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, text, func, cls, names, paths in _COMMANDS:
        p = sub.add_parser(command, help=text)
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--config", help="JSON config file (flags override)")
        for name in paths:
            p.add_argument(_flag(name), required=True, help=_PATH_HELP[name])
        for name in names:
            if _hints(cls)[name] is bool:
                p.add_argument(_flag(name), action="store_true", default=None)
            else:
                p.add_argument(_flag(name))
        p.set_defaults(func=func, spec_cls=cls, spec_names=names, paths=paths)
    study = sub.add_parser("study", help="print a study of the benchmark")
    study.add_argument("name", choices=tuple(benchmark.STUDIES))
    study.add_argument("--out", required=True, help="output directory")
    study.add_argument("--seeds", type=int, nargs="+",
                       default=benchmark.BENCHMARK_SEEDS,
                       help="benchmark seeds (default: all five)")
    study.set_defaults(func=cmd_study)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_out(Path(args.out))
        return args.func(args)
    except CniProbeError as exc:  # ConfigError and any other: 2
        print(f"error: {exc}", file=sys.stderr)
        return (4 if isinstance(exc, NumericalError)
                else 3 if isinstance(exc, DataError) else 2)


if __name__ == "__main__":
    sys.exit(main())
