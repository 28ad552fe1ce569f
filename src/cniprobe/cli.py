"""Command-line experiment runner.

Subcommands: synth, init-head, sample-shots, train, distill, eval,
sweep, study. Each command's settings are the fields of one spec dataclass
(``RunSpec`` for train, ``DistillSpec`` for distill, ``ShotSpec`` for
sample-shots, ...). Every field is a flag and a key of the optional
--config JSON file; a flag beats a config key, which beats the
default, and the resolved spec is echoed into the output directory as
config.json. A sweep entry is ``{"label": ...}`` plus the keys that
``train --config`` accepts. ``study`` prints ``benchmark.study``.

Exit codes: 0 success, 2 configuration error, 3 data error,
4 numerical error. Outputs are deterministic given flags and seeds;
the only timestamps live in summary metadata files, never in
metrics.csv or tensor files.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, dataclass, fields, replace
from datetime import datetime, timezone
from pathlib import Path
from typing import get_args, get_type_hints

import numpy as np

from . import benchmark
from .benchmark import DistillSpec, RunSpec, fit
from .dataset import (EmbeddingDataset, ShotSpec, SynthSpec, make_synthetic,
                      sample_k_shot)
from .errors import (
    CniProbeError,
    ConfigError,
    DataError,
    LabelOutOfRange,
    NumericalError,
    ParseError,
    ShapeMismatch,
)
from .evaluate import top1, zero_shot
from .headinit import (
    Head,
    HeadInitSpec,
    MODE_CNI,
    MODE_RANDOM,
    TextEmbeddingBank,
    average_text_embeddings,
    init_head,
)
from .model import LOGIT_SCALE, ModelParams, init_params
from .tensorio import read_tensor, write_json, write_tensor
from .train import SweepEntry, sweep

_PARAM_NAMES = ("A", "a", "q", "W", "b")


@dataclass
class EvalSpec:
    """What ``eval`` scores: saved parameters or the zero-shot oracle."""

    params: str | None = None
    zero_shot: bool = False
    split: str = "test"


def _names(cls, skip=()) -> tuple[str, ...]:
    return tuple(f.name for f in fields(cls) if f.name not in skip)


_RUN_FIELDS = _names(RunSpec)


def _timestamp() -> str:
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
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
        except (TypeError, ValueError):
            pass
    what = "finite float" if kind is float else kind.__name__
    raise ConfigError(f"{where}: expected {what}, got {value!r}")


def _build_spec(cls, names: tuple[str, ...], doc: dict, where: str,
                flags: dict | None = None):
    """`cls` from config keys (``-`` or ``_``), overridden by non-None flags.

    Keys outside `names` and values that do not convert to their
    field's type raise ConfigError; unset fields keep their defaults.
    """
    hints = get_type_hints(cls)
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


def _echo_config(out: Path, args, spec) -> None:
    doc = {"command": args.command}
    doc.update((k, getattr(args, k)) for k in args.paths)
    doc.update((n, getattr(spec, n)) for n in args.spec_names)
    write_json(out / "config.json", doc)


# --- experiment manifest: cmd_synth writes it, load_experiment reads it ------

def cmd_synth(args) -> int:
    spec = _resolve(args)
    train_ds, test_ds, bank = make_synthetic(spec)
    out = _out_dir(args)
    write_tensor(out / "train_tokens.cnit", train_ds.tokens)
    write_tensor(out / "train_labels.cnit", train_ds.labels)
    write_tensor(out / "test_tokens.cnit", test_ds.tokens)
    write_tensor(out / "test_labels.cnit", test_ds.labels)
    write_tensor(out / "bank.cnit", bank.embeddings)

    def split_doc(name: str, ds: EmbeddingDataset) -> dict:
        return {
            "name": name,
            "tokens": f"{name}_tokens.cnit",
            "labels": f"{name}_labels.cnit",
            "num_classes": ds.num_classes,
            "dim": ds.dim,
            "tokens_per_example": ds.tokens.shape[1],
            "class_names": bank.class_names,
        }

    write_json(out / "manifest.json", {
        "format": "cniprobe-experiment",
        "train": split_doc("train", train_ds),
        "test": split_doc("test", test_ds),
        "bank": {
            "embeddings": "bank.cnit",
            "prompt_templates": bank.prompt_templates,
            "class_names": bank.class_names,
        },
        "generator": asdict(spec),
    })
    _echo_config(out, args, spec)
    print(f"wrote synthetic dataset to {out}")
    return 0


_SPLIT_KEYS = ("name", "tokens", "labels", "num_classes", "dim",
               "tokens_per_example")


def _strings(doc: dict, key: str, where: str) -> list[str]:
    """The optional list ``doc[key]``, as strings."""
    value = doc.get(key, [])
    if not isinstance(value, list):
        raise ParseError(f"{where}: {key!r} must be a list")
    return [str(s) for s in value]


def _read_split(doc, base: Path, where: str) -> EmbeddingDataset:
    """One split as ``cmd_synth`` writes it, checked against its tensors."""
    if not isinstance(doc, dict):
        raise ParseError(f"{where}: split must be a JSON object")
    for key in _SPLIT_KEYS:
        if key not in doc:
            raise ParseError(f"{where}: split missing field {key!r}")
    num_classes, dim, t = (_whole(doc[k]) for k in
                           ("num_classes", "dim", "tokens_per_example"))
    if not all(n is not None and n >= 1 for n in (num_classes, dim, t)):
        raise ParseError(f"{where}: num_classes, dim and tokens_per_example "
                         "must be integers >= 1")
    tokens = read_tensor(base / str(doc["tokens"]))
    if tokens.ndim != 3 or tokens.shape[1:] != (t, dim):
        raise ShapeMismatch(f"{where}: tokens shape {tokens.shape} disagrees "
                            f"with the manifest (T={t}, D={dim})")
    labels = read_tensor(base / str(doc["labels"]))
    if labels.shape != tokens.shape[:1]:
        raise ShapeMismatch(f"{where}: labels shape {labels.shape} disagrees "
                            f"with M={tokens.shape[0]}")
    if np.any(labels != np.round(labels)):
        raise LabelOutOfRange(f"{where}: labels must be integral")
    if len(_strings(doc, "class_names", where)) not in (0, num_classes):
        raise ParseError(f"{where}: class_names must be empty or have "
                         "num_classes entries")
    return EmbeddingDataset(tokens=tokens, labels=labels,
                            num_classes=num_classes)


def load_experiment(manifest_path: str | Path):
    """Read an experiment manifest: train/test datasets plus the bank."""
    path = Path(manifest_path)
    doc = _read_json(path, ParseError)
    for key in ("train", "test", "bank"):
        if key not in doc:
            raise ParseError(f"{path}: experiment manifest missing {key!r}")

    base = path.parent
    train_ds = _read_split(doc["train"], base, f"{path}: train")
    test_ds = _read_split(doc["test"], base, f"{path}: test")

    bank_doc = doc["bank"]
    if not isinstance(bank_doc, dict) or "embeddings" not in bank_doc:
        raise ParseError(f"{path}: bank section needs an 'embeddings' path")
    emb = read_tensor(base / str(bank_doc["embeddings"]))
    if emb.ndim != 3:
        raise ParseError(f"{path}: bank tensor must have shape (N, C, D)")
    bank = TextEmbeddingBank(
        embeddings=emb.astype(np.float64),
        prompt_templates=_strings(bank_doc, "prompt_templates", f"{path}: bank"),
        class_names=_strings(bank_doc, "class_names", f"{path}: bank"),
    )
    if {train_ds.num_classes, test_ds.num_classes} != {bank.num_classes}:
        raise ParseError(f"{path}: bank and splits disagree on C")
    return train_ds, test_ds, bank


# --- saved heads and parameters -----------------------------------------------

def _write_params(out: Path, params: ModelParams) -> None:
    for name in _PARAM_NAMES:
        write_tensor(out / f"params_{name}.cnit", params.group(name))
    write_json(out / "model.json", {
        "dim": params.dim,
        "num_classes": params.num_classes,
        "logit_scale": params.logit_scale,
    })


def _read_params(path: str | Path) -> ModelParams:
    """Load model params from a train output dir, or lift a saved head."""
    d = Path(path)
    if (d / "params_W.cnit").exists():
        arrays = {n: read_tensor(d / f"params_{n}.cnit").astype(np.float64)
                  for n in _PARAM_NAMES}
        model_doc = d / "model.json"
        doc = _read_json(model_doc, ParseError) if model_doc.exists() else {}
        scale = doc.get("logit_scale", LOGIT_SCALE)
        if type(scale) not in (int, float) or not 0 < scale <= sys.float_info.max:
            raise ParseError(f"{model_doc}: logit_scale must be a "
                             "positive finite number")
        return ModelParams(logit_scale=float(scale), **arrays)
    if (d / "head_W.cnit").exists():
        W = read_tensor(d / "head_W.cnit").astype(np.float64)
        b = read_tensor(d / "head_b.cnit").astype(np.float64)
        head = Head(W=W, b=b, init_provenance=[])
        return init_params(head)
    raise DataError(f"{d}: found neither params_*.cnit nor head_W.cnit")


def _write_head(out: Path, head: Head, spec: HeadInitSpec) -> None:
    write_tensor(out / "head_W.cnit", head.W)
    write_tensor(out / "head_b.cnit", head.b)
    write_json(out / "head.json", {
        "mode": spec.mode,
        "fraction": spec.fraction,
        "seed": spec.seed,
        "num_text_rows": sum(1 for p in head.init_provenance if p == "text"),
        "provenance": head.init_provenance,
    })


# --- subcommands --------------------------------------------------------------

def cmd_init_head(args) -> int:
    run = _resolve(args)
    spec = run.head_spec()
    _, _, bank = load_experiment(args.manifest)
    head = init_head(spec, average_text_embeddings(bank), bank.num_classes, bank.dim)
    out = _out_dir(args)
    _write_head(out, head, spec)
    _echo_config(out, args, run)
    print(f"wrote head ({spec.mode}) to {out}")
    return 0


def cmd_sample_shots(args) -> int:
    spec = _resolve(args)
    train_ds, _, _ = load_experiment(args.manifest)
    indices = sample_k_shot(train_ds, spec)
    out = _out_dir(args)
    write_json(out / "shots.json", {
        "indices": indices,
        "k": spec.k,
        "fraction": spec.fraction,
        "seed": spec.seed,
        "num_classes": train_ds.num_classes,
    })
    _echo_config(out, args, spec)
    print(f"wrote {len(indices)} indices to {out / 'shots.json'}")
    return 0


def cmd_train(args) -> int:
    """``train`` and ``distill``: ``fit`` the spec; ``--out`` is made after."""
    spec = _resolve(args)
    teacher = _read_params(args.teacher) if "teacher" in args.paths else None
    head_spec, cfg = spec.head_spec(), spec.train_config()  # validate first
    train_ds, test_ds, bank = load_experiment(args.manifest)
    head, params, history = fit(spec, train_ds, test_ds, bank, teacher)
    out = _out_dir(args)
    _write_head(out, head, head_spec)
    (out / "metrics.csv").write_text(history.to_csv(), encoding="utf-8")
    write_json(out / "metrics.json", history.to_json_dict())
    _write_params(out, params)
    write_json(out / "summary.json", {
        "final_top1": history.final.test_top1,
        "final_epoch": history.final.epoch,
        "generated_at": _timestamp(),
    })
    # echo the resolved default LR, not the None sentinel
    _echo_config(out, args, replace(spec, lr=cfg.base_lr))
    print(f"final_top1={history.final.test_top1!r}")
    return 0


def cmd_eval(args) -> int:
    spec = _resolve(args)
    if spec.split not in ("train", "test"):
        raise ConfigError(f"unknown split {spec.split!r}")
    if spec.zero_shot == (spec.params is not None):
        raise ConfigError("choose exactly one of --zero-shot / --params")
    train_ds, test_ds, bank = load_experiment(args.manifest)
    ds = test_ds if spec.split == "test" else train_ds
    if spec.zero_shot:
        report = zero_shot(bank, ds)
    else:
        report = top1(_read_params(spec.params), ds)
    out = _out_dir(args)
    write_json(out / "eval.json", {
        "generated_at": _timestamp(),
        "report": report.to_json_dict(),
    })
    _echo_config(out, args, spec)
    print(f"top1={report.top1!r}")
    return 0


def _sweep_entries(path: str | None, seed: int) -> list[SweepEntry]:
    """Entries from the --config file, else shots {1,5} x init {cni,random}.

    An entry's ``init_seed`` and ``seed`` default to the sweep's --seed.
    """
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
        doc = {"init_seed": seed, "seed": seed, **e}
        label = str(doc.pop("label"))
        if any(c in label for c in ",\r\n"):
            raise ConfigError(f"sweep entry {i}: label {label!r} must not "
                              "contain a comma or a line break")
        spec = _build_spec(RunSpec, _RUN_FIELDS, doc, f"sweep entry {i}")
        entries.append(SweepEntry(label=label, init=spec.head_spec(),
                                  cfg=spec.train_config()))
    return entries


def _write_lines(args, name: str, lines: list[str]) -> Path:
    """Print `lines` and write them to ``--out``/`name`; returns ``--out``."""
    out = _out_dir(args)
    (out / name).write_text("\n".join(lines) + "\n", encoding="utf-8")
    print("\n".join(lines))
    return out


def cmd_sweep(args) -> int:
    entries = _sweep_entries(args.config, args.seed)
    train_ds, test_ds, bank = load_experiment(args.manifest)
    rows = sweep(bank, train_ds, test_ds, entries)
    lines = ["label,final_top1,error"]
    for r in rows:
        acc = "" if r.final_top1 is None else repr(r.final_top1)
        err = r.error or ""
        lines.append(f"{r.label},{acc},{err.replace(',', ';')}")
    out = _write_lines(args, "sweep.csv", lines)
    write_json(out / "summary.json", {
        "rows": [{"label": r.label, "final_top1": r.final_top1,
                  "error": r.error} for r in rows],
        "generated_at": _timestamp(),
    })
    return 0


def cmd_study(args) -> int:
    _write_lines(args, "study.txt", benchmark.study(args.name, args.seeds))
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
     RunSpec, ("init", "fraction", "init_seed"), ("manifest",)),
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


def build_parser() -> argparse.ArgumentParser:
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
        hints = get_type_hints(cls) if cls else {}
        for name in names:
            if hints[name] is bool:
                p.add_argument(_flag(name), action="store_true", default=None)
            else:
                p.add_argument(_flag(name))
        p.set_defaults(func=func, spec_cls=cls, spec_names=names, paths=paths)
    sweep_parser = sub.choices["sweep"]
    sweep_parser.add_argument("--seed", type=int, default=0,
                              help="default init_seed and seed of every entry")
    study = sub.add_parser("study", help="print a study of the benchmark")
    study.add_argument("name", choices=tuple(benchmark.STUDIES))
    study.add_argument("--out", required=True, help="output directory")
    study.add_argument("--seeds", type=int, nargs="+",
                       default=benchmark.BENCHMARK_SEEDS,
                       help="benchmark seeds (default: all five)")
    study.set_defaults(func=cmd_study)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CniProbeError as exc:  # ConfigError and any other: 2
        print(f"error: {exc}", file=sys.stderr)
        return (4 if isinstance(exc, NumericalError)
                else 3 if isinstance(exc, DataError) else 2)


if __name__ == "__main__":
    sys.exit(main())
