"""End-to-end CLI tests: artifacts, determinism, exit codes, config files."""

import hashlib
import json
import os
import shutil
import subprocess
import sys
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest

from cniprobe import cli, tensorio
from cniprobe.benchmark import RunSpec, make_benchmark
from cniprobe.cli import build_parser, load_experiment, main
from cniprobe.dataset import EmbeddingDataset, SynthSpec
from cniprobe.errors import DataError
from cniprobe.evaluate import predictions
from cniprobe.headinit import average_text_embeddings
from cniprobe.model import forward_from, prefix
from cniprobe.tensorio import read_tensor, write_json, write_tensor

SMALL_SYNTH = [
    "--classes", "3", "--dim", "8", "--tokens", "2",
    "--train-per-class", "6", "--test-per-class", "6",
    "--prompts", "2", "--seed", "11",
]

FAST_TRAIN = ["--epochs", "6", "--batch-size", "4", "--eval-every", "3"]


@pytest.fixture()
def data_dir(tmp_path):
    out = tmp_path / "data"
    assert main(["synth", "--out", str(out)] + SMALL_SYNTH) == 0
    return out


def _tree_bytes(root):
    """Every file under `root`, by its path relative to `root`."""
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_synth_reruns_are_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["synth", "--out", str(a)] + SMALL_SYNTH) == 0
    assert main(["synth", "--out", str(b)] + SMALL_SYNTH) == 0
    assert _tree_bytes(a) == _tree_bytes(b)


def test_synth_writes_complete_experiment(data_dir):
    names = {p.name for p in data_dir.iterdir()}
    assert {"train_tokens.cnit", "train_labels.cnit", "test_tokens.cnit",
            "test_labels.cnit", "bank.cnit", "manifest.json",
            "config.json"} <= names
    doc = json.loads((data_dir / "manifest.json").read_text())
    assert doc["train"] == {"tokens": "train_tokens.cnit",
                            "labels": "train_labels.cnit"}
    assert doc["bank"]["embeddings"] == "bank.cnit"
    assert read_tensor(data_dir / "bank.cnit").shape == (2, 3, 8)
    assert "generated_at" not in doc  # reruns must stay byte-identical


def test_synth_rejects_single_class(tmp_path):
    code = main(["synth", "--out", str(tmp_path / "x"), "--classes", "1"])
    assert code == 2


def test_init_head_artifacts(data_dir, tmp_path):
    out = tmp_path / "head"
    args = ["init-head", "--manifest", str(data_dir / "manifest.json"),
            "--init", "partial", "--fraction", "0.5", "--seed", "3",
            "--out", str(out)]
    assert main(args) == 0
    W = read_tensor(out / "params_W.cnit")
    assert W.shape == (3, 8)
    # the untrained model: identity adapter, zero a, q and b
    np.testing.assert_array_equal(read_tensor(out / "params_A.cnit"), np.eye(8))
    for name, size in (("a", 8), ("q", 8), ("b", 3)):
        np.testing.assert_array_equal(read_tensor(out / f"params_{name}.cnit"),
                                      np.zeros(size))
    assert {p.name for p in out.iterdir()} == {
        *(f"params_{g}.cnit" for g in ("A", "a", "q", "W", "b")), "config.json"}
    assert json.loads((out / "config.json").read_text())["init"] == "partial"
    # the text rows are the rows equal to the stored averaged bank rows
    _, _, bank = load_experiment(data_dir / "manifest.json")
    avg = average_text_embeddings(bank).astype(np.float32)
    text_rows = [c for c in range(3) if np.array_equal(W[c], avg[c])]
    assert len(text_rows) == 1  # floor(0.5 * 3)


def test_eval_zero_shot_matches_cni_head_byte_for_byte(data_dir, tmp_path):
    manifest = str(data_dir / "manifest.json")
    head = tmp_path / "head"
    assert main(["init-head", "--manifest", manifest, "--init", "cni",
                 "--out", str(head)]) == 0
    zs, cni = tmp_path / "zs", tmp_path / "cni"
    assert main(["eval", "--manifest", manifest, "--zero-shot",
                 "--out", str(zs)]) == 0
    assert main(["eval", "--manifest", manifest, "--params", str(head),
                 "--out", str(cni)]) == 0
    assert (zs / "eval.json").read_bytes() == (cni / "eval.json").read_bytes()
    assert set(json.loads((zs / "eval.json").read_text())) == {"report"}


def test_eval_requires_exactly_one_mode(data_dir, tmp_path):
    manifest = str(data_dir / "manifest.json")
    assert main(["eval", "--manifest", manifest,
                 "--out", str(tmp_path / "e1")]) == 2
    assert main(["eval", "--manifest", manifest, "--zero-shot",
                 "--params", "somewhere",
                 "--out", str(tmp_path / "e2")]) == 2


def test_sample_shots_deterministic(data_dir, tmp_path):
    manifest = str(data_dir / "manifest.json")
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["sample-shots", "--manifest", manifest, "--k", "2",
                     "--seed", "3", "--out", str(out)]) == 0
    assert (a / "shots.json").read_bytes() == (b / "shots.json").read_bytes()
    doc = json.loads((a / "shots.json").read_text())
    assert len(doc["indices"]) == 6
    assert set(doc) == {"indices"}


def test_sample_shots_gives_the_indices_train_trains_on(data_dir, tmp_path,
                                                         monkeypatch):
    manifest = str(data_dir / "manifest.json")
    assert main(["sample-shots", "--manifest", manifest, "--k", "2",
                 "--seed", "5", "--out", str(tmp_path / "s")]) == 0
    trained_on, subset = [], EmbeddingDataset.subset
    monkeypatch.setattr(EmbeddingDataset, "subset", lambda ds, indices: (
        trained_on.append(list(indices)) or subset(ds, indices)))
    assert main(["train", "--manifest", manifest, "--shots", "2",
                 "--seed", "5", "--out", str(tmp_path / "r")] + FAST_TRAIN) == 0
    shots = json.loads((tmp_path / "s" / "shots.json").read_text())
    assert trained_on == [shots["indices"]]


def test_sample_shots_rejects_conflicting_flags(data_dir, tmp_path, capsys):
    argv = ["sample-shots", "--manifest", str(data_dir / "manifest.json"),
            "--out", str(tmp_path / "s")]
    with pytest.raises(SystemExit) as exc:  # there is no fraction mode
        main(argv + ["--k", "2", "--fraction", "0.5"])
    assert exc.value.code == 2
    cfg = tmp_path / "cfg.json"
    write_json(cfg, {"k": 2, "fraction": 0.5})
    assert main(argv + ["--config", str(cfg)]) == 2
    assert "unknown key 'fraction'" in capsys.readouterr().err
    assert main(argv) == 2  # k has no default
    assert "k must be set" in capsys.readouterr().err
    assert not (tmp_path / "s").exists()


def test_train_outputs_and_metric_determinism(data_dir, tmp_path, capsys):
    manifest = str(data_dir / "manifest.json")
    outs = [tmp_path / "r1", tmp_path / "r2"]
    for out in outs:
        code = main(["train", "--manifest", manifest, "--init", "cni",
                     "--shots", "1", "--seed", "1", "--out", str(out)]
                    + FAST_TRAIN)
        assert code == 0
    printed = capsys.readouterr().out
    lines = [l for l in printed.splitlines() if l.startswith("final_top1=")]
    assert len(lines) == 2
    acc = float(lines[0].split("=", 1)[1])
    assert 0.0 <= acc <= 1.0
    # every file, the JSON ones included, is the same on a rerun; the
    # history is in metrics.csv, and init-head rebuilds the start model
    assert _tree_bytes(outs[0]) == _tree_bytes(outs[1])
    assert set(_tree_bytes(outs[0])) == {
        *(f"params_{g}.cnit" for g in ("A", "a", "q", "W", "b")),
        "metrics.csv", "summary.json", "config.json"}
    summary = json.loads((outs[0] / "summary.json").read_text())
    assert summary == {"final_top1": acc}


def test_cli_chain_reruns_are_byte_identical(tmp_path):
    # every file of every command, JSON included, depends only on the
    # flags and inputs: the chain rerun at the same paths gives the same tree
    root, cfg = tmp_path / "chain", tmp_path / "sweep.json"
    write_json(cfg, {"entries": [{"label": "x", "shots": 1, "epochs": 2}]})
    chain = [
        ["init-head", "--init", "partial", "--fraction", "0.5", "--seed", "3",
         "--out", str(root / "head")],
        ["sample-shots", "--k", "1", "--seed", "3", "--out", str(root / "shots")],
        ["train", "--policy", "ALL", "--out", str(root / "teacher")] + FAST_TRAIN,
        ["distill", "--teacher", str(root / "teacher"), "--shots", "1",
         "--out", str(root / "student")] + FAST_TRAIN,
        ["eval", "--zero-shot", "--out", str(root / "zero_shot")],
        ["eval", "--params", str(root / "student"), "--out", str(root / "eval")],
        ["sweep", "--config", str(cfg), "--out", str(root / "sweep")],
    ]
    trees = []
    for _ in range(2):
        shutil.rmtree(root, ignore_errors=True)
        assert main(["synth", "--out", str(root / "data")] + SMALL_SYNTH) == 0
        for argv in chain:
            assert main(argv + ["--manifest",
                                str(root / "data" / "manifest.json")]) == 0
        trees.append(_tree_bytes(root))
    assert len(trees[0]) == 36  # 7 data, 6 head, 2 shots, 2 x 8 runs, 2 x 2 evals, 1 sweep
    assert trees[0] == trees[1]


def test_metrics_csv_has_pinned_columns(data_dir, tmp_path):
    manifest = str(data_dir / "manifest.json")
    out = tmp_path / "run"
    assert main(["train", "--manifest", manifest, "--out", str(out)]
                + FAST_TRAIN) == 0
    header = (out / "metrics.csv").read_text().splitlines()[0]
    assert header == "epoch,step,lr,loss_ce,loss_anchor,loss_distill,test_top1"


def test_train_config_echo_resolves_defaults(data_dir, tmp_path):
    out = tmp_path / "run"
    assert main(["train", "--manifest", str(data_dir / "manifest.json"),
                 "--init", "random", "--out", str(out)] + FAST_TRAIN) == 0
    doc = json.loads((out / "config.json").read_text())
    assert doc["command"] == "train"
    assert doc["lr"] == 5e-3  # random-init default, resolved
    assert doc["policy"] == "PL"
    assert doc["epochs"] == 6


def test_config_file_and_flag_precedence(data_dir, tmp_path):
    manifest = str(data_dir / "manifest.json")
    cfg_path = tmp_path / "cfg.json"
    write_json(cfg_path, {"epochs": 4, "lr": 0.002, "batch-size": 4})
    out1 = tmp_path / "from_config"
    assert main(["train", "--manifest", manifest, "--config", str(cfg_path),
                 "--out", str(out1)]) == 0
    doc1 = json.loads((out1 / "config.json").read_text())
    assert doc1["epochs"] == 4 and doc1["lr"] == 0.002

    out2 = tmp_path / "flag_wins"
    assert main(["train", "--manifest", manifest, "--config", str(cfg_path),
                 "--epochs", "2", "--out", str(out2)]) == 0
    doc2 = json.loads((out2 / "config.json").read_text())
    assert doc2["epochs"] == 2 and doc2["lr"] == 0.002


def test_cached_parser_keeps_no_state_between_calls(data_dir, tmp_path):
    # main reuses one parser per process: a flag given to one call must
    # not carry over into a later call that omits it
    assert build_parser() is build_parser()
    manifest = str(data_dir / "manifest.json")
    head, first, second = (tmp_path / n for n in ("head", "first", "second"))
    assert main(["init-head", "--manifest", manifest, "--out", str(head)]) == 0
    assert main(["eval", "--manifest", manifest, "--zero-shot", "--split",
                 "train", "--out", str(first)]) == 0
    assert main(["eval", "--manifest", manifest, "--params", str(head),
                 "--out", str(second)]) == 0
    docs = [json.loads((d / "config.json").read_text()) for d in (first, second)]
    assert [(d["zero_shot"], d["split"], d["params"]) for d in docs] == [
        (True, "train", None), (False, "test", str(head))]


def test_unknown_config_key_rejected(data_dir, tmp_path):
    cfg_path = tmp_path / "cfg.json"
    write_json(cfg_path, {"learning_rate": 1.0})
    code = main(["train", "--manifest", str(data_dir / "manifest.json"),
                 "--config", str(cfg_path), "--out", str(tmp_path / "x")])
    assert code == 2


def test_distill_end_to_end(data_dir, tmp_path):
    manifest = str(data_dir / "manifest.json")
    teacher = tmp_path / "teacher"
    assert main(["train", "--manifest", manifest, "--policy", "ALL",
                 "--out", str(teacher)] + FAST_TRAIN) == 0
    student = tmp_path / "student"
    assert main(["distill", "--manifest", manifest, "--teacher", str(teacher),
                 "--shots", "1", "--out", str(student)] + FAST_TRAIN) == 0
    doc = json.loads((student / "config.json").read_text())
    assert doc["command"] == "distill"
    assert doc["distill_weight"] == 1.0
    assert "policy" not in doc  # the student always trains ALL
    csv = (student / "metrics.csv").read_text().splitlines()
    distill_col = csv[0].split(",").index("loss_distill")
    assert any(float(line.split(",")[distill_col]) > 0 for line in csv[1:])


def test_distill_missing_teacher_dir(data_dir, tmp_path):
    code = main(["distill", "--manifest", str(data_dir / "manifest.json"),
                 "--teacher", str(tmp_path / "nothing"),
                 "--out", str(tmp_path / "s")] + FAST_TRAIN)
    assert code == 3


def test_stale_model_json_is_ignored(data_dir, tmp_path):
    manifest = str(data_dir / "manifest.json")
    run = tmp_path / "run"
    assert main(["train", "--manifest", manifest, "--epochs", "0",
                 "--out", str(run)]) == 0
    reports = []
    for i, stale in enumerate((None, '{"logit_scale": -1}', "{not json")):
        if stale is not None:  # what an older version wrote beside params
            for name in ("model.json", "head.json"):
                (run / name).write_text(stale)
        assert main(["eval", "--manifest", manifest, "--params", str(run),
                     "--out", str(tmp_path / f"ev{i}")]) == 0
        reports.append(json.loads((tmp_path / f"ev{i}" / "eval.json")
                                  .read_text())["report"])
    assert reports[0] == reports[1] == reports[2]


def test_eval_accepts_trained_params(data_dir, tmp_path):
    manifest = str(data_dir / "manifest.json")
    run = tmp_path / "run"
    assert main(["train", "--manifest", manifest, "--out", str(run)]
                + FAST_TRAIN) == 0
    out = tmp_path / "ev"
    assert main(["eval", "--manifest", manifest, "--params", str(run),
                 "--out", str(out)]) == 0
    doc = json.loads((out / "eval.json").read_text())
    assert 0.0 <= doc["report"]["top1"] <= 1.0


# sha256 of eval.json: a trained run's report on each split, and the
# zero-shot one. Their per-class accuracies are not all 0 or 1.
EVAL_JSON_PINS = {
    "run_test": "82a71b3641aea5aebe24d3123458a2b88207cccdebfacc4c9b7a39ec598dfb42",
    "run_train": "3ff73747e1fcbb13451badaa8afba2150a62d322fcae5942c2a6801a0504a483",
    "zero_shot_test": "4ec7a8a5936842ce48e46758f2e6c3387281d96612c9551dffa82d9f3d1ebd30",
}


def test_eval_json_bytes_are_pinned(tmp_path):
    data = tmp_path / "data"
    assert main(["synth", "--out", str(data), "--classes", "4", "--dim", "6",
                 "--tokens", "2", "--train-per-class", "5", "--test-per-class", "5",
                 "--prompts", "2", "--img-noise", "0.6", "--txt-noise", "0.3",
                 "--seed", "13"]) == 0
    manifest = str(data / "manifest.json")
    run = tmp_path / "run"
    assert main(["train", "--manifest", manifest, "--out", str(run), "--seed", "3",
                 "--policy", "ALL", "--epochs", "20", "--batch-size", "4"]) == 0
    argvs = {"run_test": ["--params", str(run)],
             "run_train": ["--params", str(run), "--split", "train"],
             "zero_shot_test": ["--zero-shot"]}
    got = {}
    for key, argv in argvs.items():
        out = tmp_path / key
        assert main(["eval", "--manifest", manifest, "--out", str(out)] + argv) == 0
        data = (out / "eval.json").read_bytes()
        got[key] = hashlib.sha256(data).hexdigest()
    assert got == EVAL_JSON_PINS


@pytest.mark.parametrize("case", ["split", "bank", "eval_params", "teacher",
                                  "eval_classes", "eval_dim", "teacher_classes"])
def test_data_errors_name_their_source(data_dir, tmp_path, capsys, case):
    # faults only EmbeddingDataset, TextEmbeddingBank or ModelParams see,
    # and a saved model that does not fit the experiment: the error line
    # starts with the split, the bank or the params directory
    manifest, run = data_dir / "manifest.json", tmp_path / "run"
    other = {"eval_classes": ["--classes", "4"], "eval_dim": ["--dim", "6"],
             "teacher_classes": ["--classes", "4"]}.get(case)
    if other:  # the model comes from a C = 4 or D = 6 experiment
        assert main(["synth", "--out", str(tmp_path / "other")]
                    + SMALL_SYNTH + other) == 0
    head_manifest = tmp_path / "other" / "manifest.json" if other else manifest
    assert main(["init-head", "--manifest", str(head_manifest),
                 "--out", str(run)]) == 0
    labels = read_tensor(data_dir / "train_labels.cnit")
    labels[1] = 0.5
    path, tensor, argv, source = {
        "split": (data_dir / "train_labels.cnit", labels,
                  ["eval", "--zero-shot"], f"{manifest}: train"),
        "bank": (data_dir / "bank.cnit", np.ones((2, 1, 8)),
                 ["eval", "--zero-shot"], f"{manifest}: bank"),
        "eval_params": (run / "params_W.cnit", np.ones((3, 5)),
                        ["eval", "--params", str(run)], str(run)),
        "teacher": (run / "params_W.cnit", np.ones((3, 5)),
                    ["distill", "--teacher", str(run)], str(run)),
        "eval_classes": (None, None, ["eval", "--params", str(run)], str(run)),
        "eval_dim": (None, None, ["eval", "--params", str(run)], str(run)),
        "teacher_classes": (None, None, ["distill", "--teacher", str(run)],
                            str(run)),
    }[case]
    if path is not None:
        write_tensor(path, tensor)
    assert main(argv + ["--manifest", str(manifest),
                        "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: {source}: ")
    if other:  # both (C, D) pairs are named
        model = (4, 8) if case.endswith("classes") else (3, 6)
        assert f"{model}" in err and "(3, 8)" in err


@pytest.fixture(scope="module")
def bench_experiment(tmp_path_factory):
    """A benchmark-sized synthetic experiment (synth defaults, seed 3)."""
    out = tmp_path_factory.mktemp("bench") / "data"
    assert main(["synth", "--out", str(out), "--seed", "3"]) == 0
    return out / "manifest.json"


def test_synth_defaults_are_the_benchmark(bench_experiment):
    config = json.loads((bench_experiment.parent / "config.json").read_text())
    assert config == {"command": "synth", **asdict(SynthSpec(seed=3))}
    # every key the manifest holds has a reader; config.json holds the rest
    doc = json.loads(bench_experiment.read_text())
    assert set(doc) == {"train", "test", "bank"}
    assert doc["bank"] == {"embeddings": "bank.cnit"}
    train, test, bank = make_benchmark(3)
    base = bench_experiment.parent
    for name, arr in (("train_tokens", train.tokens),
                      ("train_labels", train.labels),
                      ("test_tokens", test.tokens), ("test_labels", test.labels),
                      ("bank", bank.embeddings)):
        saved = read_tensor(base / f"{name}.cnit")
        assert saved.tobytes() == arr.astype(np.float32).tobytes(), name
        assert saved.shape == arr.shape, name


@pytest.mark.parametrize("shots", [1, 5])
@pytest.mark.parametrize("policy", ["L", "PL", "ALL"])
def test_saved_run_reproduces_in_memory_predictions(bench_experiment, tmp_path,
                                                    monkeypatch, policy, shots):
    # training keeps float64 params in memory and saves float32; ALL trains
    # through the adapter's linearity while eval runs it explicitly
    trained, real_fit = [], cli.fit

    def spy(*args):
        trained.append(real_fit(*args))
        return trained[-1]

    monkeypatch.setattr(cli, "fit", spy)
    run, ev = tmp_path / "run", tmp_path / "ev"
    assert main(["train", "--manifest", str(bench_experiment), "--policy", policy,
                 "--shots", str(shots), "--seed", "3", "--out", str(run)]) == 0
    monkeypatch.undo()
    assert main(["eval", "--manifest", str(bench_experiment), "--params", str(run),
                 "--out", str(ev)]) == 0

    params, _ = trained[0]
    _, test_ds, bank = load_experiment(bench_experiment)
    rows = prefix(params, test_ds.tokens, policy)
    in_memory = np.argmax(forward_from(params, rows, policy).logits, axis=1)
    saved = predictions(cli._read_params(run, bank), test_ds)
    np.testing.assert_array_equal(saved, in_memory)
    confusion = np.zeros((test_ds.num_classes,) * 2, dtype=np.int64)
    np.add.at(confusion, (test_ds.labels, in_memory), 1)
    report = json.loads((ev / "eval.json").read_text())["report"]
    assert report["confusion"] == confusion.tolist()
    summary = json.loads((run / "summary.json").read_text())
    assert report["top1"] == summary["final_top1"]


def test_missing_manifest_is_data_error(tmp_path):
    code = main(["eval", "--manifest", str(tmp_path / "no.json"),
                 "--zero-shot", "--out", str(tmp_path / "e")])
    assert code == 3


@pytest.mark.parametrize("text, message", [("{", "invalid JSON"),
                                           ("[]", "must be a JSON object")],
                         ids=["invalid", "not_object"])
@pytest.mark.parametrize("role, code", [("config", 2), ("manifest", 3)])
def test_json_input_must_be_an_object(data_dir, tmp_path, capsys, text,
                                      message, role, code):
    # a bad --config file is a configuration error, a bad manifest a data error
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    write_json(tmp_path / "good.json", {})
    paths = {"config": str(tmp_path / "good.json"),
             "manifest": str(data_dir / "manifest.json")}
    paths[role] = str(bad)
    out = tmp_path / "out"
    assert main(["eval", "--zero-shot", "--manifest", paths["manifest"],
                 "--config", paths["config"], "--out", str(out)]) == code
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_zero_norm_token_mean_is_numerical_error(data_dir, tmp_path, capsys):
    # tokens t and -t average to zero, which has no cosine to any text row
    path = data_dir / "train_tokens.cnit"
    tokens = read_tensor(path)
    tokens[0, 1] = -tokens[0, 0]
    write_tensor(path, tokens)
    out = tmp_path / "out"
    assert main(["eval", "--zero-shot", "--split", "train", "--manifest",
                 str(data_dir / "manifest.json"), "--out", str(out)]) == 4
    assert "zero norm" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["init-head"],
    ["sample-shots", "--k", "1"],
    ["eval", "--zero-shot"],
    ["sweep"],
], ids=lambda argv: argv[0])
def test_unreadable_manifest_leaves_no_out(tmp_path, capsys, argv):
    out = tmp_path / "out"
    code = main(argv + ["--manifest", str(tmp_path / "nope.json"),
                        "--out", str(out)])
    assert code == 3
    assert not out.exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("flag,noise", [
    ("--txt-noise", "1e200"), ("--img-noise", "1e160"), ("--img-noise", "1e308"),
], ids=["txt_noise_1e200", "img_noise_1e160", "img_noise_1e308"])
def test_failed_synth_leaves_no_out(tmp_path, capsys, flag, noise):
    # a finite noise whose rows' norms overflow is a numerical error
    out = tmp_path / "out"
    assert main(["synth", flag, noise, "--out", str(out)]) == 4
    assert "not finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("blocked", ["file", "under_file", "metrics.csv",
                                     "sweep.csv", "study.txt"])
def test_out_that_cannot_be_a_directory_exits_3(data_dir, tmp_path, capsys,
                                                 monkeypatch, blocked):
    # a file at or above --out, or a directory where an output file goes
    manifest = str(data_dir / "manifest.json")
    train = ["train", "--manifest", manifest, "--epochs", "0"]
    teacher = tmp_path / "teacher"
    assert main(train + ["--out", str(teacher)]) == 0
    write_json(tmp_path / "one.json", {"entries": [{"label": "one", "epochs": 0}]})
    commands = {
        "metrics.csv": [train, ["distill", "--manifest", manifest, "--epochs",
                                "0", "--teacher", str(teacher)]],
        "sweep.csv": [["sweep", "--manifest", manifest,
                       "--config", str(tmp_path / "one.json")]],
        "study.txt": [["study", "inits", "--seeds", "1"]],
    }.get(blocked, [["synth"] + SMALL_SYNTH, train,
                    ["eval", "--manifest", manifest, "--zero-shot"]])
    blocker = tmp_path / "taken"
    is_file = blocked in ("file", "under_file")
    if is_file:
        blocker.write_bytes(b"keep")
    else:
        (blocker / blocked).mkdir(parents=True)
    out = str(blocker / "sub" if blocked == "under_file" else blocker)
    for argv in commands:
        assert main(argv + ["--out", out]) == 3, argv[0]
        err = capsys.readouterr().err
        assert err.startswith("error: cannot make output directory" if is_file
                              else f"error: output directory {out} is not empty"
                              ), err
    if is_file:
        assert blocker.read_bytes() == b"keep"
        return
    # a directory made after the check blocks its file: the files
    # written before the blocked one are gone
    monkeypatch.setattr(cli, "_check_out", lambda out: None)
    for argv in commands:
        assert main(argv + ["--out", out]) == 3, argv[0]
        assert capsys.readouterr().err.startswith("error: cannot write")
        assert [p.name for p in blocker.iterdir()] == [blocked]


def test_out_that_holds_files_exits_3_before_any_input_is_read(data_dir,
                                                               tmp_path):
    # one directory holds one command's outputs: init-head over a run
    # would leave the run's metrics beside an untrained model
    manifest = str(data_dir / "manifest.json")
    out = tmp_path / "x"
    assert main(["train", "--manifest", manifest, "--epochs", "2",
                 "--out", str(out)]) == 0
    before = _tree_bytes(out)
    assert main(["init-head", "--manifest", manifest, "--out", str(out)]) == 3
    assert main(["init-head", "--manifest", str(tmp_path / "missing.json"),
                 "--out", str(out)]) == 3
    assert _tree_bytes(out) == before
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["init-head", "--manifest", manifest, "--out", str(empty)]) == 0


def test_failed_write_leaves_no_files_and_no_new_out(data_dir, tmp_path, capsys,
                                                     monkeypatch):
    written, write_tensor = [], cli.write_tensor

    def full_disk(path, t):  # the third tensor write fails
        written.append(path)
        if len(written) == 3:
            raise DataError(f"cannot write tensor to {path}: disk full")
        write_tensor(path, t)

    monkeypatch.setattr(cli, "write_tensor", full_disk)
    out = tmp_path / "new" / "run"
    assert main(["train", "--manifest", str(data_dir / "manifest.json"),
                 "--epochs", "0", "--out", str(out)]) == 3
    assert capsys.readouterr().err.startswith("error: cannot write tensor to")
    assert len(written) == 3
    assert not (tmp_path / "new").exists()  # --out and the parent it made


@pytest.mark.parametrize("command", ["synth", "init-head", "sample-shots",
                                     "train", "distill", "eval"])
def test_out_that_cannot_be_a_directory_fails_before_the_run(
        data_dir, tmp_path, capsys, monkeypatch, command):
    manifest = str(data_dir / "manifest.json")
    teacher = tmp_path / "teacher"
    assert main(["train", "--manifest", manifest, "--epochs", "0",
                 "--out", str(teacher)]) == 0

    def no_read(*args):
        raise AssertionError("input was read before --out was checked")

    for name in ("make_synthetic", "load_experiment", "fit"):
        monkeypatch.setattr(cli, name, no_read)
    blocker = tmp_path / "taken"
    blocker.write_bytes(b"keep")
    argv = [command] if command == "synth" else [command, "--manifest", manifest]
    argv += {"sample-shots": ["--k", "1"], "eval": ["--zero-shot"],
             "distill": ["--teacher", str(teacher)]}.get(command, [])
    for out in (blocker, blocker / "sub"):
        assert main(argv + ["--out", str(out)]) == 3
        assert "is not a directory" in capsys.readouterr().err
    assert blocker.read_bytes() == b"keep"


@pytest.mark.parametrize("argv", [["sweep", "--manifest", "MANIFEST"],
                                  ["study", "inits", "--seeds", "1"]])
def test_sweep_and_study_check_out_before_any_run(data_dir, tmp_path, capsys,
                                                 monkeypatch, argv):
    def no_run(*args):
        raise AssertionError("a run started before --out was checked")

    monkeypatch.setattr(cli.benchmark, "fit", no_run)
    monkeypatch.setattr(cli, "sweep", no_run)
    argv = [str(data_dir / "manifest.json") if a == "MANIFEST" else a
            for a in argv]
    blocker = tmp_path / "taken"
    blocker.write_bytes(b"keep")
    for out in (blocker, blocker / "sub"):
        assert main(argv + ["--out", str(out)]) == 3, argv[0]
        assert "is not a directory" in capsys.readouterr().err
    assert blocker.read_bytes() == b"keep"


@pytest.mark.parametrize("old_layout", [False, True],
                         ids=["no_dir", "head_W_only"])
def test_eval_of_missing_params_leaves_no_out(data_dir, tmp_path, capsys,
                                              old_layout):
    params = tmp_path / "nothing"
    if old_layout:  # the layout an older init-head wrote
        params.mkdir()
        write_tensor(params / "head_W.cnit", np.eye(3, 8))
        write_tensor(params / "head_b.cnit", np.zeros(3))
    out = tmp_path / "e"
    assert main(["eval", "--manifest", str(data_dir / "manifest.json"),
                 "--params", str(params), "--out", str(out)]) == 3
    assert "params_A.cnit" in capsys.readouterr().err
    assert not out.exists()


def test_init_head_saves_the_start_model_of_a_run(data_dir, tmp_path):
    # a run stores only what it trained; init-head with the run's head
    # settings rebuilds the model it started from
    manifest = str(data_dir / "manifest.json")
    head = ["--init", "partial", "--fraction", "0.5", "--seed", "3"]
    assert main(["init-head", "--manifest", manifest,
                 "--out", str(tmp_path / "head")] + head) == 0
    assert main(["train", "--manifest", manifest, "--epochs", "0",
                 "--out", str(tmp_path / "run")] + head) == 0
    for g in ("A", "a", "q", "W", "b"):
        name = f"params_{g}.cnit"
        assert (tmp_path / "head" / name).read_bytes() == \
            (tmp_path / "run" / name).read_bytes(), name


@pytest.mark.parametrize("head", [{"init": "random"},
                                  {"init": "partial", "fraction": 0.5}],
                         ids=lambda head: head["init"])
def test_seed_is_the_same_run_on_every_command(data_dir, tmp_path, monkeypatch,
                                               head):
    # --seed draws the head, the shots and the batches alike for
    # init-head, sample-shots, train and a sweep entry
    manifest = str(data_dir / "manifest.json")
    flags = [a for k, v in head.items() for a in (f"--{k}", str(v))]
    flags += ["--manifest", manifest, "--seed", "5"]
    assert main(["init-head", "--out", str(tmp_path / "head")] + flags) == 0
    assert main(["train", "--epochs", "0", "--out", str(tmp_path / "start")]
                + flags) == 0
    for g in ("A", "a", "q", "W", "b"):
        name = f"params_{g}.cnit"
        assert (tmp_path / "head" / name).read_bytes() == \
            (tmp_path / "start" / name).read_bytes(), name

    trained_on, subset = [], EmbeddingDataset.subset
    monkeypatch.setattr(EmbeddingDataset, "subset", lambda ds, indices: (
        trained_on.append(list(indices)) or subset(ds, indices)))
    assert main(["sample-shots", "--manifest", manifest, "--k", "1",
                 "--seed", "5", "--out", str(tmp_path / "shots")]) == 0
    run = {**head, "seed": 5, "shots": 1, "epochs": 6, "batch_size": 4,
           "eval_every": 3}
    cfg = tmp_path / "cfg.json"
    write_json(cfg, run)
    common = ["--manifest", manifest, "--config", str(cfg)]
    assert main(["train", "--out", str(tmp_path / "run")] + common) == 0
    shots = json.loads((tmp_path / "shots" / "shots.json").read_text())
    assert trained_on == [shots["indices"]]

    write_json(cfg, {"entries": [{"label": "x", **run}]})
    assert main(["sweep", "--out", str(tmp_path / "sweep")] + common) == 0
    row = (tmp_path / "sweep" / "sweep.csv").read_text().splitlines()[1]
    summary = json.loads((tmp_path / "run" / "summary.json").read_text())
    assert row == f"x,{summary['final_top1']!r},"
    with pytest.raises(SystemExit):  # an entries file carries the seed
        main(["sweep", "--seed", "5", "--out", str(tmp_path / "s")] + common)


@pytest.mark.parametrize("argv", [
    ["init-head"],
    ["eval", "--zero-shot"],
], ids=lambda argv: argv[0])
def test_bank_of_another_dim_is_data_error(data_dir, tmp_path, capsys, argv):
    # the splits have D = 8; a head built from a D = 5 bank fits no split
    write_tensor(data_dir / "bank.cnit", np.ones((2, 3, 5)))
    out = tmp_path / "out"
    assert main(argv + ["--manifest", str(data_dir / "manifest.json"),
                        "--out", str(out)]) == 3
    assert "disagree on C or D" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("saved, name, shape", [
    ("run", "params_A.cnit", ()),
    ("run", "params_W.cnit", ()),
    ("head", "params_W.cnit", ()),
    ("head", "params_W.cnit", (8,)),
])
def test_saved_tensor_of_wrong_rank_is_data_error(data_dir, tmp_path,
                                                  saved, name, shape):
    manifest = str(data_dir / "manifest.json")
    src = tmp_path / saved
    assert main(["train", "--manifest", manifest, "--epochs", "0",
                 "--out", str(tmp_path / "run")]) == 0
    assert main(["init-head", "--manifest", manifest,
                 "--out", str(tmp_path / "head")]) == 0
    # write_tensor stores a 0-d array as shape (1,), so spell the file out
    src.joinpath(name).write_bytes(
        tensorio.MAGIC + bytes([tensorio.VERSION, tensorio.DTYPE_F32, len(shape)])
        + np.array(shape, "<u8").tobytes() + np.ones(shape, "<f4").tobytes())
    commands = (["eval", "--params", str(src)],
                ["distill", "--teacher", str(src)] + FAST_TRAIN)
    for i, argv in enumerate(commands):
        out = tmp_path / f"out{i}"
        assert main(argv + ["--manifest", manifest, "--out", str(out)]) == 3
        assert not out.exists()


def test_oversized_shot_request_is_data_error(data_dir, tmp_path):
    manifest = str(data_dir / "manifest.json")
    code = main(["train", "--manifest", manifest,
                 "--shots", "100", "--out", str(tmp_path / "r")] + FAST_TRAIN)
    assert code == 3
    assert not (tmp_path / "r").exists()  # no half-written output
    teacher = tmp_path / "teacher"
    assert main(["train", "--manifest", manifest, "--policy", "ALL",
                 "--out", str(teacher)] + FAST_TRAIN) == 0
    code = main(["distill", "--manifest", manifest, "--teacher", str(teacher),
                 "--shots", "100", "--out", str(tmp_path / "s")] + FAST_TRAIN)
    assert code == 3
    assert not (tmp_path / "s").exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")  # reported once, as the error
def test_divergence_is_numerical_error_and_writes_nothing(data_dir, tmp_path,
                                                          capsys):
    out = tmp_path / "r"
    code = main(["train", "--manifest", str(data_dir / "manifest.json"),
                 "--shots", "1", "--policy", "ALL", "--epochs", "20",
                 "--lr", "1e30", "--out", str(out)])
    assert code == 4
    assert "diverged" in capsys.readouterr().err
    assert not (out / "metrics.csv").exists()


def test_sweep_default_grid(data_dir, tmp_path, capsys):
    out = tmp_path / "sweep"
    cfg = tmp_path / "sweep.json"
    write_json(cfg, {"entries": [
        {"label": f"{mode}_{k}shot", "init": mode, "shots": k, "epochs": 4,
         "batch_size": 4, "eval_every": 2, "seed": 1}
        for k in (1, 2) for mode in ("cni", "random")
    ]})
    assert main(["sweep", "--manifest", str(data_dir / "manifest.json"),
                 "--config", str(cfg), "--out", str(out)]) == 0
    assert [p.name for p in out.iterdir()] == ["sweep.csv"]
    lines = (out / "sweep.csv").read_text().strip().splitlines()
    assert lines[0] == "label,final_top1,error"
    assert len(lines) == 5
    assert [l.split(",")[0] for l in lines[1:]] == [
        "cni_1shot", "random_1shot", "cni_2shot", "random_2shot"]
    for line in lines[1:]:
        assert line.split(",")[2] == ""  # no errors
    assert "cni_1shot" in capsys.readouterr().out


@pytest.mark.parametrize("entry", [
    {"label": "x", "base_lr": 0.005},                 # should be lr
    {"label": "x", "loss": {"anchor_lambda": 1.0}},   # should be flat
    {"label": "x", "mode": "cni"},                    # should be init
    {"label": "x", "train": {"epochs": 4}},           # nested schema
    {"label": "x", "optimizer": {"beta1": 0.5}},      # not a run setting
    {"label": "x", "shot_spec": {"k": 1}},            # should be shots
    {"label": "x", "warmup_steps": 0},                # removed settings
    {"label": "x", "min_lr": 0.0},
    {"label": "x", "train_fraction": 0.5},
])
def test_sweep_unknown_entry_key_is_config_error(data_dir, tmp_path, capsys, entry):
    cfg = tmp_path / "sweep.json"
    write_json(cfg, {"entries": [entry]})
    code = main(["sweep", "--manifest", str(data_dir / "manifest.json"),
                 "--config", str(cfg), "--out", str(tmp_path / "s")])
    assert code == 2
    assert "unknown key" in capsys.readouterr().err


def test_sweep_config_takes_only_entries(data_dir, tmp_path, capsys):
    cfg = tmp_path / "sweep.json"
    write_json(cfg, {"entries": [{"label": "x", "epochs": 1}], "seed": 3})
    code = main(["sweep", "--manifest", str(data_dir / "manifest.json"),
                 "--config", str(cfg), "--out", str(tmp_path / "s")])
    assert code == 2
    assert "unknown key 'seed'" in capsys.readouterr().err

    for entries in ([], {}, None):  # never the default grid
        write_json(cfg, {"entries": entries})
        code = main(["sweep", "--manifest", str(data_dir / "manifest.json"),
                     "--config", str(cfg), "--out", str(tmp_path / "s")])
        assert code == 2, entries
        assert "'entries' must be a non-empty list" in capsys.readouterr().err

    for label in ("a,b", "x\ny", "x\r"):  # would break a sweep.csv row
        write_json(cfg, {"entries": [{"label": label, "epochs": 1}]})
        code = main(["sweep", "--manifest", str(data_dir / "manifest.json"),
                     "--config", str(cfg), "--out", str(tmp_path / "s")])
        assert code == 2, label
        assert "must not contain a comma" in capsys.readouterr().err
        assert not (tmp_path / "s").exists()


def test_sweep_entry_out_of_range_exits_2_before_any_run(data_dir, tmp_path,
                                                         capsys):
    cfg = tmp_path / "sweep.json"
    write_json(cfg, {"entries": [{"label": "ok", "epochs": 1},
                                 {"label": "x", "lr": 0}]})
    out = tmp_path / "s"
    code = main(["sweep", "--manifest", str(data_dir / "manifest.json"),
                 "--config", str(cfg), "--out", str(out)])
    assert code == 2
    assert "base_lr must be positive" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    pytest.param(["train", flag, value], "must be", id=f"{flag}-{value}")
    for flag, value in (("--lr", "0"), ("--lr", "-1"), ("--shots", "0"),
                        ("--batch-size", "0"), ("--epochs", "-1"))] + [
    pytest.param(["synth", "--classes", "1"], "classes must be", id="synth"),
    pytest.param(["init-head", "--init", "bogus"], "unknown head init mode",
                 id="init-head"),
    pytest.param(["sample-shots", "--k", "0"], "k must be", id="sample-shots"),
    pytest.param(["distill", "--epochs", "-1", "--teacher", "missing"],
                 "epochs must be", id="distill"),
    pytest.param(["eval", "--zero-shot", "--split", "bogus"], "unknown split",
                 id="eval"),
] + [  # a string setting takes only a JSON string, never its str()
    pytest.param(argv + ["--config", doc], f"{key}: expected str, got {value!r}",
                 id=f"config-{key}")
    for argv, doc in ((["eval"], {"params": 5}), (["train"], {"init": ["cni"]}),
                      (["eval", "--zero-shot"], {"split": 1}))
    for key, value in doc.items()
])
def test_out_of_range_setting_exits_2_before_input_is_read(tmp_path, capsys,
                                                           argv, message):
    # every input named here is missing, so reading one would exit 3
    if isinstance(argv[-1], dict):  # a --config file's content
        write_json(tmp_path / "cfg.json", argv[-1])
        argv = argv[:-1] + [str(tmp_path / "cfg.json")]
    out = tmp_path / "out"
    manifest = [] if argv[0] == "synth" else [
        "--manifest", str(tmp_path / "missing.json")]
    assert main(argv + manifest + ["--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("init", ["cni", "random"])
def test_fraction_without_partial_init_exits_2_before_input_is_read(
        tmp_path, capsys, init):
    missing = str(tmp_path / "missing.json")
    cfg = tmp_path / "sweep.json"
    write_json(cfg, {"entries": [{"label": "x", "init": init,
                                  "fraction": 0.5}]})
    for argv in (["train", "--init", init, "--fraction", "0.5"],
                 ["init-head", "--init", init, "--fraction", "0.5"],
                 ["sweep", "--config", str(cfg)]):
        out = tmp_path / argv[0]
        assert main(argv + ["--manifest", missing, "--out", str(out)]) == 2
        assert "only to partial init" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("name", ["warmup_steps", "min_lr", "train_fraction",
                                  "init_seed"])
def test_removed_setting_fails_loudly(tmp_path, capsys, name):
    missing = str(tmp_path / "missing.json")
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["train", "--manifest", missing, "--out", str(out),
              "--" + name.replace("_", "-"), "0"])
    assert exc.value.code == 2
    cfg = tmp_path / "cfg.json"  # sweep entries: see the unknown-key test
    write_json(cfg, {name: 0})
    assert main(["train", "--manifest", missing, "--config", str(cfg),
                 "--out", str(out)]) == 2
    assert f"unknown key {name!r}" in capsys.readouterr().err
    assert not out.exists()


def test_wrongly_typed_value_is_config_error(data_dir, tmp_path, capsys):
    manifest = str(data_dir / "manifest.json")
    bad = tmp_path / "bad.json"
    write_json(bad, {"epochs": "abc"})
    assert main(["train", "--manifest", manifest, "--config", str(bad),
                 "--out", str(tmp_path / "t1")]) == 2
    assert main(["train", "--manifest", manifest, "--epochs", "abc",
                 "--out", str(tmp_path / "t2")]) == 2
    write_json(bad, {"entries": [{"label": "x", "epochs": "abc"}]})
    assert main(["sweep", "--manifest", manifest, "--config", str(bad),
                 "--out", str(tmp_path / "s")]) == 2
    assert capsys.readouterr().err.count("expected int, got 'abc'") == 3

    for i, doc in enumerate([{"epochs": 2.7}, {"eval_every": True},
                             {"shots": 1.5}, {"lr": True}]):
        write_json(bad, doc)
        assert main(["train", "--manifest", manifest, "--config", str(bad),
                     "--out", str(tmp_path / f"n{i}")]) == 2, doc
        key, value = next(iter(doc.items()))
        assert f"{key}: expected" in capsys.readouterr().err
        assert not (tmp_path / f"n{i}").exists()

    write_json(bad, {"epochs": 3.0, "batch_size": 4})
    out = tmp_path / "whole"
    assert main(["train", "--manifest", manifest, "--config", str(bad),
                 "--out", str(out)]) == 0
    assert '"epochs": 3,' in (out / "config.json").read_text()


@pytest.mark.parametrize("argv, config", [
    pytest.param(["train", "--anchor-lambda", "nan"], None, id="anchor_lambda"),
    pytest.param(["train", "--lr", "inf"], None, id="lr"),
    pytest.param(["train", "--label-smoothing", "nan"], None,
                 id="label_smoothing"),
    pytest.param(["train"], '{"anchor_lambda": -Infinity}', id="config"),
    pytest.param(["distill", "--distill-weight", "nan"], None,
                 id="distill_weight"),
    pytest.param(["distill"], '{"temperature": Infinity}', id="temperature"),
])
def test_non_finite_float_setting_is_config_error(data_dir, tmp_path, capsys,
                                                  argv, config):
    manifest = str(data_dir / "manifest.json")
    teacher = tmp_path / "teacher"
    assert main(["train", "--manifest", manifest, "--epochs", "0",
                 "--out", str(teacher)]) == 0
    if config is not None:
        (tmp_path / "cfg.json").write_text(config)
        argv = argv + ["--config", str(tmp_path / "cfg.json")]
    if argv[0] == "distill":
        argv = argv + ["--teacher", str(teacher)]
    out = tmp_path / "out"
    code = main(argv + ["--manifest", manifest, "--out", str(out)] + FAST_TRAIN)
    assert code == 2
    assert "expected finite float" in capsys.readouterr().err
    assert not out.exists()


def test_run_spec_fields_on_every_surface(data_dir, tmp_path):
    """Every RunSpec field is a train flag, config key, sweep key and echo key."""
    names = [f.name for f in fields(RunSpec)]
    parser = build_parser()
    for name in names:
        flag = "--" + name.replace("_", "-")
        args = parser.parse_args(["train", "--manifest", "m", "--out", "o",
                                  flag, "7"])
        assert getattr(args, name) == "7", flag

    defaults = {f.name: f.default for f in fields(RunSpec)}
    cfg = tmp_path / "cfg.json"
    write_json(cfg, defaults)
    out = tmp_path / "run"
    assert main(["train", "--manifest", str(data_dir / "manifest.json"),
                 "--config", str(cfg), "--out", str(out)] + FAST_TRAIN) == 0
    echo = json.loads((out / "config.json").read_text())
    assert set(names) | {"command", "manifest"} == set(echo)

    write_json(cfg, {"entries": [{**defaults, "label": "all", "epochs": 2}]})
    assert main(["sweep", "--manifest", str(data_dir / "manifest.json"),
                 "--config", str(cfg), "--out", str(tmp_path / "s")]) == 0
    row = (tmp_path / "s" / "sweep.csv").read_text().splitlines()[1]
    assert row.startswith("all,") and row.endswith(",")  # no error


def test_distill_has_no_policy(data_dir, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    write_json(cfg, {"policy": "L"})
    code = main(["distill", "--manifest", str(data_dir / "manifest.json"),
                 "--teacher", str(tmp_path), "--config", str(cfg),
                 "--out", str(tmp_path / "s")])
    assert code == 2
    assert "unknown key 'policy'" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        main(["distill", "--manifest", "m", "--teacher", "t", "--out", "o",
              "--policy", "L"])


def test_load_experiment_reads_each_tensor_once(data_dir, monkeypatch):
    real = tensorio.read_tensor
    reads = []

    def counting(path, *args, **kwargs):
        reads.append(Path(path).name)
        return real(path, *args, **kwargs)

    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("cniprobe") and \
                getattr(module, "read_tensor", None) is real:
            monkeypatch.setattr(module, "read_tensor", counting)
    load_experiment(data_dir / "manifest.json")
    assert sorted(reads) == ["bank.cnit", "test_labels.cnit", "test_tokens.cnit",
                             "train_labels.cnit", "train_tokens.cnit"]


# --- experiment manifest ------------------------------------------------------

def _tiny_experiment(root, m=4, t=2, d=3, num_classes=2):
    """Write a manifest whose splits share one tensor pair; return all three."""
    root.mkdir(parents=True, exist_ok=True)
    tokens = np.random.default_rng(0).standard_normal((m, t, d))
    labels = np.arange(m) % num_classes
    write_tensor(root / "tok.cnit", tokens)
    write_tensor(root / "lab.cnit", labels)
    write_tensor(root / "bank.cnit", np.eye(num_classes, d)[None])
    split = {"tokens": "tok.cnit", "labels": "lab.cnit"}
    doc = {"train": split, "test": dict(split),
           "bank": {"embeddings": "bank.cnit"}}
    write_json(root / "manifest.json", doc)
    return doc, tokens, labels


def _old_split_fields(doc):
    # the layout ``synth`` wrote before each split held only its two paths
    for split in ("train", "test"):
        doc[split].update(name=split, num_classes=3, dim=8, tokens_per_example=2,
                          class_names=["class_00", "class_01", "class_02"])


def _old_top_and_bank_fields(doc):
    # the layout before the manifest held only what its reader reads
    doc.update(format="cniprobe-experiment", generator={"classes": 3})
    doc["bank"].update(prompt_templates=3, class_names=["x"])


@pytest.mark.parametrize("add_old_keys", [_old_split_fields,
                                          _old_top_and_bank_fields],
                         ids=["split_fields", "format_generator_bank_names"])
def test_old_manifest_layout_loads_the_same_arrays(data_dir, add_old_keys):
    doc = json.loads((data_dir / "manifest.json").read_text())
    add_old_keys(doc)
    write_json(data_dir / "old.json", doc)
    new = load_experiment(data_dir / "manifest.json")
    old = load_experiment(data_dir / "old.json")
    for a, b in zip(new[:2], old[:2]):
        np.testing.assert_array_equal(a.tokens, b.tokens)
        np.testing.assert_array_equal(a.labels, b.labels)
        assert a.num_classes == b.num_classes == 3
    np.testing.assert_array_equal(new[2].embeddings, old[2].embeddings)


def test_load_experiment_roundtrip_is_bit_exact(tmp_path):
    _, tokens, labels = _tiny_experiment(tmp_path)
    for ds in load_experiment(tmp_path / "manifest.json")[:2]:
        assert ds.num_examples == 4
        assert ds.labels.tolist() == labels.tolist()
        np.testing.assert_array_equal(
            ds.tokens, tokens.astype(np.float32).astype(np.float64))


def _labels(values):
    return lambda doc, root: write_tensor(root / "lab.cnit", np.array(values))


_DISAGREE = "manifest.json: bank and splits disagree on C or D"


@pytest.mark.parametrize("edit, why", [
    pytest.param(lambda doc, root: doc.update(train=["tok.cnit", "lab.cnit"]),
                 "train: split must be a JSON object", id="split_not_object"),
    pytest.param(lambda doc, root: doc["train"].pop("tokens"),
                 "train: split missing field 'tokens'", id="missing_tokens"),
    pytest.param(lambda doc, root: doc["test"].pop("labels"),
                 "test: split missing field 'labels'", id="missing_labels"),
    pytest.param(lambda doc, root: write_tensor(root / "tok.cnit",
                                                np.ones((4, 6))),
                 r"train: tokens shape \(4, 6\) is not \(M, T, D\)",
                 id="tokens_rank"),
    pytest.param(_labels([0.0, 1.0]), r"train: labels shape \(2,\) != \(4,\)",
                 id="labels_length"),
    pytest.param(_labels([0.0, 0.5, 1.0, 1.0]), "train: labels must be integral",
                 id="fractional_labels"),
    pytest.param(_labels([0.0, 1.0, 2.0, 0.0]),
                 r"train: labels must lie in \[0, 2\)", id="out_of_range_labels"),
    pytest.param(lambda doc, root: doc.pop("test"),
                 "experiment manifest missing 'test'", id="missing_test"),
    pytest.param(lambda doc, root: doc["bank"].pop("embeddings"),
                 "bank section needs an 'embeddings' path",
                 id="bank_without_embeddings"),
    pytest.param(lambda doc, root: write_tensor(root / "bank.cnit",
                                                np.eye(2, 4)[None]),
                 _DISAGREE, id="bank_dim"),
    pytest.param(lambda doc, root: (
        write_tensor(root / "tok4.cnit", np.ones((4, 2, 4))),
        doc["test"].update(tokens="tok4.cnit")),
                 _DISAGREE, id="test_split_dim"),
])
def test_load_experiment_rejects_bad_manifest(tmp_path, edit, why):
    doc, _, _ = _tiny_experiment(tmp_path)
    edit(doc, tmp_path)
    write_json(tmp_path / "manifest.json", doc)
    with pytest.raises(DataError, match=why):
        load_experiment(tmp_path / "manifest.json")


def test_load_experiment_paths_resolve_against_manifest_dir(tmp_path,
                                                            monkeypatch):
    _tiny_experiment(tmp_path / "exp" / "v1")
    monkeypatch.chdir(tmp_path)  # the tensors are not under the cwd
    train, test, bank = load_experiment("exp/v1/manifest.json")
    assert train.tokens.shape == test.tokens.shape == (4, 2, 3)
    assert bank.num_classes == 2


# What the parent study scripts (compare_inits.py, anchor_study.py,
# distill_study.py) printed for ``--seeds 1``.
STUDY_SEED_1 = {
    "inits": """\
zero-shot reference: 0.9940 +/- 0.0000
init                    1-shot            5-shot
------------------------------------------------
cni          0.9860 +/- 0.0000 0.9940 +/- 0.0000
partial(0.5) 0.6800 +/- 0.0000 0.8960 +/- 0.0000
random       0.4480 +/- 0.0000 0.9200 +/- 0.0000
""",
    "anchor": """\
1-shot  plain    ['0.986'] mean 0.9860
1-shot  anchored ['0.990'] mean 0.9900  delta +0.0040
5-shot  plain    ['0.994'] mean 0.9940
5-shot  anchored ['0.994'] mean 0.9940  delta +0.0000
""",
    "distill": """\
seed 1: teacher 0.9960  plain 0.9780  distilled 0.9940
means: teacher 0.9960  plain 0.9780  distilled 0.9940  (1/1 distillation wins)
""",
}


@pytest.mark.parametrize("name", list(STUDY_SEED_1))
def test_study_prints_the_benchmark_comparison(tmp_path, capsys, name):
    out = tmp_path / "study"
    assert main(["study", name, "--seeds", "1", "--out", str(out)]) == 0
    assert capsys.readouterr().out == STUDY_SEED_1[name]
    assert (out / "study.txt").read_text() == STUDY_SEED_1[name]


def test_cli_runs_as_a_module(tmp_path):
    # the documented fallback for a checkout that is not installed
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    out = tmp_path / "data"
    proc = subprocess.run(
        [sys.executable, "-m", "cniprobe.cli", "synth", "--out", str(out)]
        + SMALL_SYNTH, capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert read_tensor(out / "bank.cnit").shape == (2, 3, 8)


def test_console_script_installed():
    exe = shutil.which("cniprobe")
    if exe is None:
        pytest.skip("console script not on PATH")
    proc = subprocess.run([exe, "--help"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "synth" in proc.stdout
