"""Output bytes pinned across changes: a change that means to move them
updates these hashes and says why."""

import hashlib
import json
from dataclasses import replace

import pytest

from cniprobe.benchmark import (DISTILL_TEMPERATURE, DISTILL_WEIGHT,
                                default_train_config, make_benchmark)
from cniprobe.cli import main
from cniprobe.distill import distill_train
from cniprobe.headinit import (MODE_CNI, HeadInitSpec, average_text_embeddings,
                               init_head)
from cniprobe.model import TRAINABLE, LossConfig, init_params
from cniprobe.train import train

SYNTH = ["--classes", "3", "--dim", "8", "--tokens", "2",
         "--train-per-class", "6", "--test-per-class", "6",
         "--prompts", "3", "--seed", "11"]
TRAIN = ["--shots", "2", "--epochs", "6", "--batch-size", "4",
         "--eval-every", "2", "--anchor-lambda", "0.1", "--seed", "5"]

# sha256 of every .cnit file and metrics.csv, by path under the root
PINNED = {
    "ALL/metrics.csv": "76bd4c781cf638964482edf150aaaeb2d9e64ead15937aaa3444207cf3571633",
    "ALL/params_A.cnit": "fd579a903cbf083ac87acf3d69b4a01d0b0fc9406a17db2969ce86963f60c7da",
    "ALL/params_W.cnit": "6cfac296ab8678b596c256f8d985b61ee855c067394e0347d9db5bb3652097b9",
    "ALL/params_a.cnit": "d68eea2c50da8e01f152dae70e56313cf1812373bd404a9bbb5bf0ed32aab038",
    "ALL/params_b.cnit": "30fb79c518819149fd77a29bfed52275f2a549b4145f261050961840e4ddd3a8",
    "ALL/params_q.cnit": "c252cc6ffb11af0b197b35afc3e7e7daff885f278600324da5ec46127c728352",
    "L/metrics.csv": "b8d984df22fb188f6f180d7a2617ac15560d0744ea6f6bbe2517d832e367dbe3",
    "L/params_A.cnit": "1f0d7de25d2ed32b9a394e31a2aefd688469c087d5775e4b86d2a624d46a084d",
    "L/params_W.cnit": "9d0e2fcb2561054b3d3f5f2f346b843b8ccb88db94be47d49f90bdc98ae2a5e4",
    "L/params_a.cnit": "d06871f7c7e3ff6b9dfe010adada53428374ea4545a0e7153e7c6e3155d99377",
    "L/params_b.cnit": "70f98d4813bfaa6f1a0388160e0216b97b412f8a09141d27e4366714fa58e863",
    "L/params_q.cnit": "d06871f7c7e3ff6b9dfe010adada53428374ea4545a0e7153e7c6e3155d99377",
    "PL/metrics.csv": "30a37b250ba003b300ce424e237ab85e260e4f927ecbbc1e9fb7f9f5020f041e",
    "PL/params_A.cnit": "1f0d7de25d2ed32b9a394e31a2aefd688469c087d5775e4b86d2a624d46a084d",
    "PL/params_W.cnit": "677c0451a9436a05dbcd029ad9c59130cc24eb7cd44788199362dbd35a51782b",
    "PL/params_a.cnit": "d06871f7c7e3ff6b9dfe010adada53428374ea4545a0e7153e7c6e3155d99377",
    "PL/params_b.cnit": "01826389a98a2d6423e0500054dda7147b5f864c0a3a7ef6be3f82a1b0aa4a13",
    "PL/params_q.cnit": "b0be970005b8f0d4ae8677cabe3e347e17831df9ca881b6623359104a1f535da",
    "data/bank.cnit": "6a877860c40165ff76d3a982fd592d37e939e3350ddfa89b8ee945eea81e394b",
    "data/test_labels.cnit": "2efe31d8e25458a27e5a0eb92a414971badad29a775a007aac762e052c7c7ce9",
    "data/test_tokens.cnit": "8052ddab53a1e8357aef6f31c492347a6397f6c60c66423b41f810c09a5f13ba",
    "data/train_labels.cnit": "2efe31d8e25458a27e5a0eb92a414971badad29a775a007aac762e052c7c7ce9",
    "data/train_tokens.cnit": "326a566022544ff9d0c87459e1d8b843d850edde2a8b55f9960fe1fe2ee8844c",
    "distill/metrics.csv": "31f18fff5c6dbd538f3a5b961630fcd6fe277d99ea2c15aa6120775b56d096cf",
    "distill/params_A.cnit": "2776b97ed6069e4f59e4b1c5579929ce717db885fcf0174c26a565bd6ec7c05d",
    "distill/params_W.cnit": "10d71feda20451b6e8e6c6552f1e1dd47f627f18669f78ccd1d51fc0027d5724",
    "distill/params_a.cnit": "280554991c076fd9d9f42c13d5dda56827e985db55b552f1230973ca30c25c34",
    "distill/params_b.cnit": "ff426afffafaf440075aa8bfac5b1b1bc22f1ce19e321ba1fcade79f2665869d",
    "distill/params_q.cnit": "ad19a38582aa1dd5f9e46aef2d26bd221291fdc8a5cbc3d6f2823743d7517d54",
}


RUNS = ("L", "PL", "ALL", "distill")


@pytest.fixture(scope="module")
def chain(tmp_path_factory):
    """The root of one synth, L/PL/ALL train and distill-from-ALL chain."""
    root = tmp_path_factory.mktemp("chain")
    manifest = str(root / "data" / "manifest.json")
    assert main(["synth", "--out", str(root / "data")] + SYNTH) == 0
    for policy in ("L", "PL", "ALL"):
        assert main(["train", "--manifest", manifest, "--policy", policy,
                     "--out", str(root / policy)] + TRAIN) == 0
    assert main(["distill", "--manifest", manifest,
                 "--teacher", str(root / "ALL"),
                 "--out", str(root / "distill")] + TRAIN) == 0
    return root


def test_synth_train_distill_outputs_are_pinned(chain):
    hashes = {p.relative_to(chain).as_posix():
              hashlib.sha256(p.read_bytes()).hexdigest()
              for p in chain.rglob("*")
              if p.suffix == ".cnit" or p.name == "metrics.csv"}
    assert hashes == PINNED


@pytest.mark.parametrize("run", RUNS)
def test_saved_run_scores_its_final_top1(chain, tmp_path, run):
    # training scores float64 params in memory; eval reads the float32 files
    assert main(["eval", "--manifest", str(chain / "data" / "manifest.json"),
                 "--params", str(chain / run), "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "eval.json").read_text())["report"]
    summary = json.loads((chain / run / "summary.json").read_text())
    assert report["top1"] == summary["final_top1"]


# sha256 of the history CSV and the parameter bytes of two runs at the
# benchmark's shapes (D=32, C=10, batches of 32): a 3-epoch ALL teacher
# on all 500 training examples (48 steps, three permutations of 500) and
# a distilled 1-shot student of it, whose pool batches span two of them.
BENCH_SHAPE_PINS = {
    "teacher": "cfbc6bd6208f3b9ec5fb66a8905f5155b7a261c37366f97005e364a6e06f942c",
    "student": "ad6a4702508f9bf80f44445a6e6087a027fe6db5361ccead97ba35f037f2224f",
}


def _run_digest(params, history) -> str:
    h = hashlib.sha256(history.to_csv().encode())
    for name in TRAINABLE["ALL"]:
        h.update(params.group(name).tobytes())
    return h.hexdigest()


def test_benchmark_shape_teacher_and_student_are_pinned():
    train_ds, test_ds, bank = make_benchmark(1)
    start = init_params(init_head(HeadInitSpec(mode=MODE_CNI),
                                  average_text_embeddings(bank),
                                  bank.num_classes, bank.dim))
    teacher, t_hist = train(start, train_ds, test_ds, default_train_config(
        MODE_CNI, 1, policy="ALL", epochs=3, eval_every=1))
    cfg = default_train_config(MODE_CNI, 1, shots=1, policy="ALL",
                               epochs=20, eval_every=5)
    cfg = replace(cfg, loss=LossConfig(distill_weight=DISTILL_WEIGHT,
                                       distill_temperature=DISTILL_TEMPERATURE))
    student, s_hist = distill_train(teacher, start, train_ds, train_ds,
                                    test_ds, cfg)
    assert (t_hist.final.step, s_hist.final.step) == (48, 20)
    assert {"teacher": _run_digest(teacher, t_hist),
            "student": _run_digest(student, s_hist)} == BENCH_SHAPE_PINS
