"""Evaluation reports and the zero-shot reference classifier."""

import json

import numpy as np
import pytest

from cniprobe.dataset import EmbeddingDataset, SynthSpec, make_synthetic
from cniprobe.errors import DataError
from cniprobe.evaluate import (
    EvalReport,
    predictions,
    top1,
    zero_shot,
    zero_shot_predictions,
)
from cniprobe.headinit import (
    HeadInitSpec,
    MODE_CNI,
    TextEmbeddingBank,
    average_text_embeddings,
    init_head,
)
from cniprobe.model import ModelParams, init_params


def _identity_params(c, d):
    rng = np.random.default_rng(0)
    W = rng.normal(size=(c, d))
    W /= np.linalg.norm(W, axis=1, keepdims=True)
    return ModelParams(A=np.eye(d), a=np.zeros(d), q=np.zeros(d), W=W,
                       b=np.zeros(c))


def _ds(tokens, labels, c):
    return EmbeddingDataset(tokens=tokens, labels=np.asarray(labels),
                            num_classes=c)


def test_ties_resolve_to_lowest_class_index():
    p = _identity_params(3, 4)
    p.W[:] = p.W[0]  # every class scores identically
    ds = _ds(np.random.default_rng(1).normal(size=(5, 2, 4)), [2, 1, 0, 2, 1], 3)
    assert predictions(p, ds).tolist() == [0, 0, 0, 0, 0]


def test_zero_shot_ties_resolve_to_lowest_class_index():
    emb = np.tile(np.array([1.0, 0.0, 0.0, 0.0]), (2, 3, 1))  # identical rows
    bank = TextEmbeddingBank(embeddings=emb)
    ds = _ds(np.random.default_rng(2).normal(size=(4, 2, 4)), [1, 2, 0, 1], 3)
    assert zero_shot_predictions(bank, ds).tolist() == [0, 0, 0, 0]


def test_constant_predictor_report():
    p = _identity_params(3, 4)
    p.b[0] = 1e6  # always predict class 0
    ds = _ds(np.random.default_rng(3).normal(size=(6, 2, 4)), [0, 0, 1, 1, 2, 2], 3)
    report = top1(p, ds)
    assert report.top1 == pytest.approx(2 / 6)
    assert report.per_class.tolist() == [1.0, 0.0, 0.0]
    assert report.confusion[:, 0].tolist() == [2, 2, 2]
    assert report.confusion.sum() == 6


def test_hand_worked_confusion():
    # labels [0,0,1], preds [0,1,1]
    p = _identity_params(2, 2)
    tokens = np.array([[[1.0, 0.0]], [[0.0, 1.0]], [[0.0, 1.0]]])
    p.W[:] = np.eye(2)
    report = top1(p, _ds(tokens, [0, 0, 1], 2))
    assert report.confusion.tolist() == [[1, 1], [0, 1]]
    assert report.top1 == pytest.approx(2 / 3)
    assert report.per_class.tolist() == [0.5, 1.0]


@pytest.mark.parametrize("labels, preds, c", [
    ([0, 0, 0], [0, 0, 0], 1),                 # one class
    ([0, 2, 2, 0, 2], [2, 2, 0, 0, 1], 4),     # classes 1 and 3 have no examples
    (np.random.default_rng(3).integers(0, 10, 500),
     np.random.default_rng(4).integers(0, 10, 500), 10),
], ids=["C=1", "empty-classes", "500-examples"])
def test_confusion_counts_every_label_prediction_pair(labels, preds, c):
    labels, preds = np.asarray(labels, np.int64), np.asarray(preds, np.int64)
    expected = np.zeros((c, c), dtype=np.int64)
    np.add.at(expected, (labels, preds), 1)
    report = EvalReport(labels, preds, c)
    assert report.confusion.dtype == np.int64
    np.testing.assert_array_equal(report.confusion, expected)
    totals = expected.sum(axis=1)
    np.testing.assert_array_equal(
        report.per_class,
        np.where(totals > 0, np.diagonal(expected) / np.maximum(totals, 1), 0.0))


def _eager_report(labels, preds, c):
    """top1, per_class and confusion as an eager report builds them."""
    confusion = np.bincount(labels * c + preds, minlength=c * c).reshape(c, c)
    totals = confusion.sum(axis=1)
    diag = np.diagonal(confusion)
    per_class = np.where(totals > 0, diag / np.maximum(totals, 1), 0.0)
    return float(diag.sum() / labels.shape[0]), per_class, confusion


@pytest.mark.parametrize("labels, preds, c", [
    ([0, 0, 0], [0, 0, 0], 1),
    ([0, 2, 2, 0, 2], [2, 2, 0, 0, 1], 4),     # classes 1 and 3 have no examples
    ([1, 1, 1], [0, 0, 2], 3),                 # no prediction right
    (np.random.default_rng(5).integers(0, 9, 500),  # class 9 has no examples
     np.random.default_rng(6).integers(0, 10, 500), 10),
], ids=["C=1", "empty-classes", "none-right", "500-examples"])
def test_lazy_report_equals_the_eager_one(labels, preds, c):
    labels, preds = np.asarray(labels, np.int64), np.asarray(preds, np.int64)
    top1_, per_class, confusion = _eager_report(labels, preds, c)
    report = EvalReport(labels, preds, c)
    assert report.top1 == top1_ and isinstance(report.top1, float)
    assert report.per_class.tobytes() == per_class.tobytes()
    assert report.confusion.dtype == confusion.dtype
    assert report.confusion.tobytes() == confusion.tobytes()
    want = {"top1": top1_, "per_class": [float(x) for x in per_class],
            "confusion": confusion.tolist()}
    assert json.dumps(report.to_json_dict()) == json.dumps(want)


def test_random_head_near_chance():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        train, _, _ = make_synthetic(SynthSpec(
            dim=16, tokens=2, train_per_class=100, test_per_class=1, prompts=1,
            txt_noise=0.1, seed=seed))
        W = rng.normal(size=(10, 16))
        W /= np.linalg.norm(W, axis=1, keepdims=True)
        p = ModelParams(A=np.eye(16), a=np.zeros(16), q=np.zeros(16), W=W,
                        b=np.zeros(10))
        acc = top1(p, train).top1
        assert 0.02 <= acc <= 0.25, f"seed {seed}: {acc}"


def test_zero_shot_equals_cni_initialized_model(tiny_problem):
    train_ds, test_ds, bank = tiny_problem
    avg = average_text_embeddings(bank)
    head = init_head(HeadInitSpec(mode=MODE_CNI), avg, bank.num_classes,
                     bank.dim)
    params = init_params(head)
    for ds in (train_ds, test_ds):
        np.testing.assert_array_equal(
            zero_shot_predictions(bank, ds), predictions(params, ds))
        assert zero_shot(bank, ds).top1 == top1(params, ds).top1


def test_report_invariant_to_example_order(tiny_problem):
    _, test_ds, bank = tiny_problem
    perm = np.random.default_rng(5).permutation(test_ds.num_examples)
    shuffled = test_ds.subset([int(i) for i in perm])
    a = zero_shot(bank, test_ds)
    b = zero_shot(bank, shuffled)
    assert a.top1 == b.top1
    np.testing.assert_array_equal(a.confusion, b.confusion)


def test_class_count_mismatch_rejected(tiny_problem):
    train_ds, _, bank = tiny_problem
    p = _identity_params(5, 8)
    with pytest.raises(DataError, match="model and dataset disagree"):
        top1(p, train_ds)
    other = TextEmbeddingBank(
        embeddings=np.random.default_rng(0).normal(size=(2, 5, 8)))
    with pytest.raises(DataError, match=r"bank \(C=5, D=8\) and dataset \(C=3"):
        zero_shot(other, train_ds)


def test_zero_shot_rejects_a_bank_of_another_dim(tiny_problem):
    train_ds, _, _ = tiny_problem  # D = 8
    other = TextEmbeddingBank(
        embeddings=np.random.default_rng(0).normal(size=(2, 3, 5)))
    with pytest.raises(DataError, match="D=5"):
        zero_shot(other, train_ds)


def test_report_serializes_to_plain_json(tiny_problem):
    _, test_ds, bank = tiny_problem
    doc = zero_shot(bank, test_ds).to_json_dict()
    parsed = json.loads(json.dumps(doc))
    assert set(parsed) == {"top1", "per_class", "confusion"}
    assert isinstance(parsed["top1"], float)
    total = sum(sum(row) for row in parsed["confusion"])
    assert total == test_ds.num_examples
