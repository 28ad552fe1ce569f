"""Evaluation reports and the zero-shot reference classifier."""

import json

import numpy as np
import pytest

from cniprobe.dataset import EmbeddingDataset, SynthSpec, make_synthetic
from cniprobe.errors import ShapeMismatch
from cniprobe.evaluate import (
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


def _identity_params(c, d, **kw):
    rng = np.random.default_rng(0)
    W = rng.normal(size=(c, d))
    W /= np.linalg.norm(W, axis=1, keepdims=True)
    return ModelParams(A=np.eye(d), a=np.zeros(d), q=np.zeros(d), W=W,
                       b=np.zeros(c), **kw)


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


def test_predictions_invariant_to_logit_scale(tiny_problem):
    train_ds, _, bank = tiny_problem
    avg = average_text_embeddings(bank)
    head = init_head(HeadInitSpec(mode=MODE_CNI), avg, bank.num_classes,
                     bank.dim)
    p10 = init_params(head, logit_scale=10.0)
    p50 = init_params(head, logit_scale=50.0)
    np.testing.assert_array_equal(predictions(p10, train_ds),
                                  predictions(p50, train_ds))


def test_class_count_mismatch_rejected(tiny_problem):
    train_ds, _, bank = tiny_problem
    p = _identity_params(5, 8)
    with pytest.raises(ShapeMismatch):
        top1(p, train_ds)
    other = TextEmbeddingBank(
        embeddings=np.random.default_rng(0).normal(size=(2, 5, 8)))
    with pytest.raises(ShapeMismatch):
        zero_shot(other, train_ds)


def test_report_serializes_to_plain_json(tiny_problem):
    _, test_ds, bank = tiny_problem
    doc = zero_shot(bank, test_ds).to_json_dict()
    parsed = json.loads(json.dumps(doc))
    assert set(parsed) == {"top1", "per_class", "confusion"}
    assert isinstance(parsed["top1"], float)
    total = sum(sum(row) for row in parsed["confusion"])
    assert total == test_ds.num_examples
