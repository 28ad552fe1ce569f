"""Distillation runs: teacher immutability, zero-weight identity, pooling."""

import numpy as np
import pytest

from cniprobe import benchmark
from cniprobe.benchmark import DistillSpec, RunSpec
from cniprobe.dataset import SynthSpec, make_synthetic
from cniprobe.distill import distill_train, teacher_predict
from cniprobe.errors import ConfigError, DataError
from cniprobe.headinit import HeadInitSpec, MODE_CNI, average_text_embeddings, init_head
from cniprobe.model import POLICY_ALL, TRAINABLE, LossConfig, init_params
from cniprobe.train import TrainConfig, train


def _cfg(**kw):
    base = dict(epochs=6, batch_size=4, base_lr=1e-3, loss=LossConfig(),
                policy="PL", seed=0, eval_every=3, shots=None)
    base.update(kw)
    return TrainConfig(**base)


@pytest.fixture()
def setup(tiny_problem, tiny_cni_params):
    train_ds, test_ds, _ = tiny_problem
    teacher, _ = train(tiny_cni_params.copy(), train_ds, test_ds,
                       _cfg(policy="ALL", epochs=10))
    return train_ds, test_ds, teacher, tiny_cni_params


def test_teacher_params_never_touched(setup):
    train_ds, test_ds, teacher, student0 = setup
    before = {n: teacher.group(n).tobytes() for n in ("A", "a", "q", "W", "b")}
    distill_train(teacher, student0.copy(), train_ds, train_ds, test_ds,
                  _cfg(loss=LossConfig(distill_weight=1.0,
                                       distill_temperature=2.0)))
    for name, blob in before.items():
        assert teacher.group(name).tobytes() == blob


def test_zero_weight_equals_plain_all_training(setup):
    train_ds, test_ds, teacher, student0 = setup
    cfg = _cfg(loss=LossConfig(distill_weight=0.0))
    d_params, d_hist = distill_train(teacher, student0.copy(), train_ds,
                                     None, test_ds, cfg)
    p_params, p_hist = train(student0.copy(), train_ds, test_ds,
                             _cfg(policy="ALL",
                                  loss=LossConfig(distill_weight=0.0)))
    for name in ("A", "a", "q", "W", "b"):
        assert d_params.group(name).tobytes() == p_params.group(name).tobytes()
    assert d_hist.to_csv() == p_hist.to_csv()


def test_policy_is_forced_to_all(setup):
    train_ds, test_ds, teacher, student0 = setup
    params, _ = distill_train(teacher, student0.copy(), train_ds, train_ds,
                              test_ds,
                              _cfg(policy="L",
                                   loss=LossConfig(distill_weight=1.0)))
    # adapter moved, so the "L" request was overridden
    assert params.A.tobytes() != student0.A.tobytes()


def test_distillation_changes_the_run(setup):
    train_ds, test_ds, teacher, student0 = setup
    plain, _ = distill_train(teacher, student0.copy(), train_ds, None, test_ds,
                             _cfg(loss=LossConfig(distill_weight=0.0)))
    distilled, hist = distill_train(
        teacher, student0.copy(), train_ds, train_ds, test_ds,
        _cfg(loss=LossConfig(distill_weight=1.0, distill_temperature=2.0)))
    assert plain.W.tobytes() != distilled.W.tobytes()
    assert any(r.loss_distill > 0 for r in hist.records)


def test_labeled_batch_order_unchanged_by_distillation(setup):
    # same seed => the labeled shot subset is identical in both runs
    train_ds, test_ds, teacher, student0 = setup
    _, plain_hist = distill_train(
        teacher, student0.copy(), train_ds, None, test_ds,
        _cfg(shots=2, seed=5, loss=LossConfig(distill_weight=0.0)))
    _, dist_hist = distill_train(
        teacher, student0.copy(), train_ds, train_ds, test_ds,
        _cfg(shots=2, seed=5, loss=LossConfig(distill_weight=1.0)))
    assert plain_hist.records[0].loss_ce == dist_hist.records[0].loss_ce


def test_missing_pool_rejected(setup):
    train_ds, test_ds, teacher, student0 = setup
    cfg = _cfg(loss=LossConfig(distill_weight=1.0))
    with pytest.raises(ConfigError):
        distill_train(teacher, student0.copy(), train_ds, None, test_ds, cfg)


def test_pool_dim_mismatch_rejected(setup):
    train_ds, test_ds, teacher, student0 = setup
    other, _, _ = make_synthetic(SynthSpec(
        classes=3, dim=4, tokens=2, train_per_class=2, test_per_class=2,
        prompts=2, img_noise=0.2, txt_noise=0.1))
    cfg = _cfg(loss=LossConfig(distill_weight=1.0))
    with pytest.raises(DataError, match="incompatible with D=8"):
        distill_train(teacher, student0.copy(), train_ds, other, test_ds, cfg)


def test_teacher_student_shape_mismatch_rejected(tiny_problem):
    train_ds, test_ds, bank = tiny_problem
    avg = average_text_embeddings(bank)
    head = init_head(HeadInitSpec(mode=MODE_CNI), avg, bank.num_classes,
                     bank.dim)
    student = init_params(head)
    o_train, o_test, o_bank = make_synthetic(SynthSpec(
        classes=4, dim=8, tokens=2, train_per_class=2, test_per_class=2,
        prompts=2, img_noise=0.2, txt_noise=0.1, seed=2))
    o_head = init_head(HeadInitSpec(mode=MODE_CNI),
                       average_text_embeddings(o_bank), 4, 8)
    with pytest.raises(DataError, match="teacher and student must share C and D"):
        distill_train(init_params(o_head), student, train_ds, train_ds,
                      test_ds, _cfg())


def test_teacher_predict_rows_are_distributions(setup):
    train_ds, _, teacher, _ = setup
    probs = teacher_predict(teacher, train_ds.tokens)
    assert probs.shape == (train_ds.num_examples, train_ds.num_classes)
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)
    assert np.all(probs > 0)


def test_teacher_is_needed_only_for_a_positive_weight(setup):
    train_ds, test_ds, _, student0 = setup
    d_params, d_hist = distill_train(None, student0.copy(), train_ds, train_ds,
                                     test_ds, _cfg())
    p_params, p_hist = train(student0.copy(), train_ds, test_ds,
                             _cfg(policy="ALL"))
    assert d_params.W.tobytes() == p_params.W.tobytes()
    assert d_hist.to_csv() == p_hist.to_csv()
    with pytest.raises(ConfigError):
        distill_train(None, student0.copy(), train_ds, train_ds, test_ds,
                      _cfg(loss=LossConfig(distill_weight=1.0)))


def test_student_spec_states_the_policy_it_trains():
    # a student always trains ALL, so its spec says so, and benchmark.run
    # keys a student spelled with policy="ALL" as the same run
    spec = DistillSpec(seed=1, shots=1)
    assert spec.policy == spec.train_config().policy == POLICY_ALL
    assert spec == DistillSpec(seed=1, shots=1, policy=POLICY_ALL)


def test_zero_weight_student_spec_runs_without_a_teacher():
    student = benchmark.run(DistillSpec(shots=1, distill_weight=0.0, seed=1))
    plain = benchmark.run(RunSpec(policy="ALL", shots=1, seed=1))
    for name in TRAINABLE[POLICY_ALL]:
        assert student[0].group(name).tobytes() == plain[0].group(name).tobytes()
    assert student[1].to_csv() == plain[1].to_csv()
    with pytest.raises(ConfigError):
        benchmark.run(DistillSpec(shots=1, seed=1))
