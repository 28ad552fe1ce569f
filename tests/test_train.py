"""Training-loop contracts: freezing, determinism, history, sweeps."""

import numpy as np
import pytest

import cniprobe.train as train_module
from cniprobe.dataset import ShotSpec, sample_k_shot
from cniprobe.errors import ConfigError, NumericalError
from cniprobe.evaluate import zero_shot
from cniprobe.headinit import HeadInitSpec, MODE_CNI, MODE_RANDOM
from cniprobe.model import LossConfig
from cniprobe.train import (
    CSV_COLUMNS,
    MetricHistory,
    MetricRecord,
    SweepEntry,
    TrainConfig,
    sweep,
    train,
)


def _cfg(**kw):
    base = dict(epochs=8, batch_size=4, base_lr=1e-3, loss=LossConfig(),
                policy="PL", seed=0, eval_every=4, shots=None)
    base.update(kw)
    return TrainConfig(**base)


def test_zero_epochs_returns_init_bit_identical(tiny_problem, tiny_cni_params):
    train_ds, test_ds, _ = tiny_problem
    params, history = train(tiny_cni_params, train_ds, test_ds, _cfg(epochs=0))
    for name in ("A", "a", "q", "W", "b"):
        assert params.group(name).tobytes() == tiny_cni_params.group(name).tobytes()
    assert len(history.records) == 1
    assert history.final.epoch == 0


def test_epoch0_record_equals_zero_shot(tiny_problem, tiny_cni_params):
    train_ds, test_ds, bank = tiny_problem
    _, history = train(tiny_cni_params, train_ds, test_ds, _cfg())
    assert history.records[0].epoch == 0
    assert history.records[0].test_top1 == zero_shot(bank, test_ds).top1


@pytest.mark.parametrize("policy,frozen,hot", [
    ("L", ("A", "a", "q"), ("W", "b")),
    ("PL", ("A", "a"), ("q", "W", "b")),
    ("ALL", (), ("A", "a", "q", "W", "b")),
])
def test_freezing_policy_bit_identity(tiny_problem, tiny_cni_params,
                                      policy, frozen, hot):
    train_ds, test_ds, _ = tiny_problem
    params, _ = train(tiny_cni_params, train_ds, test_ds, _cfg(policy=policy))
    for name in frozen:
        assert params.group(name).tobytes() == \
            tiny_cni_params.group(name).tobytes()
    for name in hot:
        assert params.group(name).tobytes() != \
            tiny_cni_params.group(name).tobytes()


def test_training_is_deterministic(tiny_problem, tiny_cni_params):
    train_ds, test_ds, _ = tiny_problem
    p1, h1 = train(tiny_cni_params.copy(), train_ds, test_ds, _cfg(seed=3))
    p2, h2 = train(tiny_cni_params.copy(), train_ds, test_ds, _cfg(seed=3))
    for name in ("A", "a", "q", "W", "b"):
        assert p1.group(name).tobytes() == p2.group(name).tobytes()
    assert h1.to_csv() == h2.to_csv()


def test_seed_changes_batch_order_and_result(tiny_problem, tiny_cni_params):
    train_ds, test_ds, _ = tiny_problem
    p1, _ = train(tiny_cni_params.copy(), train_ds, test_ds, _cfg(seed=0))
    p2, _ = train(tiny_cni_params.copy(), train_ds, test_ds, _cfg(seed=1))
    assert p1.W.tobytes() != p2.W.tobytes()


def test_input_params_never_mutated(tiny_problem, tiny_cni_params):
    train_ds, test_ds, _ = tiny_problem
    before = {n: tiny_cni_params.group(n).tobytes() for n in
              ("A", "a", "q", "W", "b")}
    train(tiny_cni_params, train_ds, test_ds, _cfg(policy="ALL"))
    for name, blob in before.items():
        assert tiny_cni_params.group(name).tobytes() == blob


def test_shot_spec_subsamples_training_data(tiny_problem, tiny_cni_params):
    train_ds, test_ds, _ = tiny_problem
    full, _ = train(tiny_cni_params.copy(), train_ds, test_ds, _cfg(seed=2))
    few, _ = train(tiny_cni_params.copy(), train_ds, test_ds,
                   _cfg(seed=2, shots=1))
    assert full.W.tobytes() != few.W.tobytes()
    # the shots are sampled at the run seed
    subset = train_ds.subset(sample_k_shot(train_ds, ShotSpec(k=1, seed=2)))
    same, _ = train(tiny_cni_params.copy(), subset, test_ds, _cfg(seed=2))
    assert same.W.tobytes() == few.W.tobytes()


def test_anchor_pins_parameters_near_init(tiny_problem, tiny_cni_params):
    train_ds, test_ds, _ = tiny_problem
    cfg = _cfg(epochs=100, base_lr=1e-4, eval_every=100,
               loss=LossConfig(anchor_lambda=1e6), policy="PL")
    params, _ = train(tiny_cni_params, train_ds, test_ds, cfg)
    for name in ("q", "W", "b"):
        drift = np.abs(params.group(name) - tiny_cni_params.group(name)).max()
        assert drift < 1e-3, f"{name} drifted {drift}"


def test_history_epochs_and_csv_layout(tiny_problem, tiny_cni_params):
    train_ds, test_ds, _ = tiny_problem
    _, history = train(tiny_cni_params, train_ds, test_ds,
                       _cfg(epochs=10, eval_every=4))
    assert [r.epoch for r in history.records] == [0, 4, 8, 10]
    csv = history.to_csv()
    lines = csv.strip().split("\n")
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 1 + len(history.records)
    first = lines[1].split(",")
    assert first[0] == "0" and first[1] == "0"
    assert csv.endswith("\n")


def test_history_rejects_nonincreasing_epochs():
    hist = MetricHistory()
    rec = dict(step=0, lr=0.0, loss_ce=0.0, loss_anchor=0.0,
               loss_distill=0.0, test_top1=0.0)
    hist.append(MetricRecord(epoch=0, **rec))
    hist.append(MetricRecord(epoch=3, **rec))
    with pytest.raises(ValueError):
        hist.append(MetricRecord(epoch=3, **rec))


def test_train_config_validation():
    # every field is required: a RunSpec holds the defaults
    with pytest.raises(TypeError):
        TrainConfig()
    _cfg()  # the complete, valid settings each bad case starts from
    for bad in (dict(epochs=-1), dict(batch_size=0), dict(eval_every=0),
                dict(policy="everything"), dict(base_lr=0.0),
                dict(base_lr=-1.0), dict(shots=0), dict(shots=-1)):
        with pytest.raises(ConfigError):
            _cfg(**bad)


# --- sweep --------------------------------------------------------------------

def _entries(n=2, **cfg_kw):
    return [
        SweepEntry(label=f"e{i}", init=HeadInitSpec(mode=MODE_CNI),
                   cfg=_cfg(**cfg_kw))
        for i in range(n)
    ]


def test_sweep_matches_direct_training(tiny_problem, tiny_cni_params):
    train_ds, test_ds, bank = tiny_problem
    rows = sweep(bank, train_ds, test_ds, _entries(1))
    _, history = train(tiny_cni_params, train_ds, test_ds, _cfg())
    assert rows[0].final_top1 == history.final.test_top1
    assert rows[0].error is None


def test_sweep_identical_entries_identical_rows(tiny_problem):
    train_ds, test_ds, bank = tiny_problem
    rows = sweep(bank, train_ds, test_ds, _entries(4))
    assert len({r.final_top1 for r in rows}) == 1


def test_sweep_order_and_error_capture(tiny_problem):
    train_ds, test_ds, bank = tiny_problem
    entries = _entries(2)
    entries.insert(1, SweepEntry(
        label="boom", init=HeadInitSpec(mode=MODE_RANDOM, seed=1),
        cfg=_cfg(shots=10**6),
    ))
    rows = sweep(bank, train_ds, test_ds, entries)
    assert [r.label for r in rows] == ["e0", "boom", "e1"]
    assert rows[1].final_top1 is None
    assert rows[1].error.startswith("DataError: class 0 has ")
    assert rows[1].error.endswith(" examples but 1000000 are required")
    assert rows[0].error is None and rows[2].error is None


@pytest.mark.filterwarnings("error::RuntimeWarning")  # reported once, as the error
def test_divergence_raises_and_becomes_a_sweep_row(tiny_problem, tiny_cni_params):
    train_ds, test_ds, bank = tiny_problem
    cfg = _cfg(policy="ALL", base_lr=1e30, epochs=20)
    with pytest.raises(NumericalError, match="diverged"):
        train(tiny_cni_params, train_ds, test_ds, cfg)
    row, = sweep(bank, train_ds, test_ds, _entries(1, policy="ALL",
                                                    base_lr=1e30, epochs=20))
    assert row.final_top1 is None
    assert row.error.startswith("NumericalError: ")


def test_sweep_rows_only_for_package_errors(tiny_problem, monkeypatch):
    train_ds, test_ds, bank = tiny_problem

    def failing(exc):
        def fake_train(*args):
            raise exc
        return fake_train

    monkeypatch.setattr(train_module, "train", failing(ConfigError("bad lr")))
    row, = sweep(bank, train_ds, test_ds, _entries(1))
    assert row.error == "ConfigError: bad lr" and row.final_top1 is None
    monkeypatch.setattr(train_module, "train", failing(TypeError("a defect")))
    with pytest.raises(TypeError, match="a defect"):
        sweep(bank, train_ds, test_ds, _entries(1))


def test_sweep_rejects_empty_entries(tiny_problem):
    train_ds, test_ds, bank = tiny_problem
    with pytest.raises(ConfigError):
        sweep(bank, train_ds, test_ds, [])
