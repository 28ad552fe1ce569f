"""k-shot sampling and synthetic generator tests.

The k-shot index oracle values below were frozen from an independent
walk of the pinned PRNG (per-class ascending index lists, one shared
Fisher-Yates stream, classes visited in ascending order).
"""

import hashlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cniprobe.benchmark import make_benchmark
from cniprobe.dataset import (
    EmbeddingDataset,
    ShotSpec,
    SynthSpec,
    make_synthetic,
    sample_k_shot,
)
from cniprobe.errors import (
    ConfigError,
    DataError,
    InsufficientExamples,
    LabelOutOfRange,
)
from cniprobe.cli import load_experiment
from cniprobe.tensorio import write_json, write_tensor


def _flat_ds(labels, num_classes):
    labels = np.asarray(labels)
    return EmbeddingDataset(
        tokens=np.ones((labels.shape[0], 1, 2)),
        labels=labels,
        num_classes=num_classes,
    )


def test_kshot_frozen_oracle_two_classes():
    ds = _flat_ds([0, 0, 1, 1], 2)
    assert sample_k_shot(ds, ShotSpec(k=1, seed=7)) == [1, 3]
    assert sample_k_shot(ds, ShotSpec(k=1, seed=0)) == [1, 2]


def test_kshot_frozen_oracle_three_classes():
    ds = _flat_ds(np.repeat(np.arange(3), 4), 3)
    assert sample_k_shot(ds, ShotSpec(k=2, seed=3)) == [1, 3, 4, 7, 9, 8]


def test_kshot_counts_and_classes():
    labels = np.repeat(np.arange(5), 9)
    ds = _flat_ds(labels, 5)
    idx = sample_k_shot(ds, ShotSpec(k=3, seed=1))
    assert len(idx) == 15
    picked = labels[np.asarray(idx)]
    for c in range(5):
        assert (picked == c).sum() == 3
    assert len(set(idx)) == len(idx)  # no repeats


def test_kshot_deterministic_and_seed_sensitive():
    ds = _flat_ds(np.repeat(np.arange(4), 25), 4)
    a = sample_k_shot(ds, ShotSpec(k=5, seed=9))
    b = sample_k_shot(ds, ShotSpec(k=5, seed=9))
    c = sample_k_shot(ds, ShotSpec(k=5, seed=10))
    assert a == b
    assert a != c


def test_kshot_insufficient_examples():
    ds = _flat_ds([0, 0, 0, 1], 2)
    with pytest.raises(InsufficientExamples) as exc:
        sample_k_shot(ds, ShotSpec(k=2, seed=0))
    assert exc.value.class_id == 1
    assert exc.value.have == 1
    assert exc.value.need == 2


@given(st.integers(min_value=0, max_value=1 << 20), st.integers(min_value=1, max_value=6))
@settings(max_examples=25, deadline=None)
def test_kshot_is_class_stratified(seed, k):
    labels = np.repeat(np.arange(3), 8)
    ds = _flat_ds(labels, 3)
    idx = np.asarray(sample_k_shot(ds, ShotSpec(k=k, seed=seed)))
    assert np.array_equal(labels[idx], np.repeat(np.arange(3), k))


def test_shot_spec_validation():
    with pytest.raises(ConfigError):
        ShotSpec()  # k has no default
    with pytest.raises(ConfigError):
        ShotSpec(k=0)
    with pytest.raises(TypeError):
        ShotSpec(k=1, fraction=0.5)  # no fraction mode


def test_dataset_validation():
    with pytest.raises(LabelOutOfRange):
        _flat_ds([0, 2], 2)
    for labels, why in (([0.0, 0.7, 1.9], "integral"),  # not cast to [0, 0, 1]
                        ([0.0, np.nan, 1.0], "integral"),
                        ([0.0, 1e30, 1.0], "must lie in")):  # checked before the cast
        with pytest.raises(LabelOutOfRange, match=why):
            _flat_ds(labels, 2)
    assert _flat_ds([0.0, 1.0, 1.0], 2).labels.dtype == np.int64
    with pytest.raises(DataError):
        EmbeddingDataset(tokens=np.ones((2, 2)), labels=np.zeros(2), num_classes=1)
    with pytest.raises(DataError):
        bad = np.ones((2, 1, 2))
        bad[0, 0, 0] = np.nan
        EmbeddingDataset(tokens=bad, labels=np.zeros(2), num_classes=1)


def test_subset_copies_rows():
    ds = _flat_ds([0, 1, 0, 1], 2)
    sub = ds.subset([2, 1])
    assert sub.num_examples == 2
    assert sub.labels.tolist() == [0, 1]
    sub.tokens[0, 0, 0] = 99.0
    assert ds.tokens[2, 0, 0] == 1.0  # parent untouched


def test_load_embedding_dataset_roundtrip(tmp_path):
    train, _, bank = make_synthetic(SynthSpec(
        classes=2, dim=4, tokens=2, train_per_class=3, test_per_class=1,
        prompts=1, img_noise=0.2, txt_noise=0.1, seed=9))
    write_tensor(tmp_path / "tok.cnit", train.tokens)
    write_tensor(tmp_path / "lab.cnit", train.labels)
    write_tensor(tmp_path / "bank.cnit", bank.embeddings)
    split = {"name": "rt", "tokens": "tok.cnit", "labels": "lab.cnit",
             "num_classes": 2, "dim": 4, "tokens_per_example": 2}
    write_json(tmp_path / "manifest.json", {
        "train": split, "test": split, "bank": {"embeddings": "bank.cnit"},
    })
    back, _, _ = load_experiment(tmp_path / "manifest.json")
    assert back.labels.tolist() == train.labels.tolist()
    np.testing.assert_array_equal(
        back.tokens, train.tokens.astype(np.float32).astype(np.float64))


# --- synthetic generator -----------------------------------------------------

def test_synthetic_shapes_layout_and_unit_norms():
    train, test, bank = make_synthetic(SynthSpec(
        classes=4, dim=16, tokens=3, train_per_class=5, test_per_class=2,
        prompts=6, seed=0))
    assert train.tokens.shape == (20, 3, 16)
    assert test.tokens.shape == (8, 3, 16)
    assert bank.embeddings.shape == (6, 4, 16)
    # class-major layout
    assert train.labels.tolist() == sorted(train.labels.tolist())
    np.testing.assert_allclose(
        np.linalg.norm(train.tokens, axis=2), 1.0, atol=1e-12)
    np.testing.assert_allclose(
        np.linalg.norm(bank.embeddings, axis=2), 1.0, atol=1e-12)
    assert bank.class_names == [f"class_{c:02d}" for c in range(4)]
    assert len(bank.prompt_templates) == 6


def test_synthetic_deterministic():
    spec = SynthSpec(classes=3, dim=8, tokens=2, train_per_class=4,
                     test_per_class=4, prompts=2, img_noise=0.3, txt_noise=0.1,
                     seed=5)
    a = make_synthetic(spec)
    b = make_synthetic(spec)
    for x, y in zip(a, b):
        arr_x = x.tokens if hasattr(x, "tokens") else x.embeddings
        arr_y = y.tokens if hasattr(y, "tokens") else y.embeddings
        assert arr_x.tobytes() == arr_y.tobytes()
    c = make_synthetic(replace(spec, seed=6))
    assert a[0].tokens.tobytes() != c[0].tokens.tobytes()


def test_zero_noise_collapses_to_prototypes():
    train, test, bank = make_synthetic(SynthSpec(
        classes=3, dim=8, tokens=2, train_per_class=2, test_per_class=2,
        prompts=4, img_noise=0.0, txt_noise=0.0, seed=2))
    # every text embedding equals the class prototype exactly
    for n in range(4):
        np.testing.assert_array_equal(bank.embeddings[n], bank.embeddings[0])
    protos = bank.embeddings[0]  # (C, D)
    for i in range(train.num_examples):
        c = train.labels[i]
        for t in range(2):
            np.testing.assert_array_equal(train.tokens[i, t], protos[c])


def test_tokens_cluster_around_own_prototype():
    # per-coordinate noise grows with sqrt(D), so raw own-class cosine sits
    # well below 1; the class signal is own >> other and a clean argmax
    for seed in (1, 2, 3, 4, 5):
        train, _, bank = make_synthetic(SynthSpec(
            classes=3, dim=16, tokens=2, train_per_class=10, test_per_class=2,
            prompts=1, img_noise=0.3, txt_noise=0.0, seed=seed))
        protos = bank.embeddings[0]  # txt_noise=0 -> exact prototypes
        means = train.tokens.mean(axis=1)
        means /= np.linalg.norm(means, axis=1, keepdims=True)
        cos = means @ protos.T
        own = cos[np.arange(len(means)), train.labels]
        other = (cos.sum(axis=1) - own) / (train.num_classes - 1)
        assert own.mean() > other.mean() + 0.5
        assert (cos.argmax(axis=1) == train.labels).mean() >= 0.9


def test_synthetic_validation():
    with pytest.raises(ConfigError):
        SynthSpec(classes=1)
    for noise in ("img_noise", "txt_noise"):
        for bad in (-0.1, float("nan"), float("inf")):
            with pytest.raises(ConfigError):
                SynthSpec(**{noise: bad})
    with pytest.raises(ConfigError):
        SynthSpec(tokens=0)


# sha256 of make_benchmark(seed): train tokens and labels, test tokens and
# labels, then the bank, each little-endian
PINNED_BENCHMARK_SHA256 = {
    1: "f7154c6bbefcc4afbfdfcdf63acb4d0156708669750ac9ea165e54dccabbf7f8",
    2: "8c0ab2a407c62e8ea40bb269f8236cebd423e8068a7be5457d7938a496143729",
    3: "bfd0a64f2931f4a5cd713991467e9bac68d71705d7b39d659ec68399a64a49d1",
    4: "d07098a6b31c16e4fe1e8ad5071e2f8e70a9fc61a72db6bea4b6027bdc5aa636",
    5: "eb4a53e3aa1014b1a6ba35d0a03a43dbc5d2eafccf75969c851cecaca2a3ec56",
}


@pytest.mark.parametrize("seed", sorted(PINNED_BENCHMARK_SHA256))
def test_make_benchmark_bytes_are_pinned(seed):
    train, test, bank = make_benchmark(seed)
    h = hashlib.sha256()
    for a in (train.tokens, train.labels, test.tokens, test.labels,
              bank.embeddings):
        h.update(a.astype(a.dtype.newbyteorder("<")).tobytes())
    assert h.hexdigest() == PINNED_BENCHMARK_SHA256[seed]
