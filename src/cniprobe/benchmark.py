"""The repo-pinned synthetic benchmark and its default run settings.

Every directional claim in the test suite is measured on this
configuration: 10 classes in a 32-dimensional embedding space, 4
tokens per image, image noise 0.35, text noise 0.15, 8 prompts, 50
train and 50 test examples per class, over five fixed seeds.

At this scale the text rows (prompt-averaged, cosine ~0.96 to the
true prototypes) carry more signal than a one-shot estimate (~0.71),
so the text-initialized head is already at the ceiling: untrained it
scores 0.9976 top-1 over the five seeds, against 0.9992 for the
true-prototype head, and no run fine-tuned from it (PL at 1 to 50
shots, L and ALL at five) reaches that zero-shot figure. Effects that need the labeled data
to outweigh the initialization show on the partial and random heads.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .dataset import EmbeddingDataset, ShotSpec, make_synthetic
from .headinit import MODE_CNI, MODE_PARTIAL, MODE_RANDOM, HeadInitSpec, TextEmbeddingBank
from .model import LossConfig
from .train import TrainConfig

BENCH_CLASSES = 10
BENCH_DIM = 32
BENCH_TOKENS = 4
BENCH_IMG_NOISE = 0.35
BENCH_TXT_NOISE = 0.15
BENCH_PROMPTS = 8
BENCH_TRAIN_PER_CLASS = 50
BENCH_TEST_PER_CLASS = 50

BENCHMARK_SEEDS = (1, 2, 3, 4, 5)

# Default initial learning rates, keeping the 1:5 text-init : random
# ratio; magnitudes are re-derived for this benchmark's size (a
# one-shot run sees ~200 optimizer steps, so clipped Adafactor updates
# of RMS <= lr need lr ~ 1e-3 to move a unit-norm row meaningfully).
CNI_LR = 1e-3
RANDOM_LR = 5e-3

BENCH_EPOCHS = 200
BENCH_BATCH = 32

# Distillation-study defaults: unit weight, mildly softened targets.
DISTILL_WEIGHT = 1.0
DISTILL_TEMPERATURE = 2.0

_MODE_LR = {MODE_CNI: CNI_LR, MODE_RANDOM: RANDOM_LR, MODE_PARTIAL: CNI_LR}


def make_benchmark(seed: int) -> tuple[EmbeddingDataset, EmbeddingDataset, TextEmbeddingBank]:
    """Train split, test split, and text bank for one benchmark seed."""
    return make_synthetic(
        num_classes=BENCH_CLASSES,
        dim=BENCH_DIM,
        tokens_per_example=BENCH_TOKENS,
        train_per_class=BENCH_TRAIN_PER_CLASS,
        test_per_class=BENCH_TEST_PER_CLASS,
        num_prompts=BENCH_PROMPTS,
        img_noise=BENCH_IMG_NOISE,
        txt_noise=BENCH_TXT_NOISE,
        seed=seed,
    )


def default_lr(init_mode: str) -> float:
    """Benchmark default initial LR for a head-initialization mode."""
    return _MODE_LR.get(init_mode, CNI_LR)


@dataclass
class RunSpec:
    """One training run as flat settings, defaulting to the benchmark's.

    The ``train`` flags, its config-file keys, sweep entries and the
    echoed ``config.json`` all have exactly these fields. ``lr=None``
    means the init mode's default; ``shots`` and ``train_fraction``
    are exclusive, and both None trains on the whole split.
    """

    init: str = MODE_CNI
    fraction: float | None = None
    init_seed: int = 0
    shots: int | None = None
    train_fraction: float | None = None
    policy: str = "PL"
    epochs: int = BENCH_EPOCHS
    batch_size: int = BENCH_BATCH
    lr: float | None = None
    warmup_steps: int = 0
    min_lr: float = 0.0
    label_smoothing: float = 0.1
    anchor_lambda: float = 0.0
    seed: int = 0
    eval_every: int = 10

    def head_spec(self) -> HeadInitSpec:
        fraction = self.fraction if self.init == MODE_PARTIAL else None
        return HeadInitSpec(mode=self.init, fraction=fraction, seed=self.init_seed)

    def train_config(self) -> TrainConfig:
        shot_spec = None
        if self.shots is not None or self.train_fraction is not None:
            shot_spec = ShotSpec(k=self.shots, fraction=self.train_fraction,
                                 seed=self.seed)
        return TrainConfig(
            epochs=self.epochs, batch_size=self.batch_size,
            base_lr=default_lr(self.init) if self.lr is None else self.lr,
            warmup_steps=self.warmup_steps, min_lr=self.min_lr,
            loss=LossConfig(label_smoothing=self.label_smoothing,
                            anchor_lambda=self.anchor_lambda),
            policy=self.policy, seed=self.seed, eval_every=self.eval_every,
            shot_spec=shot_spec,
        )


@dataclass
class DistillSpec(RunSpec):
    """A student run: the policy is always ALL, plus the KL term's settings."""

    distill_weight: float = DISTILL_WEIGHT
    temperature: float = DISTILL_TEMPERATURE

    def train_config(self) -> TrainConfig:
        cfg = super().train_config()
        return replace(cfg, policy="ALL", loss=replace(
            cfg.loss, distill_weight=self.distill_weight,
            distill_temperature=self.temperature))


def default_train_config(init_mode: str, seed: int, shots: int | None = None,
                         **overrides) -> TrainConfig:
    """Benchmark TrainConfig for an init mode, seed, and shot count.

    Keyword overrides replace individual TrainConfig fields (e.g.
    policy="ALL", loss=LossConfig(anchor_lambda=0.1)).
    """
    cfg = RunSpec(init=init_mode, seed=seed, shots=shots).train_config()
    return replace(cfg, **overrides)
