"""Mini-batch training loop with freezing policies and metric history.

One engine drives both plain fine-tuning and distillation: a step
draws a labeled batch (and, when an unlabeled pool is present, an
unlabeled batch), combines the gradients, and applies one Adafactor
update. Shuffling uses a dedicated substream of the run seed so that
turning distillation on or off never perturbs labeled batch order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .dataset import EmbeddingDataset, ShotSpec, sample_k_shot
from .errors import CniProbeError, ConfigError, NumericalError
from .evaluate import top1
from .headinit import HeadInitSpec, TextEmbeddingBank, average_text_embeddings, init_head
from .model import (
    LossConfig,
    ModelParams,
    backward,
    forward_from,
    init_params,
    loss_total,
    prefix,
    smoothed_targets,
    teacher_targets,
    trainable_names,
)
from .optim import AdafactorState, adafactor_step, cosine_lr
from .rng import Stream, substream_seed

_SHUFFLE_STREAM = 0  # labeled batch order
_UNLABELED_STREAM = 1  # unlabeled batch order during distillation


@dataclass
class TrainConfig:
    """Run settings, each checked here and none defaulted here (a
    ``RunSpec`` holds the defaults); ``shots`` per class are sampled at
    ``seed``, and ``shots=None`` trains on the whole split."""

    epochs: int
    batch_size: int
    base_lr: float
    loss: LossConfig
    policy: str
    seed: int
    eval_every: int
    shots: int | None

    def __post_init__(self):
        if self.epochs < 0:
            raise ConfigError("epochs must be >= 0")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.eval_every < 1:
            raise ConfigError("eval_every must be >= 1")
        if not self.base_lr > 0:
            raise ConfigError("base_lr must be positive")
        if self.shots is not None and self.shots < 1:
            raise ConfigError("shots must be >= 1")
        trainable_names(self.policy)  # validates the policy name


@dataclass
class MetricRecord:
    epoch: int
    step: int
    lr: float
    loss_ce: float
    loss_anchor: float
    loss_distill: float
    test_top1: float


CSV_COLUMNS = tuple(f.name for f in fields(MetricRecord))


@dataclass
class MetricHistory:
    records: list[MetricRecord] = field(default_factory=list)

    def append(self, rec: MetricRecord):
        if self.records and rec.epoch <= self.records[-1].epoch:
            raise ValueError("history epochs must be strictly increasing")
        self.records.append(rec)

    @property
    def final(self) -> MetricRecord:
        return self.records[-1]

    def to_csv(self) -> str:
        lines = [CSV_COLUMNS] + [[repr(getattr(r, c)) for c in CSV_COLUMNS]
                                 for r in self.records]
        return "".join(",".join(line) + "\n" for line in lines)


def _pool_batches(m: int, batch_size: int, seed: int):
    """Batches of indices into an m-example unlabeled pool, drawn in turn
    from the pool's permutations, each drawn when the last runs dry."""
    stream = Stream(substream_seed(seed, _UNLABELED_STREAM))
    size, order = min(batch_size, m), []
    while True:
        if len(order) < size:
            order += stream.permutation(m)
        yield np.asarray(order[:size], dtype=np.int64)
        del order[:size]


def train(params0: ModelParams, train_ds: EmbeddingDataset,
          test_ds: EmbeddingDataset, cfg: TrainConfig,
          pool: tuple[np.ndarray, np.ndarray] | None = None
          ) -> tuple[ModelParams, MetricHistory]:
    """Fine-tune under cfg.policy; frozen groups come back bit-identical.

    When ``cfg.shots`` is set the labeled set is sampled from
    ``train_ds`` first; the anchor reference is the pre-training value
    of the trainable parameters. ``pool``, for distillation, is the
    unlabeled tokens and the teacher's probabilities over them.
    """
    if cfg.shots is not None:
        shots = ShotSpec(k=cfg.shots, seed=cfg.seed)
        train_ds = train_ds.subset(sample_k_shot(train_ds, shots))
    n = train_ds.num_examples
    schedule = (max(1, cfg.epochs * math.ceil(n / cfg.batch_size)), cfg.base_lr)
    params = params0.copy()
    policy, loss_cfg = cfg.policy, cfg.loss
    state = AdafactorState()  # backward writes grads where the step reads them
    grads = state.gradients(params, trainable_names(policy))
    anchor = {name: params0.group(name).copy() for name in grads}

    # The groups the policy freezes never change, so each set's prefix
    # rows, its smoothed targets and the teacher rows are built once.
    num_classes = params0.num_classes
    rows = prefix(params0, train_ds.tokens, policy)
    targets = smoothed_targets(train_ds.labels, num_classes, loss_cfg.label_smoothing)
    test_rows = prefix(params0, test_ds.tokens, policy)
    if pool is not None:
        pool_rows = prefix(params0, pool[0], policy)
        pool_teacher = teacher_targets(pool[1], num_classes,
                                       loss_cfg.distill_temperature)
        pool_batches = _pool_batches(len(pool_rows), cfg.batch_size, cfg.seed)
        pool_grads = {name: np.empty_like(g) for name, g in grads.items()}

    def evaluate(epoch: int, step: int, lr: float) -> MetricRecord:
        """The history row; non-finite parameters or losses raise."""
        cache = forward_from(params, rows, policy)
        _, parts = loss_total(cache, targets, params, anchor, loss_cfg)
        if pool is not None:
            _, pool_parts = loss_total(forward_from(params, pool_rows, policy),
                                       None, params, None, loss_cfg, pool_teacher)
            parts["distill"] = pool_parts["distill"]
        if not (all(map(math.isfinite, parts.values()))
                and np.isfinite(params.flat).all()):
            raise NumericalError(f"training diverged by epoch {epoch}: "
                                 "non-finite loss or parameters")
        return MetricRecord(
            epoch=epoch, step=step, lr=lr, loss_ce=parts["ce"],
            loss_anchor=parts["anchor"], loss_distill=parts["distill"],
            test_top1=top1(params, test_ds, test_rows, policy).top1,
        )

    history = MetricHistory()
    shuffle = Stream(substream_seed(cfg.seed, _SHUFFLE_STREAM))
    step = 0
    # A diverging run overflows on its way to the NumericalError that
    # evaluate raises, which is its only report.
    with np.errstate(over="ignore", invalid="ignore"):
        history.append(evaluate(0, 0, cosine_lr(0, *schedule)))
        for epoch, order in enumerate(shuffle.permutations(n, cfg.epochs), 1):
            epoch_rows, epoch_targets = rows[order], targets[order]
            for lo in range(0, n, cfg.batch_size):
                batch = slice(lo, lo + cfg.batch_size)
                step += 1
                lr = cosine_lr(step, *schedule)
                backward(params, epoch_rows[batch], epoch_targets[batch],
                         anchor, loss_cfg, policy, out=grads)
                if pool is not None:
                    idx = next(pool_batches)
                    backward(params, pool_rows[idx], None, None, loss_cfg,
                             policy, teacher=pool_teacher[idx], out=pool_grads)
                    for name in grads:
                        grads[name] += pool_grads[name]
                adafactor_step(state, params, grads, lr)
            if epoch % cfg.eval_every == 0 or epoch == cfg.epochs:
                history.append(evaluate(epoch, step, lr))
    return params, history


@dataclass
class SweepEntry:
    label: str
    init: HeadInitSpec
    cfg: TrainConfig


@dataclass
class SweepRow:
    label: str
    final_top1: float | None
    error: str | None = None


def _sweep_one(bank: TextEmbeddingBank, train_ds: EmbeddingDataset,
               test_ds: EmbeddingDataset, entry: SweepEntry) -> SweepRow:
    try:
        W = init_head(entry.init, average_text_embeddings(bank),
                      bank.num_classes, bank.dim)
        _, history = train(init_params(W), train_ds, test_ds, entry.cfg)
        return SweepRow(label=entry.label, final_top1=history.final.test_top1)
    except CniProbeError as exc:
        return SweepRow(label=entry.label, final_top1=None,
                        error=f"{type(exc).__name__}: {exc}")


def sweep(bank: TextEmbeddingBank, train_ds: EmbeddingDataset,
          test_ds: EmbeddingDataset,
          entries: list[SweepEntry]) -> list[SweepRow]:
    """Run each entry in input order; an entry that fails with a package
    error (``CniProbeError``) becomes an error row, any other propagates.

    Entries run serially: each run is Python-bound and holds the
    interpreter lock, so a thread pool would gain nothing.
    """
    if not entries:
        raise ConfigError("sweep needs at least one entry")
    return [_sweep_one(bank, train_ds, test_ds, e) for e in entries]
