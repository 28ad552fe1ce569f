"""Mini-batch training loop with freezing policies and metric history.

One engine drives both plain fine-tuning and distillation: a step
draws a labeled batch (and, when a distillation context is present, an
unlabeled batch), combines the gradients, and applies one Adafactor
update. Shuffling uses a dedicated substream of the run seed so that
turning distillation on or off never perturbs labeled batch order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dataset import EmbeddingDataset, ShotSpec, sample_k_shot
from .errors import ConfigError
from .evaluate import top1
from .headinit import HeadInitSpec, TextEmbeddingBank, average_text_embeddings, init_head
from .model import (
    LossConfig,
    ModelParams,
    backward,
    forward,
    init_params,
    loss_total,
    trainable_names,
)
from .optim import AdafactorState, ScheduleConfig, adafactor_step, cosine_lr
from .rng import Stream, substream_seed

_SHUFFLE_STREAM = 0  # labeled batch order
_UNLABELED_STREAM = 1  # unlabeled batch order during distillation


@dataclass
class TrainConfig:
    """Run settings; the LR schedule's step count is derived from the data."""

    epochs: int = 200
    batch_size: int = 32
    base_lr: float = 1e-5
    warmup_steps: int = 0
    min_lr: float = 0.0
    loss: LossConfig = field(default_factory=LossConfig)
    policy: str = "PL"
    seed: int = 0
    eval_every: int = 10
    shot_spec: ShotSpec | None = None

    def __post_init__(self):
        if self.epochs < 0:
            raise ConfigError("epochs must be >= 0")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.eval_every < 1:
            raise ConfigError("eval_every must be >= 1")
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


CSV_COLUMNS = ("epoch", "step", "lr", "loss_ce", "loss_anchor",
               "loss_distill", "test_top1")


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
        lines = [",".join(CSV_COLUMNS)]
        for r in self.records:
            lines.append(
                f"{r.epoch},{r.step},{r.lr!r},{r.loss_ce!r},"
                f"{r.loss_anchor!r},{r.loss_distill!r},{r.test_top1!r}"
            )
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        return {"records": [vars(r).copy() for r in self.records]}


class _DistillContext:
    """Unlabeled-pool plumbing threaded through the training engine."""

    def __init__(self, tokens: np.ndarray, teacher_probs: np.ndarray,
                 seed: int, batch_size: int):
        self.tokens = tokens
        self.teacher_probs = teacher_probs
        self.batch_size = batch_size
        self._stream = Stream(substream_seed(seed, _UNLABELED_STREAM))
        self._order: list[int] = []

    def next_batch(self) -> np.ndarray:
        """Next batch of pool indices; reshuffles when the pool runs dry."""
        take = min(self.batch_size, self.tokens.shape[0])
        batch = []
        while len(batch) < take:
            if not self._order:
                self._order = self._stream.permutation(self.tokens.shape[0])
            batch.append(self._order.pop(0))
        return np.asarray(batch, dtype=np.int64)

    def eval_loss(self, params: ModelParams, cfg: LossConfig) -> float:
        """Distillation term over the whole pool, as reported in history."""
        cache = forward(params, self.tokens)
        _, parts = loss_total(cache, None, params, None, cfg,
                              teacher_probs=self.teacher_probs)
        return parts["distill"]


def _evaluate(epoch: int, step: int, lr: float, params: ModelParams,
              data: EmbeddingDataset, test_ds: EmbeddingDataset,
              cfg: TrainConfig, anchor: dict[str, np.ndarray],
              ctx: _DistillContext | None) -> MetricRecord:
    cache = forward(params, data.tokens)
    _, parts = loss_total(cache, data.labels, params, anchor, cfg.loss)
    distill = ctx.eval_loss(params, cfg.loss) if ctx is not None else 0.0
    report = top1(params, test_ds)
    return MetricRecord(
        epoch=epoch, step=step, lr=lr, loss_ce=parts["ce"],
        loss_anchor=parts["anchor"], loss_distill=distill,
        test_top1=report.top1,
    )


def _run(params0: ModelParams, data: EmbeddingDataset,
         test_ds: EmbeddingDataset, cfg: TrainConfig,
         ctx: _DistillContext | None) -> tuple[ModelParams, MetricHistory]:
    params = params0.copy()
    anchor = {name: params0.group(name).copy()
              for name in trainable_names(cfg.policy)}

    n = data.num_examples
    steps_per_epoch = math.ceil(n / cfg.batch_size)
    total_steps = max(1, cfg.epochs * steps_per_epoch)
    sched = ScheduleConfig(base_lr=cfg.base_lr, total_steps=total_steps,
                           warmup_steps=cfg.warmup_steps, min_lr=cfg.min_lr)

    history = MetricHistory()
    history.append(_evaluate(0, 0, cosine_lr(0, sched), params, data,
                             test_ds, cfg, anchor, ctx))
    if cfg.epochs == 0:
        return params, history

    shuffle = Stream(substream_seed(cfg.seed, _SHUFFLE_STREAM))
    state = AdafactorState()
    trainable = params.trainable(cfg.policy)
    step = 0
    lr = 0.0
    for epoch in range(1, cfg.epochs + 1):
        order = shuffle.permutation(n)
        for lo in range(0, n, cfg.batch_size):
            batch = np.asarray(order[lo:lo + cfg.batch_size], dtype=np.int64)
            step += 1
            lr = cosine_lr(step, sched)
            grads = backward(params, data.tokens[batch], data.labels[batch],
                             anchor, cfg.loss, cfg.policy)
            if ctx is not None:
                pool = ctx.next_batch()
                extra = backward(params, ctx.tokens[pool], None, None,
                                 cfg.loss, cfg.policy,
                                 teacher_probs=ctx.teacher_probs[pool])
                for name in grads:
                    grads[name] = grads[name] + extra[name]
            adafactor_step(state, trainable, grads, lr)
        if epoch % cfg.eval_every == 0 or epoch == cfg.epochs:
            history.append(_evaluate(epoch, step, lr, params, data,
                                     test_ds, cfg, anchor, ctx))
    return params, history


def train(params0: ModelParams, train_ds: EmbeddingDataset,
          test_ds: EmbeddingDataset,
          cfg: TrainConfig) -> tuple[ModelParams, MetricHistory]:
    """Fine-tune under cfg.policy; frozen groups come back bit-identical.

    When ``cfg.shot_spec`` is set the labeled set is sampled from
    ``train_ds`` first; the anchor reference is the pre-training value
    of the trainable parameters.
    """
    data = train_ds
    if cfg.shot_spec is not None:
        data = train_ds.subset(sample_k_shot(train_ds, cfg.shot_spec))
    return _run(params0, data, test_ds, cfg, ctx=None)


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
        avg = average_text_embeddings(bank)
        head = init_head(entry.init, avg, bank.num_classes, bank.dim)
        params0 = init_params(head)
        _, history = train(params0, train_ds, test_ds, entry.cfg)
        return SweepRow(label=entry.label, final_top1=history.final.test_top1)
    except Exception as exc:  # noqa: BLE001 - reported per row
        return SweepRow(label=entry.label, final_top1=None,
                        error=f"{type(exc).__name__}: {exc}")


def sweep(bank: TextEmbeddingBank, train_ds: EmbeddingDataset,
          test_ds: EmbeddingDataset,
          entries: list[SweepEntry]) -> list[SweepRow]:
    """Run each entry in input order; a failed entry becomes an error row.

    Entries run serially: each run is Python-bound and holds the
    interpreter lock, so a thread pool would gain nothing.
    """
    if not entries:
        raise ConfigError("sweep needs at least one entry")
    return [_sweep_one(bank, train_ds, test_ds, e) for e in entries]
