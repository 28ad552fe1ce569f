"""Few-shot adaptation of frozen embedding models with text-initialized heads."""

from .benchmark import BENCHMARK_SEEDS, default_lr, make_benchmark
from .dataset import EmbeddingDataset, ShotSpec, SynthSpec, make_synthetic, sample_k_shot
from .distill import distill_train, teacher_predict
from .errors import CniProbeError, ConfigError, DataError, NumericalError
from .evaluate import EvalReport, top1, zero_shot
from .headinit import (
    Head,
    HeadInitSpec,
    MODE_CNI,
    MODE_PARTIAL,
    MODE_RANDOM,
    TextEmbeddingBank,
    average_text_embeddings,
    init_head,
)
from .model import LossConfig, ModelParams, backward, forward, init_params, loss_total
from .optim import AdafactorConfig, AdafactorState, ScheduleConfig, adafactor_step, cosine_lr
from .rng import Stream, substream_seed
from .tensorio import read_tensor, write_tensor
from .train import MetricHistory, SweepEntry, SweepRow, TrainConfig, sweep, train

__version__ = "0.1.0"

__all__ = [
    "AdafactorConfig",
    "AdafactorState",
    "BENCHMARK_SEEDS",
    "CniProbeError",
    "ConfigError",
    "DataError",
    "EmbeddingDataset",
    "EvalReport",
    "Head",
    "HeadInitSpec",
    "LossConfig",
    "MetricHistory",
    "MODE_CNI",
    "MODE_PARTIAL",
    "MODE_RANDOM",
    "ModelParams",
    "NumericalError",
    "ScheduleConfig",
    "ShotSpec",
    "Stream",
    "SweepEntry",
    "SweepRow",
    "SynthSpec",
    "TextEmbeddingBank",
    "TrainConfig",
    "adafactor_step",
    "average_text_embeddings",
    "backward",
    "cosine_lr",
    "default_lr",
    "distill_train",
    "forward",
    "init_head",
    "init_params",
    "loss_total",
    "make_benchmark",
    "make_synthetic",
    "read_tensor",
    "sample_k_shot",
    "substream_seed",
    "sweep",
    "teacher_predict",
    "top1",
    "train",
    "write_tensor",
    "zero_shot",
]
