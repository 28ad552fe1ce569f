"""Bit-exact tensor persistence and JSON dataset manifests.

File layout of the ``CNIT`` tensor format, all little-endian:

    bytes 0..3   magic ``b"CNIT"``
    byte  4      version, 0x01
    byte  5      dtype, 0x01 = IEEE-754 float32
    byte  6      ndim
    next 8*ndim  dims as uint64
    rest         float32 payload, row-major

Total file size is exactly ``7 + 8*ndim + 4*numel`` bytes.

Manifests are JSON documents describing one embedding dataset; relative
paths inside a manifest are resolved against the manifest's directory so
experiment folders stay relocatable.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (
    BadMagic,
    BadVersion,
    LabelOutOfRange,
    LengthMismatch,
    NonFiniteValue,
    ParseError,
    ShapeMismatch,
    UnsupportedDtype,
    WriteError,
)

MAGIC = b"CNIT"
VERSION = 0x01
DTYPE_F32 = 0x01


def write_tensor(path: str | Path, t: np.ndarray) -> None:
    """Write an array to ``path`` in the CNIT format (cast to float32)."""
    arr = np.ascontiguousarray(t, dtype=np.float32)
    header = MAGIC + struct.pack("<BBB", VERSION, DTYPE_F32, arr.ndim)
    dims = struct.pack(f"<{arr.ndim}Q", *arr.shape)
    try:
        with open(path, "wb") as f:
            f.write(header)
            f.write(dims)
            f.write(arr.tobytes(order="C"))
    except OSError as exc:
        raise WriteError(f"cannot write tensor to {path}: {exc}") from exc


def read_tensor(path: str | Path, allow_nonfinite: bool = False) -> np.ndarray:
    """Read a CNIT file back into a float32 array.

    Validates magic, version, dtype and payload length; rejects NaN/Inf
    unless ``allow_nonfinite`` is set.
    """
    try:
        with open(path, "rb") as f:
            blob = f.read()
    except OSError as exc:
        raise LengthMismatch(f"cannot read tensor from {path}: {exc}") from exc

    if len(blob) < 7:
        raise LengthMismatch(f"{path}: file shorter than the 7-byte header")
    if blob[:4] != MAGIC:
        raise BadMagic(f"{path}: magic {blob[:4]!r} != {MAGIC!r}")
    version, dtype, ndim = blob[4], blob[5], blob[6]
    if version != VERSION:
        raise BadVersion(f"{path}: version {version} unsupported")
    if dtype != DTYPE_F32:
        raise UnsupportedDtype(f"{path}: dtype byte {dtype} unsupported")

    dims_end = 7 + 8 * ndim
    if len(blob) < dims_end:
        raise LengthMismatch(f"{path}: truncated dimension block")
    shape = struct.unpack(f"<{ndim}Q", blob[7:dims_end])
    numel = 1
    for d in shape:
        numel *= d
    expected = dims_end + 4 * numel
    if len(blob) != expected:
        raise LengthMismatch(
            f"{path}: expected {expected} bytes for shape {shape}, got {len(blob)}"
        )
    data = np.frombuffer(blob[dims_end:], dtype="<f4").reshape(shape)
    if not allow_nonfinite and not np.all(np.isfinite(data)):
        raise NonFiniteValue(f"{path}: tensor contains NaN or Inf")
    return data.copy()


@dataclass
class DatasetManifest:
    """Validated description of one embedding dataset on disk."""

    name: str
    tokens_path: Path
    labels_path: Path
    num_classes: int
    dim: int
    tokens_per_example: int
    num_examples: int
    class_names: list[str] = field(default_factory=list)


_REQUIRED_FIELDS = ("name", "tokens", "labels", "num_classes", "dim", "tokens_per_example")


def read_dataset(doc: dict, base_dir: Path) -> tuple[DatasetManifest, np.ndarray, np.ndarray]:
    """Validate a manifest dictionary against its tensors.

    Returns the manifest with the token and label tensors it was
    checked against, so callers need not read them a second time.
    """
    if not isinstance(doc, dict):
        raise ParseError("dataset manifest must be a JSON object")
    for key in _REQUIRED_FIELDS:
        if key not in doc:
            raise ParseError(f"dataset manifest missing field {key!r}")

    num_classes = int(doc["num_classes"])
    dim = int(doc["dim"])
    tokens_per_example = int(doc["tokens_per_example"])
    if num_classes < 1 or dim < 1 or tokens_per_example < 1:
        raise ParseError("num_classes, dim and tokens_per_example must be >= 1")

    tokens_path = (base_dir / str(doc["tokens"])).resolve()
    labels_path = (base_dir / str(doc["labels"])).resolve()

    tokens = read_tensor(tokens_path)
    if tokens.ndim != 3:
        raise ShapeMismatch(f"{tokens_path}: token tensor must be rank 3")
    m, t, d = tokens.shape
    if t != tokens_per_example or d != dim:
        raise ShapeMismatch(
            f"{tokens_path}: shape {tokens.shape} disagrees with manifest "
            f"(T={tokens_per_example}, D={dim})"
        )

    labels = read_tensor(labels_path)
    if labels.ndim != 1 or labels.shape[0] != m:
        raise ShapeMismatch(
            f"{labels_path}: labels shape {labels.shape} disagrees with M={m}"
        )
    if np.any(labels != np.round(labels)):
        raise LabelOutOfRange(f"{labels_path}: labels must be integral")
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise LabelOutOfRange(
            f"{labels_path}: labels must lie in [0, {num_classes})"
        )

    class_names = [str(s) for s in doc.get("class_names", [])]
    if class_names and len(class_names) != num_classes:
        raise ParseError("class_names must be empty or have num_classes entries")

    manifest = DatasetManifest(
        name=str(doc["name"]),
        tokens_path=tokens_path,
        labels_path=labels_path,
        num_classes=num_classes,
        dim=dim,
        tokens_per_example=tokens_per_example,
        num_examples=m,
        class_names=class_names,
    )
    return manifest, tokens, labels


def parse_dataset_manifest(doc: dict, base_dir: Path) -> DatasetManifest:
    """Validate a manifest dictionary; reads both tensors to cross-check."""
    return read_dataset(doc, base_dir)[0]


def load_manifest(path: str | Path) -> DatasetManifest:
    """Load and eagerly validate a standalone dataset manifest JSON file."""
    path = Path(path)
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except OSError as exc:
        raise ParseError(f"cannot read manifest {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON: {exc}") from exc
    return parse_dataset_manifest(doc, path.parent)


def write_json(path: str | Path, doc: dict) -> None:
    """Deterministic JSON dump (sorted keys, trailing newline)."""
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")
