"""Bit-exact tensor persistence and deterministic JSON output.

File layout of the ``CNIT`` tensor format, all little-endian:

    bytes 0..3   magic ``b"CNIT"``
    byte  4      version, 0x01
    byte  5      dtype, 0x01 = IEEE-754 float32
    byte  6      ndim
    next 8*ndim  dims as uint64
    rest         float32 payload, row-major

Total file size is exactly ``7 + 8*ndim + 4*numel`` bytes.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

from .errors import DataError

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
        raise DataError(f"cannot write tensor to {path}: {exc}") from exc


def read_tensor(path: str | Path) -> np.ndarray:
    """Read a CNIT file back into a float32 array.

    Validates magic, version, dtype and payload length; rejects NaN/Inf.
    """
    try:
        with open(path, "rb") as f:
            blob = f.read()
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the path
        raise DataError(f"cannot read tensor from {path}: {exc}") from exc

    if len(blob) < 7:
        raise DataError(f"{path}: file shorter than the 7-byte header")
    if blob[:4] != MAGIC:
        raise DataError(f"{path}: magic {blob[:4]!r} != {MAGIC!r}")
    version, dtype, ndim = blob[4], blob[5], blob[6]
    if version != VERSION:
        raise DataError(f"{path}: version {version} unsupported")
    if dtype != DTYPE_F32:
        raise DataError(f"{path}: dtype byte {dtype} unsupported")

    dims_end = 7 + 8 * ndim
    if len(blob) < dims_end:
        raise DataError(f"{path}: truncated dimension block")
    shape = struct.unpack(f"<{ndim}Q", blob[7:dims_end])
    numel = 1
    for d in shape:
        numel *= d
    expected = dims_end + 4 * numel
    if len(blob) != expected:
        raise DataError(f"{path}: expected {expected} bytes for shape {shape}, "
                        f"got {len(blob)}")
    data = np.frombuffer(blob[dims_end:], dtype="<f4").reshape(shape)
    if not np.all(np.isfinite(data)):
        raise DataError(f"{path}: tensor contains NaN or Inf")
    return data.copy()


def write_json(path: str | Path, doc: dict) -> None:
    """Deterministic JSON dump (sorted keys, trailing newline)."""
    try:
        with open(path, "w", encoding="utf-8") as f:
            json.dump(doc, f, indent=2, sort_keys=True)
            f.write("\n")
    except OSError as exc:
        raise DataError(f"cannot write JSON to {path}: {exc}") from exc
