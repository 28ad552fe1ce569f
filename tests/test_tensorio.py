"""Tensor format roundtrips, header layout, fuzzing, JSON output."""

import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cniprobe.errors import DataError
from cniprobe.tensorio import read_tensor, write_json, write_tensor

@st.composite
def float32_arrays(draw):
    shape = tuple(draw(st.lists(st.integers(1, 6), min_size=1, max_size=4)))
    n = int(np.prod(shape))
    vals = draw(st.lists(
        st.floats(allow_nan=False, allow_infinity=False, width=32),
        min_size=n, max_size=n,
    ))
    return np.array(vals, dtype=np.float32).reshape(shape)


@given(float32_arrays())
@settings(max_examples=80)
def test_roundtrip_bit_exact(tmp_path_factory, arr):
    path = tmp_path_factory.mktemp("rt") / "t.cnit"
    write_tensor(path, arr)
    back = read_tensor(path)
    assert back.dtype == np.float32
    assert back.shape == arr.shape
    assert back.tobytes() == arr.tobytes()


def test_file_size_formula(tmp_path):
    # rank 0 never occurs: scalars are promoted to shape (1,) on write
    for shape in [(1,), (5,), (3, 4), (2, 3, 4), (1, 2, 3, 4)]:
        arr = np.zeros(shape, dtype=np.float32)
        path = tmp_path / "t.cnit"
        write_tensor(path, arr)
        assert path.stat().st_size == 7 + 8 * arr.ndim + 4 * arr.size


def test_header_layout(tmp_path):
    path = tmp_path / "t.cnit"
    write_tensor(path, np.arange(6, dtype=np.float32).reshape(2, 3))
    blob = path.read_bytes()
    assert blob[:4] == b"CNIT"
    assert blob[4] == 0x01  # version
    assert blob[5] == 0x01  # f32
    assert blob[6] == 2     # ndim
    assert struct.unpack("<2Q", blob[7:23]) == (2, 3)
    assert np.frombuffer(blob[23:], dtype="<f4").tolist() == [0, 1, 2, 3, 4, 5]


def test_written_payload_is_little_endian_and_row_major(tmp_path):
    arr = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float32)
    path = tmp_path / "t.cnit"
    write_tensor(path, np.asfortranarray(arr))
    assert read_tensor(path).tolist() == arr.tolist()


def test_read_returns_writable_copy(tmp_path):
    path = tmp_path / "t.cnit"
    write_tensor(path, np.zeros(3))
    back = read_tensor(path)
    back[0] = 1.0  # must not raise


def test_truncation_always_rejected(tmp_path):
    path = tmp_path / "t.cnit"
    write_tensor(path, np.arange(12, dtype=np.float32).reshape(3, 4))
    blob = path.read_bytes()
    bad = tmp_path / "bad.cnit"
    for cut in range(len(blob)):
        bad.write_bytes(blob[:cut])
        with pytest.raises(DataError, match=r"shorter than the 7-byte header"
                           r"|truncated dimension block|expected \d+ bytes"):
            read_tensor(bad)


def test_trailing_garbage_rejected(tmp_path):
    path = tmp_path / "t.cnit"
    write_tensor(path, np.zeros((2, 2), dtype=np.float32))
    path.write_bytes(path.read_bytes() + b"\x00\x00\x00\x00")
    with pytest.raises(DataError, match=r"expected 39 bytes .*, got 43"):
        read_tensor(path)


def test_bad_magic(tmp_path):
    path = tmp_path / "t.cnit"
    write_tensor(path, np.zeros(2))
    blob = bytearray(path.read_bytes())
    blob[:4] = b"JUNK"
    path.write_bytes(bytes(blob))
    with pytest.raises(DataError, match="magic b'JUNK' != b'CNIT'"):
        read_tensor(path)


def test_bad_version(tmp_path):
    path = tmp_path / "t.cnit"
    write_tensor(path, np.zeros(2))
    blob = bytearray(path.read_bytes())
    blob[4] = 0x02
    path.write_bytes(bytes(blob))
    with pytest.raises(DataError, match="version 2 unsupported"):
        read_tensor(path)


def test_bad_dtype(tmp_path):
    path = tmp_path / "t.cnit"
    write_tensor(path, np.zeros(2))
    blob = bytearray(path.read_bytes())
    blob[5] = 0x07
    path.write_bytes(bytes(blob))
    with pytest.raises(DataError, match="dtype byte 7 unsupported"):
        read_tensor(path)


@given(st.binary(max_size=64))
@settings(max_examples=100)
def test_random_bytes_never_crash(tmp_path_factory, blob):
    path = tmp_path_factory.mktemp("fuzz") / "t.cnit"
    path.write_bytes(blob)
    try:
        read_tensor(path)
    except DataError:
        pass  # the documented failure mode


def test_nonfinite_gate(tmp_path):
    path = tmp_path / "t.cnit"
    write_tensor(path, np.array([1.0, np.inf], dtype=np.float32))
    with pytest.raises(DataError, match="tensor contains NaN or Inf"):
        read_tensor(path)
    payload = np.frombuffer(path.read_bytes()[7 + 8:], dtype="<f4")
    assert payload[0] == 1.0 and np.isinf(payload[1])  # written as given


def test_missing_file_is_data_error(tmp_path):
    with pytest.raises(DataError, match="cannot read tensor from .*nope.cnit"):
        read_tensor(tmp_path / "nope.cnit")


def test_write_json_is_deterministic(tmp_path):
    doc = {"b": 1, "a": {"z": [1, 2], "y": None}}
    write_json(tmp_path / "x.json", doc)
    write_json(tmp_path / "y.json", doc)
    x = (tmp_path / "x.json").read_bytes()
    assert x == (tmp_path / "y.json").read_bytes()
    assert x.endswith(b"\n")
    assert json.loads(x) == doc
    assert x.index(b'"a"') < x.index(b'"b"')


def test_unwritable_path_is_data_error(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_bytes(b"keep")
    with pytest.raises(DataError, match="cannot write tensor to"):
        write_tensor(blocker / "x.cnit", np.zeros(2))
    with pytest.raises(DataError, match="cannot write JSON to"):
        write_json(blocker / "x.json", {})
    assert blocker.read_bytes() == b"keep"
