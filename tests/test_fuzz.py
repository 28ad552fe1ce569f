"""Fuzzed input files end in an exit code, never a traceback.

Each case edits one input of a small experiment that ``synth`` wrote: a
manifest field, or the rank and shape of one CNIT file that the
manifest or a params directory points to. It then runs ``eval``,
which must return 0, 2, 3 or 4. Sweep-config entries go through
``cli._sweep_entries``, which may raise only the package's errors (the
ones ``main`` turns into those codes). Nothing here trains, so a fuzzed
epoch count cannot run long.
"""

import json
import shutil
import struct
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from cniprobe import cli
from cniprobe.errors import CniProbeError
from cniprobe.tensorio import DTYPE_F32, MAGIC, VERSION, read_tensor

FUZZ = settings(max_examples=20, deadline=None, derandomize=True,
                suppress_health_check=[HealthCheck.too_slow])

JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6)

# The CNIT files an experiment and its params directories point to, with
# the shapes that the ``base`` fixture writes (C=3, D=4, T=2, M=6, N=2).
SHAPES = {
    "data/train_tokens.cnit": (6, 2, 4), "data/train_labels.cnit": (6,),
    "data/test_tokens.cnit": (6, 2, 4), "data/test_labels.cnit": (6,),
    "data/bank.cnit": (2, 3, 4),
    "run/params_A.cnit": (4, 4), "run/params_a.cnit": (4,),
    "run/params_q.cnit": (4,), "run/params_W.cnit": (3, 4),
    "run/params_b.cnit": (3,),
    "head/params_A.cnit": (4, 4), "head/params_a.cnit": (4,),
    "head/params_q.cnit": (4,), "head/params_W.cnit": (3, 4),
    "head/params_b.cnit": (3,),
}


@pytest.fixture(scope="module")
def base(tmp_path_factory):
    """An experiment, an untrained ``train`` run and a saved head."""
    root = tmp_path_factory.mktemp("fuzz")
    manifest = str(root / "data" / "manifest.json")
    with redirect_stdout(StringIO()):
        assert cli.main(["synth", "--out", str(root / "data"), "--classes",
                         "3", "--dim", "4", "--tokens", "2",
                         "--train-per-class", "2", "--test-per-class", "2",
                         "--prompts", "2"]) == 0
        assert cli.main(["train", "--manifest", manifest, "--epochs", "0",
                         "--out", str(root / "run")]) == 0
        assert cli.main(["init-head", "--manifest", manifest,
                         "--out", str(root / "head")]) == 0
    assert {n: read_tensor(root / n).shape for n in SHAPES} == SHAPES
    return root


def _eval_codes(base: Path, edit, *sources: str | None) -> set[int]:
    """``edit`` a copy of `base`, then the exit codes of ``eval`` of each
    source: a params directory of `base`, or None for zero-shot."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "x"
        shutil.copytree(base, root)
        edit(root)
        codes = set()
        with redirect_stdout(StringIO()), redirect_stderr(StringIO()):
            for i, src in enumerate(sources):
                mode = ["--zero-shot"] if src is None else [
                    "--params", str(root / src)]
                codes.add(cli.main(["eval", "--manifest",
                                    str(root / "data" / "manifest.json"),
                                    "--out", str(root / f"ev{i}")] + mode))
    return codes


@FUZZ
@given(section=st.sampled_from(("train", "test", "bank")),
       key=st.sampled_from(("tokens", "labels", "embeddings", "class_names",
                            "prompt_templates", "name", None)),  # the last 3 are unread
       value=JSON, drop=st.booleans())
@example(section="train", key="tokens", value="\x00", drop=False)
def test_fuzzed_manifest_field(base, section, key, value, drop):
    def edit(root):
        path = root / "data" / "manifest.json"
        doc = json.loads(path.read_text())
        if key is None:
            doc[section] = value
        elif drop:
            doc[section].pop(key, None)
        else:
            doc[section][key] = value
        path.write_text(json.dumps(doc))

    assert _eval_codes(base, edit, None, "run") <= {0, 2, 3, 4}


@st.composite
def _reshaped(draw):
    """A file of SHAPES and a new shape: one dim changed, dropped or added."""
    name = draw(st.sampled_from(sorted(SHAPES)))
    shape = list(SHAPES[name])
    dims = st.sampled_from((0, 1, 2, 3, 5))
    how = draw(st.sampled_from(("set", "drop", "add")))
    if how == "add":
        shape.insert(draw(st.integers(0, len(shape))), draw(dims))
    else:
        i = draw(st.integers(0, len(shape) - 1))
        if how == "drop":
            del shape[i]
        else:
            shape[i] = draw(dims)
    return name, tuple(shape)


@FUZZ
@given(case=_reshaped())
@example(case=("data/bank.cnit", (2, 3, 5)))  # D differs from the splits'
@example(case=("data/test_tokens.cnit", (6, 2, 5)))
@example(case=("run/params_A.cnit", ()))
@example(case=("run/params_W.cnit", ()))
@example(case=("head/params_W.cnit", (4,)))
@example(case=("head/params_W.cnit", ()))
def test_fuzzed_tensor_shape(base, case):
    name, shape = case

    def edit(root):
        # spelled out, as write_tensor stores a 0-d array as shape (1,)
        data = (np.arange(np.prod(shape)) % 3).astype("<f4")
        (root / name).write_bytes(
            MAGIC + bytes([VERSION, DTYPE_F32, len(shape)])
            + struct.pack(f"<{len(shape)}Q", *shape) + data.tobytes())

    where = name.split("/")[0]
    sources = (None, "run") if where == "data" else (where,)
    assert _eval_codes(base, edit, *sources) <= {0, 2, 3, 4}


@FUZZ
@given(entries=st.lists(
    st.fixed_dictionaries({"label": JSON}, optional={
        key: JSON for key in ("init", "fraction", "shots", "batch_size",
                              "policy", "epochs", "lr", "label_smoothing",
                              "anchor_lambda", "seed", "eval_every", "bogus")})
    | JSON, max_size=3) | JSON)
@example(entries=[{"label": "x", "lr": 10 ** 400}])  # too large for a float
def test_fuzzed_sweep_entries(entries):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "sweep.json"
        path.write_text(json.dumps({"entries": entries}))
        try:
            cli._sweep_entries(str(path))
        except CniProbeError:
            pass
