"""The package namespace: its submodules and what ``import cniprobe`` loads."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import cniprobe

LIBRARY = ["benchmark", "dataset", "distill", "errors", "evaluate", "headinit",
           "model", "optim", "rng", "tensorio", "train"]  # every module but cli


def test_submodules_are_not_shadowed():
    for info in pkgutil.iter_modules(cniprobe.__path__):
        module = importlib.import_module(f"cniprobe.{info.name}")
        assert getattr(cniprobe, info.name) is module, info.name


def test_import_loads_the_library_but_not_the_cli():
    # ``import cniprobe`` in a fresh interpreter is what bench/run.py times
    env = dict(os.environ, PYTHONPATH=str(Path(cniprobe.__file__).parents[1]))
    probe = ("import sys, cniprobe; print(' '.join(sorted("
             "m.split('.')[1] for m in sys.modules if m.startswith('cniprobe.'))))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, env=env, check=True)
    assert proc.stdout.split() == LIBRARY
