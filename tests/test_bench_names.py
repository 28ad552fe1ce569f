"""The library names the benchmark in ``bench/`` imports and hooks exist,
and the command lines it passes to the CLI parse.

The tracer only prints a warning for a hook target it cannot find, and
that layer's metrics then read zero; the benchmark's own smoke tests
take half a minute and run outside this suite. These checks load the
benchmark's modules from their files and change nothing in ``bench/``.
"""

import importlib.util
import sys
from pathlib import Path

from cniprobe.cli import build_parser

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def test_workloads_import_and_set_up():
    workloads = _load("workloads")
    grid = workloads.make("fewshot_grid", scratch=None)
    grid.setup(17)
    assert len(grid.entries) == 12
    workloads.make("teacher_distill", scratch=None).setup(17)


def test_cli_pipeline_commands_parse(tmp_path):
    # a renamed synth/train/eval flag makes argparse exit here
    pipeline = _load("workloads").make("cli_pipeline", scratch=tmp_path)
    pipeline.setup(17)
    parser = build_parser()
    commands = pipeline.commands(tmp_path)
    assert [argv[0] for argv in commands] == [
        "synth", "init-head", "sample-shots", "train", "eval", "eval"]
    for argv in commands:
        assert parser.parse_args(argv).command == argv[0]


def test_every_hook_target_resolves():
    _load("workloads")  # imports every module the hooks name
    tracer = _load("tracing").Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
    finally:
        tracer.uninstall()
