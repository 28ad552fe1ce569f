"""The package namespace: its exported names and its submodules."""

import importlib
import pkgutil

import cniprobe


def test_exports_resolve_and_submodules_are_not_shadowed():
    for name in cniprobe.__all__:
        assert hasattr(cniprobe, name), name
    for info in pkgutil.iter_modules(cniprobe.__path__):
        module = importlib.import_module(f"cniprobe.{info.name}")
        assert getattr(cniprobe, info.name) is module, info.name
