"""Modules of ``bench/`` loaded for tests that run the benchmark's
configs, workloads or tracer."""

import importlib.util
import sys
from functools import cache
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


@cache
def bench_module(name: str):
    """``bench/<name>.py``, loaded once as ``bench_<name>`` without writing bytecode."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ as it was
        spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        patch.setitem(sys.modules, spec.name, module)  # dataclasses look the module up
        spec.loader.exec_module(module)
    return module


def bench_workloads():
    """The ``bench/workloads.py`` module."""
    return bench_module("workloads")
