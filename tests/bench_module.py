"""``bench/workloads.py`` loaded as a module, for tests that run the
benchmark's configs or workloads."""

import importlib.util
import sys
from functools import cache
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


@cache
def bench_workloads():
    """The ``bench/workloads.py`` module, loaded once without writing bytecode."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ as it was
        spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
        module = importlib.util.module_from_spec(spec)
        patch.setitem(sys.modules, spec.name, module)  # dataclasses look the module up
        spec.loader.exec_module(module)
    return module
