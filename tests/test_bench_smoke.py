"""The benchmark's workloads run on the program's current call shapes.

``bench/workloads.py`` calls blochlab's public functions with fixed
signatures; a signature change must fail here rather than in a benchmark
run."""

import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ as it was
        spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
        module = importlib.util.module_from_spec(spec)
        patch.setitem(sys.modules, spec.name, module)  # dataclasses look the module up
        spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["curated", "random-agreement", "deep-classify"])
def test_one_unit_of_each_workload_runs_without_problems(workloads, name, tmp_path):
    workload = workloads.WORKLOADS[name]
    unit = workload.prepare(7)[0]
    outcome = workload.inspect(unit, workload.execute(unit, tmp_path))
    assert outcome.problems == []
    assert outcome.payload
