"""The benchmark's workloads run on the program's current call shapes.

``bench/workloads.py`` calls blochlab's public functions with fixed
signatures; a signature change must fail here rather than in a benchmark
run."""

import pytest

from bench_module import bench_workloads


@pytest.fixture(scope="module")
def workloads():
    return bench_workloads()


@pytest.mark.parametrize("name", ["curated", "random-agreement", "deep-classify"])
def test_one_unit_of_each_workload_runs_without_problems(workloads, name, tmp_path):
    workload = workloads.WORKLOADS[name]
    unit = workload.prepare(7)[0]
    outcome = workload.inspect(unit, workload.execute(unit, tmp_path))
    assert outcome.problems == []
    assert outcome.payload
