"""The benchmark tracer installed around the program.

``bench/tracing.py`` wraps blochlab's evaluators and public functions by
name, at every binding; ``bench/run.py --trace 1`` fails a run whose
exact counts differ between traced passes or whose wrappers stay
installed.  These tests install it around one unit of each workload."""

import pytest

from bench_module import bench_module, bench_workloads
from blochlab import battery, disk_functions


@pytest.fixture(scope="module")
def tracing():
    return bench_module("tracing")


def _traced(tracing, action):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        action()
    finally:
        tracer.uninstall()
    return tracer


@pytest.mark.parametrize("name", ["curated", "random-agreement", "deep-classify"])
def test_exact_counts_repeat_between_traced_passes_of_one_unit(tracing, name, tmp_path):
    workload = bench_workloads().WORKLOADS[name]
    unit = workload.prepare(1)[0]
    workload.execute(unit, tmp_path / "warm-up")  # fills the program's caches, as run.py does
    counts = []
    for n in range(2):
        tracer = _traced(tracing, lambda: workload.execute(unit, tmp_path / f"pass-{n}"))
        metrics = tracer.metrics(1)
        counts.append({key: metrics[key] for key in tracing.EXACT_COUNTS})
        assert tracing.wrapped_bindings() == []
    assert counts[0] == counts[1]
    assert counts[0]["disk_functions.calls"] > 0


def test_one_eval_of_each_symbol_counts_two_evaluator_calls(tracing):
    # a SelfMap that subclassed DiskFunction would have its eval wrapped twice,
    # count 3 here, and keep a wrapper after uninstall
    (_, sym), = battery.random_pairs(1, 1)
    tracer = _traced(tracing, lambda: (sym.u.eval(0.5), sym.phi.eval(0.5)))
    assert tracer.calls["disk_functions"] == 2
    assert tracer.scalar_calls == 2
    assert tracing.wrapped_bindings() == []
    assert not issubclass(disk_functions.SelfMap, disk_functions.DiskFunction)
