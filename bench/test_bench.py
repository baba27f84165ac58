"""Tests of the benchmark itself.

    python3 -m pytest -q bench

They take about 20 s; the exact-count checks run full traced passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run as bench_run  # noqa: E402

bench_run.require_source()

import tracing  # noqa: E402
import workloads  # noqa: E402
from blochlab import criteria, norms, oracle  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# Counts measured at the commit that introduced the benchmark.  A change
# that deliberately removes evaluator calls or sample tables changes them.
BASELINE_COUNTS = {
    ("curated", 0): {"disk_functions.calls": 25860, "disk_functions.scalar_calls": 25401,
                     "disk_functions.points": 11565369, "criteria.sample_tables": 23},
    ("random-agreement", 7): {"disk_functions.calls": 44060, "disk_functions.scalar_calls": 43340,
                              "disk_functions.points": 1940300, "criteria.sample_tables": 60},
}


def _result_line(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def _traced_pass(workload, seed: int, tmp_path: Path) -> dict:
    tracer = tracing.Tracer()
    tracer.install()
    try:
        units = workload.prepare(seed)
        run = bench_run.Run(workload, seed, tmp_path)
        run.run_pass(units)
    finally:
        tracer.uninstall()
    assert run.failed == 0, run.problems
    return tracer.metrics(len(units))


@pytest.fixture
def tiny(monkeypatch):
    """Shrink the seeded workloads so a whole run takes a few seconds."""
    monkeypatch.setattr(workloads, "AGREEMENT_PAIRS", 2)
    monkeypatch.setattr(workloads, "DEEP_CONFIGS", 2)
    monkeypatch.setattr(workloads, "DEEP_GRID", {"depth": 12, "angular_nodes": 128, "panel_order": 8})
    monkeypatch.setattr(bench_run, "SETUP_REPEATS", 1)


@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_prints_every_declared_metric_with_its_unit(tiny, capsys, trace):
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert bench_run.main(["--workload", "random-agreement", "--seed", "3",
                           "--seconds", "0", "--trace", str(trace)]) == 0
    result = _result_line(capsys)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()}


def test_deep_classify_smoke(tiny, capsys):
    assert bench_run.main(["--workload", "deep-classify", "--seed", "2", "--seconds", "0",
                           "--trace", "0"]) == 0
    assert _result_line(capsys)["correct"]


def test_untraced_run_installs_no_wrappers(tiny, capsys, monkeypatch):
    assert tracing.wrapped_bindings() == []
    targets = [(owner, attr) for pairs in tracing.SPANS.values() for owner, attr in pairs]
    targets.append((criteria, "sample_points"))
    originals = {(id(h), attr): getattr(h, attr) for owner, attr in targets
                 for h in tracing.bindings(owner, attr)[1]}
    holders = {(id(h), attr): h for owner, attr in targets for h in tracing.bindings(owner, attr)[1]}
    seen = []
    execute = bench_run.Run.execute

    def checked(self, unit):
        for key, original in originals.items():
            assert getattr(holders[key], key[1]) is original
        seen.append(unit.label)
        return execute(self, unit)

    monkeypatch.setattr(bench_run.Run, "execute", checked)
    assert bench_run.main(["--workload", "random-agreement", "--seed", "1", "--seconds", "0",
                           "--trace", "0"]) == 0
    assert seen and _result_line(capsys)["correct"]


def test_consumer_bindings_are_patched(tmp_path):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for holder in (norms, criteria, oracle):
            assert hasattr(holder.bloch_seminorm, tracing.MARK)
        # a curated config restricted to its oracle task reaches
        # bloch_seminorm only through oracle's own binding
        doc = dict(workloads.battery.CURATED["half-scale"]["config"], tasks=["oracle"])
        unit = workloads.Unit("half-scale-oracle", workloads.cli.parse_config(doc))
        workloads.WORKLOADS["curated"].execute(unit, tmp_path)
    finally:
        tracer.uninstall()
    assert tracer.calls["norms.bloch_seminorm"] > 0
    assert tracer.calls["criteria.classify"] == 0
    assert tracing.wrapped_bindings() == []


@pytest.mark.parametrize("workload,seed", sorted(BASELINE_COUNTS))
def test_exact_counts_repeat_and_match_baseline(workload, seed, tmp_path):
    first = _traced_pass(workloads.WORKLOADS[workload], seed, tmp_path)
    second = _traced_pass(workloads.WORKLOADS[workload], seed, tmp_path)
    for name in tracing.EXACT_COUNTS:
        assert first[name] == second[name], name
    for name, value in BASELINE_COUNTS[(workload, seed)].items():
        assert first[name] == value, name


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", "curated", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180, check=False)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


@pytest.mark.xfail(strict=True, reason=(
    "program defect: Affine.sup_norm_estimate rounds |a|+|b| = 1 to 0.9999999999999999 for "
    "this boundary-touching map, so composition_limit_probe calls its right side vacuous "
    "while the left side diverges"))
def test_touching_affine_pair_passes_the_gate():
    units = {u.label: u for u in workloads.WORKLOADS["random-agreement"].prepare(99824042)}
    unit = units["affine_touching-04"]
    outcome = workloads._inspect_pair(unit, workloads._run_pair(unit, None))
    assert outcome.problems == []
