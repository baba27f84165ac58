"""The process-wide heap thresholds and the per-task fault counter."""

import ctypes
import importlib
import os

import pytest

from blochlab import cli, heap
from blochlab.battery import CURATED
from bench_module import bench_workloads

on_glibc = pytest.mark.skipif(not heap.glibc_version(), reason="the thresholds are set on glibc only")


@pytest.fixture
def deep_config():
    """The first ``deep-classify`` benchmark config: 40x2048x12, classifier tasks only."""
    _, text = bench_workloads().deep_config_texts(1)[0]
    return cli.parse_config(text)


@on_glibc
def test_thresholds_are_set_at_import():
    assert heap.FIXED is True


@on_glibc
def test_a_warm_deep_config_reuses_its_pages(deep_config):
    assert (deep_config.grid.depth, deep_config.grid.angular_nodes) == (40, 2048)
    for _ in range(3):
        report = cli.run(deep_config)
    faults = report.meta["minor_faults"]
    assert set(faults) == set(deep_config.tasks)
    assert sum(faults.values()) < 500  # thousands when freed arrays go back to the kernel


def test_faults_are_recorded_outside_the_payload():
    report = cli.run(cli.parse_config(dict(CURATED["half-scale"]["config"], tasks=["bounded_bloch", "oracle"])))
    faults = report.meta["minor_faults"]
    assert list(faults) == ["bounded_bloch", "oracle"]
    assert all(isinstance(n, int) and n >= 0 for n in faults.values())
    assert b"minor_faults" not in report.results_payload()


def test_no_mallopt_call_without_glibc(monkeypatch):
    calls = []

    def not_glibc(name):
        raise ValueError("unrecognized configuration name")

    monkeypatch.setattr(os, "confstr", not_glibc)
    monkeypatch.setattr(ctypes, "CDLL", lambda *args, **kwargs: calls.append(args))
    try:
        assert importlib.reload(heap).FIXED is False
        assert heap.glibc_version() is None
        assert calls == []
    finally:
        monkeypatch.undo()
        importlib.reload(heap)
