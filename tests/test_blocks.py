"""A sample table is sampled in blocks of whole circles on several threads.

The blocks must give the bytes of one whole-table evaluation at every
block count the rule allows and at blocks of one circle, no thread may
outlive a table, and the symbol is evaluated through one checked ``jets``
call per block."""

import json
import multiprocessing
import os
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blochlab import (
    BlaschkeFactor,
    DomainError,
    PowerSeries,
    RadialGrid,
    Scaled,
    ScaledMap,
    SpaceSpec,
    SymbolPair,
    cli,
    constant,
    criteria,
    identity_map,
    norms,
    oracle,
)
from blochlab.battery import CURATED
from blochlab.disk_functions import jets
from blochlab.norms import one_minus_sq, sample_points
from bench_module import bench_workloads
from test_criteria import _all_verdicts

FLOOR = 2**14  # the fewest points in a block of a multi-block array (norms.block_edges)
DEEP = RadialGrid(40, 2048, 12)
CONFIG = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "half_scale.json")


def _affinity(monkeypatch, cpus: int) -> None:
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)


def _force_blocks(monkeypatch, circles: int, nodes: int, blocks: int) -> list:
    monkeypatch.setattr(norms, "_BLOCK_POINTS", circles // blocks * nodes)
    edges = norms.block_edges(circles, nodes)
    assert len(edges) - 1 == blocks
    return edges


def _largest_legal(circles: int, nodes: int) -> int:
    """The most blocks of whole circles that keep every block at the floor."""
    return circles // -(-FLOOR // nodes)


def _started_threads(monkeypatch) -> list:
    started = []

    class Counted(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(threading, "Thread", Counted)
    return started


def _scaled_pair() -> SymbolPair:
    return SymbolPair(Scaled(0.6 - 0.3j, PowerSeries([0.5, 1.0, 0.2j])),
                      ScaledMap(0.7 + 0.2j, BlaschkeFactor(0.3 - 0.4j)))


def _whole(sym, space, grid) -> list:
    """``|phi|`` and the four samples from one whole-table ``_quotients``."""
    radii, z = sample_points(grid.depth, grid.angular_nodes)
    abs_phi, quantities = criteria._quotients(z, one_minus_sq(radii)[:, None], sym, space)
    return [abs_phi, *quantities.values()]


def _arrays(table) -> list:
    return [table.phi_bands.modulus.reshape(table.quantities["u_prime"].shape), *table.quantities.values()]


def _table_task_and_battery(sym, space, grid) -> list:
    """The table's arrays and verdicts, the constants battery and the oracle
    task with the battery's chain rows, as bytes and exact reprs."""
    table = criteria.SampleTable(sym, space, grid)
    oracle.constants_battery.cache_clear()
    battery = oracle.constants_battery(space, grid)
    task = oracle.oracle_task(sym, space, grid, (battery.functions, battery.norms, 1.0, 1.0))
    return [*(array.tobytes() for array in _arrays(table)), repr(_all_verdicts(table)), repr(battery), repr(task)]


_CURATED = [pytest.param(name, id=f"curated-{name}") for name in sorted(CURATED)]
_DEEP = [pytest.param(i, id=f"deep-1-{i:02d}") for i in range(24)]


def _curated(name) -> tuple:
    config = cli.parse_config(CURATED[name]["config"])
    return config.symbol, config.space


def _assert_counts_agree(monkeypatch, sym, space, grid) -> None:
    """The table's arrays equal the whole-table evaluation bit for bit, and
    every verdict reads the same, at 1, 2, 5 and the largest legal count."""
    circles, nodes = sample_points(grid.depth, grid.angular_nodes)[1].shape
    largest = _largest_legal(circles, nodes)
    want, verdicts = _whole(sym, space, grid), None
    _affinity(monkeypatch, 4)
    for blocks in sorted({1, 2, 5, largest}):
        edges = _force_blocks(monkeypatch, circles, nodes, blocks)
        assert min(np.diff(edges)) * nodes >= FLOOR or blocks == 1
        table = criteria.SampleTable(sym, space, grid)
        for got, expected in zip(_arrays(table), want, strict=True):
            assert got.tobytes() == expected.tobytes()
        dicts = _all_verdicts(table)
        assert verdicts is None or dicts == verdicts
        verdicts = dicts


class TestBlockIdentity:
    @pytest.mark.parametrize("name", _CURATED)
    def test_curated_configs(self, monkeypatch, name):
        _assert_counts_agree(monkeypatch, *_curated(name), DEEP)

    @pytest.mark.parametrize("index", _DEEP)
    def test_deep_configs(self, monkeypatch, index):
        _, text = bench_workloads().deep_config_texts(1)[index]
        config = cli.parse_config(text)
        _assert_counts_agree(monkeypatch, config.symbol, config.space, config.grid)

    @pytest.mark.parametrize("name", _CURATED + [pytest.param(None, id="scaled-pair")])
    def test_blocks_of_exactly_the_floor_are_the_whole_table(self, monkeypatch, name, a2):
        grid = RadialGrid(39, 2048, 12)  # 80 circles: ten blocks of 8 circles, 16,384 points each
        assert np.diff(norms.block_edges(80, 2048)).tolist() == [FLOOR // 2048] * 10
        sym, space = (_scaled_pair(), a2) if name is None else _curated(name)
        _affinity(monkeypatch, 2)
        table = criteria.SampleTable(sym, space, grid)
        for got, expected in zip(_arrays(table), _whole(sym, space, grid), strict=True):
            assert got.tobytes() == expected.tobytes()

    def test_scaled_pair_at_the_smallest_legal_block(self, monkeypatch, a2):
        grid = RadialGrid(4, FLOOR, 8)  # ten circles of exactly the floor
        assert _largest_legal(10, FLOOR) == 10
        _assert_counts_agree(monkeypatch, _scaled_pair(), a2, grid)

    @pytest.mark.parametrize("name", _CURATED + [pytest.param(None, id="scaled-pair")])
    def test_one_circle_blocks_give_the_default_bytes(self, monkeypatch, name, a2):
        """Block size is not a correctness parameter: with every block one
        circle, below numpy's temporary-elision size, the sample table, the
        oracle task and the constants battery are those of the default blocks."""
        sym, space = (_scaled_pair(), a2) if name is None else _curated(name)
        _affinity(monkeypatch, 2)
        default = _table_task_and_battery(sym, space, DEEP)
        monkeypatch.setattr(norms, "_BLOCK_POINTS", 1)
        assert np.diff(norms.block_edges(82, 2048)).tolist() == [1] * 82
        try:
            assert _table_task_and_battery(sym, space, DEEP) == default
        finally:
            oracle.constants_battery.cache_clear()  # no later test reads a one-circle battery

    @given(data=st.data(), log_nodes=st.integers(6, 17), order=st.integers(8, 32))
    @settings(max_examples=200, deadline=None)
    def test_every_accepted_grid_keeps_its_blocks_at_the_floor(self, data, log_nodes, order):
        most = cli.MAX_SAMPLE_POINTS // 2 ** (log_nodes + 1) - 1  # the deepest grid the point cap admits
        depth = data.draw(st.one_of(st.integers(4, max(4, most)), st.sampled_from([4, most, most + 1])))
        grid = {"depth": depth, "angular_nodes": 2**log_nodes, "panel_order": order}
        try:
            config = cli.parse_config({"symbol": {"u": 1.0, "phi": {"monomial": {"degree": 1, "scale": 0.5}}},
                                       "space": "bergman:2", "grid": grid, "tasks": ["bounded_bloch"]})
        except cli.ValidationError:
            return
        circles, nodes = sample_points(config.grid.depth, config.grid.angular_nodes)[1].shape
        edges = norms.block_edges(circles, nodes)
        assert edges[0] == 0 and edges[-1] == circles
        assert len(edges) == 2 or min(np.diff(edges)) * nodes >= FLOOR

    def test_the_benchmark_grids_are_one_block_or_ten(self):
        assert len(norms.block_edges(34, 512)) == 2  # curated, 16x512: 17,408 points
        assert len(norms.block_edges(26, 128)) == 2  # random-agreement, at most 4,352 points
        assert len(norms.block_edges(34, 128)) == 2
        assert len(norms.block_edges(82, 2048)) == 11  # deep-classify, 40x2048: 8 or 9 circles each


class TestThreads:
    def test_no_thread_outlives_a_table(self, monkeypatch, a2):
        _affinity(monkeypatch, 4)
        before = threading.active_count()
        criteria.SampleTable(_scaled_pair(), a2, DEEP)
        assert threading.active_count() == before

    def test_one_cpu_starts_no_thread(self, monkeypatch, a2):
        _affinity(monkeypatch, 1)
        started = _started_threads(monkeypatch)
        criteria.SampleTable(_scaled_pair(), a2, DEEP)
        assert started == []

    def test_four_cpus_start_a_helper_for_each_further_block(self, monkeypatch, a2):
        _affinity(monkeypatch, 4)
        started = _started_threads(monkeypatch)
        blocks = len(norms.block_edges(82, 2048)) - 1
        criteria.SampleTable(_scaled_pair(), a2, DEEP)
        assert len(started) == min(4, blocks) - 1
        assert not any(thread.is_alive() for thread in started)

    @pytest.mark.parametrize("cpus", [1, 4])
    def test_a_block_error_is_raised_after_every_block_ran(self, monkeypatch, cpus):
        ran = []

        def fill(start, stop):
            ran.append(start)
            if start in (2, 4):
                raise DomainError(f"block at {start}")

        _affinity(monkeypatch, cpus)
        with pytest.raises(DomainError, match="block at 2"):
            criteria._each_block([0, 2, 4, 6, 8], fill)
        assert sorted(ran) == [0, 2, 4, 6]

    def test_every_block_runs_once_under_contention(self, monkeypatch):
        """More threads than cores, switching as often as the interpreter
        allows: each block is claimed by exactly one thread."""
        _affinity(monkeypatch, 4)
        claims = np.zeros(64, dtype=int)

        def fill(start, stop):
            claims[start:stop] += 1
            np.sqrt(np.arange(2048.0))  # releases the GIL between claims

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                claims[:] = 0
                criteria._each_block(list(range(65)), fill)
                assert claims.tolist() == [1] * 64
        finally:
            sys.setswitchinterval(interval)

    def test_a_domain_run_at_depth_52_records_every_task(self, tmp_path, capsys):
        assert len(norms.block_edges(106, 4096)) - 1 == 26
        assert cli.main(["run", CONFIG, "--grid", "52,4096,8", "--out", str(tmp_path), "--format", "json"]) == 0
        (report,) = tmp_path.rglob("*.json")

        def refuse(constant):
            raise ValueError(f"not strict JSON: {constant}")

        results = json.loads(report.read_text(), parse_constant=refuse)["results"]
        assert len(results["tasks"]) == 6
        assert all(entry["error"] == "domain" for entry in results["tasks"].values())

    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(), reason="no fork on this platform")
    def test_a_forked_child_builds_a_deep_table(self, a2):
        criteria.SampleTable(_scaled_pair(), a2, DEEP)  # the parent has run helpers before it forks
        child = multiprocessing.get_context("fork").Process(target=_build_deep_table)
        child.start()
        child.join(60)
        assert child.exitcode == 0


class TestMemory:
    def test_a_deep_table_holds_two_blocks_of_temporaries(self, monkeypatch, a2):
        """About 9.6 MiB traced on two threads: 6.4 MiB of samples and one
        block of temporaries per thread; blocks of 2**15 points took 12.1."""
        _affinity(monkeypatch, 2)
        criteria.SampleTable(_scaled_pair(), a2, DEEP)  # the cached sample circles are not the table's
        tracemalloc.start()
        try:
            criteria.SampleTable(_scaled_pair(), a2, DEEP)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 11 * 2**20


def _build_deep_table():
    criteria.SampleTable(_scaled_pair(), SpaceSpec.bergman(2), DEEP)


class TestCheckedJets:
    OUTSIDE = np.array([[0.5, 1.0 + 0.0j]])

    def test_jets_are_the_single_jets(self):
        sym = _scaled_pair()
        for z in (0.3 - 0.2j, sample_points(6, 64)[1]):
            got = jets(z, sym.u, sym.phi)
            want = (*sym.u.jet(z), *sym.phi.jet(z))
            assert len(got) == 4
            for a, b in zip(got, want):
                assert type(a) is type(b) and np.asarray(a).tobytes() == np.asarray(b).tobytes()
        assert sym.jets(0.5j) == jets(0.5j, sym.u, sym.phi)

    def test_jets_check_the_disk(self):
        with pytest.raises(DomainError, match="evaluation point outside the open unit disk"):
            jets(self.OUTSIDE, constant(1), identity_map())

    def test_the_table_raises_outside_the_disk(self, a2):
        # from depth 52 the sample circles round onto |z| = 1
        with pytest.raises(DomainError, match="evaluation point outside the open unit disk"):
            criteria.SampleTable(_scaled_pair(), a2, RadialGrid(52, 64, 8))

    def test_an_oracle_task_raises_outside_the_disk(self, a2):
        with pytest.raises(DomainError, match="evaluation point outside the open unit disk"):
            oracle.oracle_task(_scaled_pair(), a2, RadialGrid(52, 64, 8))

    def test_a_refinement_round_raises_outside_the_disk(self, monkeypatch):
        monkeypatch.setattr(oracle, "family_bloch_seminorm", lambda modulus, grids, grid: modulus(self.OUTSIDE))
        rows = oracle._Rows([constant(1)])
        with pytest.raises(DomainError, match="evaluation point outside the open unit disk"):
            oracle._refine(_scaled_pair(), RadialGrid(12, 128, 8), [rows])
