"""An oracle task finds its rows' grid peaks a block of sample circles at a
time.

Each block evaluates the symbol once, and each row keeps a running peak,
the first maximum in flat order with the first NaN winning.  The peaks
must be those of the whole-grid stage of ``golden_reference`` bit for bit,
across block edges, and the task must hold only one block of the grid."""

import itertools
import tracemalloc

import numpy as np
import pytest

from blochlab import RadialGrid, cli, norms, oracle
from blochlab.battery import CURATED
from blochlab.norms import one_minus_sq, sample_points
from golden_reference import (
    reference_chain_grids,
    reference_chase_grids,
    reference_grid_peaks,
    reference_symbol_samples,
)

DEEP = RadialGrid(40, 2048, 12)  # 82 circles in ten blocks of 8 or 9
_CURATED = [pytest.param(name, id=name) for name in sorted(CURATED)]


def _config(name):
    return cli.parse_config(CURATED[name]["config"])


def _exact(peaks) -> list:
    """Peaks as ``(int, int, hex)``: equal exactly when the peaks are equal bit for bit."""
    return [(int(i), int(j), float(value).hex()) for i, j, value in peaks]


def _groups(sym, space):
    """The task's row groups on ``DEEP``: kernels and pinned kernels at the
    chase images (pinned even where the probe would be vacuous), and the
    battery's four functions as chain rows."""
    points = oracle.boundary_chase_point(sym.phi, oracle.CHASE_DEPTHS, DEEP.angular_nodes)
    images = [complex(sym.phi.eval(z_star)) for z_star in points]
    families = [oracle._family(images, space), oracle._family(images, space, pinched=True)]
    functions = oracle.constants_battery(space, RadialGrid(12, 128, 8)).functions  # the functions alone
    chain, _ = oracle._chain_rows(functions, [1.0] * len(functions), 1.0, 1.0)
    return families, functions, [oracle._chase_rows(families), chain]


class TestWholeGridPeaks:
    def test_the_deep_grid_is_ten_blocks(self):
        assert np.diff(norms.block_edges(*sample_points(DEEP.depth, DEEP.angular_nodes)[1].shape)).tolist() == \
            [8, 8, 8, 8, 9, 8, 8, 8, 8, 9]

    @pytest.mark.parametrize("name", _CURATED)
    def test_curated_symbols_equal_the_whole_grid_stage(self, name):
        config = _config(name)
        sym, space = config.symbol, config.space
        families, functions, groups = _groups(sym, space)
        got = oracle._grid_peaks(sym, DEEP, groups)
        samples = reference_symbol_samples(sym, DEEP)
        want = reference_grid_peaks(itertools.chain(reference_chase_grids(families, samples, DEEP),
                                                    reference_chain_grids(functions, samples, DEEP)))
        assert len(got) == 26
        assert _exact(got) == _exact(want)

    def test_a_nan_and_ties_across_block_edges(self):
        """Rows built from the circle and the angle of each point: a tie on
        both sides of a block edge keeps the earlier point, the first NaN wins
        over a larger value before it and over a later NaN, and a row with no
        finite value keeps its first point."""
        sym = _config("half-scale").symbol
        radii, z = sample_points(DEEP.depth, DEEP.angular_nodes)
        edges = norms.block_edges(*z.shape)
        gaps = one_minus_sq(radii)
        cut, later = edges[3], edges[6]

        def grids(omr2, u, du, phi, dphi):
            circle = np.searchsorted(-gaps, -omr2[:, 0])[:, None]  # the index of each block row's circle
            angle = np.arange(z.shape[1])[None, :]
            on = np.broadcast_to(circle, u.shape)
            yield np.where((on == cut - 1) | (on == cut), 2.0, 1.0)  # tie: cut - 1 wins
            spike = np.where((on == 0) & (angle == 3), np.inf, 1.0)
            yield np.where(((on == cut + 1) & (angle == 5)) | ((on == later) & (angle == 7)), np.nan, spike)
            yield np.where((on == later) & (angle == 1), 4.0, np.where(on == 0, 4.0, 1.0))  # tie: circle 0 wins
            yield np.full(u.shape, -np.inf)

        rows = oracle._Rows(4, grids, None)
        got = oracle._grid_peaks(sym, DEEP, [rows])
        omr2 = gaps[:, None]
        want = reference_grid_peaks(grids(omr2, *reference_symbol_samples(sym, DEEP)))
        assert _exact(got) == _exact(want)
        assert [(int(i), int(j)) for i, j, _ in got] == [(cut - 1, 0), (cut + 1, 5), (0, 0), (0, 0)]
        assert np.isnan(got[1][2]) and got[3][2] == -np.inf


class TestMemory:
    @pytest.mark.parametrize("name", _CURATED)
    def test_a_deep_oracle_task_holds_one_block(self, name):
        """About 3 MiB traced; the whole-grid stage held the symbol's four
        jets and two member grids of every point, 24 to 28 MiB."""
        config = _config(name)
        sym, space = config.symbol, config.space
        oracle.oracle_task(sym, space, DEEP)  # the cached rules and sample circles are not the task's
        tracemalloc.start()
        try:
            oracle.oracle_task(sym, space, DEEP)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20
