"""An oracle task finds its rows' grid peaks a block of sample circles at a
time.

Each block evaluates the symbol once, and each row keeps a running peak,
the first maximum in flat order with the first NaN winning.  The chase
rows evaluate a block only where a segment's majorant can still reach the
row's peak.  The peaks must be those of the whole-grid stage of
``golden_reference`` bit for bit, across block edges, and the task must
hold only one block of the grid."""

import itertools
import tracemalloc
from fractions import Fraction
from functools import reduce
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blochlab import Affine, PowerSeries, Product, RadialGrid, SpaceSpec, SymbolPair, cli, norms, oracle
from blochlab.battery import CURATED, random_pairs
from blochlab.disk_functions import FractionalKernel
from blochlab.norms import one_minus_sq, sample_points
from golden_reference import (
    reference_chain_grids,
    reference_chase_grids,
    reference_grid_peaks,
    reference_symbol_samples,
)

DEEP = RadialGrid(40, 2048, 12)  # 82 circles in ten blocks of 8 or 9
GRID = RadialGrid(16, 512, 12)  # the curated configs' own grid, one block
SHALLOW = RadialGrid(12, 128, 8)  # the random battery's grid
NARROW = RadialGrid(16, 64, 12)  # the fewest nodes a grid accepts: 4 segments a circle
_CURATED = [pytest.param(name, id=name) for name in sorted(CURATED)]


def _config(name):
    return cli.parse_config(CURATED[name]["config"])


def _exact(peaks) -> list:
    """Peaks as ``(int, int, hex)``: equal exactly when the peaks are equal bit for bit."""
    return [(int(i), int(j), float(value).hex()) for i, j, value in peaks]


def _families(sym, space, grid) -> list:
    """The kernels and pinned kernels at the chase images of ``sym`` on
    ``grid`` (pinned even where the probe would be vacuous)."""
    points = oracle.boundary_chase_point(sym.phi, oracle.CHASE_DEPTHS, grid.angular_nodes)
    images = [complex(sym.phi.eval(z_star)) for z_star in points]
    return [oracle._family(images, space), oracle._family(images, space, pinched=True)]


def _groups(sym, space):
    """The task's row groups on ``DEEP``: kernels and pinned kernels at the
    chase images (``_families``), and the battery's four functions as chain
    rows."""
    families = _families(sym, space, DEEP)
    functions = oracle.constants_battery(space, RadialGrid(12, 128, 8)).functions  # the functions alone
    chain, _ = oracle._chain_rows(functions, [1.0] * len(functions), 1.0, 1.0)
    return families, functions, [oracle._ChaseRows(families), chain]


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

        rows = SimpleNamespace(size=4, block_peaks=lambda omr2, jets, best: map(norms.grid_peak, grids(omr2, *jets)))
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


def _chase(sym, space, grid):
    """The peaks of the chase rows (``_families``) from ``_grid_peaks`` and
    from the whole-grid stage, as ``_exact`` lists."""
    families = _families(sym, space, grid)
    got = oracle._grid_peaks(sym, grid, [oracle._ChaseRows(families)])
    want = reference_grid_peaks(reference_chase_grids(families, reference_symbol_samples(sym, grid), grid))
    return _exact(got), _exact(want)


class _Patched:
    """A symbol whose jets are ``sym``'s except at the points where
    ``at(z)`` holds, where they are ``values`` ``(u, u', phi, phi')``."""

    def __init__(self, sym, at, values):
        self.sym, self.phi, self.at, self.values = sym, sym.phi, at, values

    def jets(self, z):
        parts = [np.array(part) for part in self.sym.jets(z)]
        where = self.at(z)
        for part, value in zip(parts, self.values):
            part[where] = value
        return tuple(parts)


def _critical(p: Fraction, a: float, m: int):
    """The critical family's symbol ``u = (1-z)**m``, ``phi = a z + 1 - a``, and its space."""
    return SymbolPair(reduce(Product, [PowerSeries([1.0, -1.0])] * m), Affine(a, 1.0 - a)), SpaceSpec.bergman(float(p))


_CRITICAL = [pytest.param(p, a, int(m), id=f"p{p}-a{a}-m{int(m)}".replace("/", "_"))
             for p in (Fraction(1), Fraction(4, 3), Fraction(2), Fraction(4)) for a in (0.3, 0.5)
             for m in (4 / p - 1, 4 / p, 4 / p + 1) if m >= 1]


class TestBoundedSearch:
    """The chase rows' search bounded by per-segment majorants
    (``oracle._ChaseRows.block_peaks``) against the whole-grid stage."""

    @pytest.mark.parametrize("name", _CURATED)
    def test_curated_symbols_at_their_own_grid(self, name):
        config = _config(name)
        got, want = _chase(config.symbol, config.space, GRID)
        assert got == want

    @pytest.mark.parametrize("name", _CURATED)
    def test_curated_symbols_at_the_fewest_segments_a_circle(self, name):
        config = _config(name)
        got, want = _chase(config.symbol, config.space, NARROW)
        assert got == want

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_random_pairs(self, seed, a2):
        for label, sym in random_pairs(seed, 20):
            got, want = _chase(sym, a2, SHALLOW)
            assert got == want, label

    @pytest.mark.parametrize("p, a, m", _CRITICAL)
    def test_the_critical_family(self, p, a, m):
        got, want = _chase(*_critical(p, a, m), GRID)
        assert got == want

    def test_the_zero_multiplier_and_ties_on_a_circle(self):
        """The zero multiplier's rows are 0 everywhere and peak at their
        first point; ``u = z`` with ``phi = 0`` gives every circle one value,
        so each row peaks at the first node of a circle."""
        config = _config("zero-multiplier")
        assert _chase(config.symbol, config.space, GRID)[0] == [(0, 0, (0.0).hex())] * 22
        config = _config("constant-target")
        got, want = _chase(config.symbol, config.space, GRID)
        assert got == want and {j for _, j, _ in got} == {0}

    @pytest.mark.parametrize("grid", [GRID, DEEP], ids=["one-block", "ten-blocks"])
    def test_nan_nodes(self, grid):
        """A NaN in ``u'`` at two nodes, the second in a later block when there
        is one: every row peaks at the first."""
        config = _config("blaschke-rotor")
        radii, z = sample_points(grid.depth, grid.angular_nodes)
        nodes = (z[5, 300], z[-3, 7])
        sym = _Patched(config.symbol, lambda points: np.isin(points, nodes), (1.0, np.nan, 0.5, 1.0))
        got, want = _chase(sym, config.space, grid)
        assert got == want
        assert all((i, j) == (5, 300) and value == "nan" for i, j, value in got)

    def test_a_half_plane_violation_in_a_segment_the_majorant_would_prune(self):
        """A whole segment, away from every peak, where ``phi`` leaves the disk
        and ``u``, ``u'`` and ``phi'`` vanish: a majorant read there would be
        0, but the segment is not certified, so it is evaluated, and ``Re W
        <= 0`` raises as on the whole grid."""
        config = _config("half-scale")
        _, z = sample_points(GRID.depth, GRID.angular_nodes)
        segment = z[2, 256:272]
        sym = _Patched(config.symbol, lambda points: np.isin(points, segment), (0.0, 0.0, 1.5, 0.0))
        families = [oracle._family([0.2, 0.9999], config.space)]
        with pytest.raises(ArithmeticError, match="right half-plane"):
            reference_grid_peaks(reference_chase_grids(families, reference_symbol_samples(sym, GRID), GRID))
        with pytest.raises(ArithmeticError, match="right half-plane"):
            oracle._grid_peaks(sym, GRID, [oracle._ChaseRows(families)])

    def test_a_tie_before_the_seed_is_evaluated(self):
        """One kernel ``(1 - z/2)**-2``: on circle 0 every jet is 0, and on
        the others ``u = u' = 1``, ``phi = 0`` and ``phi' = -1``, where the
        closed form's ``u' W + 2 (1/2) u phi'`` cancels to 0 exactly though
        the majorants are positive.  The seed is on circle 1 and its maximum,
        0, ties the majorants of circle 0, which must still be evaluated:
        the peak is the first point of the grid."""
        family = FractionalKernel([0.5], 2.0, [1.0])
        grid = RadialGrid(4, 64, 8)
        sym = _Patched(_config("half-scale").symbol, lambda points: points != 0, (1.0, 1.0, 0.0, -1.0))
        sym = _Patched(sym, lambda points: points == 0, (0.0, 0.0, 0.0, 0.0))
        got = oracle._grid_peaks(sym, grid, [oracle._ChaseRows([family])])
        want = reference_grid_peaks(reference_chase_grids([family], reference_symbol_samples(sym, grid), grid))
        assert _exact(got) == _exact(want) == [(0, 0, (0.0).hex())]

    @pytest.mark.parametrize("name", ["blaschke-rotor", "identity-into-bloch"])
    def test_a_sparse_symbol_evaluates_few_points(self, name, monkeypatch):
        """At most 10% of the chase rows' grid points are evaluated, seeds
        included (1.9% and 3.3% today)."""
        config = _config(name)
        families = _families(config.symbol, config.space, GRID)
        evaluated = []
        closed_form = FractionalKernel.image_derivative_modulus

        def counted(self, u, du, phi, dphi):
            evaluated.append(np.size(phi))
            return closed_form(self, u, du, phi, dphi)

        monkeypatch.setattr(FractionalKernel, "image_derivative_modulus", counted)
        oracle._grid_peaks(config.symbol, GRID, [oracle._ChaseRows(families)])
        points = sample_points(GRID.depth, GRID.angular_nodes)[1].size
        assert sum(evaluated) <= 0.10 * 2 * len(oracle.CHASE_DEPTHS) * points

    def test_every_grid_circle_is_whole_segments(self):
        # the chase reads each block as (circles, nodes // _SEGMENT, _SEGMENT)
        accepted = []
        for nodes in range(64, 2**16 + 1):
            try:
                accepted.append(RadialGrid(4, nodes, 8).angular_nodes)
            except ValueError:
                pass
        assert accepted == [2**k for k in range(6, 17)]
        assert all(nodes % oracle._SEGMENT == 0 for nodes in accepted)
        for nodes in (96, 500):
            with pytest.raises(ValueError, match="power of two"):
                RadialGrid(4, nodes, 8)

    def test_first_max(self):
        assert oracle._first_max((3, 1, 2.0), (1, 5, 2.0)) == (1, 5, 2.0)
        assert oracle._first_max((3, 1, 2.0), (1, 5, 1.0)) == (3, 1, 2.0)
        assert oracle._first_max((3, 1, 2.0), (4, 0, np.nan))[:2] == (4, 0)
        assert oracle._first_max((3, 1, np.nan), (1, 5, np.nan))[:2] == (1, 5)


_NODES = np.arange(16, 289, oracle._SEGMENT)  # whole segments, as on every RadialGrid


class TestMajorants:
    @given(seed=st.integers(0, 10**6), index=st.integers(0, 5), p=st.sampled_from([1.0, 2.0, 4.0]),
           depth=st.integers(4, 14), nodes=st.sampled_from(_NODES.tolist()))
    @settings(max_examples=60, deadline=None)
    def test_every_majorant_bounds_the_values_on_its_segment(self, seed, index, p, depth, nodes):
        _, sym = random_pairs(seed, 6)[index]
        space = SpaceSpec.bergman(p)
        grid = SimpleNamespace(depth=depth, angular_nodes=nodes)
        families = _families(sym, space, grid)
        radii, _ = sample_points(depth, nodes)
        u, du, phi, dphi = samples = reference_symbol_samples(sym, grid)
        bounds = oracle._majorants(families, one_minus_sq(radii)[:, None], phi, du, u * dphi)
        for bound, values in zip(bounds, reference_chase_grids(families, samples, grid)):
            top = values.reshape(-1, oracle._SEGMENT).max(axis=1)
            certified = ~np.isnan(bound)
            assert (top[certified] <= bound[certified]).all()
