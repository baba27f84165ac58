"""The norm quadrature and the growth envelopes are evaluated in blocks of
whole rows, one block at a time.

A row's angular mean and a circle's maximum read only that row, and every
block holds at least ``2**15`` points unless the grid is one block, so the
blocked values must equal the whole-array bodies of
``golden_reference`` bit for bit, raise what they raise, and hold only one
block of points at a time."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blochlab import (
    BlaschkeFactor,
    ComposedWithSelfMap,
    DomainError,
    FractionalKernel,
    NonConvergentError,
    NormalWeight,
    PowerSeries,
    RadialGrid,
    SpaceSpec,
    check_normality,
    norms,
    oracle,
)
from golden_reference import (
    reference_bergman_type_norm,
    reference_derivative_form_norm,
    reference_derivative_growth_envelope,
    reference_pointwise_growth_envelope,
)

BLOCK = 2**15
LOG_WEIGHT = SpaceSpec(2.0, NormalWeight(0.5, -1.0))  # normal from k0 = 4
SPACES = {"bergman1": SpaceSpec.bergman(1), "bergman2": SpaceSpec.bergman(2), "bergman4": SpaceSpec.bergman(4),
          "log-1": LOG_WEIGHT}
# one block; three; three of 42 rows; four uneven (38, 39, 38, 39 rows)
SMALL = {"12x128x8": RadialGrid(12, 128, 8), "16x512x12": RadialGrid(16, 512, 12),
         "13x1024x9": RadialGrid(13, 1024, 9), "13x1024x11": RadialGrid(13, 1024, 11)}
# thirty quadrature blocks and five of circles; twenty-five and four uneven ones
LARGE = {"40x2048x12": RadialGrid(40, 2048, 12), "16x4096x12": RadialGrid(16, 4096, 12)}
PAIRS = [
    (norms.bergman_type_norm, reference_bergman_type_norm),
    (norms.derivative_form_norm, reference_derivative_form_norm),
    (norms.pointwise_growth_envelope, reference_pointwise_growth_envelope),
    (norms.derivative_growth_envelope, reference_derivative_growth_envelope),
]


FUNCTIONS = ["one", "z", "z2", "kernel", "pinched", "blaschke"]


def _functions(space) -> dict:
    battery = oracle.constants_battery(space, SMALL["12x128x8"]).functions  # 1, z, z^2 and the kernel at 0.5
    return {"one": battery[0], "z": battery[1], "z2": battery[2], "kernel": battery[3],
            "pinched": FractionalKernel(0.6 + 0.3j, 2.5, scale=0.2 - 0.1j, pinched=True),
            "blaschke": ComposedWithSelfMap(FractionalKernel(0.5j, 1.5), BlaschkeFactor(0.3 - 0.4j))}


def _hex(value: float) -> str:
    return float(value).hex()


def _assert_blocked_is_whole(space, grid, names) -> None:
    functions = _functions(space)
    for name in names:
        for blocked, whole in PAIRS:
            got, want = blocked(functions[name], space, grid), whole(functions[name], space, grid)
            assert _hex(got) == _hex(want), (name, blocked.__name__)


def _quadrature_shape(grid) -> tuple:
    return (grid.depth + 1) * grid.panel_order, grid.angular_nodes


def _cases():
    """Every function in every space on the two smallest grids, every
    function in two spaces on the 13-deep ones, and the kernel in those
    spaces on the large grids."""
    for grid_name, grid in {**SMALL, **LARGE}.items():
        spaces = SPACES if grid.angular_nodes <= 512 else ["bergman2", "log-1"]
        names = ["kernel"] if grid_name in LARGE else FUNCTIONS
        for space_name in spaces:
            yield pytest.param(grid, space_name, names, id=f"{space_name}-{grid_name}")


class TestBitForBit:
    @pytest.mark.parametrize("grid, space_name, names", _cases())
    def test_blocked_equals_whole(self, grid, space_name, names):
        _assert_blocked_is_whole(SPACES[space_name], grid, names)

    def test_the_grids_cover_one_block_many_and_uneven_splits(self):
        counts = {name: np.diff(norms.block_edges(*_quadrature_shape(grid))).tolist()
                  for name, grid in {**SMALL, **LARGE}.items()}
        assert counts["12x128x8"] == [104]
        assert counts["16x512x12"] == [68, 68, 68]
        assert counts["13x1024x9"] == [42, 42, 42]
        assert counts["13x1024x11"] == [38, 39, 38, 39]
        assert len(counts["40x2048x12"]) == 30 and len(counts["16x4096x12"]) == 25
        circles = {name: len(norms.block_edges(*norms.sample_points(grid.depth, grid.angular_nodes)[1].shape)) - 1
                   for name, grid in LARGE.items()}
        assert circles == {"40x2048x12": 5, "16x4096x12": 4}

    def test_the_log_weight_is_normal(self):
        assert check_normality(LOG_WEIGHT.weight).k0 == 4

    def test_the_battery_is_its_whole_array_constants(self):
        space, grid = LOG_WEIGHT, SMALL["13x1024x11"]
        battery = oracle.constants_battery(space, grid)
        assert [_hex(n) for n in battery.norms] == [_hex(reference_bergman_type_norm(f, space, grid))
                                                     for f in battery.functions]


class TestErrors:
    SPIKE = FractionalKernel(1.0 - 2.0**-40, 2.0)  # its norm does not converge at depth 16

    @pytest.mark.parametrize("blocked, whole", PAIRS[:2], ids=["bergman_type_norm", "derivative_form_norm"])
    def test_nonconvergence_is_the_whole_array_error(self, blocked, whole, a2):
        grid = SMALL["16x512x12"]
        with pytest.raises(NonConvergentError) as want:
            whole(self.SPIKE, a2, grid)
        with pytest.raises(NonConvergentError) as got:
            blocked(self.SPIKE, a2, grid)
        assert str(got.value) == str(want.value)
        assert got.value.contributions.tobytes() == want.value.contributions.tobytes()

    @pytest.mark.parametrize("blocked, whole", PAIRS, ids=[blocked.__name__ for blocked, _ in PAIRS])
    def test_nodes_on_the_circle_raise_the_whole_array_error(self, blocked, whole, a2):
        grid = RadialGrid(60, 512, 8)  # the deepest nodes, in the last of seven blocks, round onto |z| = 1
        assert len(norms.block_edges(*_quadrature_shape(grid))) - 1 == 7
        with pytest.raises(DomainError) as want:
            whole(PowerSeries([0, 1]), a2, grid)
        with pytest.raises(DomainError) as got:
            blocked(PowerSeries([0, 1]), a2, grid)
        assert str(got.value) == str(want.value)


class TestBlockRule:
    @given(depth=st.integers(4, 400), log_nodes=st.integers(6, 17), order=st.integers(8, 32))
    @settings(max_examples=300, deadline=None)
    def test_every_block_holds_the_floor_and_at_most_two_floors_and_a_row(self, depth, log_nodes, order):
        nodes = 2**log_nodes
        for rows in ((depth + 1) * order, norms.sample_radii(depth).size):  # quadrature rows, sample circles
            edges = norms.block_edges(rows, nodes)
            sizes = [(b - a) * nodes for a, b in zip(edges, edges[1:])]
            assert edges[0] == 0 and edges[-1] == rows and min(sizes) > 0
            assert min(sizes) >= BLOCK or sizes == [rows * nodes] and rows * nodes < BLOCK
            assert max(sizes) < 2 * BLOCK + nodes

    def test_a_grid_below_two_floors_is_one_block(self):
        assert norms.block_edges(3, 2**13) == [0, 3]
        assert norms.block_edges(4, 2**13) == [0, 4]
        assert norms.block_edges(8, 2**13) == [0, 4, 8]


class TestMemory:
    GRID = LARGE["16x4096x12"]

    @pytest.mark.parametrize("blocked", [blocked for blocked, _ in PAIRS], ids=[b.__name__ for b, _ in PAIRS])
    def test_each_peaks_below_8_mib(self, blocked, a2):
        """The whole-array bodies need about 64 MiB here."""
        f = oracle.boundary_test_function(0.5, a2)
        blocked(f, a2, self.GRID)  # the cached rules and sample circles are not the evaluation's
        tracemalloc.start()
        try:
            blocked(f, a2, self.GRID)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20
