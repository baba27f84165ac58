"""The norm quadrature and the growth envelopes are evaluated in blocks of
whole rows, one block at a time.

A row's angular mean and a circle's maximum read only that row, and every
block holds at least ``2**14`` points unless the grid is one block, so the
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

BLOCK = 2**14  # the fewest points in a block of a multi-block array (norms.block_edges)
LOG_WEIGHT = SpaceSpec(2.0, NormalWeight(0.5, -1.0))  # normal from k0 = 4
SPACES = {"bergman1": SpaceSpec.bergman(1), "bergman2": SpaceSpec.bergman(2), "bergman4": SpaceSpec.bergman(4),
          "log-1": LOG_WEIGHT}
# one block; six; seven of 18 rows; nine uneven (eight of 17 rows, one of 18)
SMALL = {"12x128x8": RadialGrid(12, 128, 8), "16x512x12": RadialGrid(16, 512, 12),
         "13x1024x9": RadialGrid(13, 1024, 9), "13x1024x11": RadialGrid(13, 1024, 11)}
# sixty-one quadrature blocks and ten of circles; fifty-one and eight uneven ones
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
        assert counts["16x512x12"] == [34] * 6
        assert counts["13x1024x9"] == [18] * 7
        assert counts["13x1024x11"] == [17] * 8 + [18]
        assert len(counts["40x2048x12"]) == 61 and len(counts["16x4096x12"]) == 51
        circles = {name: len(norms.block_edges(*norms.sample_points(grid.depth, grid.angular_nodes)[1].shape)) - 1
                   for name, grid in LARGE.items()}
        assert circles == {"40x2048x12": 10, "16x4096x12": 8}

    @pytest.mark.parametrize("space_name", ["bergman2", "log-1"])
    def test_blocks_of_exactly_the_floor_equal_whole(self, space_name):
        grid = RadialGrid(15, 2048, 8)  # 128 quadrature rows and 32 circles: blocks of 8 rows, 16,384 points
        assert np.diff(norms.block_edges(*_quadrature_shape(grid))).tolist() == [BLOCK // 2048] * 16
        assert np.diff(norms.block_edges(32, 2048)).tolist() == [BLOCK // 2048] * 4
        _assert_blocked_is_whole(SPACES[space_name], grid, FUNCTIONS)

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
        grid = RadialGrid(60, 512, 8)  # the deepest nodes, in the last of fifteen blocks, round onto |z| = 1
        assert len(norms.block_edges(*_quadrature_shape(grid))) - 1 == 15
        with pytest.raises(DomainError) as want:
            whole(PowerSeries([0, 1]), a2, grid)
        with pytest.raises(DomainError) as got:
            blocked(PowerSeries([0, 1]), a2, grid)
        assert str(got.value) == str(want.value)


def _assert_the_rule_holds(rows: int, nodes: int) -> None:
    """Every block holds the floor unless the array is one block below it,
    and at most two floors and a row; row counts differ by at most one, and
    one block more would leave a block below the floor."""
    edges = norms.block_edges(rows, nodes)
    counts = np.diff(edges)
    sizes = counts * nodes
    assert edges[0] == 0 and edges[-1] == rows and min(sizes) > 0
    assert min(sizes) >= BLOCK or sizes.tolist() == [rows * nodes] and rows * nodes < BLOCK
    assert max(sizes) < 2 * BLOCK + nodes
    assert max(counts) - min(counts) <= 1
    assert rows // (len(counts) + 1) * nodes < BLOCK


class TestBlockRule:
    @given(depth=st.integers(4, 400), log_nodes=st.integers(6, 17), order=st.integers(8, 32))
    @settings(max_examples=300, deadline=None)
    def test_every_block_holds_the_floor_and_at_most_two_floors_and_a_row(self, depth, log_nodes, order):
        for rows in ((depth + 1) * order, norms.sample_radii(depth).size):  # quadrature rows, sample circles
            _assert_the_rule_holds(rows, 2**log_nodes)

    @given(rows=st.integers(1, 2000), nodes=st.integers(1, 2**17))
    @settings(max_examples=300, deadline=None)
    def test_any_row_length_keeps_its_blocks_at_the_floor(self, rows, nodes):
        _assert_the_rule_holds(rows, nodes)

    def test_a_block_one_row_short_of_the_floor_is_not_cut(self):
        # 9 rows of 4,000 points: two blocks would leave one of 4 rows, 16,000 points
        assert norms.block_edges(9, 4000) == [0, 9]
        assert norms.block_edges(10, 4000) == [0, 5, 10]

    def test_a_grid_below_two_floors_is_one_block(self):
        assert norms.block_edges(3, 2**12) == [0, 3]
        assert norms.block_edges(7, 2**12) == [0, 7]
        assert norms.block_edges(8, 2**12) == [0, 4, 8]


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
