import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from blochlab import (
    Affine,
    BlaschkeFactor,
    ComposedWithSelfMap,
    DomainError,
    FractionalKernel,
    MonomialPower,
    NonConvergentError,
    NormalWeight,
    PowerSeries,
    RadialGrid,
    SpaceSpec,
    Status,
    SymbolPair,
    bergman_type_norm,
    bloch_seminorm,
    boundary_profile,
    constant,
    derivative_form_norm,
    identity_map,
    little_bloch_profile,
    sw_integral_check,
    truncated_log_series,
)
from blochlab.norms import (
    TRIGGER_PHI,
    TRIGGER_Z,
    BandPartition,
    circle_maxima,
    pointwise_growth_envelope,
    derivative_growth_envelope,
    _bracket_abscissae,
    bracket_argmax,
    family_bloch_seminorm,
    one_minus_sq,
    profile_thresholds,
    radial_rule,
    sample_points,
    sample_radii,
    unit_norm_mass,
)
from blochlab.battery import CURATED
from blochlab.cli import parse_config
from blochlab.criteria import SampleTable
from blochlab.disk_functions import DiskFunction, FiniteBlaschkeProduct, SelfMap
from blochlab import oracle
from blochlab.oracle import boundary_chase_point, boundary_test_function, operator_apply
from golden_reference import (
    assert_same_profile,
    golden_argmax,
    golden_bloch_seminorm,
    reference_boundary_profile,
    scalar_bracket_argmax,
    scalar_chase,
    two_pass_family_bloch_seminorm,
)

small_polys = st.lists(
    st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=5,
).map(PowerSeries)


def u_tail_status(f, space, grid):
    """The little-Bloch tail verdict of ``f``, read as the multiplier's tail."""
    return SampleTable(SymbolPair(f, identity_map()), space, grid).u_tail.status


class TestRadialGrid:
    def test_validation(self):
        with pytest.raises(ValueError):
            RadialGrid(3, 128, 8)
        with pytest.raises(ValueError):
            RadialGrid(8, 100, 8)  # not a power of two
        with pytest.raises(ValueError):
            RadialGrid(8, 32, 8)
        with pytest.raises(ValueError):
            RadialGrid(8, 128, 4)


class TestBergmanTypeNorm:
    def test_constant_one(self, a2, grid):
        assert bergman_type_norm(constant(1), a2, grid) == pytest.approx(np.sqrt(0.5), rel=1e-12)

    def test_identity_function(self, a2, grid):
        assert bergman_type_norm(PowerSeries([0, 1]), a2, grid) == pytest.approx(0.5, rel=1e-12)

    def test_zero_function(self, a2, grid):
        assert bergman_type_norm(PowerSeries([0]), a2, grid) == 0.0

    def test_monomial_closed_form(self, grid):
        # ||z^n||^p with weight (1-r)^alpha: integral of r^(np+1) (1-r)^(alpha p - 1)
        space = SpaceSpec(3.0, NormalWeight(0.4, s=0.2, t=0.6))
        exact = quad(lambda r: r ** (2 * 3 + 1) * (1 - r) ** (0.4 * 3 - 1), 0, 1)[0]
        got = bergman_type_norm(PowerSeries([0, 0, 1]), space, grid)
        assert got == pytest.approx(exact ** (1 / 3), rel=1e-9)

    def test_refinement_stability_for_polynomials(self, a2):
        battery = [constant(1), PowerSeries([0, 1]), PowerSeries([1, 0.5j, 0, 2])]
        coarse = RadialGrid(12, 256, 8)
        fine = RadialGrid(24, 256, 16)
        for f in battery:
            a = bergman_type_norm(f, a2, coarse)
            b = bergman_type_norm(f, a2, fine)
            assert abs(a - b) <= 1e-6 * b

    def test_nonconvergent_when_growth_outruns_the_grid(self, a2, grid):
        # base point far deeper than the radial grid: the integrand still
        # grows through the deepest bands, so the norm is reported unresolved
        with pytest.raises(NonConvergentError):
            bergman_type_norm(FractionalKernel(1 - 2**-24, 5.0), a2, grid)

    @given(f=small_polys, c=st.complex_numbers(min_magnitude=1e-3, max_magnitude=4.0,
                                               allow_nan=False, allow_infinity=False))
    @settings(max_examples=25, deadline=None)
    def test_absolute_homogeneity(self, a2, f, c):
        base = bergman_type_norm(f, a2, RadialGrid(8, 64, 8))
        scaled = bergman_type_norm(c * f, a2, RadialGrid(8, 64, 8))
        assert scaled == pytest.approx(abs(c) * base, rel=1e-12, abs=1e-13)

    @given(f=small_polys, g=small_polys)
    @settings(max_examples=25, deadline=None)
    def test_triangle_inequality_at_p_two(self, a2, f, g):
        mesh = RadialGrid(8, 64, 8)
        lhs = bergman_type_norm(f + g, a2, mesh)
        rhs = bergman_type_norm(f, a2, mesh) + bergman_type_norm(g, a2, mesh)
        assert lhs <= rhs + 1e-9

    def test_quasinorm_regime_computes(self, grid):
        space = SpaceSpec(0.5, NormalWeight(2.0, s=1.0, t=3.0))
        assert bergman_type_norm(PowerSeries([1, 1]), space, grid) > 0


class TestDerivativeFormNorm:
    def test_identity_function(self, a2, grid):
        assert derivative_form_norm(PowerSeries([0, 1]), a2, grid) == pytest.approx(
            np.sqrt(1.0 / 3.0), rel=1e-12
        )

    def test_constants_agree_exactly_with_direct_form(self, a2, grid):
        # the point-evaluation term is calibrated so both norm forms agree on constants
        for c in (1.0, -2.5j, 0.3 + 0.4j):
            d = derivative_form_norm(constant(c), a2, grid)
            assert d == pytest.approx(bergman_type_norm(constant(c), a2, grid), rel=1e-12)
            assert d == pytest.approx(abs(c) * np.sqrt(unit_norm_mass(a2, grid)), rel=1e-12)

    def test_zero(self, a2, grid):
        assert derivative_form_norm(PowerSeries([0]), a2, grid) == 0.0

    def test_equivalence_ratio_over_battery(self, a2, grid):
        battery = [constant(1), PowerSeries([0, 1]), PowerSeries([0, 0, 1]),
                   PowerSeries([0, 0, 0, 0, 0, 1])]
        battery += [boundary_test_function(w, a2) for w in (0.0, 0.5, 0.9, 0.99)]
        ratios = [
            derivative_form_norm(f, a2, grid) / bergman_type_norm(f, a2, grid) for f in battery
        ]
        assert max(ratios) / min(ratios) <= 10.0


class TestBlochSeminorm:
    def test_identity(self, grid):
        assert bloch_seminorm(PowerSeries([0, 1]), grid) == pytest.approx(1.0)

    def test_constant(self, grid):
        assert bloch_seminorm(constant(3.0), grid) == 0.0

    def test_square_attained_inside(self, grid):
        assert bloch_seminorm(PowerSeries([0, 0, 1]), grid) == pytest.approx(
            4.0 / (3.0 * np.sqrt(3.0)), rel=1e-9
        )

    def test_cube(self, grid):
        # max of 3 r^2 (1 - r^2) over r
        assert bloch_seminorm(PowerSeries([0, 0, 0, 1]), grid) == pytest.approx(0.75, rel=1e-9)

    def test_moebius_invariance(self, grid):
        f = PowerSeries([0, 0, 1])
        base = bloch_seminorm(f, grid)
        for a in (0.4, -0.3 + 0.5j, 0.8j):
            composed = ComposedWithSelfMap(f, BlaschkeFactor(a))
            assert bloch_seminorm(composed, grid) == pytest.approx(base, rel=1e-2)


class TestGoldenArgmax:
    """The golden-section reference search, and the chase on a touching
    affine map."""

    @pytest.mark.parametrize(
        "fn,lo,hi,peak",
        [
            (lambda x: -((x - 0.3) ** 2), 0.0, 1.0, 0.3),
            # asymmetric: the slope is three times steeper right of the peak
            (lambda x: -(3.0 * (x - 0.7) if x > 0.7 else 0.7 - x), -1.0, 2.0, 0.7),
        ],
    )
    def test_finds_known_maximizer(self, fn, lo, hi, peak):
        x, value = golden_argmax(fn, lo, hi, 64)
        assert abs(x - peak) <= 1e-9
        assert value == fn(x)

    def test_degenerate_interval_returns_midpoint(self):
        calls = []

        def fn(x):
            calls.append(x)
            return 2.0 * x

        assert golden_argmax(fn, 0.25, 0.25, 64) == (0.25, 0.5)
        assert calls == [0.25]

    @pytest.mark.parametrize("depth", range(2, 13))
    def test_chase_of_touching_affine_map_lands_on_positive_axis(self, depth):
        # |z/2 + 1/2| on a circle is largest at z > 0
        (z,) = boundary_chase_point(Affine(0.5, 0.5), [depth])
        assert z.real > 0.0 and abs(z.imag) <= 1e-12
        assert abs(z) == pytest.approx(1.0 - 0.5**depth, rel=1e-15)


class TestBracketArgmax:
    @pytest.mark.parametrize(
        "fn,lo,hi,peak",
        [
            (lambda x: -((x - 0.3) ** 2), 0.0, 1.0, 0.3),
            # asymmetric: the slope is three times steeper right of the peak
            (lambda x: -np.where(x > 0.7, 3.0 * (x - 0.7), 0.7 - x), -1.0, 2.0, 0.7),
        ],
    )
    def test_finds_known_maximizer(self, fn, lo, hi, peak):
        (x,), (value,) = bracket_argmax(fn, np.array([lo]), np.array([hi]), 12)
        assert abs(x - peak) <= 1e-9
        assert value == fn(np.array([x]))[0]

    def test_degenerate_interval_returns_midpoint(self):
        calls = []

        def fn(x):
            calls.append(x.tolist())
            return 2.0 * x

        assert scalar_bracket_argmax(fn, 0.25, 0.25, 12) == (0.25, 0.5)
        assert calls == [[0.25]]
        xs, values = bracket_argmax(fn, np.array([0.25]), np.array([0.25]), 12)
        assert (xs.tolist(), values.tolist()) == ([0.25], [0.5])

    def test_rows_are_searched_as_scalar_calls_search_them(self):
        centers = np.array([0.3, -0.2, 1.7, 0.05])
        weights = np.array([1.0, 2.5, 0.5, 3.0])
        lo, hi = np.array([0.0, -1.0, 1.0, 0.0]), np.array([1.0, 0.5, 2.0, 0.05])

        def rows(x):
            return -np.where(x > centers[:, None], 3.0, 1.0) * weights[:, None] * np.abs(x - centers[:, None])

        xs, values = bracket_argmax(rows, lo, hi, 12)
        for m in range(centers.size):
            def one(x, m=m):
                return -np.where(x > centers[m], 3.0, 1.0) * weights[m] * np.abs(x - centers[m])

            assert (xs[m], values[m]) == scalar_bracket_argmax(one, lo[m], hi[m], 12)

    def test_row_abscissae_equal_linspace_bit_for_bit(self):
        rng = np.random.default_rng(5)
        lo = rng.uniform(-4.0, 4.0, 64)
        hi = lo + rng.uniform(0.0, 2.0, 64) * 10.0 ** rng.integers(-12, 2, 64)
        # degenerate rows, and a row whose step underflows to 0, which switches
        # linspace to another rounding for the whole batch
        flat_lo, flat_hi = np.array([0.3, -1.5, 0.0]), np.array([0.3, -1.5, 5e-324])
        assert np.any((flat_hi - flat_lo) / 32 == 0.0) and np.all((hi - lo) / 32 > 0.0)
        cases = [(lo, hi), (flat_lo, flat_hi), (np.concatenate([lo, flat_lo]), np.concatenate([hi, flat_hi])),
                 (np.array([0.25]), np.array([0.25]))]
        for a, b in cases:
            got, want = _bracket_abscissae(a, b), np.linspace(a, b, 33, axis=-1)
            assert got.shape == want.shape and np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_every_round_searches_linspace_abscissae(self):
        seen = []

        def fn(x):
            seen.append(x.copy())
            return -np.abs(x - np.array([0.3, -0.2, 0.7])[:, None])

        bracket_argmax(fn, np.array([0.0, -1.0, 0.7]), np.array([1.0, 0.5, 0.7]), 12)
        assert len(seen) == 12
        for xs in seen:
            want = np.linspace(xs[:, 0], xs[:, -1], 33, axis=-1)
            assert np.array_equal(xs.view(np.uint64), want.view(np.uint64))

    def test_seminorm_from_given_samples(self, grid):
        f = PowerSeries([0.2, 1.0, -0.5j, 0.3])
        radii, z = sample_points(grid.depth, grid.angular_nodes)
        samples = (1.0 - radii**2)[:, None] * np.abs(f.deriv(z))
        assert bloch_seminorm(f, grid, samples) == bloch_seminorm(f, grid)
        assert bloch_seminorm(f, grid, np.zeros_like(samples)) <= bloch_seminorm(f, grid)

    @pytest.mark.parametrize("name", ["half-scale", "blaschke-rotor", "boundary-touch"])
    def test_seminorm_of_oracle_members_matches_golden_section(self, name, a2):
        # the kernel images the oracle chases for k = 2 .. 12
        config = parse_config(CURATED[name]["config"])
        sym, grid = config.symbol, config.grid
        for z_star in boundary_chase_point(sym.phi, range(2, 13), grid.angular_nodes):
            w = complex(sym.phi.eval(z_star))
            member = operator_apply(sym, boundary_test_function(w, a2))
            reference = golden_bloch_seminorm(member, grid)
            assert bloch_seminorm(member, grid) == pytest.approx(reference, rel=1e-8, abs=0.0)

    @pytest.mark.parametrize("phi", [MonomialPower(2), MonomialPower(4), identity_map()],
                             ids=["z^2", "z^4", "identity"])
    def test_chase_keeps_the_grid_point_on_rotation_invariant_maps(self, phi):
        # |phi| is constant on each circle up to rounding; the refinement
        # must not move the chase off the grid argmax
        theta = 2.0 * np.pi * np.arange(128) / 128
        for k in range(2, 13):
            r = 1.0 - 0.5**k
            j = int(np.argmax(np.abs(phi.eval(r * np.exp(1j * theta)))))
            assert boundary_chase_point(phi, [k], 128)[0] == r * np.exp(1j * theta[j])


class TestBatchedChase:
    MAPS = {name: entry["config"]["symbol"]["phi"] for name, entry in sorted(CURATED.items())}

    @pytest.mark.parametrize("phi", [parse_config({"symbol": {"u": 1.0, "phi": spec}, "tasks": ["oracle"]}).symbol.phi
                                     for spec in MAPS.values()]
                             + [FiniteBlaschkeProduct([0.3 + 0.2j, -0.5j], 1j), MonomialPower(2),
                                MonomialPower(4), identity_map()],
                             ids=list(MAPS) + ["blaschke-product", "z^2", "z^4", "identity"])
    @pytest.mark.parametrize("nodes", [128, 512])
    def test_equals_the_scalar_chases_exactly(self, phi, nodes):
        depths = tuple(range(2, 13))
        batched = boundary_chase_point(phi, depths, nodes)
        assert batched.shape == (11,)
        for k, z in zip(depths, batched):
            assert z == boundary_chase_point(phi, [k], nodes)[0] == scalar_chase(phi, k, nodes)

    def test_rotation_invariant_maps_keep_the_grid_points(self):
        theta = 2.0 * np.pi * np.arange(128) / 128
        for phi in (MonomialPower(2), MonomialPower(4), identity_map()):
            for k, z in zip(range(2, 13), boundary_chase_point(phi, range(2, 13), 128)):
                r = 1.0 - 0.5**k
                assert z == r * np.exp(1j * theta[int(np.argmax(np.abs(phi.eval(r * np.exp(1j * theta)))))])

    def test_one_grid_call_and_one_call_per_round_for_all_depths(self, monkeypatch):
        counter = _CountingEvaluator(monkeypatch, SelfMap, "eval")
        boundary_chase_point(BlaschkeFactor(0.4), range(2, 13), 512)
        assert counter.scalar_calls == 0
        assert 0 < counter.calls <= 1 + 9


class TestMergedSearch:
    """``family_bloch_seminorm`` searches every member's radial and angular
    brackets as one ``bracket_argmax``; it must give the bytes of the
    two-pass search (radial, then angular) it replaced."""

    @staticmethod
    def families(case):
        """The oracle task's families on a curated config at its own grid:
        the chase kernels, their pinned differences and the composites of
        the constants battery, each as ``(modulus, members)``."""
        config = parse_config(CURATED[case]["config"])
        sym, space, grid = config.symbol, config.space, config.grid
        images = [complex(sym.phi.eval(z)) for z in boundary_chase_point(sym.phi, range(2, 13), grid.angular_nodes)]
        families = []
        for pinched in (False, True):
            kernels = oracle._family(images, space, pinched)
            families.append((lambda z, k=kernels: k.image_derivative_modulus(*sym.u.jet(z), *sym.phi.jet(z)),
                             [operator_apply(sym, kernels.member(m)) for m in range(len(kernels))]))
        for f in oracle.constants_battery(space, grid).functions:
            g = operator_apply(sym, f)
            families.append((lambda z, g=g: np.abs(g.deriv(z)), [g]))
        return grid, families

    @staticmethod
    def both(modulus, members, grid):
        radii, z = sample_points(grid.depth, grid.angular_nodes)
        samples = [one_minus_sq(radii)[:, None] * np.abs(g.deriv(z)) for g in members]
        return (family_bloch_seminorm(modulus, iter(samples), grid),
                two_pass_family_bloch_seminorm(modulus, iter(samples), grid))

    @pytest.mark.parametrize("case", sorted(CURATED))
    def test_curated_families_equal_the_two_pass_search(self, case):
        grid, families = self.families(case)
        for modulus, members in families:
            merged, two_pass = self.both(modulus, members, grid)
            assert merged.shape == (len(members),)
            assert merged.tobytes() == two_pass.tobytes()

    def test_degenerate_brackets_equal_the_two_pass_search(self, grid):
        # grid argmax on the first circle (radius 0, whose radial bracket
        # starts at 0) and on the outermost circle (whose bracket ends
        # halfway to the boundary), next to interior ones
        kernels = FractionalKernel([0.0, 0.5, 1.0 - 2.0**-20, -(1.0 - 2.0**-24), 0.3j], 2.0, [1.0] * 5)
        members = [PowerSeries([0.0, 1.0])] + [kernels.member(m) for m in range(len(kernels))]
        radii, z = sample_points(grid.depth, grid.angular_nodes)
        rows = [np.unravel_index(int(np.argmax(one_minus_sq(radii)[:, None] * np.abs(g.deriv(z)))), z.shape)[0]
                for g in members]
        assert rows[0] == 0 and rows[3] == rows[4] == radii.size - 1

        shapes = []

        def modulus(points):
            shapes.append(points.shape)
            return np.stack([np.abs(g.deriv(row)).reshape(row.shape) for g, row in zip(members, points)])

        merged, two_pass = self.both(modulus, members, grid)
        assert merged.tobytes() == two_pass.tobytes()
        # 12 merged rounds of 33 radial and 33 angular points per member, then the reference's 2 x 12
        assert shapes == [(6, 66)] * 12 + [(6, 33)] * 24


class _CountingEvaluator:
    """Test double that counts top-level calls of ``owner.attr``."""

    def __init__(self, monkeypatch, owner, attr):
        original = getattr(owner, attr)
        self.calls = 0
        self.scalar_calls = 0

        def counted(obj, z):
            self.calls += 1
            self.scalar_calls += np.ndim(z) == 0
            return original(obj, z)

        monkeypatch.setattr(owner, attr, counted)


class TestVectorizedSearchCallCounts:
    def test_bloch_seminorm_makes_one_grid_call_and_one_call_per_round(self, monkeypatch, a2, grid):
        f = operator_apply(parse_config(CURATED["half-scale"]["config"]).symbol,
                           boundary_test_function(0.45, a2))
        counter = _CountingEvaluator(monkeypatch, DiskFunction, "deriv")
        bloch_seminorm(f, grid)
        assert counter.scalar_calls == 0
        assert counter.calls == 1 + 12  # the grid, then one call per round for both directions

    def test_family_seminorm_makes_one_grid_call_per_member_and_one_call_per_round(self, monkeypatch, a2, grid):
        sym = parse_config(CURATED["boundary-touch"]["config"]).symbol
        kernels = FractionalKernel([0.2, 0.5j, 0.9, -0.99], 2.5, [1.0, 0.5, 0.1, 0.01])
        members = [operator_apply(sym, kernels.member(m)) for m in range(4)]
        image = operator_apply(sym, kernels)
        radii, z = sample_points(grid.depth, grid.angular_nodes)
        counter = _CountingEvaluator(monkeypatch, DiskFunction, "deriv")
        samples = (one_minus_sq(radii)[:, None] * np.abs(g.deriv(z)) for g in members)
        family = family_bloch_seminorm(lambda points: np.abs(image.deriv(points)), samples, grid)
        assert counter.scalar_calls == 0
        assert counter.calls == 4 + 12
        monkeypatch.undo()
        assert family.tolist() == [bloch_seminorm(g, grid) for g in members]

    def test_chase_makes_one_grid_call_and_one_call_per_round(self, monkeypatch):
        counter = _CountingEvaluator(monkeypatch, SelfMap, "eval")
        boundary_chase_point(BlaschkeFactor(0.4), [8], 512)
        assert counter.scalar_calls == 0
        assert 0 < counter.calls <= 1 + 9


class TestRadialRule:
    @pytest.mark.parametrize("scale", [1.0, np.pi])
    def test_scaled_rule_integrates_polynomials_on_its_interval(self, scale):
        x, w, band = radial_rule(10, 8, 1.0, scale)
        assert np.all((x > 0.0) & (x < scale))
        assert np.sum(w) == pytest.approx(scale, rel=1e-13)
        assert np.sum(w * x**3) == pytest.approx(scale**4 / 4.0, rel=1e-13)
        assert band.max() == 10


class TestBoundaryProfiles:
    def test_values_nonincreasing_and_band_bookkeeping(self):
        rng = np.random.default_rng(3)
        mod = rng.uniform(0.0, 1.0, 4000)
        q = rng.uniform(0.0, 5.0, 4000)
        prof = boundary_profile(q, mod, 10)
        vals = prof.nonempty_values
        assert np.all(np.diff(vals) <= 0)
        finite_bands = prof.band_values[np.isfinite(prof.band_values)]
        assert finite_bands.size > 0

    def test_empty_regions_flagged(self):
        mod = np.full(100, 0.6)
        q = np.ones(100)
        prof = boundary_profile(q, mod, 8)
        assert not prof.empty[0]
        assert prof.empty[2:].all()

    def test_little_bloch_for_identity(self, a2, grid):
        f = PowerSeries([0, 1])
        prof = little_bloch_profile(f, grid)
        radii = sample_radii(grid.depth)
        # the sup past delta_k sits at the first sampled radius beyond it
        for k, delta in enumerate(prof.thresholds):
            r_first = radii[radii > delta][0]
            assert prof.values[k] == pytest.approx(1 - r_first**2, rel=1e-12)
        assert u_tail_status(f, a2, grid) is Status.HOLDS

    def test_truncated_log_series_is_little_bloch(self, a2, grid):
        assert u_tail_status(truncated_log_series(32), a2, grid) is Status.HOLDS

    def test_constant_is_little_bloch(self, a2, grid):
        assert u_tail_status(constant(2.0), a2, grid) is Status.HOLDS

    def test_concentrated_kernel_needs_depth(self, a2):
        # the derivative peak of this kernel sits at gap about 0.1; shallow
        # grids still see the plateau, K >= 20 resolves the decay
        f = FractionalKernel(0.9, 1.0)
        shallow = RadialGrid(14, 256, 8)
        deep = RadialGrid(20, 256, 8)
        assert u_tail_status(f, a2, shallow) is not Status.HOLDS
        assert u_tail_status(f, a2, deep) is Status.HOLDS


_NODES = 24  # samples per circle in the synthetic tables


def _samples(kind: str, shape, rng) -> np.ndarray:
    """Synthetic quantity samples of one kind, ``shape = (circles, nodes)``."""
    q = rng.uniform(0.0, 5.0, shape)
    if kind == "ties":  # few distinct values, signed zeros among them
        q = rng.choice(np.array([-0.0, 0.0, 1.0, 2.0]), shape)
    elif kind == "zeros":
        q = np.zeros(shape)
    elif kind == "rounded":
        q = np.round(q, 1)
    elif kind == "nan":
        q[rng.uniform(size=shape) < 0.05] = np.nan
    elif kind == "inf":
        q[rng.uniform(size=shape) < 0.03] = np.inf
        q[rng.uniform(size=shape) < 0.03] = -np.inf
    elif kind == "all_nan_circles":
        q[rng.uniform(size=shape[0]) < 0.3] = np.nan
    return q


def _phi_modulus(depth: int, size: int, rng, reach: float) -> np.ndarray:
    """Moduli spread over the bands up to about ``reach * depth`` (deeper
    bands stay empty), with exact thresholds, values below the first one,
    1.0 and NaN among them."""
    gaps = 2.0 ** -rng.uniform(0.0, reach * (depth + 2), size)
    mod = 1.0 - gaps
    delta = profile_thresholds(depth)
    picks = rng.integers(0, size, 6 * depth)
    mod[picks[: 2 * depth]] = delta[rng.integers(0, int(reach * depth) or 1, 2 * depth)]
    mod[picks[2 * depth: 3 * depth]] = rng.uniform(0.0, 0.5, depth)
    if reach >= 1.0:
        mod[picks[3 * depth]] = 1.0
        mod[picks[3 * depth + 1]] = np.nan
    return mod


DATA_KINDS = ("random", "ties", "zeros", "rounded", "nan", "inf", "all_nan_circles")


def _bands(partition: BandPartition) -> list:
    """Each band's flat indices, read from the partition's layout."""
    order, starts, counts = partition.layout
    return [order[a:a + c] for a, c in zip(starts, counts)]


class TestBoundaryProfileReference:
    """``boundary_profile``, with or without a shared partition, and the
    per-circle reduction reproduce the one-scan-per-band reference exactly."""

    @pytest.mark.parametrize("depth", [4, 5, 13, 40, 48])
    @pytest.mark.parametrize("kind", DATA_KINDS)
    def test_z_trigger_from_flat_samples_and_from_circle_maxima(self, depth, kind):
        rng = np.random.default_rng([depth, DATA_KINDS.index(kind)])
        radii = sample_radii(depth)
        q = _samples(kind, (radii.size, _NODES), rng)
        flat_z = np.broadcast_to(radii[:, None], q.shape).ravel()
        want = reference_boundary_profile(q, flat_z, depth, TRIGGER_Z)
        assert_same_profile(boundary_profile(q, flat_z, depth, TRIGGER_Z), want)
        assert_same_profile(boundary_profile(circle_maxima(q), radii, depth, TRIGGER_Z), want)

    @pytest.mark.parametrize("depth", [4, 5, 13, 40, 48])
    @pytest.mark.parametrize("kind", DATA_KINDS)
    @pytest.mark.parametrize("reach", [1.0, 0.5])
    def test_phi_trigger_with_and_without_a_shared_partition(self, depth, kind, reach):
        rng = np.random.default_rng([depth, DATA_KINDS.index(kind), int(4 * reach)])
        shape = (2 * (depth + 1), _NODES)
        mod = _phi_modulus(depth, shape[0] * shape[1], rng, reach)
        partition = BandPartition(mod, depth)
        for _ in range(2):  # two quantities over one modulus
            q = _samples(kind, shape, rng).ravel()
            want = reference_boundary_profile(q, mod, depth, TRIGGER_PHI)
            assert_same_profile(boundary_profile(q, mod, depth, TRIGGER_PHI), want)
            assert_same_profile(boundary_profile(q, mod, depth, TRIGGER_PHI, partition), want)
        if reach < 1.0:
            assert want.empty[-1]

    @pytest.mark.parametrize("trigger", [TRIGGER_Z, TRIGGER_PHI])
    def test_no_samples(self, trigger):
        assert_same_profile(boundary_profile((), (), 8, trigger), reference_boundary_profile((), (), 8, trigger))
        assert boundary_profile((), (), 8, trigger).empty.all()

    def test_partition_bands_hold_the_band_members_in_flat_order(self):
        rng = np.random.default_rng(5)
        depth = 12
        mod = _phi_modulus(depth, 5000, rng, 1.0)
        band_idx = np.searchsorted(profile_thresholds(depth), mod, side="left") - 1
        bands = _bands(BandPartition(mod, depth))
        assert len(bands) == depth
        for k, sel in enumerate(bands):
            assert np.array_equal(sel, np.nonzero(band_idx == k)[0])

    @pytest.mark.parametrize("depth", range(1, 53))
    def test_partition_bands_equal_searchsorted_at_every_depth(self, depth):
        # the band index is read from the gap's exponent; searchsorted is the reference
        delta = profile_thresholds(depth)
        special = [0.0, -0.0, 0.5, 1.0, 2.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, np.nextafter(1.0, 0.0)]
        rng = np.random.default_rng(depth)
        mod = np.concatenate([delta, np.nextafter(delta, np.inf), np.nextafter(delta, -np.inf), special,
                              rng.uniform(-0.5, 1.5, 500), 1.0 - 2.0 ** -rng.uniform(0.0, 60.0, 500)])
        slot = np.searchsorted(delta, mod, side="left")
        bands = _bands(BandPartition(mod, depth))
        assert len(bands) == depth
        for k, sel in enumerate(bands):
            assert np.array_equal(sel, np.nonzero(slot == k + 1)[0])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from([-0.0, 0.0, 1.0, -1.0, np.nan, np.inf, -np.inf]), min_size=1, max_size=12))
def test_nested_values_keep_the_deepest_of_equal_signed_zeros(band_values):
    # one sample per band, so each band's value is the sample itself
    depth = len(band_values)
    mod = np.nextafter(profile_thresholds(depth), np.inf)
    want = reference_boundary_profile(band_values, mod, depth, TRIGGER_PHI)
    assert_same_profile(boundary_profile(band_values, mod, depth, TRIGGER_PHI), want)


class TestProfileDict:
    """``BoundaryProfile.to_dict``: built once per profile, and equal to the
    cell-by-cell conversion."""

    def test_cells_equal_the_cell_by_cell_conversion(self):
        rng = np.random.default_rng(3)
        q = _samples("inf", (2 * 41, _NODES), rng).ravel()
        prof = boundary_profile(q, _phi_modulus(40, q.size, rng, 0.5), 40, TRIGGER_PHI)
        prof.band_values[:3] = [np.nan, np.inf, -np.inf]

        def cell(v):
            return None if not np.isfinite(v) else float(v)

        want = {
            "trigger": TRIGGER_PHI,
            "thresholds": [float(d) for d in prof.thresholds],
            "values": [cell(v) for v in prof.values],
            "band_values": [cell(v) for v in prof.band_values],
            "band_moduli": [cell(v) for v in prof.band_moduli],
            "empty": [bool(e) for e in prof.empty],
        }
        got = prof.to_dict()
        assert repr(got) == repr(want)
        assert None in got["values"] and got["band_values"][:3] == [None, None, None]

    def test_one_dict_per_profile(self):
        mod = np.linspace(0.0, 0.999, 300)
        a, b = boundary_profile(mod, mod, 12, TRIGGER_PHI), boundary_profile(mod, mod, 12, TRIGGER_PHI)
        assert a.to_dict() is a.to_dict()
        assert a.to_dict() == b.to_dict() and a.to_dict()["thresholds"] is not b.to_dict()["thresholds"]

    def test_a_partition_of_another_modulus_is_refused(self):
        mod = np.linspace(0.0, 0.999, 100)
        with pytest.raises(ValueError, match="partition"):
            boundary_profile(np.ones(100), mod, 8, TRIGGER_PHI, BandPartition(mod, 9))
        with pytest.raises(ValueError, match="partition"):
            boundary_profile(np.ones(100), mod, 8, TRIGGER_PHI, BandPartition(mod[:50], 8))

    @pytest.mark.parametrize("f", [PowerSeries([0, 1]), truncated_log_series(32), FractionalKernel(0.9, 1.0)],
                             ids=["identity", "log_series", "kernel"])
    def test_little_bloch_profile(self, f, grid):
        radii, z = sample_points(grid.depth, grid.angular_nodes)
        g = one_minus_sq(radii)[:, None] * np.abs(f.deriv(z))
        flat_z = np.broadcast_to(radii[:, None], g.shape)
        assert_same_profile(little_bloch_profile(f, grid), reference_boundary_profile(g, flat_z, grid.depth))

    def test_circle_maxima_keep_the_first_maximum_of_each_circle(self):
        q = np.array([[0.0, -0.0, 0.0], [-0.0, 0.0, 0.0], [1.0, np.nan, np.nan], [2.0, 3.0, 3.0]])
        got = circle_maxima(q)
        assert got.tobytes() == np.array([0.0, -0.0, np.nan, 3.0]).tobytes()


class TestIntegralInequality:
    def test_closed_form_beta_zero_m_two(self, grid):
        for rho in (0.5, 0.9):
            numeric, bound = sw_integral_check(0.0, 2.0, rho, grid)
            assert numeric == pytest.approx(1.0 / (1.0 - rho), rel=1e-12)
            assert bound == pytest.approx(1.0 / (1.0 - rho), rel=1e-12)

    def test_small_rho_limit(self, grid):
        for beta in (0.0, 0.5, -0.5):
            numeric, bound = sw_integral_check(beta, 2.0 + beta, 1e-9, grid)
            assert numeric == pytest.approx(1.0 / (1.0 + beta), rel=1e-6)
            assert bound == pytest.approx(1.0, rel=1e-6)

    @pytest.mark.parametrize("beta,m,rho", [(0.5, 2.0, 0.97), (-0.5, 1.0, 0.9), (1.0, 3.0, 0.99)])
    def test_against_adaptive_quadrature(self, grid, beta, m, rho):
        numeric, _ = sw_integral_check(beta, m, rho, grid)
        reference = quad(
            lambda r: (1 - r) ** beta / (1 - rho * r) ** m, 0, 1, points=[1.0], limit=200
        )[0]
        assert numeric == pytest.approx(reference, rel=1e-8)

    def test_parameter_validation(self, grid):
        with pytest.raises(DomainError):
            sw_integral_check(-1.0, 2.0, 0.5, grid)
        with pytest.raises(DomainError):
            sw_integral_check(0.5, 1.2, 0.5, grid)
        with pytest.raises(DomainError):
            sw_integral_check(0.0, 2.0, 1.0, grid)


class TestEnvelopes:
    def test_envelopes_finite_and_stable_for_identity(self, a2):
        f = PowerSeries([0, 1])
        vals = []
        for depth in (14, 18):
            mesh = RadialGrid(depth, 256, 10)
            norm = bergman_type_norm(f, a2, mesh)
            vals.append(
                (
                    pointwise_growth_envelope(f, a2, mesh) / norm,
                    derivative_growth_envelope(f, a2, mesh) / norm,
                )
            )
        for a, b in zip(vals[0], vals[1]):
            assert abs(a - b) <= 0.02 * max(a, b)
