import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blochlab import (
    FractionalKernel,
    MonomialPower,
    NormalWeight,
    PowerSeries,
    Product,
    RadialGrid,
    Scaled,
    SpaceSpec,
    Sum,
    SymbolPair,
    bergman_type_norm,
    bloch_seminorm,
    boundary_test_function,
    compactness_probe,
    constant,
    identity_map,
    lower_bound_trend,
    operator_apply,
    vanishing_test_function,
)
from blochlab import norms, oracle
from blochlab.battery import CURATED, random_pairs
from blochlab.cli import parse_config, run as cli_run
from blochlab.disk_functions import DiskFunction, FiniteBlaschkeProduct, SelfMap
from blochlab.norms import sample_points
from blochlab.oracle import chain_constant, kernel_family_norm
from blochlab.criteria import classify_bounded_into_bloch
from golden_reference import high_order_kernel_norm, reference_kernel_family_norm, reference_oracle_task


def chase_members(sym, grid):
    """The chase points ``z*`` of an oracle task on ``grid`` and their images ``phi(z*)``."""
    points = oracle.boundary_chase_point(sym.phi, oracle.CHASE_DEPTHS, grid.angular_nodes)
    return points, [complex(w) for w in sym.phi.eval(points)]


class TestBoundaryKernels:
    def test_central_base_degenerates_to_constant(self, a2):
        f = boundary_test_function(0.0, a2)
        for z in (0.0, 0.4j, -0.6):
            assert f.eval(z) == pytest.approx(1.0)

    def test_parameters_fold_in_the_witness(self, a2):
        f = boundary_test_function(0.5, a2)
        assert isinstance(f, FractionalKernel)
        assert f.exponent == pytest.approx(0.5 + 0.75 + 1.0)
        assert f.scale == pytest.approx(0.75**1.75 / np.sqrt(0.5))

    def test_norm_sweep_uniformly_bounded(self, a2, grid):
        mods = [0.0, 0.5, 0.9, 0.99, 1 - 2**-8, 1 - 2**-10, 1 - 2**-12]
        norms = [kernel_family_norm(m, a2, grid) for m in mods]
        assert max(norms) / min(norms) <= 10.0
        tail = norms[-3:]
        # approach to the boundary limit, not unbounded growth
        assert tail[2] <= tail[1] * 1.02 and tail[1] <= tail[0] * 1.02

    def test_fast_path_matches_generic_quadrature(self, a2):
        # same integral through two independent angular treatments
        for mod, angular in ((0.5, 512), (0.9, 512), (1 - 2**-8, 8192)):
            generic = bergman_type_norm(
                boundary_test_function(mod, a2), a2, RadialGrid(16, angular, 12)
            )
            assert kernel_family_norm(mod, a2) == pytest.approx(generic, rel=1e-7)

    @pytest.mark.parametrize("shape", [(12, 128, 8), (16, 512, 12)], ids=str)
    @pytest.mark.parametrize("space", [SpaceSpec.bergman(2), SpaceSpec.bergman(1),
                                       SpaceSpec(2.0, NormalWeight(0.5, -1.0, 0.25, 0.75))],
                             ids=["A2", "A1", "log"])
    def test_norm_equals_the_uncached_body_bit_for_bit(self, shape, space):
        grid = RadialGrid(*shape)
        for _ in range(2):  # the first pass may fill the rule caches, the second reads them
            for mod in (0.0, 0.5, 1.0 - 2.0**-30):
                assert kernel_family_norm(mod, space, grid).hex() == reference_kernel_family_norm(mod, space, grid).hex()

    def test_rule_caches_are_keyed_on_the_grid_and_space_only(self, monkeypatch):
        keys = {"_weighted_rule": [], "_kernel_angular_rule": []}
        for name, called in keys.items():
            def spy(*args, cached=getattr(norms, name), called=called):
                called.append(args)
                out = cached(*args)
                assert not any(arr.flags.writeable for arr in out)
                return out

            monkeypatch.setattr(norms, name, spy)
        for name in ("half-scale", "boundary-touch"):
            config = parse_config(CURATED[name]["config"])
            oracle.oracle_task(config.symbol, config.space, config.grid, None)
        # the radial rule on (space, depth, panel_order), the angular rule on j_max alone
        assert [len(args) for args in keys["_weighted_rule"]] == [3] * 2 * len(oracle.CHASE_DEPTHS)
        assert [len(args) for args in keys["_kernel_angular_rule"]] == [1] * 2 * len(oracle.CHASE_DEPTHS)
        assert all(type(key) is int or type(key) is SpaceSpec for called in keys.values()
                   for args in called for key in args)

    @pytest.mark.parametrize("shape", [(12, 128, 8), (16, 512, 12), (40, 2048, 12), (16, 512, 32)], ids=str)
    def test_norm_is_within_1e_12_of_the_high_order_rule(self, shape):
        # order 8, 2 levels past the peak, against order 32, 14 levels past it
        grid = RadialGrid(*shape)
        spaces = [SpaceSpec.bergman(1), SpaceSpec.bergman(2), SpaceSpec.bergman(4),
                  SpaceSpec(2.0, NormalWeight(0.5, -1.0, 0.25, 0.75)),
                  SpaceSpec(2.0, NormalWeight(1.5, 1.0, 0.4, 2.0))]
        mods = [0.0, 0.3, 0.5, 0.9, 0.99] + [1.0 - 2.0**-k for k in (8, 12, 16, 20, 25, 30)]
        for space in spaces:
            for mod in mods:
                reference = high_order_kernel_norm(mod, space, grid)
                assert kernel_family_norm(mod, space, grid) == pytest.approx(reference, rel=1e-12, abs=0)

    def test_norm_depends_only_on_base_modulus(self, a2, grid):
        a = bergman_type_norm(boundary_test_function(0.7, a2), a2, grid)
        b = bergman_type_norm(boundary_test_function(0.7j, a2), a2, grid)
        assert a == pytest.approx(b, rel=1e-12)


class TestVanishingKernels:
    @pytest.mark.parametrize("mod", [0.0, 0.5, 0.9, 0.99, 1 - 2**-8, 1 - 2**-12])
    def test_identities_at_base_point(self, a2, mod):
        for ang in (0.0, 1.3, 3.7):
            q = mod * np.exp(1j * ang)
            g = vanishing_test_function(q, a2)
            assert abs(g.eval(q)) <= 1e-10
            expected = np.conj(q) / (a2.weight(abs(q)) * (1 - abs(q) ** 2) ** 1.5)
            if expected == 0:
                assert abs(g.deriv(q)) <= 1e-10
            else:
                assert abs(g.deriv(q) - expected) <= 1e-10 * abs(expected)

    def test_norms_bounded_over_sweep(self, a2, grid):
        mods = [0.5, 0.9, 1 - 2**-8]
        norms = [bergman_type_norm(vanishing_test_function(m, a2), a2, grid) for m in mods]
        assert max(norms) <= 10 * max(min(norms), 0.1)


class TestOperatorApply:
    def test_identity_operator(self, grid):
        sym = SymbolPair(constant(1), identity_map())
        f = PowerSeries([0.5, -1j, 2])
        g = operator_apply(sym, f)
        _, z = sample_points(10, 128)
        assert np.max(np.abs(g.eval(z) - f.eval(z))) <= 1e-14

    def test_zero_multiplier(self):
        sym = SymbolPair(constant(0), identity_map())
        g = operator_apply(sym, PowerSeries([1, 1]))
        assert g.eval(0.3 + 0.2j) == 0.0

    def test_monomial_composition(self, grid):
        # u = z, phi = z^2 applied to z gives z^3
        sym = SymbolPair(PowerSeries([0, 1]), MonomialPower(2))
        g = operator_apply(sym, PowerSeries([0, 1]))
        assert g.eval(0.5j) == pytest.approx((0.5j) ** 3)
        assert bloch_seminorm(g, grid) == pytest.approx(0.75, rel=1e-9)

    @given(
        a=st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False),
        r=st.floats(0.0, 0.9),
        ang=st.floats(0.0, 2 * np.pi),
    )
    @settings(max_examples=40, deadline=None)
    def test_linearity(self, a, r, ang):
        z = r * np.exp(1j * ang)
        sym = SymbolPair(PowerSeries([0.5, 1]), MonomialPower(2, 0.9))
        f, g = PowerSeries([1, 2, 3]), FractionalKernel(0.4, 1.5)
        lhs = operator_apply(sym, Sum((Scaled(a, f), g))).eval(z)
        rhs = a * operator_apply(sym, f).eval(z) + operator_apply(sym, g).eval(z)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


class TestLowerBounds:
    def test_stable_trend_for_strict_map(self, a2, fast_grid):
        sym = SymbolPair(constant(1), MonomialPower(1, 0.5))
        trend = lower_bound_trend(sym, a2, fast_grid)
        assert trend.classification == "stable"
        assert trend.values[-1] <= 1.05 * trend.values[-2]

    def test_divergent_trend_for_identity(self, a2, fast_grid):
        trend = lower_bound_trend(SymbolPair(constant(1), identity_map()), a2, fast_grid)
        assert trend.classification == "divergent"
        assert trend.values[0] < trend.values[1] < trend.values[2]


class TestCompactnessProbe:
    def test_vacuous_for_strict_map(self, a2, fast_grid):
        sym = SymbolPair(constant(1), MonomialPower(1, 0.5))
        probe = compactness_probe(sym, a2, fast_grid)
        assert probe.kind == "vacuous"
        assert probe.trend == "vacuous"

    def test_zero_multiplier(self, a2, fast_grid):
        sym = SymbolPair(constant(0), identity_map())
        probe = compactness_probe(sym, a2, fast_grid)
        assert probe.kind == "probe"
        assert probe.trend == "zero"

    def test_identity_probe_bounded_away(self, a2, fast_grid):
        sym = SymbolPair(constant(1), identity_map())
        probe = compactness_probe(sym, a2, fast_grid)
        assert probe.trend == "bounded_away"
        assert min(probe.vanishing_values[-3:]) > 0.1 * max(probe.vanishing_values)


class TestChainConstant:
    def test_finite_on_bounded_pair(self, a2, fast_grid):
        sym = SymbolPair(PowerSeries([0.5, 1]), MonomialPower(1, 0.5))
        outcome = classify_bounded_into_bloch(sym, a2, fast_grid)
        assert outcome.overall
        functions = [constant(1), PowerSeries([0, 1]), boundary_test_function(0.5, a2)]
        norms = [bergman_type_norm(f, a2, fast_grid) for f in functions]
        sups = tuple(v.sup_estimate for v in outcome.verdicts[:2])
        c = chain_constant(sym, a2, fast_grid, (functions, norms, *sups))
        assert c is not None and 0 < c < 50

    def test_takes_the_norms_it_is_given(self, a2, fast_grid, monkeypatch):
        sym = SymbolPair(PowerSeries([0.5, 1]), MonomialPower(1, 0.5))
        functions = [constant(1), PowerSeries([0, 1])]
        norms = [bergman_type_norm(f, a2, fast_grid) for f in functions]
        expected = chain_constant(sym, a2, fast_grid, (functions, norms, 1.0, 2.0))

        def forbidden(*args):
            raise AssertionError("chain_constant computed a norm")

        monkeypatch.setattr(oracle, "bergman_type_norm", forbidden)
        assert chain_constant(sym, a2, fast_grid, (functions, norms, 1.0, 2.0)) == expected
        doubled = (functions, [2 * n for n in norms], 1.0, 2.0)
        assert chain_constant(sym, a2, fast_grid, doubled) == 0.5 * expected

    def test_skipped_when_sups_divergent(self, a2, fast_grid):
        sym = SymbolPair(constant(1), identity_map())
        chain = ([constant(1)], [1.0], float("inf"), 1.0)
        c = chain_constant(sym, a2, fast_grid, chain)
        assert c is None


class TestChainConstantSamples:
    """The chain constant reads the symbol's jets on the grid and must give the
    bytes of one ``bloch_seminorm`` per power of the battery, and of one
    ``family_bloch_seminorm`` over the closed-form modulus for its kernel."""

    @staticmethod
    def kernel_seminorm(sym, kernel, grid) -> float:
        radii, z = sample_points(grid.depth, grid.angular_nodes)
        samples = norms.one_minus_sq(radii)[:, None] * kernel.image_derivative_modulus(*sym.jets(z))
        return float(norms.family_bloch_seminorm(lambda points: kernel.image_derivative_modulus(*sym.jets(points)),
                                                 [norms.grid_peak(samples)], grid)[0])

    @pytest.mark.parametrize("case", sorted(CURATED))
    def test_equals_the_seminorms_of_the_composites(self, case):
        config = parse_config(CURATED[case]["config"])
        sym, space, grid = config.symbol, config.space, config.grid
        battery = oracle.constants_battery(space, grid)
        s1, s2 = 1.25, 0.5
        *powers, kernel = battery.functions
        assert all(isinstance(f, PowerSeries) for f in powers) and isinstance(kernel, FractionalKernel)
        semis = [bloch_seminorm(operator_apply(sym, f), grid) for f in powers] + [self.kernel_seminorm(sym, kernel, grid)]
        expected = max(semi / (n * (s1 + s2)) for semi, n in zip(semis, battery.norms))
        assert chain_constant(sym, space, grid, (battery.functions, battery.norms, s1, s2)) == expected

    def test_an_oracle_task_evaluates_u_and_phi_on_the_grid_once(self, monkeypatch):
        config = parse_config(dict(CURATED["boundary-touch"]["config"], tasks=["bounded_bloch", "oracle"]))
        sym, grid = config.symbol, config.grid
        _, z = sample_points(grid.depth, grid.angular_nodes)
        on_grid = []

        def counted(pair, points, jets=SymbolPair.jets):
            if np.ndim(points) == 2 and np.shape(points)[1] == z.shape[1]:  # whole sample circles
                on_grid.append(np.size(points))
            return jets(pair, points)

        monkeypatch.setattr(SymbolPair, "jets", counted)
        alone = []
        for owner in (DiskFunction, SelfMap):
            def counted_alone(obj, points, jet=owner.jet):
                if np.shape(points) == z.shape:
                    alone.append(obj)
                return jet(obj, points)

            monkeypatch.setattr(owner, "jet", counted_alone)
        report = cli_run(config)
        assert report.results["constants"]["chain_constant"] is not None
        # one evaluation of u and phi for the classifier's sample table (in blocks of
        # circles) and one for the oracle task, each through SymbolPair.jets
        assert len(on_grid) >= 2 and sum(on_grid) == 2 * z.size
        assert sym.u not in alone and sym.phi not in alone


class TestOneSearch:
    """An oracle task refines its trend, probe and chain constant in one
    search; each, and each view of it, must read as the row groups give it
    when searched apart (``reference_oracle_task``)."""

    @staticmethod
    def assert_views_equal_the_reference(sym, space, grid, chain=None) -> tuple:
        want = reference_oracle_task(sym, space, grid, chain)
        # repr is exact for floats, signed zeros included
        assert repr(oracle.oracle_task(sym, space, grid, chain)) == repr(want)
        assert repr(lower_bound_trend(sym, space, grid)) == repr(want[0])
        assert repr(compactness_probe(sym, space, grid)) == repr(want[1])
        if chain is not None:
            assert repr(chain_constant(sym, space, grid, chain)) == repr(want[2])
        return want

    @pytest.mark.parametrize("case", sorted(CURATED))
    def test_entry_and_chain_constant_equal_the_separate_calls(self, case):
        config = parse_config(CURATED[case]["config"])
        sym, space, grid = config.symbol, config.space, config.grid
        report = cli_run(config)
        bounded = report.results["tasks"]["bounded_bloch"]
        battery = oracle.constants_battery(space, grid)
        chain = None
        if bounded["overall"]:
            chain = (battery.functions, battery.norms, *(v["sup_estimate"] for v in bounded["verdicts"]))
        trend, probe, constant = self.assert_views_equal_the_reference(sym, space, grid, chain)
        entry = report.results["tasks"]["oracle"]
        assert repr(entry["lower_bound"]) == repr(trend.to_dict())
        assert repr(entry["compactness_probe"]) == repr(probe.to_dict())
        assert repr(report.results["constants"]["chain_constant"]) == repr(constant)

    @pytest.mark.parametrize("sym", [pytest.param(sym, id=label) for label, sym in random_pairs(3, 8)])
    def test_random_pairs_equal_the_separate_searches(self, sym):
        # the grid and space of the trends of acceptance criterion 8
        self.assert_views_equal_the_reference(sym, SpaceSpec.bergman(2), RadialGrid(12, 128, 8))

    @pytest.mark.parametrize("case, rows, taken", [("boundary-touch", 11 + 11 + 4, 12), ("blaschke-rotor", 11 + 11, 12),
                                                   ("zero-multiplier", 11, 1)])
    def test_a_task_makes_one_refinement_search_besides_the_chase(self, case, rows, taken, monkeypatch):
        config = parse_config(dict(CURATED[case]["config"], tasks=["bounded_bloch", "oracle"]))
        searches = []
        search = norms.bracket_argmax

        def counted(fn, lo, hi, rounds, **stopping):
            calls = []
            found = search(lambda xs: calls.append(xs) or fn(xs), lo, hi, rounds, **stopping)
            searches.append((lo.size, rounds, stopping, len(calls)))
            return found

        monkeypatch.setattr(norms, "bracket_argmax", counted)
        monkeypatch.setattr(oracle, "bracket_argmax", counted)
        cli_run(config)
        # the chase (11 circles, all 9 rounds), then one search of every row's
        # radial and angular brackets: kernels, pinned kernels unless the probe
        # is vacuous, and the chain battery for a bounded pair, until every row
        # is flat (the round counts repeat) or 12 rounds
        assert searches == [(11, 9, {}, 9), (2 * rows, 12, {"flat_rel": norms._FLAT_REL}, taken)]


class TestImageModulus:
    """``FractionalKernel.image_derivative_modulus`` against the modulus of the
    complex derivative of ``u (K o phi)``."""

    CASES = {name: (config.symbol, config.space) for name, config in
             ((name, parse_config(entry["config"])) for name, entry in sorted(CURATED.items()))}
    CASES["blaschke-product"] = (SymbolPair(PowerSeries([0.5, -0.3j, 0.2]),
                                            FiniteBlaschkeProduct([0.3 + 0.2j, -0.5j], 1j)), SpaceSpec.bergman(2))

    @staticmethod
    def term_scale(family, u, du, phi, dphi):
        """The sum of the moduli of the terms of ``|g'|``: the scale of its rounding."""
        conj_base, q = np.conj(family.base), family.exponent
        w = 1.0 - conj_base * phi
        if family.pinched:
            factor = phi - family.base
            terms = np.abs(du * factor * w) + np.abs(u * dphi * w) + np.abs(q * conj_base * u * factor * dphi)
        else:
            terms = np.abs(du * w) + np.abs(q * conj_base * u * dphi)
        return np.abs(family.scale) * np.abs(w) ** (-q - 1.0) * terms

    def check(self, got, ref, scale):
        # everywhere within rounding of the terms; relative where they do not cancel
        assert np.all(np.abs(got - ref) <= 1e-13 * scale)
        clear = ref >= 1e-2 * scale
        assert np.all(np.abs(got - ref)[clear] <= 1e-13 * ref[clear])

    @pytest.mark.parametrize("pinched", [False, True], ids=["plain", "pinned"])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_the_complex_derivative(self, case, pinched, grid):
        sym, space = self.CASES[case]
        chase_points, images = chase_members(sym, grid)
        if pinched:
            scales = [vanishing_test_function(w, space).scale for w in images]
            family = FractionalKernel(images, 1.0 / space.p + space.weight.t + 2.0, scales, pinched=True)
        else:
            scales = [boundary_test_function(w, space).scale for w in images]
            family = FractionalKernel(images, 1.0 / space.p + space.weight.t + 1.0, scales)
        # the 17,408-point sample grid, one member at a time
        _, z = sample_points(grid.depth, grid.angular_nodes)
        assert z.size == 17408
        samples = sym.jets(z)
        for m in range(len(family)):
            member = family.member(m)
            ref = np.abs(operator_apply(sym, member).deriv(z))
            self.check(member.image_derivative_modulus(*samples), ref, self.term_scale(member, *samples))
        # (M, 33) bracket arrays around the chase points, member m on row m
        span = 2.0 * np.pi / grid.angular_nodes
        points = (chase_points[:, None] * np.linspace(0.9, 1.0, 33)
                  * np.exp(1j * np.linspace(-span, span, 33)))
        jets = (*sym.u.jet(points), *sym.phi.jet(points))
        ref = np.abs(operator_apply(sym, family).deriv(points))
        assert ref.shape == (11, 33)
        self.check(family.image_derivative_modulus(*jets), ref, self.term_scale(family, *jets))

    @pytest.mark.parametrize("case", sorted(CURATED))
    def test_battery_kernel_matches_the_complex_jet(self, case, grid):
        # the constants battery's kernel at 0.5, on the sample grid and on
        # bracket arrays: its closed-form modulus against the modulus of the
        # complex derivative of the composite's jet
        sym, space = self.CASES[case]
        kernel = oracle.constants_battery(space, grid).functions[-1]
        assert isinstance(kernel, FractionalKernel) and kernel.base == 0.5
        points = 0.5 * np.linspace(0.9, 1.0, 33) * np.exp(1j * np.linspace(-1.0, 1.0, 33))[:, None]
        for jets in (sym.jets(sample_points(grid.depth, grid.angular_nodes)[1]), sym.jets(points)):
            got = kernel.image_derivative_modulus(*jets)
            ref = DiskFunction.image_derivative_modulus(kernel, *jets)
            assert got.shape == ref.shape and np.all(np.abs(got - ref) <= 4e-15 * ref)

    def test_keeps_the_right_half_plane_check(self):
        family = FractionalKernel([0.999], 2.0, [1.0])
        with pytest.raises(ArithmeticError, match="right half-plane"):
            family.image_derivative_modulus(np.ones(1), np.ones(1), np.array([1.5 + 0j]), np.ones(1))


class TestChaseFamily:
    """The chase members are refined together; each must read as it would alone."""

    @staticmethod
    def alone(g, grid, z_star):
        semi = max(bloch_seminorm(g, grid), (1.0 - abs(z_star) ** 2) * abs(g.deriv(complex(z_star))))
        return abs(g.eval(0.0)) + semi

    @pytest.mark.parametrize("case", ["half-scale", "blaschke-rotor", "boundary-touch"])
    def test_family_norms_match_the_members_alone(self, case, grid):
        config = parse_config(CURATED[case]["config"])
        sym, space = config.symbol, config.space
        ratios = lower_bound_trend(sym, space, grid).member_ratios
        pinned = compactness_probe(sym, space, grid).vanishing_values
        assert len(ratios) == 11 and len(pinned) == (0 if sym.phi.misses_boundary else 11)
        for m, (z_star, w) in enumerate(zip(*chase_members(sym, grid))):
            kernel_norm = ratios[m] * kernel_family_norm(abs(w), space, grid)
            member = self.alone(operator_apply(sym, boundary_test_function(w, space)), grid, z_star)
            assert kernel_norm == pytest.approx(member, rel=1e-12, abs=0)
            if pinned:
                member = self.alone(operator_apply(sym, vanishing_test_function(w, space)), grid, z_star)
                assert pinned[m] == pytest.approx(member, rel=1e-12, abs=0)

    @pytest.mark.parametrize("sym", [pytest.param(sym, id=label) for label, sym in random_pairs(5)])
    def test_images_are_their_points_inside_a_longer_array(self, sym, monkeypatch):
        # the images of a task are phi at the chase points as one array, bit for bit
        # wherever the points sit in a batch, here between two 16x512 sample grids
        grid, seen = RadialGrid(12, 128, 8), []
        family = oracle._family

        def spy(images, space, pinched=False):
            seen.append(np.array(images))
            return family(images, space, pinched)

        monkeypatch.setattr(oracle, "_family", spy)
        oracle.oracle_task(sym, SpaceSpec.bergman(2), grid)
        points = oracle.boundary_chase_point(sym.phi, oracle.CHASE_DEPTHS, grid.angular_nodes)
        z = sample_points(16, 512)[1].reshape(-1)
        longer = sym.phi.eval(np.concatenate([z, points, z]))[z.size : z.size + points.size]
        assert seen and all(images.tobytes() == longer.tobytes() for images in seen)


class TestKernelForms:
    """The pinned kernel and the chase families, built directly, against the
    forms they replace: ``z - q`` times the steeper kernel, and one kernel
    per image point."""

    CASES = ["half-scale", "blaschke-rotor", "boundary-touch"]

    @staticmethod
    def chase(case, grid):
        config = parse_config(CURATED[case]["config"])
        return (config.space, *chase_members(config.symbol, grid))

    @pytest.mark.parametrize("case", CASES)
    def test_vanishing_function_equals_the_factored_product(self, case, grid):
        space, _, images = self.chase(case, grid)
        _, z = sample_points(grid.depth, grid.angular_nodes)
        assert z.size == 17408
        t = space.weight.t
        for q in images:
            gap = 1.0 - (np.conj(q) * q).real
            steep = FractionalKernel(q, 1.0 / space.p + t + 2.0, np.conj(q) * gap ** (t + 1.0) / space.weight(abs(q)))
            got, want = vanishing_test_function(q, space).jet(z), Product(PowerSeries([-q, 1.0]), steep).jet(z)
            for a, b in zip(got, want):
                # bit for bit, except the sign of a zero on the circle of radius 0
                assert np.array_equal(a, b) and a[1:].tobytes() == b[1:].tobytes()

    @pytest.mark.parametrize("case", CASES)
    def test_family_rows_equal_the_single_kernels(self, case, grid):
        space, chase_points, images = self.chase(case, grid)
        # (M, 33) points, member m on row m, as the bracket rounds evaluate them
        points = chase_points[:, None] * np.linspace(0.5, 1.0, 33)
        for pinched, single in ((False, boundary_test_function), (True, vanishing_test_function)):
            family = oracle._family(images, space, pinched)
            assert len(family) == len(images) == 11 and family.pinched is pinched
            value, derivative = family.jet(points)
            for m, w in enumerate(images):
                kernel = single(w, space)
                assert (family.base[m, 0], family.exponent, family.scale[m, 0]) == (kernel.base, kernel.exponent,
                                                                                     kernel.scale)
                row = points[m : m + 1]
                got, want = family.member(m).jet(row), kernel.jet(row)
                assert np.array_equal(got, (value[m : m + 1], derivative[m : m + 1]))
                assert got[0].tobytes() == value[m].tobytes() and got[1].tobytes() == derivative[m].tobytes()
                if pinched:
                    # a complex scale times the exponent and conj(base) is a
                    # scalar product for one kernel and an array product in a
                    # family, and the two may round differently
                    np.testing.assert_allclose(got, want, rtol=1e-15, atol=0)
                else:
                    assert got[0].tobytes() == want[0].tobytes() and got[1].tobytes() == want[1].tobytes()
