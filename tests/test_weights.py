import numpy as np
import pytest

from blochlab import DomainError, NormalityReport, NormalWeight, SpaceSpec, check_normality
from blochlab.weights import NORMALITY_GRID_DEPTH

from golden_reference import reference_check_normality


class TestWeightEval:
    def test_power_weight_at_zero(self):
        assert NormalWeight(0.5)(0.0) == pytest.approx(1.0)

    def test_power_weight_value(self):
        assert NormalWeight(0.5)(0.75) == pytest.approx(0.5)

    def test_log_weight_at_zero(self):
        assert NormalWeight(1.0, log_exponent=1.0, s=0.25, t=1.5)(0.0) == pytest.approx(1.0)

    def test_domain_error(self):
        w = NormalWeight(0.5)
        with pytest.raises(DomainError):
            w(1.0)
        with pytest.raises(DomainError):
            w(-0.1)

    def test_strictly_decreasing_on_outer_half(self):
        grid = 1.0 - np.logspace(-9, np.log10(0.5), 80)[::-1]
        for w in (NormalWeight(0.5), NormalWeight(2.0, log_exponent=0.5, s=0.5, t=3.0)):
            vals = w(grid)
            assert np.all(np.diff(vals) < 0)

    def test_vectorized(self):
        w = NormalWeight(0.5)
        out = w(np.array([0.0, 0.75]))
        assert out == pytest.approx([1.0, 0.5])

    @pytest.mark.parametrize("alpha", [1 / 3, 0.5, 1.0])
    @pytest.mark.parametrize("log_exponent", [0.0, 0.7])
    def test_scalar_calls_equal_the_array_call_bit_for_bit(self, alpha, log_exponent):
        # numpy's array power and its scalar power differ in the last bit on
        # some arguments; a scalar radius must get the array path's value
        w = NormalWeight(alpha, log_exponent, alpha / 2.0, 1.5 * alpha + log_exponent)
        radii = np.random.default_rng([int(3 * alpha), int(10 * log_exponent)]).uniform(0.0, 1.0, 20_000)
        want = w(radii).view(np.int64)
        for one in (float, np.float64, np.array):  # a Python float, a numpy scalar, a 0-d array
            scalar = np.array([w(one(r)) for r in radii.tolist()])
            assert all(type(w(one(r))) is float for r in radii[:10].tolist())
            assert np.array_equal(scalar.view(np.int64), want)

    def test_scalar_nan_passes_the_range_check_as_in_the_array_path(self):
        w = NormalWeight(0.5)
        assert np.isnan(w(float("nan"))) and np.isnan(w(np.array([np.nan]))[0])
        for r in (1.0, -0.1, float("inf"), float("-inf")):
            with pytest.raises(DomainError):
                w(r)


class TestNormality:
    def test_standard_witnesses_pass(self):
        assert check_normality(NormalWeight(0.5, s=0.25, t=0.75)).ok

    def test_bad_lower_witness_fails_with_index(self):
        report = check_normality(NormalWeight(0.5, s=0.75, t=1.0))
        assert not report.ok
        assert report.condition == "s"
        assert report.failed_at is not None

    def test_equal_witnesses_rejected_at_construction(self):
        with pytest.raises(ValueError, match="0 < s < t"):
            NormalWeight(0.5, s=0.5, t=0.5)

    def test_alpha_must_be_positive(self):
        with pytest.raises(ValueError):
            NormalWeight(0.0)

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 1.0, 2.0])
    def test_power_family_iff_witnesses_straddle_alpha(self, alpha):
        candidates = [alpha * f for f in (0.25, 0.6, 0.9, 1.1, 1.4, 3.0)]
        for s in candidates:
            for t in candidates:
                if not s < t:
                    continue
                report = check_normality(NormalWeight(alpha, s=s, t=t))
                assert report.ok == (s < alpha < t)

    def test_log_weight_valid_witnesses(self):
        assert check_normality(NormalWeight(1.5, log_exponent=1.0, s=0.4, t=2.0)).ok

    def test_log_weight_needs_room_below_alpha(self):
        # the log factor pushes the s-ratio up near r = 0 when alpha - s < L,
        # but only there: past k0 = 1 it is monotone, which normality asks
        report = check_normality(NormalWeight(1.0, log_exponent=1.0, s=0.5, t=2.0))
        assert report.ok and report.k0 == 1
        assert not check_normality(NormalWeight(1.0, log_exponent=1.0, s=0.5, t=2.0), depth=1).ok

    def test_negative_log_exponent(self):
        # the reciprocal log factor drags the t-ratio down near r = 0, so on the
        # whole grid the upper witness needs t >= alpha + 1; near the boundary
        # (past k0 = 4) t = 0.75 suffices
        assert check_normality(NormalWeight(0.5, log_exponent=-1.0, s=0.25, t=1.6)).k0 == 0
        report = check_normality(NormalWeight(0.5, log_exponent=-1.0, s=0.25, t=0.75))
        assert report.ok and report.k0 == 4

    @pytest.mark.parametrize("log_exponent, k0", [(0.5, 1), (-0.5, 1), (1.0, 4), (-1.0, 4)])
    def test_bergman_2_with_a_log_factor_is_normal_near_the_boundary(self, log_exponent, k0):
        report = check_normality(NormalWeight(0.5, log_exponent=log_exponent, s=0.25, t=0.75))
        assert report == NormalityReport(True, k0=k0)

    def test_every_weight_normal_on_the_whole_grid_keeps_its_report(self):
        # a weight accepted from the first grid point on gets the same report, with
        # k0 = 0; a weight accepted only past some k0 > 0 was refused before
        accepted = 0
        for alpha in (0.3, 0.5, 1.0, 2.0):
            for log_exponent in (0.0, 0.25, 0.7, 1.0, -0.25, -0.7, -1.0):
                for s in (0.1, 0.25, 0.5, 0.9, 1.05):
                    for t in (1.1, 1.5, 2.0, 3.0):
                        weight = NormalWeight(alpha, log_exponent, s * alpha, t * alpha + log_exponent**2)
                        want, got = reference_check_normality(weight), check_normality(weight)
                        if want.ok:
                            accepted += 1
                            assert got == want and got.k0 == 0
                        elif got.ok:
                            assert got.k0 > 0
                        else:
                            assert got.condition is not None and got.k0 == NORMALITY_GRID_DEPTH // 2
        assert accepted > 100

    def test_a_witness_above_alpha_fails_on_every_window(self):
        report = check_normality(NormalWeight(0.5, s=0.75, t=1.0))
        assert not report.ok and report.condition == "s"
        assert report.k0 == NORMALITY_GRID_DEPTH // 2 and report.failed_at == report.k0


class TestSpaceSpec:
    def test_bergman_defaults(self):
        space = SpaceSpec.bergman(2)
        assert space.p == 2.0
        assert space.weight.alpha == pytest.approx(0.5)
        assert space.weight.s == pytest.approx(0.25)
        assert space.weight.t == pytest.approx(0.75)

    def test_bergman_defaults_are_normal_for_all_p(self):
        for p in (0.5, 1.0, 2.0, 4.0):
            assert check_normality(SpaceSpec.bergman(p).weight).ok

    def test_p_validation(self):
        with pytest.raises(ValueError):
            SpaceSpec(0.0, NormalWeight(0.5))
        with pytest.raises(ValueError):
            SpaceSpec(float("inf"), NormalWeight(0.5))
