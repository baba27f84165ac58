import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blochlab import (
    Affine,
    BlaschkeFactor,
    ComposedWithSelfMap,
    CompositionMap,
    MonomialPower,
    PowerSeries,
    PreconditionUnmetError,
    Scaled,
    Status,
    SymbolPair,
    bergman_specialization_ratio,
    classify_bounded_into_bloch,
    classify_bounded_into_little_bloch,
    classify_compact_into_bloch,
    classify_compact_into_little_bloch,
    composition_limit_probe,
    composition_quotient,
    constant,
    derivative_limit_probe,
    identity_map,
    multiplier_quotient,
    truncated_log_series,
)
from blochlab import criteria
from blochlab.battery import CURATED, random_pairs
from blochlab.cli import parse_config
from blochlab.criteria import SampleTable
from blochlab.norms import TRIGGER_PHI, TRIGGER_Z, RadialGrid, bloch_seminorm, boundary_profile
from blochlab.oracle import operator_apply
from golden_reference import assert_same_profile, reference_boundary_profile


def half_scale():
    return SymbolPair(constant(1), MonomialPower(1, 0.5))


def identity_sym():
    return SymbolPair(constant(1), identity_map())


class TestQuotients:
    def test_constant_multiplier_kills_first_quotient(self, a2):
        sym = half_scale()
        for z in (0.0, 0.5j, 0.9):
            assert multiplier_quotient(z, sym, a2) == 0.0

    def test_first_quotient_at_origin(self, a2):
        sym = SymbolPair(PowerSeries([0, 1]), MonomialPower(1, 0.5))
        assert multiplier_quotient(0.0, sym, a2) == pytest.approx(1.0)

    def test_first_quotient_hand_value(self, a2):
        sym = SymbolPair(PowerSeries([0, 1]), MonomialPower(1, 0.5))
        expected = 0.36 / (np.sqrt(0.6) * np.sqrt(0.84))
        assert multiplier_quotient(0.8, sym, a2) == pytest.approx(expected, rel=1e-6)

    def test_second_quotient_at_origin_for_identity(self, a2):
        assert composition_quotient(0.0, identity_sym(), a2) == pytest.approx(1.0)

    def test_zero_multiplier(self, a2):
        sym = SymbolPair(constant(0), identity_map())
        assert composition_quotient(0.7j, sym, a2) == 0.0

    @given(
        c=st.complex_numbers(min_magnitude=1e-2, max_magnitude=5.0,
                             allow_nan=False, allow_infinity=False),
        r=st.floats(0.0, 0.9),
        ang=st.floats(0.0, 2 * np.pi),
    )
    @settings(max_examples=40, deadline=None)
    def test_scaling_equivariance(self, a2, c, r, ang):
        z = r * np.exp(1j * ang)
        u = PowerSeries([0.3, 1.0, -0.5j])
        phi = BlaschkeFactor(0.3)
        base = SymbolPair(u, phi)
        scaled = SymbolPair(Scaled(c, u), phi)
        for quot in (multiplier_quotient, composition_quotient):
            assert quot(z, scaled, a2) == pytest.approx(abs(c) * quot(z, base, a2), rel=1e-12)


class TestProfiles:
    def test_vacuously_empty_regions_for_strict_map(self, a2, fast_grid):
        prof = SampleTable(half_scale(), a2, fast_grid).profile("u_phi_prime", TRIGGER_PHI)
        assert prof.empty.all()

    def test_divergence_shows_in_band_values(self, a2, grid):
        prof = SampleTable(identity_sym(), a2, grid).profile("u_phi_prime", TRIGGER_Z)
        bands = prof.band_values[np.isfinite(prof.band_values)]
        assert np.all(np.diff(bands[-6:]) > 0)
        vals = prof.nonempty_values
        assert np.all(np.diff(vals) <= 0)

    def test_decay_for_strict_map(self, a2, grid):
        prof = SampleTable(half_scale(), a2, grid).profile("u_phi_prime", TRIGGER_Z)
        vals = prof.nonempty_values
        assert vals[-1] < 1e-3 * vals[0]

    def test_rotation_invariance_of_profiles(self, a2, grid):
        theta = 0.37
        u = PowerSeries([0.5, 1.0, 0.25j])
        phi = BlaschkeFactor(0.45)
        base = SymbolPair(u, phi)
        rotate, unrotate = MonomialPower(1, np.exp(1j * theta)), MonomialPower(1, np.exp(-1j * theta))
        conj_phi = CompositionMap(unrotate, CompositionMap(phi, rotate))
        conj = SymbolPair(ComposedWithSelfMap(u, rotate), conj_phi)
        for name in ("u_prime", "u_phi_prime"):
            p0 = SampleTable(base, a2, grid).profile(name, TRIGGER_Z)
            p1 = SampleTable(conj, a2, grid).profile(name, TRIGGER_Z)
            v0, v1 = p0.nonempty_values, p1.nonempty_values
            assert v1 == pytest.approx(v0, rel=1e-2)


class TestBoundedness:
    def test_half_scale_bounded(self, a2, grid):
        outcome = classify_bounded_into_bloch(half_scale(), a2, grid)
        assert outcome.overall and outcome.decided
        assert math.isfinite(outcome.verdicts[1].sup_estimate)

    def test_identity_unbounded_through_composition_term(self, a2, grid):
        outcome = classify_bounded_into_bloch(identity_sym(), a2, grid)
        assert not outcome.overall and outcome.decided
        assert outcome.verdicts[1].status is Status.FAILS
        assert math.isinf(outcome.verdicts[1].sup_estimate)
        assert outcome.verdicts[1].divergence_slope == pytest.approx(1.0, rel=0.2)

    def test_zero_operator(self, a2, grid):
        sym = SymbolPair(constant(0), identity_map())
        outcome = classify_bounded_into_bloch(sym, a2, grid)
        assert outcome.overall
        assert outcome.verdicts[0].sup_estimate == 0.0
        assert outcome.verdicts[1].sup_estimate == 0.0

    def test_verdict_serialization_roundtrip(self, a2, grid):
        entry = classify_bounded_into_bloch(identity_sym(), a2, grid).to_dict()
        assert entry["verdicts"][1]["sup_estimate"] == "Divergent"
        assert entry["overall"] is False

    def test_status_invariant_under_multiplier_scaling(self, a2, fast_grid):
        for base in (half_scale(), identity_sym()):
            reference = classify_bounded_into_bloch(base, a2, fast_grid)
            for c in (2.0, 0.01j, -5.0 + 3.0j):
                scaled = SymbolPair(Scaled(c, base.u), base.phi)
                outcome = classify_bounded_into_bloch(scaled, a2, fast_grid)
                assert outcome.verdicts[0].status is reference.verdicts[0].status
                assert outcome.verdicts[1].status is reference.verdicts[1].status


class TestCompactness:
    def test_half_scale_vacuous(self, a2, grid):
        outcome = classify_compact_into_bloch(half_scale(), a2, grid)
        assert outcome.overall and outcome.vacuous

    def test_refuses_unbounded_operator(self, a2, grid):
        with pytest.raises(PreconditionUnmetError):
            classify_compact_into_bloch(identity_sym(), a2, grid)

    def test_force_boundary_still_holds_for_strict_map(self, a2, grid):
        outcome = classify_compact_into_bloch(half_scale(), a2, grid, force_boundary=True)
        assert outcome.overall

    def test_zero_operator_compact(self, a2, grid):
        sym = SymbolPair(constant(0), MonomialPower(1, 0.5))
        assert classify_compact_into_bloch(sym, a2, grid).overall

    def test_vacuous_rule_is_structural(self, a2, grid):
        # any bounded pair with a strict structural bound is compact by fiat
        sym = SymbolPair(PowerSeries([1, 1]), Affine(0.3, 0.4))
        bounded = classify_bounded_into_bloch(sym, a2, grid)
        assert bounded.overall
        outcome = classify_compact_into_bloch(sym, a2, grid)
        assert outcome.vacuous and outcome.overall


class TestLittleBloch:
    def test_half_scale_bounded_into_little_bloch(self, a2, grid):
        outcome = classify_bounded_into_little_bloch(half_scale(), a2, grid)
        assert outcome.overall
        assert outcome.verdicts[0].status is Status.HOLDS
        assert outcome.verdicts[1].status is Status.HOLDS

    def test_constant_target_map(self, a2, grid):
        sym = SymbolPair(PowerSeries([0, 1]), Affine(0.0, 0.0))
        assert classify_bounded_into_little_bloch(sym, a2, grid).overall

    def test_polynomial_multiplier_with_boundary_mass(self, a2, grid):
        sym = SymbolPair(truncated_log_series(32), MonomialPower(1, 0.5))
        outcome = classify_bounded_into_little_bloch(sym, a2, grid)
        assert outcome.verdicts[0].status is Status.HOLDS

    def test_half_scale_compact_into_little_bloch(self, a2, grid):
        assert classify_compact_into_little_bloch(half_scale(), a2, grid).overall

    def test_zero_compact_into_little_bloch(self, a2, grid):
        sym = SymbolPair(constant(0), identity_map())
        assert classify_compact_into_little_bloch(sym, a2, grid).overall

    def test_identity_fails_compact_into_little_bloch(self, a2, grid):
        outcome = classify_compact_into_little_bloch(identity_sym(), a2, grid)
        assert not outcome.overall
        assert outcome.verdicts[1].status is Status.FAILS

    def test_operator_images_inherit_vanishing_tails(self, a2, grid):
        # when the little-Bloch boundedness verdict holds, the images of the
        # two simplest inputs must themselves have vanishing Bloch tails
        for sym in (half_scale(), SymbolPair(PowerSeries([0, 1]), Affine(0.0, 0.0))):
            outcome = classify_bounded_into_little_bloch(sym, a2, grid)
            assert outcome.overall
            for f in (constant(1), PowerSeries([0, 1])):
                image = operator_apply(sym, f)
                tail = SampleTable(SymbolPair(image, identity_map()), a2, grid).u_tail
                assert tail.status is Status.HOLDS


class TestLimitProbes:
    def test_half_scale_probes_agree(self, a2, grid):
        for probe in (derivative_limit_probe(half_scale(), a2, grid),
                      composition_limit_probe(half_scale(), a2, grid)):
            assert probe.decided and probe.agree

    def test_identity_composition_probe_agrees_on_failure(self, a2, grid):
        probe = composition_limit_probe(identity_sym(), a2, grid)
        assert probe.decided
        assert probe.lhs_holds is False and probe.rhs_holds is False
        assert probe.agree

    def test_zero_multiplier_probes(self, a2, grid):
        sym = SymbolPair(constant(0), identity_map())
        for probe in (derivative_limit_probe(sym, a2, grid),
                      composition_limit_probe(sym, a2, grid)):
            assert probe.decided and probe.agree


class TestRoundingTouchingMaps:
    # |a| + |b| = 1 maps whose sup estimate rounds below 1: the |phi|
    # side must not be read as vacuous while the |z| side diverges
    @pytest.mark.parametrize("seed,label", [(21, "affine_touching-04"), (36, "affine_touching-16")])
    def test_both_limit_probes_agree(self, seed, label, a2):
        sym = dict(random_pairs(seed))[label]
        assert sym.phi.sup_bound(1.0) < 1.0  # the estimate does round below 1
        for probe in (derivative_limit_probe(sym, a2, RadialGrid(16, 128, 8)),
                      composition_limit_probe(sym, a2, RadialGrid(16, 128, 8))):
            assert probe.agree is not False


class TestSharedSamples:
    def test_u_tail_refines_from_the_table_samples(self, a2, grid, monkeypatch):
        u = PowerSeries([0.3, -1.0, 0.5j, 0.25])
        table = SampleTable(SymbolPair(u, Affine(0.5, 0.5)), a2, grid)
        sizes = []
        deriv = PowerSeries.deriv
        monkeypatch.setattr(PowerSeries, "deriv", lambda self, z: sizes.append(np.size(z)) or deriv(self, z))
        verdict = table.u_tail
        assert sizes and max(sizes) <= 66  # bracket rounds only (33 radial and 33 angular points), no grid pass
        monkeypatch.undo()
        assert verdict.notes.endswith(f"seminorm {bloch_seminorm(u, grid):.6g}")

    def test_each_verdict_is_made_once_per_table(self, a2, grid, monkeypatch):
        # compact_into_bloch and bounded_into_little_bloch read bounded_into_bloch
        # again, and the limit probes read the limits of the other classifiers
        table = SampleTable(SymbolPair(PowerSeries([0.3, -1.0, 0.5j]), Affine(0.5, 0.5)), a2, grid)
        made = []
        finite_sup, limit = SampleTable._finite_sup, criteria._limit_type_verdict
        monkeypatch.setattr(SampleTable, "_finite_sup", lambda self, name: made.append(("sup", name))
                            or finite_sup(self, name))
        monkeypatch.setattr(criteria, "_limit_type_verdict", lambda name, profile: made.append(
            ("limit", name, profile.trigger)) or limit(name, profile))
        first = _all_verdicts(table)
        assert len(made) == len(set(made)) == 7  # two suprema; the |phi| and |z| limits of both quotients, one plain
        assert _all_verdicts(table) == first and len(made) == 7
        assert table.bounded_into_little_bloch().into_bloch.verdicts[0] is table.bounded_into_bloch().verdicts[0]

    def test_a_supremum_on_the_inner_cut_circle_is_inner(self, a2, fast_grid):
        # the inner supremum reads the circles up to and including the inner
        # cut 1 - 2**-(depth-3), itself a sample radius; a quantity peaking
        # there and decaying beyond has stabilized
        table = SampleTable(half_scale(), a2, fast_grid)
        cut = 1.0 - 0.5 ** (fast_grid.depth - 3)
        radii = table.radii
        assert np.count_nonzero(radii == cut) == 1
        peak = np.where(radii == cut, 1.0, np.where(radii < cut, 0.5, 0.5 * (1.0 - radii)))
        table.quantities["u_prime"] = np.repeat(peak[:, None], fast_grid.angular_nodes, axis=1)
        verdict = table.bounded_into_bloch().verdicts[0]
        assert verdict.quantity == "u_prime"
        assert verdict.status is Status.HOLDS and verdict.sup_estimate == 1.0


class FlatTable(SampleTable):
    """A sample table that reads every profile and supremum from the flat
    ``circles x nodes`` samples: no per-circle reduction, no shared partition."""

    def __init__(self, *args):
        super().__init__(*args)
        self.radii = np.broadcast_to(self.radii[:, None], self.quantities["u_prime"].shape).ravel()  # flat |z|

    def maxima(self, name):
        return self.quantities[name].ravel()

    def profile(self, name, trigger=TRIGGER_Z):
        mod = self.radii if trigger == TRIGGER_Z else self.phi_bands.modulus
        return self._once(("profile", name, trigger),
                          lambda: boundary_profile(self.quantities[name], mod, self.grid.depth, trigger))


def _all_verdicts(table: SampleTable) -> str:
    def compact():
        try:
            return table.compact_into_bloch(force_boundary=True).to_dict()
        except PreconditionUnmetError as exc:
            return str(exc)

    return json.dumps({
        "bounded_bloch": table.bounded_into_bloch().to_dict(),
        "compact_bloch": compact(),
        "bounded_little_bloch": table.bounded_into_little_bloch().to_dict(),
        "compact_little_bloch": table.compact_into_little_bloch().to_dict(),
        "derivative_limit": table.derivative_limit_probe().to_dict(),
        "composition_limit": table.composition_limit_probe().to_dict(),
    }, sort_keys=True)


def _deep_docs(seed: int = 11, depth: int = 40, nodes: int = 2048) -> list:
    """Depth-40 configs in the style of the deep classification workload:
    the six self-map families, multipliers of degree 0 to 3."""
    rng = np.random.default_rng(seed)

    def point(r):
        z = r * np.sqrt(rng.uniform(0.05, 1.0)) * np.exp(2j * np.pi * rng.uniform())
        return [float(z.real), float(z.imag)]

    def unimodular():
        z = np.exp(2j * np.pi * rng.uniform())
        return [float(z.real), float(z.imag)]

    frac = float(rng.uniform(0.3, 0.7))
    pa, pb = unimodular(), unimodular()
    maps = [
        {"affine": {"a": point(0.6), "b": point(0.2)}},
        {"affine": {"a": [frac * pa[0], frac * pa[1]], "b": [(1 - frac) * pb[0], (1 - frac) * pb[1]]}},
        {"blaschke": {"base": point(0.7)}},
        {"blaschke_product": {"bases": [point(0.6), point(0.6)], "unimodular": unimodular()}},
        {"scaled": {"factor": float(rng.uniform(0.5, 0.9)), "inner": {"blaschke": {"base": point(0.6)}}}},
        {"monomial": {"degree": int(rng.integers(2, 5)), "scale": 1.0}},
    ]
    docs = []
    for i, phi in enumerate(maps):
        coeffs = rng.uniform(-1, 1, i % 4 + 1) + 1j * rng.uniform(-1, 1, i % 4 + 1)
        coeffs[0] += 0.5
        u = {"power_series": [[float(c.real), float(c.imag)] for c in coeffs]}
        docs.append({"symbol": {"u": u, "phi": phi}, "space": "bergman:2", "tasks": ["bounded_bloch"],
                     "grid": {"depth": depth, "angular_nodes": nodes, "panel_order": 12}})
    return docs


_REDUCED_CASES = [pytest.param(CURATED[name]["config"], id=name) for name in sorted(CURATED)] + [
    pytest.param(doc, id=f"deep-{i}") for i, doc in enumerate(_deep_docs())]


class TestReducedProfiles:
    """The table's reduced profiles (per-circle maxima, one shared ``|phi|``
    partition) and every verdict read from them equal those of the flat samples."""

    @pytest.mark.parametrize("doc", _REDUCED_CASES)
    def test_profiles_and_verdicts_equal_the_flat_samples(self, doc):
        config = parse_config(dict(doc, tasks=["bounded_bloch"]))
        args = (config.symbol, config.space, config.grid)
        table, flat = SampleTable(*args), FlatTable(*args)
        assert _all_verdicts(table) == _all_verdicts(flat)
        profiles = {key[1:]: prof for key, prof in table._memo.items() if key[0] == "profile"}
        flat_profiles = {key[1:]: prof for key, prof in flat._memo.items() if key[0] == "profile"}
        assert set(profiles) == set(flat_profiles)
        for (name, trigger), prof in profiles.items():
            assert_same_profile(prof, flat_profiles[name, trigger])
            mod = flat.radii if trigger == TRIGGER_Z else flat.phi_bands.modulus
            assert_same_profile(prof, reference_boundary_profile(flat.quantities[name], mod, config.grid.depth, trigger))


class TestBergmanSpecialization:
    def test_ratio_is_one_when_image_passes_origin(self, a2):
        sym = SymbolPair(PowerSeries([1, 1]), Affine(0.0, 0.0))
        assert bergman_specialization_ratio(0.3, sym, 2.0) == pytest.approx(1.0)

    def test_ratio_closed_form_for_constant_map(self):
        sym = SymbolPair(PowerSeries([1, 1]), Affine(0.5, 0.3))
        z = 0.2 + 0.1j
        mod = abs(sym.phi.eval(z))
        assert bergman_specialization_ratio(z, sym, 2.0) == pytest.approx(np.sqrt(1 + mod))

    @pytest.mark.parametrize("p", [0.5, 1.0, 2.0, 3.0])
    def test_ratio_range(self, p, grid):
        from blochlab.norms import sample_points

        sym = SymbolPair(PowerSeries([0.4, 1.0]), BlaschkeFactor(0.35 - 0.2j))
        _, z = sample_points(12, 128)
        ratio = bergman_specialization_ratio(z, sym, p)
        assert np.all(ratio >= 1.0 - 1e-12)
        assert np.all(ratio <= 2.0 ** (1.0 / p) + 1e-12)
