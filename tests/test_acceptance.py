"""End-to-end acceptance suite.

Each criterion runs at its stated tolerance and reports one pass/fail
line in the terminal summary.  Everything here leans on closed forms,
independently computed constants, or dual-route evaluation; no expected
value is copied from the code under test.
"""

import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from blochlab import (
    PowerSeries,
    RadialGrid,
    SpaceSpec,
    SymbolPair,
    bergman_type_norm,
    bergman_specialization_ratio,
    boundary_test_function,
    classify_bounded_into_bloch,
    composition_limit_probe,
    constant,
    derivative_form_norm,
    derivative_limit_probe,
    sw_integral_check,
    vanishing_test_function,
)
from blochlab.battery import random_pairs
from blochlab.cli import main, parse_config, run
from blochlab.norms import (
    derivative_growth_envelope,
    pointwise_growth_envelope,
    sample_points,
)
from blochlab.oracle import TREND_AMBIGUOUS, TREND_STABLE, kernel_family_norm, lower_bound_trend

RESULTS: list[str] = []


@contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except BaseException:
        RESULTS.append(f"[FAIL] criterion {number:2d}: {label}")
        raise
    RESULTS.append(f"[PASS] criterion {number:2d}: {label}")


A2 = SpaceSpec.bergman(2)
GRID = RadialGrid(16, 512, 12)


def test_criterion_1_quadrature_exactness():
    with criterion(1, "norm quadrature reproduces the closed-form values"):
        start = time.perf_counter()
        norm_z = bergman_type_norm(PowerSeries([0, 1]), A2, GRID)
        norm_1 = bergman_type_norm(constant(1), A2, GRID)
        elapsed = time.perf_counter() - start
        assert abs(norm_z - 0.5) <= 1e-6 * 0.5
        assert abs(norm_1 - math.sqrt(0.5)) <= 1e-6 * math.sqrt(0.5)
        assert elapsed < 1.0


def test_criterion_2_integral_inequality():
    with criterion(2, "endpoint integral matches closed form and its constant is stable"):
        for rho in (0.5, 0.9, 1 - 2**-10, 1 - 2**-20):
            numeric, _ = sw_integral_check(0.0, 2.0, rho, GRID)
            exact = 1.0 / (1.0 - rho)
            assert abs(numeric - exact) <= 1e-6 * exact
        # fitted constant over a near-boundary sweep, where the asymptotic
        # regime that the bound describes has set in
        sweep = (1 - 2**-10, 1 - 2**-12, 1 - 2**-16, 1 - 2**-20)
        for beta, m in ((0.5, 2.0), (1.0, 3.0), (-0.5, 1.0)):
            fitted = []
            for rho in sweep:
                numeric, bound = sw_integral_check(beta, m, rho, GRID)
                fitted.append(numeric / bound)
            assert max(fitted) / min(fitted) <= 1.10, (beta, m, fitted)


def _battery():
    polys = [constant(1), PowerSeries([0, 1]), PowerSeries([0, 0, 1]),
             PowerSeries([0, 0, 0, 0, 0, 1])]
    kernels = [boundary_test_function(w, A2) for w in (0.0, 0.5, 0.9, 0.99)]
    return polys + kernels


def test_criterion_3_growth_envelopes_stabilize():
    with criterion(3, "pointwise and derivative growth envelopes stabilize in depth"):
        start = time.perf_counter()
        for f in _battery():
            ratios = {}
            for depth in (14, 18):
                mesh = RadialGrid(depth, 512, 12)
                norm = bergman_type_norm(f, A2, mesh)
                ratios[depth] = (
                    pointwise_growth_envelope(f, A2, mesh) / norm,
                    derivative_growth_envelope(f, A2, mesh) / norm,
                )
            for a, b in zip(ratios[14], ratios[18]):
                assert math.isfinite(a) and math.isfinite(b)
                assert abs(a - b) <= 0.02 * max(a, b)
        assert time.perf_counter() - start < 30.0


def test_criterion_4_norm_form_equivalence():
    with criterion(4, "derivative-form and direct norms stay within a fixed ratio band"):
        ratios = [
            derivative_form_norm(f, A2, GRID) / bergman_type_norm(f, A2, GRID)
            for f in _battery()
        ]
        assert max(ratios) / min(ratios) <= 10.0
        for c in (1.0, -3.0j):
            d = derivative_form_norm(constant(c), A2, GRID)
            n = bergman_type_norm(constant(c), A2, GRID)
            assert d == pytest.approx(n, rel=1e-12)
        assert derivative_form_norm(PowerSeries([0]), A2, GRID) == 0.0
        assert bergman_type_norm(PowerSeries([0]), A2, GRID) == 0.0


def test_criterion_5_uniform_kernel_family():
    with criterion(5, "boundary kernel norms stay uniformly bounded along the sweep"):
        mods = [0.0, 0.5, 0.9, 0.99, 1 - 2**-8, 1 - 2**-10, 1 - 2**-12]
        norms = [kernel_family_norm(m, A2, GRID) for m in mods]
        assert max(norms) / min(norms) <= 10.0
        tail = norms[-3:]
        assert not (tail[1] > tail[0] * 1.02 and tail[2] > tail[1] * 1.02)
        # tie the fast angular treatment back to the generic quadrature at
        # an angular resolution that actually resolves the deepest kernel
        deep = bergman_type_norm(
            boundary_test_function(mods[-1], A2), A2, RadialGrid(16, 32768, 12)
        )
        assert norms[-1] == pytest.approx(deep, rel=2e-3)


def test_criterion_6_vanishing_kernel_identities():
    with criterion(6, "pinned kernel vanishes and matches its derivative display"):
        for mod in (0.0, 0.5, 0.9, 0.99, 1 - 2**-8, 1 - 2**-10, 1 - 2**-12):
            for ang in (0.0, 1.3, 2.6, 4.4):
                q = mod * np.exp(1j * ang)
                g = vanishing_test_function(q, A2)
                assert abs(g.eval(q)) <= 1e-10
                display = np.conj(q) / (A2.weight(abs(q)) * (1 - abs(q) ** 2) ** 1.5)
                if display == 0:
                    assert abs(g.deriv(q)) <= 1e-10
                else:
                    assert abs(g.deriv(q) - display) <= 1e-10 * abs(display)


def _config(u_spec, phi_spec, tasks):
    return {
        "symbol": {"u": u_spec, "phi": phi_spec},
        "space": "bergman:2",
        "grid": {"depth": 16, "angular_nodes": 512, "panel_order": 12},
        "tasks": tasks,
    }


def test_criterion_7_classifier_battery(tmp_path):
    with criterion(7, "curated classifier battery with strict exit codes"):
        all_tasks = ["bounded_bloch", "compact_bloch", "bounded_little_bloch",
                     "compact_little_bloch", "oracle"]
        half = run(parse_config(_config(
            {"constant": 1.0}, {"monomial": {"degree": 1, "scale": 0.5}}, all_tasks)))
        tasks = half.results["tasks"]
        assert tasks["bounded_bloch"]["overall"] is True
        assert tasks["compact_bloch"]["overall"] is True and tasks["compact_bloch"]["vacuous"]
        assert tasks["bounded_little_bloch"]["overall"] is True
        assert tasks["compact_little_bloch"]["overall"] is True

        ident = run(parse_config(_config(
            {"constant": 1.0}, "identity", ["bounded_bloch", "oracle"])))
        bounded = ident.results["tasks"]["bounded_bloch"]
        assert bounded["overall"] is False and bounded["decided"] is True
        comp = bounded["verdicts"][1]
        assert comp["status"] == "Fails"
        assert comp["sup_estimate"] == "Divergent"
        assert abs(comp["divergence_slope"] - 1.0) <= 0.2

        zero = run(parse_config(_config(
            {"constant": 0.0}, {"monomial": {"degree": 1, "scale": 0.5}}, all_tasks)))
        ztasks = zero.results["tasks"]
        for name in ("bounded_bloch", "compact_bloch", "compact_little_bloch"):
            assert ztasks[name]["overall"] is True
        for verdict in ztasks["bounded_bloch"]["verdicts"]:
            assert verdict["sup_estimate"] == 0.0

        # exit codes: 0 in strict mode whenever classifier and oracle agree,
        # including the unbounded case
        for name, (u_spec, phi_spec) in {
            "half": ({"constant": 1.0}, {"monomial": {"degree": 1, "scale": 0.5}}),
            "ident": ({"constant": 1.0}, "identity"),
            "zero": ({"constant": 0.0}, {"monomial": {"degree": 1, "scale": 0.5}}),
        }.items():
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(_config(u_spec, phi_spec, ["bounded_bloch"])))
            code = main(["run", str(path), "--out", str(tmp_path / name),
                         "--strict", "--grid", "12,128,8"])
            assert code == 0, name


BATTERY_GRID = RadialGrid(12, 128, 8)
PROBE_GRID = RadialGrid(16, 128, 8)


def test_criterion_8_classifier_oracle_agreement():
    with criterion(8, "classifier and operator-norm oracle agree on the random battery"):
        pairs = random_pairs(seed=7, count=20)
        decided = agree = undecided = 0
        for _, sym in pairs:
            outcome = classify_bounded_into_bloch(sym, A2, BATTERY_GRID)
            trend = lower_bound_trend(sym, A2, BATTERY_GRID)
            if not outcome.decided or trend.classification == TREND_AMBIGUOUS:
                undecided += 1
                continue
            decided += 1
            agree += outcome.overall == (trend.classification == TREND_STABLE)
        assert decided > 0 and agree == decided
        assert decided >= 0.75 * len(pairs)
    RESULTS.append(
        f"       criterion  8 detail: {decided} decided, {agree} agree, "
        f"{undecided} undecided of {len(pairs)} pairs"
    )


def test_criterion_9_limit_probe_agreement():
    with criterion(9, "dual-evaluation limit probes agree on the random battery"):
        pairs = random_pairs(seed=7, count=20)
        decided = agree = undecided = 0
        for _, sym in pairs:
            for probe_fn in (derivative_limit_probe, composition_limit_probe):
                probe = probe_fn(sym, A2, PROBE_GRID)
                if not probe.decided:
                    undecided += 1
                    continue
                decided += 1
                agree += bool(probe.agree)
        assert decided > 0 and agree == decided
        assert decided >= 0.5 * (2 * len(pairs))
    RESULTS.append(
        f"       criterion  9 detail: {decided} decided, {agree} agree, "
        f"{undecided} undecided of {2 * len(pairs)} probes"
    )


def test_criterion_10_bergman_specialization_identity():
    with criterion(10, "special Bergman forms match the general quotient exactly"):
        _, z = sample_points(12, 256)
        symbols = [
            SymbolPair(PowerSeries([0.4, 1.0]), __import__("blochlab").BlaschkeFactor(0.35 - 0.2j)),
            SymbolPair(PowerSeries([0, 1]), __import__("blochlab").Affine(0.5, 0.3)),
            SymbolPair(constant(0), __import__("blochlab").MonomialPower(2, 0.9)),
        ]
        for sym in symbols:
            for p in (1.0, 2.0, 4.0):
                ratio = bergman_specialization_ratio(z, sym, p)
                expected = (1.0 + np.abs(sym.phi.eval(z))) ** (1.0 / p)
                assert np.max(np.abs(ratio - expected)) <= 1e-12


def test_criterion_11_deterministic_reports():
    with criterion(11, "identical configs give byte-identical verdict payloads"):
        doc = _config({"power_series": [0.2, 1.0]},
                      {"blaschke": {"base": 0.4}},
                      ["bounded_bloch", "compact_little_bloch", "lemma_probes", "oracle"])
        doc["grid"] = {"depth": 12, "angular_nodes": 128, "panel_order": 8}
        first = run(parse_config(dict(doc))).results_payload()
        second = run(parse_config(dict(doc))).results_payload()
        assert first == second
