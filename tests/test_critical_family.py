"""Closed-form ground truth at the boundary: the critical family.

Space ``bergman:p`` (weight ``(1-r)**(1/p)``), ``phi = a z + b`` with
``b = 1 - a`` (touching the circle at 1) and ``u = (1-z)**m``.  Write
``X = 1-|z|^2`` and ``Y = |1-z|^2``.  Then ``1-|phi|^2 = a X + a b Y``
exactly, and along the curves ``X = c Y -> 0`` the composition quotient is
homogeneous of degree ``m/2 - 2/p`` in ``Y`` and the multiplier quotient of
degree ``(m+1)/2 - 2/p``.  Hence ``bounded_bloch`` and
``bounded_little_bloch`` hold iff ``m >= 4/p``, and ``compact_bloch`` and
``compact_little_bloch`` iff ``m > 4/p``; the argument is logged in
CHANGES.md.  At ``m = 4/p`` the composition quotient along ``X = c Y``
tends to ``2**(1/p) a**(-2/p) c / (c+b)**(1+2/p)``, whose peak at
``c = (p/2) b`` is ``L(p, a)``.

An mpmath referee confirms every degree and every ``L(p, a)`` at
``|1-z|`` down to 1e-20, and ties itself to the library's quotients where
double precision resolves them.  Every verdict the classifier or the
oracle gets wrong or leaves undecided today is a named strict ``xfail``,
so a fix flips a named test.  The cases stay out of ``CURATED`` and
``random_pairs``.
"""

from fractions import Fraction
from functools import cache, reduce

import mpmath
import numpy as np
import pytest

from blochlab import Affine, PowerSeries, Product, RadialGrid, SpaceSpec, SymbolPair, oracle
from blochlab.criteria import PreconditionUnmetError, SampleTable, composition_quotient, multiplier_quotient
from golden_reference import assert_within_the_flat_tolerance, fixed_round_twins

GRID = RadialGrid(16, 512, 12)

# (p, a, m): the lattice p in {1, 4/3, 2, 4}, a in {0.3, 0.5}, m = 4/p - 1, 4/p, 4/p + 1
# (m >= 1), and off-lattice cases whose composition degree is 1/4 or 1/8 from critical
LATTICE = [(p, a, int(m)) for p in (Fraction(1), Fraction(4, 3), Fraction(2), Fraction(4))
           for a in (0.3, 0.5) for m in (4 / p - 1, 4 / p, 4 / p + 1) if m >= 1]
OFF_LATTICE = [(Fraction(8, 3), 0.5, 1), (Fraction(8, 3), 0.5, 2), (Fraction(8, 5), 0.5, 2),
               (Fraction(8, 5), 0.5, 3), (Fraction(16, 7), 0.5, 2)]
CASES = {f"p{p}-a{a}-m{m}".replace("/", "_"): (p, a, m) for p, a, m in LATTICE + OFF_LATTICE}


def degree(p: Fraction, m: int) -> Fraction:
    """The composition quotient's degree in ``Y`` along ``X = c Y``."""
    return Fraction(m, 2) - 2 / p


def label(p: Fraction, m: int) -> str:
    d = degree(p, m)
    return "unbounded" if d < 0 else "critical" if d == 0 else "compact"


def plateau(p: float, a: float) -> float:
    """``L(p, a)``, the peak over ``c`` of the critical composition quotient's limit."""
    b = 1.0 - a
    return 2.0 ** (1.0 / p) * a ** (-2.0 / p) * (p / 2.0) * b / ((1.0 + p / 2.0) * b) ** (1.0 + 2.0 / p)


# ---------------------------------------------------------------------------
# the mpmath referee


def _curve_point(t, c):
    """``z = 1 - t e^(i psi)`` with ``cos psi = t (1+c)/2``, so that ``|1-z| = t``
    and ``1-|z|^2 = c t^2``."""
    cos = t * (1 + c) / 2
    return 1 - t * mpmath.mpc(cos, mpmath.sqrt(1 - cos**2))


def referee_quotients(p, a, m, z) -> tuple:
    """Both quotients at ``z`` in mpmath, from the closed forms alone."""
    p, a = mpmath.mpf(p.numerator) / p.denominator, mpmath.mpf(a)
    x = 1 - abs(z) ** 2
    phi = a * z + (1 - a)
    gap = 1 - abs(phi) ** 2
    weight = (1 - abs(phi)) ** (1 / p)
    u, du = (1 - z) ** m, -m * (1 - z) ** (m - 1)
    return x * abs(du) / (weight * gap ** (1 / p)), x * abs(u * a) / (weight * gap ** (1 + 1 / p))


def referee_degrees(p, a, m, c=1) -> tuple:
    """The measured degrees in ``Y`` of both quotients along ``X = c Y``,
    between ``|1-z| = 1e-15`` and ``1e-20``."""
    with mpmath.workdps(60):
        near, far = (referee_quotients(p, a, m, _curve_point(mpmath.mpf(t), c)) for t in ("1e-15", "1e-20"))
        step = mpmath.log(mpmath.mpf("1e-30") / mpmath.mpf("1e-40"))
        return tuple(float(mpmath.log(q1 / q2) / step) for q1, q2 in zip(near, far))


@pytest.mark.parametrize("case", CASES)
def test_the_referee_confirms_the_degrees(case):
    p, a, m = CASES[case]
    mult, comp = referee_degrees(p, a, m)
    assert comp == pytest.approx(float(degree(p, m)), abs=1e-6)
    assert mult == pytest.approx(float(degree(p, m) + Fraction(1, 2)), abs=1e-6)
    assert label(p, m) == ("unbounded" if comp < -1e-3 else "critical" if abs(comp) < 1e-3 else "compact")


@pytest.mark.parametrize("case", [case for case, (p, a, m) in CASES.items() if label(p, m) == "critical"])
def test_the_referee_confirms_the_plateau(case):
    p, a, m = CASES[case]
    b = 1 - a
    with mpmath.workdps(60):
        peak = float(p) / 2 * b

        def limit(c):
            return referee_quotients(p, a, m, _curve_point(mpmath.mpf("1e-20"), c))[1]

        assert float(limit(peak)) == pytest.approx(plateau(float(p), a), rel=1e-5)
        assert plateau(2.0, 0.5) == pytest.approx(np.sqrt(2.0), rel=1e-15)
        assert limit(peak * 0.97) < limit(peak) and limit(peak * 1.03) < limit(peak)


@pytest.mark.parametrize("case", CASES)
def test_the_library_quotients_match_the_referee(case):
    """Where double precision resolves ``1-|phi|^2`` (``|1-z| = 1e-3``), the
    library's quotients are the referee's at the same double point."""
    p, a, m = CASES[case]
    sym, space = _symbol(a, m), SpaceSpec.bergman(float(p))
    with mpmath.workdps(40):
        point = _curve_point(mpmath.mpf("1e-3"), float(p) / 2 * (1 - a))
        z = complex(point)
        mult, comp = referee_quotients(p, a, m, mpmath.mpc(z.real, z.imag))
    assert multiplier_quotient(z, sym, space) == pytest.approx(float(mult), rel=1e-8)
    assert composition_quotient(z, sym, space) == pytest.approx(float(comp), rel=1e-8)


# ---------------------------------------------------------------------------
# the verdicts against the labels


def _symbol(a: float, m: int) -> SymbolPair:
    """``u = (1-z)**m`` as a product of ``m`` factors ``1 - z``: the expanded
    polynomial would cancel to noise near the contact point."""
    return SymbolPair(reduce(Product, [PowerSeries([1.0, -1.0])] * m), Affine(a, 1.0 - a))


def _answer(group) -> bool | None:
    return group.overall if group.decided else None


@cache
def outcomes(case: str) -> dict:
    """What the classifier and the oracle say on a case at ``GRID``: True,
    False or None (undecided) per classifier task, and the oracle's trend and probe."""
    p, a, m = CASES[case]
    sym, space = _symbol(a, m), SpaceSpec.bergman(float(p))
    table = SampleTable(sym, space, GRID)
    bounded = _answer(table.bounded_into_bloch())
    try:
        compact = _answer(table.compact_into_bloch())
    except PreconditionUnmetError:
        compact = False if bounded is False else None  # an unbounded operator is not compact
    trend, probe, _ = oracle.oracle_task(sym, space, GRID)
    return {"bounded_bloch": bounded, "compact_bloch": compact,
            "bounded_little_bloch": _answer(table.bounded_into_little_bloch()),
            "compact_little_bloch": _answer(table.compact_into_little_bloch()),
            "trend": trend.classification, "probe": probe.trend}


def expected(case: str) -> dict:
    p, _, m = CASES[case]
    bounded, compact = label(p, m) != "unbounded", label(p, m) == "compact"
    return {"bounded_bloch": bounded, "compact_bloch": compact, "bounded_little_bloch": bounded,
            "compact_little_bloch": compact, "trend": oracle.TREND_STABLE if bounded else oracle.TREND_DIVERGENT,
            "probe": "decaying" if compact else "bounded_away"}


# Today's misses, by verdict: the cases it gets wrong or leaves undecided.
_MISSES = {
    "bounded_bloch": (
        "Inconclusive: the band slope of a growth of degree -1/2 or -1/4 stays below the divergence "
        "threshold at depth 16",
        ["p1-a0.3-m3", "p4_3-a0.3-m2", "p4_3-a0.5-m2", "p2-a0.3-m1", "p2-a0.5-m1", "p8_3-a0.5-m1",
         "p8_5-a0.5-m2"]),
    "bounded_little_bloch": (
        "Inconclusive wherever bounded_bloch is",
        ["p1-a0.3-m3", "p4_3-a0.3-m2", "p4_3-a0.5-m2", "p2-a0.3-m1", "p2-a0.5-m1", "p8_3-a0.5-m1",
         "p8_5-a0.5-m2"]),
    "compact_bloch": (
        "Holds on the critical cases, whose plateau is lost below band 2*log2(nodes) - 8; undecided at "
        "p = 4 and wherever bounded_bloch is",
        ["p1-a0.3-m3", "p1-a0.3-m4", "p1-a0.5-m4", "p4_3-a0.3-m2", "p4_3-a0.3-m3", "p4_3-a0.5-m2", "p4_3-a0.5-m3",
         "p2-a0.3-m1", "p2-a0.3-m2", "p2-a0.5-m1", "p2-a0.5-m2", "p4-a0.3-m1", "p4-a0.5-m1", "p8_3-a0.5-m1",
         "p8_5-a0.5-m2"]),
    "compact_little_bloch": (
        "Inconclusive: the |z| tail neither decays below threshold nor diverges at depth 16",
        [case for case in CASES if case != "p1-a0.5-m3"]),
    "trend": (
        "stable on every unbounded case",
        ["p1-a0.3-m3", "p1-a0.5-m3", "p4_3-a0.3-m2", "p4_3-a0.5-m2", "p2-a0.3-m1", "p2-a0.5-m1", "p8_3-a0.5-m1",
         "p8_5-a0.5-m2"]),
    "probe": (
        "decaying (ambiguous at p = 8/3, m = 1) where the operator is not compact",
        ["p1-a0.3-m3", "p1-a0.3-m4", "p1-a0.5-m3", "p1-a0.5-m4", "p4_3-a0.3-m2", "p4_3-a0.3-m3", "p4_3-a0.5-m2",
         "p4_3-a0.5-m3", "p2-a0.3-m2", "p2-a0.5-m2", "p4-a0.3-m1", "p4-a0.5-m1", "p8_3-a0.5-m1", "p8_5-a0.5-m2"]),
}


def _verdict_cases():
    for verdict, (reason, misses) in _MISSES.items():
        for case in CASES:
            marks = [pytest.mark.xfail(strict=True, reason=f"{verdict} on {case}: {reason}")] if case in misses else []
            yield pytest.param(case, verdict, marks=marks, id=f"{verdict}-{case}")


@pytest.mark.parametrize("case, verdict", _verdict_cases())
def test_the_verdict_matches_the_closed_form_label(case, verdict):
    assert outcomes(case)[verdict] == expected(case)[verdict]


@pytest.mark.parametrize("case", ["p1-a0.5-m4", "p4_3-a0.3-m3", "p2-a0.5-m2", "p4-a0.3-m1", "p8_3-a0.5-m2"])
def test_the_oracle_rows_stay_within_the_flat_tolerance(case, monkeypatch):
    # the stopping search takes 7 to 12 rounds on these cases, all 12 where
    # some row's rounding noise stays above the tolerance
    p, a, m = CASES[case]
    sym, space = _symbol(a, m), SpaceSpec.bergman(float(p))
    pairs = []
    monkeypatch.setattr(oracle, "family_bloch_seminorm", fixed_round_twins(pairs))
    oracle.oracle_task(sym, space, GRID)
    (stopping, fixed), = pairs
    assert stopping.shape == (22,)
    assert_within_the_flat_tolerance(stopping, fixed)
