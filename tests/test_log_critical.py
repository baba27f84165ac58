"""Closed-form ground truth at the boundary: the log-critical family.

The critical cases of ``test_critical_family`` (``phi = a z + b`` with
``a = 1/2``, ``u = (1-z)**m`` at ``m = 4/p``) in the space of weight
``w(r) = (1-r)**(1/p) * log(e/(1-r))**gamma``.  Only the weight at
``|phi(z)|`` changed, and it enters both quotients as a divisor, so each
quotient is the ``gamma = 0`` quotient times ``log(e/(1-|phi|))**(-gamma)``.
Along the curves ``X = c Y -> 0`` the ``gamma = 0`` composition quotient
tends to a positive limit (its peak is ``L(p, a)``) while the log factor
tends to infinity for ``gamma < 0`` and to 0 for ``gamma > 0``, and the
multiplier quotient has one half more degree than that.  Hence ``gamma < 0``
is unbounded and ``gamma > 0`` is compact; the argument is logged in
CHANGES.md.

An mpmath referee confirms the log factor and the plateau at ``|1-z|`` down
to 1e-20, and ties itself to the library's quotients where double
precision resolves them.  Every weight is normal at some ``k0 <= 10``.
Every verdict the classifier or the oracle gets wrong or leaves undecided
today is a named strict ``xfail``, so a fix flips a named test.
"""

from fractions import Fraction
from functools import cache

import mpmath
import pytest

from blochlab import NormalWeight, SpaceSpec, check_normality, oracle
from blochlab.criteria import PreconditionUnmetError, SampleTable, composition_quotient, multiplier_quotient
from test_critical_family import GRID, _answer, _curve_point, _symbol, plateau, referee_quotients

A = 0.5
GAMMAS = (-1.0, -0.5, -0.2, -0.1, -0.05, 0.05, 0.1, 0.2, 0.5, 1.0)
CASES = {f"p{p}-g{gamma:+g}".replace("/", "_"): (p, gamma)
         for p in (Fraction(1), Fraction(4, 3), Fraction(2), Fraction(4)) for gamma in GAMMAS}


def space(p: Fraction, gamma: float) -> SpaceSpec:
    alpha = 1.0 / float(p)
    return SpaceSpec(float(p), NormalWeight(alpha, gamma))


def label(gamma: float) -> str:
    return "unbounded" if gamma < 0 else "compact"


# ---------------------------------------------------------------------------
# the mpmath referee


def referee_log_quotients(p, gamma, z) -> tuple:
    """Both quotients at ``z`` in mpmath for the log weight, from the closed forms alone."""
    p, a, m = mpmath.mpf(p.numerator) / p.denominator, mpmath.mpf(A), int(4 / p)
    x = 1 - abs(z) ** 2
    phi = a * z + (1 - a)
    gap = 1 - abs(phi) ** 2
    weight = (1 - abs(phi)) ** (1 / p) * mpmath.log(mpmath.e / (1 - abs(phi))) ** mpmath.mpf(gamma)
    u, du = (1 - z) ** m, -m * (1 - z) ** (m - 1)
    return x * abs(du) / (weight * gap ** (1 / p)), x * abs(u * a) / (weight * gap ** (1 + 1 / p))


def _log_factor(gamma, z):
    """``log(e/(1-|phi(z)|))**(-gamma)``."""
    return mpmath.log(mpmath.e / (1 - abs(A * z + (1 - A)))) ** (-mpmath.mpf(gamma))


def _peak(p: Fraction) -> float:
    """The ``c`` at which the ``gamma = 0`` composition limit peaks."""
    return float(p) / 2 * (1 - A)


@pytest.mark.parametrize("case", CASES)
def test_the_referee_confirms_the_log_factor(case):
    p, gamma = CASES[case]
    with mpmath.workdps(60):
        for t in ("1e-5", "1e-10", "1e-15", "1e-20"):
            z = _curve_point(mpmath.mpf(t), _peak(p))
            plain = referee_quotients(p, A, int(4 / p), z)
            for logged, base in zip(referee_log_quotients(p, gamma, z), plain):
                assert float(logged / (base * _log_factor(gamma, z))) == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("case", CASES)
def test_the_referee_confirms_the_plateau_and_the_label(case):
    """At ``|1-z| = 1e-20`` the composition quotient is ``L(p, a)`` times the
    log factor, and it grows toward the boundary exactly when ``gamma < 0``,
    at the log rate ``-gamma``."""
    p, gamma = CASES[case]
    with mpmath.workdps(60):
        far, near = (_curve_point(mpmath.mpf(t), _peak(p)) for t in ("1e-10", "1e-20"))
        q_far, q_near = (referee_log_quotients(p, gamma, z)[1] for z in (far, near))
        assert float(q_near / _log_factor(gamma, near)) == pytest.approx(plateau(float(p), A), rel=1e-5)
        logs = [mpmath.log(mpmath.e / (1 - abs(A * z + (1 - A)))) for z in (far, near)]
        rate = float(mpmath.log(q_near / q_far) / mpmath.log(logs[1] / logs[0]))
        assert rate == pytest.approx(-gamma, abs=1e-3)
        assert label(gamma) == ("unbounded" if q_near > q_far else "compact")


@pytest.mark.parametrize("case", CASES)
def test_the_library_quotients_match_the_referee(case):
    """Where double precision resolves ``1-|phi|^2`` (``|1-z| = 1e-3``), the
    library's quotients are the referee's at the same double point."""
    p, gamma = CASES[case]
    sym, spec = _symbol(A, int(4 / p)), space(p, gamma)
    with mpmath.workdps(40):
        z = complex(_curve_point(mpmath.mpf("1e-3"), _peak(p)))
        mult, comp = referee_log_quotients(p, gamma, mpmath.mpc(z.real, z.imag))
    assert multiplier_quotient(z, sym, spec) == pytest.approx(float(mult), rel=1e-8)
    assert composition_quotient(z, sym, spec) == pytest.approx(float(comp), rel=1e-8)


@pytest.mark.parametrize("case", CASES)
def test_the_weight_is_normal_near_the_boundary(case):
    report = check_normality(space(*CASES[case]).weight)
    assert report.ok and report.k0 <= 10


# ---------------------------------------------------------------------------
# the verdicts against the labels


@cache
def outcomes(case: str) -> dict:
    """What the classifier and the oracle say on a case at ``GRID``: True,
    False or None (undecided) per classifier task, and the oracle's trend and probe."""
    p, gamma = CASES[case]
    sym, spec = _symbol(A, int(4 / p)), space(p, gamma)
    table = SampleTable(sym, spec, GRID)
    bounded = _answer(table.bounded_into_bloch())
    try:
        compact = _answer(table.compact_into_bloch())
    except PreconditionUnmetError:
        compact = False if bounded is False else None  # an unbounded operator is not compact
    trend, probe, _ = oracle.oracle_task(sym, spec, GRID)
    return {"bounded_bloch": bounded, "compact_bloch": compact,
            "bounded_little_bloch": _answer(table.bounded_into_little_bloch()),
            "compact_little_bloch": _answer(table.compact_into_little_bloch()),
            "trend": trend.classification, "probe": probe.trend}


def expected(case: str) -> dict:
    bounded = compact = label(CASES[case][1]) == "compact"
    return {"bounded_bloch": bounded, "compact_bloch": compact, "bounded_little_bloch": bounded,
            "compact_little_bloch": compact, "trend": oracle.TREND_STABLE if bounded else oracle.TREND_DIVERGENT,
            "probe": "decaying" if compact else "bounded_away"}


def _cases(*names: str) -> list:
    return [f"p{name}".replace("/", "_") for name in names]


_WRONG_HOLDS = ("1-g-0.1", "1-g-0.05", "4/3-g-0.05", "2-g-0.1", "2-g-0.05", "4-g-0.1", "4-g-0.05")
_UNDECIDED_UNBOUNDED = ("1-g-0.5", "1-g-0.2", "4/3-g-1", "4/3-g-0.5", "4/3-g-0.2", "4/3-g-0.1", "2-g-1", "2-g-0.5",
                        "2-g-0.2", "4-g-1", "4-g-0.5", "4-g-0.2")
_UNBOUNDED = [case for case in CASES if CASES[case][1] < 0]

# Today's misses, by verdict: the cases it gets wrong or leaves undecided.
_MISSES = {
    "bounded_bloch": (
        "Holds where a log**|gamma| growth passes the slope and stabilization tests at depth 16 "
        "(|gamma| below about 0.076, and at gamma = -0.1 with the plateau lost below band 2*log2(nodes) - 8); "
        "Inconclusive on the steeper unbounded cases but p = 1, gamma = -1",
        _cases(*_WRONG_HOLDS, *_UNDECIDED_UNBOUNDED)),
    "bounded_little_bloch": (
        "wrong or undecided wherever bounded_bloch is",
        _cases(*_WRONG_HOLDS, *_UNDECIDED_UNBOUNDED)),
    "compact_bloch": (
        "Holds on the unbounded cases with gamma > -0.2 but p = 4, where it is undecided, as it is on every "
        "p = 4 case and wherever bounded_bloch is",
        _cases(*_WRONG_HOLDS, *_UNDECIDED_UNBOUNDED, "4-g+0.05", "4-g+0.1", "4-g+0.2", "4-g+0.5", "4-g+1")),
    "compact_little_bloch": (
        "Inconclusive: the |z| tail neither decays below threshold nor diverges at depth 16",
        [case for case in CASES if case != "p1-g-1"]),
    "trend": (
        "stable on every unbounded case: a log rate is flat at this depth",
        _UNBOUNDED),
    "probe": (
        "decaying (ambiguous at p = 4, gamma = -1) where the operator is not compact",
        _UNBOUNDED),
}


def _verdict_cases():
    for verdict, (reason, misses) in _MISSES.items():
        assert set(misses) <= set(CASES)
        for case in CASES:
            marks = [pytest.mark.xfail(strict=True, reason=f"{verdict} on {case}: {reason}")] if case in misses else []
            yield pytest.param(case, verdict, marks=marks, id=f"{verdict}-{case}")


@pytest.mark.parametrize("case, verdict", _verdict_cases())
def test_the_verdict_matches_the_closed_form_label(case, verdict):
    assert outcomes(case)[verdict] == expected(case)[verdict]
