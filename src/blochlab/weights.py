"""Normal weight functions on [0, 1) and the weighted-space parameters.

A weight here is ``w(r) = (1-r)**alpha * (log(e/(1-r)))**log_exponent``
together with user-supplied normality witnesses ``0 < s < t``: the ratio
``w(r)/(1-r)**s`` must fall to zero and ``w(r)/(1-r)**t`` must climb to
infinity as ``r`` increases to 1.  Witnesses are validated on a dyadic
grid, never inferred, because the boundary test functions downstream
depend on the stored ``t`` explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .disk_functions import DomainError

__all__ = ["NormalWeight", "NormalityReport", "SpaceSpec", "check_normality"]

NORMALITY_GRID_DEPTH = 40


@dataclass(frozen=True)
class NormalWeight:
    """Power-times-log-power weight with normality witnesses ``(s, t)``."""

    alpha: float
    log_exponent: float = 0.0
    s: float = None  # type: ignore[assignment]
    t: float = None  # type: ignore[assignment]

    def __post_init__(self):
        if not self.alpha > 0.0:
            raise ValueError("alpha must be positive")
        s = self.alpha / 2.0 if self.s is None else float(self.s)
        t = 1.5 * self.alpha if self.t is None else float(self.t)
        object.__setattr__(self, "alpha", float(self.alpha))
        object.__setattr__(self, "log_exponent", float(self.log_exponent))
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "t", t)
        if not (0.0 < self.s < self.t):
            raise ValueError("witnesses must satisfy 0 < s < t strictly")

    def __call__(self, r):
        if isinstance(r, float) or np.ndim(r) == 0:
            # one radius: plain comparisons, which NaN passes as it passes the array
            # test, and a one-element array, so that the value is the array path's to
            # the last bit (numpy's array power and its scalar power can differ there)
            r = float(r)
            if r < 0.0 or r >= 1.0:
                raise DomainError("weight argument must lie in [0, 1)")
            return float(self.value_from_gap(np.array([1.0 - r]))[0])
        arr = np.asarray(r, dtype=float)
        if (arr < 0.0).any() or (arr >= 1.0).any():
            raise DomainError("weight argument must lie in [0, 1)")
        return self.value_from_gap(1.0 - arr)

    def value_from_gap(self, x):
        """Weight value expressed through the gap ``x = 1 - r``.

        Quadrature works directly in ``x`` to keep precision near the
        boundary, so this is the primitive evaluator.
        """
        x = np.asarray(x, dtype=float)
        out = x**self.alpha
        if self.log_exponent != 0.0:
            out = out * (1.0 - np.log(x)) ** self.log_exponent
        return out

    def log_value_from_gap(self, log_x):
        """``log w`` as a function of ``log x``; overflow-safe form."""
        log_x = np.asarray(log_x, dtype=float)
        out = self.alpha * log_x
        if self.log_exponent != 0.0:
            out = out + self.log_exponent * np.log(1.0 - log_x)
        return out


@dataclass(frozen=True)
class NormalityReport:
    """``ok`` when the witness conditions hold on ``[1 - 2**-k0, 1)``; on
    failure ``k0`` is the last start tried and ``failed_at`` the first
    violating grid index past it."""

    ok: bool
    detail: str = ""
    failed_at: int | None = None
    condition: str | None = None
    k0: int = 0

    def __bool__(self) -> bool:
        return self.ok


def check_normality(weight: NormalWeight, depth: int = NORMALITY_GRID_DEPTH) -> NormalityReport:
    """Validate the witness conditions on the grid ``r_k = 1 - 2**-k``,
    ``k0 <= k <= depth``, for the smallest ``k0 <= depth // 2`` at which
    they hold.

    Normality (Shields and Williams) asks the ratios to be monotone only
    near the boundary, on some ``[r0, 1)``.  On the grid past ``k0`` the
    ``s`` ratio must be nonincreasing and decay overall; the ``t`` ratio
    must be nondecreasing and grow overall.  Returns the report at the
    first ``k0`` that passes, or the failure at ``k0 = depth // 2`` with
    its first violating grid index.
    """
    log_x = -np.log(2.0) * np.arange(depth + 1)
    log_w = weight.log_value_from_gap(log_x)
    log_ratio_s = log_w - weight.s * log_x
    log_ratio_t = log_w - weight.t * log_x
    for k0 in range(depth // 2 + 1):
        report = _normality_past(log_ratio_s, log_ratio_t, k0, depth)
        if report.ok:
            return report
    return report


def _normality_past(log_ratio_s, log_ratio_t, k0: int, depth: int) -> NormalityReport:
    """The witness conditions on the grid indices ``k0 .. depth``: the ``s`` ratio and the
    reciprocal ``t`` ratio must each be nonincreasing and fall overall (negation is exact)."""
    slack = 1e-12
    for name, log_ratio, turns, limit in (
        ("s", log_ratio_s, "increases", "decay toward zero"),
        ("t", -log_ratio_t, "decreases", "grow toward infinity"),
    ):
        rising = np.nonzero(np.diff(log_ratio[k0:]) > slack)[0]
        if rising.size:
            k = k0 + int(rising[0])
            detail = f"w(r)/(1-r)^{name} {turns} between grid indices {k} and {k + 1}"
            return NormalityReport(False, detail, k, name, k0)
        if log_ratio[-1] > log_ratio[k0] + np.log(0.9):
            return NormalityReport(False, f"w(r)/(1-r)^{name} does not {limit} on the grid", depth, name, k0)
    return NormalityReport(True, k0=k0)


@dataclass(frozen=True)
class SpaceSpec:
    """Integrability exponent ``p`` plus the radial weight."""

    p: float
    weight: NormalWeight

    def __post_init__(self):
        p = float(self.p)
        if not (p > 0.0 and np.isfinite(p)):
            raise ValueError("p must be finite and positive")
        object.__setattr__(self, "p", p)

    @classmethod
    def bergman(cls, p: float) -> "SpaceSpec":
        """The classical Bergman space: weight ``(1-r)**(1/p)``.

        Default witnesses are ``s = 1/(2p)`` and ``t = 3/(2p)``.
        """
        p = float(p)
        if not p > 0.0:  # the weight exponent 1/p needs it before the space checks it
            raise ValueError("p must be finite and positive")
        alpha = 1.0 / p
        return cls(p, NormalWeight(alpha, 0.0, alpha / 2.0, 1.5 * alpha))
