"""Criterion quantities and classifiers for the weighted composition
operator ``f -> u * (f o phi)`` mapping into the Bloch spaces.

Two quantities drive everything, evaluated pointwise on the disk with the
space weight ``w`` and exponent ``p``:

* multiplier quotient   ``(1-|z|^2) |u'(z)| / (w(|phi(z)|) (1-|phi(z)|^2)**(1/p))``
* composition quotient  ``(1-|z|^2) |u(z) phi'(z)| / (w(|phi(z)|) (1-|phi(z)|^2)**(1+1/p))``

Boundedness into the Bloch space holds iff both have finite supremum;
compactness (given boundedness) iff both tend to zero as ``|phi(z)| -> 1``;
the little-Bloch variants replace the trigger by ``|z| -> 1`` and add tail
conditions on ``u`` itself.  Verdicts are tri-state: a dead zone between
the divergence and stabilization tests is reported as Inconclusive rather
than guessed.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .disk_functions import DiskFunction, SelfMap
from .norms import (
    DEFAULT_GRID,
    TRIGGER_PHI,
    TRIGGER_Z,
    BoundaryProfile,
    RadialGrid,
    bloch_seminorm,
    boundary_profile,
    is_little_bloch,
    little_bloch_profile,
    one_minus_sq,
    profile_thresholds,
    sample_points,
)
from .weights import SpaceSpec

__all__ = [
    "SymbolPair",
    "Status",
    "Verdict",
    "PreconditionUnmetError",
    "MULTIPLIER_QUANTITY",
    "COMPOSITION_QUANTITY",
    "multiplier_quotient",
    "composition_quotient",
    "criterion_profile",
    "VerdictGroup",
    "EquivalenceProbe",
    "classify_bounded_into_bloch",
    "classify_compact_into_bloch",
    "classify_bounded_into_little_bloch",
    "classify_compact_into_little_bloch",
    "little_bloch_verdict",
    "derivative_limit_probe",
    "composition_limit_probe",
    "bergman_specialization_ratio",
]

SLOPE_FAIL = 0.05
SLOPE_HOLD = 0.01
STABLE_REL = 0.02
LIMIT_REL = 1e-3
LIMIT_ABS = 1e-9

MULTIPLIER_QUANTITY = "u_prime"
COMPOSITION_QUANTITY = "u_phi_prime"
_QUOTIENTS = (MULTIPLIER_QUANTITY, COMPOSITION_QUANTITY)
_PLAIN_COMPOSITION = "u_phi_prime_plain"

_PHI_CLIP = 1.0 - 1e-16  # guards double rounding of |phi| at extreme radii


class PreconditionUnmetError(RuntimeError):
    """A compactness classifier was invoked without a boundedness verdict."""


@dataclass(frozen=True, eq=False)
class SymbolPair:
    """Multiplier ``u`` and self-map ``phi`` inducing ``f -> u (f o phi)``."""

    u: DiskFunction
    phi: SelfMap


class Status(str, Enum):
    HOLDS = "Holds"
    FAILS = "Fails"
    INCONCLUSIVE = "Inconclusive"


@dataclass
class Verdict:
    quantity: str
    status: Status
    sup_estimate: float
    divergence_slope: float | None
    profile: BoundaryProfile | None
    notes: str = ""

    def to_dict(self) -> dict:
        sup = "Divergent" if math.isinf(self.sup_estimate) else float(self.sup_estimate)
        return {
            "quantity": self.quantity,
            "status": self.status.value,
            "sup_estimate": sup,
            "divergence_slope": None if self.divergence_slope is None else float(self.divergence_slope),
            "profile": None if self.profile is None else self.profile.to_dict(),
            "notes": self.notes,
        }


# ---------------------------------------------------------------------------
# pointwise quantities


def _denominator(space: SpaceSpec, phi_mod: np.ndarray, power: float) -> np.ndarray:
    return space.weight(phi_mod) * one_minus_sq(phi_mod) ** power


def multiplier_quotient(z, sym: SymbolPair, space: SpaceSpec):
    """``(1-|z|^2)|u'| / (w(|phi|)(1-|phi|^2)**(1/p))`` at ``z``."""
    du = np.abs(sym.u.deriv(z))
    pm = np.minimum(np.abs(np.asarray(sym.phi.eval(z))), _PHI_CLIP)
    num = one_minus_sq(np.abs(np.asarray(z, dtype=complex))) * du
    out = num / _denominator(space, pm, 1.0 / space.p)
    return float(out) if np.ndim(z) == 0 else out


def composition_quotient(z, sym: SymbolPair, space: SpaceSpec):
    """``(1-|z|^2)|u phi'| / (w(|phi|)(1-|phi|^2)**(1+1/p))`` at ``z``."""
    prod = np.abs(np.asarray(sym.u.eval(z)) * np.asarray(sym.phi.deriv(z)))
    pm = np.minimum(np.abs(np.asarray(sym.phi.eval(z))), _PHI_CLIP)
    num = one_minus_sq(np.abs(np.asarray(z, dtype=complex))) * prod
    out = num / _denominator(space, pm, 1.0 + 1.0 / space.p)
    return float(out) if np.ndim(z) == 0 else out


@dataclass
class _SymbolSamples:
    """Both quotients and the plain composition numerator over the sample
    circles, keyed by quantity name."""

    abs_z: np.ndarray
    abs_phi: np.ndarray
    quantities: dict

    def profile(self, name: str, trigger: str, depth: int) -> BoundaryProfile:
        modulus = self.abs_z if trigger == TRIGGER_Z else self.abs_phi
        return boundary_profile(self.quantities[name], modulus, depth, trigger)


def _symbol_samples(sym: SymbolPair, space: SpaceSpec, grid: RadialGrid) -> _SymbolSamples:
    radii, z = sample_points(grid.depth, grid.angular_nodes)
    omr2 = one_minus_sq(radii)[:, None]
    du = np.abs(sym.u.deriv(z))
    uv = sym.u.eval(z)
    pv = sym.phi.eval(z)
    dp = sym.phi.deriv(z)
    pm = np.minimum(np.abs(pv), _PHI_CLIP)
    wgt = space.weight(pm)
    gap = one_minus_sq(pm)
    plain_mult = omr2 * du
    plain_comp = omr2 * np.abs(uv * dp)
    q_mult = plain_mult / (wgt * gap ** (1.0 / space.p))
    q_comp = plain_comp / (wgt * gap ** (1.0 + 1.0 / space.p))
    abs_z = np.broadcast_to(radii[:, None], z.shape)
    return _SymbolSamples(
        abs_z=abs_z.ravel(),
        abs_phi=pm.ravel(),
        quantities={
            MULTIPLIER_QUANTITY: q_mult.ravel(),
            COMPOSITION_QUANTITY: q_comp.ravel(),
            _PLAIN_COMPOSITION: plain_comp.ravel(),  # (1-|z|^2)|u phi'|
        },
    )


def criterion_profile(
    quantity: str,
    sym: SymbolPair,
    space: SpaceSpec,
    trigger: str = TRIGGER_Z,
    grid: RadialGrid = DEFAULT_GRID,
) -> BoundaryProfile:
    """Boundary profile of the chosen quotient, triggered by ``|z|`` or
    ``|phi(z)|``.  Regions the image never reaches come back flagged empty."""
    return _symbol_samples(sym, space, grid).profile(quantity, trigger, grid.depth)


# ---------------------------------------------------------------------------
# verdict rules


def _band_slope(profile: BoundaryProfile) -> float | None:
    """Log-log slope of the deepest band suprema against ``1/(1-modulus)``,
    the modulus being the one at which each band supremum was attained.

    Uses up to the last four bands with finite positive values; at least
    three are required for a trustworthy fit.
    """
    finite = np.nonzero(
        np.isfinite(profile.band_values)
        & (profile.band_values > 0.0)
        & (profile.band_moduli < 1.0)
    )[0]
    if finite.size < 3:
        return None
    idx = finite[-4:]
    x = np.log(1.0 / (1.0 - profile.band_moduli[idx]))
    y = np.log(profile.band_values[idx])
    if np.ptp(x) < 1e-9:
        return None
    return float(np.polyfit(x, y, 1)[0])


def _diverges(profile: BoundaryProfile, slope: float | None) -> bool:
    """Sustained divergence: a steep log-log slope while the deepest band
    suprema are still climbing."""
    if slope is None or not slope > SLOPE_FAIL:
        return False
    finite = np.nonzero(np.isfinite(profile.band_values) & (profile.band_values > 0.0))[0]
    if finite.size < 3:
        return False
    idx = finite[-4:]
    return bool(profile.band_values[idx[-1]] > profile.band_values[idx[0]])


def _sup_type_verdict(name: str, samples: _SymbolSamples, depth: int) -> Verdict:
    """Finite-sup test over ``|z| -> 1``: fail on a sustained positive
    log-log slope, hold when the slope is flat-or-negative and the running
    supremum has stabilized away from the deepest bands."""
    profile = samples.profile(name, TRIGGER_Z, depth)
    quantity = samples.quantities[name]
    global_sup = float(quantity.max(initial=0.0))
    if global_sup == 0.0:
        return Verdict(name, Status.HOLDS, 0.0, None, profile, "quantity vanishes identically")
    slope = _band_slope(profile)
    inner_cut = profile_thresholds(depth)[depth - 4]
    inner = quantity[samples.abs_z <= inner_cut]
    inner_sup = float(inner.max(initial=0.0))
    stabilized = global_sup <= inner_sup * (1.0 + STABLE_REL)
    if _diverges(profile, slope):
        return Verdict(
            name, Status.FAILS, math.inf, slope, profile,
            f"band suprema grow with slope {slope:.3f}; sample sup {global_sup:.6g}",
        )
    if (slope is None or slope < SLOPE_HOLD) and stabilized:
        return Verdict(name, Status.HOLDS, global_sup, slope, profile, "")
    return Verdict(
        name, Status.INCONCLUSIVE, global_sup, slope, profile,
        "neither sustained divergence nor stabilized supremum at this depth",
    )


def _limit_type_verdict(name: str, profile: BoundaryProfile) -> Verdict:
    """Limit-to-zero test mirroring the little-Bloch tail rule."""
    vals = profile.nonempty_values
    if vals.size == 0:
        return Verdict(
            name, Status.HOLDS, 0.0, None, profile,
            "no samples past the first threshold; condition vacuous at this resolution",
        )
    if np.all(vals == 0.0):
        return Verdict(name, Status.HOLDS, 0.0, None, profile, "quantity vanishes on the region")
    v0, vk = float(vals[0]), float(vals[-1])
    tail_ok = vals.size >= 3 and vals[-3] >= vals[-2] >= vals[-1]
    slope = _band_slope(profile)
    notes = ""
    if bool(profile.empty[-1]):
        notes = "deepest regions unsampled at this resolution"
    if tail_ok and vk < max(LIMIT_REL * v0, LIMIT_ABS):
        return Verdict(name, Status.HOLDS, vk, slope, profile, notes)
    if _diverges(profile, slope):
        return Verdict(
            name, Status.FAILS, math.inf, slope, profile,
            f"band suprema grow with slope {slope:.3f}; limit cannot be zero",
        )
    return Verdict(
        name, Status.INCONCLUSIVE, vk, slope, profile,
        (notes + "; " if notes else "") + "tail neither decays below threshold nor diverges",
    )


def _tri(verdicts) -> bool | None:
    if any(v.status is Status.FAILS for v in verdicts):
        return False
    if all(v.status is Status.HOLDS for v in verdicts):
        return True
    return None


# ---------------------------------------------------------------------------
# classifiers


@dataclass
class VerdictGroup:
    """The verdicts that jointly answer one classification question.

    ``overall`` is True when every verdict Holds; ``decided`` when the
    verdicts are not left Inconclusive.  An ``into_bloch`` prerequisite
    group must itself hold (be decided) for this group to.  ``vacuous``
    records whether the structural bound on ``phi`` made a ``|phi|``
    limit test vacuous.  The optional fields are emitted only when set.
    """

    verdicts: tuple[Verdict, ...]
    vacuous: bool | None = None
    into_bloch: VerdictGroup | None = None

    @property
    def overall(self) -> bool:
        prior = self.into_bloch is None or self.into_bloch.overall
        return prior and _tri(self.verdicts) is True

    @property
    def decided(self) -> bool:
        prior = self.into_bloch is None or self.into_bloch.decided
        return prior and _tri(self.verdicts) is not None

    def to_dict(self) -> dict:
        out = {"overall": self.overall, "decided": self.decided}
        if self.vacuous is not None:
            out["vacuous"] = self.vacuous
        if self.into_bloch is not None:
            out["into_bloch"] = self.into_bloch.to_dict()
        out["verdicts"] = [v.to_dict() for v in self.verdicts]
        return out


def classify_bounded_into_bloch(
    sym: SymbolPair, space: SpaceSpec, grid: RadialGrid = DEFAULT_GRID
) -> VerdictGroup:
    """Finite-sup verdicts for both criterion quotients over the disk."""
    samples = _symbol_samples(sym, space, grid)
    return VerdictGroup(tuple(_sup_type_verdict(name, samples, grid.depth) for name in _QUOTIENTS))


def _phi_limit(
    sym: SymbolPair,
    space: SpaceSpec,
    grid: RadialGrid,
    names: tuple,
    samples: _SymbolSamples | None = None,
    force_boundary: bool = False,
) -> VerdictGroup:
    """Limit-to-zero verdicts for the named quantities as ``|phi(z)| -> 1``.

    When the structural bound keeps the image inside a compact sub-disk
    the limits hold vacuously and nothing is sampled, unless
    ``force_boundary`` asks for the profile analysis anyway.
    """
    vacuous = sym.phi.sup_norm_estimate < 1.0
    if vacuous and not force_boundary:
        note = "vacuous: the image stays inside a compact sub-disk"
        verdicts = [Verdict(name, Status.HOLDS, 0.0, None, _empty_phi_profile(grid), note) for name in names]
    else:
        samples = samples or _symbol_samples(sym, space, grid)
        verdicts = [_limit_type_verdict(name, samples.profile(name, TRIGGER_PHI, grid.depth)) for name in names]
    return VerdictGroup(tuple(verdicts), vacuous=vacuous)


def classify_compact_into_bloch(
    sym: SymbolPair,
    space: SpaceSpec,
    grid: RadialGrid = DEFAULT_GRID,
    bounded: VerdictGroup | None = None,
    force_boundary: bool = False,
) -> VerdictGroup:
    """Limit-to-zero verdicts triggered by ``|phi(z)| -> 1``.

    Requires a positive boundedness verdict (the characterization assumes
    it) and short-circuits to a vacuous pass when the structural bound
    keeps the image inside a compact sub-disk, unless ``force_boundary``
    asks for the profile analysis anyway.
    """
    if bounded is None:
        bounded = classify_bounded_into_bloch(sym, space, grid)
    if not bounded.overall:
        raise PreconditionUnmetError(
            "compactness classification requires a bounded operator; got "
            f"multiplier={bounded.verdicts[0].status.value}, "
            f"composition={bounded.verdicts[1].status.value}"
        )
    return _phi_limit(sym, space, grid, _QUOTIENTS, force_boundary=force_boundary)


def _empty_phi_profile(grid: RadialGrid) -> BoundaryProfile:
    depth = grid.depth
    return BoundaryProfile(
        TRIGGER_PHI,
        profile_thresholds(depth).copy(),
        np.full(depth, np.nan),
        np.full(depth, np.nan),
        np.full(depth, np.nan),
        np.ones(depth, dtype=bool),
    )


def little_bloch_verdict(f: DiskFunction, grid: RadialGrid = DEFAULT_GRID, name: str = "bloch_tail") -> Verdict:
    """Tri-state little-Bloch classification of a single function."""
    prof = little_bloch_profile(f, grid)
    semi = bloch_seminorm(f, grid)
    slope = _band_slope(prof)
    vals = prof.nonempty_values
    tail = float(vals[-1]) if vals.size else 0.0
    if is_little_bloch(prof, semi):
        return Verdict(name, Status.HOLDS, tail, slope, prof, f"seminorm {semi:.6g}")
    if _diverges(prof, slope):
        return Verdict(name, Status.FAILS, math.inf, slope, prof, "derivative growth accelerates at the boundary")
    return Verdict(
        name, Status.INCONCLUSIVE, tail, slope, prof,
        f"tail {tail:.3g} above threshold at this depth (seminorm {semi:.6g}); may decay further",
    )


def classify_bounded_into_little_bloch(
    sym: SymbolPair,
    space: SpaceSpec,
    grid: RadialGrid = DEFAULT_GRID,
    bounded: VerdictGroup | None = None,
) -> VerdictGroup:
    """Boundedness into the little Bloch space: bounded into Bloch, the
    multiplier has a vanishing Bloch tail, and ``(1-|z|^2)|u phi'| -> 0``."""
    if bounded is None:
        bounded = classify_bounded_into_bloch(sym, space, grid)
    u_tail = little_bloch_verdict(sym.u, grid, name="u_bloch_tail")
    prod_tail = _product_tail(_symbol_samples(sym, space, grid), grid.depth)
    return VerdictGroup((u_tail, prod_tail), into_bloch=bounded)


def _product_tail(samples: _SymbolSamples, depth: int) -> Verdict:
    """``(1-|z|^2)|u phi'| -> 0`` as ``|z| -> 1``."""
    return _limit_type_verdict(_PLAIN_COMPOSITION, samples.profile(_PLAIN_COMPOSITION, TRIGGER_Z, depth))


def classify_compact_into_little_bloch(
    sym: SymbolPair, space: SpaceSpec, grid: RadialGrid = DEFAULT_GRID
) -> VerdictGroup:
    """Both criterion quotients must vanish as ``|z| -> 1`` (no boundedness
    hypothesis enters this characterization)."""
    samples = _symbol_samples(sym, space, grid)
    return VerdictGroup(tuple(_limit_type_verdict(name, samples.profile(name, TRIGGER_Z, grid.depth))
                              for name in _QUOTIENTS))


# ---------------------------------------------------------------------------
# limit-equivalence probes


@dataclass
class EquivalenceProbe:
    name: str
    lhs: Verdict
    rhs: tuple[Verdict, ...]

    @property
    def lhs_holds(self) -> bool | None:
        return _tri((self.lhs,))

    @property
    def rhs_holds(self) -> bool | None:
        return _tri(self.rhs)

    @property
    def decided(self) -> bool:
        return self.lhs_holds is not None and self.rhs_holds is not None

    @property
    def agree(self) -> bool | None:
        if not self.decided:
            return None
        return self.lhs_holds == self.rhs_holds

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "decided": self.decided,
            "agree": self.agree,
            "lhs": self.lhs.to_dict(),
            "rhs": [v.to_dict() for v in self.rhs],
        }


def _limit_probe(
    name: str,
    quantity: str,
    side: Callable[[_SymbolSamples], Verdict],
    sym: SymbolPair,
    space: SpaceSpec,
    grid: RadialGrid,
) -> EquivalenceProbe:
    """Dual evaluation of a quotient's limit equivalence: vanishing as
    ``|z| -> 1`` against vanishing as ``|phi(z)| -> 1`` jointly with the
    side condition ``side(samples)``."""
    samples = _symbol_samples(sym, space, grid)
    lhs = _limit_type_verdict(quantity, samples.profile(quantity, TRIGGER_Z, grid.depth))
    (rhs,) = _phi_limit(sym, space, grid, (quantity,), samples).verdicts
    return EquivalenceProbe(name, lhs, (rhs, side(samples)))


def derivative_limit_probe(
    sym: SymbolPair, space: SpaceSpec, grid: RadialGrid = DEFAULT_GRID
) -> EquivalenceProbe:
    """Multiplier-quotient limit equivalence; the side condition is a
    vanishing Bloch tail for ``u``."""
    return _limit_probe("derivative_limit", MULTIPLIER_QUANTITY,
                        lambda _: little_bloch_verdict(sym.u, grid, name="u_bloch_tail"), sym, space, grid)


def composition_limit_probe(
    sym: SymbolPair, space: SpaceSpec, grid: RadialGrid = DEFAULT_GRID
) -> EquivalenceProbe:
    """Composition-quotient limit equivalence; the side condition is
    ``(1-|z|^2)|u phi'| -> 0``."""
    return _limit_probe("composition_limit", COMPOSITION_QUANTITY,
                        lambda samples: _product_tail(samples, grid.depth), sym, space, grid)


# ---------------------------------------------------------------------------
# Bergman-space specialization cross-check


def bergman_specialization_ratio(z, sym: SymbolPair, p: float):
    """Ratio of the general composition quotient (with the Bergman weight
    ``(1-r)**(1/p)``) to the special Bergman form with denominator
    ``(1-|phi|^2)**(1+2/p)``.  Algebraically it equals
    ``(1+|phi(z)|)**(1/p)``; where the shared numerator vanishes the
    analytic value of the ratio is returned.
    """
    space = SpaceSpec.bergman(p)
    q2 = composition_quotient(z, sym, space)
    pm = np.minimum(np.abs(np.asarray(sym.phi.eval(z))), _PHI_CLIP)
    num = one_minus_sq(np.abs(np.asarray(z, dtype=complex))) * np.abs(
        np.asarray(sym.u.eval(z)) * np.asarray(sym.phi.deriv(z))
    )
    special = num / one_minus_sq(pm) ** (1.0 + 2.0 / p)
    analytic = (1.0 + pm) ** (1.0 / p)
    out = np.where(special > 0.0, np.asarray(q2) / np.where(special > 0.0, special, 1.0), analytic)
    return float(out) if np.ndim(z) == 0 else out
