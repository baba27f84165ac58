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

import itertools
import math
import os
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .disk_functions import SymbolPair
from .norms import (
    DEFAULT_GRID,
    TRIGGER_PHI,
    TRIGGER_Z,
    BandPartition,
    BoundaryProfile,
    RadialGrid,
    block_edges,
    bloch_seminorm,
    boundary_profile,
    circle_maxima,
    one_minus_sq,
    profile_thresholds,
    sample_points,
)
from .weights import SpaceSpec

__all__ = [
    "Status",
    "Verdict",
    "PreconditionUnmetError",
    "multiplier_quotient",
    "composition_quotient",
    "SampleTable",
    "VerdictGroup",
    "EquivalenceProbe",
    "classify_bounded_into_bloch",
    "classify_compact_into_bloch",
    "classify_bounded_into_little_bloch",
    "classify_compact_into_little_bloch",
    "derivative_limit_probe",
    "composition_limit_probe",
    "bergman_specialization_ratio",
]

SLOPE_FAIL = 0.05
SLOPE_HOLD = 0.01
STABLE_REL = 0.02

MULTIPLIER_QUANTITY = "u_prime"
COMPOSITION_QUANTITY = "u_phi_prime"
_QUOTIENTS = (MULTIPLIER_QUANTITY, COMPOSITION_QUANTITY)
_PLAIN_MULTIPLIER = "u_prime_plain"
_PLAIN_COMPOSITION = "u_phi_prime_plain"
_SAMPLED = (*_QUOTIENTS, _PLAIN_MULTIPLIER, _PLAIN_COMPOSITION)

_PHI_CLIP = 1.0 - 1e-16  # guards double rounding of |phi| at extreme radii


class PreconditionUnmetError(RuntimeError):
    """A compactness classifier was invoked without a boundedness verdict."""


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
    profile: BoundaryProfile
    notes: str = ""

    def to_dict(self) -> dict:
        sup = "Divergent" if math.isinf(self.sup_estimate) else float(self.sup_estimate)
        return {
            "quantity": self.quantity,
            "status": self.status.value,
            "sup_estimate": sup,
            "divergence_slope": None if self.divergence_slope is None else float(self.divergence_slope),
            "profile": self.profile.to_dict(),
            "notes": self.notes,
        }


# ---------------------------------------------------------------------------
# pointwise quantities


def _quotients(z, omr2, sym: SymbolPair, space: SpaceSpec, out=(None,) * 5):
    """Clipped ``|phi(z)|`` and the criterion samples at ``z``, given
    ``omr2 = 1-|z|^2``: both quotients and their plain numerators
    ``(1-|z|^2)|u'|`` and ``(1-|z|^2)|u phi'|``, keyed by quantity name.
    ``out``, when given, holds five arrays of the samples' shape that
    receive ``|phi|`` and the four samples, in that order."""
    u, du, phi, dphi = sym.jets(z)
    pm, mult, comp, plain_mult, plain_comp = out
    pm = np.minimum(np.abs(np.asarray(phi)), _PHI_CLIP, out=pm)
    plain_mult = np.multiply(omr2, np.abs(du), out=plain_mult)
    plain_comp = np.multiply(omr2, np.abs(np.asarray(u) * np.asarray(dphi)), out=plain_comp)
    wgt, gap = space.weight(pm), one_minus_sq(pm)
    mult = np.divide(plain_mult, wgt * gap ** (1.0 / space.p), out=mult)
    comp = np.divide(plain_comp, wgt * gap ** (1.0 + 1.0 / space.p), out=comp)
    return pm, dict(zip(_SAMPLED, (mult, comp, plain_mult, plain_comp)))


def _quotients_at(z, sym: SymbolPair, space: SpaceSpec):
    return _quotients(z, one_minus_sq(np.abs(np.asarray(z, dtype=complex))), sym, space)


def multiplier_quotient(z, sym: SymbolPair, space: SpaceSpec):
    """``(1-|z|^2)|u'| / (w(|phi|)(1-|phi|^2)**(1/p))`` at ``z``."""
    out = _quotients_at(z, sym, space)[1][MULTIPLIER_QUANTITY]
    return float(out) if np.ndim(z) == 0 else out


def composition_quotient(z, sym: SymbolPair, space: SpaceSpec):
    """``(1-|z|^2)|u phi'| / (w(|phi|)(1-|phi|^2)**(1+1/p))`` at ``z``."""
    out = _quotients_at(z, sym, space)[1][COMPOSITION_QUANTITY]
    return float(out) if np.ndim(z) == 0 else out


# ---------------------------------------------------------------------------
# verdict rules


LITTLE_BLOCH_REL = 1e-3
LITTLE_BLOCH_ABS = 1e-9


def _tail_holds(vals: np.ndarray, reference: float) -> bool:
    """The tail test on a profile's nonempty nested values: there are at
    least three, and the last lies below ``LITTLE_BLOCH_REL`` relative to
    ``reference``.  (Nested values never increase; ``BoundaryProfile``
    rejects a profile whose values do.)"""
    return bool(vals.size >= 3 and vals[-1] < max(LITTLE_BLOCH_REL * reference, LITTLE_BLOCH_ABS))


def _verdict(name: str, profile: BoundaryProfile, value: float, holds, notes: tuple) -> Verdict:
    """The verdict rule every classifier reads.

    The slope is the log-log fit of the deepest band suprema against
    ``1/(1-modulus)``, the modulus being the one at which each band
    supremum was attained, over the last four or fewer bands with a finite
    positive supremum attained below modulus 1; fewer than three bands, or
    bands at one modulus, give no slope.  The verdict Holds when
    ``holds(slope)`` does, Fails when the slope exceeds ``SLOPE_FAIL`` while
    the deepest of those band suprema still climb, and is Inconclusive
    otherwise.  ``notes`` are the Holds, Fails (formatted with ``slope``)
    and Inconclusive notes.
    """
    vals, mods = profile.band_values, profile.band_moduli
    idx = np.nonzero(np.isfinite(vals) & (vals > 0.0) & (mods < 1.0))[0][-4:]
    slope = None
    if idx.size >= 3:
        x = np.log(1.0 / (1.0 - mods[idx]))
        if np.ptp(x) >= 1e-9:
            slope = float(np.polyfit(x, np.log(vals[idx]), 1)[0])
    if holds(slope):
        return Verdict(name, Status.HOLDS, value, slope, profile, notes[0])
    if slope is not None and slope > SLOPE_FAIL and vals[idx[-1]] > vals[idx[0]]:
        return Verdict(name, Status.FAILS, math.inf, slope, profile, notes[1].format(slope=slope))
    return Verdict(name, Status.INCONCLUSIVE, value, slope, profile, notes[2])


def _limit_type_verdict(name: str, profile: BoundaryProfile) -> Verdict:
    """Limit-to-zero test: the tail test against the first nested value."""
    vals = profile.nonempty_values
    if vals.size == 0:
        return Verdict(
            name, Status.HOLDS, 0.0, None, profile,
            "no samples past the first threshold; condition vacuous at this resolution",
        )
    if np.all(vals == 0.0):
        return Verdict(name, Status.HOLDS, 0.0, None, profile, "quantity vanishes on the region")
    notes = "deepest regions unsampled at this resolution" if profile.empty[-1] else ""
    return _verdict(
        name, profile, float(vals[-1]), lambda slope: _tail_holds(vals, vals[0]),
        (notes, "band suprema grow with slope {slope:.3f}; limit cannot be zero",
         (notes + "; " if notes else "") + "tail neither decays below threshold nor diverges"))


def _tri(verdicts) -> bool | None:
    if any(v.status is Status.FAILS for v in verdicts):
        return False
    if all(v.status is Status.HOLDS for v in verdicts):
        return True
    return None


# ---------------------------------------------------------------------------
# result types


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


# ---------------------------------------------------------------------------
# the sample table: every classifier and limit probe reads from it


def _each_block(edges: list, fill) -> None:
    """Call ``fill(start, stop)`` for the circles of each block.

    The calling thread and one helper thread for each further CPU the
    process may run on, up to one thread per block, take blocks from one
    counter (``next`` on an ``itertools.count`` is atomic under the GIL);
    numpy releases the GIL inside its loops, so the blocks run in parallel.  The helpers are joined before this returns, and once every
    block has run the first block's error, if any, is raised."""
    count = len(edges) - 1
    errors = [None] * count
    claim = itertools.count()

    def drain():
        while (i := next(claim)) < count:
            try:
                fill(edges[i], edges[i + 1])
            except Exception as exc:  # raised below, after every block
                errors[i] = exc

    threads, helpers = min(_cpus(), count), []
    if threads > 1:
        import threading  # not at package import: only a multi-block table starts threads

        helpers = [threading.Thread(target=drain) for _ in range(threads - 1)]
    for helper in helpers:
        helper.start()
    try:
        drain()
    finally:
        for helper in helpers:
            helper.join()
    for exc in errors:
        if exc is not None:
            raise exc


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


class SampleTable:
    """The criterion samples of one ``(symbol, space, grid)`` and the
    verdicts read from them.

    Both quotients and their plain numerators are sampled once over the
    circles of ``sample_points``, in blocks of whole circles
    (``block_edges``) that run in parallel (``_each_block``).  A quantity's
    per-circle maxima, each boundary profile and each verdict, one per rule,
    quantity and trigger, are made on first use and kept in one memo
    (``_once``; the multiplier's Bloch tail is a cached property), which
    returns the same object on every later read: the classifiers that
    require boundedness read the same verdicts again.  A ``|z|`` profile
    reads a quantity's per-circle maxima over the radii, and the profiles of
    each trigger share one band partition of its modulus.  The methods are
    the classifiers and the limit probes; the module-level functions of the
    same names build a table for a single call.
    """

    def __init__(self, sym: SymbolPair, space: SpaceSpec, grid: RadialGrid = DEFAULT_GRID):
        self.sym, self.grid = sym, grid
        self.radii, z = sample_points(grid.depth, grid.angular_nodes)
        omr2 = one_minus_sq(self.radii)[:, None]
        abs_phi, *sampled = out = [np.empty(z.shape) for _ in range(5)]
        _each_block(block_edges(*z.shape),
                    lambda a, b: _quotients(z[a:b], omr2[a:b], sym, space, [part[a:b] for part in out]))
        self.quantities = dict(zip(_SAMPLED, sampled))
        self.z_bands = BandPartition(self.radii, grid.depth)
        self.phi_bands = BandPartition(abs_phi, grid.depth)
        self._memo: dict = {}

    def _once(self, key: tuple, build):
        """``build()`` on the first call with ``key``, and the same object on every later one."""
        if key not in self._memo:
            self._memo[key] = build()
        return self._memo[key]

    def maxima(self, name: str) -> np.ndarray:
        """``circle_maxima`` of a sampled quantity: all that a ``|z|``-triggered
        profile or supremum reads."""
        return self._once(("maxima", name), lambda: circle_maxima(self.quantities[name]))

    def profile(self, name: str, trigger: str = TRIGGER_Z) -> BoundaryProfile:
        """Boundary profile of a sampled quantity, triggered by ``|z|`` or
        ``|phi(z)|``.  Regions the image never reaches come back flagged empty."""
        def build():
            if trigger == TRIGGER_Z:
                quantity, bands = self.maxima(name), self.z_bands
            else:
                quantity, bands = self.quantities[name], self.phi_bands
            return boundary_profile(quantity, bands.modulus, self.grid.depth, trigger, bands)
        return self._once(("profile", name, trigger), build)

    def _sup_type_verdict(self, name: str) -> Verdict:
        """Finite-sup test over ``|z| -> 1``: hold when the slope is
        flat-or-negative and the running supremum has stabilized away from
        the deepest bands."""
        return self._once(("sup", name), lambda: self._finite_sup(name))

    def _finite_sup(self, name: str) -> Verdict:
        profile = self.profile(name)
        maxima = self.maxima(name)
        global_sup = float(maxima.max(initial=0.0))
        if global_sup == 0.0:
            return Verdict(name, Status.HOLDS, 0.0, None, profile, "quantity vanishes identically")
        inner_cut = profile_thresholds(self.grid.depth)[self.grid.depth - 4]
        inner_sup = float(maxima[self.radii <= inner_cut].max(initial=0.0))
        stabilized = global_sup <= inner_sup * (1.0 + STABLE_REL)
        return _verdict(
            name, profile, global_sup, lambda slope: (slope is None or slope < SLOPE_HOLD) and stabilized,
            ("", f"band suprema grow with slope {{slope:.3f}}; sample sup {global_sup:.6g}",
             "neither sustained divergence nor stabilized supremum at this depth"))

    def _limit_verdict(self, name: str, trigger: str = TRIGGER_Z) -> Verdict:
        return self._once(("limit", name, trigger), lambda: _limit_type_verdict(name, self.profile(name, trigger)))

    @cached_property
    def u_tail(self) -> Verdict:
        """Tri-state little-Bloch verdict of the multiplier ``u``: the tail
        test on the sampled ``(1-|z|^2)|u'|`` against the Bloch seminorm,
        whose search starts from the same samples."""
        prof = self.profile(_PLAIN_MULTIPLIER)
        semi = bloch_seminorm(self.sym.u, self.grid, self.quantities[_PLAIN_MULTIPLIER])
        vals = prof.nonempty_values
        tail = float(vals[-1])
        return _verdict(
            "u_bloch_tail", prof, tail, lambda slope: _tail_holds(vals, semi),
            (f"seminorm {semi:.6g}", "derivative growth accelerates at the boundary",
             f"tail {tail:.3g} above threshold at this depth (seminorm {semi:.6g}); may decay further"))

    def _phi_limit(self, names: tuple, force_boundary: bool = False) -> VerdictGroup:
        """Limit-to-zero verdicts for the named quantities as ``|phi(z)| -> 1``.

        When the structural bound keeps the image inside a compact sub-disk
        the limits hold vacuously and no profile is read, unless
        ``force_boundary`` asks for the profile analysis anyway.
        """
        vacuous = self.sym.phi.misses_boundary
        if vacuous and not force_boundary:
            note = "vacuous: the image stays inside a compact sub-disk"
            empty = boundary_profile((), (), self.grid.depth, TRIGGER_PHI)  # every region flagged empty
            verdicts = [Verdict(name, Status.HOLDS, 0.0, None, empty, note) for name in names]
        else:
            verdicts = [self._limit_verdict(name, TRIGGER_PHI) for name in names]
        return VerdictGroup(tuple(verdicts), vacuous=vacuous)

    def bounded_into_bloch(self) -> VerdictGroup:
        """Finite-sup verdicts for both criterion quotients over the disk."""
        return VerdictGroup(tuple(self._sup_type_verdict(name) for name in _QUOTIENTS))

    def compact_into_bloch(self, force_boundary: bool = False) -> VerdictGroup:
        """Limit-to-zero verdicts triggered by ``|phi(z)| -> 1``.

        Requires a positive boundedness verdict (the characterization assumes
        it) and short-circuits to a vacuous pass when the structural bound
        keeps the image inside a compact sub-disk, unless ``force_boundary``
        asks for the profile analysis anyway.
        """
        bounded = self.bounded_into_bloch()
        if not bounded.overall:
            raise PreconditionUnmetError(
                "compactness classification requires a bounded operator; got "
                f"multiplier={bounded.verdicts[0].status.value}, "
                f"composition={bounded.verdicts[1].status.value}"
            )
        return self._phi_limit(_QUOTIENTS, force_boundary)

    def bounded_into_little_bloch(self) -> VerdictGroup:
        """Boundedness into the little Bloch space: bounded into Bloch, the
        multiplier has a vanishing Bloch tail, and ``(1-|z|^2)|u phi'| -> 0``."""
        return VerdictGroup((self.u_tail, self._limit_verdict(_PLAIN_COMPOSITION)),
                            into_bloch=self.bounded_into_bloch())

    def compact_into_little_bloch(self) -> VerdictGroup:
        """Both criterion quotients must vanish as ``|z| -> 1`` (no boundedness
        hypothesis enters this characterization)."""
        return VerdictGroup(tuple(self._limit_verdict(name) for name in _QUOTIENTS))

    def _limit_probe(self, name: str, quantity: str, side: Verdict) -> EquivalenceProbe:
        """Dual evaluation of a quotient's limit equivalence: vanishing as
        ``|z| -> 1`` against vanishing as ``|phi(z)| -> 1`` jointly with the
        side condition ``side``."""
        (rhs,) = self._phi_limit((quantity,)).verdicts
        return EquivalenceProbe(name, self._limit_verdict(quantity), (rhs, side))

    def derivative_limit_probe(self) -> EquivalenceProbe:
        """Multiplier-quotient limit equivalence; the side condition is a
        vanishing Bloch tail for ``u``."""
        return self._limit_probe("derivative_limit", MULTIPLIER_QUANTITY, self.u_tail)

    def composition_limit_probe(self) -> EquivalenceProbe:
        """Composition-quotient limit equivalence; the side condition is
        ``(1-|z|^2)|u phi'| -> 0``."""
        side = self._limit_verdict(_PLAIN_COMPOSITION)
        return self._limit_probe("composition_limit", COMPOSITION_QUANTITY, side)


# ---------------------------------------------------------------------------
# one-call entry points: each builds a table for a single verdict


def classify_bounded_into_bloch(
    sym: SymbolPair, space: SpaceSpec, grid: RadialGrid = DEFAULT_GRID
) -> VerdictGroup:
    """Boundedness into the Bloch space; see ``SampleTable.bounded_into_bloch``."""
    return SampleTable(sym, space, grid).bounded_into_bloch()


def classify_compact_into_bloch(
    sym: SymbolPair, space: SpaceSpec, grid: RadialGrid = DEFAULT_GRID, force_boundary: bool = False
) -> VerdictGroup:
    """Compactness into the Bloch space; see ``SampleTable.compact_into_bloch``."""
    return SampleTable(sym, space, grid).compact_into_bloch(force_boundary)


def classify_bounded_into_little_bloch(
    sym: SymbolPair, space: SpaceSpec, grid: RadialGrid = DEFAULT_GRID
) -> VerdictGroup:
    """Boundedness into the little Bloch space; see ``SampleTable.bounded_into_little_bloch``."""
    return SampleTable(sym, space, grid).bounded_into_little_bloch()


def classify_compact_into_little_bloch(
    sym: SymbolPair, space: SpaceSpec, grid: RadialGrid = DEFAULT_GRID
) -> VerdictGroup:
    """Compactness into the little Bloch space; see ``SampleTable.compact_into_little_bloch``."""
    return SampleTable(sym, space, grid).compact_into_little_bloch()


def derivative_limit_probe(
    sym: SymbolPair, space: SpaceSpec, grid: RadialGrid = DEFAULT_GRID
) -> EquivalenceProbe:
    """Multiplier-quotient limit equivalence; see ``SampleTable.derivative_limit_probe``."""
    return SampleTable(sym, space, grid).derivative_limit_probe()


def composition_limit_probe(
    sym: SymbolPair, space: SpaceSpec, grid: RadialGrid = DEFAULT_GRID
) -> EquivalenceProbe:
    """Composition-quotient limit equivalence; see ``SampleTable.composition_limit_probe``."""
    return SampleTable(sym, space, grid).composition_limit_probe()


# ---------------------------------------------------------------------------
# Bergman-space specialization cross-check


def bergman_specialization_ratio(z, sym: SymbolPair, p: float):
    """Ratio of the general composition quotient (with the Bergman weight
    ``(1-r)**(1/p)``) to the special Bergman form with denominator
    ``(1-|phi|^2)**(1+2/p)``.  Algebraically it equals
    ``(1+|phi(z)|)**(1/p)``; where the shared numerator vanishes the
    analytic value of the ratio is returned.
    """
    pm, q = _quotients_at(z, sym, SpaceSpec.bergman(p))
    special = q[_PLAIN_COMPOSITION] / one_minus_sq(pm) ** (1.0 + 2.0 / p)
    analytic = (1.0 + pm) ** (1.0 / p)
    out = np.where(special > 0.0, q[COMPOSITION_QUANTITY] / np.where(special > 0.0, special, 1.0), analytic)
    return float(out) if np.ndim(z) == 0 else out
