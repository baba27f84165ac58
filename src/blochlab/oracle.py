"""Brute-force corroboration of the classifier verdicts.

Two explicit kernel families act as boundary test functions: a
normalized kernel whose norms stay uniformly bounded over the base
point sweep, and a pinned kernel difference that vanishes at a chosen
image point while its derivative matches the derivative growth envelope
there.  Applying the operator to these families yields numerical lower
bounds on the operator norm; whether those bounds stabilize or keep
growing as the family chases the boundary is the oracle's verdict, kept
deliberately independent of the criterion quotients.  Disagreement with
the classifier is reported, never auto-resolved.

One oracle task (``oracle_task``) chases the 11 boundary circles
together and refines every seminorm it needs in one search: the kernel
images, the pinned images (unless the probe is vacuous) and, for a
bounded pair, the chain constant's battery are row groups of one
``family_bloch_seminorm``, whose rounds evaluate the jets of ``u`` and
``phi`` once for all rows, each row until its values are flat
(``norms.family_bloch_seminorm``).  The search starts from each row's
grid peak, found a block of sample circles at a time (``block_edges``):
each block evaluates ``u``, ``u'``, ``phi`` and ``phi'`` once for every
row, and each row keeps its running peak, so only one block of the grid
is held at once.  The kernel and pinned images, and the battery's kernel,
are read from the closed-form moduli ``|g_m'|``
(``FractionalKernel.image_derivative_modulus``), without a complex power,
and on the grid a member's two images share ``W = 1 - conj(b_m) phi``.
The chase returns points, not values, and keeps its fixed 9 rounds.
``lower_bound_trend``, ``compactness_probe`` and ``chain_constant`` are
views of that one search; the trend's search leaves out the pinned rows.
The norms and envelopes of the constants battery, which depend only on
the space and the grid, are computed once per ``(space, grid)``.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .disk_functions import ComposedWithSelfMap, DiskFunction, DomainError, FractionalKernel, PowerSeries, Product
from .norms import (
    DEFAULT_GRID,
    RadialGrid,
    bergman_type_norm,
    bloch_seminorm,  # no longer called here; bench/test_bench.py checks this module's binding of it
    block_edges,
    bracket_argmax,
    derivative_form_norm,
    derivative_growth_envelope,
    family_bloch_seminorm,
    grid_peak,
    one_minus_sq,
    pointwise_growth_envelope,
    radial_rule,
    sample_points,
    weight_power_over_gap,
)
from .criteria import SymbolPair
from .weights import SpaceSpec

__all__ = [
    "boundary_test_function",
    "vanishing_test_function",
    "operator_apply",
    "kernel_family_norm",
    "LowerBoundTrend",
    "lower_bound_trend",
    "CompactnessProbe",
    "compactness_probe",
    "ConstantsBattery",
    "constants_battery",
    "chain_constant",
    "oracle_task",
    "boundary_chase_point",
]

TREND_STABLE = "stable"
TREND_DIVERGENT = "divergent"
TREND_AMBIGUOUS = "ambiguous"


def boundary_test_function(w: complex, space: SpaceSpec) -> FractionalKernel:
    """Normalized kernel with base point ``w``:

    ``(1-|w|^2)**(t+1) / (w(|w|) (1 - conj(w) z)**(1/p + t + 1))``

    using the weight's stored witness ``t``.  Norms stay uniformly bounded
    as ``|w|`` sweeps to the boundary, which is what makes the family a
    usable operator-norm probe.
    """
    w = complex(w)
    if abs(w) >= 1.0:
        raise DomainError("base point must lie in the open unit disk")
    return FractionalKernel(w, *_kernel_terms(w, space))


def vanishing_test_function(image_point: complex, space: SpaceSpec) -> FractionalKernel:
    """Kernel difference that vanishes at ``image_point`` while its
    derivative there equals
    ``conj(q) / (w(|q|) (1-|q|^2)**(1 + 1/p))`` for ``q = image_point``.

    Algebraically the difference of the two kernels with exponents
    ``1/p+t+2`` and ``1/p+t+1`` factors as ``s (conj(q) z - |q|^2)``
    times the steeper kernel; the pinched kernel keeps that factored form
    (``z - q`` times the steeper kernel), so the vanishing at the base
    point survives floating point even when the kernel terms themselves
    are huge.
    """
    q = complex(image_point)
    if abs(q) >= 1.0:
        raise DomainError("image point must lie in the open unit disk")
    return FractionalKernel(q, *_kernel_terms(q, space, pinched=True), pinched=True)


def _kernel_terms(w: complex, space: SpaceSpec, pinched: bool = False) -> tuple:
    """Exponent and scale of the kernel at ``w`` of ``boundary_test_function``,
    or, pinched, of the steeper kernel of ``vanishing_test_function``.  The
    steeper scale is 0 at ``w = 0``, where both kernels of the difference
    collapse to the same constant and the test function is 0."""
    t = space.weight.t
    if pinched:
        gap = 1.0 - (np.conj(w) * w).real
        return 1.0 / space.p + t + 2.0, np.conj(w) * gap ** (t + 1.0) / space.weight(abs(w))
    gap = 1.0 - abs(w) ** 2
    return 1.0 / space.p + t + 1.0, gap ** (t + 1.0) / space.weight(abs(w))


def _family(images, space: SpaceSpec, pinched: bool = False) -> FractionalKernel:
    """The chase family at the image points: the kernels of
    ``boundary_test_function``, or, pinched, those of ``vanishing_test_function``."""
    terms = [_kernel_terms(w, space, pinched) for w in images]
    return FractionalKernel(images, terms[0][0], [scale for _, scale in terms], pinched)


def operator_apply(sym: SymbolPair, f: DiskFunction) -> DiskFunction:
    """``u * (f o phi)`` as a disk function with closed-form derivative."""
    return Product(sym.u, ComposedWithSelfMap(f, sym.phi))


@dataclass
class _Rows:
    """One group of rows of an oracle task's refinement search: ``size``
    functions ``g``; ``grids``, which maps ``1-|z|^2`` and the jets
    ``(u, u', phi, phi')`` on a block of sample circles to the values
    ``(1-|z|^2)|g'|`` there, yielded one function at a time; and
    ``modulus``, which maps the jets at a ``(size, n)`` array of points to
    ``|g'|`` there, row for function."""

    size: int
    grids: Callable[..., Iterator]
    modulus: Callable


def _grid_peaks(sym: SymbolPair, grid: RadialGrid, groups) -> list:
    """The ``grid_peak`` of every row of every group on the circles of
    ``sample_points``, taken a block of circles at a time (``block_edges``).
    Each block evaluates the jets of ``u`` and ``phi`` once for every row,
    and each row keeps a running peak: a block's peak replaces it when it
    is larger, or is a NaN where the running peak is not, so the peak is
    the first maximum in flat order (the first NaN, if any), that of one
    whole-grid ``grid_peak``.  A block holds at least ``2**14`` points
    unless the grid is one block, so its values are the whole grid's."""
    radii, z = sample_points(grid.depth, grid.angular_nodes)
    omr2 = one_minus_sq(radii)[:, None]
    peaks = [(0, 0, -np.inf)] * sum(group.size for group in groups)
    edges = block_edges(*z.shape)
    for a, b in zip(edges, edges[1:]):
        jets = sym.jets(z[a:b])
        rows = itertools.chain.from_iterable(group.grids(omr2[a:b], *jets) for group in groups)
        for m, values in enumerate(rows):
            i, j, value = grid_peak(values)
            best = peaks[m][2]
            if value > best or (value != value and best == best):
                peaks[m] = (a + i, j, value)
    return peaks


def _refine(sym: SymbolPair, grid: RadialGrid, groups) -> list:
    """The Bloch seminorms of the functions of every group, as one array per
    group, from one ``family_bloch_seminorm`` over all their rows, started
    from their ``_grid_peaks``.  Each round evaluates ``u`` and ``phi`` once
    for every row, and each group reads the jets of its own rows."""
    ends = np.cumsum([group.size for group in groups])

    def modulus(z: np.ndarray) -> np.ndarray:
        jets = sym.jets(z)
        return np.concatenate([group.modulus(*(part[end - group.size : end] for part in jets))
                               for group, end in zip(groups, ends)])

    return np.split(family_bloch_seminorm(modulus, _grid_peaks(sym, grid, groups), grid), ends[:-1])


def _chase_rows(families) -> _Rows:
    """The images ``u (K o phi)`` of the chase kernels under one or more
    families over the same bases, member-major: row ``F m + f`` is member
    ``m`` of family ``f``.  On a block, a member's grids share ``W``, its
    half-plane check and ``|W|^2``, and ``u phi'`` is formed once, so at
    most two member grids are alive."""
    count = len(families)

    def grids(omr2, u, du, phi, dphi):
        u_dphi = u * dphi
        for m in range(len(families[0])):
            members = [family.member(m) for family in families]
            shared = (*members[0].image_terms(phi), u_dphi)
            for member in members:
                yield omr2 * member.image_derivative_modulus(u, du, phi, dphi, shared)

    def modulus(u, du, phi, dphi):
        out = np.empty(phi.shape)
        for f, family in enumerate(families):
            rows = slice(f, None, count)
            out[rows] = family.image_derivative_modulus(u[rows], du[rows], phi[rows], dphi[rows])
        return out

    return _Rows(count * len(families[0]), grids, modulus)


def _image_norms(sym: SymbolPair, kernels: FractionalKernel, probe_points, semi: np.ndarray) -> tuple:
    """``|g(0)| + B(g)`` for each image ``g = u (K o phi)`` of a kernel
    family, where ``B`` is the refined seminorm ``semi`` sharpened by the
    value at the member's probe point.

    ``(1-|z|^2)|g'(z)|`` at any single point is a valid lower bound for
    the supremum; probing where the chase landed keeps the bound honest
    when the peak is narrower than the angular resolution.  The probe and
    ``g(0)``, two points per member, come from one complex evaluation of
    the whole family.
    """
    image = operator_apply(sym, kernels)
    points = np.stack([np.asarray(probe_points, dtype=complex), np.zeros(len(kernels), dtype=complex)], axis=1)
    value, derivative = image.jet(points)
    probe = (1.0 - np.abs(points[:, 0]) ** 2) * np.abs(derivative[:, 0])
    return tuple(float(v) for v in np.abs(value[:, 1]) + np.where(probe > semi, probe, semi))


def kernel_family_norm(base_modulus: float, space: SpaceSpec, grid: RadialGrid = DEFAULT_GRID) -> float:
    """Norm of the normalized boundary kernel with ``|base| = base_modulus``.

    The norm depends on the base point only through its modulus, and the
    angular integrand ``|1 - s e^(i theta)|**(-p q)`` has a single peak at
    ``theta = 0`` whose width shrinks with the boundary gap; equispaced
    angles alias it badly once the gap falls below the angular spacing.
    This routine therefore integrates the angle on dyadic panels clustered
    at the peak (Gauss-Legendre inside each), which stays accurate for
    base points far deeper than the uniform grid could resolve.  Radial
    treatment matches the generic norm quadrature.
    """
    s_mod = float(base_modulus)
    if not 0.0 <= s_mod < 1.0:
        raise DomainError("base modulus must lie in [0, 1)")
    t = space.weight.t
    gap_w = 1.0 - s_mod**2
    scale = gap_w ** (t + 1.0) / space.weight(s_mod)
    pq = space.p * (1.0 / space.p + t + 1.0)

    depth = max(grid.depth, int(np.ceil(np.log2(1.0 / max(1.0 - s_mod, 1e-300)))) + 8)
    w, r, weight_factor = _kernel_radial_rule(depth, grid.panel_order, space)
    s = r * s_mod

    # dyadic angular panels [pi 2^-(j+1), pi 2^-j] down past the peak width
    j_max = int(np.ceil(np.log2(np.pi / max(1.0 - s.max(), 1e-300)))) + 6
    half_angle_sin_sq, tw = _kernel_angular_rule(j_max, grid.panel_order)

    # |1 - s e^{i theta}|^2 without boundary cancellation
    dist_sq = (1.0 - s[:, None]) ** 2 + 4.0 * s[:, None] * half_angle_sin_sq
    mean = (dist_sq ** (-0.5 * pq) @ tw) / np.pi
    F = mean * weight_factor * r
    return float(scale * np.sum(w * F) ** (1.0 / space.p))


@lru_cache(maxsize=None)
def _kernel_radial_rule(depth: int, order: int, space: SpaceSpec) -> tuple:
    """``(w, 1 - x, weight_power_over_gap(space, x))`` of the radial rule
    ``(x, w)`` of ``kernel_family_norm``, which depends on the space and the
    grid only."""
    x, w, _ = radial_rule(depth, order, space.weight.alpha * space.p)
    r, weight_factor = 1.0 - x, weight_power_over_gap(space, x)
    for arr in (r, weight_factor):
        arr.setflags(write=False)
    return w, r, weight_factor


@lru_cache(maxsize=None)
def _kernel_angular_rule(j_max: int, order: int) -> tuple:
    """``(sin(theta/2)**2, weights)`` of the angular rule of
    ``kernel_family_norm``, as a row, on ``j_max`` dyadic panels of ``[0, pi]``."""
    theta, tw, _ = radial_rule(j_max, order, 1.0, np.pi)
    half_angle_sin_sq = np.sin(0.5 * theta[None, :]) ** 2
    half_angle_sin_sq.setflags(write=False)
    return half_angle_sin_sq, tw


def boundary_chase_point(phi, depths, angular_nodes: int = 256) -> np.ndarray:
    """The points on the circles of radii ``1 - 2**-k``, ``k`` in ``depths``,
    where ``|phi|`` is largest (angular grid argmax followed by a bracket
    search), as an array.

    The circles are chased in one evaluation, one circle per row of an
    ``(depths, angular_nodes)`` array, and one row bracket search of fixed
    rounds.  The grid point is kept unless the refined ``|phi|`` beats it
    by more than rounding: on rotation-invariant maps ``|phi|`` is constant
    on the circle, and rounding noise must not pick another point of it."""
    depths = np.asarray(depths, dtype=float)
    r = (1.0 - 0.5**depths)[:, None]
    theta = 2.0 * np.pi * np.arange(angular_nodes) / angular_nodes
    mods = np.abs(phi.eval(r * np.exp(1j * theta)))
    j = mods.argmax(axis=1)

    def along(th: np.ndarray) -> np.ndarray:
        return np.abs(phi.eval(r * np.exp(1j * th)))

    span = 2.0 * np.pi / angular_nodes
    # fixed rounds, no stopping rule: the chase returns a location, which still
    # moves after its values go flat.  Stopping it there moved random_pairs seed
    # 1's blaschke_product-11 compactness_probe.vanishing_values[10] by 1.2e-3
    # relative at 12x128x8.
    th, best = bracket_argmax(along, theta[j] - span, theta[j] + span, 9)
    grid_best = mods[np.arange(depths.size), j]
    return r[:, 0] * np.exp(1j * np.where(best > grid_best * (1.0 + 1e-14), th, theta[j]))


# the chase circles ``1 - 2**-k`` and the depths at which the trend is read
CHASE_DEPTHS = tuple(range(2, 13))
TREND_DEPTHS = (6, 9, 12)


@dataclass
class LowerBoundTrend:
    """The trend, read at ``depths``, and the ratio of each chase member."""

    depths: tuple
    values: tuple
    classification: str
    chase_depths: tuple = ()
    member_ratios: tuple = ()

    def to_dict(self) -> dict:
        return {
            "depths": [int(d) for d in self.depths],
            "values": [float(v) for v in self.values],
            "classification": self.classification,
            "chase_depths": [int(k) for k in self.chase_depths],
            "member_ratios": [float(v) for v in self.member_ratios],
        }


def lower_bound_trend(sym: SymbolPair, space: SpaceSpec, grid: RadialGrid = DEFAULT_GRID) -> LowerBoundTrend:
    """Lower bounds from kernel families chasing the boundary of the image.

    Base points are ``phi`` evaluated at per-circle argmax points of
    ``|phi|``, all circles chased at once; the family deepens with the
    chase and the bound either stabilizes (bounded evidence) or keeps
    climbing (unbounded evidence).  This is ``oracle_task``'s trend, from a
    search without the pinned rows.
    """
    return oracle_task(sym, space, grid, pinned=False)[0]


def _classify_trend(values) -> str:
    v = list(values)
    if len(v) < 3 or max(v) == 0.0:
        return TREND_STABLE if max(v, default=0.0) == 0.0 else TREND_AMBIGUOUS
    r1 = v[-2] / v[-3] if v[-3] > 0 else np.inf
    r2 = v[-1] / v[-2] if v[-2] > 0 else np.inf
    if r1 > 1.2 and r2 > 1.2:
        return TREND_DIVERGENT
    if r2 <= 1.05:
        return TREND_STABLE
    return TREND_AMBIGUOUS


@dataclass
class CompactnessProbe:
    kind: str  # "vacuous" | "probe"
    depths: tuple
    kernel_values: tuple
    vanishing_values: tuple
    trend: str

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "depths": [int(k) for k in self.depths],
            "kernel_values": [float(v) for v in self.kernel_values],
            "vanishing_values": [float(v) for v in self.vanishing_values],
            "trend": self.trend,
        }


def _sequence_trend(values) -> str:
    v = np.asarray(values, dtype=float)
    if v.size == 0 or np.all(v == 0.0):
        return "zero"
    peak = float(v.max())
    if v[-1] < max(0.05 * peak, 1e-9) and v.size >= 3 and v[-3] >= v[-2] >= v[-1]:
        return "decaying"
    if float(v[-3:].min()) >= 0.25 * peak:
        return "bounded_away"
    return "ambiguous"


def compactness_probe(sym: SymbolPair, space: SpaceSpec, grid: RadialGrid) -> CompactnessProbe:
    """Apply the operator to boundary-chasing probe sequences and report
    the size trend of the image Bloch norms: ``oracle_task``'s probe.

    The sequences are the chase's kernels and their pinned differences.
    With no boundary-approaching
    sequence available (structural sup bound below 1) the probe is vacuous.
    A decaying trend corroborates compactness, a trend bounded away from
    zero corroborates the opposite; both are evidence, not proof.
    """
    return oracle_task(sym, space, grid)[1]


@dataclass(frozen=True)
class ConstantsBattery:
    """The standard battery ``1, z, z^2`` and the normalized kernel at 0.5,
    with its norms in the space, the largest growth-envelope ratios and the
    interval of derivative-form to canonical norm ratios."""

    functions: tuple
    norms: tuple
    pointwise_envelope_ratio_max: float
    derivative_envelope_ratio_max: float
    norm_equivalence_ratio_interval: tuple

    def to_dict(self) -> dict:
        return {
            "pointwise_envelope_ratio_max": self.pointwise_envelope_ratio_max,
            "derivative_envelope_ratio_max": self.derivative_envelope_ratio_max,
            "norm_equivalence_ratio_interval": list(self.norm_equivalence_ratio_interval),
        }


@lru_cache(maxsize=None)
def constants_battery(space: SpaceSpec, grid: RadialGrid = DEFAULT_GRID) -> ConstantsBattery:
    """The battery's constants, a pure function of ``(space, grid)`` and
    computed once per pair.  Raises what the norm quadrature raises
    (``NonConvergentError``, or ``DomainError`` when nodes round onto the
    circle); a failure is not remembered."""
    functions = (PowerSeries([1.0]), PowerSeries([0, 1]), PowerSeries([0, 0, 1]), boundary_test_function(0.5, space))
    norms = tuple(bergman_type_norm(f, space, grid) for f in functions)
    point_env = [pointwise_growth_envelope(f, space, grid) / n for f, n in zip(functions, norms)]
    deriv_env = [derivative_growth_envelope(f, space, grid) / n for f, n in zip(functions, norms)]
    equiv = [derivative_form_norm(f, space, grid) / n for f, n in zip(functions, norms)]
    return ConstantsBattery(functions, norms, max(point_env), max(deriv_env), (min(equiv), max(equiv)))


def chain_constant(sym: SymbolPair, space: SpaceSpec, grid: RadialGrid, chain) -> float | None:
    """Empirical constant in ``B(u (f o phi)) <= C (S1 + S2) ||f||`` over a
    battery of functions with their norms ``||f||``, given finite criterion
    suprema ``S1, S2`` as ``chain = (functions, norms, S1, S2)``:
    ``oracle_task``'s constant.

    The seminorm searches read ``|(u (f o phi))'|`` from the symbol's jets
    through ``f.image_derivative_modulus``: for a power
    series, the complex derivative in the operation order of the
    composite's own jet, so the values are those of ``bloch_seminorm`` of
    the composite; for the battery's kernel, its closed-form modulus."""
    return oracle_task(sym, space, grid, chain)[2]


def _chain_rows(functions, norms, sup_multiplier: float, sup_composition: float):
    """The chain constant's rows, one per battery function with a nonzero
    ``||f|| (S1 + S2)``, and those denominators; None when ``S1 + S2`` is
    not finite or is 0."""
    total = sup_multiplier + sup_composition
    if not np.isfinite(total) or total == 0.0:
        return None
    kept = [(f, norm * total) for f, norm in zip(functions, norms) if norm * total != 0.0]

    def grids(omr2, u, du, phi, dphi):
        for f, _ in kept:
            yield omr2 * f.image_derivative_modulus(u, du, phi, dphi)

    def modulus(u, du, phi, dphi):
        return np.concatenate([f.image_derivative_modulus(u[k : k + 1], du[k : k + 1], phi[k : k + 1],
                                                          dphi[k : k + 1]) for k, (f, _) in enumerate(kept)])

    return _Rows(len(kept), grids, modulus), [denom for _, denom in kept]


def oracle_task(sym: SymbolPair, space: SpaceSpec, grid: RadialGrid, chain=None, pinned=True) -> tuple:
    """The oracle task in one refinement search: ``(trend, probe, constant)``,
    the views ``lower_bound_trend``, ``compactness_probe`` and, given
    ``chain = (functions, norms, S1, S2)``, ``chain_constant`` (``constant``
    is None without ``chain``).

    The kernels at the images ``phi(z*)`` of the chase points, their pinned
    differences (when ``pinned`` and the map touches the boundary; the probe
    is vacuous otherwise) and the chain battery (given ``chain``) are row
    groups of one ``_refine``.  The constant is the largest
    ``B(u (f o phi)) / (||f|| (S1 + S2))``, the first on ties, or 0 without
    rows."""
    points = boundary_chase_point(sym.phi, CHASE_DEPTHS, grid.angular_nodes)
    images = [complex(sym.phi.eval(z_star)) for z_star in points]
    families = [_family(images, space)]
    if pinned and not sym.phi.misses_boundary:
        families.append(_family(images, space, pinched=True))
    rows = None if chain is None else _chain_rows(*chain)
    semis = _refine(sym, grid, [_chase_rows(families)] + ([] if rows is None else [rows[0]]))
    kernel_semi = semis[0].reshape(-1, len(families))
    norms = [_image_norms(sym, family, points, kernel_semi[:, f]) for f, family in enumerate(families)]
    denoms = (kernel_family_norm(abs(w), space, grid) for w in images)
    ratios = tuple(0.0 if denom == 0.0 else norm / denom for norm, denom in zip(norms[0], denoms))
    values = tuple(max(ratios[: d - 1], default=0.0) for d in TREND_DEPTHS)
    trend = LowerBoundTrend(TREND_DEPTHS, values, _classify_trend(values), CHASE_DEPTHS, ratios)
    probe = CompactnessProbe("vacuous", (), (), (), "vacuous")
    if len(norms) == 2:
        tf, tg = map(_sequence_trend, norms)
        name = ("zero" if tf == tg == "zero" else "bounded_away" if "bounded_away" in (tf, tg)
                else "decaying" if {tf, tg} <= {"decaying", "zero"} else "ambiguous")
        probe = CompactnessProbe("probe", CHASE_DEPTHS, *norms, name)
    constant = None if rows is None else max([0.0] + [float(v) / d for v, d in zip(semis[1], rows[1])])
    return trend, probe, constant
