"""Brute-force corroboration of the classifier verdicts.

Two explicit kernel families act as boundary test functions: a
normalized kernel whose norms stay uniformly bounded over the base
point sweep, and a pinned kernel difference that vanishes at a chosen
image point while its derivative matches the derivative growth envelope
there, both normalized by ``norms.kernel_terms``.  Applying the operator
to them yields lower bounds on the operator norm; whether those bounds
stabilize or keep growing as the family chases the boundary is the
oracle's verdict, kept independent of the classifier, whose module
(``criteria``) it never imports.  Disagreement is reported, never resolved.

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
(``FractionalKernel.image_derivative_modulus``), without a complex power.
The kernel and pinned images are evaluated only on the segments of 16
nodes (a circle is whole segments) whose majorant, bounded from the closed
form, can still reach the row's peak, or on the whole circles where those
segments would cost more (``_ChaseRows``); the peaks are those of the whole
grid bit for bit.  The chase returns points, not values, and keeps its fixed 9 rounds.
``lower_bound_trend``, ``compactness_probe`` and ``chain_constant`` are
views of that one search; the trend's search leaves out the pinned rows.
The norms and envelopes of the constants battery, which depend only on
the space and the grid, are computed once per ``(space, grid)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .disk_functions import (ComposedWithSelfMap, DiskFunction, DomainError, FractionalKernel, PowerSeries, Product,
                             SymbolPair)
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
    kernel_family_norm,
    kernel_terms,
    one_minus_sq,
    pointwise_growth_envelope,
    sample_points,
)
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
    """The normalized kernel with base point ``w`` (``norms.kernel_terms``).
    Norms stay uniformly bounded as ``|w|`` sweeps to the boundary, which
    is what makes the family a usable operator-norm probe."""
    w = complex(w)
    if abs(w) >= 1.0:
        raise DomainError("base point must lie in the open unit disk")
    return FractionalKernel(w, *kernel_terms(w, space))


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
    return FractionalKernel(q, *kernel_terms(q, space, pinched=True), pinched=True)


def _family(images, space: SpaceSpec, pinched: bool = False) -> FractionalKernel:
    """The chase family at the image points: the kernels of
    ``boundary_test_function``, or, pinched, those of ``vanishing_test_function``."""
    terms = [kernel_terms(w, space, pinched) for w in images]
    return FractionalKernel(images, terms[0][0], [scale for _, scale in terms], pinched)


def operator_apply(sym: SymbolPair, f: DiskFunction) -> DiskFunction:
    """``u * (f o phi)`` as a disk function with closed-form derivative."""
    return Product(sym.u, ComposedWithSelfMap(f, sym.phi))


@dataclass
class _Rows:
    """One group of rows of an oracle task's refinement search: a row for
    each of the ``functions`` ``f``, its image ``g = u (f o phi)`` read from
    the jets ``(u, u', phi, phi')`` by ``f.image_derivative_modulus``.
    ``_ChaseRows``, the other kind of group, finds its block peaks without
    evaluating the whole block."""

    functions: list

    @property
    def size(self) -> int:
        return len(self.functions)

    def modulus(self, u, du, phi, dphi) -> np.ndarray:
        """``|g'|`` of each row at the jets of a ``(size, n)`` array of points, row for function."""
        return np.concatenate([f.image_derivative_modulus(u[k : k + 1], du[k : k + 1], phi[k : k + 1],
                                                          dphi[k : k + 1]) for k, f in enumerate(self.functions)])

    def block_peaks(self, omr2: np.ndarray, jets: tuple, best: list) -> list:
        """The ``grid_peak`` of each row's ``(1-|z|^2)|g'|`` on one block, from
        the whole block's values; ``best`` holds the rows' running peak values,
        which a search may use to leave out what cannot replace them."""
        return [grid_peak(omr2 * f.image_derivative_modulus(*jets)) for f in self.functions]


def _grid_peaks(sym: SymbolPair, grid: RadialGrid, groups) -> list:
    """The ``grid_peak`` of every row of every group on the circles of
    ``sample_points``, taken a block of circles at a time (``block_edges``).
    Each block evaluates the jets of ``u`` and ``phi`` once for every row,
    and each row keeps a running peak: a block's peak replaces it when it
    is larger, or is a NaN where the running peak is not, so the peak is
    the first maximum in flat order (the first NaN, if any), that of one
    whole-grid ``grid_peak``.  Each group finds its block peaks given its
    rows' running peaks (``_Rows.block_peaks``)."""
    radii, z = sample_points(grid.depth, grid.angular_nodes)
    omr2 = one_minus_sq(radii)[:, None]
    peaks = [(0, 0, -np.inf)] * sum(group.size for group in groups)
    edges = block_edges(*z.shape)
    for a, b in zip(edges, edges[1:]):
        jets = sym.jets(z[a:b])
        start = 0
        for group in groups:
            rows = range(start, start + group.size)
            found = group.block_peaks(omr2[a:b], jets, [peaks[m][2] for m in rows])
            for m, (i, j, value) in zip(rows, found):
                peaks[m] = _first_max(peaks[m], (a + i, j, value))
            start += group.size
    return peaks


def _first_max(p: tuple, q: tuple) -> tuple:
    """Of two peaks ``(i, j, value)`` of one row, the one that ``grid_peak``
    finds on their union: the NaN, or the earlier of two NaNs; else the
    larger value, or the earlier of two equal ones."""
    p_nan, q_nan = p[2] != p[2], q[2] != q[2]
    if p_nan != q_nan:
        return p if p_nan else q
    if p_nan or p[2] == q[2]:
        return min(p, q, key=lambda peak: peak[:2])
    return p if p[2] > q[2] else q


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


# The chase rows' block peaks come from a search bounded by per-segment
# majorants (``_ChaseRows.block_peaks``).  A member's images are large only
# where phi comes near its base, so each circle of a block is cut into
# segments of _SEGMENT consecutive nodes, and only the segments whose
# majorant reaches the row's lower bound are evaluated.  A RadialGrid's node
# count is a power of two, at least 64, so every circle is whole segments.
# With a loose 2x margin, segments of 8/16/32/64 nodes left 12/18/35/48% of
# the random battery's segments to evaluate: 16 is the knee.
_SEGMENT = 16

# Every majorant is inflated by the relative _MARGIN, which covers the
# rounding of both sides: the exact values and the majorants are formed from
# the same jets, and each of their operations rounds by an ulp but one.
# W = 1 - conj(b) phi carries an absolute error of a few ulps of 1, so the
# exact |W|**-(e+1) is off by about (e+1) 2**-50 / |W| relative, and the
# majorant's d**-(e+1), taken as exp(-(e+1) log d), by as much and 2**-45.
# A segment's majorants are certified only where 1 - |b| max|phi| >= (e + 2)
# _FLOOR for the largest exponent e, which bounds d from below so that those
# errors stay below 2**-24, and proves Re W > 0, the half-plane check, on the
# whole segment; and only where the maxima of |u'| and |u phi'| and the
# scales are 0 or lie within 2**+-100 (_RANGE), and d**-(e+1) does too
# (``_floor``), so that no product on either side over- or underflows.  Any
# other segment, one with a NaN or an infinity among its jets included, gets
# a NaN majorant and is always evaluated.
_MARGIN = 2.0**-20
_FLOOR = 2.0**-24
_RANGE = 2.0**100

# A gathered node costs about this many nodes of one row on whole circles
# (2.1 to 3 measured on 16x512 blocks): a circle on which a member's kept
# segments would cost more is evaluated whole.
_GATHER = 2.5

# Segments are gathered at most this many at a time, 4,096 points, so that
# a gather's copies of the jets and its temporaries stay below those of one
# member on a whole block: at 1,024 a curated oracle task's traced peak rose
# from 2.9 to 4.6 MiB, at 256 it is 2.5 MiB, in the same time.
_BATCH = 256


def _in_range(x: np.ndarray) -> np.ndarray:
    return (x == 0.0) | ((x >= 1.0 / _RANGE) & (x <= _RANGE))


def _majorants(families, omr2: np.ndarray, phi: np.ndarray, du: np.ndarray, u_dphi: np.ndarray) -> np.ndarray:
    """Upper bounds of the chase rows' values ``(1-|z|^2)|g_m'|`` on each
    segment of a block, one row per chase row (member-major) and one column
    per segment in flat order, inflated by ``_MARGIN``; NaN where a bound is
    not certified.  A block is read as one ``(circles, nodes // _SEGMENT,
    _SEGMENT)`` view, each segment's maxima taken over its last axis.

    With ``c`` the value of ``phi`` at the segment's centre, its node
    ``_SEGMENT // 2``, and ``rho = max|phi - c|``, on the segment ``Re W >= 1 - |b| max|phi|``, ``|W| >= d =
    max(|1 - conj(b) c| - |b| rho, 1 - |b| max|phi|)`` and ``|phi - b| <=
    min(|c - b| + rho, max|phi| + |b|)``; the closed form of
    ``image_derivative_modulus`` gives ``|s| (max|u'| d**-e + e |b| max|u
    phi'| d**-(e+1))``; pinned, ``max|u'| |phi - b| + max|u phi'|`` in the
    first term and ``e |b| max|u phi'| |phi - b|`` in the second."""
    shape = (phi.shape[0], phi.shape[1] // _SEGMENT, _SEGMENT)
    phi, du, u_dphi = (x.reshape(shape) for x in (phi, du, u_dphi))
    centre = phi[:, :, _SEGMENT // 2]
    rho, phi_max, du_max, u_dphi_max = (np.abs(x).max(axis=2).reshape(-1)
                                        for x in (phi - centre[:, :, None], phi, du, u_dphi))
    base = families[0].base
    base_mod = np.abs(base)
    # the centres as an (M, G) array: a complex product both of whose
    # operands broadcast an axis takes numpy's slow loop, 10 ns a value
    centre = np.tile(centre.reshape(-1), (base.size, 1))
    reach = 1.0 - base_mod * phi_max
    d = np.abs(1.0 - np.conj(base) * centre) - base_mod * rho
    np.maximum(d, reach, out=d)
    # a NaN in log(d) marks a segment whose bounds are not certified
    log_d = np.log(np.maximum(d, _FLOOR))
    log_d[~(reach >= _floor(max(family.exponent for family in families)))] = np.nan
    du_max, u_dphi_max = (np.where(_in_range(x), x, np.nan) for x in (du_max, u_dphi_max))
    gap = np.broadcast_to(omr2, shape[:2]).reshape(-1)
    out = np.empty((base.size, len(families), rho.size))
    for f, family in enumerate(families):
        e = family.exponent
        if family.pinched:
            far = np.minimum(np.abs(centre - base) + rho, phi_max + base_mod)
            inner = (du_max * far + u_dphi_max) * d + (e * base_mod) * (u_dphi_max * far)
        else:
            inner = du_max * d + (e * base_mod) * u_dphi_max
        scale = np.abs(family.scale)
        scale = np.where(_in_range(scale), scale * (1.0 + _MARGIN), np.nan)
        out[:, f] = gap * np.exp(-(e + 1.0) * log_d) * inner * scale
    return out.reshape(-1, rho.size)


def _floor(e: float) -> float:
    """The least ``1 - |b| max|phi|`` at which a majorant of exponent ``e``
    is certified: ``(e + 2) _FLOOR``, and no less than keeps ``d**-(e+1)``
    within ``_RANGE`` (``inf`` when ``2**-(e+1)`` is not)."""
    if 2.0 ** -(e + 1.0) < 1.0 / _RANGE:
        return np.inf
    return max((e + 2.0) * _FLOOR, _RANGE ** (-1.0 / (e + 1.0)))


def _chunk_values(family, members, segments, omr2: np.ndarray, jets: tuple) -> tuple:
    """``(values, circle, k)``: ``(1-|z|^2)|g'|`` of ``family``'s member
    ``members[n]`` on the block's segment ``segments[n]`` (in flat order),
    gathered as ``view[circle[n], k[n]]`` of the block's ``(circles, nodes //
    _SEGMENT, _SEGMENT)`` view; its node ``j`` is ``(circle, _SEGMENT k + j)``.
    Elementwise these are the whole-block expressions at the same points,
    so the values are the whole block's bit for bit."""
    circles, nodes = jets[0].shape
    circle, k = np.divmod(segments, nodes // _SEGMENT)
    u, du, phi, dphi = (x.reshape(circles, -1, _SEGMENT)[circle, k] for x in jets)
    return omr2[circle] * family.member(members).image_derivative_modulus(u, du, phi, dphi), circle, k


@dataclass
class _ChaseRows:
    """The rows of the images ``u (K o phi)`` of the chase kernels under one
    or more ``families`` over the same bases, member-major: row ``F m + f``
    is member ``m`` of family ``f``: a row group like ``_Rows``, whose block
    peaks come from a search bounded by ``_majorants``."""

    families: list

    @property
    def size(self) -> int:
        return len(self.families) * len(self.families[0])

    def modulus(self, u, du, phi, dphi) -> np.ndarray:
        """``|g'|`` of each row's image at the jets of a ``(size, n)`` array of points."""
        out, count = np.empty(phi.shape), len(self.families)
        for f, family in enumerate(self.families):
            rows = slice(f, None, count)
            out[rows] = family.image_derivative_modulus(u[rows], du[rows], phi[rows], dphi[rows])
        return out

    def block_peaks(self, omr2: np.ndarray, jets: tuple, best: list) -> list:
        """Each row's block peak, as far as it can replace the running peak
        ``best``, from its segments' ``_majorants``:

        1. the segment with the largest majorant (the seed) is evaluated, and
           its maximum, or the running peak when that is at least as large,
           is the row's lower bound;
        2. the segments whose majorant is not below the lower bound are kept
           (a NaN majorant is kept);
        3. but a kept segment whose majorant equals the lower bound can at
           most tie a point before it in flat order, and is left out unless
           it comes no later than the seed and the seed set the bound.

        After a NaN, in the seed or the running peak, only the segments
        with a NaN majorant are kept: no certified segment holds a NaN, and
        they still get the half-plane check.  A circle on which a member's
        kept segments would cost more than ``_GATHER`` whole-circle nodes
        each is evaluated whole, once per family; the other kept segments
        are gathered (``_chunk_values``).  The block peak is the first
        maximum, in flat order, of what was evaluated (``_first_max``):
        every other point is below the lower bound or ties an earlier one."""
        u, du, phi, dphi = jets
        u_dphi = u * dphi
        families, count = self.families, len(self.families)
        ub = _majorants(families, omr2, phi, du, u_dphi)
        best = np.array(best, dtype=float)
        seed = ub.argmax(axis=1)
        live = ~(ub < best[:, None]).all(axis=1)
        top = np.full(best.size, -np.inf)
        for f, family in enumerate(families):
            m = np.flatnonzero(live[f::count])
            top[count * m + f] = _chunk_values(family, m, seed[count * m + f], omr2, jets)[0].max(axis=1)
        seeded = top > best
        lower = np.where((top != top) | (best != best), np.inf, np.where(seeded, top, best))[:, None]
        ties = (np.arange(ub.shape[1]) <= seed[:, None]) & seeded[:, None]
        keep = ~(ub < lower) & (ties | (ub != lower))
        circles, nodes = phi.shape
        kept = keep.reshape(-1, count, circles, ub.shape[1] // circles)
        whole = kept.sum(axis=(1, 3)) * (_SEGMENT * _GATHER) > nodes * count
        kept &= ~whole[:, None, :, None]
        peaks = [(0, 0, -np.inf)] * best.size
        for f, family in enumerate(families):
            member, segment = np.nonzero(keep[f::count])
            for at in range(0, member.size, _BATCH):
                batch = slice(at, at + _BATCH)
                values, circle, k = _chunk_values(family, member[batch], segment[batch], omr2, jets)
                bounds = np.searchsorted(member[batch], np.arange(best.size // count + 1))
                for m, (start, end) in enumerate(zip(bounds, bounds[1:])):
                    if end > start:
                        row, node = divmod(int(np.argmax(values[start:end])), _SEGMENT)
                        peak = (circle[start + row], _SEGMENT * k[start + row] + node, values[start + row, node])
                        peaks[count * m + f] = _first_max(peaks[count * m + f], peak)
        for m in np.flatnonzero(whole.any(axis=1)):
            c = np.flatnonzero(whole[m])
            on = slice(c[0], c[-1] + 1) if c[-1] + 1 - c[0] == c.size else c  # a view of a run of circles
            gap, *part = (x[on] for x in (omr2, *jets))
            for f, family in enumerate(families):
                i, j, value = grid_peak(gap * family.member(m).image_derivative_modulus(*part))
                peaks[count * m + f] = _first_max(peaks[count * m + f], (c[i], j, value))
        return peaks


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


def boundary_chase_point(phi, depths, angular_nodes: int) -> np.ndarray:
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
    chase_depths: tuple
    member_ratios: tuple

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
    return _Rows([f for f, _ in kept]), [denom for _, denom in kept]


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
    semis = _refine(sym, grid, [_ChaseRows(families)] + ([] if rows is None else [rows[0]]))
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
