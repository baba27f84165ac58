"""Weighted-space norms, Bloch seminorms, boundary profiles.

Radial integrals are taken in the gap variable ``x = 1 - r`` on dyadic
bands ``[2**-(k+1), 2**-k]`` with Gauss-Legendre nodes inside each band,
plus a final band ``[0, 2**-K]`` on which the algebraic endpoint factor
``x**(gamma-1)`` is removed by the substitution ``x = h v**(1/gamma)``.
Dyadic bands equidistribute the mass of the boundary singularity that the
weight contributes, and band-by-band contributions expose divergent
integrands: a norm whose deepest three band contributions stop decaying is
reported as nonconvergent instead of being silently truncated.  The
integrands and the growth envelopes are evaluated one block of whole rows
at a time (``block_edges``), bit for bit as one whole-array evaluation.
The test kernel's normalization, its exponent and scale at a base point,
is defined once (``kernel_terms``): the oracle's test functions read it,
and so does their norm (``kernel_family_norm``), which shares that radial
rule, built once per space, depth and order, and integrates the angle on
dyadic panels clustered at the kernel's peak.

Suprema over the disk are taken on a standard sample set (dyadic radii
plus geometric midpoints, equispaced angles) with one local vectorized
bracket search (``bracket_argmax``) for the global Bloch seminorm; a
family of functions shares those searches, member by row.  The searches
read only the modulus ``|f'|``, which a caller may supply in closed form.
A seminorm is a value, so each of its rows stops once its values are flat
to ``_FLAT_REL`` (``2**-40``) relative, where further rounds would only
choose among rounding noise; a search for a location (the oracle's
boundary chase) keeps its fixed rounds.
Boundary behaviour is recorded as a ``BoundaryProfile``: nested suprema
over the regions past an increasing sequence of thresholds, together with
the per-band suprema that divergence detection fits its log-log slope to.
A ``|z|`` profile is read from one maximum per sample circle, and the
profiles of one trigger modulus share its ``BandPartition``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .disk_functions import DiskFunction, DomainError
from .weights import SpaceSpec

__all__ = [
    "RadialGrid",
    "DEFAULT_GRID",
    "NonConvergentError",
    "BoundaryProfile",
    "BandPartition",
    "TRIGGER_Z",
    "TRIGGER_PHI",
    "boundary_profile",
    "circle_maxima",
    "sample_radii",
    "sample_points",
    "block_edges",
    "profile_thresholds",
    "radial_rule",
    "weight_power_over_gap",
    "bergman_type_norm",
    "derivative_form_norm",
    "unit_norm_mass",
    "kernel_terms",
    "kernel_family_norm",
    "bracket_argmax",
    "bloch_seminorm",
    "family_bloch_seminorm",
    "grid_peak",
    "little_bloch_profile",
    "sw_integral_check",
    "pointwise_growth_envelope",
    "derivative_growth_envelope",
]

TRIGGER_Z = "abs_z"
TRIGGER_PHI = "abs_phi_z"

_DECAY_SLACK = 1e-12
_FLOOR = 1e-300


@dataclass(frozen=True)
class RadialGrid:
    """Resolution parameters shared by quadrature and sup searches.

    ``depth`` is the dyadic depth K (bands down to gap ``2**-K``),
    ``angular_nodes`` the number of equispaced angles (a power of two),
    ``panel_order`` the Gauss-Legendre order per radial band.
    """

    depth: int = 16
    angular_nodes: int = 512
    panel_order: int = 12

    def __post_init__(self):
        if self.depth < 4:
            raise ValueError("depth must be at least 4")
        m = self.angular_nodes
        if m < 64 or m & (m - 1):
            raise ValueError("angular_nodes must be a power of two, at least 64")
        if self.panel_order < 8:
            raise ValueError("panel_order must be at least 8")


DEFAULT_GRID = RadialGrid()


class NonConvergentError(ArithmeticError):
    """Radial band contributions stopped decaying; the integral is not
    resolved (divergent, or convergent only beyond this grid depth)."""

    def __init__(self, message: str, contributions=None):
        super().__init__(message)
        self.contributions = contributions


def radial_rule(depth: int, order: int, gamma: float, scale: float = 1.0):
    """Nodes and weights in ``x`` for ``int_0^scale F(x) dx`` with
    ``F(x) = x**(gamma-1) * (slowly varying)``.

    Returns ``(x, w, band)`` where ``band`` is the dyadic band index and
    ``depth`` labels the desingularized tail band.
    """
    g, gw = np.polynomial.legendre.leggauss(order)
    xs, ws, bands = [], [], []
    for k in range(depth):
        hi, lo = scale * 0.5**k, scale * 0.5 ** (k + 1)
        mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
        xs.append(mid + half * g)
        ws.append(half * gw)
        bands.append(np.full(order, k, dtype=np.intp))
    h = scale * 0.5**depth
    v = 0.5 * (g + 1.0)
    x_tail = h * v ** (1.0 / gamma)
    w_tail = (h / gamma) * (0.5 * gw) * v ** (1.0 / gamma - 1.0)
    xs.append(x_tail)
    ws.append(w_tail)
    bands.append(np.full(order, depth, dtype=np.intp))
    return np.concatenate(xs), np.concatenate(ws), np.concatenate(bands)


@lru_cache(maxsize=None)
def _weighted_rule(space: SpaceSpec, depth: int, order: int) -> tuple:
    """``(x, w, band, 1 - x, weight_power_over_gap(space, x))`` of the
    ``radial_rule`` of the space's norm integrals, read-only."""
    x, w, band = radial_rule(depth, order, space.weight.alpha * space.p)
    rule = (x, w, band, 1.0 - x, weight_power_over_gap(space, x))
    for arr in rule:
        arr.setflags(write=False)
    return rule


def sample_radii(depth: int) -> np.ndarray:
    """Dyadic radii ``1 - 2**-k`` and geometric midpoints, ascending from 0."""
    k = np.arange(depth + 1)
    return np.unique(np.concatenate([1.0 - 0.5**k, 1.0 - 0.75 * 0.5**k]))


def _unit_circle(m: int) -> np.ndarray:
    return np.exp(2j * np.pi * np.arange(m) / m)


# the circles of the last few grids sampled: a run samples one grid and the
# random battery two, and a grid's points take 16 bytes each (2.7 MB at
# 40x2048, 32 MiB at the 2**21-point cap), held for the life of the process
@lru_cache(maxsize=4)
def sample_points(depth: int, angular_nodes: int):
    """Sample circles for sup searches: ``(radii, Z)`` with ``Z[i, j]``."""
    r = sample_radii(depth)
    z = r[:, None] * _unit_circle(angular_nodes)[None, :]
    r.setflags(write=False)
    z.setflags(write=False)
    return r, z


# Arrays of disk points are evaluated in blocks of whole rows, each of at
# least this many points unless the array is one block.  The size bounds
# memory only: a point's jet does not depend on its batch (see
# ``disk_functions``), so every block size gives the whole array's values.
_BLOCK_POINTS = 2**14


def block_edges(rows: int, nodes: int) -> list:
    """The first row of each block of a ``(rows, nodes)`` array of points,
    then ``rows``: contiguous blocks whose row counts differ by at most one,
    as many as keep every block at ``_BLOCK_POINTS`` points or more (at
    least ``ceil(_BLOCK_POINTS / nodes)`` rows), or one block when the array
    has fewer rows than that."""
    blocks = max(1, rows // -(-_BLOCK_POINTS // nodes))
    return [rows * i // blocks for i in range(blocks + 1)]


def profile_thresholds(depth: int) -> np.ndarray:
    """Boundary thresholds ``1 - 2**-k`` for ``k = 1 .. depth``."""
    return 1.0 - 0.5 ** np.arange(1, depth + 1)


def one_minus_sq(r: np.ndarray) -> np.ndarray:
    """``1 - r**2`` computed as ``(1-r)(1+r)`` to keep boundary precision."""
    return (1.0 - r) * (1.0 + r)


# ---------------------------------------------------------------------------
# norms


def _decay_checked_total(F: np.ndarray, w: np.ndarray, band: np.ndarray, depth: int, label: str):
    contrib = np.bincount(band, weights=w * F, minlength=depth + 1)
    body = contrib[:depth]
    peak = body.max(initial=0.0)
    if peak > _FLOOR and body[-1] > 1e-14 * peak:
        s1, s2, s3 = body[-3], body[-2], body[-1]
        if s2 > s1 * (1.0 + _DECAY_SLACK) or s3 > s2 * (1.0 + _DECAY_SLACK):
            raise NonConvergentError(
                f"{label}: deepest radial band contributions do not decay "
                f"({s1:.3e}, {s2:.3e}, {s3:.3e})",
                contributions=contrib,
            )
    return float(contrib.sum()), contrib


def _angular_power_mean(values: np.ndarray, p: float) -> np.ndarray:
    return np.mean(np.abs(values) ** p, axis=1)


def _circle_power_means(values, r: np.ndarray, nodes: int, p: float) -> np.ndarray:
    """``_angular_power_mean`` of ``values`` on the circles of radii ``r``
    with ``nodes`` equispaced points each, evaluated a block of circles at a
    time (``block_edges``): a row's mean reads only its own circle, so the
    means are those of one whole-array evaluation, and only one block of
    points is held at once."""
    ring, edges = _unit_circle(nodes), block_edges(r.size, nodes)
    mpp = np.empty(r.size)
    for a, b in zip(edges, edges[1:]):
        mpp[a:b] = _angular_power_mean(values(r[a:b, None] * ring), p)
    return mpp


def weight_power_over_gap(space: SpaceSpec, x: np.ndarray) -> np.ndarray:
    """``w(1-x)**p / x`` evaluated stably through the gap variable."""
    gamma = space.weight.alpha * space.p
    out = x ** (gamma - 1.0)
    if space.weight.log_exponent != 0.0:
        out = out * (1.0 - np.log(x)) ** (space.weight.log_exponent * space.p)
    return out


def bergman_type_norm(f: DiskFunction, space: SpaceSpec, grid: RadialGrid = DEFAULT_GRID) -> float:
    """Canonical norm ``(int_0^1 M_p^p(f, r) w(r)^p / (1-r) r dr)**(1/p)``.

    Raises ``NonConvergentError`` when the deepest band contributions stop
    decaying, which happens exactly when the integrand's boundary growth is
    not resolved at this depth.
    """
    x, w, band, r, weight_factor = _weighted_rule(space, grid.depth, grid.panel_order)
    mpp = _circle_power_means(f.eval, r, grid.angular_nodes, space.p)
    F = mpp * weight_factor * r
    total, _ = _decay_checked_total(F, w, band, grid.depth, "bergman_type_norm")
    return float(total ** (1.0 / space.p))


def unit_norm_mass(space: SpaceSpec, grid: RadialGrid = DEFAULT_GRID) -> float:
    """``int_0^1 w(r)^p/(1-r) r dr``, the p-th power of the norm of 1."""
    _, w, _, r, weight_factor = _weighted_rule(space, grid.depth, grid.panel_order)
    return float(np.sum(w * (weight_factor * r)))


def derivative_form_norm(f: DiskFunction, space: SpaceSpec, grid: RadialGrid = DEFAULT_GRID) -> float:
    """Derivative-based norm equivalent to :func:`bergman_type_norm`.

    ``(c0 |f(0)|^p + int_D |f'|^p (1-|z|^2)^p w^p/(1-|z|) dA)**(1/p)`` with
    normalized area measure.  The point-evaluation term is calibrated with
    ``c0 = unit_norm_mass`` so the two norm forms agree exactly on constant
    functions.
    """
    x, w, band, r, weight_factor = _weighted_rule(space, grid.depth, grid.panel_order)
    mpp = _circle_power_means(f.deriv, r, grid.angular_nodes, space.p)
    F = mpp * (x * (2.0 - x)) ** space.p * weight_factor * 2.0 * r
    total, _ = _decay_checked_total(F, w, band, grid.depth, "derivative_form_norm")
    head = unit_norm_mass(space, grid) * abs(f.eval(0.0)) ** space.p
    return float((head + total) ** (1.0 / space.p))


def kernel_terms(w, space: SpaceSpec, pinched: bool = False) -> tuple:
    """Exponent and scale of the normalized kernel at ``w``, ``(1-|w|^2)**(t+1)
    / (w(|w|) (1 - conj(w) z)**(1/p + t + 1))`` with the weight's witness ``t``;
    pinned, of the pinned difference's steeper kernel: ``1/p + t + 2`` and
    ``conj(w)`` times the scale, 0 at ``w = 0``, where the difference is 0."""
    t = space.weight.t
    if pinched:
        gap = 1.0 - (np.conj(w) * w).real
        return 1.0 / space.p + t + 2.0, np.conj(w) * gap ** (t + 1.0) / space.weight(abs(w))
    gap = 1.0 - abs(w) ** 2
    return 1.0 / space.p + t + 1.0, gap ** (t + 1.0) / space.weight(abs(w))


def kernel_family_norm(base_modulus: float, space: SpaceSpec, grid: RadialGrid = DEFAULT_GRID) -> float:
    """Norm of the normalized kernel (``kernel_terms``) with ``|base| = base_modulus``.

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
    exponent, scale = kernel_terms(s_mod, space)
    pq = space.p * exponent

    depth = max(grid.depth, int(np.ceil(np.log2(1.0 / max(1.0 - s_mod, 1e-300)))) + 8)
    _, w, _, r, weight_factor = _weighted_rule(space, depth, grid.panel_order)
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
def _kernel_angular_rule(j_max: int, order: int) -> tuple:
    """``(sin(theta/2)**2, weights)`` of the angular rule of
    ``kernel_family_norm``, as a row, on ``j_max`` dyadic panels of ``[0, pi]``."""
    theta, tw, _ = radial_rule(j_max, order, 1.0, np.pi)
    half_angle_sin_sq = np.sin(0.5 * theta[None, :]) ** 2
    for arr in (half_angle_sin_sq, tw):
        arr.setflags(write=False)
    return half_angle_sin_sq, tw


# ---------------------------------------------------------------------------
# sup searches


_BRACKET_POINTS = 33
_BRACKET_STEPS = np.arange(float(_BRACKET_POINTS))
_FLAT_REL = 2.0**-40  # a seminorm row's spread, relative to its maximum, at which it stops


def bracket_argmax(fn, lo: np.ndarray, hi: np.ndarray, rounds: int, *, flat_rel: float | None = None):
    """Vectorized bracket search for the maxima of ``fn`` on the rows of
    ``(M,)`` brackets ``[lo, hi]``.

    ``fn`` maps an ``(M, 33)`` array of abscissae, row ``m`` in bracket
    ``m``, to an array of values.  Each round evaluates ``fn`` once on
    ``_BRACKET_POINTS`` equispaced points per row and shrinks each bracket
    to its best point's two neighbours, a factor of 16 per round.  Returns
    arrays ``(x, fn(x))`` of the best point of each row over all rounds,
    the earliest one on ties; a degenerate bracket keeps its one point.
    A round reads its points through flat indices ``row * 33 + i`` into
    the raveled arrays.

    Without ``flat_rel`` the search takes ``rounds`` rounds.  With it, a
    row freezes after the first round whose values lie within ``flat_rel``
    of their maximum, relative to it (``max - min <= flat_rel * |max|``),
    and keeps its best point from then on; the search ends when every row
    is frozen, or after ``rounds``.  Frozen rows are still evaluated, so
    ``fn`` always sees all ``M`` rows and each row's result is that of its
    own one-row search.  Rounds ``1 .. k`` are those of the fixed-round
    search, so a stopped row's value is at most its fixed-round value.
    """
    starts, last = np.arange(0, lo.size * _BRACKET_POINTS, _BRACKET_POINTS), _BRACKET_POINTS - 1
    best_x, best, live = lo, np.full(lo.shape, -np.inf), np.ones(lo.shape, dtype=bool)
    for _ in range(rounds):
        xs = _bracket_abscissae(lo, hi)
        values = fn(xs)
        i = values.argmax(axis=1)
        at, xs = starts + i, xs.ravel()
        top = values.ravel()[at]
        better = (top > best) & live
        best_x, best = np.where(better, xs[at], best_x), np.where(better, top, best)
        lo, hi = xs[at - (i > 0)], xs[at + (i < last)]
        if flat_rel is not None:
            live &= ~(top - values.min(axis=1) <= flat_rel * np.abs(top))
            if not live.any():
                break
    return best_x, best


def _bracket_abscissae(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.linspace(a, b, 33, axis=-1)`` bit for bit, without its per-call
    overhead: ``k * step + a`` with the last point set to ``b``, and, as
    ``linspace`` does when any step underflows to 0, ``(k / 32) * (b - a) + a``."""
    last = _BRACKET_POINTS - 1
    delta = (b - a)[:, None]
    step = delta / last
    xs = (_BRACKET_STEPS / last) * delta if (step == 0.0).any() else _BRACKET_STEPS * step
    xs += a[:, None]
    xs[:, last] = b
    return xs


def _larger(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise ``max(a, b)`` as Python's ``max`` takes it: ``a`` unless ``b > a``."""
    return np.where(b > a, b, a)


def grid_peak(values: np.ndarray) -> tuple:
    """``(i, j, values[i, j])`` at the first maximum of a 2-D array in flat
    order (its first NaN, if it holds one), as ``np.argmax`` finds it."""
    i, j = divmod(int(np.argmax(values)), values.shape[1])
    return i, j, values[i, j]


def family_bloch_seminorm(modulus, peaks, grid: RadialGrid = DEFAULT_GRID) -> np.ndarray:
    """``bloch_seminorm`` of each function ``f_m`` of a family, as an array.

    ``peaks`` holds, one member at a time, the ``grid_peak`` ``(i, j,
    value)`` of ``(1-|z|^2)|f_m'|`` on the circles of ``sample_points``;
    each grid supremum is sharpened by a bracket search in radius and one in
    angle, both around its grid argmax and independent of each other, and
    all ``2M`` brackets are searched as one ``bracket_argmax``.
    ``modulus`` maps an ``(M, n)`` array of points, row ``m`` for member
    ``m``, to ``|f_m'|`` there; in each round row ``m`` holds the member's
    33 radial points and then its 33 angular points, so every round is one
    call for all members and both directions.  Only the moduli are read, so
    a caller may compute them in closed form instead of forming the complex
    derivatives.

    Each row stops once its values are flat to ``_FLAT_REL`` (``flat_rel``
    of ``bracket_argmax``), at most 12 rounds: most rows reach the
    evaluation's rounding noise (1e-15 to 3e-11 relative) in 5 to 7 rounds,
    and later rounds only choose among it.  A value is still ``|f'|`` at a
    disk point, a lower bound of the supremum, at most its 12-round value."""
    radii, _ = sample_points(grid.depth, grid.angular_nodes)
    i, j, grid_best = (np.array(column) for column in zip(*peaks))
    members = grid_best.size
    theta = 2.0 * np.pi * j / grid.angular_nodes
    ray = np.exp(1j * theta)[:, None]
    r_grid = radii[i][:, None]
    gap_grid = one_minus_sq(r_grid)
    span = 2.0 * np.pi / grid.angular_nodes

    def radial_then_angular(xs: np.ndarray) -> np.ndarray:
        rr, th = xs[:members], xs[members:]
        mod = modulus(np.concatenate([rr * ray, r_grid * np.exp(1j * th)], axis=1))
        return np.concatenate([one_minus_sq(rr) * mod[:, :_BRACKET_POINTS], gap_grid * mod[:, _BRACKET_POINTS:]])

    lo = np.concatenate([np.where(i >= 1, radii[i - 1], 0.0), theta - span])
    hi = np.concatenate([np.where(i + 1 < radii.size, radii[np.minimum(i + 1, radii.size - 1)],
                                  0.5 * (1.0 + radii[i])), theta + span])
    top = bracket_argmax(radial_then_angular, lo, hi, 12, flat_rel=_FLAT_REL)[1]
    return _larger(_larger(grid_best, top[:members]), top[members:])


def bloch_seminorm(f: DiskFunction, grid: RadialGrid = DEFAULT_GRID, samples=None) -> float:
    """``sup (1-|z|^2) |f'(z)|`` over the sample set, sharpened by local
    bracket searches in radius and in angle (``family_bloch_seminorm``).

    ``samples``, when given, is ``(1-|z|^2)|f'(z)|`` already evaluated on
    the circles of ``sample_points``; the search then starts from it."""

    def modulus(z: np.ndarray) -> np.ndarray:
        return np.abs(f.deriv(z))

    if samples is None:
        radii, z = sample_points(grid.depth, grid.angular_nodes)
        samples = one_minus_sq(radii)[:, None] * modulus(z)
    return float(family_bloch_seminorm(modulus, [grid_peak(samples)], grid)[0])


# ---------------------------------------------------------------------------
# boundary profiles


@dataclass
class BoundaryProfile:
    """Nested suprema of a quantity over shrinking boundary regions.

    ``values[k]`` is the sample supremum over the region where the trigger
    modulus exceeds ``thresholds[k]``; by construction it is nonincreasing
    wherever the region is nonempty.  ``band_values[k]`` is the supremum
    over the band between consecutive thresholds, with ``band_moduli[k]``
    the trigger modulus at which it was attained; the pairs are the signal
    for log-log slope fits (for a divergent quantity the nested values sit
    at the deepest sampled circle while the band values climb).  Empty
    regions are flagged, not zero-filled.
    """

    trigger: str
    thresholds: np.ndarray
    values: np.ndarray
    band_values: np.ndarray
    band_moduli: np.ndarray
    empty: np.ndarray

    def __post_init__(self):
        finite = np.nonzero(~self.empty)[0]
        vals = self.values[finite]
        if vals.size > 1 and (np.diff(vals) > 0.0).any():
            raise AssertionError("nested suprema must be nonincreasing")

    @property
    def nonempty_values(self) -> np.ndarray:
        return self.values[~self.empty]

    def to_dict(self) -> dict:
        """The profile as JSON-ready lists, ``None`` for a non-finite cell.

        The dict is built on the first call and that same dict is returned
        on every later one.  A report holding the dict shares it, so it is
        read-only."""
        return self._dict

    @cached_property
    def _dict(self) -> dict:
        return {
            "trigger": self.trigger,
            "thresholds": _cells(self.thresholds),
            "values": _cells(self.values),
            "band_values": _cells(self.band_values),
            "band_moduli": _cells(self.band_moduli),
            "empty": np.asarray(self.empty, dtype=bool).tolist(),
        }


def _cells(a) -> list:
    """``a`` as a list of floats, with ``None`` for each non-finite cell."""
    a = np.asarray(a, dtype=float)
    cells = a.tolist()
    for i in np.flatnonzero(~np.isfinite(a)).tolist():
        cells[i] = None
    return cells


class BandPartition:
    """The flat indices of one trigger modulus sorted into the bands of
    ``profile_thresholds(depth)``, band ``k`` holding the indices whose
    modulus lies in ``(thresholds[k], thresholds[k+1]]`` (the last band is
    open above and takes NaN).  ``layout`` is ``(order, starts, counts)``:
    ``order`` holds the flat indices stably sorted by band, so band ``k``
    is ``order[starts[k]:starts[k] + counts[k]]``, ascending.  The layout is
    found on first use, inside the first profile that reads it, and every
    later profile of the same modulus reuses it."""

    def __init__(self, trigger_modulus, depth: int):
        self.modulus = np.asarray(trigger_modulus, dtype=float).ravel()
        self.depth = depth

    @cached_property
    def layout(self) -> tuple:
        # 1 + band index: the number of thresholds 1 - 2**-k below the modulus m, which
        # searchsorted(thresholds, m) counts.  For m < 1 it is read from the exponent e of
        # the gap 1 - m = f * 2**e, 1/2 <= f < 1: 2**-k > 1 - m exactly when k <= -e (the
        # gap is exact for m >= 1/2, and below 1/2 every count is 0).  The few moduli
        # m >= 1, +inf or NaN are counted by searchsorted itself.
        thresholds, above = profile_thresholds(self.depth), ~(self.modulus < 1.0)
        slot = np.clip(-np.frexp(1.0 - self.modulus)[1], 0, self.depth)
        slot[above] = np.searchsorted(thresholds, self.modulus[above], side="left")
        # sorted in the narrowest integer type, where numpy's stable sort is a radix sort
        narrow = slot.astype(np.min_scalar_type(self.depth))
        order = np.argsort(narrow, kind="stable")
        edges = np.searchsorted(narrow[order], np.arange(self.depth + 2))  # slot 0 lies below the first threshold
        return order, edges[1:-1].tolist(), np.diff(edges[1:]).tolist()


def boundary_profile(
    quantity: np.ndarray,
    trigger_modulus: np.ndarray,
    depth: int,
    trigger: str = TRIGGER_Z,
    partition: BandPartition | None = None,
) -> BoundaryProfile:
    """Build the nested-suprema record from flat sample arrays.

    Each band keeps its first maximum in flat order (its first NaN, if it
    holds one).  ``partition``, when given, is the ``BandPartition`` of
    ``trigger_modulus`` at this depth, shared by the profiles of one modulus.
    """
    q = np.asarray(quantity, dtype=float).ravel()
    mod = np.asarray(trigger_modulus, dtype=float).ravel()
    if q.shape != mod.shape:
        raise ValueError("quantity and trigger modulus must align")
    if partition is None:
        partition = BandPartition(mod, depth)
    elif partition.depth != depth or partition.modulus.shape != mod.shape:
        raise ValueError("partition must belong to the trigger modulus at this depth")
    order, starts, counts = partition.layout
    qs = q[order]  # each band a contiguous run, in flat order
    filled = [k for k in range(depth) if counts[k]]
    firsts = order[[starts[k] + qs[starts[k]:starts[k] + counts[k]].argmax() for k in filled]]
    band_vals = np.full(depth, np.nan)
    band_mods = np.full(depth, np.nan)
    band_vals[filled] = q[firsts]
    band_mods[filled] = mod[firsts]

    # the nested supremum at k is the largest finite band value at or beyond k; equal
    # suprema differ only as signed zeros, where the deepest is kept (numpy's maximum
    # keeps neither one reliably)
    deepest_first = np.where(np.isfinite(band_vals), band_vals, -np.inf)[::-1]
    running = np.maximum.accumulate(deepest_first)
    running[running == 0.0] = deepest_first[np.argmax(deepest_first == 0.0)]
    running = running[::-1]
    empty = running == -np.inf
    values = np.where(empty, np.nan, running)
    return BoundaryProfile(trigger, profile_thresholds(depth), values, band_vals, band_mods, empty)


def circle_maxima(values: np.ndarray) -> np.ndarray:
    """The first maximum (the first NaN, if any) of each row of a
    ``(circles, nodes)`` sample array.  ``|z|`` is constant on a sample
    circle, so the ``|z|``-triggered profile of these values over the radii
    equals that of the flat samples, read from one value per circle."""
    return np.take_along_axis(values, values.argmax(axis=1)[:, None], axis=1)[:, 0]


def little_bloch_profile(f: DiskFunction, grid: RadialGrid = DEFAULT_GRID) -> BoundaryProfile:
    """Boundary profile of ``(1-|z|^2)|f'(z)|``, the little-Bloch tail."""
    radii, z = sample_points(grid.depth, grid.angular_nodes)
    g = one_minus_sq(radii)[:, None] * np.abs(f.deriv(z))
    return boundary_profile(circle_maxima(g), radii, grid.depth, TRIGGER_Z)


# ---------------------------------------------------------------------------
# the endpoint integral inequality


def sw_integral_check(beta: float, m: float, rho: float, grid: RadialGrid = DEFAULT_GRID):
    """Evaluate ``int_0^1 (1-r)^beta / (1-rho r)^m dr`` and the reference
    bound ``(1-rho)^(1+beta-m)``.

    Requires ``beta > -1`` and ``m > 1 + beta``.  The dyadic band depth is
    extended past the transition scale ``1-rho`` so the kernel's interior
    layer is always resolved.  Returns ``(numeric, bound_rhs)``.
    """
    beta, m, rho = float(beta), float(m), float(rho)
    if beta <= -1.0:
        raise DomainError("beta must exceed -1")
    if m <= 1.0 + beta:
        raise DomainError("m must exceed 1 + beta")
    if not 0.0 < rho < 1.0:
        raise DomainError("rho must lie in (0, 1)")
    depth = max(grid.depth, int(np.ceil(np.log2(1.0 / (1.0 - rho)))) + 12)
    x, w, band = radial_rule(depth, grid.panel_order, beta + 1.0)
    F = x**beta * ((1.0 - rho) + rho * x) ** (-m)
    numeric = float(np.sum(w * F))
    bound = float((1.0 - rho) ** (1.0 + beta - m))
    return numeric, bound


# ---------------------------------------------------------------------------
# growth envelopes


def _envelope(values, space: SpaceSpec, power: float, grid: RadialGrid) -> float:
    """``sup |values(z)| w(|z|) (1-|z|^2)**power`` over the circles of
    ``sample_points``, taken a block of circles at a time (``block_edges``);
    a NaN anywhere is the result, as it is of one whole-array maximum."""
    radii, z = sample_points(grid.depth, grid.angular_nodes)
    scale = space.weight(radii) * one_minus_sq(radii) ** power
    edges = block_edges(*z.shape)
    return float(np.max([np.max(scale[a:b, None] * np.abs(values(z[a:b]))) for a, b in zip(edges, edges[1:])]))


def pointwise_growth_envelope(f: DiskFunction, space: SpaceSpec, grid: RadialGrid = DEFAULT_GRID) -> float:
    """``sup |f(z)| w(|z|) (1-|z|^2)**(1/p)`` over the sample set."""
    return _envelope(f.eval, space, 1.0 / space.p, grid)


def derivative_growth_envelope(f: DiskFunction, space: SpaceSpec, grid: RadialGrid = DEFAULT_GRID) -> float:
    """``sup |f'(z)| w(|z|) (1-|z|^2)**(1/p + 1)`` over the sample set."""
    return _envelope(f.deriv, space, 1.0 / space.p + 1.0, grid)
