"""References for the sup searches and boundary profiles in ``blochlab.norms``,
the boundary chase in ``blochlab.oracle`` and the verdict rules in
``blochlab.criteria``.

``golden_argmax`` is a scalar golden-section search, and
``golden_bloch_seminorm`` is the Bloch seminorm with its radial and
angular refinement done by that search.  Tests compare the vectorized
``bracket_argmax`` and ``bloch_seminorm`` against them.
``scalar_bracket_argmax`` searches one bracket as each row of
``bracket_argmax`` is searched, with or without the stopping rule, and
``scalar_chase`` chases one circle with it; tests compare the row search
and the batched chase against them.
``two_pass_family_bloch_seminorm`` is the family seminorm with the radial
searches of all members as one ``bracket_argmax`` and then the angular
ones as a second, under the same stopping rule; tests pin the one merged
search to it bit for bit.
``fixed_round_twins`` makes each ``family_bloch_seminorm`` call twice, with
the stopping rule and with all 12 rounds, and
``assert_within_the_flat_tolerance`` checks a pair of them.
``reference_boundary_profile`` builds a profile with one full scan of the
flat samples per band; tests compare ``boundary_profile`` and the sample
table's reduced profiles against it with ``assert_same_profile``.
``reference_sup_verdict``, ``reference_limit_verdict`` and
``reference_u_tail`` are the classifier's verdict rules as three separate
bodies, each with its own slope and divergence band selection, and
``reference_is_little_bloch`` is the stand-alone little-Bloch tail rule;
tests pin the one verdict rule of ``blochlab.criteria`` to them.
``reference_emit`` writes a report's files with ``json.dumps`` and one
``csv.writer`` row at a time; tests pin ``blochlab.cli.emit`` to its bytes.
``reference_oracle_task`` refines the oracle's kernel rows, pinned rows and
chain battery each in a search of its own; tests pin the one search of
``blochlab.oracle.oracle_task`` and its views to it bit for bit.
``reference_symbol_samples``, ``reference_chase_grids``,
``reference_chain_grids`` and ``reference_grid_peaks`` are the oracle's
grid stage on the whole grid: one evaluation of the symbol on every sample
circle, each row's values on the whole grid, and each row's first maximum
by ``np.argmax``; tests pin the blocked grid stage of ``blochlab.oracle``
to them bit for bit.
``reference_bracket_argmax`` and ``reference_kernel_family_norm`` are the
bracket search with 2-D fancy indexing and the kernel norm that builds its
radial and angular rules on every call; tests pin ``bracket_argmax`` and
``kernel_family_norm`` to them bit for bit.  ``reference_check_normality``
checks the witness ratios on the whole grid; tests pin the report of every
weight it accepts.  ``reference_bergman_type_norm``,
``reference_derivative_form_norm``, ``reference_pointwise_growth_envelope``
and ``reference_derivative_growth_envelope`` evaluate their integrand on
every quadrature node or sample circle in one array; tests pin the blocked
quadrature and envelopes of ``blochlab.norms`` to them bit for bit.
"""

import csv
import json
import math
from pathlib import Path
from unittest import mock

import numpy as np

from blochlab.cli import _iter_verdicts
from blochlab import norms, oracle
from blochlab.criteria import SLOPE_FAIL, SLOPE_HOLD, STABLE_REL, Status, Verdict
from blochlab.disk_functions import DomainError
from blochlab.norms import (
    _FLAT_REL,
    DEFAULT_GRID,
    TRIGGER_Z,
    BoundaryProfile,
    _angular_power_mean,
    _decay_checked_total,
    _unit_circle,
    bloch_seminorm,
    bracket_argmax,
    family_bloch_seminorm,
    one_minus_sq,
    profile_thresholds,
    radial_rule,
    sample_points,
    unit_norm_mass,
    weight_power_over_gap,
)
from blochlab.weights import NORMALITY_GRID_DEPTH, NormalityReport

_INV_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


def golden_argmax(fn, lo: float, hi: float, iters: int):
    """Golden-section search for the maximum of the scalar ``fn`` on ``[lo, hi]``.

    Returns ``(x, fn(x))`` for the best bracket point seen, the earliest
    one on ties; a degenerate interval returns its midpoint.  Tracking
    starts after the first step: of the two opening probes, the one the
    step discards is never better than the one it keeps.
    """
    a, b = float(lo), float(hi)
    if not b > a:
        x = 0.5 * (a + b)
        return x, fn(x)
    c = b - _INV_GOLDEN * (b - a)
    d = a + _INV_GOLDEN * (b - a)
    fc, fd = fn(c), fn(d)
    best_x, best = c, -np.inf
    for _ in range(iters):
        if fc < fd:
            a, c, fc = c, d, fd
            d = a + _INV_GOLDEN * (b - a)
            fd = fn(d)
        else:
            b, d, fd = d, c, fc
            c = b - _INV_GOLDEN * (b - a)
            fc = fn(c)
        if fc > best:
            best_x, best = c, fc
        if fd > best:
            best_x, best = d, fd
    return best_x, best


def scalar_bracket_argmax(fn, lo: float, hi: float, rounds: int, flat_rel=None):
    """The bracket search on one interval: ``fn`` maps an array of abscissae
    to an array, each round evaluates it on 33 ``linspace`` points and
    shrinks the bracket to the best point's two neighbours.  Returns
    ``(x, fn(x))`` for the best point over all rounds, the earliest on ties;
    a degenerate interval returns its midpoint after one call.  Given
    ``flat_rel``, the search ends after the first round whose values lie
    within ``flat_rel`` of their maximum, relative to it."""
    a, b = float(lo), float(hi)
    if not b > a:
        x = 0.5 * (a + b)
        return x, float(fn(np.array([x]))[0])
    best_x, best = a, -np.inf
    for _ in range(rounds):
        xs = np.linspace(a, b, 33)
        values = fn(xs)
        i = int(np.argmax(values))
        if values[i] > best:
            best_x, best = float(xs[i]), float(values[i])
        a, b = xs[max(i - 1, 0)], xs[min(i + 1, 32)]
        if flat_rel is not None and values[i] - values.min() <= flat_rel * abs(values[i]):
            break
    return best_x, best


def scalar_chase(phi, depth, angular_nodes):
    """The boundary chase of one circle, with the scalar bracket search."""
    r = 1.0 - 0.5**depth
    theta = 2.0 * np.pi * np.arange(angular_nodes) / angular_nodes
    mods = np.abs(phi.eval(r * np.exp(1j * theta)))
    j = int(np.argmax(mods))
    span = 2.0 * np.pi / angular_nodes
    th, best = scalar_bracket_argmax(lambda t: np.abs(phi.eval(r * np.exp(1j * t))),
                                     theta[j] - span, theta[j] + span, 9)
    return r * np.exp(1j * (th if best > mods[j] * (1.0 + 1e-14) else theta[j]))


def golden_bloch_seminorm(f, grid) -> float:
    """``sup (1-|z|^2) |f'(z)|`` over the sample set, with one 64-step
    golden-section refinement in radius and then in angle."""
    radii, z = sample_points(grid.depth, grid.angular_nodes)
    g = one_minus_sq(radii)[:, None] * np.abs(f.deriv(z))
    i, j = np.unravel_index(int(np.argmax(g)), g.shape)
    theta = 2.0 * np.pi * j / grid.angular_nodes

    def radial(rr: float) -> float:
        return (1.0 - rr * rr) * abs(f.deriv(rr * np.exp(1j * theta)))

    lo = radii[i - 1] if i >= 1 else 0.0
    hi = radii[i + 1] if i + 1 < radii.size else 0.5 * (1.0 + radii[i])
    best = max(float(g[i, j]), golden_argmax(radial, lo, hi, 64)[1])

    span = 2.0 * np.pi / grid.angular_nodes
    r_best = radii[i]

    def angular(th: float) -> float:
        return (1.0 - r_best * r_best) * abs(f.deriv(r_best * np.exp(1j * th)))

    return max(best, golden_argmax(angular, theta - span, theta + span, 64)[1])


def two_pass_family_bloch_seminorm(modulus, samples, grid) -> np.ndarray:
    """``family_bloch_seminorm`` with two searches: every member's radial
    bracket around its grid argmax, then every member's angular bracket at
    the grid radius, each direction one ``bracket_argmax`` over the ``M``
    rows with the same stopping rule, ``modulus`` called on ``(M, 33)``
    points per round."""
    radii, _ = sample_points(grid.depth, grid.angular_nodes)
    peaks = []
    for g in samples:
        i, j = np.unravel_index(int(np.argmax(g)), g.shape)
        peaks.append((i, j, g[i, j]))
    i, j, grid_best = (np.array(column) for column in zip(*peaks))
    theta = 2.0 * np.pi * j / grid.angular_nodes
    ray = np.exp(1j * theta)[:, None]

    def radial(rr):
        return one_minus_sq(rr) * modulus(rr * ray)

    lo = np.where(i >= 1, radii[i - 1], 0.0)
    hi = np.where(i + 1 < radii.size, radii[np.minimum(i + 1, radii.size - 1)], 0.5 * (1.0 + radii[i]))
    top = bracket_argmax(radial, lo, hi, 12, flat_rel=_FLAT_REL)[1]
    best = np.where(top > grid_best, top, grid_best)

    span = 2.0 * np.pi / grid.angular_nodes
    r_best = radii[i][:, None]

    def angular(th):
        return one_minus_sq(r_best) * modulus(r_best * np.exp(1j * th))

    top = bracket_argmax(angular, theta - span, theta + span, 12, flat_rel=_FLAT_REL)[1]
    return np.where(top > best, top, best)


def fixed_round_twins(pairs: list):
    """A stand-in for ``family_bloch_seminorm`` that returns the stopping
    search's values and appends ``(stopping, fixed_round)`` to ``pairs``,
    where ``fixed_round`` is the same call made again with the stopping rule
    off (``norms._FLAT_REL`` None), every row searched for all 12 rounds."""

    def search(modulus, peaks, grid):
        peaks = list(peaks)
        stopping = family_bloch_seminorm(modulus, peaks, grid)
        with mock.patch.object(norms, "_FLAT_REL", None):
            pairs.append((stopping, family_bloch_seminorm(modulus, peaks, grid)))
        return stopping

    return search


def assert_within_the_flat_tolerance(stopping, fixed_round) -> None:
    """Every stopped value is at most its fixed-round value and below it by
    at most ``2**-40`` of it: rounds ``1 .. k`` are those of the fixed-round
    search, and a row stops only once its values are that flat."""
    assert stopping.shape == fixed_round.shape
    assert np.all(stopping <= fixed_round)
    assert np.all(fixed_round - stopping <= 2.0**-40 * fixed_round)


def reference_boundary_profile(quantity, trigger_modulus, depth: int, trigger: str = TRIGGER_Z) -> BoundaryProfile:
    """The nested-suprema record from flat sample arrays, one mask and one
    ``nonzero`` per band over every sample."""
    q = np.asarray(quantity, dtype=float).ravel()
    mod = np.asarray(trigger_modulus, dtype=float).ravel()
    if q.shape != mod.shape:
        raise ValueError("quantity and trigger modulus must align")
    delta = profile_thresholds(depth)
    band_idx = np.searchsorted(delta, mod, side="left") - 1
    band_vals = np.full(depth, np.nan)
    band_mods = np.full(depth, np.nan)
    for k in range(depth):
        sel = np.nonzero(band_idx == k)[0]
        if sel.size:
            j = sel[np.argmax(q[sel])]
            band_vals[k] = q[j]
            band_mods[k] = mod[j]

    values = np.full(depth, np.nan)
    empty = np.ones(depth, dtype=bool)
    running = -np.inf
    for k in range(depth - 1, -1, -1):
        if np.isfinite(band_vals[k]):
            running = max(running, band_vals[k])
        if np.isfinite(running):
            values[k] = running
            empty[k] = False
    return BoundaryProfile(trigger, delta.copy(), values, band_vals, band_mods, empty)


def assert_same_profile(got: BoundaryProfile, want: BoundaryProfile):
    """Every field equal, NaN where NaN, bit for bit (signed zeros included)."""
    assert got.trigger == want.trigger
    for field in ("thresholds", "values", "band_values", "band_moduli", "empty"):
        a, b = getattr(got, field), getattr(want, field)
        assert a.dtype == b.dtype and a.shape == b.shape, field
        assert np.array_equal(a, b, equal_nan=a.dtype.kind == "f"), field
        assert a.tobytes() == b.tobytes(), field


LITTLE_BLOCH_REL = 1e-3
LITTLE_BLOCH_ABS = 1e-9


def _band_slope(profile: BoundaryProfile) -> float | None:
    """Log-log slope of the last four or fewer bands with finite positive
    suprema attained below modulus 1; None for fewer than three bands or
    bands at one modulus."""
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
    """A slope above ``SLOPE_FAIL`` while the deepest of the last four or
    fewer finite positive band suprema (at any modulus) still climb."""
    if slope is None or not slope > SLOPE_FAIL:
        return False
    finite = np.nonzero(np.isfinite(profile.band_values) & (profile.band_values > 0.0))[0]
    if finite.size < 3:
        return False
    idx = finite[-4:]
    return bool(profile.band_values[idx[-1]] > profile.band_values[idx[0]])


def reference_is_little_bloch(profile: BoundaryProfile, seminorm: float) -> bool:
    """Tail rule: the deepest nested value sits below a relative threshold
    and the last three values do not increase."""
    vals = profile.nonempty_values
    if vals.size == 0:
        return True
    if vals.size < 3:
        return bool(vals[-1] < max(LITTLE_BLOCH_REL * seminorm, LITTLE_BLOCH_ABS))
    tail_ok = vals[-3] >= vals[-2] >= vals[-1]
    return bool(tail_ok and vals[-1] < max(LITTLE_BLOCH_REL * seminorm, LITTLE_BLOCH_ABS))


def reference_limit_verdict(name: str, profile: BoundaryProfile) -> Verdict:
    """Limit-to-zero verdict: the tail rule against the first nested value,
    tested before divergence."""
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
    if tail_ok and vk < max(LITTLE_BLOCH_REL * v0, LITTLE_BLOCH_ABS):
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


def reference_sup_verdict(table, name: str) -> Verdict:
    """Finite-sup verdict over ``|z| -> 1`` read from a ``SampleTable``:
    divergence tested before the flat-slope, stabilized-supremum hold."""
    profile = table.profile(name)
    maxima = table.maxima(name)
    global_sup = float(maxima.max(initial=0.0))
    if global_sup == 0.0:
        return Verdict(name, Status.HOLDS, 0.0, None, profile, "quantity vanishes identically")
    slope = _band_slope(profile)
    inner_cut = profile_thresholds(table.grid.depth)[table.grid.depth - 4]
    inner_sup = float(maxima[table.radii <= inner_cut].max(initial=0.0))
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


def reference_u_tail(table) -> Verdict:
    """The multiplier's little-Bloch verdict read from a ``SampleTable``:
    ``reference_is_little_bloch`` against the seminorm, then divergence."""
    name, prof = "u_bloch_tail", table.profile("u_prime_plain")
    semi = bloch_seminorm(table.sym.u, table.grid, table.quantities["u_prime_plain"])
    slope = _band_slope(prof)
    vals = prof.nonempty_values
    tail = float(vals[-1]) if vals.size else 0.0
    if reference_is_little_bloch(prof, semi):
        return Verdict(name, Status.HOLDS, tail, slope, prof, f"seminorm {semi:.6g}")
    if _diverges(prof, slope):
        note = "derivative growth accelerates at the boundary"
        return Verdict(name, Status.FAILS, math.inf, slope, prof, note)
    return Verdict(
        name, Status.INCONCLUSIVE, tail, slope, prof,
        f"tail {tail:.3g} above threshold at this depth (seminorm {semi:.6g}); may decay further",
    )


def reference_emit(report, out_dir, formats=("json",)) -> list:
    """``emit``'s files written with ``json.dumps`` and ``csv.writer`` rows."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    if "json" in formats:
        path = out / "report.json"
        path.write_text(
            json.dumps(report.to_dict(), sort_keys=True, indent=2, allow_nan=False) + "\n"
        )
        written.append(path)
    if "csv" in formats:
        written.extend(_reference_emit_csv(report, out))
    return written


def _reference_emit_csv(report, out: Path) -> list:
    written = []
    summary = out / "verdicts.csv"
    with summary.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["task", "quantity", "status", "sup_estimate", "slope"])
        for task, verdict in _iter_verdicts(report.results):
            writer.writerow(
                [
                    task,
                    verdict["quantity"],
                    verdict["status"],
                    verdict["sup_estimate"],
                    "" if verdict["divergence_slope"] is None else verdict["divergence_slope"],
                ]
            )
    written.append(summary)
    for task, verdict in _iter_verdicts(report.results):
        profile = verdict.get("profile")
        if not profile:
            continue
        stem = f"{task}.{verdict['quantity']}.profile.csv".replace("/", "_")
        path = out / stem
        with path.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["delta", "value"])
            for delta, value in zip(profile["thresholds"], profile["values"]):
                writer.writerow([delta, "" if value is None else value])
        written.append(path)
    return written


def reference_oracle_task(sym, space, grid, chain=None) -> tuple:
    """``(trend, probe, constant)`` of ``oracle_task`` with the kernel rows,
    the pinned rows and the chain battery's rows each refined alone."""
    points = tuple(oracle.boundary_chase_point(sym.phi, oracle.CHASE_DEPTHS, grid.angular_nodes))
    images = tuple(complex(sym.phi.eval(z_star)) for z_star in points)

    def image_norms(pinched):
        family = oracle._family(images, space, pinched)
        (semi,) = oracle._refine(sym, grid, [oracle._ChaseRows([family])])
        return oracle._image_norms(sym, family, points, semi)

    f_vals = image_norms(False)
    ratios = []
    for norm, w in zip(f_vals, images):
        denom = oracle.kernel_family_norm(abs(w), space, grid)
        ratios.append(0.0 if denom == 0.0 else norm / denom)
    values = tuple(max(ratios[: d - 1], default=0.0) for d in oracle.TREND_DEPTHS)
    trend = oracle.LowerBoundTrend(oracle.TREND_DEPTHS, values, oracle._classify_trend(values),
                                   oracle.CHASE_DEPTHS, tuple(ratios))
    if sym.phi.misses_boundary:
        probe = oracle.CompactnessProbe("vacuous", (), (), (), "vacuous")
    else:
        g_vals = image_norms(True)
        tf, tg = oracle._sequence_trend(f_vals), oracle._sequence_trend(g_vals)
        if tf == "zero" and tg == "zero":
            name = "zero"
        elif "bounded_away" in (tf, tg):
            name = "bounded_away"
        elif tf in ("decaying", "zero") and tg in ("decaying", "zero"):
            name = "decaying"
        else:
            name = "ambiguous"
        probe = oracle.CompactnessProbe("probe", oracle.CHASE_DEPTHS, f_vals, g_vals, name)
    rows = None if chain is None else oracle._chain_rows(*chain)
    constant = None
    if rows is not None:
        (semi,) = oracle._refine(sym, grid, [rows[0]])
        constant = max([0.0] + [float(value) / denom for value, denom in zip(semi, rows[1])])
    return trend, probe, constant


def reference_symbol_samples(sym, grid) -> tuple:
    """``(u, u', phi, phi')`` on the circles of ``sample_points``, the one
    evaluation of the symbol on the grid that an oracle task makes."""
    return sym.jets(sample_points(grid.depth, grid.angular_nodes)[1])


def reference_chase_grids(families, samples, grid):
    """The sample-grid values ``(1-|z|^2)|g'|`` of the images of the chase
    kernels under one or more families, member-major, read from the whole
    grid's ``samples``, each member of each family evaluated alone."""
    radii, _ = sample_points(grid.depth, grid.angular_nodes)
    omr2 = one_minus_sq(radii)[:, None]
    for m in range(len(families[0])):
        for family in families:
            yield omr2 * family.member(m).image_derivative_modulus(*samples)


def reference_chain_grids(functions, samples, grid):
    """The sample-grid values of the images of the chain battery's
    functions, read from the whole grid's ``samples``."""
    radii, _ = sample_points(grid.depth, grid.angular_nodes)
    omr2 = one_minus_sq(radii)[:, None]
    u, du, phi, dphi = samples
    for f in functions:
        yield omr2 * f.image_derivative_modulus(u, du, phi, dphi)


def reference_grid_peaks(grids) -> list:
    """``(i, j, g[i, j])`` at the whole-grid argmax of each grid ``g``: its
    first maximum in flat order, or its first NaN."""
    peaks = []
    for g in grids:
        i, j = np.unravel_index(int(np.argmax(g)), g.shape)
        peaks.append((i, j, g[i, j]))
    return peaks


def reference_bracket_argmax(fn, lo: np.ndarray, hi: np.ndarray, rounds: int):
    """``bracket_argmax`` with each round's best point and new bracket read
    by 2-D fancy indexing."""
    rows, last = np.arange(lo.size), 32
    best_x, best = lo, np.full(lo.shape, -np.inf)
    for _ in range(rounds):
        xs = _reference_bracket_abscissae(lo, hi)
        values = fn(xs)
        i = values.argmax(axis=1)
        top = values[rows, i]
        better = top > best
        best_x, best = np.where(better, xs[rows, i], best_x), np.where(better, top, best)
        lo, hi = xs[rows, np.maximum(i - 1, 0)], xs[rows, np.minimum(i + 1, last)]
    return best_x, best


def _reference_bracket_abscissae(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    last = 32
    k = np.arange(33.0)
    delta = (b - a)[:, None]
    step = delta / last
    xs = (k / last) * delta if np.any(step == 0.0) else k * step
    xs += a[:, None]
    xs[:, last] = b
    return xs


def reference_kernel_family_norm(base_modulus: float, space, grid=DEFAULT_GRID) -> float:
    """``kernel_family_norm`` building its radial rule, weight factor and
    angular row on every call."""
    s_mod = float(base_modulus)
    if not 0.0 <= s_mod < 1.0:
        raise DomainError("base modulus must lie in [0, 1)")
    t = space.weight.t
    gap_w = 1.0 - s_mod**2
    scale = gap_w ** (t + 1.0) / space.weight(s_mod)
    pq = space.p * (1.0 / space.p + t + 1.0)

    depth = max(grid.depth, int(np.ceil(np.log2(1.0 / max(1.0 - s_mod, 1e-300)))) + 8)
    x, w, _ = radial_rule(depth, grid.panel_order, space.weight.alpha * space.p)
    r = 1.0 - x
    s = r * s_mod

    j_max = int(np.ceil(np.log2(np.pi / max(1.0 - s.max(), 1e-300)))) + 6
    theta, tw, _ = radial_rule(j_max, grid.panel_order, 1.0, np.pi)

    dist_sq = (1.0 - s[:, None]) ** 2 + 4.0 * s[:, None] * np.sin(0.5 * theta[None, :]) ** 2
    mean = (dist_sq ** (-0.5 * pq) @ tw) / np.pi
    F = mean * weight_power_over_gap(space, x) * r
    return float(scale * np.sum(w * F) ** (1.0 / space.p))


def reference_check_normality(weight, depth: int = NORMALITY_GRID_DEPTH) -> NormalityReport:
    """``check_normality`` with the witness ratios checked on the whole grid."""
    log_x = -np.log(2.0) * np.arange(depth + 1)
    log_w = weight.log_value_from_gap(log_x)
    log_ratio_s = log_w - weight.s * log_x
    log_ratio_t = log_w - weight.t * log_x

    slack = 1e-12
    rising = np.nonzero(np.diff(log_ratio_s) > slack)[0]
    if rising.size:
        k = int(rising[0])
        return NormalityReport(False, f"w(r)/(1-r)^s increases between grid indices {k} and {k + 1}", k, "s")
    if log_ratio_s[-1] > log_ratio_s[0] + np.log(0.9):
        return NormalityReport(False, "w(r)/(1-r)^s does not decay toward zero on the grid", depth, "s")
    falling = np.nonzero(np.diff(log_ratio_t) < -slack)[0]
    if falling.size:
        k = int(falling[0])
        return NormalityReport(False, f"w(r)/(1-r)^t decreases between grid indices {k} and {k + 1}", k, "t")
    if log_ratio_t[-1] < log_ratio_t[0] - np.log(0.9):
        return NormalityReport(False, "w(r)/(1-r)^t does not grow toward infinity on the grid", depth, "t")
    return NormalityReport(True)


def reference_bergman_type_norm(f, space, grid=DEFAULT_GRID) -> float:
    """``bergman_type_norm`` with ``f`` evaluated on every node in one array."""
    gamma = space.weight.alpha * space.p
    x, w, band = radial_rule(grid.depth, grid.panel_order, gamma)
    r = 1.0 - x
    z = r[:, None] * _unit_circle(grid.angular_nodes)[None, :]
    mpp = _angular_power_mean(f.eval(z), space.p)
    F = mpp * weight_power_over_gap(space, x) * r
    total, _ = _decay_checked_total(F, w, band, grid.depth, "bergman_type_norm")
    return float(total ** (1.0 / space.p))


def reference_derivative_form_norm(f, space, grid=DEFAULT_GRID) -> float:
    """``derivative_form_norm`` with ``f'`` evaluated on every node in one array."""
    gamma = space.weight.alpha * space.p
    x, w, band = radial_rule(grid.depth, grid.panel_order, gamma)
    r = 1.0 - x
    z = r[:, None] * _unit_circle(grid.angular_nodes)[None, :]
    mpp = _angular_power_mean(f.deriv(z), space.p)
    F = mpp * (x * (2.0 - x)) ** space.p * weight_power_over_gap(space, x) * 2.0 * r
    total, _ = _decay_checked_total(F, w, band, grid.depth, "derivative_form_norm")
    head = unit_norm_mass(space, grid) * abs(f.eval(0.0)) ** space.p
    return float((head + total) ** (1.0 / space.p))


def reference_pointwise_growth_envelope(f, space, grid=DEFAULT_GRID) -> float:
    """``pointwise_growth_envelope`` with ``f`` evaluated on every sample circle in one array."""
    radii, z = sample_points(grid.depth, grid.angular_nodes)
    scale = space.weight(radii) * one_minus_sq(radii) ** (1.0 / space.p)
    return float(np.max(scale[:, None] * np.abs(f.eval(z))))


def reference_derivative_growth_envelope(f, space, grid=DEFAULT_GRID) -> float:
    """``derivative_growth_envelope`` with ``f'`` evaluated on every sample circle in one array."""
    radii, z = sample_points(grid.depth, grid.angular_nodes)
    scale = space.weight(radii) * one_minus_sq(radii) ** (1.0 / space.p + 1.0)
    return float(np.max(scale[:, None] * np.abs(f.deriv(z))))
