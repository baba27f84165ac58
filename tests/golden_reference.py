"""Golden-section references for the sup searches in ``blochlab.norms``.

``golden_argmax`` is a scalar golden-section search, and
``golden_bloch_seminorm`` is the Bloch seminorm with its radial and
angular refinement done by that search.  Tests compare the vectorized
``bracket_argmax`` and ``bloch_seminorm`` against them.
"""

import numpy as np

from blochlab.norms import one_minus_sq, sample_points

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
