"""Closed-form analytic functions and self-maps of the unit disk.

Two families of immutable value objects:

* ``DiskFunction``: analytic functions assembled from power series,
  fractional kernels ``scale * (1 - conj(a) z)**(-q)`` (singly or as a
  family evaluated member by row, which also gives the modulus of its
  images' derivatives in real arithmetic) and algebraic
  combinations, each carrying an exact closed-form derivative (never a
  finite difference).
* ``SelfMap``: analytic maps of the disk into itself (affine maps,
  monomials, Blaschke factors and products, scalings, compositions),
  each carrying a certified structural bound for ``sup |phi|`` on any
  centered sub-disk.

All evaluators accept scalars or numpy arrays of points and return the
matching shape.  Each class computes its value and derivative together
as one jet, so a composite evaluates every child once per point;
``eval`` and ``deriv`` are the two halves of ``jet``.  Disk geometry
(pseudo-hyperbolic distance, Bergman metric, metric-disk comparability
sampling) lives at the bottom.
"""

from __future__ import annotations

import copy

import numpy as np
from numpy.polynomial import polynomial as npoly

__all__ = [
    "DomainError",
    "jets",
    "DiskFunction",
    "PowerSeries",
    "FractionalKernel",
    "Sum",
    "Product",
    "Scaled",
    "ComposedWithSelfMap",
    "SelfMap",
    "Affine",
    "MonomialPower",
    "BlaschkeFactor",
    "FiniteBlaschkeProduct",
    "ScaledMap",
    "CompositionMap",
    "constant",
    "identity_map",
    "truncated_log_series",
    "pseudo_hyperbolic",
    "metric_disk_comparability",
    "validate_self_map",
]

_GOLDEN_ANGLE = np.pi * (3.0 - np.sqrt(5.0))
_TOUCH_ULPS = 4


class DomainError(ValueError):
    """A point outside the open unit disk was passed to an evaluator."""


def _as_points(z) -> np.ndarray:
    arr = np.asarray(z, dtype=complex)
    if arr.size and (np.abs(arr) >= 1.0).any():
        raise DomainError("evaluation point outside the open unit disk")
    return arr


def _match_shape(value, template):
    if np.ndim(template) == 0:
        return complex(value)
    return value


def jets(z, *functions) -> tuple:
    """``(f(z), f'(z))`` of each of ``functions`` in turn, flattened: one
    check that ``|z| < 1``, then each function's jet at the same points."""
    points = _as_points(z)
    return tuple(_match_shape(part, z) for f in functions for part in f._jet(points))


def _horner(c: np.ndarray, z) -> np.ndarray:
    """``npoly.polyval(z, c)`` bit for bit, without a temporary per step.

    It starts, as ``polyval`` does, from ``c[-1] + z * 0``, which keeps
    signed zeros, and takes each step in place as ``value * z`` and then
    ``+ c_k``, in ``polyval``'s operand order: complex products round
    differently in the two orders (fused multiply-add).  A 0-d ``z`` gives
    a numpy scalar, which takes the steps as the plain expression."""
    value = c[-1] + z * 0
    if np.ndim(value) == 0:
        for ck in c[-2::-1]:
            value = ck + value * z
        return value
    for ck in c[-2::-1]:
        np.multiply(value, z, out=value)
        np.add(value, ck, out=value)
    return value


class _Jet:
    """The jet protocol of ``DiskFunction`` and ``SelfMap``, which are two
    separate subclasses (the benchmark tracer wraps each one's ``eval``)."""

    def _jet(self, z: np.ndarray) -> tuple:
        """``(f(z), f'(z))`` on an array of disk points."""
        raise NotImplementedError

    def jet(self, z):
        """Value and derivative at ``z`` from one evaluation (``|z| < 1`` enforced)."""
        value, derivative = self._jet(_as_points(z))
        return _match_shape(value, z), _match_shape(derivative, z)

    def eval(self, z):
        """Value at ``z`` (``|z| < 1`` enforced)."""
        return self.jet(z)[0]

    def deriv(self, z):
        """Derivative at ``z``, evaluated from the closed form."""
        return self.jet(z)[1]

    def __call__(self, z):
        return self.eval(z)


class DiskFunction(_Jet):
    """Analytic function on the unit disk with a closed-form derivative."""

    def __add__(self, other):
        if isinstance(other, DiskFunction):
            return Sum((self, other))
        return NotImplemented

    def __sub__(self, other):
        if isinstance(other, DiskFunction):
            return Sum((self, Scaled(-1.0, other)))
        return NotImplemented

    def __neg__(self):
        return Scaled(-1.0, self)

    def __mul__(self, other):
        if isinstance(other, DiskFunction):
            return Product(self, other)
        if isinstance(other, (int, float, complex, np.number)):
            return Scaled(complex(other), self)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, float, complex, np.number)):
            return Scaled(complex(other), self)
        return NotImplemented


class PowerSeries(DiskFunction):
    """Truncated power series ``sum_n c_n z**n`` with coefficients ``c``.

    Coefficients are fixed at construction; there is no automatic
    analytic continuation or tail estimation.
    """

    def __init__(self, coefficients):
        coeffs = np.atleast_1d(np.asarray(coefficients, dtype=complex))
        if coeffs.ndim != 1:
            raise ValueError("coefficients must form a one-dimensional sequence")
        if coeffs.size == 0:
            coeffs = np.zeros(1, dtype=complex)
        self.coefficients = coeffs
        self.coefficients.setflags(write=False)
        if coeffs.size > 1:
            self._dcoeffs = npoly.polyder(coeffs)
        else:
            self._dcoeffs = np.zeros(1, dtype=complex)

    def _jet(self, z):
        return _horner(self.coefficients, z), _horner(self._dcoeffs, z)

    def __repr__(self):
        return f"PowerSeries({self.coefficients.tolist()!r})"


class FractionalKernel(DiskFunction):
    """``scale * (1 - conj(base) z)**(-exponent)`` under the principal branch,
    times ``z - base`` when ``pinched``.

    A sequence of bases, with one scale each, is a family on a leading
    member axis: row ``m`` of an ``(M, n)`` array of points is evaluated
    with member ``m``, and ``member(m)`` is a one-row family that
    broadcasts against points of any shape.  The pinched product is formed
    from the factor ``z - base``, so it vanishes exactly at the base point
    however large the kernel is there.  Value and derivative come from the
    single power ``w**(-exponent-1)`` of ``w = 1 - conj(base) z``; with
    ``|base| < 1``, ``w`` has strictly positive real part on the disk, so
    the principal power never crosses the branch cut, which is asserted on
    every evaluation.
    """

    def __init__(self, base, exponent: float, scale=1.0, pinched: bool = False):
        if np.isscalar(base):
            base, scale = complex(base), complex(scale)
            outside = abs(base) >= 1.0
        else:
            base = np.asarray(base, dtype=complex).reshape(-1, 1)
            scale = np.asarray(scale, dtype=complex).reshape(-1, 1)
            if base.shape != scale.shape:
                raise ValueError("need one scale per kernel base point")
            outside = np.any(np.abs(base) >= 1.0)
            base.setflags(write=False)
            scale.setflags(write=False)
        if outside:
            raise ValueError("kernel base point must satisfy |base| < 1")
        exponent = float(exponent)
        if exponent <= 0.0:
            raise ValueError("kernel exponent must be positive")
        self.base, self.exponent, self.scale, self.pinched = base, exponent, scale, bool(pinched)

    def __len__(self):
        return np.size(self.base)

    def member(self, m: int) -> "FractionalKernel":
        one = copy.copy(self)
        one.base, one.scale = self.base[m : m + 1], self.scale[m : m + 1]
        return one

    def _jet(self, z):
        conj_base = np.conj(self.base)
        w = 1.0 - conj_base * z
        if not (w.real > 0.0).all():
            raise ArithmeticError("kernel argument left the right half-plane")
        power = w ** (-self.exponent - 1.0)
        value, derivative = self.scale * (power * w), self.scale * self.exponent * conj_base * power
        if not self.pinched:
            return value, derivative
        factor = z - self.base
        return factor * value, value + factor * derivative

    def image_terms(self, phi) -> tuple:
        """``(W, |W|**2)`` with ``W = 1 - conj(b_m) phi``, the factors of
        ``image_derivative_modulus`` that depend only on the bases and
        ``phi``; raises ``ArithmeticError`` when ``W`` leaves the right
        half-plane."""
        w = 1.0 - np.conj(self.base) * phi
        if not (w.real > 0.0).all():
            raise ArithmeticError("kernel argument left the right half-plane")
        return w, w.real**2 + w.imag**2

    def image_derivative_modulus(self, u, du, phi, dphi, shared=None):
        """``|g_m'|`` for the images ``g_m = u (K_m o phi)``, from the jets
        ``(u, u')`` and ``(phi, phi')`` at the same points.

        With ``W = 1 - conj(b_m) phi`` and ``e`` the exponent,
        ``|g_m'| = |s_m| |W|**-(e+1) |u' W + e conj(b_m) u phi'|``; pinched,
        the last factor is ``|(u' (phi - b_m) + u phi') W + e conj(b_m) u (phi - b_m) phi'|``.
        The only power is the real ``(Re(W)**2 + Im(W)**2)**(-(e+1)/2)``, and
        the right half-plane check of the jet is kept.  ``shared``, when
        given, is ``(W, |W|**2, u phi')`` at these points, ``image_terms``
        of any family with the same bases, so families over one set of
        bases compute them once."""
        conj_base = np.conj(self.base)
        w, w_sq, u_dphi = (*self.image_terms(phi), u * dphi) if shared is None else shared
        if self.pinched:
            factor = phi - self.base
            inner = (du * factor + u_dphi) * w + (self.exponent * conj_base) * (u_dphi * factor)
        else:
            inner = du * w + (self.exponent * conj_base) * u_dphi
        power = w_sq ** (-0.5 * (self.exponent + 1.0))
        return np.abs(self.scale) * power * np.abs(inner)

    def __repr__(self):
        pinched = ", pinched=True" if self.pinched else ""
        return f"FractionalKernel(base={self.base!r}, exponent={self.exponent!r}, scale={self.scale!r}{pinched})"


class Sum(DiskFunction):
    def __init__(self, terms):
        terms = tuple(terms)
        if not terms:
            raise ValueError("Sum needs at least one term")
        self.terms = terms

    def _jet(self, z):
        value, derivative = self.terms[0]._jet(z)
        for term in self.terms[1:]:
            v, d = term._jet(z)
            value, derivative = value + v, derivative + d
        return value, derivative


class Product(DiskFunction):
    def __init__(self, left: DiskFunction, right: DiskFunction):
        self.left = left
        self.right = right

    def _jet(self, z):
        lv, ld = self.left._jet(z)
        rv, rd = self.right._jet(z)
        return lv * rv, ld * rv + lv * rd


class Scaled(DiskFunction):
    def __init__(self, factor: complex, inner: DiskFunction):
        self.factor = complex(factor)
        self.inner = inner

    def _jet(self, z):
        # each part is popped into the product, so numpy sees a temporary, as
        # it does in ``factor * f(z)``: past its elision size numpy multiplies
        # a temporary in place with the operands swapped, and complex products
        # round differently in the two orders (fused multiply-add).  Popping
        # keeps the values bit for bit those of the plain expression.
        parts = list(self.inner._jet(z))
        return self.factor * parts.pop(0), self.factor * parts.pop(0)


class ComposedWithSelfMap(DiskFunction):
    """``f(phi(z))`` with the chain-rule derivative ``f'(phi(z)) phi'(z)``."""

    def __init__(self, outer: DiskFunction, inner: "SelfMap"):
        self.outer = outer
        self.inner = inner

    def _jet(self, z):
        w, dw = self.inner._jet(z)
        value, derivative = self.outer._jet(w)
        return value, derivative * dw


def constant(c) -> PowerSeries:
    return PowerSeries([complex(c)])


def truncated_log_series(n_terms: int) -> PowerSeries:
    """Polynomial ``sum_{n=1..N} z**n / n``, a truncation of ``log 1/(1-z)``."""
    if n_terms < 1:
        raise ValueError("need at least one term")
    coeffs = np.zeros(n_terms + 1, dtype=complex)
    coeffs[1:] = 1.0 / np.arange(1, n_terms + 1)
    return PowerSeries(coeffs)


# ---------------------------------------------------------------------------
# self-maps


class SelfMap(_Jet):
    """Analytic self-map of the disk with exact derivative and a certified
    structural bound ``sup_bound(r) >= sup_{|z| <= r} |phi(z)|``.

    The bound is computed from the representation, never inferred from
    samples; classifiers branch on it when deciding whether the image
    approaches the boundary.
    """

    def sup_bound(self, r: float) -> float:
        raise NotImplementedError

    @property
    def sup_norm_estimate(self) -> float:
        """Certified upper bound for ``sup_{z in D} |phi(z)|``, in (0, 1]."""
        return min(1.0, self.sup_bound(1.0))

    @property
    def misses_boundary(self) -> bool:
        """Whether the structural bound keeps the image inside a compact
        sub-disk, so that no sequence has ``|phi(z)| -> 1``; the ``|phi|``
        limit conditions and the boundary chase are then vacuous.

        An estimate within a few ulps of 1 counts as touching: a map with
        ``|a| + |b| = 1`` can round its estimate to one or two ulps below 1."""
        return bool(self.sup_norm_estimate < 1.0 - _TOUCH_ULPS * np.finfo(float).eps)


class Affine(SelfMap):
    """``phi(z) = a z + b`` with ``|a| + |b| <= 1``."""

    def __init__(self, a: complex, b: complex):
        a, b = complex(a), complex(b)
        if abs(a) + abs(b) > 1.0 + 1e-12:
            raise ValueError(f"affine map is not a self-map: |a|+|b| = {abs(a) + abs(b):.6g} > 1")
        self.a = a
        self.b = b

    def _jet(self, z):
        return self.a * z + self.b, np.full_like(np.asarray(z, dtype=complex), self.a)

    def sup_bound(self, r):
        return min(1.0, abs(self.a) * r + abs(self.b))


class MonomialPower(SelfMap):
    """``phi(z) = s z**k`` for integer ``k >= 1`` and ``|s| <= 1``."""

    def __init__(self, degree: int, scale: complex = 1.0):
        degree = int(degree)
        if degree < 1:
            raise ValueError("degree must be a positive integer")
        scale = complex(scale)
        if abs(scale) > 1.0 + 1e-12:
            raise ValueError("monomial scale must satisfy |s| <= 1")
        self.degree = degree
        self.scale = scale

    def _jet(self, z):
        value = self.scale * z**self.degree
        if self.degree == 1:
            return value, np.full_like(np.asarray(z, dtype=complex), self.scale)
        return value, self.scale * self.degree * z ** (self.degree - 1)

    def sup_bound(self, r):
        return min(1.0, abs(self.scale) * r**self.degree)


def identity_map() -> MonomialPower:
    return MonomialPower(1, 1.0)


class BlaschkeFactor(SelfMap):
    """Disk automorphism ``phi(z) = (a - z) / (1 - conj(a) z)``, ``|a| < 1``."""

    def __init__(self, base: complex):
        base = complex(base)
        if abs(base) >= 1.0:
            raise ValueError("Blaschke base must satisfy |a| < 1")
        self.base = base

    def _jet(self, z):
        w = 1.0 - np.conj(self.base) * z
        return (self.base - z) / w, (abs(self.base) ** 2 - 1.0) / w**2

    def sup_bound(self, r):
        # max of |phi| over |z| <= r, attained on the ray through the base
        return min(1.0, (abs(self.base) + r) / (1.0 + abs(self.base) * r))


class FiniteBlaschkeProduct(SelfMap):
    """Unimodular constant times a finite product of Blaschke factors."""

    def __init__(self, bases, unimodular: complex = 1.0):
        factors = tuple(BlaschkeFactor(b) for b in bases)
        if not factors:
            raise ValueError("need at least one factor")
        unimodular = complex(unimodular)
        if abs(abs(unimodular) - 1.0) > 1e-12:
            raise ValueError("constant must be unimodular")
        self.factors = factors
        self.unimodular = unimodular

    def _jet(self, z):
        vals, ders = map(list, zip(*(f._jet(z) for f in self.factors)))
        n = len(vals)
        # prefix/suffix products avoid dividing through zeros of the factors
        prefix = [np.ones_like(vals[0])]
        for i in range(n - 1):
            prefix.append(prefix[-1] * vals[i])
        suffix = [np.ones_like(vals[0])]
        for i in range(n - 1, 0, -1):
            suffix.append(suffix[-1] * vals[i])
        suffix.reverse()
        out = ders[0] * suffix[0] if n == 1 else ders[0] * prefix[0] * suffix[0]
        for i in range(1, n):
            out = out + ders[i] * prefix[i] * suffix[i]
        # each factor value is popped into the product as a temporary, as in
        # ``f0(z) * f1(z) * ...`` (see ``Scaled._jet``)
        value = vals.pop(0)
        while vals:
            value = value * vals.pop(0)
        return self.unimodular * value, self.unimodular * out

    def sup_bound(self, r):
        bound = 1.0
        for f in self.factors:
            bound *= f.sup_bound(r)
        return min(1.0, bound)


class ScaledMap(SelfMap):
    def __init__(self, factor: complex, inner: SelfMap):
        factor = complex(factor)
        if abs(factor) > 1.0 + 1e-12:
            raise ValueError("scaling factor must satisfy |s| <= 1")
        self.factor = factor
        self.inner = inner

    _jet = Scaled._jet

    def sup_bound(self, r):
        return min(1.0, abs(self.factor) * self.inner.sup_bound(r))


class CompositionMap(SelfMap):
    """``phi(z) = outer(inner(z))``."""

    def __init__(self, outer: SelfMap, inner: SelfMap):
        self.outer = outer
        self.inner = inner

    _jet = ComposedWithSelfMap._jet

    def sup_bound(self, r):
        return self.outer.sup_bound(min(1.0, self.inner.sup_bound(r)))


def validate_self_map(phi: SelfMap, depth: int = 16, angular: int = 256) -> None:
    """Check the self-map property and Schwarz-Pick on boundary-adjacent circles.

    Raises ``ValueError`` on the first violated sample.  The Schwarz-Pick
    inequality ``(1-|z|^2)|phi'(z)| <= (1-|phi(z)|^2)`` is a classical fact
    used here purely as a sanity check on the closed-form derivatives.
    """
    theta = 2.0 * np.pi * np.arange(angular) / angular
    ring = np.exp(1j * theta)
    for k in range(2, depth + 1):
        r = 1.0 - 0.5**k
        z = r * ring
        w, dw = phi._jet(z)
        m = np.abs(w)
        if np.any(m > 1.0 + 1e-12):
            raise ValueError(f"self-map property violated: |phi| = {m.max():.15g} at radius {r}")
        lhs = (1.0 - r * r) * np.abs(dw)
        rhs = (1.0 - np.minimum(m, 1.0) ** 2) * (1.0 + 1e-9) + 1e-12
        if np.any(lhs > rhs):
            raise ValueError(f"Schwarz-Pick violated at radius {r}: excess {(lhs - rhs).max():.3g}")


# ---------------------------------------------------------------------------
# disk geometry


def pseudo_hyperbolic(z, w):
    """``|(z - w) / (1 - conj(z) w)|`` for points of the open disk."""
    za = _as_points(z)
    wa = _as_points(w)
    return np.abs((za - wa) / (1.0 - np.conj(za) * wa))


def metric_disk_comparability(a: complex, r: float, samples: int = 4096) -> float:
    """Empirical comparability ratio of ``1 - |z|^2`` across a Bergman disk.

    Samples the metric disk of radius ``r`` about ``a`` (the Moebius image
    of the Euclidean disk of radius ``tanh r``) on a golden-angle spiral
    and returns the largest of ``(1-|z|^2)/(1-|a|^2)`` and its reciprocal.
    """
    a = complex(a)
    if abs(a) >= 1.0:
        raise DomainError("center must lie in the open unit disk")
    if r <= 0.0:
        raise ValueError("metric radius must be positive")
    if samples < 1:
        raise ValueError("need at least one sample")
    t = np.tanh(r)
    k = np.arange(samples)
    zeta = t * np.sqrt((k + 0.5) / samples) * np.exp(1j * _GOLDEN_ANGLE * k)
    z = (a - zeta) / (1.0 - np.conj(a) * zeta)
    s = (1.0 - np.abs(z) ** 2) / (1.0 - abs(a) ** 2)
    return float(max(s.max(), (1.0 / s).max()))
