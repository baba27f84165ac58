"""Closed-form analytic functions and self-maps of the unit disk.

Two families of immutable value objects:

* ``DiskFunction``: analytic functions assembled from power series,
  fractional kernels ``scale * (1 - conj(a) z)**(-q)`` and algebraic
  combinations, each carrying an exact closed-form derivative (never a
  finite difference).
* ``SelfMap``: analytic maps of the disk into itself (affine maps,
  monomials, Blaschke factors and products, scalings, compositions),
  each carrying a certified structural bound for ``sup |phi|`` on any
  centered sub-disk.

All evaluators accept scalars or numpy arrays of points and return the
matching shape.  Disk geometry (pseudo-hyperbolic distance, Bergman
metric, metric-disk comparability sampling) lives at the bottom.
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial import polynomial as npoly

__all__ = [
    "DomainError",
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
    "rotation",
    "truncated_log_series",
    "pseudo_hyperbolic",
    "bergman_metric",
    "metric_disk_comparability",
    "validate_self_map",
]

_GOLDEN_ANGLE = np.pi * (3.0 - np.sqrt(5.0))


class DomainError(ValueError):
    """A point outside the open unit disk was passed to an evaluator."""


def _as_points(z) -> np.ndarray:
    arr = np.asarray(z, dtype=complex)
    if arr.size and np.any(np.abs(arr) >= 1.0):
        raise DomainError("evaluation point outside the open unit disk")
    return arr


def _match_shape(value, template):
    if np.ndim(template) == 0:
        return complex(value)
    return value


class DiskFunction:
    """Analytic function on the unit disk with a closed-form derivative."""

    def _value(self, z: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _derivative(self, z: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def eval(self, z):
        """Value at ``z`` (``|z| < 1`` enforced)."""
        return _match_shape(self._value(_as_points(z)), z)

    def deriv(self, z):
        """Derivative at ``z``, evaluated from the closed form."""
        return _match_shape(self._derivative(_as_points(z)), z)

    def __call__(self, z):
        return self.eval(z)

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

    def _value(self, z):
        return npoly.polyval(z, self.coefficients)

    def _derivative(self, z):
        return npoly.polyval(z, self._dcoeffs)

    def __repr__(self):
        return f"PowerSeries({self.coefficients.tolist()!r})"


class FractionalKernel(DiskFunction):
    """``scale * (1 - conj(base) z)**(-exponent)`` under the principal branch.

    With ``|base| < 1`` the linear factor ``1 - conj(base) z`` has strictly
    positive real part on the disk, so the principal power never crosses
    the branch cut; this is asserted on every evaluation.
    """

    def __init__(self, base: complex, exponent: float, scale: complex = 1.0):
        base = complex(base)
        if abs(base) >= 1.0:
            raise ValueError("kernel base point must satisfy |base| < 1")
        exponent = float(exponent)
        if exponent <= 0.0:
            raise ValueError("kernel exponent must be positive")
        self.base = base
        self.exponent = exponent
        self.scale = complex(scale)

    def _linear_factor(self, z):
        w = 1.0 - np.conj(self.base) * z
        if not np.all(np.real(w) > 0.0):
            raise ArithmeticError("kernel argument left the right half-plane")
        return w

    def _value(self, z):
        return self.scale * self._linear_factor(z) ** (-self.exponent)

    def _derivative(self, z):
        w = self._linear_factor(z)
        return self.scale * self.exponent * np.conj(self.base) * w ** (-self.exponent - 1.0)

    def __repr__(self):
        return f"FractionalKernel(base={self.base!r}, exponent={self.exponent!r}, scale={self.scale!r})"


class Sum(DiskFunction):
    def __init__(self, terms):
        terms = tuple(terms)
        if not terms:
            raise ValueError("Sum needs at least one term")
        self.terms = terms

    def _value(self, z):
        out = self.terms[0]._value(z)
        for term in self.terms[1:]:
            out = out + term._value(z)
        return out

    def _derivative(self, z):
        out = self.terms[0]._derivative(z)
        for term in self.terms[1:]:
            out = out + term._derivative(z)
        return out


class Product(DiskFunction):
    def __init__(self, left: DiskFunction, right: DiskFunction):
        self.left = left
        self.right = right

    def _value(self, z):
        return self.left._value(z) * self.right._value(z)

    def _derivative(self, z):
        return (
            self.left._derivative(z) * self.right._value(z)
            + self.left._value(z) * self.right._derivative(z)
        )


class Scaled(DiskFunction):
    def __init__(self, factor: complex, inner: DiskFunction):
        self.factor = complex(factor)
        self.inner = inner

    def _value(self, z):
        return self.factor * self.inner._value(z)

    def _derivative(self, z):
        return self.factor * self.inner._derivative(z)


class ComposedWithSelfMap(DiskFunction):
    """``f(phi(z))`` with the chain-rule derivative ``f'(phi(z)) phi'(z)``."""

    def __init__(self, outer: DiskFunction, inner: "SelfMap"):
        self.outer = outer
        self.inner = inner

    def _value(self, z):
        return self.outer._value(self.inner._value(z))

    def _derivative(self, z):
        return self.outer._derivative(self.inner._value(z)) * self.inner._derivative(z)


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


class SelfMap:
    """Analytic self-map of the disk with exact derivative and a certified
    structural bound ``sup_bound(r) >= sup_{|z| <= r} |phi(z)|``.

    The bound is computed from the representation, never inferred from
    samples; classifiers branch on it when deciding whether the image
    approaches the boundary.
    """

    def _value(self, z: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _derivative(self, z: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def eval(self, z):
        return _match_shape(self._value(_as_points(z)), z)

    def deriv(self, z):
        return _match_shape(self._derivative(_as_points(z)), z)

    def __call__(self, z):
        return self.eval(z)

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
        limit conditions and the boundary chase are then vacuous."""
        return self.sup_norm_estimate < 1.0


class Affine(SelfMap):
    """``phi(z) = a z + b`` with ``|a| + |b| <= 1``."""

    def __init__(self, a: complex, b: complex):
        a, b = complex(a), complex(b)
        if abs(a) + abs(b) > 1.0 + 1e-12:
            raise ValueError(f"affine map is not a self-map: |a|+|b| = {abs(a) + abs(b):.6g} > 1")
        self.a = a
        self.b = b

    def _value(self, z):
        return self.a * z + self.b

    def _derivative(self, z):
        return np.full_like(np.asarray(z, dtype=complex), self.a)

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

    def _value(self, z):
        return self.scale * z**self.degree

    def _derivative(self, z):
        if self.degree == 1:
            return np.full_like(np.asarray(z, dtype=complex), self.scale)
        return self.scale * self.degree * z ** (self.degree - 1)

    def sup_bound(self, r):
        return min(1.0, abs(self.scale) * r**self.degree)


def identity_map() -> MonomialPower:
    return MonomialPower(1, 1.0)


def rotation(theta: float) -> MonomialPower:
    return MonomialPower(1, np.exp(1j * float(theta)))


class BlaschkeFactor(SelfMap):
    """Disk automorphism ``phi(z) = (a - z) / (1 - conj(a) z)``, ``|a| < 1``."""

    def __init__(self, base: complex):
        base = complex(base)
        if abs(base) >= 1.0:
            raise ValueError("Blaschke base must satisfy |a| < 1")
        self.base = base

    def _value(self, z):
        return (self.base - z) / (1.0 - np.conj(self.base) * z)

    def _derivative(self, z):
        return (abs(self.base) ** 2 - 1.0) / (1.0 - np.conj(self.base) * z) ** 2

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

    def _value(self, z):
        out = self.factors[0]._value(z)
        for f in self.factors[1:]:
            out = out * f._value(z)
        return self.unimodular * out

    def _derivative(self, z):
        vals = [f._value(z) for f in self.factors]
        ders = [f._derivative(z) for f in self.factors]
        n = len(vals)
        # prefix/suffix products avoid dividing through zeros of the factors
        prefix = [np.ones_like(vals[0])]
        for v in vals[:-1]:
            prefix.append(prefix[-1] * v)
        suffix = [np.ones_like(vals[0])]
        for v in reversed(vals[1:]):
            suffix.append(suffix[-1] * v)
        suffix.reverse()
        out = ders[0] * suffix[0] if n == 1 else ders[0] * prefix[0] * suffix[0]
        for i in range(1, n):
            out = out + ders[i] * prefix[i] * suffix[i]
        return self.unimodular * out

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

    def _value(self, z):
        return self.factor * self.inner._value(z)

    def _derivative(self, z):
        return self.factor * self.inner._derivative(z)

    def sup_bound(self, r):
        return min(1.0, abs(self.factor) * self.inner.sup_bound(r))


class CompositionMap(SelfMap):
    """``phi(z) = outer(inner(z))``."""

    def __init__(self, outer: SelfMap, inner: SelfMap):
        self.outer = outer
        self.inner = inner

    def _value(self, z):
        return self.outer._value(self.inner._value(z))

    def _derivative(self, z):
        return self.outer._derivative(self.inner._value(z)) * self.inner._derivative(z)

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
        w = phi._value(z)
        m = np.abs(w)
        if np.any(m > 1.0 + 1e-12):
            raise ValueError(f"self-map property violated: |phi| = {m.max():.15g} at radius {r}")
        lhs = (1.0 - r * r) * np.abs(phi._derivative(z))
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


def bergman_metric(z, w):
    """Bergman metric ``arctanh`` of the pseudo-hyperbolic distance."""
    return np.arctanh(pseudo_hyperbolic(z, w))


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
