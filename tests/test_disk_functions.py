import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as npoly

from blochlab import (
    Affine,
    BlaschkeFactor,
    ComposedWithSelfMap,
    CompositionMap,
    DomainError,
    FiniteBlaschkeProduct,
    FractionalKernel,
    MonomialPower,
    PowerSeries,
    Product,
    Scaled,
    ScaledMap,
    Sum,
    identity_map,
    pseudo_hyperbolic,
    validate_self_map,
)
from blochlab.battery import random_pairs
from blochlab.norms import sample_points

inner_points = st.builds(
    lambda r, a: r * np.exp(1j * a),
    st.floats(0.0, 0.93),
    st.floats(0.0, 2 * np.pi),
)


def representative_functions():
    return [
        PowerSeries([1.0]),
        PowerSeries([0, 1]),
        PowerSeries([0.5, -1.0j, 0.25, 2.0]),
        FractionalKernel(0.5, 1.0),
        FractionalKernel(0.3 - 0.6j, 2.25, 1.5j),
        Sum((PowerSeries([1, 1]), FractionalKernel(0.4j, 1.5))),
        Product(PowerSeries([0, 1]), FractionalKernel(0.2, 1.0)),
        Scaled(2.0 - 1.0j, FractionalKernel(0.5, 0.75)),
        ComposedWithSelfMap(FractionalKernel(0.6, 1.25), BlaschkeFactor(0.3 + 0.2j)),
        ComposedWithSelfMap(PowerSeries([1, 2, 3]), MonomialPower(2, 0.8)),
    ]


def representative_maps():
    return [
        Affine(0.3 + 0.2j, 0.25),
        Affine(0.5, 0.5),
        MonomialPower(1, 1.0),
        MonomialPower(3, 0.9j),
        BlaschkeFactor(0.4 - 0.3j),
        FiniteBlaschkeProduct([0.3, -0.5j], np.exp(0.7j)),
        ScaledMap(0.85, BlaschkeFactor(0.6)),
        CompositionMap(BlaschkeFactor(0.2), MonomialPower(2, 0.95)),
    ]


class TestEval:
    def test_identity_series(self):
        assert PowerSeries([0, 1]).eval(0.3 + 0j) == pytest.approx(0.3)

    def test_kernel_with_central_base_is_constant(self):
        f = FractionalKernel(0.0, 3.0, 1.0)
        for z in (0.0, 0.5j, -0.7):
            assert f.eval(z) == pytest.approx(1.0)

    def test_kernel_hand_value(self):
        assert FractionalKernel(0.5, 1.0).eval(0.5) == pytest.approx(4.0 / 3.0)

    def test_domain_error_on_boundary(self):
        for f in representative_functions():
            with pytest.raises(DomainError):
                f.eval(1.0)
            with pytest.raises(DomainError):
                f.deriv(1.2j)

    def test_kernel_argument_stays_off_branch_cut(self):
        # dense grid: the linear factor keeps positive real part
        r = np.linspace(0, 0.999, 60)
        z = r[:, None] * np.exp(1j * np.linspace(0, 2 * np.pi, 128))[None, :]
        for a in (0.9, -0.95j, 0.7 + 0.6j):
            if abs(a) >= 1:
                continue
            w = 1.0 - np.conj(a) * z
            assert np.all(w.real > 0)
        FractionalKernel(0.99, 2.0).eval(z)  # must not raise

    def test_zero_series(self):
        f = PowerSeries([])
        assert f.eval(0.3) == 0.0


class TestDeriv:
    def test_square(self):
        assert PowerSeries([0, 0, 1]).deriv(0.5) == pytest.approx(1.0)

    def test_kernel_at_origin(self):
        assert FractionalKernel(0.5, 1.0).deriv(0.0) == pytest.approx(0.5)

    @pytest.mark.parametrize("f", representative_functions())
    @given(z=inner_points)
    @settings(max_examples=25, deadline=None)
    def test_matches_central_difference(self, f, z):
        h = 1e-5
        numeric = (f.eval(z + h) - f.eval(z - h)) / (2 * h)
        exact = f.deriv(z)
        assert abs(numeric - exact) <= 1e-6 * max(1.0, abs(exact))


class TestSelfMaps:
    def test_affine_rejects_non_self_map(self):
        with pytest.raises(ValueError, match="not a self-map"):
            Affine(0.6, 0.5)

    def test_monomial_validation(self):
        with pytest.raises(ValueError):
            MonomialPower(0)
        with pytest.raises(ValueError):
            MonomialPower(2, 1.5)

    def test_blaschke_product_needs_unimodular_constant(self):
        with pytest.raises(ValueError, match="unimodular"):
            FiniteBlaschkeProduct([0.5], 0.9)

    @pytest.mark.parametrize("phi", representative_maps())
    def test_self_map_property_and_schwarz_pick(self, phi):
        validate_self_map(phi)

    @pytest.mark.parametrize("phi", representative_maps())
    def test_sup_bound_certifies_samples(self, phi):
        theta = np.linspace(0, 2 * np.pi, 257)
        for r in (0.3, 0.8, 0.99, 1 - 2**-14):
            sampled = np.abs(phi.eval(r * np.exp(1j * theta[:-1]))).max()
            assert sampled <= phi.sup_bound(r) + 1e-12

    @pytest.mark.parametrize("phi", representative_maps())
    @given(z=inner_points)
    @settings(max_examples=20, deadline=None)
    def test_map_derivative_matches_difference(self, phi, z):
        h = 1e-5
        numeric = (phi.eval(z + h) - phi.eval(z - h)) / (2 * h)
        exact = phi.deriv(z)
        assert abs(numeric - exact) <= 1e-6 * max(1.0, abs(exact))

    def test_sup_norm_estimates(self):
        assert Affine(0.3, 0.25).sup_norm_estimate == pytest.approx(0.55)
        assert ScaledMap(0.5, identity_map()).sup_norm_estimate == pytest.approx(0.5)
        assert BlaschkeFactor(0.4).sup_norm_estimate == pytest.approx(1.0)
        comp = CompositionMap(Affine(0.5, 0.0), ScaledMap(0.8, identity_map()))
        assert comp.sup_norm_estimate == pytest.approx(0.4)

    def test_blaschke_product_boundary_modulus_by_extrapolation(self):
        phi = FiniteBlaschkeProduct([0.3, -0.5j, 0.7], np.exp(0.3j))
        for theta in (0.0, 0.9, 2.2, 4.4):
            direction = np.exp(1j * theta)
            v = [abs(phi.eval((1 - 2.0**-k) * direction)) for k in (29, 30)]
            extrapolated = 2 * v[1] - v[0]
            assert abs(extrapolated - 1.0) <= 1e-12


class TestDiskGeometry:
    @given(z=inner_points, w=inner_points)
    @settings(max_examples=60, deadline=None)
    def test_pseudo_hyperbolic_symmetry(self, z, w):
        assert pseudo_hyperbolic(z, w) == pytest.approx(pseudo_hyperbolic(w, z), abs=1e-13)

    @given(z=inner_points, w=inner_points, v=inner_points)
    @settings(max_examples=60, deadline=None)
    def test_pseudo_hyperbolic_triangle_inequality(self, z, w, v):
        assert pseudo_hyperbolic(z, w) <= pseudo_hyperbolic(z, v) + pseudo_hyperbolic(v, w) + 1e-12

    def test_pseudo_hyperbolic_domain_error(self):
        with pytest.raises(DomainError):
            pseudo_hyperbolic(1.0, 0.0)

    def test_pseudo_hyperbolic_range(self):
        assert pseudo_hyperbolic(0.2, 0.9j) < 1.0


# ---------------------------------------------------------------------------
# jets: the closed forms below are the separate value and derivative bodies
# each class had before it computed both as one jet; they are the reference.
# They keep the jets' operand order: no complex product takes a temporary as
# its right operand, which numpy would swap from 2**14 points on.


def closed_form_value(f, z):
    if isinstance(f, PowerSeries):
        return npoly.polyval(z, f.coefficients)
    if isinstance(f, FractionalKernel):
        return f.scale * (1.0 - np.conj(f.base) * z) ** (-f.exponent)
    if isinstance(f, Sum):
        out = closed_form_value(f.terms[0], z)
        for term in f.terms[1:]:
            out = out + closed_form_value(term, z)
        return out
    if isinstance(f, Product):
        return closed_form_value(f.left, z) * closed_form_value(f.right, z)
    if isinstance(f, (Scaled, ScaledMap)):
        inner = closed_form_value(f.inner, z)
        return f.factor * inner
    if isinstance(f, (ComposedWithSelfMap, CompositionMap)):
        return closed_form_value(f.outer, closed_form_value(f.inner, z))
    if isinstance(f, Affine):
        return f.a * z + f.b
    if isinstance(f, MonomialPower):
        power = z**f.degree
        return f.scale * power
    if isinstance(f, BlaschkeFactor):
        return (f.base - z) / (1.0 - np.conj(f.base) * z)
    if isinstance(f, FiniteBlaschkeProduct):
        out = closed_form_value(f.factors[0], z)
        for g in f.factors[1:]:
            v = closed_form_value(g, z)
            out = out * v
        return f.unimodular * out
    raise TypeError(f)


def closed_form_derivative(f, z):
    if isinstance(f, PowerSeries):
        return npoly.polyval(z, npoly.polyder(f.coefficients) if f.coefficients.size > 1 else [0j])
    if isinstance(f, FractionalKernel):
        w = 1.0 - np.conj(f.base) * z
        return f.scale * f.exponent * np.conj(f.base) * w ** (-f.exponent - 1.0)
    if isinstance(f, Sum):
        out = closed_form_derivative(f.terms[0], z)
        for term in f.terms[1:]:
            out = out + closed_form_derivative(term, z)
        return out
    if isinstance(f, Product):
        return (closed_form_derivative(f.left, z) * closed_form_value(f.right, z)
                + closed_form_value(f.left, z) * closed_form_derivative(f.right, z))
    if isinstance(f, (Scaled, ScaledMap)):
        inner = closed_form_derivative(f.inner, z)
        return f.factor * inner
    if isinstance(f, (ComposedWithSelfMap, CompositionMap)):
        return closed_form_derivative(f.outer, closed_form_value(f.inner, z)) * closed_form_derivative(f.inner, z)
    if isinstance(f, Affine):
        return np.full_like(np.asarray(z, dtype=complex), f.a)
    if isinstance(f, MonomialPower):
        if f.degree == 1:
            return np.full_like(np.asarray(z, dtype=complex), f.scale)
        power = z ** (f.degree - 1)
        return f.scale * f.degree * power
    if isinstance(f, BlaschkeFactor):
        return (abs(f.base) ** 2 - 1.0) / (1.0 - np.conj(f.base) * z) ** 2
    if isinstance(f, FiniteBlaschkeProduct):
        # the product rule for (f_0 ... f_{k-1}) f_k, one factor at a time
        value, out = closed_form_value(f.factors[0], z), closed_form_derivative(f.factors[0], z)
        for g in f.factors[1:]:
            v = closed_form_value(g, z)
            out = out * v + closed_form_derivative(g, z) * value
            value = value * v
        return f.unimodular * out
    raise TypeError(f)


def jet_points():
    # a small set and the default sample grid, which is past the size from
    # which numpy evaluates products of temporaries in place
    rng = np.random.default_rng(5)
    small = 0.97 * np.sqrt(rng.uniform(size=200)) * np.exp(2j * np.pi * rng.uniform(size=200))
    return [small, sample_points(16, 512)[1], 0.3 - 0.4j]


class TestJets:
    @pytest.mark.parametrize("f", [PowerSeries([0.5, -1.0j, 0.25, 2.0]), PowerSeries([2.0]),
                                   *representative_maps(), ScaledMap(0.8 - 0.3j, BlaschkeFactor(0.2j)),
                                   FiniteBlaschkeProduct([0.3, -0.5j, 0.6 + 0.1j], np.exp(1.9j))])
    @pytest.mark.parametrize("z", jet_points(), ids=["small", "grid", "scalar"])
    def test_jet_equals_the_closed_forms_exactly(self, f, z):
        value, derivative = f.jet(z)
        expected = (closed_form_value(f, np.asarray(z)), closed_form_derivative(f, np.asarray(z)))
        assert np.array_equal(value, expected[0]) and np.array_equal(derivative, expected[1])
        assert np.array_equal(f.eval(z), value) and np.array_equal(f.deriv(z), derivative)

    @pytest.mark.parametrize("f", representative_functions())
    @pytest.mark.parametrize("z", jet_points(), ids=["small", "grid", "scalar"])
    def test_jet_matches_the_closed_forms(self, f, z):
        value, derivative = f.jet(z)
        np.testing.assert_allclose(value, closed_form_value(f, np.asarray(z)), rtol=1e-13, atol=0)
        np.testing.assert_allclose(derivative, closed_form_derivative(f, np.asarray(z)), rtol=1e-13, atol=0)

    def test_scalar_jet_returns_complex_numbers(self):
        value, derivative = FractionalKernel(0.5, 1.0).jet(0.5)
        assert type(value) is complex and type(derivative) is complex
        assert value == pytest.approx(4.0 / 3.0) and derivative == pytest.approx(0.5 * 16.0 / 9.0)

    def test_jet_checks_the_domain(self):
        with pytest.raises(DomainError):
            PowerSeries([0, 1]).jet(1.0)
        with pytest.raises(DomainError):
            Affine(0.5, 0.5).jet(np.array([0.0, 1.0j]))


def _bits(a) -> np.ndarray:
    """The float bits of a complex value or array, signed zeros included."""
    return np.atleast_1d(np.asarray(a, dtype=complex)).view(np.float64).view(np.int64)


class TestHornerInPlace:
    """``PowerSeries`` evaluates by Horner's rule into two buffers; its
    values are ``numpy.polynomial.polynomial.polyval``'s, bit for bit."""

    @staticmethod
    def points(shape, seed):
        rng = np.random.default_rng(seed)
        z = 0.999 * np.sqrt(rng.uniform(0.0, 1.0, shape)) * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, shape))
        flat = z.reshape(-1)
        flat[: min(flat.size, 4)] = [0.0, complex(-0.0, -0.0), complex(-0.5, -0.0), complex(-0.0, 0.25)][: flat.size]
        return z

    @staticmethod
    def coefficients(degree, seed):
        rng = np.random.default_rng([degree, seed])
        c = rng.normal(size=degree + 1) + 1j * rng.normal(size=degree + 1)
        c[rng.uniform(size=c.size) < 0.3] = complex(-0.0, -0.0)
        c[0] = complex(-0.0, 0.0) if degree % 2 else c[0]
        return c

    @pytest.mark.parametrize("degree", range(9))
    @pytest.mark.parametrize("shape", [(), (7,), (1, 66), (5, 66), (16, 2048)], ids=str)
    def test_jet_equals_polyval_bit_for_bit(self, degree, shape):
        # (16, 2048) complex points take 512 KiB, past numpy's temporary-elision size
        c = self.coefficients(degree, len(shape))
        f, z = PowerSeries(c), self.points(shape, degree)
        value, derivative = f._jet(z)
        assert np.shape(value) == np.shape(derivative) == shape
        assert np.array_equal(_bits(value), _bits(npoly.polyval(z, c)))
        assert np.array_equal(_bits(derivative), _bits(npoly.polyval(z, npoly.polyder(c) if degree else [0j])))

    def test_strided_points_and_the_public_jet(self):
        c = self.coefficients(5, 1)
        z = self.points((6, 132), 5)[::2, ::2]
        value, derivative = PowerSeries(c).jet(z)
        assert np.array_equal(_bits(value), _bits(npoly.polyval(z, c)))
        assert np.array_equal(_bits(derivative), _bits(npoly.polyval(z, npoly.polyder(c))))
        one = PowerSeries(c).jet(complex(-0.3, -0.0))
        assert np.array_equal(_bits(one), _bits((npoly.polyval(np.array(complex(-0.3, -0.0)), c),
                                                 npoly.polyval(np.array(complex(-0.3, -0.0)), npoly.polyder(c)))))

    def test_evaluation_leaves_the_points_and_coefficients_alone(self):
        c = self.coefficients(4, 2)
        z = self.points((3, 66), 2)
        z_before, f = z.copy(), PowerSeries(c)
        f._jet(z)
        assert np.array_equal(_bits(z), _bits(z_before)) and np.array_equal(_bits(f.coefficients), _bits(c))


class TestKernelFamily:
    bases = np.array([0.0, 0.5, 0.3 - 0.6j, -0.95j])
    scales = np.array([1.0, 0.75, 1.5j, 2.0 - 1.0j])

    def test_rows_equal_the_single_kernels(self):
        family = FractionalKernel(self.bases, 2.25, self.scales)
        z = jet_points()[0][:40].reshape(4, 10)
        value, derivative = family.jet(z)
        for m, (b, s) in enumerate(zip(self.bases, self.scales)):
            assert np.array_equal(value[m], FractionalKernel(b, 2.25, s).eval(z[m]))
            assert np.array_equal(derivative[m], FractionalKernel(b, 2.25, s).deriv(z[m]))

    def test_pinched_rows_equal_the_factored_products(self):
        family = FractionalKernel(self.bases, 3.0, self.scales, pinched=True)
        z = jet_points()[0][:40].reshape(4, 10)
        value, derivative = family.jet(z)
        for m, (b, s) in enumerate(zip(self.bases, self.scales)):
            for single in (Product(PowerSeries([-b, 1.0]), FractionalKernel(b, 3.0, s)),
                           FractionalKernel(b, 3.0, s, pinched=True)):
                assert np.array_equal(value[m], single.eval(z[m]))
                assert np.array_equal(derivative[m], single.deriv(z[m]))
        assert np.all(family.eval(self.bases[:, None]) == 0.0)

    def test_member_broadcasts_against_any_shape(self):
        family = FractionalKernel(self.bases, 1.5, self.scales)
        z = sample_points(6, 64)[1]
        assert len(family) == 4
        assert np.array_equal(family.member(2).deriv(z), FractionalKernel(0.3 - 0.6j, 1.5, 1.5j).deriv(z))

    def test_validation(self):
        with pytest.raises(ValueError):
            FractionalKernel([0.5, 1.0], 1.0, [1.0, 1.0])
        with pytest.raises(ValueError):
            FractionalKernel([0.5], 0.0, [1.0])
        with pytest.raises(ValueError):
            FractionalKernel([0.5, 0.2], 1.0, [1.0])


def batch_functions() -> dict:
    """One of each jet class by name, with complex factors and scales
    wherever a product could round differently with its operands swapped."""
    kernel = FractionalKernel(0.3 - 0.6j, 2.25, 1.5j)
    pinched = FractionalKernel(0.3 - 0.6j, 2.25, 1.5j, pinched=True)
    series = PowerSeries([0.5, 1.0, 0.2j])
    blaschke = [FiniteBlaschkeProduct(bases, np.exp(0.7j))
                for bases in ([0.3 - 0.4j], [0.3, -0.5j], [0.3, -0.5j, 0.6 + 0.1j])]
    return {
        "power-series": PowerSeries([0.5, -1.0j, 0.25, 2.0]),
        "kernel": kernel,
        "pinched-kernel": pinched,
        "scaled": Scaled(0.6 - 0.3j, series),
        "product": Product(Scaled(0.6 - 0.3j, kernel), series),
        "sum": Sum((Scaled(2.0 - 1.0j, kernel), pinched)),
        "composed": ComposedWithSelfMap(pinched, blaschke[2]),
        "affine": Affine(0.3 + 0.2j, 0.25),
        "monomial": MonomialPower(3, 0.6 + 0.7j),
        "blaschke-factor": BlaschkeFactor(0.4 - 0.3j),
        **{f"blaschke-{len(phi.factors)}": phi for phi in blaschke},
        "scaled-map": ScaledMap(0.7 + 0.2j, BlaschkeFactor(0.3 - 0.4j)),
        "composition-map": CompositionMap(ScaledMap(0.7 + 0.2j, blaschke[1]), MonomialPower(2, 0.6 + 0.7j)),
    }


class TestBatchIndependence:
    """A point's jet does not depend on the points evaluated with it.  The
    16x512 sample grid is past numpy's temporary-elision size (2**14
    complex points) and its rows are not, so a complex product whose right
    operand is a temporary would round differently on the whole grid.  This
    also needs numpy's loops to round alike at every position of an array,
    which the CI job records with ``numpy.show_runtime()``."""

    @staticmethod
    def single_points(z) -> list:
        """Flat indices of every 97th grid point, each as a one-point array."""
        return [(k, z.reshape(-1)[k : k + 1]) for k in range(0, z.size, 97)]

    @pytest.mark.parametrize("name", list(batch_functions()))
    def test_the_grid_jet_is_its_rows_and_its_points(self, name):
        f, z = batch_functions()[name], sample_points(16, 512)[1]
        assert z.size >= 2**14 > z.shape[1]
        whole = [_bits(part).reshape(z.shape + (2,)) for part in f._jet(z)]
        for i in range(z.shape[0]):
            for part, row in zip(whole, f._jet(z[i])):
                assert np.array_equal(part[i], _bits(row).reshape(-1, 2))
        for k, point in self.single_points(z):
            for part, one in zip(whole, f._jet(point)):
                assert np.array_equal(part.reshape(-1, 2)[k], _bits(one))


class TestVacuity:
    def test_touching_affine_maps_of_the_random_battery_are_not_vacuous(self):
        # |a| + |b| = 1 by construction; the estimate may round one or two ulps below 1
        touching = [(seed, label) for seed in range(1, 401) for label, sym in random_pairs(seed)
                    if label.startswith("affine_touching") and sym.phi.misses_boundary]
        assert touching == []

    def test_strict_map_near_the_circle_stays_vacuous(self):
        assert Affine(0.5, 0.5 - 1e-9).misses_boundary is True

    @pytest.mark.parametrize("phi", representative_maps())
    def test_predicate_is_a_python_bool(self, phi):
        assert type(phi.misses_boundary) is bool
