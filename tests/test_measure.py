"""Weighted node sets, quadrature and products."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biframekit import (
    BiframeSystem,
    DiscreteMeasure,
    errors,
    gauss_legendre,
    optimal_bounds,
    product_measure,
)
from biframekit.measure import from_partition, integrate


class TestDiscreteMeasure:
    def test_basic_properties(self):
        m = DiscreteMeasure(("a", "b"), np.array([1.0, 2.5]))
        assert len(m) == 2
        assert m.total_mass == pytest.approx(3.5)

    def test_rejects_nonpositive_weights(self):
        with pytest.raises(errors.InvalidMassError):
            DiscreteMeasure(("a",), np.array([0.0]))
        with pytest.raises(errors.InvalidMassError):
            DiscreteMeasure(("a", "b"), np.array([1.0, -2.0]))
        with pytest.raises(errors.InvalidMassError):
            DiscreteMeasure(("a",), np.array([np.inf]))

    def test_rejects_complex_weights(self):
        # a cast to float64 would keep the weight 1.0 of 1 + 5j
        with pytest.raises(errors.InvalidMassError, match="real"):
            DiscreteMeasure(("a",), np.array([1 + 5j]))
        with pytest.raises(errors.InvalidMassError, match="real"):
            DiscreteMeasure(("a", "b"), [2.0, 1 + 0j])

    def test_keeps_a_read_only_copy_of_its_weights(self):
        w = np.ones(3)
        m = DiscreteMeasure(ids=("a", "b", "c"), weights=w)
        system = BiframeSystem.from_samples(m, np.eye(3), np.eye(3), np.eye(3))
        assert optimal_bounds(system).upper_opt == 1.0  # fills the system's cache
        w[0] = 5.0
        assert m.weights[0] == 1.0
        fresh = BiframeSystem.from_samples(m, np.eye(3), np.eye(3), np.eye(3))
        assert optimal_bounds(system).upper_opt == optimal_bounds(fresh).upper_opt == 1.0
        with pytest.raises(ValueError):
            m.weights[1] = -1.0

    def test_rejects_empty_and_mismatched(self):
        with pytest.raises(errors.InvalidMassError):
            DiscreteMeasure((), np.array([]))
        with pytest.raises(errors.InvalidMassError):
            DiscreteMeasure(("a", "b"), np.array([1.0]))
        with pytest.raises(errors.InvalidMassError, match="1-D"):
            DiscreteMeasure(("a", "b"), np.ones((2, 1)))

    def test_rejects_duplicate_ids(self):
        with pytest.raises(errors.InvalidMassError):
            DiscreteMeasure(("a", "a"), np.array([1.0, 1.0]))


def test_from_partition_defaults_ids():
    m = from_partition([3.0, 2.0, 1.5])
    assert m.ids == ("cell-1", "cell-2", "cell-3")
    assert m.weights == pytest.approx([3.0, 2.0, 1.5])


def test_from_partition_custom_ids():
    m = from_partition([1.0, 1.0], ids=["left", "right"])
    assert m.ids == ("left", "right")


class TestGaussLegendre:
    def test_weights_sum_to_interval_length(self):
        rule = gauss_legendre(0.0, 1.0, 8)
        assert rule.measure.total_mass == pytest.approx(1.0, abs=1e-14)
        rule2 = gauss_legendre(-2.0, 5.0, 5)
        assert rule2.measure.total_mass == pytest.approx(7.0, abs=1e-12)

    def test_node_ids_and_ordering(self):
        rule = gauss_legendre(0.0, 1.0, 3)
        assert rule.measure.ids == ("gl-1", "gl-2", "gl-3")
        assert np.all(np.diff(rule.points) > 0)
        assert np.all((rule.points > 0) & (rule.points < 1))

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    def test_polynomial_exactness(self, n):
        # degree <= 2n - 1 must integrate exactly
        rule = gauss_legendre(0.0, 1.0, n)
        for degree in range(2 * n):
            got = integrate(rule, lambda x: x**degree)
            assert got == pytest.approx(1.0 / (degree + 1), abs=1e-13), degree

    def test_cubic_moment(self):
        # int_0^1 22 x (1 - x^2) dx = 22 (1/2 - 1/4) = 11/2, cubic so n=2 suffices
        rule = gauss_legendre(0.0, 1.0, 3)
        assert integrate(rule, lambda x: 22.0 * x * (1 - x * x)) == pytest.approx(5.5, abs=1e-13)

    @settings(max_examples=40, deadline=None)
    @given(
        lo=st.floats(-5, 5),
        width=st.floats(0.1, 10),
        coeffs=st.lists(st.floats(-3, 3), min_size=1, max_size=6),
    )
    def test_random_polynomials_on_random_intervals(self, lo, width, coeffs):
        hi = lo + width
        n = len(coeffs)  # n nodes handle degree  <= 2n-1 >= len(coeffs)-1
        rule = gauss_legendre(lo, hi, n)
        poly = np.polynomial.Polynomial(coeffs)
        exact = poly.integ()(hi) - poly.integ()(lo)
        assert integrate(rule, poly) == pytest.approx(exact, abs=1e-9 * max(1, abs(exact)))

    def test_rejects_bad_interval(self):
        with pytest.raises(errors.InvalidIntervalError):
            gauss_legendre(1.0, 1.0, 4)
        with pytest.raises(errors.InvalidIntervalError):
            gauss_legendre(2.0, 1.0, 4)
        with pytest.raises(errors.InvalidIntervalError):
            gauss_legendre(0.0, np.inf, 4)
        with pytest.raises(errors.InvalidIntervalError):
            gauss_legendre(0.0, 1.0, 0)


class TestProductMeasure:
    def test_row_major_layout(self):
        left = DiscreteMeasure(("a", "b"), np.array([2.0, 3.0]))
        right = DiscreteMeasure(("x", "y", "z"), np.array([1.0, 10.0, 100.0]))
        prod = product_measure(left, right)
        # index (i, j) -> i * len(right) + j
        assert prod.ids == ("(a,x)", "(a,y)", "(a,z)", "(b,x)", "(b,y)", "(b,z)")
        assert prod.weights == pytest.approx([2.0, 20.0, 200.0, 3.0, 30.0, 300.0])
        assert prod.weights == pytest.approx(np.kron(left.weights, right.weights))

    def test_ids_that_hold_the_delimiters_pair_to_distinct_ids(self):
        # unescaped, ("x,y", "z") and ("x", "y,z") both paired to "(x,y,z)"
        left = DiscreteMeasure(("x,y", "x"), np.ones(2))
        right = DiscreteMeasure(("z", "y,z"), np.ones(2))
        assert product_measure(left, right).ids == (
            "(x\\,y,z)", "(x\\,y,y\\,z)", "(x,z)", "(x,y\\,z)")
        # a backslash and the brackets are escaped too, so a product of
        # products stays unique
        odd = DiscreteMeasure(("\\", "(a", "a)", "(a,b)"), np.ones(4))
        assert product_measure(odd, odd).ids[1:3] == ("(\\\\,\\(a)", "(\\\\,a\\))")
        nested = product_measure(product_measure(odd, odd), odd)
        assert len(set(nested.ids)) == len(nested) == 64

    def test_a_product_is_valid_by_construction(self):
        # it skips the checks, so the checked constructor must accept what it
        # builds, and its weights are as read-only as a checked measure's
        left = DiscreteMeasure(("a,", "b"), np.array([0.5, 2.0 ** -1000]))
        right = from_partition([1.0, 3.0, 2.0 ** 1000])
        prod = product_measure(left, right)
        checked = DiscreteMeasure(prod.ids, prod.weights)
        assert checked.ids == prod.ids and np.array_equal(checked.weights, prod.weights)
        with pytest.raises(ValueError):
            prod.weights[0] = 1.0

    def test_total_mass_multiplies(self):
        left = from_partition([0.5, 1.5])
        right = from_partition([2.0, 2.0, 1.0])
        assert product_measure(left, right).total_mass == pytest.approx(
            left.total_mass * right.total_mass
        )
