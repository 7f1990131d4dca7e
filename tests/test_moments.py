import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equicontrol import DomainError, MomentVector, alpha, double_factorial, raw_to_central

from oracles import central_to_raw, gauss_hermite_expectation


class TestDoubleFactorial:
    def test_small_values(self):
        assert double_factorial(-1) == 1
        assert double_factorial(0) == 1
        assert double_factorial(1) == 1
        assert double_factorial(5) == 15
        assert double_factorial(6) == 48
        assert double_factorial(7) == 105

    def test_exact_integer_range(self):
        assert double_factorial(33) == 6332659870762850625
        assert isinstance(double_factorial(33), int)
        # beyond the exact range the float value still matches
        assert double_factorial(35) == pytest.approx(35.0 * double_factorial(33), rel=1e-15)

    def test_negative(self):
        with pytest.raises(DomainError):
            double_factorial(-2)


class TestAlpha:
    def test_known_values(self):
        assert alpha(0, 0.7) == 1.0
        assert alpha(1, 0.7) == 0.0
        assert alpha(2, 0.7) == pytest.approx(0.7)
        assert alpha(4, 0.7) == pytest.approx(3 * 0.7**2)
        assert alpha(6, 0.7) == pytest.approx(15 * 0.7**3)
        assert alpha(3, 0.7) == 0.0

    @given(j=st.integers(0, 10), y=st.floats(0.0, 4.0))
    @settings(max_examples=60, deadline=None)
    def test_matches_quadrature(self, j, y):
        oracle = gauss_hermite_expectation(lambda x: x**j, 0.0, y) if y > 0 else (0.0 if j else 1.0)
        if j == 0:
            oracle = 1.0
        assert alpha(j, y) == pytest.approx(oracle, rel=1e-9, abs=1e-9)

    def test_guards(self):
        with pytest.raises(DomainError):
            alpha(-1, 1.0)
        with pytest.raises(DomainError):
            alpha(2, -0.5)


class TestMomentVector:
    def test_validation(self):
        with pytest.raises(DomainError):
            MomentVector(order=4, mean=0.0, central=(1.0,))  # wrong length
        with pytest.raises(DomainError):
            MomentVector(order=2, mean=0.0, central=(-0.1,))  # negative variance
        with pytest.raises(DomainError):
            MomentVector(order=0, mean=0.0, central=())
        with pytest.raises(DomainError):
            MomentVector(order=2, mean=0.0, central=(1.0,), gaussian_y=-1e-3)
        for j in (-1, 5):
            with pytest.raises(DomainError):
                MomentVector.gaussian(4, 1.0).central_moment(j)

    def test_gaussian_constructor(self):
        mv = MomentVector.gaussian(6, 0.5, mean=1.0)
        assert mv.mean == 1.0
        assert mv.central_moment(2) == pytest.approx(0.5)
        assert mv.central_moment(3) == 0.0
        assert mv.central_moment(4) == pytest.approx(0.75)
        assert mv.gaussian_y == 0.5
        assert MomentVector(mv.order, mv.mean, mv.central).gaussian_y is None

    @pytest.mark.parametrize("y", [0.5, np.array([0.0, 1e-300, 0.7, 3.0, 1e50])])
    def test_gaussian_moments_are_alphas(self, y):
        mv = MomentVector.gaussian(8, y)
        for j in range(2, 9):
            assert np.asarray(mv.central_moment(j)).tobytes() == np.asarray(alpha(j, y)).tobytes()

    @pytest.mark.parametrize("y", [-0.25, np.array([0.5, -1.0])])
    def test_gaussian_rejects_a_negative_variance_as_alpha_does(self, y):
        with pytest.raises(DomainError) as expect:
            alpha(2, y)
        with pytest.raises(DomainError) as got:
            MomentVector.gaussian(4, y)
        assert str(got.value) == str(expect.value)

    def test_low_order_moments(self):
        mv = MomentVector(order=3, mean=2.0, central=(1.0, 0.3))
        assert mv.central_moment(0) == 1.0
        assert mv.central_moment(1) == 0.0


class TestRawCentralConversion:
    def test_known_gaussian(self):
        mv = MomentVector.gaussian(4, 1.0, mean=2.0)
        raw = central_to_raw(mv)
        # E[X] = 2, E[X^2] = 5, E[X^3] = 14, E[X^4] = 43 for X ~ N(2, 1)
        assert raw == pytest.approx((2.0, 5.0, 14.0, 43.0))

    @given(
        mean=st.floats(-3.0, 3.0),
        variance=st.floats(0.0, 4.0),
        z3=st.floats(-2.0, 2.0),
        z4=st.floats(0.0, 8.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_round_trip(self, mean, variance, z3, z4):
        mv = MomentVector(order=4, mean=mean, central=(variance, z3, z4))
        back = raw_to_central(central_to_raw(mv))
        assert back.mean == pytest.approx(mean, abs=1e-9)
        assert back.central_moment(2) == pytest.approx(variance, abs=1e-8)
        assert back.central_moment(3) == pytest.approx(z3, abs=1e-7)
        assert back.central_moment(4) == pytest.approx(z4, abs=1e-6)


    def test_needs_a_moment(self):
        with pytest.raises(DomainError):
            raw_to_central(())

    def test_rounding_guard(self):
        """A variance a rounding below zero is a degenerate law; a real deficit is not."""
        assert 1.0 - 2.0 * 1.0 + (1.0 - 1e-15) < 0.0  # the unguarded sum
        assert raw_to_central((1.0, 1.0 - 1e-15)).central_moment(2) == 0.0
        with pytest.raises(DomainError):
            raw_to_central((1.0, 0.9))
