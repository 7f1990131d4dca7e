import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equicontrol import (
    CosPenalty,
    CoshPenalty,
    DiscreteDistribution,
    DomainError,
    ExpPenalty,
    MomentVector,
    QuadratureError,
    alpha,
    double_factorial,
    gaussian_penalty_expectation,
    raw_to_central,
)
from equicontrol.objectives import AmbiguousCos

from cases import fourier_gaussian_amplitude
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


class TestDiscreteDistribution:
    def test_validation(self):
        from equicontrol import ObjectiveError

        with pytest.raises(ObjectiveError):
            DiscreteDistribution((1.0, 2.0), (0.7, 0.7))
        with pytest.raises(ObjectiveError):
            DiscreteDistribution((1.0, 2.0), (-0.2, 1.2))
        with pytest.raises(ObjectiveError):
            DiscreteDistribution((1.0, 2.0), (1.0,))

    def test_moment(self):
        d = DiscreteDistribution((1.0, 3.0), (0.25, 0.75))
        assert d.moment(1) == pytest.approx(2.5)
        assert d.moment(2) == pytest.approx(0.25 + 0.75 * 9)

    def test_mean_exp_sq(self):
        d = DiscreteDistribution((1.5, 2.5), (0.4, 0.6))
        z = 0.8
        expect = 0.4 * math.exp(-1.5**2 * z / 2) + 0.6 * math.exp(-2.5**2 * z / 2)
        assert d.mean_exp_sq(z) == pytest.approx(expect, rel=1e-14)
        expect2 = 0.4 * 1.5**2 * math.exp(-1.5**2 * z / 2) + 0.6 * 2.5**2 * math.exp(
            -2.5**2 * z / 2
        )
        assert d.mean_exp_sq(z, weight_power=2) == pytest.approx(expect2, rel=1e-14)


class TestGaussianPenaltyExpectation:
    """Frozen 64-point Gauss-Hermite oracles for each penalty shape."""

    def test_exp(self):
        got = gaussian_penalty_expectation(ExpPenalty(1.3), 0.7)
        assert got == pytest.approx(0.6205357142484962, rel=1e-12)

    def test_cosh(self):
        got = gaussian_penalty_expectation(CoshPenalty(0.9), 1.1)
        assert got == pytest.approx(0.6236340400270797, rel=1e-12)

    def test_cos(self):
        got = gaussian_penalty_expectation(CosPenalty(0.8), 0.6)
        assert got == pytest.approx(0.21836641438539692, rel=1e-12)

    def test_ambiguous(self):
        variant = AmbiguousCos(DiscreteDistribution((1.5, 2.5), (0.4, 0.6)))
        got = gaussian_penalty_expectation(variant, 0.8)
        assert got == pytest.approx(0.788121136929421, rel=1e-12)

    def test_fourier_gaussian_amplitude(self):
        variant = fourier_gaussian_amplitude()
        got = gaussian_penalty_expectation(variant, 0.5)
        assert got == pytest.approx(0.18350341907227394, rel=1e-9)

    def test_zero_variance(self):
        assert gaussian_penalty_expectation(ExpPenalty(1.0), 0.0) == pytest.approx(0.0)

    def test_negative_variance(self):
        for variance in (-1e-3, np.array([0.5, -1e-3])):
            with pytest.raises(DomainError):
                gaussian_penalty_expectation(CosPenalty(1.0), variance)

    @given(c=st.floats(0.2, 2.0), v=st.floats(0.01, 3.0))
    @settings(max_examples=40, deadline=None)
    def test_exp_matches_quadrature(self, c, v):
        oracle = gauss_hermite_expectation(lambda x: np.expm1(-c * x) / c, 0.0, v)
        got = gaussian_penalty_expectation(ExpPenalty(c), v)
        assert got == pytest.approx(oracle, rel=1e-9, abs=1e-12)

    def test_fourier_requires_edge_decay(self):
        from equicontrol import FourierEvenPenalty

        freqs = tuple(np.linspace(-2.0, 2.0, 21))
        density = tuple(np.ones(21))  # no decay at the window edge
        with pytest.raises(QuadratureError):
            gaussian_penalty_expectation(FourierEvenPenalty(freqs, density), 0.5)
