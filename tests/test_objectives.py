import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equicontrol import (
    AmbiguousCos,
    CosDomainError,
    CosPenalty,
    CoshPenalty,
    DiscreteDistribution,
    DomainError,
    ExpPenalty,
    FourierEvenPenalty,
    MomentCombo,
    MomentVector,
    ObjectiveError,
    ObjectiveSpec,
    QuadratureError,
    RootBracketError,
    StandardizedMoments,
    alpha,
    curvature_sum,
    gaussian_penalty_expectation,
    psi,
    solve,
)

from equicontrol.objectives import VARIANTS, Variant

from cases import base_coeffs, fourier_gaussian_amplitude
from oracles import gauss_hermite_expectation, psi_grad_even
from test_defects import _patch_curvature


def _fourier_with(field, bad):
    """A fourier_even penalty with its middle frequency, its middle density
    sample or its atom set to ``bad``."""
    freqs = np.linspace(-12.0, 12.0, 241)
    density = -np.exp(-0.5 * freqs**2)
    if field != "atom":
        {"freqs": freqs, "density": density}[field][120] = bad
    return FourierEvenPenalty(tuple(freqs), tuple(density), bad if field == "atom" else 1.0)


NON_FINITE_BUILDS = {
    "moment_combo_kurtosis": lambda x: MomentCombo((1.0, x)),
    "moment_combo_variance": lambda x: MomentCombo((x,)),
    "standardized_variance": lambda x: StandardizedMoments((x,)),
    "standardized_skewness": lambda x: StandardizedMoments((1.0, x)),
    "exp": ExpPenalty,
    "cosh": CoshPenalty,
    "cos": CosPenalty,
    "amplitude_value": lambda x: DiscreteDistribution((1.5, x), (0.5, 0.5)),
    "amplitude_prob": lambda x: DiscreteDistribution((1.5, 2.5), (x, 0.5)),
    "fourier_freqs": lambda x: _fourier_with("freqs", x),
    "fourier_density": lambda x: _fourier_with("density", x),
    "fourier_atom": lambda x: _fourier_with("atom", x),
}


class TestVariantValidation:
    def test_moment_combo_needs_positive_even_weight(self):
        with pytest.raises(ObjectiveError):
            MomentCombo(())
        with pytest.raises(ObjectiveError):
            MomentCombo((0.0, 1.0))  # only an odd weight
        with pytest.raises(ObjectiveError):
            MomentCombo((-1.0,))

    def test_moment_combo_trims_trailing_zeros(self):
        v = MomentCombo((2.0, 0.0, 1.0, 0.0, 0.0))
        assert v.order == 4
        assert v.weight(4) == 1.0
        assert v.weight(6) == 0.0

    def test_odd_weights_any_sign(self):
        v = MomentCombo((2.0, -3.0, 1.0, 4.0))
        assert v.weight(3) == -3.0
        assert v.weight(5) == 4.0

    def test_standardized_needs_variance_weight(self):
        with pytest.raises(ObjectiveError):
            StandardizedMoments((0.0, 1.0))

    def test_fourier_samples(self):
        with pytest.raises(ObjectiveError, match="at least 3"):
            FourierEvenPenalty((0.0, 1.0), (1.0, 1.0))
        with pytest.raises(ObjectiveError, match="at least 3"):
            FourierEvenPenalty((0.0, 1.0, 2.0), (1.0, 1.0))
        with pytest.raises(ObjectiveError, match="strictly increasing"):
            FourierEvenPenalty((0.0, 1.0, 1.0), (1.0, 1.0, 1.0))

    def test_ambiguous_amplitude_needs_second_moment(self):
        with pytest.raises(ObjectiveError, match="second moment"):
            AmbiguousCos(DiscreteDistribution((0.0,), (1.0,)))

    def test_penalty_scale_positive(self):
        for cls in (ExpPenalty, CoshPenalty, CosPenalty):
            with pytest.raises(ObjectiveError):
                cls(0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("family", NON_FINITE_BUILDS)
    def test_non_finite_parameter(self, family, bad):
        """A parameter that is not finite is a construction error, as in the
        CLI: left in, MomentCombo((1, nan)) and StandardizedMoments((inf,))
        solved to NaN without an error."""
        with pytest.raises(ObjectiveError, match="must be"):
            NON_FINITE_BUILDS[family](bad)

    def test_spec_kappa(self):
        with pytest.raises(DomainError):
            ObjectiveSpec(-0.5, MomentCombo((2.0,)))
        with pytest.raises(ObjectiveError):
            ObjectiveSpec(1.0, "not a variant")

    def test_is_penalty(self):
        assert ObjectiveSpec(1.0, ExpPenalty(1.0)).is_penalty
        assert not ObjectiveSpec(1.0, MomentCombo((2.0,))).is_penalty


class TestPsi:
    def test_moment_combo_oracle(self):
        """Alternating-sign weighted sum over central moments, frozen by hand."""
        variant = MomentCombo((2.0, 1.0, 1.0, 0.0, 0.5))
        mv = MomentVector(order=6, mean=0.3, central=(1.1, 0.2, 3.4, 1.0, 16.0))
        got = psi(ObjectiveSpec(1.0, variant), mv)
        assert got == pytest.approx(-1.2194444444444443, rel=1e-14)

    def test_standardized_oracle(self):
        variant = StandardizedMoments((2.0, 1.0, 0.5))
        mv = MomentVector(order=4, mean=0.0, central=(1.1, 0.2, 3.4))
        got = psi(ObjectiveSpec(1.0, variant), mv)
        assert got == pytest.approx(-1.1296471391688665, rel=1e-13)

    def test_standardized_zero_variance(self):
        variant = StandardizedMoments((2.0, 1.0))
        degenerate = MomentVector(order=3, mean=0.0, central=(0.0, 0.0))
        assert psi(ObjectiveSpec(1.0, variant), degenerate) == 0.0
        bad = MomentVector(order=3, mean=0.0, central=(0.0, 0.5))
        with pytest.raises(DomainError):
            psi(ObjectiveSpec(1.0, variant), bad)

    def test_order_guard(self):
        variant = MomentCombo((2.0, 0.0, 1.0))  # needs moments up to order 4
        mv = MomentVector(order=3, mean=0.0, central=(1.0, 0.0))
        with pytest.raises(DomainError):
            psi(ObjectiveSpec(1.0, variant), mv)

    def test_gaussian_penalty_normalized_at_zero(self):
        spec = ObjectiveSpec(1.0, fourier_gaussian_amplitude())
        assert psi(spec, MomentVector.gaussian(2, 0.0)) == pytest.approx(0.0, abs=1e-12)

    def test_exp_penalty_gaussian_closed_form(self):
        spec = ObjectiveSpec(1.0, ExpPenalty(1.0))
        y = 0.9
        got = psi(spec, MomentVector.gaussian(2, y))
        assert got == pytest.approx(-(math.exp(y / 2) - 1.0), rel=1e-13)

    @given(y=st.floats(0.01, 2.0), c=st.floats(0.3, 1.5))
    @settings(max_examples=40, deadline=None)
    def test_exp_series_telescopes_to_closed_form(self, y, c):
        """The truncated even-moment series of the exp shape converges to the
        closed form: sum_j c^(2j-1)/(2j)! alpha_2j(y) = (e^(c^2 y/2) - 1)/c."""
        total = 0.0
        for j in range(1, 41):
            total += c ** (2 * j - 1) / math.factorial(2 * j) * alpha(2 * j, y)
        closed = (math.exp(c * c * y / 2.0) - 1.0) / c
        assert total == pytest.approx(closed, rel=1e-8)


class TestPsiGradient:
    @given(y=st.floats(0.01, 3.0))
    @settings(max_examples=30, deadline=None)
    def test_exp_gradient_matches_finite_difference(self, y):
        spec = ObjectiveSpec(1.0, ExpPenalty(0.8))
        grad = psi_grad_even(spec, y)
        # compare d psi / d z_2 against a finite difference of psi itself
        step = 1e-6 * max(1.0, y)
        up = MomentVector(2, 0.0, (y + step,))
        dn = MomentVector(2, 0.0, (y - step,))
        fd = (psi(spec, up) - psi(spec, dn)) / (2.0 * step)
        assert grad.values[0] == pytest.approx(fd, rel=5e-5, abs=1e-10)

    def test_moment_combo_gradient_is_constant(self):
        spec = ObjectiveSpec(1.0, MomentCombo((2.0, 0.0, 1.0)))
        grad = psi_grad_even(spec, 0.7)
        assert grad.values[0] == pytest.approx(-1.0)  # -kappa_2 / 2!
        assert grad.values[1] == pytest.approx(-1.0 / 24.0)  # -kappa_4 / 4!


class TestCurvatureSum:
    def test_negative_variance(self):
        spec = ObjectiveSpec(1.0, ExpPenalty(1.0))
        for y in (-1e-3, np.array([0.5, -1e-3])):
            with pytest.raises(DomainError, match="nonnegative"):
                curvature_sum(spec, y)

    def test_exp_closed_form(self):
        spec = ObjectiveSpec(1.0, ExpPenalty(1.0))
        y = 0.7
        assert curvature_sum(spec, y) == pytest.approx(
            -0.5 * math.exp(y / 2.0), rel=1e-12
        )

    def test_cos_closed_form(self):
        spec = ObjectiveSpec(1.0, CosPenalty(0.8))
        y = 0.5
        assert curvature_sum(spec, y) == pytest.approx(
            -0.4 * math.exp(-(0.8**2) * y / 2.0), rel=1e-12
        )

    def test_moment_combo_identity(self):
        spec = ObjectiveSpec(1.0, MomentCombo((2.0, 0.0, 1.5, 0.0, 0.9)))
        y = 1.3
        expect = -0.5 * (2.0 + 1.5 * y / 2.0 + 0.9 * y * y / 8.0)
        assert curvature_sum(spec, y) == pytest.approx(expect, rel=1e-13)

    def test_vectorized_matches_scalar(self):
        ys = np.linspace(0.0, 2.0, 7)
        for spec in (
            ObjectiveSpec(1.0, ExpPenalty(1.0)),
            ObjectiveSpec(1.0, CoshPenalty(0.7)),
            ObjectiveSpec(1.0, MomentCombo((1.0, 0.0, 1.0))),
            ObjectiveSpec(1.0, AmbiguousCos(DiscreteDistribution((1.5, 2.5), (0.5, 0.5)))),
            ObjectiveSpec(1.0, fourier_gaussian_amplitude()),
        ):
            vec = curvature_sum(spec, ys)
            scalars = np.array([curvature_sum(spec, float(y)) for y in ys])
            np.testing.assert_allclose(vec, scalars, rtol=1e-13)

    def test_ambiguous_matches_series(self):
        """Curvature from the integral form agrees with the slot-sum definition."""
        dist = DiscreteDistribution((1.5, 2.5), (0.5, 0.5))
        spec = ObjectiveSpec(1.0, AmbiguousCos(dist))
        y = 0.6
        # K(y) = -1/2 E[H^2 e^{-H^2 y/2}]
        expect = -0.5 * (
            0.5 * 1.5**2 * math.exp(-(1.5**2) * y / 2) + 0.5 * 2.5**2 * math.exp(-(2.5**2) * y / 2)
        )
        assert curvature_sum(spec, y) == pytest.approx(expect, rel=1e-13)

    def test_fourier_gaussian_amplitude_closed_form(self):
        spec = ObjectiveSpec(1.0, fourier_gaussian_amplitude())
        y = 0.4
        # amplitude ~ N(0,1): K(y) = -1/2 E[H^2 e^{-H^2 y/2}] = -(1+y)^{-3/2}/2
        assert curvature_sum(spec, y) == pytest.approx(
            -0.5 * (1.0 + y) ** -1.5, rel=1e-7
        )

    def test_standardized_cancellation(self):
        """For standardized weights the skew term cancels: K = -kappa_2 / 2."""
        spec = ObjectiveSpec(1.0, StandardizedMoments((2.0, 1.0)))
        for y in (0.2, 0.9, 1.7):
            assert curvature_sum(spec, y) == pytest.approx(-1.0, rel=1e-6)

    def test_odd_weights_do_not_move_curvature(self):
        base = curvature_sum(ObjectiveSpec(1.0, MomentCombo((2.0, 0.0, 1.0))), 0.8)
        for odd3, odd5 in ((1.0, 2.0), (-3.0, 4.0)):
            v = MomentCombo((2.0, odd3, 1.0, odd5))
            got = curvature_sum(ObjectiveSpec(1.0, v), 0.8)
            assert got == base  # bitwise: odd slots never enter


class TestGaussianPsi:
    VARIANTS = (
        MomentCombo((2.0, 0.7, 1.0, -0.4)),
        StandardizedMoments((2.0, 1.0)),
        StandardizedMoments((2.0, 0.5, 1.0, 0.0, 0.3)),
        ExpPenalty(1.2),
        CoshPenalty(0.7),
        CosPenalty(0.8),
        AmbiguousCos(DiscreteDistribution((1.5, 2.5), (0.5, 0.5))),
        fourier_gaussian_amplitude(),
    )

    def test_matches_scalar_psi(self):
        """psi on a Gaussian vector of arrays equals psi on each scalar vector."""
        # 0 and 1e-300 hit the standardized slots: zero variance and an
        # underflowed kurtosis slot both drop the higher terms
        ys = np.array([0.0, 1e-300, 1e-12, 0.05, 0.6, 1.7])
        for variant in self.VARIANTS:
            spec = ObjectiveSpec(1.0, variant)
            order = max(getattr(variant, "order", 2), 2)
            expect = [psi(spec, MomentVector.gaussian(order, float(y))) for y in ys]
            got = psi(spec, MomentVector.gaussian(order, ys))
            assert isinstance(got, np.ndarray) and got.shape == ys.shape, variant.kind
            np.testing.assert_allclose(got, expect, rtol=1e-14, atol=0.0, err_msg=variant.kind)

    def test_standardized_jumps_at_zero_variance(self):
        spec = ObjectiveSpec(1.0, StandardizedMoments((2.0, 0.0, 1.0)))
        got = psi(spec, MomentVector.gaussian(4, np.array([0.0, 1e-300, 1e-100])))
        # kurtosis term: -(1/4!) * 3 y^2 / y^2 once y^2 is representable
        assert got[0] == 0.0
        assert got[1] == -1e-300
        assert got[2] == pytest.approx(-0.125, rel=1e-15)

    def test_scalar_in_scalar_out(self):
        """psi is a Python float for every scalar law, Gaussian-tagged or not."""
        plain = MomentVector(6, 0.0, (0.3, 0.1, 0.4, 0.05, 0.9))
        for variant in self.VARIANTS:
            spec = ObjectiveSpec(1.0, variant)
            for mv in (MomentVector.gaussian(spec.gaussian_order, 0.3), plain):
                assert type(psi(spec, mv)) is float, (variant.kind, mv.gaussian_y)


STANDARDIZED_WEIGHTS = ((2.0, 1.0), (2.0, 0.0, 1.0), (2.0, 0.5, 1.0, 0.0, 0.3))


def _fd_curvature(spec, order, m, y):
    """K and the even-slot gradient from central differences of psi.

    psi is evaluated on untagged moment vectors around the Gaussian point of
    variance y, so neither the analytic gradient nor curvature_sum is used.
    """
    base = [alpha(j, y) for j in range(2, order + 1)]
    grad = []
    for j in range(1, m + 1):
        slot = 2 * j - 2  # index of z_2j in the central tuple
        step = 1e-6 * max(1.0, abs(base[slot]))
        up, dn = list(base), list(base)
        up[slot] += step
        dn[slot] -= step
        fd = (
            psi(spec, MomentVector(order, 0.0, tuple(up)))
            - psi(spec, MomentVector(order, 0.0, tuple(dn)))
        ) / (2.0 * step)
        grad.append(fd)
    k = sum(j * (2 * j - 1) * alpha(2 * j - 2, y) * g for j, g in enumerate(grad, start=1))
    return k, grad


class TestAnalyticCurvature:
    @pytest.mark.parametrize("weights", STANDARDIZED_WEIGHTS)
    def test_standardized_is_exactly_variance_term(self, weights):
        """Scale-free standardized terms cancel in K at every y >= 0."""
        spec = ObjectiveSpec(1.0, StandardizedMoments(weights))
        ys = (0.0, 1e-300, 1e-8, 0.3, 1.7)
        for y in ys:
            assert curvature_sum(spec, y) == -0.5 * weights[0]
        assert np.all(curvature_sum(spec, np.array(ys)) == -0.5 * weights[0])

    @pytest.mark.parametrize("weights", STANDARDIZED_WEIGHTS)
    def test_standardized_matches_difference_oracle(self, weights):
        variant = StandardizedMoments(weights)
        spec = ObjectiveSpec(1.0, variant)
        m = max(variant.order // 2, 1)
        for y in (0.3, 1.7):
            k_fd, grad_fd = _fd_curvature(spec, variant.order, m, y)
            assert curvature_sum(spec, y) == pytest.approx(k_fd, rel=1e-6)
            grad = psi_grad_even(spec, y).values
            np.testing.assert_allclose(grad, grad_fd, rtol=1e-6, atol=0.0)

    def test_fourier_matches_difference_oracle(self):
        spec = ObjectiveSpec(1.0, fourier_gaussian_amplitude())
        m = 20  # the default series length of psi_grad_even
        for y in (0.05, 0.3):
            k_fd, grad_fd = _fd_curvature(spec, 2 * m, m, y)
            assert curvature_sum(spec, y) == pytest.approx(k_fd, rel=1e-6)
            grad = psi_grad_even(spec, y).values
            assert len(grad) == m
            k_grad = sum(
                j * (2 * j - 1) * alpha(2 * j - 2, y) * g for j, g in enumerate(grad, start=1)
            )
            assert k_grad == pytest.approx(k_fd, rel=1e-6)
            np.testing.assert_allclose(grad[:4], grad_fd[:4], rtol=1e-6, atol=0.0)

    def test_standardized_gradient_needs_variance(self):
        with pytest.raises(DomainError):
            psi_grad_even(ObjectiveSpec(1.0, StandardizedMoments((2.0, 0.0, 1.0))), 0.0)
        with pytest.raises(DomainError):
            psi_grad_even(ObjectiveSpec(1.0, StandardizedMoments((2.0, 0.0, 1.0))), 1e-300)
        # no higher even weight: the skewness slot is odd and never read
        grad = psi_grad_even(ObjectiveSpec(1.0, StandardizedMoments((2.0, 1.0))), 0.0)
        assert grad.values == (-1.0,)

    def test_fourier_uses_cached_tables_bitwise(self):
        """The cached f^2 and g f^2 tables reproduce the direct formula bitwise."""
        variant = fourier_gaussian_amplitude()
        spec = ObjectiveSpec(1.0, variant)
        ys = np.array([0.0, 0.05, 0.4, 1.3])
        f = np.asarray(variant.freqs)
        g = np.asarray(variant.density)
        weights = g * f * f * np.exp(-0.5 * np.multiply.outer(ys, f * f))
        expect = 0.5 * np.trapezoid(weights, f, axis=-1)
        assert curvature_sum(spec, ys).tobytes() == expect.tobytes()
        assert curvature_sum(spec, 0.4) == expect[2]
        assert variant._g_f_sq is variant._g_f_sq

    def test_unknown_variant_rejected(self):
        """Only a ``Variant`` makes a spec: an object with a ``kind`` fails at
        construction, before any solver or psi reads it."""

        class Bogus:
            kind = "bogus"

        for variant in (Bogus(), SimpleNamespace(kind="fake"), None):
            with pytest.raises(ObjectiveError, match="not an objective variant"):
                ObjectiveSpec(1.0, variant)


FIRST_INTEGRAL_VARIANTS = (
    MomentCombo((2.0,)),
    MomentCombo((1.0, 0.0, 1.0)),
    MomentCombo((0.0, 0.0, 1.5)),
    MomentCombo((1.0, 0.3, 0.5, -2.0, 0.25)),
    ExpPenalty(0.8),
    CoshPenalty(1.3),
    CosPenalty(0.9),
    AmbiguousCos(DiscreteDistribution((0.0, 1.5, 2.5), (0.2, 0.4, 0.4))),
    StandardizedMoments((2.0, 1.0)),
    StandardizedMoments((2.0, 0.0, 1.0)),
)


class TestVariantProtocol:
    def test_registry_covers_every_family(self):
        families = {type(v) for v in TestGaussianPsi.VARIANTS}
        assert set(VARIANTS.values()) == families
        for kind, cls in VARIANTS.items():
            assert cls.kind == kind and issubclass(cls, Variant)

    def test_penalties_have_no_order(self):
        """A Gaussian vector's order is the family's order, and 2 for the
        penalties, which have no order: ``ObjectiveSpec.gaussian_order``."""
        for variant in TestGaussianPsi.VARIANTS:
            spec = ObjectiveSpec(1.0, variant)
            assert spec.is_penalty == (not hasattr(variant, "order")), variant.kind
            assert spec.gaussian_order == (2 if spec.is_penalty else variant.order), variant.kind

    @pytest.mark.parametrize("variant", FIRST_INTEGRAL_VARIANTS, ids=lambda v: v.kind)
    def test_first_integral_derivative_is_four_k_squared(self, variant):
        integral = variant.first_integral
        ys = np.array([0.0, 0.05, 0.4, 1.3, 3.0])
        k = curvature_sum(ObjectiveSpec(1.0, variant), ys)
        assert float(integral.p(np.array([0.0]))[0]) == 0.0
        # P' = 4 K^2: compare against a central difference of P
        h = 1e-6
        mid = ys[1:]
        fd = (integral.p(mid + h) - integral.p(mid - h)) / (2.0 * h)
        np.testing.assert_allclose(fd, 4.0 * k[1:] ** 2, rtol=1e-7)

    @pytest.mark.parametrize("variant", FIRST_INTEGRAL_VARIANTS, ids=lambda v: v.kind)
    def test_explicit_inverse_inverts_p(self, variant):
        integral = variant.first_integral
        if integral.inverse is None:
            return
        targets = np.array([0.0, 1e-300, 1e-12, 1e-3, 0.2, 0.7]) * min(integral.supremum, 4.0)
        np.testing.assert_allclose(integral.p(integral.inverse(targets)), targets, rtol=1e-13)

    @pytest.mark.parametrize("support", [(1.5, 2.5), (0.0, 0.7, 1.5, 2.5, 4.0)])
    @pytest.mark.parametrize("size", [1, 7, 64, 513, 4097])
    def test_ambiguous_first_integral_is_elementwise(self, support, size):
        """An entry of P has the same bits alone as inside any array."""
        probs = np.full(len(support), 1.0 / len(support))
        integral = AmbiguousCos(DiscreteDistribution(support, tuple(probs))).first_integral
        y = np.linspace(0.0, 3.0, size)
        whole = integral.p(y)
        alone = np.array([integral.p(y[k : k + 1])[0] for k in range(size)])
        assert whole.tobytes() == alone.tobytes()

    def test_first_integral_routing(self):
        order6 = MomentCombo((1.0, 0.3, 0.5, -2.0, 0.25)).first_integral
        assert order6.inverse is None
        assert fourier_gaussian_amplitude().first_integral is None

    # the roster covers every family (test_registry_covers_every_family); these
    # repeat the vectorized float operations exactly, while the exp-shaped
    # families call math.exp, within an ulp of np.exp
    SCALAR_BITWISE = {"moment_combo", "standardized", "ambiguous_cos", "fourier_even"}

    @pytest.mark.parametrize(
        "variant",
        TestGaussianPsi.VARIANTS + (MomentCombo((1.0, 0.3, 0.5, 0.0, 0.25, 0.0, 0.7)),),
        ids=lambda v: v.kind,
    )
    def test_curvature_scalar_matches_curvature(self, variant):
        for y in (0.0, 1e-300, 1e-8, 0.3, 1.7, 25.0):
            got = variant.curvature_scalar(y)
            expect = float(variant.curvature(np.asarray(y)))
            assert type(got) is float
            if variant.kind in self.SCALAR_BITWISE:
                assert got == expect, (variant.kind, y)
            else:
                assert abs(got - expect) <= math.ulp(expect), (variant.kind, y)

    def test_gaussian_expectation_needs_a_penalty(self):
        with pytest.raises(ObjectiveError):
            gaussian_penalty_expectation(MomentCombo((2.0,)), 0.5)


def _old_require_decay(weights, what):
    mags = np.abs(weights)
    edge = np.maximum(mags[..., 0], mags[..., -1])
    if np.any(edge > 1e-6 * mags.max(axis=-1)):
        raise QuadratureError(f"{what} has not decayed at the window edge")


def _old_curvature(variant, y):
    """FourierEvenPenalty.curvature as one np.trapezoid over the whole table."""
    weights = variant._g_f_sq * np.exp(-0.5 * np.multiply.outer(y, variant._f_sq))
    _old_require_decay(weights, "curvature integrand")
    return 0.5 * np.trapezoid(weights, variant._f, axis=-1)


def _old_expectation(variant, var):
    """FourierEvenPenalty.gaussian_expectation with np.trapezoid in blocks of 256 rows."""
    rate = -0.5 * variant._f * variant._f
    flat = var.reshape(-1)
    out = np.empty(flat.shape)
    for lo in range(0, flat.size, 256):
        weights = variant._g * np.exp(np.multiply.outer(flat[lo : lo + 256], rate))
        _old_require_decay(weights, "frequency-domain integrand")
        out[lo : lo + 256] = variant.atom + np.trapezoid(weights, variant._f, axis=-1)
    return out.reshape(var.shape)


def _curvature_rows(variant, y):
    """The curvature integrand exp(-y f^2 / 2) g f^2, one row per entry of y."""
    return variant._g_f_sq * np.exp(-0.5 * np.multiply.outer(y, variant._f_sq))


class TestFourierKernel:
    """The row trapezoid kernel of FourierEvenPenalty against np.trapezoid."""

    SHAPES = ((), (1,), (31,), (32,), (33,), (513,), (7, 77))

    @staticmethod
    def variances(shape):
        rng = np.random.default_rng(sum(shape) + 1)
        return rng.uniform(0.0, 3.0, size=shape) * rng.choice([1e-300, 1e-8, 1.0, 10.0], size=shape)

    @pytest.mark.parametrize("shape", SHAPES, ids=str)
    def test_bitwise_equal_to_trapezoid(self, shape):
        variant = fourier_gaussian_amplitude()
        y = self.variances(shape)
        for got, expect in (
            (variant.curvature(y), _old_curvature(variant, y)),
            (variant.gaussian_expectation(y), _old_expectation(variant, y)),
        ):
            assert type(got) is type(expect)
            assert np.shape(got) == np.shape(expect) == shape
            assert np.asarray(got).tobytes() == np.asarray(expect).tobytes()
        for value in y.reshape(-1)[:40].tolist():
            assert variant.curvature_scalar(value) == float(_old_curvature(variant, np.asarray(value)))

    def test_frequency_moments_bitwise(self):
        variant = fourier_gaussian_amplitude()
        for k in (0, 2, 4, 10):
            weights = variant._g * variant._f**k
            assert variant.frequency_moment(k) == float(np.trapezoid(weights, variant._f))

    def test_undecayed_row_in_last_partial_block(self):
        """A constant density decays only through the Gaussian factor, so the
        row at variance 0 is not negligible at the window edge."""
        freqs = np.linspace(-12.0, 12.0, 241)
        variant = FourierEvenPenalty(tuple(freqs), tuple(np.ones(freqs.size)), atom=1.0)
        y = np.ones((7, 77))
        variant.curvature(y)
        variant.gaussian_expectation(y)
        y[-1, -1] = 0.0  # the last row
        for evaluate in (variant.curvature, variant.gaussian_expectation):
            with pytest.raises(QuadratureError):
                evaluate(y)
        with pytest.raises(QuadratureError):
            variant.curvature_scalar(0.0)
        with pytest.raises(QuadratureError):
            variant.frequency_moment(2)
        with pytest.raises(QuadratureError):
            curvature_sum(ObjectiveSpec(1.0, variant), y)
        assert math.isfinite(variant.curvature_scalar(1.0))

    @staticmethod
    def assert_scalar_matches_old(variant, values):
        """curvature_scalar has the old formula's bits at every value, or both raise."""
        for value in values:
            try:
                expect = float(_old_curvature(variant, np.asarray(value)))
            except QuadratureError:
                with pytest.raises(QuadratureError, match="curvature integrand"):
                    variant.curvature_scalar(value)
                continue
            got = variant.curvature_scalar(value)
            assert type(got) is float
            assert np.float64(got).tobytes() == np.float64(expect).tobytes(), value

    def test_curvature_scalar_bitwise_over_a_y_sweep(self):
        """0, subnormal y, 1e-300, and y whose rows hold subnormal and zero weights."""
        variant = fourier_gaussian_amplitude()
        values = [0.0, 5e-324, 1e-310, 1e-300, *np.logspace(-12.0, 5.0, 681).tolist()]
        values += np.linspace(0.0, 50.0, 2001).tolist()
        table = _curvature_rows(variant, np.asarray(values))
        tiny = np.finfo(float).tiny
        assert np.any((table != 0.0) & (np.abs(table) < tiny))
        assert np.any((table == 0.0) & (variant._f != 0.0))
        self.assert_scalar_matches_old(variant, values)

    @staticmethod
    def two_bumps(broad_width):
        """Window [-3, 12]: a narrow bump at f = 8 holds the largest |g f^2| at
        y = 0, but its weight decays faster in y than the edge at f = -3, so
        at y > 0 the row's largest weight sits in a broad bump at f = 0."""
        freqs = np.linspace(-3.0, 12.0, 1501)
        density = np.exp(-50.0 * (freqs - 8.0) ** 2) + np.exp(-0.5 * (freqs / broad_width) ** 2)
        return FourierEvenPenalty(tuple(freqs), tuple(density))

    @pytest.mark.parametrize("broad_width, decayed", [(0.4, True), (1.0, False)])
    def test_moved_peak_takes_the_full_edge_test(self, broad_width, decayed):
        """Rows whose edge fails the cheap bound at the y = 0 peak are decided
        by the row's full max, as before: with a broad bump of width 0.4 some
        of them pass and keep the old bits, with width 1.0 some raise."""
        variant = self.two_bumps(broad_width)
        values = np.linspace(0.0, 3.0, 61)
        rows = _curvature_rows(variant, values)
        edge = np.maximum(np.abs(rows[:, 0]), np.abs(rows[:, -1]))
        cheap_fails = edge > 1e-6 * np.abs(rows[:, variant._peak])
        full_fails = edge > 1e-6 * np.abs(rows).max(axis=-1)
        assert variant._peak == int(np.argmin(np.abs(variant._f - 8.0)))
        assert np.any(cheap_fails & (full_fails != decayed))
        self.assert_scalar_matches_old(variant, values.tolist())

    def test_peak_memory_below_one_table(self):
        import tracemalloc

        variant = fourier_gaussian_amplitude()
        y = np.linspace(0.0, 2.0, 4097)
        table_bytes = y.size * len(variant.freqs) * 8
        variant.curvature(y[:3])  # the cached frequency tables are not counted
        tracemalloc.start()
        try:
            variant.curvature(y)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < table_bytes


def _signed_density():
    """A frequency weight of both signs: the normal density, negated, plus a
    quarter of a narrower one."""
    freqs = np.linspace(-12.0, 12.0, 2401)
    normal = np.exp(-0.5 * freqs**2) / math.sqrt(2.0 * math.pi)
    narrow = np.exp(-0.5 * (freqs / 1.5) ** 2) / (1.5 * math.sqrt(2.0 * math.pi))
    return FourierEvenPenalty(tuple(freqs), tuple(0.25 * narrow - normal), atom=0.5)


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


class TestAmbiguousKernel:
    def test_sums_over_the_support(self):
        """K and E[S] against the amplitude sums written out, at a scalar and in an array."""
        variant = AmbiguousCos(DiscreteDistribution((1.5, 2.5), (0.4, 0.6)))
        z = 0.8
        mean_exp = 0.4 * math.exp(-(1.5**2) * z / 2) + 0.6 * math.exp(-(2.5**2) * z / 2)
        mean_sq_exp = 0.4 * 1.5**2 * math.exp(-(1.5**2) * z / 2) + 0.6 * 2.5**2 * math.exp(
            -(2.5**2) * z / 2
        )
        assert variant.gaussian_expectation(np.asarray(z)) == pytest.approx(1.0 - mean_exp, rel=1e-14)
        assert variant.curvature_scalar(z) == pytest.approx(-0.5 * mean_sq_exp, rel=1e-14)
        np.testing.assert_allclose(
            variant.curvature(np.array([0.0, z])),
            [-0.5 * (0.4 * 1.5**2 + 0.6 * 2.5**2), -0.5 * mean_sq_exp],
            rtol=1e-14,
        )


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


class TestFourierTable:
    """The Chebyshev tables of K and E[S] that a fourier_even solution reads,
    against the family's direct rows."""

    DENSITIES = {
        "gaussian": fourier_gaussian_amplitude,
        "window_6.2": lambda: fourier_gaussian_amplitude(half_width=6.2, samples=1241),
        "signed": _signed_density,
    }
    METHODS = (("curvature", "_curvature_rows"), ("gaussian_expectation", "_expectation_rows"))
    # the tables pass within 8 eps of their largest |value| at each level's
    # new points; elsewhere the direct rows' own rounding adds to that, most
    # where E[S] is a small difference of the atom and the integral
    BOUND = 32.0 * np.finfo(float).eps

    @pytest.mark.parametrize("y_max", [1e-8, 0.3, 0.6, 2.0, 10.0])
    @pytest.mark.parametrize("density", DENSITIES)
    def test_within_bound_of_direct_rows(self, density, y_max):
        """Every K table is built; E[S] falls back to direct rows where it is
        below its rows' rounding (y_max 1e-8 against a unit atom)."""
        variant = self.DENSITIES[density]()
        table = variant.on_range(y_max, 4097)
        y = np.concatenate([np.linspace(0.0, y_max, 1001), np.random.default_rng(5).uniform(0.0, y_max, 1000)])
        for method, rows in self.METHODS:
            got, expect = getattr(table, method)(y), getattr(variant, method)(y)
            built = table._tables[rows]
            if built is None:
                assert method == "gaussian_expectation" and y_max == 1e-8, density
                assert _same_bits(got, expect)
                continue
            assert built[0].size <= 257, (density, method)
            err = np.max(np.abs(got - expect))
            assert err <= self.BOUND * np.max(np.abs(expect)), (density, method, err)

    def test_elementwise_bits(self):
        """An entry has the same bits alone, in any leading slice of 1 to 4,097
        entries, and in a 2-d array."""
        variant = fourier_gaussian_amplitude()
        table = variant.on_range(0.5, 513)
        y = np.random.default_rng(9).uniform(0.0, 0.6, 4097)
        y[:4] = (0.0, 0.5, 0.25, table._y_max)
        for method, _ in self.METHODS:
            evaluate = getattr(table, method)
            full = evaluate(y)
            for size in (1, 2, 3, 31, 32, 33, 64, 65, 513, 4096, 4097):
                assert _same_bits(evaluate(y[:size]), full[:size]), (method, size)
            for i, value in enumerate(y[:300].tolist()):
                assert np.asarray(evaluate(np.asarray(value))).tobytes() == full[i].tobytes(), (method, i)
            assert _same_bits(evaluate(y[:539].reshape(7, 77)), full[:539].reshape(7, 77))

    def test_direct_rows_outside_and_at_the_ends(self):
        """At 0, at y_max and beyond y_max an entry is its direct row, and a
        query of those alone builds no table."""
        variant = fourier_gaussian_amplitude()
        table = variant.on_range(0.5, 513)
        y = np.array([0.0, 0.5, 0.5000001, 0.7, 3.0, 40.0])
        for method, rows in self.METHODS:
            assert _same_bits(getattr(table, method)(y), getattr(variant, method)(y))
            assert rows not in table._tables
            inside = getattr(table, method)(np.array([0.25, *y]))
            assert table._tables[rows] is not None
            assert _same_bits(inside[1:], getattr(variant, method)(y))

    def test_fallback_is_direct_rows(self):
        """Below 66 rows a table's first check (33 points) would cost more than
        half of them: the direct rows answer and no table row is spent."""
        variant = fourier_gaussian_amplitude()
        table = variant.on_range(0.5, 65)
        y = np.linspace(0.0, 0.5, 65)
        for method, rows in self.METHODS:
            assert _same_bits(getattr(table, method)(y), getattr(variant, method)(y))
            assert table._tables[rows] is None

    def test_undecayed_window_raises(self):
        """Each table value is a direct row with its window-edge check, the
        row at y = 0 included, so a table needing it raises as that row does."""
        freqs = np.linspace(-12.0, 12.0, 241)
        variant = FourierEvenPenalty(tuple(freqs), tuple(np.ones(freqs.size)), atom=1.0)
        assert math.isfinite(variant.curvature_scalar(0.5))
        table = variant.on_range(1.0, 513)
        for method, _ in self.METHODS:
            with pytest.raises(QuadratureError):
                getattr(table, method)(np.array([0.5]))

    def test_peak_memory_in_blocks(self):
        """A 100,000-entry query stays far below one (entries, points) array
        of the 33-point table (26 MB)."""
        import tracemalloc

        table = fourier_gaussian_amplitude().on_range(0.5, 513)
        y = np.random.default_rng(2).uniform(0.0, 0.5, 100_000)
        table.curvature(y[:3])  # the table itself is not counted
        tracemalloc.start()
        try:
            table.curvature(y)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert table._tables["_curvature_rows"][0].size == 33
        assert peak < 16 * y.nbytes < 33 * y.nbytes

    def test_scaled_curvature_enters_once(self, monkeypatch):
        """The defect matrix's K x 1.01, patched on every class that defines
        ``curvature``, scales a table's answer once: the table reads the
        unpatched rows."""
        variant = fourier_gaussian_amplitude()
        y = np.linspace(0.0, 0.6, 101)
        clean = variant.on_range(0.5, 513).curvature(y)
        _patch_curvature(monkeypatch)
        assert _same_bits(variant.on_range(0.5, 513).curvature(y), 1.01 * clean)


class TestFourierTableStopRule:
    def test_stop_rule_knows_the_rows_rounding(self, monkeypatch):
        """An E[S] row rounds at about eps (|atom| + int |g|), far above 8 eps
        x max|E| where E is small.  Every n = 512 ode solve on the benchmark's
        kappa range [0.9, 1.1] tabulates E (0.91, 0.92, 0.9275 and 0.98 fell
        back under a plain 8 eps stop), and at y_max 1e-8, where no table can
        meet the bound, the build spends one doubling past its first level."""
        variant = fourier_gaussian_amplitude()
        coeffs = base_coeffs(512, control_drift=0.1)
        untabulated = []
        for kappa in np.linspace(0.9, 1.1, 81).tolist():
            table = solve(coeffs, ObjectiveSpec(kappa, variant), solver="ode").objective.variant
            table.gaussian_expectation(np.array([0.5 * table._y_max]))
            if table._tables["_expectation_rows"] is None:
                untabulated.append(kappa)
        assert untabulated == []
        rows, direct = [], FourierEvenPenalty._row

        def counted(self, y, *row):
            rows.append(y)
            return direct(self, y, *row)

        monkeypatch.setattr(FourierEvenPenalty, "_row", counted)
        table = variant.on_range(1e-8, 4097)
        table.gaussian_expectation(np.array([0.5e-8]))
        assert table._tables["_expectation_rows"] is None
        assert len(rows) == 17 + 16 + 1  # the first level, one doubling, the query's own row


class _FrozenExp:
    """ExpPenalty's Gaussian closed forms as they stood before the exponential
    family wrote them once; cosh shared all four."""

    def __init__(self, c):
        self.c = c

    def curvature(self, y):
        c = self.c
        return -0.5 * c * np.exp(0.5 * c * c * y)

    def curvature_scalar(self, y):
        c = self.c
        try:
            return -0.5 * c * math.exp(0.5 * c * c * y)
        except OverflowError:
            return -math.inf

    def gaussian_expectation(self, var):
        c = self.c
        return np.expm1(0.5 * c * c * var) / c

    def first_integral(self):
        c2 = self.c * self.c
        return (
            lambda y: np.expm1(c2 * y),
            lambda x: np.log1p(x) / c2,
            math.inf,
            RootBracketError,
        )


class _FrozenCos(_FrozenExp):
    """CosPenalty's own copy of the closed forms, signs flipped."""

    def curvature(self, y):
        c = self.c
        return -0.5 * c * np.exp(-0.5 * c * c * y)

    def curvature_scalar(self, y):
        c = self.c
        return -0.5 * c * math.exp(-0.5 * c * c * y)

    def gaussian_expectation(self, var):
        c = self.c
        return -np.expm1(-0.5 * c * c * var) / c

    def first_integral(self):
        c2 = self.c * self.c
        return (
            lambda y: -np.expm1(-c2 * y),
            lambda x: -np.log1p(-x) / c2,
            1.0,
            CosDomainError,
        )


def _same_bits(got, expect):
    return type(got) is type(expect) and np.asarray(got).tobytes() == np.asarray(expect).tobytes()


class TestExponentialFamily:
    """exp, cosh and cos write their Gaussian closed forms once, in the sign s
    of the exponent, bit for bit as their former separate copies."""

    SCALES = (0.1, 0.7, 1.0, 2.3, 9.0)
    # up to 1,500, where exp's curvature and P overflow to infinity for large c
    VARIANCES = np.concatenate(
        ([0.0, 5e-324, 1e-300], np.geomspace(1e-12, 1500.0, 500), np.linspace(0.0, 1500.0, 301))
    )
    FAMILIES = ((ExpPenalty, _FrozenExp), (CoshPenalty, _FrozenExp), (CosPenalty, _FrozenCos))

    def test_members_define_no_closed_form(self):
        for cls, _ in self.FAMILIES:
            for name in ("curvature", "curvature_scalar", "gaussian_expectation", "first_integral"):
                assert name not in vars(cls), (cls.__name__, name)

    @pytest.mark.parametrize("c", SCALES)
    @pytest.mark.parametrize("cls, frozen", FAMILIES, ids=lambda v: getattr(v, "__name__", ""))
    def test_bitwise_equal_to_frozen_copies(self, cls, frozen, c):
        variant, old = cls(c), frozen(c)
        y = self.VARIANCES
        with np.errstate(over="ignore"):
            assert _same_bits(variant.curvature(y), old.curvature(y))
            assert _same_bits(variant.gaussian_expectation(y), old.gaussian_expectation(y))
            assert _same_bits(variant.gaussian_expectation(0.0), old.gaussian_expectation(0.0))
            for value in y.tolist():
                assert _same_bits(variant.curvature_scalar(value), old.curvature_scalar(value))
            integral = variant.first_integral
            p, inverse, supremum, error = old.first_integral()
            assert _same_bits(integral.p(y), p(y))
            targets = np.linspace(0.0, 1.0, 1001)[:-1] if supremum < math.inf else y
            assert _same_bits(integral.inverse(targets), inverse(targets))
        assert (integral.supremum, integral.error) == (supremum, error)


class TestHornerFirstIntegral:
    """The moment-combination P equals numpy.polynomial's, bit for bit."""

    X = np.array([0.0, 1e-300, 1e300, np.inf, 0.3, 1.0, 7.5, 1e3])

    @staticmethod
    def _reference(variant):
        """P = int_0^y Q^2 through numpy.polynomial, as the solvers once built it."""
        weights = [variant.weight(2 * j + 2) for j in range(variant.order // 2)]
        # Q's coefficient j is kappa_{2j+2} / (2j)!!, and (2j)!! = 2^j j!
        q = np.polynomial.Polynomial([w / (2**j * math.factorial(j)) for j, w in enumerate(weights)])
        return (q * q).integ()

    @staticmethod
    def _weight_sets():
        rng = np.random.default_rng(19)
        sets = [
            (1.0,),
            (1.0, 0.0, 0.5, 0.0, 0.25),
            (1.0, 0.3, 0.5, -2.0, 0.25),
            (1.0, 0.3, 0.0, 0.7),  # trailing zero even weight: Q trims to one term
            (2.0, 0.0, 0.0, 0.0, 0.0, -1.0),
            (0.0, 0.0, 3.0, 0.0, 0.0, 0.0, 0.0),
            (1e-200,),  # Q^2 underflows to the zero polynomial
        ]
        for size in (2, 3, 5, 7, 9, 11):
            weights = rng.uniform(-1.0, 1.0, size)
            weights[::2] = np.abs(weights[::2])
            sets.append(tuple(weights))
            weights[-2 if size % 2 else -1] = 0.0  # a trailing even zero
            sets.append(tuple(weights))
        return sets

    def test_bitwise_equal_to_numpy_polynomial(self):
        for weights in self._weight_sets():
            variant = MomentCombo(weights)
            integral = variant.first_integral
            p = self._reference(variant)
            assert _same_bits(integral.p.coef, p.coef)
            with np.errstate(all="ignore"):
                assert _same_bits(integral.p(self.X), p(self.X)), weights
                for x in self.X.tolist():
                    assert _same_bits(integral.p(x), p(x)), (weights, x)
