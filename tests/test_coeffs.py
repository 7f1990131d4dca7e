import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from equicontrol import (
    CoefficientError,
    CoefficientSet,
    ConstantCoefficient,
    DomainError,
    ExponentialCoefficient,
    GridMismatchError,
    PolynomialCoefficient,
    SampledCoefficient,
    TimeGrid,
    integrate,
)
from equicontrol.coeffs import SuffixQuadrature, coefficient_nodes, suffix_integrals

from cases import base_coeffs
from oracles import big_theta, simpson_integral, theta, y_from_beta


class TestTimeGrid:
    def test_nodes_and_step(self):
        grid = TimeGrid(2.0, 8)
        assert grid.nodes[0] == 0.0
        assert grid.nodes[-1] == 2.0
        assert len(grid.nodes) == 9
        assert grid.step == pytest.approx(0.25)

    def test_invalid(self):
        with pytest.raises(DomainError):
            TimeGrid(-1.0, 8)
        with pytest.raises(DomainError):
            TimeGrid(1.0, 1)

    def test_step_below_smallest_normal_float(self):
        assert TimeGrid(1e-300, 512).step > 0.0
        for horizon, steps in ((1e-320, 16), (5e-324, 16), (1e-300, 10**9)):
            with pytest.raises(DomainError):
                TimeGrid(horizon, steps)

    def test_snap_is_relative_to_horizon(self):
        for horizon in (1e-11, 1.0, 50.0):
            grid = TimeGrid(horizon, 8)
            assert grid.snap == 1e-12 * horizon
            assert grid.require_time(horizon * (1.0 + 1e-13)) == horizon
            with pytest.raises(DomainError):
                grid.require_time(horizon * (1.0 + 1e-11))

    def test_require_time(self):
        grid = TimeGrid(1.0, 8)
        assert grid.require_time(0.5) == 0.5
        with pytest.raises(DomainError):
            grid.require_time(1.5)
        with pytest.raises(DomainError):
            grid.require_time(-0.1)


class TestDescriptors:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "build",
        [
            ConstantCoefficient,
            lambda x: PolynomialCoefficient((1.0, x)),
            lambda x: ExponentialCoefficient(x, 0.5),
            lambda x: ExponentialCoefficient(0.1, x),
            lambda x: ExponentialCoefficient(0.1, 0.5, x),
            lambda x: SampledCoefficient((0.0, 0.5, 1.0), (0.1, x, 0.1)),
            lambda x: SampledCoefficient((0.0, 0.5, x), (0.1, 0.1, 0.1)),
        ],
        ids=["constant", "polynomial", "exp_scale", "exp_rate", "exp_offset", "sample", "sample_time"],
    )
    def test_non_finite_parameter(self, build, bad):
        """A parameter that is not finite is a construction error, as in the
        CLI: left in, a NaN state_drift, vol_offset or drift_offset sample
        solved to NaN without an error, and drift_offset = inf to value inf."""
        with pytest.raises(CoefficientError, match="must be finite"):
            build(bad)

    def test_constant(self):
        c = ConstantCoefficient(0.7)
        assert c(0.3) == 0.7
        np.testing.assert_allclose(c(np.array([0.0, 1.0])), [0.7, 0.7])
        assert c.antiderivative(1.2) - c.antiderivative(0.2) == pytest.approx(0.7)

    def test_polynomial(self):
        p = PolynomialCoefficient((1.0, 2.0, 3.0))  # 1 + 2t + 3t^2
        assert p(2.0) == pytest.approx(17.0)
        assert p.antiderivative(1.0) - p.antiderivative(0.0) == pytest.approx(1.0 + 1.0 + 1.0)
        with pytest.raises(CoefficientError):
            PolynomialCoefficient(())

    def test_polynomial_bitwise_equal_to_numpy_polynomial(self):
        """Values and antiderivative equal ``numpy.polynomial.Polynomial``'s and
        its ``integ()``'s bit for bit, trailing and all-zero coefficients included.
        The antiderivative's descending coefficients, reversed, are ``integ()``'s,
        but for the zero polynomial ``np.polyint`` keeps a second zero term."""
        rng = np.random.default_rng(20)
        t = np.concatenate([[0.0, 1e-300, 0.5, 1.0, 2.0, 1e3, 1e200], rng.uniform(0.0, 4.0, 24)])
        sets = [(0.0,), (0.0, 0.0), (1.0, 0.0, 0.0), (-2.5,), (0.0, 0.0, 3.0)]
        for _ in range(3000):
            c = rng.normal(size=rng.integers(1, 9)) * 10.0 ** rng.integers(-3, 4)
            c[rng.random(c.size) < 0.2] = 0.0  # interior and trailing zeros
            sets.append(tuple(c))
        with np.errstate(all="ignore"):
            for coeffs in sets:
                p = PolynomialCoefficient(coeffs)
                reference = np.polynomial.Polynomial(coeffs)
                anti = reference.integ()
                terms = 1 if coeffs == (0.0,) else None  # np.polyint([0.]) is [0., 0.]
                assert p._anti[::-1][:terms].tobytes() == anti.coef.tobytes(), coeffs
                assert p(t).tobytes() == reference(t).tobytes(), coeffs
                assert p.antiderivative(t).tobytes() == anti(t).tobytes(), coeffs
                assert p(0.5) == reference(0.5) and p.antiderivative(2.0) == anti(2.0)

    def test_exponential(self):
        e = ExponentialCoefficient(2.0, -0.5, 1.0)
        assert e(0.0) == pytest.approx(3.0)
        exact = 2.0 / -0.5 * (math.exp(-0.5) - 1.0) + 1.0
        assert e.antiderivative(1.0) - e.antiderivative(0.0) == pytest.approx(exact, rel=1e-14)

    @pytest.mark.parametrize("rate", [5e-324, 1e-300, 1e-15, 1e-12, 1e-3, 1.0, 50.0, -3.0])
    def test_exponential_integral_at_any_rate(self, rate):
        """int_0^T of 2 e^(rate t) is 2 expm1(rate T) / rate, to rounding, at
        rates so small that (scale / rate) e^(rate t) cancels or overflows."""
        e = ExponentialCoefficient(2.0, rate)
        got = e.antiderivative(1.0) - e.antiderivative(0.0)
        exact = 2.0 * math.expm1(rate) / rate
        assert got == pytest.approx(exact, rel=2.0**-51, abs=0.0)

    def test_exponential_zero_rate(self):
        e = ExponentialCoefficient(2.0, 0.0, 1.0)
        assert e.antiderivative(2.0) - e.antiderivative(0.0) == pytest.approx(6.0)

    def test_sampled_linear_interp(self):
        s = SampledCoefficient(np.array([0.0, 1.0, 2.0]), np.array([0.0, 2.0, 0.0]))
        assert s(0.5) == pytest.approx(1.0)
        assert s(1.5) == pytest.approx(1.0)
        # piecewise-linear integral is exact
        assert s.antiderivative(2.0) - s.antiderivative(0.0) == pytest.approx(2.0)
        assert s.antiderivative(0.75) - s.antiderivative(0.25) == pytest.approx(0.5)

    def test_sampled_validation(self):
        with pytest.raises(GridMismatchError):
            SampledCoefficient(np.array([0.0, 1.0]), np.array([1.0]))
        with pytest.raises(CoefficientError):
            SampledCoefficient(np.array([1.0, 0.5]), np.array([1.0, 2.0]))
        with pytest.raises(CoefficientError):
            SampledCoefficient((0.0,), (1.0,))

    def test_on_grid(self):
        grid = TimeGrid(1.0, 4)
        s = SampledCoefficient(grid.nodes, np.arange(5.0))
        np.testing.assert_allclose(s(grid.nodes), np.arange(5.0))
        with pytest.raises(GridMismatchError):
            SampledCoefficient(grid.nodes, np.arange(4.0))

    def test_antiderivative_matches_quadrature(self):
        for coeff in (
            PolynomialCoefficient((0.3, -1.0, 0.5, 2.0)),
            ExponentialCoefficient(1.2, 0.8, -0.3),
        ):
            oracle = simpson_integral(coeff, 0.2, 1.7)
            exact = coeff.antiderivative(1.7) - coeff.antiderivative(0.2)
            assert exact == pytest.approx(oracle, rel=1e-10)


class TestIntegrate:
    def test_inside_one_cell(self):
        """Both ends in one cell: the trapezoid of the interpolant, exact on a line."""
        grid = TimeGrid(1.0, 4)
        values = 2.0 * grid.nodes + 1.0
        assert integrate(values, grid, 0.3, 0.45) == pytest.approx(0.2625, rel=1e-14)

    def test_single_whole_cell(self):
        """From one node to the next: an interior cell takes the quadratic
        through its two nodes and the next one, the last cell the one-sided
        rule through the two before; each is exact for a quadratic."""
        grid = TimeGrid(1.0, 8)
        t, h = grid.nodes, grid.step
        quadratic = 1.0 - 2.0 * t + 3.0 * t**2
        primitive = t - t**2 + t**3
        for k in (0, 3, 7):
            exact = primitive[k + 1] - primitive[k]
            assert integrate(quadratic, grid, t[k], t[k + 1]) == pytest.approx(exact, rel=1e-14)
        v = np.random.default_rng(4).uniform(-1.0, 1.0, t.size)
        assert integrate(v, grid, t[3], t[4]) == h * (5.0 * v[3] + 8.0 * v[4] - v[5]) / 12.0
        assert integrate(v, grid, t[7], t[8]) == h * (-v[6] + 8.0 * v[7] + 5.0 * v[8]) / 12.0

    def test_cubic_exact_on_whole_cells(self):
        grid = TimeGrid(1.0, 16)
        values = grid.nodes**3
        assert integrate(values, grid, 0.0, 1.0) == pytest.approx(0.25, abs=1e-15)

    def test_quadratic_partial_cells(self):
        """Off-node endpoints fall back to trapezoid slivers, O(step^3) locally."""
        a, b = 0.1003, 0.7777
        exact = (b - a) + (b**2 - a**2) / 2 + (b**3 - a**3) / 3
        errors = {}
        for n in (64, 256):
            grid = TimeGrid(1.0, n)
            values = 1.0 + grid.nodes + grid.nodes**2
            errors[n] = abs(integrate(values, grid, a, b) - exact)
        assert errors[64] <= 2e-6
        assert errors[256] <= 1e-8
        assert errors[256] <= errors[64] / 20.0

    def test_empty_and_reversed(self):
        grid = TimeGrid(1.0, 8)
        values = np.ones(9)
        assert integrate(values, grid, 0.5, 0.5) == 0.0
        with pytest.raises(DomainError):
            integrate(values, grid, 0.7, 0.2)

    def test_outside_horizon(self):
        grid = TimeGrid(1.0, 8)
        with pytest.raises(DomainError):
            integrate(np.ones(9), grid, 0.0, 1.5)

    def test_wrong_shape(self):
        grid = TimeGrid(1.0, 8)
        with pytest.raises(GridMismatchError):
            integrate(np.ones(5), grid, 0.0, 1.0)

    @given(
        seed=st.integers(0, 2**31 - 1),
        ka=st.integers(0, 7),
        kb=st.integers(9, 16),
    )
    @settings(max_examples=40, deadline=None)
    @example(seed=133, ka=4, kb=11)
    def test_refinement_convergence(self, seed, ka, kb):
        """High-order error decay between node-aligned endpoints.

        Endpoints are multiples of 1/16 so they are nodes of both grids and
        the Simpson core (rather than the endpoint slivers) is what is being
        measured.  Both errors stay within the a-priori Simpson bound
        (b - a) h^4 max|f| / 180, with |f| <= (c0^2 + 9 c1^2)^2 e^(c0 b)
        for f = e^(c0 t) sin(3 c1 t) + 1.  Halving h must cut the error by at
        least 3 only where the coarse error is at least 1% of its bound: the
        leading h^4 term can cancel (seed 133, ka 4, kb 11 has 1.44e-10
        against a bound of 3.0e-6), and then the next term decides.
        """
        rng = np.random.default_rng(seed)
        c0, c1 = rng.uniform(0.5, 2.0, size=2)
        a, b = ka / 16.0, kb / 16.0

        def f(t):
            return np.exp(c0 * t) * np.sin(3.0 * c1 * t) + 1.0

        exact = simpson_integral(f, a, b, n=6000)
        max_d4 = (c0 * c0 + 9.0 * c1 * c1) ** 2 * math.exp(c0 * b)
        errors, bounds = [], []
        for grid in (TimeGrid(1.0, 32), TimeGrid(1.0, 64)):
            errors.append(abs(integrate(f(grid.nodes), grid, a, b) - exact))
            bounds.append((b - a) * grid.step**4 * max_d4 / 180.0)
        assert errors[0] <= bounds[0] and errors[1] <= bounds[1]
        if errors[0] >= 0.01 * bounds[0]:
            assert errors[1] <= errors[0] / 3.0


class TestSuffixQuadrature:
    def test_matches_integrate_at_nodes(self):
        grid = TimeGrid(1.0, 17)  # odd cell count exercises the tail rule
        rng = np.random.default_rng(7)
        values = rng.normal(size=grid.nodes.size)
        sq = SuffixQuadrature(values, grid)
        got = sq(grid.nodes)
        for i, t in enumerate(grid.nodes):
            assert got[i] == integrate(values, grid, t, 1.0)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 17, 64])
    def test_suffix_integrals_match_integrate_bitwise(self, n):
        """Single-cell branch (k = n - 1), odd tails and even suffixes all agree."""
        for horizon in (1.0, 0.7, 3.3):
            grid = TimeGrid(horizon, n)
            values = np.random.default_rng(n).normal(size=grid.nodes.size)
            got = suffix_integrals(values, grid)
            expect = [integrate(values, grid, t, horizon) for t in grid.nodes]
            assert got.tolist() == expect

    @pytest.mark.parametrize("n", [16, 64, 512, 4096])
    def test_call_at_nodes_is_node_array(self, n):
        """Why the risk budget may read ``theta_eval.at_nodes``: on a grid of
        2^k cells, a call at the nodes returns the node array bitwise."""
        horizons = [*np.linspace(0.25, 2.0, 40), 1e-3, 0.7, 1.0, 3.3, 17.0]
        for horizon in horizons:
            grid = TimeGrid(float(horizon), n)
            t = grid.nodes
            values = (0.3 * np.exp(-2.0 * t) + 0.1) ** 2 / (0.2 * np.exp(0.5 * t)) ** 2
            sq = SuffixQuadrature(values, grid)
            np.testing.assert_array_equal(sq(t), sq.at_nodes, err_msg=str(horizon))

    def test_node_array_is_exact_at_the_horizon(self):
        """Where num_steps x step exceeds the horizon (0.7 on 35 cells), the node
        array still holds the exact 0 at T, as ``integrate`` does, and so does
        a call there: its partial cell ends at T."""
        grid = TimeGrid(0.7, 35)
        assert grid.num_steps * grid.step > grid.horizon
        values = np.exp(-2.0 * grid.nodes) + 0.1
        sq = SuffixQuadrature(values, grid)
        np.testing.assert_array_equal(sq(grid.nodes), sq.at_nodes)
        assert sq.at_nodes[-1] == integrate(values, grid, 0.7, 0.7) == 0.0

    def test_suffix_integrals_shape_guard(self):
        with pytest.raises(GridMismatchError):
            suffix_integrals(np.ones(4), TimeGrid(1.0, 8))

    def test_off_node_linear(self):
        grid = TimeGrid(1.0, 8)
        values = 2.0 * grid.nodes  # linear, partial-cell trapezoid is exact
        sq = SuffixQuadrature(values, grid)
        for t in (0.03, 0.51, 0.99):
            assert sq(t) == pytest.approx(1.0 - t * t, abs=1e-14)


class TestCoefficientSet:
    def test_vol_floor(self):
        grid = TimeGrid(1.0, 8)
        with pytest.raises(CoefficientError):
            CoefficientSet(
                grid,
                state_drift=ConstantCoefficient(0.0),
                control_drift=ConstantCoefficient(0.3),
                drift_offset=ConstantCoefficient(0.0),
                control_vol=PolynomialCoefficient((0.2, -0.4)),  # crosses zero
                vol_offset=ConstantCoefficient(0.0),
            )

    @pytest.mark.parametrize("grid_size", [4, 512])
    @pytest.mark.parametrize(
        "horizon, control_vol",
        [
            (1.0, SampledCoefficient((0.0, 0.3, 1.0), (0.2, 0.0, 0.2))),  # zero at a sample
            (1.0, SampledCoefficient((0.0, 1.0), (0.2, -0.3))),  # zero at t = 0.4
            (1.0, PolynomialCoefficient((0.2, -0.5))),  # zero at t = 0.4
            (2.0, PolynomialCoefficient((1.0, 1e308, 1e308, -1e308))),  # -inf at t = 2
            (1.0, PolynomialCoefficient((0.09, -0.6, 1.0))),  # (t - 0.3)^2: no sign change
            (1.0, PolynomialCoefficient((0.0, 0.0))),  # zero: no turning points to probe
        ],
        ids=[
            "zero_at_a_sample",
            "sampled_sign_change",
            "polynomial_sign_change",
            "overflow",
            "polynomial_even_order_zero",
            "zero_polynomial",
        ],
    )
    def test_vol_floor_between_probes(self, horizon, control_vol, grid_size):
        """Zeros off the nodes and midpoints and non-finite values are rejected."""
        with pytest.raises(CoefficientError, match="control volatility"), np.errstate(over="ignore"):
            CoefficientSet(
                TimeGrid(horizon, grid_size),
                state_drift=ConstantCoefficient(0.0),
                control_drift=ConstantCoefficient(0.3),
                drift_offset=ConstantCoefficient(0.0),
                control_vol=control_vol,
                vol_offset=ConstantCoefficient(0.0),
            )

    @pytest.mark.parametrize(
        "coefficients",
        [(0.2,), (0.13, -0.6, 1.0), (0.2, 0.0, 0.0, -0.1), (1e300, -1e300, 1e300)],
        ids=["constant", "minimum_0.04_at_0.3", "cubic", "huge"],
    )
    def test_polynomial_vol_off_zero_is_accepted(self, coefficients):
        """A polynomial whose turning points stay above the floor passes."""
        CoefficientSet(
            TimeGrid(1.0, 4),
            state_drift=ConstantCoefficient(0.0),
            control_drift=ConstantCoefficient(0.3),
            drift_offset=ConstantCoefficient(0.0),
            control_vol=PolynomialCoefficient(coefficients),
            vol_offset=ConstantCoefficient(0.0),
        )

    def test_sampled_must_cover_horizon(self):
        grid = TimeGrid(2.0, 8)
        short = SampledCoefficient(np.array([0.0, 1.0]), np.array([0.3, 0.3]))
        with pytest.raises(CoefficientError):
            CoefficientSet(
                grid,
                state_drift=ConstantCoefficient(0.0),
                control_drift=short,
                drift_offset=ConstantCoefficient(0.0),
                control_vol=ConstantCoefficient(0.2),
                vol_offset=ConstantCoefficient(0.0),
            )

    def test_node_caches(self):
        coeffs = base_coeffs(32)
        np.testing.assert_allclose(coeffs.b_nodes, 0.3)
        np.testing.assert_allclose(coeffs.budget_rate_nodes, 2.25)
        nodes = coefficient_nodes(coeffs.control_drift, coeffs.grid)
        np.testing.assert_allclose(nodes, coeffs.b_nodes)


class TestGrowth:
    def test_constant_drift_semigroup(self):
        grid = TimeGrid(1.0, 64)
        coeffs = CoefficientSet(
            grid,
            state_drift=ConstantCoefficient(0.4),
            control_drift=ConstantCoefficient(0.3),
            drift_offset=ConstantCoefficient(0.0),
            control_vol=ConstantCoefficient(0.2),
            vol_offset=ConstantCoefficient(0.0),
        )
        assert coeffs.growth_at(0.0) == pytest.approx(math.exp(0.4), rel=1e-14)
        growth_sq = math.exp(2.0 * coeffs.int_a_at(0.25))
        assert growth_sq == pytest.approx(math.exp(0.8 * 0.75), rel=1e-14)
        np.testing.assert_allclose(coeffs.growth, np.exp(0.4 * (1.0 - grid.nodes)), rtol=1e-14)

    @given(t=st.floats(0.0, 1.0), s=st.floats(0.0, 1.0))
    @settings(max_examples=50, deadline=None)
    def test_semigroup_property(self, t, s):
        """e^{int_t^T} = e^{int_t^s} e^{int_s^T} for a curved drift."""
        grid = TimeGrid(1.0, 64)
        coeffs = CoefficientSet(
            grid,
            state_drift=ExponentialCoefficient(0.3, 0.7),
            control_drift=ConstantCoefficient(0.3),
            drift_offset=ConstantCoefficient(0.0),
            control_vol=ConstantCoefficient(0.2),
            vol_offset=ConstantCoefficient(0.0),
        )
        drift = coeffs.state_drift
        lhs = coeffs.int_a_at(t)
        rhs = coeffs.int_a_at(s) + drift.antiderivative(s) - drift.antiderivative(t)
        assert lhs == pytest.approx(rhs, abs=1e-10)


class TestThetaAndVariance:
    def test_theta_budget(self):
        coeffs = base_coeffs(128)
        assert theta(coeffs, 0.0) == pytest.approx(2.25, rel=1e-12)
        assert theta(coeffs, 1.0) == 0.0

    def test_big_theta_terminal_identity(self):
        coeffs = base_coeffs(64)
        assert big_theta(coeffs, 1.0, 1.7) == pytest.approx(1.7)

    def test_big_theta_discounts_state(self):
        grid = TimeGrid(1.0, 64)
        coeffs = CoefficientSet(
            grid,
            state_drift=ConstantCoefficient(0.4),
            control_drift=ConstantCoefficient(0.3),
            drift_offset=ConstantCoefficient(0.1),
            control_vol=ConstantCoefficient(0.2),
            vol_offset=ConstantCoefficient(0.0),
        )
        # Theta(t, x) = x e^{a (T-t)} + C/a (e^{a (T-t)} - 1), with F = 0
        exact = 2.0 * math.exp(0.4) + 0.1 / 0.4 * (math.exp(0.4) - 1.0)
        assert big_theta(coeffs, 0.0, 2.0) == pytest.approx(exact, rel=1e-12)

    def test_y_from_beta_constant(self):
        coeffs = base_coeffs(128)
        beta = np.full(coeffs.grid.nodes.size, 3.75)
        # y_0 = int (d beta)^2 = (0.2 * 3.75)^2 = 0.5625
        assert y_from_beta(coeffs, beta, 0.0) == pytest.approx(0.5625, rel=1e-12)

    def test_y_from_beta_shape_guard(self):
        coeffs = base_coeffs(16)
        with pytest.raises(GridMismatchError):
            y_from_beta(coeffs, np.ones(4), 0.0)
