import json
import math
import struct
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from equicontrol import (
    AmbiguousCos,
    CoefficientError,
    CoefficientSet,
    ConcavityError,
    ConstantCoefficient,
    CosDomainError,
    CoshPenalty,
    CosPenalty,
    DiscreteDistribution,
    DomainError,
    ExpPenalty,
    ExponentialCoefficient,
    FourierEvenPenalty,
    MomentCombo,
    NonFiniteResultError,
    ObjectiveSpec,
    OdeStepError,
    RootBracketError,
    SampledCoefficient,
    StandardizedMoments,
    TimeGrid,
    UnsupportedVariantError,
    solve,
    solve_ode,
)

from equicontrol import equilibrium
from equicontrol.equilibrium import SOLVERS, _solve_increasing_many
from equicontrol.moments import MomentVector
from equicontrol.objectives import VARIANTS, psi
from equicontrol.verify import evaluate_deterministic

from cases import (
    base_coeffs,
    criterion_02_draws,
    curved_coeffs,
    fourier_gaussian_amplitude,
    solve_all,
    solved_cases,
)
from ode_reference import reference_solve_ode
import oracles as cf  # big_theta, and coeffs.integrate through it
from oracles import y_from_beta


@pytest.fixture(scope="module")
def mv_solution():
    return solve(base_coeffs(), ObjectiveSpec(1.0, MomentCombo((2.0,))))


@pytest.fixture(scope="module")
def exp_solution():
    return solve(base_coeffs(), ObjectiveSpec(1.0, ExpPenalty(1.0)))


@pytest.fixture(scope="module")
def all_solutions():
    return solve_all()


class TestMeanVariance:
    def test_constant_loading(self, mv_solution):
        # beta = kappa B / (kappa_2 D^2) = 0.3 / (2 * 0.04) = 3.75
        np.testing.assert_allclose(mv_solution.beta, 3.75, rtol=1e-12)

    def test_accumulated_variance(self, mv_solution):
        # y_0 = kappa^2 theta_0 / kappa_2^2 = 2.25 / 4
        assert mv_solution.y_at(0.0) == pytest.approx(0.5625, rel=1e-12)
        assert mv_solution.y_at(1.0) == pytest.approx(0.0, abs=1e-14)

    def test_value_function(self, mv_solution):
        # V(0, x) = x + int b beta + psi = x + 1.125 - 0.5625
        assert mv_solution.value(0.0, 0.0) == pytest.approx(0.5625, rel=1e-10)
        assert mv_solution.value(0.0, 1.0) == pytest.approx(1.5625, rel=1e-10)
        assert mv_solution.value(1.0, 0.7) == pytest.approx(0.7)  # terminal identity

    def test_solver_choice(self, mv_solution):
        assert mv_solution.solver_name == "closed_form"

    def test_residuals_vanish(self, mv_solution):
        assert float(np.max(mv_solution.integral_equation_residuals())) <= 1e-14
        assert mv_solution.self_consistency_error() <= 1e-12

    def test_control_is_constant_loading(self, mv_solution):
        # a = f = 0, so u(t) = beta(t) = 3.75 at nodes and between them
        for t in (0.0, 0.3, 0.123457, 0.999, 1.0):
            assert mv_solution.control(t) == pytest.approx(3.75, rel=1e-12)


class TestExpPenalty:
    def test_accumulated_variance(self, exp_solution):
        # y_0 = log(1 + kappa^2 theta_0) = log 3.25
        assert exp_solution.y_at(0.0) == pytest.approx(math.log(3.25), rel=1e-12)

    def test_initial_control(self, exp_solution):
        assert exp_solution.control(0.0) == pytest.approx(
            7.5 / math.sqrt(3.25), rel=1e-12
        )

    def test_value_oracle(self, exp_solution):
        # V(0, 1) = 1 + 2 (sqrt(3.25) - 1) - (sqrt(3.25) - 1) = sqrt(3.25)
        assert exp_solution.value(0.0, 1.0) == pytest.approx(math.sqrt(3.25), abs=1e-9)

    def test_off_node_evaluation_consistent(self, exp_solution):
        t = 0.123456789
        y_exact = math.log(1.0 + 2.25 * (1.0 - t))
        assert exp_solution.y_at(t) == pytest.approx(y_exact, rel=1e-12)


class TestCosPenalty:
    def test_domain_guard(self):
        with pytest.raises(CosDomainError):
            solve(base_coeffs(), ObjectiveSpec(1.0, CosPenalty(1.0)))

    def test_solvable_with_small_budget(self):
        sol = solve(base_coeffs(control_drift=0.1), ObjectiveSpec(1.0, CosPenalty(1.0)))
        assert sol.y_at(0.0) == pytest.approx(-math.log(0.75), rel=1e-12)
        assert sol.value(0.0, 1.0) == pytest.approx(2.0 - math.sqrt(0.75), abs=1e-9)


class TestVarianceKurtosis:
    def test_cubic_root_oracle(self):
        spec = ObjectiveSpec(1.0, MomentCombo((1.0, 0.0, 1.0)))
        sol = solve(base_coeffs(), spec)
        # kappa_4 y^3 something: closed form y_0 = 2 (cbrt(1 + 1.5 * 2.25) - 1)
        assert sol.y_at(0.0) == pytest.approx(1.2710663101885897, rel=1e-12)
        assert sol.solver_name == "closed_form"

    def test_algebraic_agrees_with_closed_form(self):
        spec = ObjectiveSpec(1.0, MomentCombo((1.0, 0.0, 1.0)))
        a = solve(base_coeffs(), spec, solver="closed_form")
        b = solve(base_coeffs(), spec, solver="algebraic")
        np.testing.assert_allclose(a.beta, b.beta, rtol=1e-12)
        np.testing.assert_allclose(a.y, b.y, rtol=1e-12, atol=1e-15)

    def test_overflowing_cube_root_solves(self):
        """Where w2^3 overflows there is no explicit P^-1, and closed_form is
        the root solve: it once exited 3 on the Python float w2 ** 3."""
        spec = ObjectiveSpec(1.0, MomentCombo((1e110, 0.0, 1.0)))
        assert spec.variant.first_integral.inverse is None
        a = solve(base_coeffs(), spec, solver="closed_form")
        b = solve(base_coeffs(), spec, solver="algebraic")
        assert a.y.tobytes() == b.y.tobytes() and a.beta.tobytes() == b.beta.tobytes()
        assert 0.0 < a.y_at(0.0) < 1e-200


class TestOdeSolver:
    def test_matches_exp_closed_form(self, exp_solution):
        ode = solve_ode(base_coeffs(), ObjectiveSpec(1.0, ExpPenalty(1.0)))
        np.testing.assert_allclose(ode.y, exp_solution.y, rtol=1e-10, atol=1e-12)
        assert ode.ode_error_estimate <= 1e-8
        assert ode.solver_name == "ode"

    def test_standardized_reduces_to_mean_variance(self, mv_solution):
        spec = ObjectiveSpec(1.0, StandardizedMoments((2.0, 1.0)))
        sol = solve_ode(base_coeffs(), spec)
        np.testing.assert_allclose(sol.beta, mv_solution.beta, rtol=1e-5)

    def test_tolerance_forwarding(self):
        loose = solve(base_coeffs(64), ObjectiveSpec(1.0, ExpPenalty(1.0)), solver="ode", ode_tol=1e-3)
        tight = solve(base_coeffs(64), ObjectiveSpec(1.0, ExpPenalty(1.0)), solver="ode", ode_tol=1e-12)
        assert tight.ode_error_estimate <= loose.ode_error_estimate

    def test_default_tolerance(self):
        """solve without ode_tol marches to 1e-8, the config's default."""
        spec = ObjectiveSpec(1.0, ExpPenalty(1.0))
        default = solve(base_coeffs(64), spec, solver="ode")
        explicit = solve(base_coeffs(64), spec, solver="ode", ode_tol=1e-8)
        assert default.y.tobytes() == explicit.y.tobytes()
        assert default.beta.tobytes() == explicit.beta.tobytes()


class CountingCoefficient(ConstantCoefficient):
    calls = 0

    def __call__(self, t):
        CountingCoefficient.calls += 1
        return super().__call__(t)


class TestOdeMarch:
    """The adaptive march against the oracle's fixed-step march on the grid."""

    @staticmethod
    def assert_matches_reference(coeffs, spec, label, tol=1e-8):
        got = solve_ode(coeffs, spec, tol=tol)
        ref = reference_solve_ode(coeffs, spec, tol=tol)
        assert got.ode_steps > 0 and got.ode_min_step > 0.0, label
        gap = float(np.max(np.abs(got.y - ref)))
        assert gap <= tol * max(1.0, float(ref.max())), label

    @pytest.mark.parametrize("case", solved_cases(512), ids=lambda case: case[0])
    def test_solved_cases_match_reference(self, case):
        name, coeffs, spec, _ = case
        self.assert_matches_reference(coeffs, spec, name)

    def test_criterion_02_draws_match_reference(self):
        coeffs = base_coeffs(512)
        for i, spec in enumerate(criterion_02_draws()):
            self.assert_matches_reference(coeffs, spec, f"draw {i}")

    def test_coefficient_calls_do_not_grow_with_grid(self):
        """b and d are evaluated once at the nodes, once at the horizon and once
        per attempted step, however fine the grid."""
        counts = []
        for n in (64, 1024):
            coeffs = CoefficientSet(
                TimeGrid(1.0, n),
                state_drift=ConstantCoefficient(0.0),
                control_drift=CountingCoefficient(0.3),
                drift_offset=ConstantCoefficient(0.0),
                control_vol=CountingCoefficient(0.2),
                vol_offset=ConstantCoefficient(0.0),
            )
            CountingCoefficient.calls = 0
            sol = solve_ode(coeffs, ObjectiveSpec(1.0, CoshPenalty(1.0)))
            attempts = sol.ode_steps + sol.ode_rejected_steps
            counts.append((CountingCoefficient.calls, attempts))
        assert counts[0] == counts[1]
        assert counts[0][0] == 2 * (2 + counts[0][1])

    def test_rate_rows_do_not_grow_with_grid(self, monkeypatch):
        """fourier_even's frequency rows follow the steps, not the grid
        (the grid-bound march took 12 per cell: 6,144 at n = 512)."""
        spec = ObjectiveSpec(1.0, fourier_gaussian_amplitude())
        row = type(spec.variant).curvature_scalar
        calls = []

        def counting(variant, y):
            calls[-1] += 1
            return row(variant, y)

        monkeypatch.setattr(type(spec.variant), "curvature_scalar", counting)
        for n in (512, 4096):
            calls.append(0)
            solve_ode(base_coeffs(n, control_drift=0.1), spec)
        assert calls[0] == calls[1] < 1000

    def test_records_steps(self):
        spec = ObjectiveSpec(1.0, CoshPenalty(1.0))
        sol = solve_ode(curved_coeffs(512), spec)
        assert sol.ode_steps > 0 and sol.ode_rejected_steps >= 0
        assert 0.0 < sol.ode_min_step <= 1.0
        assert 0.0 < sol.ode_error_estimate <= 1e-8
        closed = solve(curved_coeffs(512), spec)
        assert (closed.ode_steps, closed.ode_rejected_steps, closed.ode_min_step) == (0, 0, 0.0)

    def test_overflowing_stage_is_rejected(self):
        """A stage y past exp's range gives K = -inf (f = 0) as np.exp does, not an
        OverflowError; the march rejects those steps, shortens them through the
        layer at T and solves, where the oracle's fixed steps stall."""
        spec = ObjectiveSpec(1e3, ExpPenalty(1.0))
        with pytest.raises(OdeStepError), np.errstate(over="ignore"):
            reference_solve_ode(base_coeffs(16), spec)
        assert spec.variant.curvature_scalar(1e4) == -math.inf
        sol = solve_ode(base_coeffs(16), spec)
        assert sol.ode_rejected_steps > 0
        np.testing.assert_allclose(sol.y, solve(base_coeffs(16), spec).y, rtol=1e-8, atol=0.0)

    def test_concavity_failure_names_the_stage(self):
        from equicontrol import FourierEvenPenalty

        freqs = np.linspace(-12.0, 12.0, 1201)
        density = np.exp(-0.5 * freqs**2) / math.sqrt(2.0 * math.pi)  # positive weight
        spec = ObjectiveSpec(1.0, FourierEvenPenalty(tuple(freqs), tuple(density)))
        coeffs = curved_coeffs(16)
        with pytest.raises(ConcavityError) as ref:
            reference_solve_ode(coeffs, spec)
        with pytest.raises(ConcavityError) as got:
            solve_ode(coeffs, spec)
        assert str(got.value) == str(ref.value)
        assert "during integration: K(1, 0)" in str(got.value)

    def test_stall_raises(self):
        """No substep count reaches a tolerance below the rounding floor."""
        with pytest.raises(OdeStepError, match="stalled"):
            solve_ode(base_coeffs(16), ObjectiveSpec(1.0, ExpPenalty(1.0)), tol=1e-300)

    @staticmethod
    def exponential_coeffs(horizon, num_steps, drift_rate, vol_rate):
        return CoefficientSet(
            TimeGrid(horizon, num_steps),
            state_drift=ConstantCoefficient(0.0),
            control_drift=ExponentialCoefficient(0.5, drift_rate),
            drift_offset=ConstantCoefficient(0.0),
            control_vol=ExponentialCoefficient(0.5, vol_rate),
            vol_offset=ConstantCoefficient(0.0),
        )

    @pytest.mark.parametrize("horizon, drift_rate, vol_rate", [(7.3, 2.18, 0.25), (2.75, 2.66, -2.24)])
    def test_target_is_relative_to_the_variance(self, horizon, drift_rate, vol_rate):
        """A variance near 1e11 meets tol x max y; the absolute tol stalled it at 16 substeps."""
        coeffs = self.exponential_coeffs(horizon, 256, drift_rate, vol_rate)
        spec = ObjectiveSpec(1.0, MomentCombo((2.0,)))
        sol = solve_ode(coeffs, spec)
        assert float(sol.y.max()) > 1e10
        assert sol.ode_error_estimate > 1e-8
        assert sol.ode_relative_error_estimate <= 1e-8
        assert sol.ode_relative_error_estimate == sol.ode_error_estimate / float(sol.y.max())
        # auto carries the Simpson error of theta, near 6e-6 here
        np.testing.assert_allclose(sol.y, solve(coeffs, spec).y, rtol=1e-4)

    def test_random_exponential_draws_solve_or_stall(self):
        """300 seeded draws with b = 0.5 e^(r_b t) and d = 0.5 e^(r_d t), rates in
        [-3, 3], T in [0.5, 10] and n in {64, 256}, on mean-variance, variance +
        kurtosis and exp.  Each draw solves within tol x max(1, max y) of a
        65,536-node ``auto`` solve, or stalls with OdeStepError in the layer at
        T, where the gain (kappa b / d)^2 exceeds 1e12 on every stalled draw."""
        variants = (MomentCombo((2.0,)), MomentCombo((1.0, 0.0, 0.1)), ExpPenalty(1.0))
        rng = np.random.default_rng(20261020)
        outcomes = {"solved": 0, "stalled": 0, "d below its floor": 0}
        for i in range(300):
            horizon = float(rng.uniform(0.5, 10.0))
            drift_rate, vol_rate = (float(r) for r in rng.uniform(-3.0, 3.0, 2))
            n = int(rng.choice((64, 256)))
            spec = ObjectiveSpec(1.0, variants[int(rng.integers(3))])
            try:
                coeffs = self.exponential_coeffs(horizon, n, drift_rate, vol_rate)
            except CoefficientError:
                outcomes["d below its floor"] += 1
                continue
            try:
                sol = solve_ode(coeffs, spec)
            except OdeStepError as exc:
                assert f"stalled at t = {horizon:.6g}," in str(exc), i
                outcomes["stalled"] += 1
                continue
            fine = solve(self.exponential_coeffs(horizon, 65536, drift_rate, vol_rate), spec)
            ref = fine.y[:: 65536 // n]
            assert np.max(np.abs(sol.y - ref)) <= 1e-8 * max(1.0, float(ref.max())), i
            outcomes["solved"] += 1
        assert outcomes["solved"] >= 260, outcomes

    def test_small_variance_keeps_the_absolute_target(self):
        sol = solve_ode(base_coeffs(64, control_drift=0.1), ObjectiveSpec(1.0, ExpPenalty(1.0)))
        assert float(sol.y.max()) < 1.0
        assert sol.ode_relative_error_estimate == sol.ode_error_estimate

    def test_overflow_is_named(self):
        """A stage y past exp's range freezes the march; the stall says so, at once."""
        coeffs = self.exponential_coeffs(8.33, 64, 1.72, -1.56)
        spec = ObjectiveSpec(1.0, ExpPenalty(1.0))
        stall = "stalled at t = 8.33, gain [(]kappa b / d[)]\\^2 = 5.394e[+]23: .*; y overflows"
        with pytest.raises(OdeStepError, match=stall):
            solve_ode(coeffs, spec)
        assert solve(coeffs, spec).y[0] == pytest.approx(52.77, rel=1e-3)


class TestAssemblyGuards:
    """Every solution passes the same checks before it is returned."""

    def test_non_finite_y(self):
        # c^2 = 1e-320 is subnormal, so y = log1p(x) / c^2 overflows off the horizon
        with pytest.raises(NonFiniteResultError, match="non-finite y"):
            with np.errstate(over="ignore"):
                solve(base_coeffs(16), ObjectiveSpec(1.0, ExpPenalty(1e-160)))

    def test_node_concavity(self):
        """Kurtosis alone has K = 0 at the horizon, where y = 0."""
        with pytest.raises(ConcavityError, match="max K = -0"):
            solve(base_coeffs(16), ObjectiveSpec(1.0, MomentCombo((0.0, 0.0, 1.5))))

    def test_non_finite_beta(self):
        # y = kappa^2 (b / d)^2 T / 4 = 2.5e299 stays finite; kappa b / d^2 overflows
        coeffs = CoefficientSet(
            TimeGrid(1e-300, 16),
            state_drift=ConstantCoefficient(0.0),
            control_drift=ConstantCoefficient(1e140),
            drift_offset=ConstantCoefficient(0.0),
            control_vol=ConstantCoefficient(1e-10),
            vol_offset=ConstantCoefficient(0.0),
        )
        with pytest.raises(NonFiniteResultError, match="non-finite beta"):
            with np.errstate(over="ignore"):
                solve(coeffs, ObjectiveSpec(1e150, MomentCombo((2.0,))))

    def test_concavity_between_nodes(self):
        """No input found reaches it: a cos solution whose y between nodes is
        made large enough for K to underflow to -0."""
        import dataclasses

        sol = solve(base_coeffs(16, control_drift=0.1), ObjectiveSpec(1.0, CosPenalty(1.0)))
        broken = dataclasses.replace(sol)
        broken.__dict__["_y_fn"] = lambda t: np.full(np.shape(t), 2000.0)  # the cached Hermite
        assert broken.beta_at(0.0) == sol.beta[0]  # node 0 reads the stored margins
        with pytest.raises(ConcavityError, match="between nodes"):
            broken.beta_at(0.5)


class TestBudgetOutOfRange:
    """A risk budget beyond a bounded P has no y: every solver that takes the
    family raises the family's own error, the ode march before it starts."""

    CASES = (
        (ObjectiveSpec(1.0, CosPenalty(1.0)), CosDomainError),  # budget 4 against 1
        (  # budget 36 against 0.5125
            ObjectiveSpec(3.0, AmbiguousCos(DiscreteDistribution((0.5, 1.0), (0.5, 0.5)))),
            RootBracketError,
        ),
    )

    @pytest.mark.parametrize("solver", ["auto", "closed_form", "ode"])
    @pytest.mark.parametrize("spec, error", CASES, ids=["cos", "ambiguous_cos"])
    def test_every_solver_raises_the_family_error(self, spec, error, solver):
        with pytest.raises(error, match="exceeds the reachable range"):
            solve(base_coeffs(64, control_drift=0.4), spec, solver)


class TestRiskBudgetOverflow:
    """kappa^2 theta beyond the float range is no budget P could reach: every
    solver label raises NonFiniteResultError before it solves, the ode march
    too, for families with and without a P."""

    SPECS = {
        "exp": ObjectiveSpec(1e200, ExpPenalty(1.0)),
        "mean_variance": ObjectiveSpec(1e200, MomentCombo((2.0,))),
        "order_6": ObjectiveSpec(1e200, MomentCombo((1.0, 0.0, 1.0, 0.0, 1.0))),  # no explicit P^-1
        "cos": ObjectiveSpec(1e200, CosPenalty(1.0)),
        "fourier_even": ObjectiveSpec(1e200, fourier_gaussian_amplitude()),  # no P: auto is ode
    }
    # every label that takes the family: all of them for a family with a P
    CASES = {
        f"{name}-{solver}": (spec, solver)
        for name, spec in SPECS.items()
        for solver in ("auto", *SOLVERS)
        if solver in ("auto", "ode") or spec.variant.first_integral is not None
    }

    @pytest.mark.parametrize("spec, solver", CASES.values(), ids=CASES.keys())
    def test_every_solver_label(self, spec, solver):
        with pytest.raises(NonFiniteResultError, match="risk budget"):
            solve(base_coeffs(16), spec, solver)


class TestOdeGainOverflow:
    """A gain (kappa b / d)^2 past the float range under a finite risk budget:
    the first integral solves it, the ode march raises NonFiniteResultError."""

    def test_ode_raises_a_solver_error(self):
        coeffs = CoefficientSet(
            TimeGrid(1e-20, 16),
            state_drift=ConstantCoefficient(0.0),
            control_drift=ConstantCoefficient(1e150),
            drift_offset=ConstantCoefficient(0.0),
            control_vol=ConstantCoefficient(1.0),
            vol_offset=ConstantCoefficient(0.0),
        )
        spec = ObjectiveSpec(1e10, MomentCombo((2.0,)))
        # y_0 = kappa^2 (b / d)^2 T / 4 with (kappa b / d)^2 = 1e320
        assert solve(coeffs, spec).y[0] == pytest.approx(2.5e299, rel=1e-14)
        with pytest.raises(NonFiniteResultError, match=r"gain \(kappa b / d\)\^2 overflows"):
            solve(coeffs, spec, "ode")


class TestAmbiguousCos:
    def test_reachable_budget_guard(self):
        # E-sup of the budget map is 0.85 < 2.25 for amplitudes (0.5, 1.5)
        dist = DiscreteDistribution((0.5, 1.5), (0.5, 0.5))
        with pytest.raises(RootBracketError):
            solve(base_coeffs(), ObjectiveSpec(1.0, AmbiguousCos(dist)))

    def test_solvable_case(self):
        dist = DiscreteDistribution((1.5, 2.5), (0.5, 0.5))
        sol = solve(base_coeffs(), ObjectiveSpec(1.0, AmbiguousCos(dist)))
        assert sol.solver_name == "closed_form"
        assert float(np.max(sol.integral_equation_residuals())) <= 1e-12
        assert sol.self_consistency_error() <= 5e-6
        ode = solve_ode(base_coeffs(), ObjectiveSpec(1.0, AmbiguousCos(dist)))
        np.testing.assert_allclose(ode.y, sol.y, rtol=1e-8, atol=1e-12)


class TestFourierEven:
    def test_gaussian_amplitude_identity(self):
        spec = ObjectiveSpec(1.0, fourier_gaussian_amplitude())
        sol = solve(base_coeffs(control_drift=0.1), spec)
        # budget 0.25: y_0 solves 1 - (1+y)^-2 = 2 * 0.25 -> y_0 = sqrt(2) - 1
        assert sol.y_at(0.0) == pytest.approx(math.sqrt(2.0) - 1.0, abs=1e-9)

    @staticmethod
    def counting_rows(monkeypatch) -> list:
        """A one-entry list that counts the frequency rows from now on."""
        calls = [0]
        row = FourierEvenPenalty._row

        def counting(variant, *args):
            calls[0] += 1
            return row(variant, *args)

        monkeypatch.setattr(FourierEvenPenalty, "_row", counting)
        return calls

    def test_node_rows_do_not_grow_with_grid(self, monkeypatch):
        """An ode solve plus node-array value_many and beta_many: the march's
        rows, then K and E[S] from 33-point tables, the same at n = 512 and
        4,096.  With one row per node for each they were 1,532 and 8,700."""
        spec = ObjectiveSpec(1.0, fourier_gaussian_amplitude())
        calls, counts = self.counting_rows(monkeypatch), []
        for n in (512, 4096):
            calls[0] = 0
            sol = solve_ode(base_coeffs(n, control_drift=0.1), spec)
            sol.value_many(sol.grid.nodes, 0.7)
            sol.beta_many(sol.grid.nodes)
            counts.append(calls[0])
        assert counts[0] == counts[1] < 1000

    def test_small_grids_spend_no_more_rows(self, monkeypatch, tmp_path):
        """A grid-16 ``solve`` and a 2-value kappa ``sweep`` from the command
        line spend as many rows as with the direct rows alone: a table's
        first check (33 points) would cost more than half of 17 node rows,
        so none is built."""
        from equicontrol.cli import main
        from equicontrol.objectives import Variant

        variant = fourier_gaussian_amplitude()
        cfg = tmp_path / "fourier.json"
        cfg.write_text(json.dumps({
            "horizon": 1.0,
            "grid_size": 16,
            "coefficients": {"control_drift": 0.1, "control_vol": 0.2},
            "objective": {"variant": "fourier_even", "kappa": 1.0, "frequencies": list(variant.freqs),
                          "density": list(variant.density), "atom": 1.0},
        }))
        commands = {
            "solve": ["solve"],
            "sweep": ["sweep", "--parameter", "kappa", "--values", "0.9,1.1"],
        }
        calls, counts = self.counting_rows(monkeypatch), []
        for direct in (False, True):
            if direct:
                monkeypatch.setattr(FourierEvenPenalty, "on_range", Variant.on_range)
            for name, argv in commands.items():
                calls[0] = 0
                assert main([*argv, "--config", str(cfg), "--out", str(tmp_path / name)]) == 0
                counts.append(calls[0])
        assert counts == [540, 1136] * 2


_CHOICES = ("auto", "closed_form", "algebraic", "ode")
_AMBIGUOUS = AmbiguousCos(DiscreteDistribution((1.5, 2.5), (0.5, 0.5)))
# (case, variant, control drift, solver_name for each of _CHOICES), with None
# for UnsupportedVariantError; one case per family plus an order-6 combination
_SOLVER_TABLE = [
    ("mean_variance", MomentCombo((2.0,)), 0.3, ("closed_form", "closed_form", "algebraic", "ode")),
    (
        "moment6",
        MomentCombo((1.0, 0.0, 0.5, 0.0, 0.25)),
        0.3,
        ("closed_form", "closed_form", "algebraic", "ode"),
    ),
    (
        "standardized",
        StandardizedMoments((2.0, 1.0)),
        0.3,
        ("closed_form", "closed_form", "algebraic", "ode"),
    ),
    ("exp", ExpPenalty(1.0), 0.3, ("closed_form", "closed_form", "algebraic", "ode")),
    ("cosh", CoshPenalty(1.0), 0.3, ("closed_form", "closed_form", "algebraic", "ode")),
    ("cos", CosPenalty(1.0), 0.1, ("closed_form", "closed_form", "algebraic", "ode")),
    ("ambiguous_cos", _AMBIGUOUS, 0.3, ("closed_form", "closed_form", "algebraic", "ode")),
    ("fourier_even", fourier_gaussian_amplitude(), 0.1, ("ode", None, None, "ode")),
]


def _random_curved_coeffs(rng):
    """b and d both vary in time, on a random horizon and grid."""
    return CoefficientSet(
        TimeGrid(float(rng.uniform(0.2, 3.0)), int(rng.choice([16, 64, 512]))),
        state_drift=ConstantCoefficient(float(rng.uniform(-0.5, 0.5))),
        control_drift=ExponentialCoefficient(
            float(rng.uniform(0.1, 0.5)), float(rng.uniform(-1.0, 1.0)), 0.05
        ),
        drift_offset=ConstantCoefficient(0.0),
        control_vol=ExponentialCoefficient(float(rng.uniform(0.1, 0.4)), float(rng.uniform(-1.0, 1.0))),
        vol_offset=ConstantCoefficient(0.0),
    )


def _label_pairs(rng, draw_variant, count):
    """(closed_form, algebraic) solutions of ``count`` random problems, or, for
    a budget beyond P's range, the error both labels raise."""
    pairs = []
    for _ in range(count):
        coeffs = _random_curved_coeffs(rng)
        spec = ObjectiveSpec(float(10.0 ** rng.uniform(-1.0, 1.0)), draw_variant(rng))
        try:
            explicit = solve(coeffs, spec, "closed_form")
        except (CosDomainError, RootBracketError) as exc:
            with pytest.raises(type(exc)):
                solve(coeffs, spec, "algebraic")
            continue
        pairs.append((explicit, solve(coeffs, spec, "algebraic")))
    return pairs


def _draw_high_order(rng):
    weights = rng.uniform(-1.0, 1.0, int(rng.integers(5, 8)))
    weights[::2] = np.abs(weights[::2]) + 0.01
    return MomentCombo(tuple(weights))


def _draw_ambiguous(rng):
    size = int(rng.integers(1, 5))
    probs = rng.uniform(0.1, 1.0, size)
    support = rng.uniform(0.5, 3.0, size)
    return AmbiguousCos(DiscreteDistribution(tuple(support), tuple(probs / probs.sum())))


# the families with a P but no explicit P^-1
_ROOT_SOLVED = {"order_6_and_up": _draw_high_order, "ambiguous_cos": _draw_ambiguous}


class TestLabelRule:
    """closed_form inverts P through P^-1 where it is explicit, algebraic
    always through the root solve; both take every family with a P."""

    EXPLICIT = {
        "mean_variance": lambda rng: MomentCombo((float(rng.uniform(0.1, 3.0)),)),
        "variance_kurtosis": lambda rng: MomentCombo(
            (float(rng.uniform(0.1, 3.0)), float(rng.uniform(-1.0, 1.0)), float(rng.uniform(0.1, 3.0)))
        ),
        "standardized": lambda rng: StandardizedMoments(tuple(rng.uniform(0.1, 2.0, 3))),
        "exp": lambda rng: ExpPenalty(float(10.0 ** rng.uniform(-1.0, 0.5))),
        "cosh": lambda rng: CoshPenalty(float(10.0 ** rng.uniform(-1.0, 0.5))),
        "cos": lambda rng: CosPenalty(float(10.0 ** rng.uniform(-1.0, 0.5))),
    }

    @pytest.mark.parametrize("family", EXPLICIT)
    def test_algebraic_matches_the_explicit_inverse(self, family):
        """The root solve lands within 4 ulps of P^-1 at every node."""
        pairs = _label_pairs(np.random.default_rng(23), self.EXPLICIT[family], 40)
        assert len(pairs) >= 10
        for explicit, algebraic in pairs:
            np.testing.assert_allclose(algebraic.y, explicit.y, rtol=2.0**-50, atol=0.0)

    @pytest.mark.parametrize("family", ["order_6_and_up", "ambiguous_cos"])
    def test_closed_form_is_the_root_solve_without_an_explicit_inverse(self, family):
        pairs = _label_pairs(np.random.default_rng(29), _ROOT_SOLVED[family], 30)
        assert len(pairs) >= 10
        for explicit, algebraic in pairs:
            assert explicit.solver_name == "closed_form" and algebraic.solver_name == "algebraic"
            assert explicit.y.tobytes() == algebraic.y.tobytes()
            assert explicit.beta.tobytes() == algebraic.beta.tobytes()


class TestSolveDispatch:
    def test_solver_table_covers_every_family(self):
        assert {variant.kind for _, variant, _, _ in _SOLVER_TABLE} == set(VARIANTS)

    @pytest.mark.parametrize(
        "variant, drift, choice, expected",
        [
            pytest.param(variant, drift, choice, name, id=f"{case}-{choice}")
            for case, variant, drift, names in _SOLVER_TABLE
            for choice, name in zip(_CHOICES, names)
        ],
    )
    def test_explicit_solver_choices(self, variant, drift, choice, expected):
        """Each choice gives its fixed solver_name, or UnsupportedVariantError."""
        coeffs, spec = base_coeffs(64, control_drift=drift), ObjectiveSpec(1.0, variant)
        if expected is None:
            with pytest.raises(UnsupportedVariantError):
                solve(coeffs, spec, solver=choice)
        else:
            assert solve(coeffs, spec, solver=choice).solver_name == expected

    def test_unknown_solver(self):
        with pytest.raises(DomainError):
            solve(base_coeffs(), ObjectiveSpec(1.0, MomentCombo((2.0,))), solver="magic")

    def test_closed_form_unsupported_variant(self):
        spec = ObjectiveSpec(1.0, fourier_gaussian_amplitude())
        with pytest.raises(UnsupportedVariantError):
            solve(base_coeffs(), spec, solver="closed_form")

    def test_auto_routing_per_case(self, all_solutions):
        names = {name: sol.solver_name for name, sol in all_solutions}
        closed = {n for n in names if n not in ("standardized", "fourier_even")}
        assert {n for n, s in names.items() if s == "closed_form"} == closed
        fourier = ObjectiveSpec(1.0, fourier_gaussian_amplitude())
        assert solve(base_coeffs(64, control_drift=0.1), fourier).solver_name == "ode"

    def test_auto_marches_only_without_a_first_integral(self, monkeypatch):
        """auto calls solve_ode for fourier_even, the one family with no P, and nothing else."""
        marched = []
        ode = equilibrium.solve_ode

        def counting_ode(coeffs, spec, **kwargs):
            marched.append(spec.variant.kind)
            return ode(coeffs, spec, **kwargs)

        monkeypatch.setattr(equilibrium, "solve_ode", counting_ode)
        full, small = base_coeffs(64), base_coeffs(64, control_drift=0.1)
        roster = [
            (full, MomentCombo((2.0,))),
            (full, MomentCombo((1.0, 0.0, 1.0))),
            (full, MomentCombo((1.0, 0.0, 0.5, 0.0, 0.25))),
            (full, StandardizedMoments((2.0, 1.0))),
            (full, StandardizedMoments((2.0, 0.0, 1.0))),
            (full, ExpPenalty(1.0)),
            (full, CoshPenalty(1.0)),
            (small, CosPenalty(1.0)),
            (full, AmbiguousCos(DiscreteDistribution((1.5, 2.5), (0.5, 0.5)))),
            (small, fourier_gaussian_amplitude()),
        ]
        names = [solve(coeffs, ObjectiveSpec(1.0, variant)).solver_name for coeffs, variant in roster]
        assert marched == ["fourier_even"]
        # and never picks algebraic: closed_form inverts every P
        assert names == ["closed_form"] * (len(roster) - 1) + ["ode"]
        assert solve(full, ObjectiveSpec(1.0, ExpPenalty(1.0)), solver="ode").solver_name == "ode"
        assert marched == ["fourier_even", "exp"]

    @pytest.mark.parametrize("weights", [(2.0, 1.0), (2.0, 0.0, 1.0)])
    @pytest.mark.parametrize("make_coeffs", [base_coeffs, curved_coeffs])
    def test_auto_solves_standardized_as_plain_variance(self, weights, make_coeffs):
        """K = -kappa_2 / 2 exactly, so standardized shares mean-variance's P = kappa_2^2 y."""
        coeffs = make_coeffs(512)
        sol = solve(coeffs, ObjectiveSpec(1.3, StandardizedMoments(weights)))
        plain = solve(coeffs, ObjectiveSpec(1.3, MomentCombo((weights[0],))))
        assert sol.solver_name == "closed_form"
        np.testing.assert_array_equal(sol.y, plain.y)
        np.testing.assert_array_equal(sol.beta, plain.beta)
        ode = solve_ode(coeffs, ObjectiveSpec(1.3, StandardizedMoments(weights)))
        np.testing.assert_allclose(sol.beta, ode.beta, rtol=1e-12, atol=0.0)

    def test_start_time_reads_node_zero_bitwise(self, all_solutions):
        """y at t = 0 comes from node 0 and equals the Hermite's value there bitwise."""
        for name, sol in all_solutions:
            assert sol.y_many(0.0) == max(float(sol._y_fn(0.0)), 0.0), name
            assert sol.y_at(0.0) == sol.y[0], name
            assert sol.beta_at(0.0) == sol.beta[0], name

    def test_auto_prefers_closed_form(self, all_solutions):
        names = dict(all_solutions)
        assert names["mean_variance"].solver_name == "closed_form"
        assert names["standardized"].solver_name == "ode"


class TestTinyHorizons:
    @pytest.mark.parametrize("horizon", [1.0, 0.3, 1e-9, 1e-10, 1e-11, 1e-100, 1e-300])
    def test_nodes_match_closed_form(self, horizon):
        """Times snap within 1e-12 of the horizon, so no step is too small to resolve."""
        sol = solve(base_coeffs(512, horizon=horizon), ObjectiveSpec(1.0, MomentCombo((2.0,))))
        nodes = sol.grid.nodes
        # y = kappa^2 (b / d)^2 (T - t) / kappa_2
        expect = 2.25 * (horizon - nodes) / 4.0
        np.testing.assert_allclose(sol.y, expect, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(sol.y_many(nodes), expect, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(sol.beta, 3.75, rtol=1e-12)


class TestDegenerateMean:
    def test_zero_kappa_control_is_vol_cancelling(self, all_solutions):
        sol = dict(all_solutions)["penalty_only"]
        np.testing.assert_allclose(sol.beta, 0.0, atol=1e-15)
        # u = -F/D = -0.5 kills the controlled volatility entirely
        np.testing.assert_allclose(sol.control_many(sol.grid.nodes), -0.5, rtol=1e-12)
        assert sol.y_at(0.0) == pytest.approx(0.0, abs=1e-14)


class TestSampledCoefficients:
    def test_sampled_drift_matches_constant(self, mv_solution):
        grid = TimeGrid(1.0, 512)
        coeffs = CoefficientSet(
            grid,
            state_drift=ConstantCoefficient(0.0),
            control_drift=SampledCoefficient(grid.nodes, np.full(513, 0.3)),
            drift_offset=ConstantCoefficient(0.0),
            control_vol=ConstantCoefficient(0.2),
            vol_offset=ConstantCoefficient(0.0),
        )
        sol = solve(coeffs, ObjectiveSpec(1.0, MomentCombo((2.0,))))
        np.testing.assert_allclose(sol.beta, mv_solution.beta, rtol=1e-12)


class TestCurvedCoefficients:
    def test_terminal_identities(self):
        sol = solve(curved_coeffs(), ObjectiveSpec(1.0, ExpPenalty(1.0)))
        assert sol.value(1.0, 1.3) == pytest.approx(1.3)
        assert sol.terminal_mean(1.0, 1.3) == pytest.approx(1.3)
        assert sol.self_consistency_error() <= 5e-6

    def test_self_consistency_all_cases(self, all_solutions):
        for name, sol in all_solutions:
            assert sol.self_consistency_error() <= 5e-6, name

    def test_concavity_all_cases(self, all_solutions):
        for name, sol in all_solutions:
            assert sol.margins.shape == sol.grid.nodes.shape, name
            assert sol.margins.max() < 0.0, name


class TestValueMany:
    def test_matches_per_node_formula(self, all_solutions):
        """big_theta + int b beta + scalar psi, node by node, for every variant."""
        x = 0.7
        for name, sol in all_solutions:
            kappa = sol.objective.kappa
            order = max(getattr(sol.objective.variant, "order", 2), 2)
            horizon = sol.grid.horizon
            expect = np.array(
                [
                    kappa * cf.big_theta(sol.coeffs, t, x)
                    + kappa * cf.integrate(sol.coeffs.b_nodes * sol.beta, sol.grid, t, horizon)
                    + psi(sol.objective, MomentVector.gaussian(order, sol.y_at(t)))
                    for t in sol.grid.nodes
                ]
            )
            got = sol.value_many(sol.grid.nodes, x)
            np.testing.assert_allclose(got, expect, rtol=1e-12, atol=1e-300, err_msg=name)

    def test_risk_is_one_psi_call(self, all_solutions, monkeypatch):
        """value_many and value each read psi once, on the Gaussian law of y(t)."""
        vectors = []

        def counting_psi(spec, mv):
            vectors.append(mv)
            return psi(spec, mv)

        monkeypatch.setattr(equilibrium, "psi", counting_psi)
        for name, sol in all_solutions:
            del vectors[:]
            sol.value_many(sol.grid.nodes, 0.4)
            sol.value(0.0, 0.4)
            assert len(vectors) == 2, name
            np.testing.assert_array_equal(vectors[0].gaussian_y, sol.y, err_msg=name)
            assert vectors[1].gaussian_y == sol.y[0], name

    def test_scalar_calls_are_one_element_calls(self, all_solutions):
        for name, sol in all_solutions:
            for t in (0.0, 0.3, 1.0):
                assert sol.value(t, 0.4) == sol.value_many(np.array([t]), 0.4)[0], name

    def test_off_node_matches_deterministic_evaluation(self, all_solutions):
        ts = np.array([0.0013, 0.2501, 0.61, 0.9987])
        for name, sol in all_solutions:
            got = sol.value_many(ts, -0.3)
            for t, v in zip(ts, got):
                det = evaluate_deterministic(sol, float(t), -0.3)
                assert abs(det.value - v) <= 1e-8 * (1.0 + abs(v)), (name, t)

    def test_standardized_terminal_node(self):
        """At y(T) = 0 the standardized risk vanishes: V(T, x) = kappa x."""
        sol = solve_ode(base_coeffs(64), ObjectiveSpec(1.3, StandardizedMoments((2.0, 1.0))))
        assert sol.y[-1] == 0.0
        assert sol.value_many(sol.grid.nodes, 0.5)[-1] == pytest.approx(1.3 * 0.5, abs=1e-15)

    def test_rejects_times_outside_horizon(self, mv_solution):
        with pytest.raises(DomainError):
            mv_solution.value_many(np.array([0.5, 1.5]), 0.0)


class TestTimesOutsideHorizon:
    @pytest.mark.parametrize("solver", ["closed_form", "ode"])
    def test_vector_forms_reject_them(self, solver):
        sol = solve(base_coeffs(64), ObjectiveSpec(1.0, ExpPenalty(1.0)), solver=solver)
        for method in (sol.y_many, sol.curvature_many, sol.beta_many, sol.control_many):
            for t in (-0.5, 1.5, 3.0):
                for times in (t, np.array([0.5, t])):
                    with pytest.raises(DomainError):
                        method(times)
            # within the snap width the times clamp to the horizon's ends
            np.testing.assert_array_equal(
                method(np.array([-1e-14, 1.0 + 1e-14])), method(np.array([0.0, 1.0]))
            )


class TestSelfConsistency:
    def test_equals_per_node_y_from_beta_bitwise(self, all_solutions):
        for name, sol in all_solutions:
            expect = max(
                abs(y_from_beta(sol.coeffs, sol.beta, t) - yk)
                for t, yk in zip(sol.grid.nodes, sol.y)
            )
            assert sol.self_consistency_error() == expect, name


class TestScalingProperties:
    @given(scale=st.floats(0.5, 4.0))
    @settings(max_examples=20, deadline=None)
    def test_beta_scales_inversely_with_variance_weight(self, scale):
        base = solve(base_coeffs(64), ObjectiveSpec(1.0, MomentCombo((2.0,))))
        scaled = solve(base_coeffs(64), ObjectiveSpec(1.0, MomentCombo((2.0 * scale,))))
        np.testing.assert_allclose(scaled.beta * scale, base.beta, rtol=1e-10)

    @given(x=st.floats(-5.0, 5.0), t=st.floats(0.0, 0.999))
    @settings(max_examples=30, deadline=None)
    def test_value_is_affine_in_state(self, x, t):
        """V(t, x) - V(t, 0) = kappa x e^(int_t^T a): dV/dx does not depend on
        x, which is why the equilibrium control u(t) carries no state."""
        sol = solve(curved_coeffs(64), ObjectiveSpec(1.0, ExpPenalty(1.0)))
        slope = sol.objective.kappa * math.exp(float(sol.coeffs.int_a_many(t)))
        got = sol.value(t, x) - sol.value(t, 0.0)
        assert got == pytest.approx(slope * x, rel=1e-12, abs=1e-12)

    def test_y_solves_fixed_point(self, exp_solution):
        """y_t from the solver equals the variance accumulated by its own beta."""
        got = y_from_beta(exp_solution.coeffs, exp_solution.beta, 0.0)
        assert got == pytest.approx(exp_solution.y_at(0.0), rel=1e-9)


class TestConcavityFailure:
    def test_signed_fourier_density_can_fail(self):
        """A frequency weight that makes the curvature positive is rejected."""
        from equicontrol import FourierEvenPenalty

        freqs = np.linspace(-12.0, 12.0, 1201)
        density = np.exp(-0.5 * freqs**2) / math.sqrt(2.0 * math.pi)  # positive weight
        spec = ObjectiveSpec(1.0, FourierEvenPenalty(tuple(freqs), tuple(density)))
        with pytest.raises(ConcavityError):
            solve(base_coeffs(control_drift=0.1), spec, solver="ode")


def _from_bits(n: int) -> float:
    return struct.unpack("<d", struct.pack("<q", n))[0]


_INF_BITS = struct.unpack("<q", struct.pack("<d", math.inf))[0]


def _solve_increasing_reference(fn, target):
    """Scalar bisection over the bit patterns of [0, +inf), one target at a time.

    It ends at the adjacent floats lo < hi with fn(lo) < target <= fn(hi) and
    returns the one nearer the target in fn, NaN if hi is +inf.
    """
    if target <= 0.0:
        return 0.0
    lo, hi = 0, _INF_BITS
    with np.errstate(over="ignore"):
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if fn(_from_bits(mid)) < target:
                lo = mid
            else:
                hi = mid
        if hi == _INF_BITS:
            return math.nan
        below, above = _from_bits(lo), _from_bits(hi)
        return above if abs(fn(above) - target) < abs(fn(below) - target) else below


class TestMonotoneRoot:
    def test_matches_scalar_reference_bitwise(self):
        q = np.polynomial.Polynomial([1.0, 0.5 / 3.0, 0.25 / 15.0])
        p = (q * q).integ()
        rng = np.random.default_rng(7)
        targets = np.concatenate([[0.0, -1.0, 1e-300, 5e-324, 1e300], rng.uniform(0.0, 40.0, 195)])
        got = _solve_increasing_many(p, targets)
        expect = np.array([_solve_increasing_reference(lambda z: float(p(z)), float(g)) for g in targets])
        assert got.tobytes() == expect.tobytes()

    def test_saturating_function_gives_nan_past_its_range(self):
        """fn = 2 (1 - e^-y) reaches 1.9 only at y = ln 20 and never exceeds 2:
        the target 2.5 comes back as NaN, with no floating-point warning."""

        def fn(y):
            return 2.0 * -np.expm1(-y)

        targets = np.array([0.5, 1.9, 2.5])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _solve_increasing_many(fn, targets)
        expect = [_solve_increasing_reference(lambda z: float(fn(z)), g) for g in targets]
        assert got.tobytes() == np.array(expect).tobytes()
        np.testing.assert_allclose(fn(got[:2]), targets[:2], rtol=1e-15)
        assert math.isnan(got[2])

    TARGETS = np.geomspace(1e-300, 1e300, 601)
    # the families whose P the root solve inverts with no explicit P^-1 to
    # check against: P itself is the check
    P_FAMILIES = (
        MomentCombo((2.0,)),
        MomentCombo((1.0, 0.0, 1.0)),
        MomentCombo((1.0, 0.0, 0.5, 0.0, 0.25)),
        MomentCombo((1.0, 0.3, 0.5, -0.2, 0.25, 0.1, 0.3)),
        StandardizedMoments((2.0, 1.0)),
        AmbiguousCos(DiscreteDistribution((0.5, 1.5, 2.5), (0.3, 0.3, 0.4))),
        AmbiguousCos(DiscreteDistribution((0.0, 1.5), (0.5, 0.5))),
    )

    @pytest.mark.parametrize("variant", P_FAMILIES, ids=lambda v: v.kind)
    def test_hits_any_budget(self, variant):
        """P(y) = t within 1e-15 t for every budget t from 1e-300 to 1e300
        below P's supremum, with no floating-point warning on the way."""
        integral = variant.first_integral
        targets = self.TARGETS[self.TARGETS < integral.supremum]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            y = equilibrium._invert(variant, "algebraic", targets)
        assert np.all(np.abs(integral.p(y) - targets) <= 1e-15 * targets)

    @pytest.mark.parametrize("cls", [ExpPenalty, CoshPenalty, CosPenalty], ids=lambda c: c.kind)
    @pytest.mark.parametrize("c", [0.1, 0.7, 2.3, 9.0])
    def test_agrees_with_the_explicit_inverse_at_any_budget(self, cls, c):
        """The root solve of exp, cosh and cos lands within 4 ulps of P^-1
        for every budget from 1e-300 to 1e300 below P's supremum."""
        variant = cls(c)
        integral = variant.first_integral
        targets = self.TARGETS[self.TARGETS < integral.supremum]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            y = equilibrium._invert(variant, "algebraic", targets)
        np.testing.assert_allclose(y, integral.inverse(targets), rtol=2.0**-50, atol=0.0)

    @given(
        variant=st.sampled_from(P_FAMILIES + (ExpPenalty(0.7), CoshPenalty(2.3), CosPenalty(0.7))),
        exponent=st.floats(-300.0, 300.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_no_neighbouring_float_is_nearer(self, variant, exponent):
        """The root y misses the budget t in P by no more than either float
        next to it does."""
        integral = variant.first_integral
        target = 10.0**exponent
        assume(target < integral.supremum)
        y = float(equilibrium._invert(variant, "algebraic", np.array([target]))[0])
        candidates = np.array([y, np.nextafter(y, 0.0), np.nextafter(y, np.inf)])
        with np.errstate(over="ignore"):
            miss = np.abs(integral.p(candidates) - target)
        assert miss[0] <= miss[1] and miss[0] <= miss[2]

    def test_solve_at_a_huge_budget_warns_nothing(self):
        """kappa = 1e60 on an order-6 combination: the budget 2.25e120 is far
        above its root, and the solve hits it with no warning."""
        spec = ObjectiveSpec(1e60, MomentCombo((1.0, 0.0, 0.5, 0.0, 0.25)))
        coeffs = base_coeffs(64)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = solve(coeffs, spec)
        budget = 1e120 * coeffs.theta_eval(0.0)
        p = spec.variant.first_integral.p
        assert float(p(sol.y[:1])[0]) == pytest.approx(budget, rel=1e-15)
