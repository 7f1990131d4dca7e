import dataclasses
import inspect
import io
import json
import math
import os
import token
import tokenize

import numpy as np
import pytest

from equicontrol import (
    AmbiguousCos,
    CoefficientSet,
    ConfigError,
    ConstantCoefficient,
    DiscreteDistribution,
    DomainError,
    ExpPenalty,
    MomentCombo,
    ObjectiveSpec,
    TimeGrid,
    solve,
)
from equicontrol import verify as verify_module
from equicontrol.verify import (
    _MC_BLOCK,
    MC_SEED_RANGE,
    PdeResidualReport,
    _default_threads,
    _mc_block_sums,
    evaluate_deterministic,
    fbsde_diagonal_check,
    monte_carlo,
    pde_residual_check,
    spike_test,
    value_consistency_check,
    verification_report,
)

from cases import base_coeffs, curved_coeffs, fourier_gaussian_amplitude, solve_all
from oracles import gaussian_law_objective


@pytest.fixture(scope="module")
def mv_solution():
    return solve(base_coeffs(), ObjectiveSpec(1.0, MomentCombo((2.0,))))


@pytest.fixture(scope="module")
def exp_solution():
    return solve(base_coeffs(), ObjectiveSpec(1.0, ExpPenalty(1.0)))


@pytest.fixture(scope="module")
def curved_mv_solution():
    return solve(curved_coeffs(64), ObjectiveSpec(1.0, MomentCombo((2.0,))))


@pytest.fixture(scope="module")
def strong_drift_mv_solution():
    coeffs = CoefficientSet(
        TimeGrid(1.0, 64),
        state_drift=ConstantCoefficient(2.0),
        control_drift=ConstantCoefficient(0.3),
        drift_offset=ConstantCoefficient(0.0),
        control_vol=ConstantCoefficient(0.2),
        vol_offset=ConstantCoefficient(0.0),
    )
    return solve(coeffs, ObjectiveSpec(1.0, MomentCombo((2.0,))))


@pytest.fixture(scope="module")
def all_solutions():
    return solve_all()


def _constant(level):
    return lambda s: np.full(np.shape(s), float(level))


class TestEvaluateDeterministic:
    """Constant controls go through the Gaussian-law oracle of ``tests/oracles.py``."""

    def test_constant_control_oracle(self, mv_solution):
        """u = 1 on dX = 0.3 u dt + 0.2 u dW: mean 0.3, variance 0.04."""
        coeffs = mv_solution.coeffs
        spec = mv_solution.objective
        mean, variance, value = gaussian_law_objective(coeffs, spec, 0.0, 0.0, _constant(1.0))
        assert mean == pytest.approx(0.3, rel=1e-13)
        assert variance == pytest.approx(0.04, rel=1e-13)
        assert value == pytest.approx(0.3 - 0.04, rel=1e-12)

    def test_start_state_shift(self, mv_solution):
        mean, _, _ = gaussian_law_objective(
            mv_solution.coeffs, mv_solution.objective, 0.0, 2.0, _constant(1.0)
        )
        assert mean == pytest.approx(2.3, rel=1e-13)

    def test_terminal_time(self, mv_solution):
        mean, variance, value = gaussian_law_objective(
            mv_solution.coeffs, mv_solution.objective, 1.0, 0.7, _constant(1.0)
        )
        assert mean == pytest.approx(0.7)
        assert variance == 0.0
        assert value == pytest.approx(0.7)

    def test_equilibrium_is_better_than_alternatives(self, mv_solution):
        """The equilibrium control (the production table) beats nearby constant
        controls (the oracle) from t = 0."""
        coeffs, spec = mv_solution.coeffs, mv_solution.objective
        best = evaluate_deterministic(mv_solution, 0.0, 0.0).value
        for level in (0.0, 2.0, 3.0, 4.5, 6.0):
            other = gaussian_law_objective(coeffs, spec, 0.0, 0.0, _constant(level))[2]
            assert other <= best + 1e-12
        # and the constant 3.75 control IS the equilibrium here
        same = gaussian_law_objective(coeffs, spec, 0.0, 0.0, _constant(3.75))[2]
        assert same == pytest.approx(best, rel=1e-12)

    def test_terminal_time_of_the_table(self, mv_solution):
        out = evaluate_deterministic(mv_solution, 1.0, 0.7)
        assert out.variance == 0.0
        assert out.mean == pytest.approx(0.7)
        assert out.value == pytest.approx(0.7)


class TestSpikeTest:
    def test_mean_variance_frozen_limit(self, mv_solution):
        report = spike_test(mv_solution, 0.0, (1.0,))[0]
        assert report.extrapolated == pytest.approx(-0.04, abs=1e-9)
        assert report.predicted_limit == pytest.approx(-0.04, rel=1e-12)
        assert report.passed

    def test_exp_frozen_limit(self, exp_solution):
        report = spike_test(exp_solution, 0.0, (1.0,))[0]
        assert report.predicted_limit == pytest.approx(-0.03605551275463989, rel=1e-12)
        assert report.passed

    def test_quadratic_in_zeta(self, mv_solution):
        small, large = spike_test(mv_solution, 0.5, (1.0, 2.0))
        assert large.extrapolated == pytest.approx(4.0 * small.extrapolated, rel=1e-6)

    def test_zero_perturbation(self, mv_solution):
        report = spike_test(mv_solution, 0.0, (0.0,))[0]
        assert report.extrapolated == 0.0
        assert report.predicted_limit == 0.0
        assert report.passed

    def test_near_horizon_guard(self, mv_solution):
        with pytest.raises(DomainError):
            spike_test(mv_solution, 1.0, (1.0,))

    def test_custom_epsilons_validated(self, mv_solution):
        with pytest.raises(DomainError):
            spike_test(mv_solution, 0.9, (1.0,), epsilons=(0.5,))

    @pytest.mark.parametrize("epsilons", [(1e-13, 2e-13), (1e-300,), (0.5, 1e-12)])
    def test_widths_must_exceed_the_snap_width(self, mv_solution, epsilons):
        """A window within the snap width of its start would merge with it."""
        with pytest.raises(DomainError, match=r"\(snap, horizon - t\] = \(1e-12, 0\.5\]"):
            spike_test(mv_solution, 0.5, (1.0,), epsilons=epsilons)
        assert spike_test(mv_solution, 0.5, (1.0,), epsilons=(2e-12, 1e-6))[0].passed

    def test_repeated_widths_rejected(self, mv_solution):
        with pytest.raises(DomainError, match="must differ"):
            spike_test(mv_solution, 0.0, (1.0,), epsilons=(0.1, 0.05, 0.1))

    @pytest.mark.parametrize("epsilons", [(0.5, 0.1), (0.5, 0.05), (0.1, 0.5)])
    def test_extrapolation_uses_the_two_smallest_widths(self, all_solutions, epsilons):
        """r(eps) = L + c eps gives L = (e1 r2 - e2 r1) / (e1 - e2) for any two widths;
        2 r2 - r1 assumed e1 = 2 e2 and read -0.0843 against -0.0693 at (0.5, 0.1)."""
        sol = dict(all_solutions)["cos_penalty"]
        report = spike_test(sol, 0.0, (2.0,), epsilons=epsilons)[0]
        assert report.passed
        (e1, r1), (e2, r2) = sorted(zip(report.epsilons, report.ratios))[:2]
        assert report.extrapolated == (e1 * r2 - e2 * r1) / (e1 - e2)
        if epsilons == (0.5, 0.1):
            assert report.extrapolated == pytest.approx(-0.06874, abs=1e-5)
            assert report.predicted_limit == pytest.approx(-0.0693, abs=1e-4)

    def test_default_widths_keep_the_halving_extrapolation(self, all_solutions):
        for name, sol in all_solutions:
            report = spike_test(sol, 0.5, (1.0,))[0]
            r = report.ratios
            assert report.extrapolated == pytest.approx(2.0 * r[-1] - r[-2], rel=1e-12, abs=1e-15)

    def test_suite_all_cases(self, all_solutions):
        for name, sol in all_solutions:
            for t in (0.0, 0.5, 0.9):
                for report in spike_test(sol, t, (-1.0, 0.5)):
                    assert report.passed, (name, t, report.zeta, report.extrapolated)


class TestFbsdeDiagonal:
    def test_mean_variance_frozen_values(self, mv_solution):
        report = fbsde_diagonal_check(mv_solution, 0.0)
        assert report.adjoint == pytest.approx(1.0)
        assert report.adjoint_diffusion == pytest.approx(-1.5, rel=1e-12)
        assert report.second_adjoint == pytest.approx(-2.0, rel=1e-12)
        assert report.optimality_residual <= 1e-14
        assert report.passed

    def test_exp_second_adjoint(self, exp_solution):
        report = fbsde_diagonal_check(exp_solution, 0.0)
        assert report.second_adjoint == pytest.approx(-math.sqrt(3.25), rel=1e-12)
        assert report.passed

    def test_all_nodes_all_cases(self, all_solutions):
        for name, sol in all_solutions:
            kappa = sol.objective.kappa
            for t in sol.grid.nodes:
                report = fbsde_diagonal_check(sol, float(t))
                assert report.optimality_residual <= 1e-8 * (1.0 + kappa), (name, t)
                assert report.second_adjoint_negative, (name, t)

    def test_off_nodes_all_cases(self, all_solutions):
        """Every family takes beta and the check's K from the same y(t)."""
        times = np.random.default_rng(5).uniform(0.0, 1.0, 20)
        for name, sol in all_solutions:
            kappa = sol.objective.kappa
            for t in times:
                report = fbsde_diagonal_check(sol, float(t))
                assert report.optimality_residual <= 1e-15 * (1.0 + kappa), (name, t)
                assert report.second_adjoint_negative, (name, t)

    def test_fourier_even_off_nodes(self):
        """Between nodes the loading and the check both take K at y(t), so
        the optimality residual is rounding off the nodes too."""
        spec = ObjectiveSpec(1.0, fourier_gaussian_amplitude())
        sol = solve(base_coeffs(64, control_drift=0.1), spec, "ode")
        times = [0.9, 0.123457, *np.random.default_rng(3).uniform(0.0, 1.0, 5).tolist()]
        for t in times:
            assert fbsde_diagonal_check(sol, t).optimality_residual <= 1e-15, t


class TestPdeResiduals:
    def test_mean_variance(self, mv_solution):
        report = pde_residual_check(mv_solution)
        assert report.passed
        for row in report.rows:
            assert row.scaled_residual <= 1e-8

    def test_exp(self, exp_solution):
        report = pde_residual_check(exp_solution)
        assert report.passed
        assert report.terminal_gap <= 1e-12

    def test_curved(self):
        sol = solve(curved_coeffs(), ObjectiveSpec(1.0, ExpPenalty(1.0)))
        assert pde_residual_check(sol).passed

    @staticmethod
    def ode_mean_variance(horizon):
        return solve(
            base_coeffs(64, horizon=horizon), ObjectiveSpec(1.0, MomentCombo((2.0,))), solver="ode"
        )

    @pytest.mark.parametrize("horizon", [1e-9, 1e-200])
    def test_short_horizons_pass(self, horizon):
        """The stencil differentiates m_j - x^j, which scales with the horizon."""
        report = pde_residual_check(self.ode_mean_variance(horizon))
        assert report.passed
        assert max(row.scaled_residual for row in report.rows) <= 1e-10

    @pytest.mark.parametrize("horizon", [1.0, 1e-9])
    def test_variance_error_fails(self, horizon):
        """y off by 0.1% breaks the moment equations of order 2 and up."""
        sol = self.ode_mean_variance(horizon)
        wrong = dataclasses.replace(sol, y=1.001 * sol.y)
        report = pde_residual_check(wrong)
        assert not report.passed
        assert all(row.scaled_residual > 1e-5 for row in report.rows if row.order >= 2)

    def test_stencil_bounds(self, mv_solution):
        with pytest.raises(DomainError):
            pde_residual_check(mv_solution, t_samples=(0.0,))

    @pytest.mark.parametrize("orders", [(-1,), (0, 2), (2, 9)])
    def test_orders_outside_range(self, mv_solution, orders):
        with pytest.raises(DomainError, match="1..8"):
            pde_residual_check(mv_solution, orders=orders)

    def test_numpy_verdicts_are_json_ready(self):
        """A nonzero numpy terminal gap makes a numpy bool verdict; the report stays JSON."""
        gap = np.float64(1e-9)
        report = PdeResidualReport((), gap, gap <= 1e-10)
        plain = verify_module._plain(report)
        assert plain == {"rows": [], "terminal_gap": 1e-9, "passed": False}
        assert type(plain["passed"]) is bool
        assert json.loads(json.dumps(plain)) == plain

    def test_plain_arrays_and_mappings(self):
        plain = verify_module._plain({1: np.array([0.5, 2.0]), "rows": (np.int64(3),)})
        assert plain == {"1": [0.5, 2.0], "rows": [3]}
        assert type(plain["1"][0]) is float and type(plain["rows"][0]) is int


class TestMonteCarlo:
    def test_mean_variance_small(self, mv_solution):
        report = monte_carlo(mv_solution, 0.0, seed=7, num_paths=100_000, num_steps=512)
        assert report.passed
        assert report.mean_target == pytest.approx(1.125, rel=1e-12)
        targets = {row.order: row.target for row in report.rows}
        assert targets[2] == pytest.approx(0.5625, rel=1e-12)
        assert targets[3] == 0.0
        assert targets[4] == pytest.approx(0.94921875, rel=1e-12)

    def test_deterministic_given_seed(self, mv_solution):
        a = monte_carlo(mv_solution, 0.0, seed=42, num_paths=50_000, num_steps=128)
        b = monte_carlo(mv_solution, 0.0, seed=42, num_paths=50_000, num_steps=128)
        assert a.mean_estimate == b.mean_estimate
        assert [r.estimate for r in a.rows] == [r.estimate for r in b.rows]

    def test_thread_count_does_not_change_result(self, mv_solution, monkeypatch):
        kwargs = dict(seed=42, num_paths=300_000, num_steps=64)
        monkeypatch.setenv("EQUICONTROL_THREADS", "1")
        a = monte_carlo(mv_solution, 0.0, **kwargs)
        monkeypatch.setenv("EQUICONTROL_THREADS", "4")
        b = monte_carlo(mv_solution, 0.0, **kwargs)
        assert (a.threads, b.threads) == (1, 3)  # three blocks
        assert a.mean_estimate == b.mean_estimate
        assert [r.estimate for r in a.rows] == [r.estimate for r in b.rows]

    def test_seed_changes_sample_noise(self, mv_solution):
        a = monte_carlo(mv_solution, 0.0, seed=1, num_paths=20_000, num_steps=64)
        b = monte_carlo(mv_solution, 0.0, seed=2, num_paths=20_000, num_steps=64)
        assert a.mean_estimate != b.mean_estimate
        assert a.passed and b.passed

    def test_degenerate_volatility(self, all_solutions):
        """kappa = 0 with F != 0: the control cancels all volatility, so the
        terminal state is deterministic and sampling error is exactly zero."""
        sol = dict(all_solutions)["penalty_only"]
        report = monte_carlo(sol, 0.7, seed=3, num_paths=10_000, num_steps=128)
        assert report.passed
        assert report.mean_std_error == 0.0
        # u = -F/D = -0.5 leaves the deterministic drift B u = -0.15
        assert report.mean_estimate == pytest.approx(0.55, abs=1e-12)
        assert report.mean_target == pytest.approx(0.55, rel=1e-12)

    def test_resource_guards(self, mv_solution):
        with pytest.raises(DomainError):
            monte_carlo(mv_solution, 0.0, seed=1, num_paths=2**25, num_steps=2**10)
        with pytest.raises(DomainError):
            monte_carlo(mv_solution, 0.0, seed=1, num_paths=100, num_steps=8, orders=(2, 12))
        with pytest.raises(DomainError):
            monte_carlo(mv_solution, 0.0, seed=1, num_paths=1, num_steps=8)
        with pytest.raises(DomainError, match="at least 1 time step"):
            monte_carlo(mv_solution, 0.0, seed=1, num_paths=100, num_steps=0)

    @pytest.mark.parametrize("seed", [2**63, 2**64 - 1, 2**64, 2**70, -(2**63) - 1])
    def test_seed_outside_key_range(self, mv_solution, seed):
        with pytest.raises(DomainError):
            monte_carlo(mv_solution, 0.0, seed=seed, num_paths=100, num_steps=8)

    def test_workers_run_under_callers_errstate(self):
        """kappa = 1e40 overflows the power sums in a pool thread: raised, as the caller asks."""
        sol = solve(base_coeffs(), ObjectiveSpec(1e40, MomentCombo((2.0,))))
        with np.errstate(over="raise"):
            with pytest.raises(FloatingPointError):
                monte_carlo(sol, 0.0, seed=1, num_paths=64, num_steps=8)

    def test_seed_range_ends_run(self, mv_solution):
        lo, hi = MC_SEED_RANGE
        assert (lo, hi) == (-(2**63), 2**63 - 1)
        for seed in (lo, hi):
            report = monte_carlo(mv_solution, 0.0, seed=seed, num_paths=100, num_steps=8)
            assert report.seed == seed

    @staticmethod
    def combined_mean_verdict(report, dt):
        """The mean check as one band: Euler endpoint plus noise mean against 3 standard errors."""
        err = abs(report.mean_estimate - report.mean_target)
        if report.mean_std_error > 0.0:
            return err <= 3.0 * report.mean_std_error
        return err <= dt * (1.0 + abs(report.mean_target))

    @pytest.mark.parametrize("x0", [10.0, 100.0, 1000.0])
    def test_large_start_state_passes(self, curved_mv_solution, x0):
        """The endpoint's Euler bias grows with |x0| and is not sampling noise."""
        report = monte_carlo(curved_mv_solution, x0, seed=2, num_paths=20_000, num_steps=256)
        assert report.mean_passed and report.passed
        # one band over endpoint and noise fails here once |x0| reaches 100
        assert self.combined_mean_verdict(report, 1.0 / 256) == (x0 < 100.0)

    @pytest.mark.parametrize("x0", [100.0, -100.0])
    def test_strong_state_drift_passes(self, x0):
        """With state drift 2 the endpoint's Euler bias, about
        x0 e^2 (1 - e^(-2 dt)) = 5.7 at 256 steps, is twice dt (1 + |target|);
        the check allows it through the endpoint at half the step."""
        coeffs = CoefficientSet(
            TimeGrid(1.0, 64),
            state_drift=ConstantCoefficient(2.0),
            control_drift=ConstantCoefficient(0.3),
            drift_offset=ConstantCoefficient(0.0),
            control_vol=ConstantCoefficient(0.2),
            vol_offset=ConstantCoefficient(0.0),
        )
        sol = solve(coeffs, ObjectiveSpec(1.0, MomentCombo((2.0,))))
        steps = 256
        report = monte_carlo(sol, x0, seed=2, num_paths=20_000, num_steps=steps)
        gap = abs(report.mean_estimate - report.mean_target)
        assert gap > 1.5 * (1.0 + abs(report.mean_target)) / steps
        assert not self.combined_mean_verdict(report, 1.0 / steps)
        assert report.mean_passed and report.passed

    def test_shifted_terminal_mean_fails(self, curved_mv_solution, monkeypatch):
        sol = curved_mv_solution
        x0, steps = 100.0, 256
        target = sol.terminal_mean(0.0, x0)
        shift = 10.0 * (1.0 + abs(target)) / steps
        monkeypatch.setattr(type(sol), "terminal_mean", lambda self, t, x: target + shift)
        report = monte_carlo(sol, x0, seed=2, num_paths=20_000, num_steps=steps)
        assert report.mean_target == target + shift
        assert not report.mean_passed and not report.passed
        assert all(row.passed for row in report.rows)

    @pytest.mark.parametrize("variant", [
        MomentCombo((2.0,)),
        AmbiguousCos(DiscreteDistribution((1.5, 2.5), (0.5, 0.5))),
    ], ids=lambda v: v.kind)
    def test_default_runs_keep_their_verdict(self, variant):
        """On the default run (200k x 1024 paths, seed 20240801, x0 = 0) of the
        verify-default benchmark configs the split check reaches the one-band
        verdict, so verification.json keeps its bytes."""
        sol = solve(base_coeffs(512), ObjectiveSpec(1.0, variant))
        report = monte_carlo(sol, 0.0, seed=20240801, num_paths=200_000, num_steps=1024)
        assert report.mean_passed == self.combined_mean_verdict(report, 1.0 / 1024)
        assert report.passed

    @pytest.mark.parametrize("steps, paths", [(64, 20_000), (256, 200_000)])
    def test_strong_drift_moment_rows_pass(self, strong_drift_mv_solution, steps, paths):
        """With state drift 2 the Euler law's variance lies below y0 by an Euler
        bias (0.05 at 64 steps) that no number of paths shrinks; the rows test the
        sample against that law and the law against y0 with the mean's allowance."""
        report = monte_carlo(
            strong_drift_mv_solution, 0.0, seed=20240801, num_paths=paths, num_steps=steps
        )
        assert report.passed
        variance = report.rows[0]
        assert abs(variance.estimate - variance.target) > 3.0 * variance.std_error

    def test_moved_moment_target_fails(self, strong_drift_mv_solution, monkeypatch):
        sol, steps = strong_drift_mv_solution, 64
        dt = 1.0 / steps
        var_e = verify_module._noise_free_law(0.0, *verify_module._euler_steps(sol, steps), dt)[1]
        var_half = verify_module._noise_free_law(
            0.0, *verify_module._euler_steps(sol, 2 * steps), dt / 2
        )[1]
        y0 = sol.y_at(0.0)
        shift = 10.0 * max(dt * (1.0 + y0), 3.0 * abs(var_e - var_half))
        monkeypatch.setattr(type(sol), "y_at", lambda self, t: y0 + shift)
        report = monte_carlo(
            sol, 0.0, seed=20240801, num_paths=20_000, num_steps=steps, orders=(2,)
        )
        assert report.rows[0].target == y0 + shift
        assert report.mean_passed and not report.rows[0].passed and not report.passed

    def test_zero_error_rows_keep_the_step_allowance(self, all_solutions, monkeypatch):
        """Rows without sampling error compare the sample with the target directly."""
        sol = dict(all_solutions)["penalty_only"]
        report = monte_carlo(sol, 0.7, seed=3, num_paths=10_000, num_steps=128)
        assert all(row.std_error == 0.0 and row.passed for row in report.rows)
        monkeypatch.setattr(type(sol), "y_at", lambda self, t: 2.0 / 128)
        report = monte_carlo(sol, 0.7, seed=3, num_paths=10_000, num_steps=128)
        assert report.rows[0].std_error == 0.0 and not report.rows[0].passed


class TestValueConsistency:
    def test_all_cases(self, all_solutions):
        for name, sol in all_solutions:
            for t in (0.0, 0.5):
                for x in (-1.0, 0.0, 2.0):
                    check = value_consistency_check(sol, x, t=t)
                    assert check.passed, (name, t, x, check.gap)


class TestVerificationReport:
    def test_full_report_json_ready(self, mv_solution):
        report = verification_report(
            mv_solution,
            x0=0.0,
            spike={},
            fbsde={},
            pde={},
            monte_carlo_cfg={"num_paths": 20_000, "num_steps": 128},
        )
        encoded = json.dumps(report)
        decoded = json.loads(encoded)
        assert decoded["passed"] is True
        assert len(decoded["spike"]["cases"]) == 18
        assert decoded["integral_equation"]["passed"] is True
        assert decoded["monte_carlo"]["num_paths"] == 20_000

    def test_core_only(self, exp_solution):
        report = verification_report(exp_solution)
        assert "spike" not in report
        assert "monte_carlo" not in report
        assert report["passed"]

    def test_impossible_tolerance_fails(self, exp_solution):
        report = verification_report(exp_solution, x0=1.0, value_tol=0.0)
        assert not report["value_consistency"]["passed"]
        assert not report["passed"]

    def test_self_consistency_scales_with_large_variance(self):
        """At kappa = 1e6, y(0) = 5.6e11 and the rounding gap exceeds the absolute tol."""
        sol = solve(base_coeffs(512), ObjectiveSpec(1e6, MomentCombo((2.0,))))
        section = verification_report(sol)["self_consistency"]
        assert section["error"] > section["tol"] == 5e-6
        assert section["passed"]
        off = dataclasses.replace(sol, y=sol.y * (1.0 + 1e-3))
        assert not verification_report(off)["self_consistency"]["passed"]

    def test_self_consistency_is_absolute_below_unit_variance(self, mv_solution):
        assert float(mv_solution.y.max()) < 1.0
        assert verification_report(mv_solution)["self_consistency"]["passed"]
        # a gap of 5.6e-6 fails against the absolute 5e-6, as it always did
        off = dataclasses.replace(mv_solution, y=mv_solution.y * (1.0 + 1e-5))
        section = verification_report(off)["self_consistency"]
        assert 5e-6 < section["error"] < 6e-6
        assert not section["passed"]


# ---------------------------------------------------------------- reference
# Copies of the routines as they were before the in-place Monte Carlo step and
# the shared spike quadrature; the rewrites must reproduce them bitwise.


def _reference_mc_block_sums(x0, drift, growth, vol, sqdt, n_paths, key, max_power):
    rng = np.random.Generator(np.random.Philox(key=key))
    x = np.full(n_paths, float(x0))
    for k in range(drift.size):
        x = x * growth[k] + drift[k] + vol[k] * sqdt * rng.standard_normal(n_paths)
    sums = np.empty(max_power)
    p = x.copy()
    sums[0] = p.sum()
    for j in range(1, max_power):
        p *= x
        sums[j] = p.sum()
    return sums


def _reference_evaluate(sol, t, x, window=None):
    """The objective of the equilibrium control plus delta on [start, stop), for
    ``window`` = (start, stop, delta), evaluated as before the terminal-law table.

    Every grid node and window edge is a cut (cuts within the snap width merge),
    each piece takes composite Simpson on ``np.linspace`` points, and one dot
    product sums all pieces.  Returns (mean, variance, value, number of points).
    """
    from equicontrol.moments import MomentVector
    from equicontrol.objectives import psi

    coeffs, spec, grid = sol.coeffs, sol.objective, sol.grid
    t = grid.require_time(t)
    horizon = grid.horizon
    start, stop, delta = window if window is not None else (t, horizon, 0.0)
    snap = 1e-12 * max(1.0, horizon)
    edges = (*grid.nodes.tolist(), start, stop)
    cuts = sorted({t, horizon, *(float(s) for s in edges if t + snap < s < horizon - snap)})
    pts, wts, mids = [], [], []
    prev = cuts[0]
    for s in cuts[1:]:
        if s - prev <= snap:
            continue
        nsub = max(1, math.ceil((s - prev) / grid.step - 1e-9))
        n = 2 * nsub
        w = np.empty(n + 1)
        h = (s - prev) / nsub
        w[0] = w[-1] = h / 6.0
        w[1:-1:2] = 4.0 * h / 6.0
        w[2:-1:2] = 2.0 * h / 6.0
        pts.append(np.linspace(prev, s, n + 1))
        wts.append(w)
        mids.append(np.full(n + 1, 0.5 * (prev + s)))
        prev = s
    pts, wts, mids = (np.concatenate(a) for a in (pts, wts, mids))
    u = sol.control_many(pts) + delta * ((mids >= start) & (mids < stop))
    growth = np.exp(coeffs.int_a_many(pts))
    b = np.asarray(coeffs.control_drift(pts), dtype=float)
    c = np.asarray(coeffs.drift_offset(pts), dtype=float)
    d = np.asarray(coeffs.control_vol(pts), dtype=float)
    f = np.asarray(coeffs.vol_offset(pts), dtype=float)
    mean = x * coeffs.growth_at(t) + float(np.dot(wts, growth * (b * u + c)))
    variance = max(float(np.dot(wts, growth * growth * (d * u + f) ** 2)), 0.0)
    value = spec.kappa * mean + psi(spec, MomentVector.gaussian(spec.gaussian_order, variance))
    return mean, variance, value, pts.size


def _reference_spike(sol, t, zeta, x=0.0):
    """The per-case loop at the default widths: two evaluations, each with its own
    quadrature, per width.  Returns the ratios, their Richardson limit, the
    predicted limit and, per width, the rounding that the two evaluations can
    leave in the ratio.

    Each evaluation sums N weighted terms for the mean and for the variance.
    Recursive summation rounds such a sum by at most N u times the sum of the
    magnitudes of its terms (u the unit roundoff), so J = kappa mean + psi carries
    at most about N u (|kappa mean| + |psi|).  The ratio subtracts two such J and
    divides by eps, so it carries at most 2 N u (|kappa mean| + |psi|) / eps.
    """
    from equicontrol.objectives import curvature_sum

    unit = np.finfo(float).eps / 2.0
    remaining = sol.grid.horizon - t
    ratios, bounds = [], []
    for eps in tuple(remaining * 2.0**-k for k in range(4, 11)):
        stop = min(t + eps, sol.grid.horizon)
        evaluations = [_reference_evaluate(sol, t, x, (t, stop, amp)) for amp in (0.0, zeta)]
        (_, _, j0, _), (_, _, j1, _) = evaluations
        ratios.append((j1 - j0) / eps)
        scale = max(
            abs(sol.objective.kappa * mean) + abs(value - sol.objective.kappa * mean)
            for mean, _, value, _ in evaluations
        )
        bounds.append(2.0 * evaluations[0][3] * unit * scale / eps)
    d_t = float(sol.coeffs.control_vol(t))
    predicted = (
        math.exp(2.0 * sol.coeffs.int_a_at(t))
        * d_t
        * d_t
        * zeta
        * zeta
        * curvature_sum(sol.objective, sol.y_at(t))
    )
    return tuple(ratios), 2.0 * ratios[-1] - ratios[-2], predicted, tuple(bounds)


class TestMonteCarloInPlace:
    @pytest.mark.parametrize("n_paths", [2, 1000, _MC_BLOCK + 17])
    def test_block_sums_match_reference_bitwise(self, n_paths):
        """Curved coefficients and a partial block; the noise part starts at 0 with no drift."""
        rng = np.random.default_rng(11)
        steps = 24
        growth = 1.0 + 0.003 * rng.normal(size=steps)
        vol = 0.2 + 0.05 * rng.normal(size=steps)
        args = (growth, vol, math.sqrt(1.0 / steps), n_paths, [5, 3], 8)
        new = _mc_block_sums(*args)
        ref = _reference_mc_block_sums(0.0, np.zeros(steps), *args)
        assert new.tobytes() == ref.tobytes()

    def test_curved_solution_matches_reference_bitwise(self, monkeypatch):
        """A whole run on curved coefficients, x0 != 0, two blocks, the second partial."""
        sol = solve(curved_coeffs(64), ObjectiveSpec(1.0, ExpPenalty(1.0)))
        monkeypatch.setenv("EQUICONTROL_THREADS", "2")
        kwargs = dict(seed=9, num_paths=_MC_BLOCK + 1001, num_steps=16)
        new = monte_carlo(sol, 0.4, **kwargs)

        def reference(growth, *rest):
            return _reference_mc_block_sums(0.0, np.zeros_like(growth), growth, *rest)

        monkeypatch.setattr(verify_module, "_mc_block_sums", reference)
        old = monte_carlo(sol, 0.4, **kwargs)
        assert new == old

    def test_large_start_states_keep_the_sampling_error(self, mv_solution):
        """Shifting x0 moves only the mean: central moments and errors stay bitwise equal."""
        kwargs = dict(seed=5, num_paths=20_000, num_steps=64)
        base = monte_carlo(mv_solution, 0.0, **kwargs)
        assert base.passed
        for x0 in (1e2, 1e4, 1e5):
            shifted = monte_carlo(mv_solution, x0, **kwargs)
            assert shifted.rows == base.rows, x0
            assert shifted.mean_std_error == base.mean_std_error, x0
            gap = shifted.mean_estimate - shifted.mean_target
            assert gap == pytest.approx(base.mean_estimate - base.mean_target, abs=1e-12 * x0)
            assert shifted.passed, x0

    def test_default_thread_count_matches_serial(self, mv_solution, monkeypatch):
        monkeypatch.delenv("EQUICONTROL_THREADS", raising=False)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
        kwargs = dict(seed=42, num_paths=2 * _MC_BLOCK + 5, num_steps=16)
        default = monte_carlo(mv_solution, 0.0, **kwargs)
        monkeypatch.setenv("EQUICONTROL_THREADS", "1")
        serial = monte_carlo(mv_solution, 0.0, **kwargs)
        assert default.threads == 3  # four CPUs, capped at the three blocks
        assert serial.threads == 1
        assert dataclasses.replace(default, threads=1) == serial

    def test_default_is_usable_cpu_count(self, monkeypatch):
        monkeypatch.delenv("EQUICONTROL_THREADS", raising=False)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(5)), raising=False)
        assert _default_threads() == 5
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 6)
        assert _default_threads() == 6

    def test_environment_thread_count(self, monkeypatch):
        monkeypatch.setenv("EQUICONTROL_THREADS", " 3 ")
        assert _default_threads() == 3

    @pytest.mark.parametrize("raw", ["0", "-2", "1.5", "two"])
    def test_invalid_environment_thread_count(self, raw, monkeypatch):
        monkeypatch.setenv("EQUICONTROL_THREADS", raw)
        with pytest.raises(ConfigError, match="EQUICONTROL_THREADS"):
            _default_threads()

    def test_pool_is_capped_at_block_count(self, mv_solution, monkeypatch):
        monkeypatch.setenv("EQUICONTROL_THREADS", "4")
        report = monte_carlo(mv_solution, 0.0, seed=1, num_paths=1000, num_steps=8)
        assert report.threads == 1


def _names(source: str) -> set:
    """The names in the code of ``source``; strings and comments do not count."""
    tokens = tokenize.generate_tokens(io.StringIO(source).readline)
    return {tok.string for tok in tokens if tok.type == token.NAME}


# the production suffix rules that the terminal-law table checks
_PRODUCTION_SUFFIX_RULES = {
    "value_many",
    "_terminal_mean_parts",
    "_feedback_quadrature",
    "offset_eval",
    "theta_eval",
    "SuffixQuadrature",
    "suffix_integrals",
}


class TestSpikeSuite:
    ZETAS = (-2.0, 0.5, 1.0)

    def test_matches_per_case_reference(self, all_solutions):
        """Within the rounding that the reference's two evaluations leave in a ratio."""
        worst = 0.0
        for name, sol in all_solutions:
            for t in (0.0, 0.5, 0.9):
                reports = spike_test(sol, t, self.ZETAS)
                assert [r.zeta for r in reports] == list(self.ZETAS)
                for zeta, report in zip(self.ZETAS, reports):
                    ratios, extrapolated, predicted, bounds = _reference_spike(sol, t, zeta)
                    assert spike_test(sol, t, (zeta,))[0] == report
                    for new, old, bound in zip(report.ratios, ratios, bounds):
                        assert abs(new - old) <= bound, (name, t, zeta, new, old, bound)
                        worst = max(worst, abs(new - old) / bound)
                    # 2 r7 - r6 carries 2 b7 + b6 = 2.5 b7, since b doubles as eps halves
                    assert abs(report.extrapolated - extrapolated) <= 3.0 * bounds[-1]
                    assert report.predicted_limit == predicted, (name, t, zeta)
        assert worst > 0.0

    def test_evaluate_deterministic_matches_reference(self, all_solutions):
        unit = np.finfo(float).eps / 2.0
        for name, sol in all_solutions:
            for t, x in ((0.0, 0.0), (0.3, -1.0), (0.6001, 2.0)):
                out = evaluate_deterministic(sol, t, x)
                mean, variance, value, points = _reference_evaluate(sol, t, x)
                scale = abs(sol.objective.kappa * mean) + abs(value - sol.objective.kappa * mean)
                assert abs(out.mean - mean) <= 2.0 * points * unit * (1.0 + abs(mean)), name
                assert abs(out.variance - variance) <= 2.0 * points * unit * variance, name
                assert abs(out.value - value) <= 2.0 * points * unit * scale, name

    def test_window_edge_within_snap_of_a_node_merges(self, all_solutions):
        """A window edge closer to a node than the snap width cuts nowhere new."""
        for name, sol in all_solutions:
            law = verify_module._TerminalLaw(sol)
            node = float(sol.grid.nodes[128])
            snap = sol.grid.snap
            for t in (0.0, 0.1):
                windows = law.between(t, [node, node + 0.5 * snap, node - 0.5 * snap])
                assert (windows == windows[:, :1]).all(), name

    def test_window_inside_one_cell_is_one_piece(self, mv_solution):
        """A window shorter than a cell takes one Simpson piece, exact on a constant control."""
        law = verify_module._TerminalLaw(mv_solution)
        t = 0.25 + 0.1 * mv_solution.grid.step
        eps = 1e-6
        _, _, drift, cross, square = law.between(t, [t + eps])[:, 0]
        # b = 0.3, d = 0.2, f = 0, u = 3.75 and no state drift
        assert drift == pytest.approx(0.3 * eps, rel=1e-9)
        assert cross == pytest.approx(0.2 * 0.2 * 3.75 * eps, rel=1e-9)
        assert square == pytest.approx(0.04 * eps, rel=1e-9)

    @pytest.mark.parametrize("num_steps", [64, 512])
    def test_one_table_per_suite_call(self, num_steps, monkeypatch):
        """One for the value check, one per spike start time (not per width and
        amplitude) and one for the pde stencil."""
        builds = []
        build = verify_module._TerminalLaw.__init__

        def counting(self, sol):
            builds.append(sol)
            build(self, sol)

        monkeypatch.setattr(verify_module._TerminalLaw, "__init__", counting)
        sol = solve(base_coeffs(num_steps), ObjectiveSpec(1.0, MomentCombo((2.0,))))
        report = verification_report(sol, spike={}, pde={})
        assert len(report["spike"]["cases"]) == 18
        assert builds == [sol] * (1 + 3 + 1)

    def test_report_runs_spikes_through_spike_test(self, mv_solution, monkeypatch):
        """The report's spikes go through ``verify.spike_test``, once per
        default start time, so a wrapper of that name sees the whole suite."""
        starts = []
        original = verify_module.spike_test

        def counting(sol, t, *args, **kwargs):
            starts.append(t)
            return original(sol, t, *args, **kwargs)

        monkeypatch.setattr(verify_module, "spike_test", counting)
        report = verification_report(mv_solution, spike={})
        assert starts == [0.0, 0.5, 0.9]
        assert len(report["spike"]["cases"]) == 18

    def test_table_names_no_production_suffix_rule(self):
        source = "".join(
            inspect.getsource(obj)
            for obj in (
                verify_module._TerminalLaw,
                verify_module.evaluate_deterministic,
                verify_module.spike_test,
                verify_module._moment_excess,
            )
        )
        assert not _names(source) & _PRODUCTION_SUFFIX_RULES

    def test_name_scan_skips_strings_and_comments(self):
        source = (
            'def f(sol):\n    """Unlike value_many."""  # nor offset_eval\n'
            "    return sol.value_many(0.0, 1.0)\n"
        )
        assert _names(source) & _PRODUCTION_SUFFIX_RULES == {"value_many"}


@pytest.mark.parametrize("call", [
    lambda sol: pde_residual_check(sol, orders=()),
    lambda sol: pde_residual_check(sol, t_samples=()),
    lambda sol: pde_residual_check(sol, x_samples=()),
    lambda sol: verification_report(sol, spike={"times": ()}),
    lambda sol: verification_report(sol, fbsde={"times": ()}),
    lambda sol: spike_test(sol, 0.5, zetas=()),
    lambda sol: spike_test(sol, 0.5, (1.0,), epsilons=()),
    lambda sol: monte_carlo(sol, 0.0, seed=1, num_paths=100, num_steps=8, orders=()),
], ids=["pde-orders", "pde-times", "pde-states", "spike-times", "fbsde-times",
        "spike-zetas", "spike-epsilons", "mc-orders"])
def test_empty_suite_inputs_rejected(mv_solution, call):
    """An empty list would check nothing and report PASS, or fail untyped."""
    with pytest.raises(DomainError, match="need at least one"):
        call(mv_solution)
