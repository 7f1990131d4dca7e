"""Node queries come from the node arrays; between nodes there is one rule.

At node 0 and at the node array a solution reads no coefficient path and no
quadrature: y and K are the stored ``y`` and ``margins``, beta comes from
``margins`` with ``b_nodes`` and ``d_nodes`` (not from the stored ``beta``),
the control adds ``int_a_nodes``, ``d_nodes`` and ``f_nodes``, and the value
and the terminal mean read ``growth`` and the suffix quadratures'
``at_nodes``.  A scalar query at t = 0 equals entry 0 of the node-array
query bitwise, and both equal the between-node formulas evaluated at the
nodes.  Between nodes every solution, whichever solver gave it, takes the
cubic Hermite through y_k and its exact slope y'_k = -(d_k beta_k)^2, and K
and beta follow from y(t).  Its accuracy is checked against a 64x finer
solve, and no command loads scipy.
"""

import json
import math
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import equicontrol
from equicontrol import (
    CoefficientSet,
    ConstantCoefficient,
    CosPenalty,
    ExpPenalty,
    ExponentialCoefficient,
    MomentCombo,
    ObjectiveSpec,
    PolynomialCoefficient,
    TimeGrid,
    curvature_sum,
    solve,
)
from equicontrol.coeffs import SuffixQuadrature
from equicontrol.equilibrium import SOLVERS, solve_ode
from equicontrol.moments import MomentVector
from equicontrol.objectives import psi
from equicontrol.verify import verification_report

from cases import base_coeffs, criterion_02_draws, fourier_gaussian_amplitude, solve_all, solved_cases

_SRC = str(Path(equicontrol.__file__).resolve().parents[1])
_FINER = 64  # the reference solve's grid, in multiples of the tested one

_STANDARDIZED_ODE = {
    "horizon": 1.0,
    "grid_size": 64,
    "coefficients": {"control_drift": 0.3, "control_vol": 0.2},
    "objective": {"variant": "standardized", "kappa": 1.0, "weights": [2.0, 1.0]},
    "solver": "ode",
}


@pytest.fixture(scope="module")
def node_solutions():
    """Every solve_all(512) entry, and the criterion-02 draws by both of their solvers."""
    sols = [sol for _, sol in solve_all(512)]
    coeffs = base_coeffs(512)
    for spec in criterion_02_draws():
        sols += [solve_ode(coeffs, spec), solve(coeffs, spec, solver="algebraic")]
    return sols


class TestNodeQueries:
    def test_node_array_returns_stored_arrays(self, node_solutions):
        for sol in node_solutions:
            nodes = sol.grid.nodes
            assert np.array_equal(sol.y_many(nodes), sol.y)
            assert np.array_equal(sol.curvature_many(nodes), sol.margins)
            assert np.array_equal(sol.beta_many(nodes), sol.beta)
            assert sol.y_at(0.0) == sol.y[0]
            assert sol.beta_at(0.0) == sol.beta[0]


def random_times(horizon=1.0):
    return np.random.default_rng(11).uniform(0.0, horizon, 100_000)


def labels(spec):
    """Every solver label that takes the family: all of them with a P, else ``ode``."""
    return list(SOLVERS) if spec.variant.first_integral is not None else ["ode"]


def time_varying_coeffs(num_steps):
    """b and d both vary in time, so theta has no closed form."""
    return CoefficientSet(
        TimeGrid(1.0, num_steps),
        state_drift=ConstantCoefficient(0.0),
        control_drift=ExponentialCoefficient(0.3, -2.0, 0.1),
        drift_offset=ConstantCoefficient(0.0),
        control_vol=ExponentialCoefficient(0.2, 0.5),
        vol_offset=ConstantCoefficient(0.0),
    )


TIME_VARYING_SPECS = {
    "mean_variance": ObjectiveSpec(1.0, MomentCombo((2.0,))),
    "variance_kurtosis": ObjectiveSpec(1.0, MomentCombo((1.0, 0.0, 1.0))),
    "exp": ObjectiveSpec(1.0, ExpPenalty(1.0)),
}


def all_varying_coeffs(num_steps):
    """a, b, c, d and f all nonzero and all varying in time."""
    return CoefficientSet(
        TimeGrid(1.0, num_steps),
        state_drift=ExponentialCoefficient(0.4, -1.0, 0.1),
        control_drift=ExponentialCoefficient(0.3, -2.0, 0.1),
        drift_offset=PolynomialCoefficient((0.2, -0.3, 0.5)),
        control_vol=ExponentialCoefficient(0.2, 0.5),
        vol_offset=PolynomialCoefficient((0.05, 0.1, -0.02)),
    )


def between_node_answers(sol, t, x):
    """beta, control, value and the two terminal-mean parts by the between-node
    formulas (the paths and both suffix quadratures evaluated at t), with the
    stored y and margins at t = the nodes or t = 0."""
    c, spec = sol.coeffs, sol.objective
    k = slice(None) if np.ndim(t) else 0
    b, d, f = (np.asarray(p(t), dtype=float) for p in (c.control_drift, c.control_vol, c.vol_offset))
    int_a = c.int_a_many(t)
    beta = spec.kappa * b / d**2 * (-0.5 / sol.margins[k])
    control = beta * np.exp(-int_a) - f / d
    offset = x * np.exp(int_a) + c.offset_eval(t)
    feedback = SuffixQuadrature(c.b_nodes * sol.beta, sol.grid)(t)
    risk = psi(spec, MomentVector.gaussian(spec.gaussian_order, sol.y[k]))
    value = spec.kappa * offset + spec.kappa * feedback + risk
    return beta, control, value, offset, feedback


@pytest.fixture(scope="module")
def node_path_solutions():
    """(constant coefficients?, solution): solve_all(512), and three families on
    ``all_varying_coeffs(512)`` by their first integral and by ``ode``."""
    sols = [(name != "curved_exp", sol) for name, sol in solve_all(512)]
    for spec in TIME_VARYING_SPECS.values():
        sols += [(False, solve(all_varying_coeffs(512), spec, s)) for s in ("auto", "ode")]
    return sols


class TestNodePathsAgree:
    X = 0.7

    def test_scalar_node_is_node_array_entry(self, node_path_solutions):
        """control, value, beta and the terminal mean at t = 0 are entry 0 of
        the node-array answers, and the terminal mean is the value's mean part."""
        x = self.X
        for _, sol in node_path_solutions:
            nodes = sol.grid.nodes
            kind = sol.objective.variant.kind
            assert sol.control(0.0) == sol.control_many(nodes)[0], kind
            assert sol.value(0.0, x) == sol.value_many(nodes, x)[0], kind
            assert sol.beta_at(0.0) == sol.beta_many(nodes)[0], kind
            c = sol.coeffs
            offset = x * c.growth[0] + c.offset_eval.at_nodes[0]
            feedback = SuffixQuadrature(c.b_nodes * sol.beta, sol.grid).at_nodes[0]
            assert sol.terminal_mean(0.0, x) == float(offset + feedback), kind

    def test_node_answers_match_between_node_formulas(self, node_path_solutions):
        """Bitwise on constant coefficients, within 1e-15 relative elsewhere."""
        x = self.X
        for constant, sol in node_path_solutions:
            nodes = sol.grid.nodes
            kind = sol.objective.variant.kind
            beta, control, value, offset, feedback = between_node_answers(sol, nodes, x)
            got = (sol.beta_many(nodes), sol.control_many(nodes), sol.value_many(nodes, x))
            at_zero = between_node_answers(sol, 0.0, x)
            got_zero = (sol.beta_at(0.0), sol.control(0.0), sol.value(0.0, x))
            pairs = [*zip(got, (beta, control, value)), *zip(got_zero, at_zero)]
            pairs.append((sol.terminal_mean(0.0, x), at_zero[3] + at_zero[4]))
            for answer, expect in pairs:
                if constant:
                    np.testing.assert_array_equal(answer, expect, err_msg=kind)
                else:
                    np.testing.assert_allclose(answer, expect, rtol=1e-15, atol=0.0, err_msg=kind)

    @pytest.mark.parametrize("horizon", [0.7, 1.37, 3.3, 17.0])
    def test_call_at_the_horizon_is_exact(self, horizon):
        """On the first three grids of this horizon where num_steps x step
        exceeds it, a call at the nodes is ``at_nodes`` bit for bit, T's
        exact 0 included, and so a between-node value query ending at T
        meets the node-array query there."""
        sizes = [n for n in range(2, 5000) if n * (horizon / n) > horizon][:3]
        assert len(sizes) == 3
        for n in sizes:
            coeffs = base_coeffs(n, horizon=horizon)
            nodes = coeffs.grid.nodes
            sq = SuffixQuadrature(np.exp(-nodes / horizon) + 0.1, coeffs.grid)
            np.testing.assert_array_equal(sq(nodes), sq.at_nodes, err_msg=str(n))
            assert sq(horizon) == 0.0
            sol = solve(coeffs, ObjectiveSpec(1.0, MomentCombo((2.0,))))
            assert sol.value_many(nodes[1:], self.X)[-1] == sol.value_many(nodes, self.X)[-1], n

    def test_first_integral_y_vanishes_at_the_horizon(self):
        """The budget reads theta's node array, whose last entry is the exact 0
        even where num_steps x step exceeds the horizon (0.7 on 35 cells)."""
        coeffs = base_coeffs(35, horizon=0.7)
        assert coeffs.grid.num_steps * coeffs.grid.step > coeffs.grid.horizon
        for solver in ("closed_form", "algebraic"):
            sol = solve(coeffs, ObjectiveSpec(1.0, MomentCombo((2.0,))), solver)
            assert sol.y[-1] == 0.0, solver


class TestBetweenNodes:
    """y between nodes against a 64x finer first-integral solve, on 1e5 random times."""

    @pytest.mark.parametrize("num_steps, bound", [(64, 1e-7), (512, 2e-11)])
    def test_constant_coefficients(self, num_steps, bound):
        """Every solver of every family with a P; the Hermite's own error is O(h^4)."""
        t = random_times()
        fine = {name: (coeffs, spec) for name, coeffs, spec, _ in solved_cases(_FINER * num_steps)}
        for name, coeffs, spec, _ in solved_cases(num_steps):
            if spec.variant.first_integral is None:
                continue
            reference = solve(*fine[name]).y_many(t)
            for solver in labels(spec):
                err = np.max(np.abs(solve(coeffs, spec, solver).y_many(t) - reference))
                assert err <= bound, (name, solver, err)

    @pytest.mark.parametrize("name", TIME_VARYING_SPECS)
    def test_time_varying_coefficients(self, name):
        """With theta from a quadrature, a first-integral solution's error between
        nodes is its error at the nodes; the ode nodes are closer, and the
        Hermite keeps the constant-coefficient bound."""
        spec = TIME_VARYING_SPECS[name]
        fine = solve(time_varying_coeffs(_FINER * 512), spec)
        t = random_times()
        reference = fine.y_many(t)
        for solver in labels(spec):
            sol = solve(time_varying_coeffs(512), spec, solver)
            node_err = np.max(np.abs(sol.y - fine.y[::_FINER]))
            err = np.max(np.abs(sol.y_many(t) - reference))
            bound = 2e-11 if solver == "ode" else 2.0 * node_err + 1e-12
            assert err <= bound, (solver, err, node_err)

    def test_curvature_and_loading_at_y(self):
        """Every family takes K(y(t)) at the Hermite y and beta from the
        pointwise condition, bitwise."""
        t = random_times()
        for name, sol in solve_all(512):
            curvature = curvature_sum(sol.objective, sol.y_many(t))
            assert np.array_equal(sol.curvature_many(t), curvature), name
            b = sol.coeffs.control_drift(t)
            d = sol.coeffs.control_vol(t)
            beta = sol.objective.kappa * b / d**2 * (-0.5 / curvature)
            assert np.array_equal(sol.beta_many(t), beta), name

    def test_continuous_at_the_nodes(self, node_solutions):
        """Just off each node, K and beta from y(t) meet the stored node arrays."""
        for sol in node_solutions:
            nodes = sol.grid.nodes
            for t, k in ((nodes[1:] - 1e-12, slice(1, None)), (nodes[:-1] + 1e-12, slice(None, -1))):
                np.testing.assert_allclose(sol.curvature_many(t), sol.margins[k], rtol=1e-9, atol=0.0)
                np.testing.assert_allclose(sol.beta_many(t), sol.beta[k], rtol=1e-9, atol=0.0)

    def test_curvature_stays_within_cell_margins(self, node_solutions):
        """y(t) stays within its cell's node values and K is monotone in y for
        every tested family, so K(y(t)) stays within the cell's margins."""
        t = random_times()
        for sol in node_solutions:
            k = np.searchsorted(sol.grid.nodes, t, side="right") - 1
            k = np.minimum(k, sol.grid.num_steps - 1)
            lower = np.minimum(sol.margins[k], sol.margins[k + 1])
            upper = np.maximum(sol.margins[k], sol.margins[k + 1])
            curvature = sol.curvature_many(t)
            assert np.all((lower <= curvature) & (curvature <= upper)), sol.objective.variant.kind

    def test_fourier_even_narrow_window_verifies(self):
        """Half-width 6.2: the curvature integrand has decayed below the edge gate
        at y = 0, and so at every y >= 0.  Queries between nodes evaluate K at
        the Hermite y, so every verification suite must accept the window the
        solve accepted."""
        spec = ObjectiveSpec(1.0, fourier_gaussian_amplitude(half_width=6.2, samples=1241))
        sol = solve(base_coeffs(64, control_drift=0.1), spec, "ode")
        assert np.all(np.isfinite(sol.curvature_many(random_times())))
        mc = {"seed": 1, "num_paths": 1000, "num_steps": 16}
        report = verification_report(sol, spike={}, pde={}, monte_carlo_cfg=mc)
        assert report["passed"], report

    def test_stays_within_cell_values(self, node_solutions):
        t = random_times()
        for sol in node_solutions:
            k = np.searchsorted(sol.grid.nodes, t, side="right") - 1
            k = np.minimum(k, sol.grid.num_steps - 1)
            y = sol.y_many(t)
            assert np.all((sol.y[k + 1] <= y) & (y <= sol.y[k])), sol.objective.variant.kind

    def test_under_resolved_cos(self):
        """Grid 4 with a fast-decaying drift loading: the partial-cell theta between
        nodes exceeded the checked node budget, and the cos inverse gave NaN."""
        coeffs = CoefficientSet(
            TimeGrid(1.0, 4),
            state_drift=ConstantCoefficient(0.0),
            control_drift=ExponentialCoefficient(1.0, -8.0),
            drift_offset=ConstantCoefficient(0.0),
            control_vol=ConstantCoefficient(1.0),
            vol_offset=ConstantCoefficient(0.0),
        )
        kappa = math.sqrt(0.999999 / float(coeffs.theta_eval(0.0)))
        sol = solve(coeffs, ObjectiveSpec(kappa, CosPenalty(1.0)))
        t = np.array([0.025])
        y, beta = sol.y_many(t), sol.beta_many(t)
        assert np.all(np.isfinite(y)) and np.all(np.isfinite(beta))
        assert sol.y[1] <= y[0] <= sol.y[0]


def test_scipy_never_loaded(tmp_path):
    """solve, sweep and verify (the pde suite on) of an ode config and a
    fourier_even config load no scipy module."""
    fourier = np.linspace(-12.0, 12.0, 2401)
    configs = {
        "ode": _STANDARDIZED_ODE,
        "fourier_even": {
            **_STANDARDIZED_ODE,
            "coefficients": {"control_drift": 0.1, "control_vol": 0.2},
            "objective": {
                "variant": "fourier_even",
                "kappa": 1.0,
                "frequencies": fourier.tolist(),
                "density": (-np.exp(-0.5 * fourier**2) / np.sqrt(2.0 * np.pi)).tolist(),
                "atom": 1.0,
            },
        },
    }
    paths = []
    for name, cfg in configs.items():
        path = tmp_path / f"{name}.json"
        verification = {"pde": True, "monte_carlo": {"num_paths": 1000, "num_steps": 16}}
        path.write_text(json.dumps({**cfg, "verification": verification}))
        paths.append(str(path))
    script = textwrap.dedent(f"""
        import sys
        sys.path.insert(0, {_SRC!r})
        import equicontrol.cli as cli

        def scipy_loaded():
            return any(name == "scipy" or name.startswith("scipy.") for name in sys.modules)

        out = {str(tmp_path / "out")!r}
        for cfg in {paths!r}:
            assert cli.main(["solve", "--config", cfg, "--out", out]) == 0
            assert cli.main(["sweep", "--config", cfg, "--out", out,
                             "--parameter", "kappa", "--values", "0.5,1"]) == 0
            assert cli.main(["verify", "--config", cfg, "--out", out]) == 0
            print(cfg, "scipy loaded:", scipy_loaded())
    """)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("scipy loaded: False") == 2, proc.stdout
