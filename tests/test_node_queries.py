"""Node queries come from the stored arrays, and the node spline is lazy.

A solution answers y, K and beta at node 0 and at the node array from the
arrays its solver produced; the ``ode`` and fourier_even node splines are
built, and scipy imported, only on the first query between nodes.  The
off-node numbers are those of the spline as it was built eagerly in every
``ode`` solve, kept below as ``eager_node_spline``.
"""

import json
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
import scipy.interpolate

import equicontrol
from equicontrol import ExpPenalty, ObjectiveSpec, solve
from equicontrol.cli import main
from equicontrol.equilibrium import solve_ode
from equicontrol.objectives import curvature_sum

from cases import base_coeffs, criterion_02_draws, curved_coeffs, solve_all

_SRC = str(Path(equicontrol.__file__).resolve().parents[1])

_STANDARDIZED_ODE = {
    "horizon": 1.0,
    "grid_size": 64,
    "coefficients": {"control_drift": 0.3, "control_vol": 0.2},
    "objective": {"variant": "standardized", "kappa": 1.0, "weights": [2.0, 1.0]},
    "solver": "ode",
}


def eager_node_spline(grid, values):
    """The node spline as every ``ode`` solve built it before it became lazy."""
    spline = scipy.interpolate.CubicSpline(grid.nodes / grid.horizon, values)
    return lambda t: spline(np.asarray(t, dtype=float) / grid.horizon)


def eager_y_and_beta(sol, t):
    """y and beta between nodes from eagerly built splines, in the solution's operation order."""
    y = np.maximum(np.asarray(eager_node_spline(sol.grid, sol.y)(t), dtype=float), 0.0)
    if sol.objective.variant.cheap_curvature:
        margins = curvature_sum(sol.objective, t, y)
    else:
        margins = np.asarray(eager_node_spline(sol.grid, sol.margins)(t), dtype=float)
    b = np.asarray(sol.coeffs.control_drift(t), dtype=float)
    d = np.asarray(sol.coeffs.control_vol(t), dtype=float)
    return y, sol.objective.kappa * b / d**2 * (-0.5 / margins)


@pytest.fixture(scope="module")
def node_solutions():
    """Every solve_all(512) entry, and the criterion-02 draws by both of their solvers."""
    sols = [sol for _, sol in solve_all(512)]
    coeffs = base_coeffs(512)
    for spec in criterion_02_draws():
        sols += [solve_ode(coeffs, spec), solve(coeffs, spec, solver="algebraic")]
    return sols


@pytest.fixture(scope="module")
def ode_solutions():
    """The solutions whose y_fn is the node spline: ode marches, fourier_even among them."""
    sols = [sol for _, sol in solve_all(512) if sol.solver_name == "ode"]
    sols.append(solve(curved_coeffs(512), ObjectiveSpec(1.0, ExpPenalty(1.0)), solver="ode"))
    assert {s.objective.variant.kind for s in sols} >= {"fourier_even", "standardized", "exp"}
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


class TestOffNodeUnchanged:
    def test_matches_eager_spline_bitwise(self, ode_solutions):
        for sol in ode_solutions:
            rng = np.random.default_rng(11)
            t = rng.uniform(0.0, sol.grid.horizon, 1000)
            y, beta = eager_y_and_beta(sol, t)
            assert np.array_equal(sol.y_many(t), y), sol.objective.variant.kind
            assert np.array_equal(sol.beta_many(t), beta), sol.objective.variant.kind


class TestSplineBuiltOnce:
    @pytest.fixture
    def constructions(self, monkeypatch):
        count = []
        original = scipy.interpolate.CubicSpline

        def counting(*args, **kwargs):
            count.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(scipy.interpolate, "CubicSpline", counting)
        return count

    def test_commands_build_no_spline(self, tmp_path, constructions):
        for objective in (_STANDARDIZED_ODE["objective"], {"variant": "exp", "kappa": 1.0, "c": 1.0}):
            cfg = tmp_path / "c.json"
            cfg.write_text(json.dumps({**_STANDARDIZED_ODE, "objective": objective}))
            out = str(tmp_path / "out")
            assert main(["solve", "--config", str(cfg), "--out", out]) == 0
            argv = ["sweep", "--config", str(cfg), "--out", out, "--parameter", "kappa"]
            assert main(argv + ["--values", "0.5,1,2"]) == 0
        assert len(constructions) == 0

    def test_first_off_node_query_builds_it_once(self, constructions):
        sol = solve(base_coeffs(64), ObjectiveSpec(1.0, ExpPenalty(1.0)), solver="ode")
        sol.y_many(sol.grid.nodes)
        sol.beta_many(sol.grid.nodes)
        assert len(constructions) == 0
        sol.y_many(np.array([0.25, 0.3]))
        assert len(constructions) == 1
        sol.y_many(0.7)
        sol.beta_many(np.array([0.1, 0.9]))
        assert len(constructions) == 1


def test_scipy_enters_only_with_verify(tmp_path):
    """solve and sweep of an ode config load no scipy module; verify does."""
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({
        **_STANDARDIZED_ODE,
        "verification": {"monte_carlo": {"num_paths": 1000, "num_steps": 16}},
    }))
    script = textwrap.dedent(f"""
        import sys
        sys.path.insert(0, {_SRC!r})
        import equicontrol
        import equicontrol.cli as cli

        def scipy_loaded():
            return any(name == "scipy" or name.startswith("scipy.") for name in sys.modules)

        out = {str(tmp_path / "out")!r}
        assert cli.main(["solve", "--config", {str(cfg)!r}, "--out", out]) == 0
        assert cli.main(["sweep", "--config", {str(cfg)!r}, "--out", out,
                         "--parameter", "kappa", "--values", "0.5,1,2"]) == 0
        print("after solve and sweep:", scipy_loaded())
        assert cli.main(["verify", "--config", {str(cfg)!r}, "--out", out]) == 0
        print("after verify:", scipy_loaded())
    """)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "after solve and sweep: False" in proc.stdout
    assert "after verify: True" in proc.stdout
