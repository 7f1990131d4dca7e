import argparse
import contextlib
import csv
import inspect
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings

from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import equicontrol
from equicontrol import ConfigError, ObjectiveSpec
from equicontrol import coeffs as cf
from equicontrol import equilibrium
from equicontrol.cli import (
    _CSV_BLOCK_ROWS,
    _DEFAULT_TOLERANCES,
    _SWEEP_PARAMETERS,
    Problem,
    _write_csv,
    build_problem,
    main,
    parse_objective,
)
from equicontrol.equilibrium import EquilibriumSolution
from equicontrol.objectives import VARIANTS
from equicontrol.sweep import _sweep_problem
from equicontrol.verify import verification_report

from cases import base_coeffs, curved_coeffs


def write_config(path, **overrides):
    cfg = {
        "horizon": 1.0,
        "grid_size": 512,
        "x0": 0.0,
        "coefficients": {"control_drift": 0.3, "control_vol": 0.2},
        "objective": {"variant": "moment_combo", "kappa": 1.0, "weights": [2.0]},
        "solver": "auto",
    }
    cfg.update(overrides)
    path.write_text(json.dumps(cfg))
    return path


@pytest.fixture
def mv_config(tmp_path):
    return write_config(tmp_path / "mv.json")


def read_csv(path):
    with open(path) as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


class TestSolve:
    def test_writes_strategy_table(self, mv_config, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["solve", "--config", str(mv_config), "--out", str(out)]) == 0
        header, rows = read_csv(out / "solution.csv")
        assert header == ["t", "y", "beta", "control_at_x0", "value_at_x0"]
        assert len(rows) == 513
        beta = np.array([float(r[2]) for r in rows])
        np.testing.assert_allclose(beta, 3.75, rtol=1e-12)
        assert float(rows[0][1]) == pytest.approx(0.5625, rel=1e-12)
        # terminal row: y = 0 and V(T, x0) = kappa x0 = 0
        assert float(rows[-1][1]) == pytest.approx(0.0, abs=1e-14)
        assert float(rows[-1][4]) == pytest.approx(0.0, abs=1e-14)

    def test_manifest_records_solver_choice(self, mv_config, tmp_path):
        out = tmp_path / "out"
        main(["solve", "--config", str(mv_config), "--out", str(out)])
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["solver_requested"] == "auto"
        assert manifest["solver_used"] == "closed_form"
        assert len(manifest["config_sha256"]) == 64
        assert manifest["tolerances"]["ode"] == 1e-8

    def test_manifest_records_the_package_version(self, mv_config, tmp_path):
        """package_version is ``equicontrol.__version__``, the version pyproject.toml declares."""
        tomllib = pytest.importorskip("tomllib")
        out = tmp_path / "out"
        main(["solve", "--config", str(mv_config), "--out", str(out)])
        manifest = json.loads((out / "manifest.json").read_text())
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        project = tomllib.loads(pyproject.read_text())["project"]
        assert manifest["package_version"] == equicontrol.__version__ == project["version"]

    def test_byte_reproducible(self, mv_config, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["solve", "--config", str(mv_config), "--out", str(out1)])
        main(["solve", "--config", str(mv_config), "--out", str(out2)])
        assert (out1 / "solution.csv").read_bytes() == (out2 / "solution.csv").read_bytes()

    def test_grid_override(self, mv_config, tmp_path):
        out = tmp_path / "out"
        main(["solve", "--config", str(mv_config), "--out", str(out), "--grid", "64"])
        _, rows = read_csv(out / "solution.csv")
        assert len(rows) == 65

    def test_standardized_kurtosis_solves(self, tmp_path):
        """A standardized kurtosis weight leaves the mean-variance loading."""
        cfg = write_config(
            tmp_path / "std.json",
            objective={"variant": "standardized", "kappa": 1.3, "weights": [2.0, 0.0, 1.0]},
        )
        out = tmp_path / "out"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
        _, rows = read_csv(out / "solution.csv")
        beta = np.array([float(r[2]) for r in rows])
        np.testing.assert_allclose(beta, 3.75 * 1.3, rtol=0.0, atol=1e-12)

    def test_solver_override(self, mv_config, tmp_path):
        out = tmp_path / "out"
        main(["solve", "--config", str(mv_config), "--out", str(out), "--solver", "ode"])
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["solver_used"] == "ode"

    def test_exponential_drift_at_a_tiny_rate_is_the_constant_drift(self, tmp_path):
        """A state drift e^(1e-300 t) writes the value column of the drift 1."""
        values = []
        for state_drift in ({"type": "exponential", "scale": 1.0, "rate": 1e-300}, 1.0):
            coefficients = {"state_drift": state_drift, "control_drift": 0.3, "control_vol": 0.2}
            cfg = write_config(tmp_path / "c.json", x0=1.0, coefficients=coefficients)
            out = tmp_path / f"out{len(values)}"
            assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
            _, rows = read_csv(out / "solution.csv")
            values.append(np.array([float(r[4]) for r in rows]))
        np.testing.assert_allclose(values[0], values[1], rtol=4e-16, atol=0.0)

    def test_algebraic_solves_an_exponential_penalty(self, tmp_path):
        """algebraic root-solves every first integral, exp's explicit one too."""
        objective = {"variant": "exp", "kappa": 1.0, "c": 1.0}
        cfg = write_config(tmp_path / "c.json", grid_size=64, objective=objective, solver="algebraic")
        out = tmp_path / "out"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["solver_used"] == "algebraic"

    def test_order_six_root_at_a_large_budget(self, tmp_path):
        """kappa = 1e6 on an order-6 combination: the budget 2.25e12 lies far
        above its root, and y_0 is that root to 1e-12, under -W error too."""
        cfg = write_config(
            tmp_path / "c.json",
            grid_size=64,
            objective={"variant": "moment_combo", "kappa": 1e6, "weights": [1.0, 0.0, 0.5, 0.0, 0.25]},
        )
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
        _, rows = read_csv(out / "solution.csv")
        y0 = float(rows[0][1])
        assert y0 == pytest.approx(1626.3796767622, rel=1e-12)


class TestConfigErrors:
    def test_missing_file(self, tmp_path, capsys):
        assert main(["solve", "--config", str(tmp_path / "nope.json")]) == 2
        assert "config error" in capsys.readouterr().err

    def test_invalid_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"horizon": 1.0')
        assert main(["solve", "--config", str(bad)]) == 2

    def test_unknown_top_level_key(self, tmp_path):
        cfg = write_config(tmp_path / "c.json")
        raw = json.loads(cfg.read_text())
        raw["horizonn"] = 2.0
        cfg.write_text(json.dumps(raw))
        assert main(["solve", "--config", str(cfg)]) == 2

    def test_missing_required_coefficient(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", coefficients={"control_drift": 0.3})
        assert main(["solve", "--config", str(cfg)]) == 2

    @pytest.mark.parametrize("key", ["coefficients", "objective"])
    def test_missing_section(self, tmp_path, capsys, key):
        cfg = write_config(tmp_path / "c.json")
        raw = json.loads(cfg.read_text())
        del raw[key]
        cfg.write_text(json.dumps(raw))
        assert main(["solve", "--config", str(cfg)]) == 2
        assert f"missing required key {key!r}" in capsys.readouterr().err

    def test_boolean_coefficient(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "c.json", coefficients={"control_drift": True, "control_vol": 0.2}
        )
        assert main(["solve", "--config", str(cfg)]) == 2
        assert "coefficients.control_drift must be a number or an object" in capsys.readouterr().err

    def test_bad_objective_variant(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.json",
            objective={"variant": "quantile", "kappa": 1.0},
        )
        assert main(["solve", "--config", str(cfg)]) == 2

    def test_negative_weight_rejected(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "c.json",
            objective={"variant": "moment_combo", "kappa": 1.0, "weights": [-2.0]},
        )
        assert main(["solve", "--config", str(cfg)]) == 2

    def test_penalty_scale_with_overflowing_square(self, tmp_path, capsys):
        """c^2 = inf once solved to y0 = 0; now the config is refused."""
        cfg = write_config(
            tmp_path / "c.json",
            objective={"variant": "exp", "kappa": 1.0, "c": 1.35e154},
        )
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert "penalty scale c must be positive with a finite c^2" in capsys.readouterr().err

    def test_bad_solver_name(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", solver="magic")
        assert main(["solve", "--config", str(cfg)]) == 2

    def test_fractional_grid_size_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", grid_size=64.9)
        out = tmp_path / "out"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 2
        assert "grid_size must be an integer" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["solve", "verify"])
    @pytest.mark.parametrize("grid", [4, 512])
    @pytest.mark.parametrize(
        "control_vol",
        [
            {"type": "samples", "times": [0.0, 0.3, 1.0], "values": [0.2, 0.0, 0.2]},
            {"type": "samples", "times": [0.0, 1.0], "values": [0.2, -0.3]},
            {"type": "polynomial", "coefficients": [0.2, -0.5]},
            {"type": "polynomial", "coefficients": [0.09, -0.6, 1.0]},  # (t - 0.3)^2
        ],
        ids=[
            "zero_at_a_sample",
            "sampled_sign_change",
            "polynomial_sign_change",
            "polynomial_even_order_zero",
        ],
    )
    def test_control_vol_zero_between_probes(self, tmp_path, capsys, command, grid, control_vol):
        """A control volatility that reaches zero away from the nodes and
        midpoints is rejected before anything is solved or written."""
        cfg = write_config(
            tmp_path / "c.json",
            grid_size=grid,
            coefficients={"control_drift": 0.3, "control_vol": control_vol},
        )
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert "config error: coefficients: control volatility" in capsys.readouterr().err
        assert not out.exists()

    def test_integral_float_grid_size_accepted(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", grid_size=64.0)
        out = tmp_path / "out"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
        _, rows = read_csv(out / "solution.csv")
        assert len(rows) == 65


class TestTopLevelKeys:
    """Each top-level setting is checked where it is parsed; a bad one exits 2, writing nothing."""

    def run_solve(self, tmp_path, **overrides):
        cfg = write_config(tmp_path / "c.json", grid_size=16, **overrides)
        out = tmp_path / "out"
        code = main(["solve", "--config", str(cfg), "--out", str(out)])
        if code == 2:
            assert not out.exists()
        return code

    @pytest.mark.parametrize("value", [5, True, {}, [], "", None])
    def test_output_dir_must_be_a_nonempty_string(self, tmp_path, capsys, value):
        assert self.run_solve(tmp_path, output={"dir": value}) == 2
        assert "output.dir must be a nonempty string" in capsys.readouterr().err

    def test_output_dir_is_used_without_out(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path / "c.json", grid_size=16, output={"dir": "run"})
        assert main(["solve", "--config", str(cfg)]) == 0
        assert (tmp_path / "run" / "solution.csv").exists()

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("ode", -1.0, "tolerances.ode must be positive"),
            ("ode", 0.0, "tolerances.ode must be positive"),
            ("residual", -1.0, "tolerances.residual must be nonnegative"),
            ("self_consistency", -1e-9, "tolerances.self_consistency must be nonnegative"),
            ("value", -2, "tolerances.value must be nonnegative"),
            ("ode", "tight", "tolerances.ode must be a number"),
        ],
    )
    def test_tolerance_ranges(self, tmp_path, capsys, key, value, message):
        assert self.run_solve(tmp_path, solver="ode", tolerances={key: value}) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["residual", "self_consistency", "value"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -1e-8, "1e-8"])
    def test_bad_check_tolerances(self, tmp_path, capsys, key, value):
        """The bounds of the verify checks: a bad one exits 2 for verify too, naming its key."""
        cfg = write_config(
            tmp_path / "c.json", grid_size=16, tolerances={key: value}, verification=_SUITES_OFF
        )
        out = tmp_path / "out"
        assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 2
        assert f"tolerances.{key} must be" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_check_tolerances_accepted(self, tmp_path):
        tolerances = {"residual": 0.0, "self_consistency": 0.0, "value": 0.0}
        assert self.run_solve(tmp_path, tolerances=tolerances) == 0

    def test_default_tolerances_are_the_library_defaults(self):
        """The config defaults repeat the keyword defaults of the library calls they feed."""
        ode = inspect.signature(equilibrium.solve_ode).parameters
        report = inspect.signature(verification_report).parameters
        assert _DEFAULT_TOLERANCES == {
            "ode": ode["tol"].default,
            "residual": report["residual_tol"].default,
            "self_consistency": report["consistency_tol"].default,
            "value": report["value_tol"].default,
        }

    @pytest.mark.parametrize("command", ["solve", "verify"])
    @pytest.mark.parametrize("horizon", [1e-320, 5e-324])
    def test_subnormal_step_is_a_config_error(self, tmp_path, capsys, command, horizon):
        cfg = write_config(tmp_path / "c.json", grid_size=16, horizon=horizon)
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert "smallest normal float" in capsys.readouterr().err
        assert not out.exists()

    def test_sweep_to_subnormal_step_is_a_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", grid_size=16)
        out = tmp_path / "out"
        code = main(
            ["sweep", "--config", str(cfg), "--out", str(out),
             "--parameter", "T", "--values", "1,1e-320"]
        )
        assert code == 2
        assert "smallest normal float" in capsys.readouterr().err
        assert not out.exists()


class TestCsvBytes:
    """The CSV files are exactly what csv.writer writes for "%.17g" cells."""

    @staticmethod
    def rendered(header, columns):
        text = io.StringIO()
        writer = csv.writer(text, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(["%.17g" % float(v) for v in row] for row in zip(*columns))
        return text.getvalue()

    def test_solution_csv(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.json",
            grid_size=64,
            x0=0.7,
            coefficients={
                "state_drift": {"type": "exponential", "scale": 0.1, "rate": 0.5},
                "control_drift": 0.3,
                "drift_offset": 0.05,
                "control_vol": 0.2,
                "vol_offset": 0.1,
            },
            objective={"variant": "exp", "kappa": 1.3, "c": 0.9},
        )
        out = tmp_path / "out"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
        objective = parse_objective(json.loads(cfg.read_text())["objective"])
        sol = equilibrium.solve(curved_coeffs(64), objective)
        nodes = sol.grid.nodes
        columns = (
            nodes,
            sol.y_many(nodes),
            sol.beta_many(nodes),
            sol.control_many(nodes),
            sol.value_many(nodes, 0.7),
        )
        expect = self.rendered(("t", "y", "beta", "control_at_x0", "value_at_x0"), columns)
        assert (out / "solution.csv").read_bytes() == expect.encode()

    def test_sweep_csv(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", grid_size=64, x0=-0.4)
        out = tmp_path / "out"
        values = (0.8, 1.05, 1.3)
        code = main(
            ["sweep", "--config", str(cfg), "--out", str(out),
             "--parameter", "kappa", "--values", ",".join(map(str, values))]
        )
        assert code == 0
        rows = []
        for kappa in values:
            objective = {"variant": "moment_combo", "kappa": kappa, "weights": [2.0]}
            sol = equilibrium.solve(base_coeffs(64), parse_objective(objective))
            x0 = -0.4
            rows.append(
                (kappa, sol.beta_at(0.0), sol.control(0.0), sol.value(0.0, x0), sol.y_at(0.0))
            )
        header = ("kappa", "beta_0", "control_at_x0", "value_at_x0", "y_0")
        expect = self.rendered(header, list(zip(*rows)))
        assert (out / "sweep.csv").read_bytes() == expect.encode()

    @pytest.mark.parametrize("rows", [1, _CSV_BLOCK_ROWS - 1, _CSV_BLOCK_ROWS,
                                      _CSV_BLOCK_ROWS + 1, 4 * _CSV_BLOCK_ROWS + 1])
    def test_blocks_join_seamlessly(self, tmp_path, rows):
        """``_write_csv`` formats blocks of ``_CSV_BLOCK_ROWS`` rows; across
        their edges the bytes are the row-by-row rendering."""
        rng = np.random.default_rng(rows)
        columns = [rng.standard_normal(rows) * 10.0 ** rng.integers(-300, 300, rows)
                   for _ in range(3)]
        path = _write_csv(tmp_path, "t.csv", ("a", "b", "c"), columns)
        assert path.read_bytes() == self.rendered(("a", "b", "c"), columns).encode()


class TestNonFiniteConfig:
    @pytest.mark.parametrize(
        "literal", ["NaN", "Infinity", "-Infinity", pytest.param("1" + "0" * 400, id="int-1e400")]
    )
    @pytest.mark.parametrize(
        "where",
        [
            '"drift_offset": {lit}',
            '"drift_offset": {{"type": "constant", "value": {lit}}}',
            '"drift_offset": {{"type": "polynomial", "coefficients": [0.1, {lit}]}}',
        ],
    )
    def test_coefficient_literals_rejected(self, tmp_path, capsys, literal, where):
        entry = where.format(lit=literal)
        text = (
            '{"horizon": 1.0, "grid_size": 64, "coefficients": {"control_drift": 0.3,'
            f' "control_vol": 0.2, {entry}}},'
            ' "objective": {"variant": "moment_combo", "kappa": 1.0, "weights": [2.0]}}'
        )
        cfg = tmp_path / "c.json"
        cfg.write_text(text)
        out = tmp_path / "out"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 2
        assert "finite" in capsys.readouterr().err
        assert not out.exists()

    def test_top_level_literal_rejected(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(
            '{"horizon": 1.0, "x0": NaN, "coefficients": {"control_drift": 0.3,'
            ' "control_vol": 0.2}, "objective": {"variant": "exp", "kappa": 1.0, "c": Infinity}}'
        )
        assert main(["solve", "--config", str(cfg)]) == 2


class TestNonFiniteResults:
    def test_overflowing_growth_writes_nothing(self, tmp_path, capsys):
        """exp(800) overflows the growth factor; the guard stops before any file."""
        cfg = write_config(
            tmp_path / "c.json",
            grid_size=64,
            x0=1.0,
            coefficients={
                "state_drift": 800.0,
                "control_drift": 0.3,
                "drift_offset": 0.1,
                "control_vol": 0.2,
            },
        )
        out = tmp_path / "out"
        with np.errstate(all="ignore"):
            assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 3
        assert "NonFiniteResultError" in capsys.readouterr().err
        assert not out.exists()

    def test_nan_value_blocks_solve_and_sweep(self, mv_config, tmp_path, monkeypatch, capsys):
        def nan_values(self, t, x):
            return np.full(np.shape(t), np.nan)

        monkeypatch.setattr(EquilibriumSolution, "value_many", nan_values)
        out = tmp_path / "out"
        assert main(["solve", "--config", str(mv_config), "--out", str(out)]) == 3
        assert main(
            ["sweep", "--config", str(mv_config), "--out", str(out),
             "--parameter", "kappa", "--values", "1,2"]
        ) == 3
        assert "value_at_x0" in capsys.readouterr().err
        assert not out.exists()


class TestNoPerNodeLoops:
    def test_solve_call_counts_do_not_grow_with_grid(self, mv_config, tmp_path, monkeypatch):
        """solve evaluates whole node arrays; no per-node integrate or value calls."""
        counts = {}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(cf, "integrate", counting("integrate", cf.integrate))
        monkeypatch.setattr(
            EquilibriumSolution, "value", counting("value", EquilibriumSolution.value)
        )
        seen = []
        for grid in (64, 1024):
            counts.update(integrate=0, value=0)
            out = tmp_path / f"out{grid}"
            args = ["solve", "--config", str(mv_config), "--out", str(out), "--grid", str(grid)]
            assert main(args) == 0
            seen.append(dict(counts))
        assert seen[0] == seen[1]


    def test_algebraic_root_solve_is_not_per_node(self, tmp_path, monkeypatch):
        """The first-integral inverse runs once per array, not once per node."""
        counts = {}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(
            equilibrium,
            "_solve_increasing_many",
            counting("root", equilibrium._solve_increasing_many),
        )
        monkeypatch.setattr(np, "polyval", counting("poly", np.polyval))
        cfg = write_config(
            tmp_path / "m6.json",
            objective={
                "variant": "moment_combo",
                "kappa": 1.0,
                "weights": [1.0, 0.0, 0.5, 0.0, 0.25],
            },
            solver="algebraic",
        )
        seen = []
        for grid in (64, 1024):
            counts.update(root=0, poly=0)
            out = tmp_path / f"out{grid}"
            args = ["solve", "--config", str(cfg), "--out", str(out), "--grid", str(grid)]
            assert main(args) == 0
            seen.append(dict(counts))
        assert seen[0]["root"] > 0 and seen[0]["poly"] > 0
        assert seen[0] == seen[1]


class TestOdeRecord:
    CURVED = {
        "state_drift": {"type": "exponential", "scale": 0.1, "rate": 0.5},
        "control_drift": 0.3,
        "drift_offset": 0.05,
        "control_vol": 0.2,
        "vol_offset": 0.1,
    }

    def test_manifest_records_steps(self, tmp_path):
        objective = {"variant": "cosh", "kappa": 1.0, "c": 1.0}
        cfg = write_config(
            tmp_path / "c.json", coefficients=self.CURVED, objective=objective, solver="ode"
        )
        out = tmp_path / "out"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
        summary = json.loads((out / "manifest.json").read_text())["summary"]
        assert summary["ode_steps"] > 0 and summary["ode_rejected_steps"] >= 0
        assert 0.0 < summary["ode_min_step"] <= 1.0
        assert 0.0 < summary["ode_error_estimate"] <= 1e-8
        # the table carries no trace: it is the solution's columns, nothing more
        sol = equilibrium.solve(curved_coeffs(512), parse_objective(objective), "ode")
        nodes = sol.grid.nodes
        columns = (
            nodes,
            sol.y_many(nodes),
            sol.beta_many(nodes),
            sol.control_many(nodes),
            sol.value_many(nodes, 0.0),
        )
        expect = TestCsvBytes.rendered(("t", "y", "beta", "control_at_x0", "value_at_x0"), columns)
        assert (out / "solution.csv").read_bytes() == expect.encode()

    def test_manifest_records_relative_estimate(self, tmp_path):
        """Next to the absolute estimate, the one ``ode`` holds to tol: over max(1, max y)."""
        coefficients = {
            "state_drift": 0.0,
            "control_drift": {"type": "exponential", "scale": 0.5, "rate": 2.66},
            "drift_offset": 0.0,
            "control_vol": {"type": "exponential", "scale": 0.5, "rate": -2.24},
            "vol_offset": 0.0,
        }
        objective = {"variant": "moment_combo", "kappa": 1.0, "weights": [2.0]}
        cfg = write_config(
            tmp_path / "c.json", horizon=2.75, grid_size=256, coefficients=coefficients,
            objective=objective, solver="ode",
        )
        out = tmp_path / "out"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
        summary = json.loads((out / "manifest.json").read_text())["summary"]
        assert summary["ode_error_estimate"] > 1e-8
        assert summary["ode_relative_error_estimate"] == summary["ode_error_estimate"] / summary["y_0"]
        assert summary["ode_relative_error_estimate"] <= 1e-8

    def test_closed_form_records_no_steps(self, mv_config, tmp_path):
        out = tmp_path / "out"
        assert main(["solve", "--config", str(mv_config), "--out", str(out)]) == 0
        summary = json.loads((out / "manifest.json").read_text())["summary"]
        assert summary["ode_steps"] == summary["ode_rejected_steps"] == 0
        assert summary["ode_min_step"] == 0.0
        assert summary["ode_error_estimate"] == 0.0


class TestSolverErrors:
    @pytest.mark.parametrize("command", ["solve", "sweep", "verify"])
    @pytest.mark.parametrize("solver", ["closed_form", "algebraic"])
    def test_unsupported_solver_choice_exits_3(self, tmp_path, capsys, command, solver):
        """Only a family without a first integral refuses the two labels that invert it."""
        objective = {
            "variant": "fourier_even",
            "kappa": 1.0,
            "frequencies": [-2.0, 0.0, 2.0],
            "density": [0.0, 1.0, 0.0],
        }
        cfg = write_config(tmp_path / "c.json", grid_size=64, objective=objective, solver=solver)
        out = tmp_path / "out"
        argv = [command, "--config", str(cfg), "--out", str(out)]
        if command == "sweep":
            argv += ["--parameter", "kappa", "--values", "1"]
        assert main(argv) == 3
        assert "UnsupportedVariantError" in capsys.readouterr().err
        assert not out.exists()

    def test_ode_stall_exits_3(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "stall.json",
            grid_size=16,
            objective={"variant": "exp", "kappa": 1.0, "c": 1.0},
            solver="ode",
            tolerances={"ode": 1e-300},
        )
        out = tmp_path / "out"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 3
        assert "OdeStepError" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "objective, error",
        [
            ({"variant": "cos", "kappa": 1.0, "c": 1.0}, "CosDomainError"),
            (
                {
                    "variant": "ambiguous_cos",
                    "kappa": 3.0,
                    "support": [0.5, 1.0],
                    "probs": [0.5, 0.5],
                },
                "RootBracketError",
            ),
        ],
    )
    def test_ode_budget_out_of_range_exits_3(self, tmp_path, capsys, objective, error):
        cfg = write_config(
            tmp_path / "c.json",
            grid_size=64,
            coefficients={"control_drift": 1.0, "control_vol": 0.5},
            objective=objective,
        )
        out = tmp_path / "out"
        assert main(["solve", "--config", str(cfg), "--out", str(out), "--solver", "ode"]) == 3
        err = capsys.readouterr().err
        assert f"solver error ({error})" in err and "reachable range" in err
        assert not out.exists()

    @pytest.mark.parametrize("solver", ["auto", "closed_form", "algebraic", "ode"])
    def test_overflowing_risk_budget_exits_3(self, tmp_path, capsys, solver):
        """kappa = 1e200 squares past the float range: a solver error, no file."""
        objective = {"variant": "moment_combo", "kappa": 1e200, "weights": [2.0]}
        cfg = write_config(tmp_path / "c.json", grid_size=16, objective=objective, solver=solver)
        out = tmp_path / "out"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 3
        assert "solver error (NonFiniteResultError)" in capsys.readouterr().err
        assert not out.exists()

    def test_overflowing_ode_gain_exits_3(self, tmp_path, capsys):
        """(kappa b / d)^2 = 1e320 under the finite budget kappa^2 theta = 1e300:
        the ode march stops on the gain with a solver error and writes nothing."""
        cfg = write_config(
            tmp_path / "c.json",
            horizon=1e-20,
            grid_size=16,
            coefficients={"control_drift": 1e150, "control_vol": 1.0},
            objective={"variant": "moment_combo", "kappa": 1e10, "weights": [2.0]},
        )
        out = tmp_path / "out"
        assert main(["solve", "--config", str(cfg), "--out", str(out), "--solver", "ode"]) == 3
        err = capsys.readouterr().err
        assert "solver error (NonFiniteResultError)" in err and "gain" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["solve", "sweep", "verify"])
    def test_unallocatable_grid_exits_3(self, mv_config, tmp_path, capsys, command):
        """10^17 nodes take 8e17 bytes, beyond any address space, so numpy refuses
        the allocation before it touches memory: a solver error, no file."""
        out = tmp_path / "out"
        argv = [command, "--config", str(mv_config), "--out", str(out), "--grid", str(10**17)]
        if command == "sweep":
            argv += ["--parameter", "kappa", "--values", "1"]
        assert main(argv) == 3
        assert "solver error (SolverError): out of memory" in capsys.readouterr().err
        assert not out.exists()

    def test_cos_domain_guard_is_distinct(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "cos.json",
            objective={"variant": "cos", "kappa": 1.0, "c": 1.0},
        )
        assert main(["solve", "--config", str(cfg)]) == 3
        err = capsys.readouterr().err
        assert "CosDomainError" in err
        assert "budget" in err


class TestVerify:
    def test_default_suite_passes(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "c.json",
            verification={"monte_carlo": {"num_paths": 20000, "num_steps": 128}},
        )
        out = tmp_path / "out"
        assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 0
        report = json.loads((out / "verification.json").read_text())
        assert report["passed"] is True
        for key in ("integral_equation", "self_consistency", "concavity",
                    "value_consistency", "spike", "fbsde", "pde", "monte_carlo"):
            assert report[key]["passed"] is True, key
        assert "overall: PASS" in capsys.readouterr().out

    def test_zero_tolerance_fails(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.json",
            coefficients={"control_drift": 0.3, "control_vol": 0.2, "vol_offset": 0.1},
            objective={"variant": "exp", "kappa": 1.0, "c": 1.0},
            tolerances={"value": 0.0},
            verification={"spike": False, "fbsde": False, "pde": False, "monte_carlo": False},
        )
        out = tmp_path / "out"
        assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 1
        report = json.loads((out / "verification.json").read_text())
        assert report["value_consistency"]["passed"] is False

    def test_suite_toggles(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.json",
            verification={"spike": False, "pde": False, "monte_carlo": False},
        )
        out = tmp_path / "out"
        assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 0
        report = json.loads((out / "verification.json").read_text())
        assert "spike" not in report
        assert "fbsde" in report

    def test_seed_override_recorded(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.json",
            verification={
                "spike": False,
                "fbsde": False,
                "pde": False,
                "monte_carlo": {"num_paths": 5000, "num_steps": 64},
            },
        )
        out = tmp_path / "out"
        assert main(["verify", "--config", str(cfg), "--out", str(out), "--seed", "99"]) == 0
        report = json.loads((out / "verification.json").read_text())
        assert report["monte_carlo"]["seed"] == 99


_SUITES_OFF = {"spike": False, "fbsde": False, "pde": False, "monte_carlo": False}


def _mc_only(**mc):
    """A verification section that runs only a small Monte Carlo suite."""
    return {**_SUITES_OFF, "monte_carlo": {"num_paths": 5000, "num_steps": 16, **mc}}


class TestVerificationConfigErrors:
    def run_verify(self, tmp_path, verification):
        cfg = write_config(tmp_path / "c.json", grid_size=64, verification=verification)
        out = tmp_path / "out"
        code = main(["verify", "--config", str(cfg), "--out", str(out)])
        return code, out

    @pytest.mark.parametrize("key", ["residual_tol", "self_consistency_tol", "value_tol"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -1e-8, "1e-8"])
    def test_bad_tolerances(self, tmp_path, capsys, key, value):
        """Check tolerances live under ``tolerances``: here the key is unknown, whatever its value."""
        code, out = self.run_verify(tmp_path, {**_SUITES_OFF, key: value})
        assert code == 2
        assert f"unknown verification keys: {key}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "override",
        [
            {"num_paths": 1000.7},
            {"num_steps": 16.5},
            {"seed": 3.25},
            {"seed": "7"},
            {"num_steps": 0},
            {"orders": []},
            {"num_paths": 1},
            {"orders": [2, 3.5]},
            {"orders": 4},
            {"bogus": 1},
        ],
    )
    def test_bad_monte_carlo_options(self, tmp_path, capsys, override):
        code, out = self.run_verify(tmp_path, _mc_only(**override))
        assert code == 2
        assert "verification.monte_carlo" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "suite, override",
        [
            ("spike", {"bogus": 1}),
            ("spike", {"x": 0.0}),
            ("spike", {"zetas": ["1"]}),
            ("fbsde", {"bogus": 1}),
            ("pde", {"orders": [1.5]}),
            ("spike", {"limit_tol": -1}),
            ("spike", {"match_tol": -1}),
            ("fbsde", {"tol": -1}),
            ("pde", {"tol": -1}),
            ("pde", {"first_order_tol": -1}),
        ],
    )
    def test_bad_suite_options(self, tmp_path, capsys, suite, override):
        code, out = self.run_verify(tmp_path, {**_SUITES_OFF, suite: override})
        assert code == 2
        assert f"verification.{suite}" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_suite_tolerances_accepted(self, tmp_path):
        verification = {
            **_SUITES_OFF,
            "spike": {"limit_tol": 0, "match_tol": 0},
            "fbsde": {"tol": 0},
            "pde": {"tol": 0, "first_order_tol": 0},
        }
        code, out = self.run_verify(tmp_path, verification)
        assert code in (0, 1)  # a legal bound, which a check may miss
        assert (out / "verification.json").exists()

    @pytest.mark.parametrize("seed", [2**63, 2**64 - 1, 2**64, 2**70, -(2**63) - 1])
    def test_seed_outside_key_range(self, tmp_path, capsys, seed):
        code, out = self.run_verify(tmp_path, _mc_only(seed=seed))
        assert code == 2
        assert "verification.monte_carlo.seed" in capsys.readouterr().err
        assert not out.exists()

    def test_seed_override_outside_key_range(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", grid_size=64, verification=_mc_only())
        out = tmp_path / "out"
        code = main(["verify", "--config", str(cfg), "--out", str(out), "--seed", str(2**70)])
        assert code == 2
        assert "--seed" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "suite, times", [("spike", [2.0]), ("spike", [0.5, 1.5]), ("fbsde", [-0.5])]
    )
    def test_times_outside_horizon(self, tmp_path, capsys, suite, times):
        code, out = self.run_verify(tmp_path, {**_SUITES_OFF, suite: {"times": times}})
        assert code == 2
        assert f"verification.{suite}.times" in capsys.readouterr().err
        assert not out.exists()

    def test_integral_float_options_accepted(self, tmp_path):
        code, out = self.run_verify(
            tmp_path, _mc_only(num_paths=5000.0, seed=7.0, num_steps=16.0, orders=[2.0, 4])
        )
        assert code == 0
        report = json.loads((out / "verification.json").read_text())
        assert report["monte_carlo"]["num_paths"] == 5000
        assert report["monte_carlo"]["num_steps"] == 16

    @pytest.mark.parametrize("raw", ["0", "-1", "1.5", "many"])
    def test_bad_thread_environment(self, tmp_path, capsys, monkeypatch, raw):
        monkeypatch.setenv("EQUICONTROL_THREADS", raw)
        code, out = self.run_verify(tmp_path, _mc_only())
        assert code == 2
        assert "EQUICONTROL_THREADS" in capsys.readouterr().err
        assert not out.exists()

    def test_report_records_threads_used(self, tmp_path, monkeypatch):
        monkeypatch.setenv("EQUICONTROL_THREADS", "4")
        code, out = self.run_verify(tmp_path, _mc_only(num_paths=5000))
        assert code == 0
        report = json.loads((out / "verification.json").read_text())
        assert report["monte_carlo"]["threads"] == 1  # one block of paths needs one worker


class TestSweep:
    def test_variance_weight_scaling(self, mv_config, tmp_path, capsys):
        out = tmp_path / "out"
        code = main([
            "sweep", "--config", str(mv_config), "--out", str(out),
            "--parameter", "kappa_2", "--values", "1,2,4",
        ])
        assert code == 0
        header, rows = read_csv(out / "sweep.csv")
        assert header == ["kappa_2", "beta_0", "control_at_x0", "value_at_x0", "y_0"]
        betas = [float(r[1]) for r in rows]
        assert betas == pytest.approx([7.5, 3.75, 1.875], rel=1e-12)

    def test_kappa_zero_gives_zero_loading(self, mv_config, tmp_path):
        out = tmp_path / "out"
        main([
            "sweep", "--config", str(mv_config), "--out", str(out),
            "--parameter", "kappa", "--values", "0,1",
        ])
        _, rows = read_csv(out / "sweep.csv")
        assert float(rows[0][1]) == 0.0
        assert float(rows[1][1]) == pytest.approx(3.75, rel=1e-12)

    def test_penalty_scale_monotonicity(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.json",
            objective={"variant": "exp", "kappa": 1.0, "c": 1.0},
        )
        out = tmp_path / "out"
        main([
            "sweep", "--config", str(cfg), "--out", str(out),
            "--parameter", "c", "--values", "0.5,1,2",
        ])
        _, rows = read_csv(out / "sweep.csv")
        betas = [float(r[1]) for r in rows]
        assert betas[0] > betas[1] > betas[2] > 0.0

    def test_horizon_sweep(self, mv_config, tmp_path):
        out = tmp_path / "out"
        main([
            "sweep", "--config", str(mv_config), "--out", str(out),
            "--parameter", "T", "--values", "0.5,1,2",
        ])
        _, rows = read_csv(out / "sweep.csv")
        ys = [float(r[4]) for r in rows]
        # y_0 = (0.3/0.2)^2 T / 4 grows linearly with the horizon
        assert ys == pytest.approx([0.28125, 0.5625, 1.125], rel=1e-10)

    def test_unknown_parameter(self, mv_config, tmp_path, capsys):
        code = main([
            "sweep", "--config", str(mv_config), "--out", str(tmp_path / "o"),
            "--parameter", "sigma", "--values", "1",
        ])
        assert code == 2
        assert "unknown sweep parameter" in capsys.readouterr().err

    def test_parameter_variant_mismatch(self, mv_config, tmp_path):
        code = main([
            "sweep", "--config", str(mv_config), "--out", str(tmp_path / "o"),
            "--parameter", "c", "--values", "1",
        ])
        assert code == 2

    def test_horizon_sweep_with_sampled_coefficients(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.json",
            coefficients={
                "control_drift": {
                    "type": "samples",
                    "times": [0.0, 1.0],
                    "values": [0.3, 0.3],
                },
                "control_vol": 0.2,
            },
        )
        code = main([
            "sweep", "--config", str(cfg), "--out", str(tmp_path / "o"),
            "--parameter", "T", "--values", "2.0",
        ])
        assert code == 2  # samples end before the swept horizon

    def test_bad_values_string(self, mv_config, tmp_path):
        code = main([
            "sweep", "--config", str(mv_config), "--out", str(tmp_path / "o"),
            "--parameter", "kappa", "--values", "1,two",
        ])
        assert code == 2

    def test_empty_values(self, mv_config, tmp_path, capsys):
        code = main([
            "sweep", "--config", str(mv_config), "--out", str(tmp_path / "o"),
            "--parameter", "kappa", "--values", ",",
        ])
        assert code == 2
        assert "at least one value" in capsys.readouterr().err

    def test_non_finite_values_are_config_errors(self, mv_config, tmp_path, capsys):
        out = tmp_path / "o"
        code = main([
            "sweep", "--config", str(mv_config), "--out", str(out),
            "--parameter", "kappa", "--values", "1.0,nan,inf",
        ])
        assert code == 2
        assert "finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "objective, parameter, value",
        [
            ({"variant": "cosh", "kappa": 1.0, "c": 1.0}, "c", "-1"),
            ({"variant": "moment_combo", "kappa": 1.0, "weights": [2.0]}, "kappa_2", "0"),
            ({"variant": "standardized", "kappa": 1.0, "weights": [2.0]}, "kappa_2", "-1"),
            ({"variant": "moment_combo", "kappa": 1.0, "weights": [2.0]}, "kappa", "-1"),
        ],
    )
    def test_invalid_swept_value_is_config_error(
        self, tmp_path, capsys, objective, parameter, value
    ):
        cfg = write_config(tmp_path / "c.json", grid_size=64, objective=objective)
        out = tmp_path / "o"
        code = main([
            "sweep", "--config", str(cfg), "--out", str(out),
            "--parameter", parameter, "--values", f"1,{value}",
        ])
        assert code == 2
        assert "config error: objective" in capsys.readouterr().err
        assert not out.exists()

    def test_rows_read_node_zero(self, tmp_path, monkeypatch):
        """A row's t = 0 values add no first-integral root solve to the solve itself."""
        calls = []
        original = equilibrium._solve_increasing_many

        def counting(*args):
            calls.append(1)
            return original(*args)

        monkeypatch.setattr(equilibrium, "_solve_increasing_many", counting)
        cfg = write_config(
            tmp_path / "m6.json",
            grid_size=64,
            objective={"variant": "moment_combo", "kappa": 1.0, "weights": [1.0, 0.0, 0.5, 0.0, 0.25]},
            solver="algebraic",
        )
        code = main([
            "sweep", "--config", str(cfg), "--out", str(tmp_path / "o"),
            "--parameter", "kappa", "--values", "0.5,1,1.5",
        ])
        assert code == 0
        assert len(calls) == 1  # one node solve for all values: they share P

    def test_swept_weights_keep_a_root_solve_per_value(self, tmp_path, monkeypatch):
        """A kappa_2 sweep makes a new variant, so a new P, for every value."""
        calls = []
        original = equilibrium._solve_increasing_many

        def counting(*args):
            calls.append(1)
            return original(*args)

        monkeypatch.setattr(equilibrium, "_solve_increasing_many", counting)
        cfg = write_config(
            tmp_path / "m6.json",
            grid_size=64,
            objective={"variant": "moment_combo", "kappa": 1.0, "weights": [1.0, 0.0, 0.5, 0.0, 0.25]},
        )
        code = main([
            "sweep", "--config", str(cfg), "--out", str(tmp_path / "o"),
            "--parameter", "kappa_2", "--values", "0.5,1,1.5",
        ])
        assert code == 0
        assert len(calls) == 3

    @pytest.mark.parametrize("parameter, values, overrides, builds", [
        # one coefficient set: theta and the offset once, the feedback per value
        ("kappa", np.linspace(0.5, 2.0, 40), {"solver": "ode"}, 2 + 40),
        # a coefficient set per horizon: theta, the offset and the feedback per value
        ("T", np.linspace(0.25, 2.0, 40), {
            "solver": "closed_form",
            "objective": {"variant": "exp", "kappa": 1.0, "c": 1.0},
            "coefficients": {
                "state_drift": {"type": "exponential", "scale": 0.1, "rate": 0.5},
                "control_drift": {"type": "exponential", "scale": 0.3, "rate": -1.0, "offset": 0.1},
                "drift_offset": 0.05,
                "control_vol": {"type": "polynomial", "coefficients": [0.2, 0.1]},
                "vol_offset": 0.1,
            },
        }, 3 * 40),
    ])
    def test_rows_make_no_quadrature_call(
        self, tmp_path, monkeypatch, parameter, values, overrides, builds
    ):
        """A row reads beta_0, u_0, V(0, x0) and y_0 from the node arrays: no
        SuffixQuadrature evaluation, and no build beyond those the solves and
        the rows' feedback arrays need."""
        counts = {"__init__": 0, "__call__": 0}

        def counting(name):
            original = getattr(cf.SuffixQuadrature, name)

            def wrapper(*args, **kwargs):
                counts[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(cf.SuffixQuadrature, name, wrapper)

        counting("__init__")
        counting("__call__")
        cfg = write_config(tmp_path / "c.json", grid_size=64, **overrides)
        code = main([
            "sweep", "--config", str(cfg), "--out", str(tmp_path / "o"),
            "--parameter", parameter, "--values", ",".join(map(repr, values.tolist())),
        ])
        assert code == 0
        assert counts == {"__init__": builds, "__call__": 0}

    @pytest.mark.parametrize("values, code, message", [
        ("5,-1", 3, "solver error (CosDomainError): risk budget 1.25 exceeds"),
        ("-1,5", 2, "config error: cannot sweep T to -1.0"),
        ("1,5,-1", 3, "solver error (CosDomainError): risk budget 1.25 exceeds"),
    ])
    def test_first_failing_value_gives_the_error(self, tmp_path, capsys, values, code, message):
        """A horizon past cos's budget (exit 3) and one that cannot build (exit 2):
        the first in the list decides."""
        cfg = write_config(
            tmp_path / "cos.json",
            grid_size=64,
            coefficients={"control_drift": 0.1, "control_vol": 0.2},
            objective={"variant": "cos", "kappa": 1.0, "c": 1.0},
        )
        out = tmp_path / "o"
        argv = ["sweep", "--config", str(cfg), "--out", str(out), "--parameter", "T"]
        assert main([*argv, f"--values={values}"]) == code
        assert capsys.readouterr().err.startswith(message)
        assert not out.exists()

    def test_standardized_kurtosis_sweep(self, tmp_path):
        cfg = write_config(
            tmp_path / "std.json",
            grid_size=64,
            objective={"variant": "standardized", "kappa": 1.0, "weights": [2.0, 0.0, 1.0]},
        )
        out = tmp_path / "out"
        code = main([
            "sweep", "--config", str(cfg), "--out", str(out),
            "--parameter", "kappa_4", "--values", "0.5,1,2",
        ])
        assert code == 0
        _, rows = read_csv(out / "sweep.csv")
        assert [float(r[1]) for r in rows] == pytest.approx([3.75] * 3, abs=1e-12)


class TestCoefficientParsing:
    def test_all_descriptor_kinds(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.json",
            coefficients={
                "state_drift": {"type": "exponential", "scale": 0.1, "rate": 0.5},
                "control_drift": {"type": "polynomial", "coefficients": [0.3, 0.0]},
                "drift_offset": {"type": "constant", "value": 0.05},
                "control_vol": 0.2,
                "vol_offset": {
                    "type": "samples",
                    "times": [0.0, 0.5, 1.0],
                    "values": [0.1, 0.1, 0.1],
                },
            },
            objective={"variant": "exp", "kappa": 1.0, "c": 1.0},
        )
        out = tmp_path / "out"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0

    def test_ambiguous_and_fourier_variants(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(
            tmp_path / "amb.json",
            objective={
                "variant": "ambiguous_cos",
                "kappa": 1.0,
                "support": [1.5, 2.5],
                "probs": [0.5, 0.5],
            },
        )
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
        freqs = np.linspace(-12.0, 12.0, 2401)
        density = (-np.exp(-0.5 * freqs**2) / np.sqrt(2 * np.pi)).tolist()
        cfg2 = write_config(
            tmp_path / "fourier.json",
            coefficients={"control_drift": 0.1, "control_vol": 0.2},
            objective={
                "variant": "fourier_even",
                "kappa": 1.0,
                "frequencies": freqs.tolist(),
                "density": density,
                "atom": 1.0,
            },
        )
        assert main(["solve", "--config", str(cfg2), "--out", str(out)]) == 0


class TestOneParse:
    """Every command parses and checks the whole config, the verification section included."""

    @pytest.mark.parametrize("command", ["solve", "sweep", "verify"])
    @pytest.mark.parametrize(
        "verification", [{"spkie": True}, {"monte_carlo": {"num_paths": "many"}}]
    )
    def test_every_command_checks_verification(self, tmp_path, capsys, command, verification):
        cfg = write_config(tmp_path / "c.json", grid_size=64, verification=verification)
        out = tmp_path / "out"
        argv = [command, "--config", str(cfg), "--out", str(out)]
        if command == "sweep":
            argv += ["--parameter", "kappa", "--values", "1"]
        assert main(argv) == 2
        assert "config error: " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["solve", "sweep", "verify"])
    @pytest.mark.parametrize(
        "verification",
        [
            {"residual_tol": 1e-3},
            {"self_consistency_tol": 1e-3},
            {"value_tol": 0.0},
            {"monte_carlo": {"x0": 0.5}},
            {"monte_carlo": {"threads": 1}},
        ],
    )
    def test_second_copies_of_settings_are_unknown(self, tmp_path, capsys, command, verification):
        """Tolerances, x0 and the worker count each have one key, outside this section."""
        cfg = write_config(tmp_path / "c.json", grid_size=16, verification=verification)
        out = tmp_path / "out"
        argv = [command, "--config", str(cfg), "--out", str(out)]
        if command == "sweep":
            argv += ["--parameter", "kappa", "--values", "1"]
        assert main(argv) == 2
        assert "config error: unknown verification" in capsys.readouterr().err
        assert not out.exists()

    def test_manifest_records_what_the_checks_used(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.json",
            grid_size=64,
            x0=0.5,
            tolerances={"residual": 1e-3, "value": 0.0},
            verification={
                **_SUITES_OFF,
                "spike": {"times": [0.0], "zetas": [1.0]},
                "monte_carlo": {"num_paths": 5000, "num_steps": 16},
            },
        )
        out = tmp_path / "out"
        assert main(["verify", "--config", str(cfg), "--out", str(out)]) in (0, 1)
        report = json.loads((out / "verification.json").read_text())
        manifest = json.loads((out / "manifest.json").read_text())
        tolerances = manifest["tolerances"]
        assert report["integral_equation"]["tol"] == tolerances["residual"] == 1e-3
        assert report["self_consistency"]["tol"] == tolerances["self_consistency"]
        assert report["value_consistency"]["tol"] == tolerances["value"] == 0.0
        assert report["x0"] == report["monte_carlo"]["x0"] == manifest["x0"] == 0.5
        assert {case["x"] for case in report["spike"]["cases"]} == {0.5}

    def test_problem_holds_report_keywords(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.json",
            x0=0.5,
            tolerances={"value": 1e-7},
            verification={"spike": False, "pde": {"orders": [2]}},
        )
        args = argparse.Namespace(out=None, seed=99, grid=None, solver=None)
        kwargs = build_problem(str(cfg), args).verification
        assert kwargs == {
            "x0": 0.5,
            "residual_tol": 1e-8,
            "consistency_tol": 5e-6,
            "value_tol": 1e-7,
            "spike": None,
            "fbsde": {},
            "pde": {"orders": [2]},
            "monte_carlo_cfg": {"seed": 99},
        }

    def test_no_section_means_every_suite_at_its_defaults(self, tmp_path):
        """Without a verification section or a seed, the suites' parsers do not
        load; the keywords are those of a section that turns every suite on."""
        args = argparse.Namespace(out=None, seed=None, grid=None, solver=None)
        every = {"spike": True, "fbsde": True, "pde": True, "monte_carlo": True}
        bare = write_config(tmp_path / "bare.json", x0=0.5, tolerances={"value": 1e-7})
        full = write_config(tmp_path / "full.json", x0=0.5, tolerances={"value": 1e-7},
                            verification=every)
        assert build_problem(str(bare), args).verification == build_problem(
            str(full), args
        ).verification

    @pytest.mark.parametrize(
        "override",
        [
            {"spike": {"times": [1.0]}},
            {"spike": {"epsilons": [-0.1]}},
            {"spike": {"epsilons": [0.5]}},
            {"pde": {"t_samples": [1.5]}},
            {"pde": {"orders": [-1]}},
            {"monte_carlo": {"orders": [1], "num_paths": 64, "num_steps": 4}},
            {"monte_carlo": {"num_paths": 1048576, "num_steps": 32768}},
        ],
    )
    def test_override_a_suite_rejects_exits_2(self, tmp_path, capsys, override):
        cfg = write_config(tmp_path / "c.json", grid_size=64, verification={**_SUITES_OFF, **override})
        out = tmp_path / "out"
        assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 2
        assert "config error: verification: " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "entry, message",
        [
            ({"type": "spline"}, "must be one of constant, polynomial, exponential, samples"),
            (
                {"type": "exponential", "scale": 0.3, "rate": "fast"},
                "coefficients.control_drift.rate must be a number",
            ),
            ({"type": "samples", "times": [0.0, 1.0], "values": [0.3]}, "coefficients.control_drift: "),
        ],
    )
    def test_coefficient_errors(self, tmp_path, capsys, entry, message):
        cfg = write_config(
            tmp_path / "c.json", coefficients={"control_drift": entry, "control_vol": 0.2}
        )
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert message in capsys.readouterr().err


class TestVerifyNonFinite:
    """A verify run that overflows exits 3 and writes nothing."""

    def run_verify(self, tmp_path, capsys, verification=_SUITES_OFF, **overrides):
        cfg = write_config(tmp_path / "c.json", grid_size=64, verification=verification, **overrides)
        out = tmp_path / "out"
        with np.errstate(all="ignore"):
            code = main(["verify", "--config", str(cfg), "--out", str(out)])
        assert code == 3
        assert "NonFiniteResultError" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("state_drift", [800.0, 700.0])
    def test_overflowing_growth(self, tmp_path, capsys, state_drift):
        """exp(800) overflows a float; exp(700) squared overflows the value check."""
        coefficients = {
            "state_drift": state_drift,
            "control_drift": 0.3,
            "drift_offset": 0.1,
            "control_vol": 0.2,
        }
        self.run_verify(tmp_path, capsys, x0=1.0, coefficients=coefficients)

    # a loading of order 1e40 makes the eighth power of the paths overflow
    HUGE_KAPPA = {"variant": "moment_combo", "kappa": 1e40, "weights": [2.0]}

    def test_overflowing_monte_carlo_moments(self, tmp_path, capsys):
        verification = _mc_only(num_paths=64)
        self.run_verify(tmp_path, capsys, verification=verification, objective=self.HUGE_KAPPA)

    def test_monte_carlo_workers_keep_the_callers_errstate(self, tmp_path, capsys):
        """Pool threads run under the caller's np.errstate, so no overflow warning escapes."""
        verification = _mc_only(num_paths=64)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            self.run_verify(tmp_path, capsys, verification=verification, objective=self.HUGE_KAPPA)

    def test_large_growth_solve_raises_no_warning(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.json",
            grid_size=64,
            x0=1.0,
            coefficients={
                "state_drift": 400.0,
                "control_drift": 0.3,
                "drift_offset": 0.1,
                "control_vol": 0.2,
            },
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0


class TestSuiteRanges:
    """Amplitudes and states beyond a suite's documented range are config errors."""

    def run_verify(self, tmp_path, capsys, suite, options, objective=None):
        """verify with one suite on; an ``x0`` in ``options`` is the config's start state."""
        options = dict(options)
        extra = {"x0": options.pop("x0")} if "x0" in options else {}
        verification = {**_SUITES_OFF, suite: options}
        if objective:
            extra["objective"] = objective
        cfg = write_config(tmp_path / "c.json", grid_size=16, verification=verification, **extra)
        out = tmp_path / "out"
        code = main(["verify", "--config", str(cfg), "--out", str(out)])
        return code, capsys.readouterr().err, out

    @pytest.mark.parametrize(
        "suite, options",
        [
            ("spike", {"zetas": [1e300]}),
            ("pde", {"x_samples": [1e300]}),
            ("monte_carlo", {"x0": 1e200}),
            ("pde", {"x_samples": [1e19], "orders": [8]}),
        ],
    )
    def test_out_of_range_exits_2(self, tmp_path, capsys, suite, options):
        code, err, out = self.run_verify(tmp_path, capsys, suite, options)
        assert code == 2
        assert "config error: verification:" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "suite, options",
        [
            ("spike", {"zetas": [1e75, -1e75]}),
            ("pde", {"x_samples": [3.1e37, -3.1e37]}),
            ("monte_carlo", {"x0": -1e150, "num_paths": 64, "num_steps": 16}),
        ],
    )
    def test_range_bounds_run(self, tmp_path, capsys, suite, options):
        """At the bound every number stays finite: the mean-variance suites pass."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, err, _ = self.run_verify(tmp_path, capsys, suite, options)
        assert code == 0, err

    @pytest.mark.parametrize("epsilons", [[1e-13, 2e-13], [0.5, 1e-300]])
    def test_spike_widths_within_the_snap_width_exit_2(self, tmp_path, capsys, epsilons):
        """Such a window merged with its start: the ratios read 0 and spike FAILed."""
        cfg = write_config(
            tmp_path / "c.json",
            grid_size=64,
            verification={"monte_carlo": False, "spike": {"epsilons": epsilons}},
        )
        out = tmp_path / "out"
        assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config error: verification: spike widths must lie in (snap, horizon - t]" in err
        assert "(1e-12, " in err
        assert not out.exists()

    @pytest.mark.parametrize("variant", ["exp", "cosh"])
    def test_spike_that_overflows_an_exponential_penalty_exits_2(self, tmp_path, capsys, variant):
        objective = {"variant": variant, "kappa": 1.0, "c": 1.0}
        code, err, out = self.run_verify(tmp_path, capsys, "spike", {"zetas": [1e4]}, objective)
        assert code == 2
        assert "config error: verification: spike amplitude" in err
        assert not out.exists()


class TestConcavityLocation:
    @pytest.mark.parametrize("solver", ["closed_form", "ode"])
    def test_summary_names_the_worst_node(self, tmp_path, solver):
        """K = -(c/2) exp(c^2 y / 2) is least negative where y = 0, at the horizon."""
        objective = {"variant": "exp", "kappa": 1.0, "c": 1.0}
        cfg = write_config(tmp_path / "c.json", grid_size=64, objective=objective, solver=solver)
        out = tmp_path / "out"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
        summary = json.loads((out / "manifest.json").read_text())["summary"]
        sol = equilibrium.solve(base_coeffs(64), parse_objective(objective), solver)
        worst = int(np.argmax(sol.margins))
        assert worst == 64
        assert summary["concavity_worst_t"] == 1.0
        assert summary["concavity_worst_margin"] == float(sol.margins[worst]) == -0.5
        # the table holds the stored node arrays; the summary adds nothing to it
        nodes = sol.grid.nodes
        columns = (nodes, sol.y, sol.beta, sol.control_many(nodes), sol.value_many(nodes, 0.0))
        expect = TestCsvBytes.rendered(("t", "y", "beta", "control_at_x0", "value_at_x0"), columns)
        assert (out / "solution.csv").read_bytes() == expect.encode()


class TestEntryPoint:
    def test_console_script_runs(self, mv_config, tmp_path):
        out = tmp_path / "out"
        proc = subprocess.run(
            [sys.executable, "-m", "equicontrol.cli", "solve",
             "--config", str(mv_config), "--out", str(out)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "closed_form" in proc.stdout


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=10,
)
_FIELD_VALUES = _JSON | st.lists(st.integers() | st.floats(), max_size=6)
_OBJECTIVE_KEYS = sorted(
    {"kappa"} | {key for cls in VARIANTS.values() for key, _, _ in cls.config_fields}
)
_OBJECTIVE_SECTIONS = _JSON | st.fixed_dictionaries(
    {"variant": st.sampled_from(sorted(VARIANTS)) | _JSON},
    optional={key: _FIELD_VALUES for key in _OBJECTIVE_KEYS},
)
_PARSED_OBJECTIVES = (
    {"variant": "moment_combo", "kappa": 1.0, "weights": [2.0, 0.5, 1.0]},
    {"variant": "standardized", "kappa": 1.0, "weights": [2.0, 1.0]},
    {"variant": "exp", "kappa": 1.0, "c": 1.0},
    {"variant": "cosh", "kappa": 0.5, "c": 2.0},
    {"variant": "cos", "kappa": 1.0, "c": 1.0},
    {"variant": "ambiguous_cos", "kappa": 1.0, "support": [1.5, 2.5], "probs": [0.5, 0.5]},
    {"variant": "fourier_even", "kappa": 1.0, "frequencies": [-2.0, 0.0, 2.0], "density": [0.0, 1.0, 0.0]},
)


_NUMBERS = st.integers(-3, 3) | st.floats(-1e3, 1e3) | st.floats()
_NUMBER_LISTS = st.lists(_NUMBERS, max_size=5)
_COEFFICIENT_ENTRIES = st.one_of(
    _NUMBERS,
    st.fixed_dictionaries({"type": st.just("constant"), "value": _NUMBERS}),
    st.fixed_dictionaries({"type": st.just("polynomial"), "coefficients": _NUMBER_LISTS}),
    st.fixed_dictionaries(
        {"type": st.just("exponential"), "scale": _NUMBERS, "rate": _NUMBERS},
        optional={"offset": _NUMBERS},
    ),
    st.lists(_NUMBERS, min_size=2, max_size=5).map(
        lambda values: {
            "type": "samples",
            "times": np.linspace(0.0, 1.0, len(values)).tolist(),
            "values": values,
        }
    ),
    st.fixed_dictionaries(
        {"type": st.sampled_from(sorted(cf.COEFFICIENTS)) | _JSON},
        optional={
            key: _FIELD_VALUES
            for cls in cf.COEFFICIENTS.values()
            for key, _, _ in cls.config_fields
        },
    ),
    _JSON,
)
_COEFFICIENT_SECTIONS = st.fixed_dictionaries(
    {
        "control_drift": _COEFFICIENT_ENTRIES,
        "control_vol": st.floats(0.01, 10.0) | _COEFFICIENT_ENTRIES,
    },
    optional={name: _COEFFICIENT_ENTRIES for name in ("state_drift", "drift_offset", "vol_offset")},
)
_TIMES = st.lists(st.floats(-0.5, 1.5) | st.sampled_from([0.0, 1.0]), min_size=1, max_size=4)
_ORDERS = st.lists(st.integers(-2, 10), min_size=1, max_size=4)
_WIDE = st.lists(_NUMBERS, min_size=1, max_size=4)
# each suite's overrides with values of the right type in any range
_TYPED_OPTIONS = {
    "spike": {
        "times": _TIMES,
        "zetas": _WIDE,
        "epsilons": st.lists(st.floats(-0.2, 1.2), min_size=1, max_size=4),
        "limit_tol": _NUMBERS,
        "match_tol": _NUMBERS,
    },
    "fbsde": {"times": _TIMES, "tol": _NUMBERS},
    "pde": {
        "orders": _ORDERS,
        "t_samples": _TIMES,
        "x_samples": _WIDE,
        "tol": _NUMBERS,
        "first_order_tol": _NUMBERS,
    },
    "monte_carlo": {"seed": st.integers(), "orders": _ORDERS},
}
_MONTE_CARLO_SIZE = {"num_paths": st.integers(2, 64), "num_steps": st.integers(1, 16)}


def _at_most_64(value):
    return not isinstance(value, (int, float)) or value <= 64


def _suite(name, typed):
    """A suite entry: on, off, or overrides of the right type (typed) or of any JSON value."""
    options = {key: value if typed else _JSON for key, value in _TYPED_OPTIONS[name].items()}
    if name != "monte_carlo":
        return st.booleans() | st.none() | st.fixed_dictionaries({}, optional=options)
    # Monte Carlo is off or runs at most 64 paths of at most 64 steps
    size = {
        key: (value if typed else _JSON).filter(_at_most_64)
        for key, value in _MONTE_CARLO_SIZE.items()
    }
    return st.just(False) | st.fixed_dictionaries(size, optional=options)


# typed sections come twice as often as untyped ones
_VERIFICATION_SECTIONS = st.one_of(
    _JSON.filter(lambda v: not isinstance(v, dict)),
    *(
        st.fixed_dictionaries(
            {"monte_carlo": _suite("monte_carlo", typed)},
            optional={name: _suite(name, typed) for name in ("spike", "fbsde", "pde")},
        )
        for typed in (True, True, False)
    ),
)
_SMALL_VERIFICATION = {"monte_carlo": {"num_paths": 64, "num_steps": 16}}


def _verify_exit(coefficients, verification, x0=0.0):
    """Run ``verify`` at grid 16 on the mean-variance objective; (exit code, stderr)."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg = write_config(
            Path(tmp) / "c.json",
            grid_size=16,
            x0=x0,
            coefficients=coefficients,
            verification=verification,
        )
        out = Path(tmp) / "out"
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            with np.errstate(all="ignore"):
                code = main(["verify", "--config", str(cfg), "--out", str(out)])
        if code in (2, 3):
            assert not out.exists()
    err = err.getvalue()
    assert code in (0, 1, 2, 3), err
    if code == 3:
        assert "solver error (" in err, err
    return code, err


_TOLERANCE_KEYS = ("ode", "residual", "self_consistency", "value")
# output.dir strings stay inside the working directory: no separators, no dots
_OUTPUT_DIRS = st.text("ab", max_size=2) | _JSON.filter(lambda v: not isinstance(v, str))
_OUTPUT_SECTIONS = st.fixed_dictionaries({}, optional={"dir": _OUTPUT_DIRS}) | _JSON.filter(
    lambda v: not (isinstance(v, dict) and "dir" in v)
)
_EDGE_HORIZONS = [1e-11, 1e-20, 1e-300, 1e-320, 5e-324, 1e308]
# the top-level keys, each of the right type in any range or any JSON value
_TOP_LEVEL = st.fixed_dictionaries(
    {"grid_size": (st.integers(-2, 64) | _JSON).filter(_at_most_64)},
    optional={
        "horizon": _NUMBERS | st.sampled_from(_EDGE_HORIZONS) | _JSON,
        "x0": _NUMBERS | _JSON,
        "solver": st.sampled_from(["auto", "ode", "closed_form", "algebraic"]) | _JSON,
        "tolerances": st.fixed_dictionaries(
            {}, optional={key: _NUMBERS | _JSON for key in _TOLERANCE_KEYS}
        )
        | _JSON,
        "output": _OUTPUT_SECTIONS,
    },
)
_SWEEPS = st.tuples(
    st.sampled_from(["kappa", "T"]), st.lists(_NUMBERS, min_size=1, max_size=3)
)


@contextlib.contextmanager
def _working_dir(path):
    previous = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(previous)


def _top_level_exit(top, sweep=None):
    """Run solve (or sweep) on ``top`` with warnings as errors, in an empty working directory."""
    with tempfile.TemporaryDirectory() as tmp, tempfile.TemporaryDirectory() as work:
        cfg = Path(tmp) / "c.json"
        cfg.write_text(
            json.dumps(
                {
                    "coefficients": {"control_drift": 0.3, "control_vol": 0.2},
                    "objective": {"variant": "moment_combo", "kappa": 1.0, "weights": [2.0]},
                    "horizon": 1.0,
                    **top,
                }
            )
        )
        argv = ["solve", "--config", str(cfg)]
        if sweep is not None:
            parameter, values = sweep
            argv = ["sweep", "--config", str(cfg), "--parameter", parameter,
                    "--values=" + ",".join(repr(float(v)) for v in values)]
        err = io.StringIO()
        with _working_dir(work), warnings.catch_warnings():
            warnings.simplefilter("error")
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(argv)
        assert code in (0, 2, 3), err.getvalue()
        if code != 0:
            assert not any(Path(work).iterdir())
        if code == 3:
            assert "solver error (" in err.getvalue()


def _problem(objective, coeffs):
    return Problem(
        coeffs=coeffs,
        objective=parse_objective(objective),
        x0=0.0,
        solver="auto",
        tolerances={},
        verification={},
        out_dir=Path("unused"),
        config_sha256="",
        config_path="",
    )


class TestParserProperties:
    """Every input ends in a parsed value or a ConfigError (exit 2), never another error."""

    @given(section=_OBJECTIVE_SECTIONS)
    @settings(max_examples=400, deadline=None)
    def test_objective_section(self, section):
        try:
            spec = parse_objective(section)
        except ConfigError:
            return
        assert isinstance(spec, ObjectiveSpec)

    @given(
        objective=st.sampled_from(_PARSED_OBJECTIVES),
        curved=st.booleans(),
        parameter=st.sampled_from(_SWEEP_PARAMETERS) | st.text(max_size=8),
        value=st.floats(allow_nan=False, allow_infinity=False),
    )
    @settings(max_examples=400, deadline=None)
    def test_sweep_value(self, objective, curved, parameter, value):
        problem = _problem(objective, curved_coeffs(16) if curved else base_coeffs(16))
        try:
            swept = _sweep_problem(problem, parameter, value)
        except ConfigError:
            return
        assert isinstance(swept, Problem)

    @given(top=_TOP_LEVEL)
    @settings(max_examples=150, deadline=None)
    def test_top_level_keys_through_solve(self, top):
        """solve exits 0, 2 or 3, never with a traceback or a warning."""
        _top_level_exit(top)

    @given(top=_TOP_LEVEL, sweep=_SWEEPS)
    @settings(max_examples=60, deadline=None)
    def test_top_level_keys_through_sweep(self, top, sweep):
        _top_level_exit(top, sweep)

    @given(section=_COEFFICIENT_SECTIONS)
    # finite drift nodes whose spline slopes overflow in the PDE check
    @example(
        section={
            "control_drift": 0,
            "control_vol": 1.0,
            "state_drift": -551.0,
            "vol_offset": 0,
            "drift_offset": 5.843800830093911e306,
        }
    )
    @settings(max_examples=150, deadline=None)
    def test_coefficient_section_through_verify(self, section):
        """verify ends in 0, 1, 2 or a solver error (3), never in a traceback."""
        _verify_exit(section, _SMALL_VERIFICATION)

    @given(section=_VERIFICATION_SECTIONS, x0=_NUMBERS)
    @settings(max_examples=150, deadline=None)
    def test_verification_section_through_verify(self, section, x0):
        """Every suite starts at x0, so x0 is drawn in any range with the section."""
        code, err = _verify_exit({"control_drift": 0.3, "control_vol": 0.2}, section, x0)
        # the suites' own range checks are configuration errors, never solver errors
        assert not (code == 3 and "DomainError" in err), err
