"""Command-line front end: solve, verify, sweep.

Problem configurations are JSON files; the schema is documented in the
README.  Exit statuses: 0 success (and all checks passed for ``verify``),
1 verification failure, 2 configuration error, 3 solver error, which
includes an array the machine cannot allocate.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from . import coeffs as cf
from .equilibrium import ODE_TOL, SOLVERS, solve
from .errors import ConfigError, EquicontrolError, NonFiniteResultError, SolverError
from .objectives import SWEEP_PARAMETERS, VARIANT_KINDS, ObjectiveSpec, variant_class

_SOLVER_NAMES = ("auto", *SOLVERS)
# the mean weight, every family's own parameters, then the horizon
_SWEEP_PARAMETERS = ("kappa", *SWEEP_PARAMETERS, "T")
_CSV_HEADER = ("t", "y", "beta", "control_at_x0", "value_at_x0")
# rows per formatted block: a block of 4,097 x 5 cells peaks at twice the
# memory of formatting row by row, one of 1,024 rows below it, at equal speed
_CSV_BLOCK_ROWS = 1024


def _fmt(x: float) -> str:
    return "%.17g" % float(x)


def _require_mapping(obj, context: str) -> dict:
    if not isinstance(obj, dict):
        raise ConfigError(f"{context} must be an object, got {type(obj).__name__}")
    return obj


def _check_keys(mapping: dict, allowed, context: str) -> None:
    unknown = sorted(set(mapping) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown {context} keys: {', '.join(unknown)}")


def _finite(value, context: str) -> float:
    """A finite float from a JSON number; JSON's NaN and Infinity literals are rejected."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{context} must be a number, got {value!r}")
    try:
        value = float(value)
    except OverflowError:  # an integer literal beyond the float range
        value = math.inf
    if not math.isfinite(value):
        raise ConfigError(f"{context} must be finite, got {value!r}")
    return value


def _tolerance(value, context: str, positive: bool = False) -> float:
    value = _finite(value, context)
    if value < 0.0 or (positive and value == 0.0):
        bound = "positive" if positive else "nonnegative"
        raise ConfigError(f"{context} must be {bound}, got {value!r}")
    return value


def _number(mapping: dict, key: str, context: str, default=None):
    if key not in mapping:
        if default is None:
            raise ConfigError(f"{context} is missing required key {key!r}")
        return default
    return _finite(mapping[key], f"{context}.{key}")


def _integral(value, context: str) -> int:
    """An int from a JSON number with an integral value (64 and 64.0 pass, 64.9 does not)."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    value = _finite(value, context)
    if not value.is_integer():
        raise ConfigError(f"{context} must be an integer, got {value!r}")
    return int(value)


def _number_list(value, context: str):
    if not isinstance(value, (list, tuple)) or not value:
        raise ConfigError(f"{context} must be a nonempty array of numbers")
    # plain finite numbers need no error context; ``_finite`` raises at a bad entry
    try:
        numbers = [float(v) for v in value if type(v) is float or type(v) is int]
    except OverflowError:  # an integer literal beyond the float range
        numbers = ()
    if len(numbers) == len(value) and all(map(math.isfinite, numbers)):
        return numbers
    return [_finite(v, f"{context} entry") for v in value]


def _fields(section: dict, fields, context: str) -> list:
    """The values of ``fields``, each (key, float or list, default or None if required)."""
    return [
        _number(section, key, context, default)
        if field_type is float
        else tuple(_number_list(section.get(key), f"{context}.{key}"))
        for key, field_type, default in fields
    ]


def _registry_entry(section: dict, type_key: str, kinds, lookup, context: str, keys=()):
    """The class ``lookup`` gives for the name ``section[type_key]``, one of
    ``kinds``, and the values of its ``config_fields``; ``keys`` are the other
    keys the section may hold."""
    kind = section.get(type_key)
    cls = lookup(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ConfigError(
            f"{context}.{type_key} must be one of {', '.join(kinds)}; got {kind!r}"
        )
    _check_keys(section, (type_key, *keys, *(key for key, _, _ in cls.config_fields)), context)
    return cls, _fields(section, cls.config_fields, context)


def parse_coefficient(entry, context: str):
    """Build a coefficient descriptor from a config entry.

    A bare number is shorthand for a constant path; otherwise an object whose
    ``type`` names one of ``coeffs.COEFFICIENTS``.
    """
    if isinstance(entry, bool):
        raise ConfigError(f"{context} must be a number or an object")
    if isinstance(entry, (int, float)):
        return cf.ConstantCoefficient(_finite(entry, context))
    entry = _require_mapping(entry, context)
    cls, values = _registry_entry(entry, "type", cf.COEFFICIENTS, cf.COEFFICIENTS.get, context)
    try:
        return cls(*values)
    except EquicontrolError as exc:
        raise ConfigError(f"{context}: {exc}") from exc


def parse_coefficients(section, grid: cf.TimeGrid) -> cf.CoefficientSet:
    section = _require_mapping(section, "coefficients")
    _check_keys(section, [name for name, _ in cf.CoefficientSet.paths], "coefficients")
    paths = {}
    for name, default in cf.CoefficientSet.paths:
        if name not in section and default is None:
            raise ConfigError(f"coefficients is missing required key {name!r}")
        paths[name] = parse_coefficient(section.get(name, default), f"coefficients.{name}")
    try:
        return cf.CoefficientSet(grid, **paths)
    except EquicontrolError as exc:
        raise ConfigError(f"coefficients: {exc}") from exc


def _objective(kappa: float, build_variant) -> ObjectiveSpec:
    """ObjectiveSpec(kappa, build_variant()), with invalid values as config errors."""
    try:
        return ObjectiveSpec(kappa, build_variant())
    except EquicontrolError as exc:
        raise ConfigError(f"objective: {exc}") from exc


def parse_objective(section) -> ObjectiveSpec:
    section = _require_mapping(section, "objective")
    kappa = _number(section, "kappa", "objective")
    cls, values = _registry_entry(
        section, "variant", VARIANT_KINDS, variant_class, "objective", ("kappa",)
    )
    return _objective(kappa, lambda: cls.from_config(*values))


def _verification_kwargs(section, x0: float, tolerances: dict, horizon: float, seed) -> dict:
    """The keyword arguments of ``verification_report`` for a verification section.

    Each suite key may be true (defaults), false (skip) or an object of
    overrides; by default every suite runs.  ``seed`` is the ``--seed``
    override of the Monte Carlo seed, or None.  The check tolerances and the
    start state are the config's ``tolerances`` and ``x0``, which the
    manifest records.  The suites check the ranges of their own overrides
    when they run.
    """
    kwargs = {
        "x0": x0,
        "residual_tol": tolerances["residual"],
        "consistency_tol": tolerances["self_consistency"],
        "value_tol": tolerances["value"],
    }
    if section == {} and seed is None:
        return dict(kwargs, spike={}, fbsde={}, pde={}, monte_carlo_cfg={})
    # only a verification section or a seed loads the suites' option parsers
    from .verify_command import suite_kwargs

    return dict(kwargs, **suite_kwargs(section, horizon, seed))


_TOP_KEYS = (
    "horizon",
    "grid_size",
    "x0",
    "coefficients",
    "objective",
    "solver",
    "tolerances",
    "verification",
    "output",
)
_DEFAULT_TOLERANCES = {
    "ode": ODE_TOL,
    "residual": 1e-8,
    "self_consistency": 5e-6,
    "value": 1e-8,
}


class Problem:
    """A fully parsed configuration plus command-line overrides.

    ``verification`` holds the keyword arguments of ``verification_report``.
    """

    def __init__(self, coeffs: cf.CoefficientSet, objective: ObjectiveSpec, x0: float, solver: str,
                 tolerances: dict, verification: dict, out_dir: Path, config_sha256: str,
                 config_path: str):
        self.coeffs, self.objective, self.x0, self.solver = coeffs, objective, x0, solver
        self.tolerances, self.verification, self.out_dir = tolerances, verification, out_dir
        self.config_sha256, self.config_path = config_sha256, config_path


def load_config(path: str) -> tuple[dict, str]:
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        cfg = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return _require_mapping(cfg, "config"), hashlib.sha256(raw).hexdigest()


def build_problem(path: str, args) -> Problem:
    """Parse and check every section of the config at ``path``, with the overrides in ``args``."""
    cfg, sha = load_config(path)
    _check_keys(cfg, _TOP_KEYS, "config")
    horizon = _number(cfg, "horizon", "config")
    grid_size = _integral(cfg.get("grid_size", 512), "config.grid_size")
    if args.grid is not None:
        grid_size = args.grid
    try:
        grid = cf.TimeGrid(horizon, grid_size)
    except EquicontrolError as exc:
        raise ConfigError(str(exc)) from exc
    x0 = _number(cfg, "x0", "config", default=0.0)

    solver = cfg.get("solver", "auto")
    if args.solver is not None:
        solver = args.solver
    if solver not in _SOLVER_NAMES:
        raise ConfigError(
            f"solver must be one of {', '.join(_SOLVER_NAMES)}; got {solver!r}"
        )

    tolerances = dict(_DEFAULT_TOLERANCES)
    tol_section = _require_mapping(cfg.get("tolerances", {}), "tolerances")
    _check_keys(tol_section, _DEFAULT_TOLERANCES, "tolerances")
    for key, value in tol_section.items():
        # the ODE tolerance is a step target, the others are bounds a check may meet exactly
        tolerances[key] = _tolerance(value, f"tolerances.{key}", positive=key == "ode")

    output = _require_mapping(cfg.get("output", {}), "output")
    _check_keys(output, ("dir",), "output")
    out_dir = output.get("dir", "equicontrol-out")
    if not isinstance(out_dir, str) or not out_dir:
        raise ConfigError(f"output.dir must be a nonempty string, got {out_dir!r}")

    for key in ("coefficients", "objective"):
        if key not in cfg:
            raise ConfigError(f"config is missing required key {key!r}")
    coeffs = parse_coefficients(cfg["coefficients"], grid)
    objective = parse_objective(cfg["objective"])
    verification = _verification_kwargs(
        cfg.get("verification", {}), x0, tolerances, horizon, args.seed
    )
    return Problem(
        coeffs=coeffs,
        objective=objective,
        x0=x0,
        solver=solver,
        tolerances=tolerances,
        verification=verification,
        out_dir=Path(args.out or out_dir),
        config_sha256=sha,
        config_path=str(path),
    )


def _solve_problem(problem: Problem):
    return solve(
        problem.coeffs,
        problem.objective,
        solver=problem.solver,
        ode_tol=problem.tolerances["ode"],
    )


def _write_manifest(problem: Problem, sol, command: str, outputs, extra=None) -> Path:
    manifest = {
        "command": command,
        "config_path": problem.config_path,
        "config_sha256": problem.config_sha256,
        "package_version": __version__,
        "solver_requested": problem.solver,
        "solver_used": sol.solver_name,
        "grid_size": problem.coeffs.grid.num_steps,
        "horizon": problem.coeffs.grid.horizon,
        "x0": problem.x0,
        "tolerances": problem.tolerances,
        "outputs": [str(p) for p in outputs],
    }
    if extra:
        manifest.update(extra)
    path = problem.out_dir / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return path


def _write_csv(out_dir: Path, name: str, header, columns) -> Path:
    """Write equal-length columns as a CSV table under ``header``.

    A column that holds a NaN or an infinity is a ``NonFiniteResultError``,
    raised before anything is written.  Rows are formatted and written in
    blocks of ``_CSV_BLOCK_ROWS``, each with one ``%``.
    """
    columns = [np.asarray(c, dtype=float) for c in columns]
    for key, column in zip(header, columns):
        bad = ~np.isfinite(column)
        if np.any(bad):
            raise NonFiniteResultError(
                f"{key} is not finite at {int(np.count_nonzero(bad))} of {bad.size} rows"
            )
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / name
    line = ("%.17g," * len(header))[:-1] + "\n"
    table = np.column_stack(columns)
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for i in range(0, len(table), _CSV_BLOCK_ROWS):
            block = table[i : i + _CSV_BLOCK_ROWS]
            fh.write((line * len(block)) % tuple(block.ravel().tolist()))
    return path


def cmd_solve(args) -> int:
    problem = build_problem(args.config, args)
    sol = _solve_problem(problem)
    nodes = sol.grid.nodes
    y = sol.y_many(nodes)
    beta = sol.beta_many(nodes)
    control = sol.control_many(nodes)
    values = sol.value_many(nodes, problem.x0)
    columns = (nodes, y, beta, control, values)
    csv_path = _write_csv(problem.out_dir, "solution.csv", _CSV_HEADER, columns)
    summary = {
        "y_0": float(y[0]),
        "beta_0": float(beta[0]),
        "control_at_x0_0": float(control[0]),
        "value_at_x0_0": float(values[0]),
        "concavity_worst_margin": float(sol.margins.max()),
        "concavity_worst_t": float(nodes[np.argmax(sol.margins)]),
        "ode_error_estimate": sol.ode_error_estimate,
        "ode_relative_error_estimate": sol.ode_relative_error_estimate,
        "ode_steps": sol.ode_steps,
        "ode_rejected_steps": sol.ode_rejected_steps,
        "ode_min_step": sol.ode_min_step,
    }
    _write_manifest(problem, sol, "solve", [csv_path], {"summary": summary})
    print(f"solver: {sol.solver_name}")
    for key, val in summary.items():
        print(f"{key}: {_fmt(val)}")
    print(f"wrote {csv_path}")
    return 0


def verification_report(sol, **kwargs) -> dict:
    """``verify.verification_report``; the suites load on the first ``verify``."""
    from .verify import verification_report as report

    return report(sol, **kwargs)


def cmd_verify(args) -> int:
    """``verify_command.cmd_verify``, loaded on the first ``verify``."""
    from .verify_command import cmd_verify as verify

    return verify(args)


def cmd_sweep(args) -> int:
    """``sweep.cmd_sweep``; the sweep command loads on the first ``sweep``."""
    from .sweep import cmd_sweep as sweep

    return sweep(args)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="equicontrol",
        description="Time-consistent controls for moment-based objectives.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="path to a JSON problem config")
        p.add_argument("--out", default=None, help="output directory (overrides config)")
        p.add_argument("--seed", type=int, default=None, help="Monte Carlo seed override")
        p.add_argument("--grid", type=int, default=None, help="grid size override")
        p.add_argument(
            "--solver", default=None, choices=_SOLVER_NAMES, help="solver override"
        )

    p_solve = sub.add_parser("solve", help="solve and write the strategy table")
    common(p_solve)
    p_verify = sub.add_parser("verify", help="solve and run the verification suite")
    common(p_verify)
    p_sweep = sub.add_parser("sweep", help="re-solve over a range of one parameter")
    common(p_sweep)
    p_sweep.add_argument(
        "--parameter", required=True, help="one of " + ", ".join(_SWEEP_PARAMETERS)
    )
    p_sweep.add_argument(
        "--values", required=True, help="comma-separated list of parameter values"
    )
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {"solve": cmd_solve, "verify": cmd_verify, "sweep": cmd_sweep}
    try:
        # numpy's floating-point warnings are off: every number a command
        # writes is checked first, and a non-finite one is a solver error
        with np.errstate(all="ignore"):
            try:
                return handlers[args.command](args)
            except OverflowError as exc:  # Python float arithmetic, e.g. x ** 2
                raise NonFiniteResultError(f"a computation overflowed: {exc}") from exc
            except MemoryError as exc:  # numpy's refusal, e.g. the nodes of a huge grid
                raise SolverError(f"out of memory: {exc}") from exc
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except EquicontrolError as exc:
        print(f"solver error ({type(exc).__name__}): {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    # under ``python -m equicontrol.cli``, the command modules' ``from . import
    # cli`` finds this module instead of compiling and running a second copy
    sys.modules["equicontrol.cli"] = sys.modules[__name__]
    sys.exit(main())
