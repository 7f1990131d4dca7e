"""Command-line front end: solve, verify, sweep.

Problem configurations are JSON files; the schema is documented in the
README.  Exit statuses: 0 success (and all checks passed for ``verify``),
1 verification failure, 2 configuration error, 3 solver error, which
includes an array the machine cannot allocate.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from . import coeffs as cf
from .equilibrium import SOLVERS, solve, solve_many
from .errors import ConfigError, DomainError, EquicontrolError, NonFiniteResultError, SolverError
from .objectives import VARIANTS, ObjectiveSpec

_SOLVER_NAMES = ("auto", *SOLVERS)
# the mean weight, every family's own parameters, then the horizon
_SWEEP_PARAMETERS = ("kappa", *dict.fromkeys(p for v in VARIANTS.values() for p in v.sweepable), "T")
_CSV_HEADER = ("t", "y", "beta", "control_at_x0", "value_at_x0")


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


def _at_least(minimum: int):
    def parse(value, context: str) -> int:
        value = _integral(value, context)
        if value < minimum:
            raise ConfigError(f"{context} must be at least {minimum}, got {value}")
        return value

    return parse


def _seed(value, context: str) -> int:
    """A Monte Carlo seed: an integer the counter-based generator takes as a key word."""
    from .verify import MC_SEED_RANGE  # only a config or command line with a seed loads verify

    seed = _integral(value, context)
    lo, hi = MC_SEED_RANGE
    if not lo <= seed <= hi:
        raise ConfigError(f"{context} must lie in [{lo}, {hi}], got {seed}")
    return seed


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


def _integer_list(value, context: str):
    return [_integral(v, f"{context} entry") for v in _number_list(value, context)]


def _fields(section: dict, fields, context: str) -> list:
    """The values of ``fields``, each (key, float or list, default or None if required)."""
    return [
        _number(section, key, context, default)
        if field_type is float
        else tuple(_number_list(section.get(key), f"{context}.{key}"))
        for key, field_type, default in fields
    ]


def _registry_entry(section: dict, type_key: str, registry: dict, context: str, keys=()):
    """The class that ``section[type_key]`` names in ``registry`` and the values
    of its ``config_fields``; ``keys`` are the other keys the section may hold."""
    kind = section.get(type_key)
    cls = registry.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ConfigError(
            f"{context}.{type_key} must be one of {', '.join(registry)}; got {kind!r}"
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
    cls, values = _registry_entry(entry, "type", cf.COEFFICIENTS, context)
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
    cls, values = _registry_entry(section, "variant", VARIANTS, "objective", ("kappa",))
    return _objective(kappa, lambda: cls.from_config(*values))


# the overrides each verification suite accepts, with the parser of each value
_SUITE_OPTIONS = {
    "spike": {
        "times": _number_list,
        "zetas": _number_list,
        "epsilons": _number_list,
        "limit_tol": _tolerance,
        "match_tol": _tolerance,
    },
    "fbsde": {"times": _number_list, "tol": _tolerance},
    "pde": {
        "orders": _integer_list,
        "t_samples": _number_list,
        "x_samples": _number_list,
        "tol": _tolerance,
        "first_order_tol": _tolerance,
    },
    "monte_carlo": {
        "seed": _seed,
        "num_paths": _at_least(2),
        "num_steps": _at_least(1),
        "orders": _integer_list,
    },
}


def _verification_kwargs(section, x0: float, tolerances: dict, horizon: float, seed) -> dict:
    """The keyword arguments of ``verification_report`` for a verification section.

    Each suite key may be true (defaults), false (skip) or an object of
    overrides; by default every suite runs.  ``seed`` is the ``--seed``
    override of the Monte Carlo seed, or None.  The check tolerances and the
    start state are the config's ``tolerances`` and ``x0``, which the
    manifest records.  The suites check the ranges of their own overrides
    when they run.
    """
    section = _require_mapping(section, "verification")
    _check_keys(section, _SUITE_OPTIONS, "verification")
    kwargs = {
        "x0": x0,
        "residual_tol": tolerances["residual"],
        "consistency_tol": tolerances["self_consistency"],
        "value_tol": tolerances["value"],
    }
    for key, parsers in _SUITE_OPTIONS.items():
        kw = "monte_carlo_cfg" if key == "monte_carlo" else key
        choice = section.get(key, True)
        if choice is True:
            kwargs[kw] = {}
        elif choice is False or choice is None:
            kwargs[kw] = None
        else:
            context = f"verification.{key}"
            options = _require_mapping(choice, context)
            _check_keys(options, parsers, context)
            kwargs[kw] = {
                name: parsers[name](value, f"{context}.{name}") for name, value in options.items()
            }
    for key in ("spike", "fbsde"):
        times = (kwargs[key] or {}).get("times", ())
        if any(not 0.0 <= t <= horizon for t in times):
            raise ConfigError(f"verification.{key}.times must lie in [0, {horizon}], got {times}")
    if kwargs["monte_carlo_cfg"] is not None and seed is not None:
        kwargs["monte_carlo_cfg"]["seed"] = _seed(seed, "--seed")
    return kwargs


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
    "ode": 1e-8,
    "residual": 1e-8,
    "self_consistency": 5e-6,
    "value": 1e-8,
}


@dataclasses.dataclass(frozen=True)
class Problem:
    """A fully parsed configuration plus command-line overrides.

    ``verification`` holds the keyword arguments of ``verification_report``.
    """

    coeffs: cf.CoefficientSet
    objective: ObjectiveSpec
    x0: float
    solver: str
    tolerances: dict
    verification: dict
    out_dir: Path
    config_sha256: str
    config_path: str


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
    raised before anything is written.
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
    rows = zip(*(c.tolist() for c in columns))
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(line % row for row in rows)
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
    problem = build_problem(args.config, args)
    sol = _solve_problem(problem)
    try:
        report = verification_report(sol, **problem.verification)
    except DomainError as exc:
        # the solution exists, so the only domain checks left to fail are the
        # suites' range checks of their overrides: a configuration error
        raise ConfigError(f"verification: {exc}") from exc
    try:
        text = json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError as exc:
        raise NonFiniteResultError("the verification report holds a NaN or an infinity") from exc
    problem.out_dir.mkdir(parents=True, exist_ok=True)
    report_path = problem.out_dir / "verification.json"
    report_path.write_text(text)
    _write_manifest(problem, sol, "verify", [report_path], {"passed": report["passed"]})

    for key, value in report.items():
        if isinstance(value, dict) and "passed" in value:
            print(f"{key}: {'PASS' if value['passed'] else 'FAIL'}")
    print(f"overall: {'PASS' if report['passed'] else 'FAIL'}")
    print(f"wrote {report_path}")
    return 0 if report["passed"] else 1


def _sweep_problem(problem: Problem, parameter: str, value: float) -> Problem:
    """A copy of the problem with one swept parameter replaced."""
    spec = problem.objective
    if parameter == "T":
        try:
            grid = cf.TimeGrid(value, problem.coeffs.grid.num_steps)
            coeffs = dataclasses.replace(problem.coeffs, grid=grid)
        except EquicontrolError as exc:
            raise ConfigError(f"cannot sweep T to {value}: {exc}") from exc
        return dataclasses.replace(problem, coeffs=coeffs)
    if parameter == "kappa":
        objective = _objective(value, lambda: spec.variant)
    elif parameter in spec.variant.sweepable:
        objective = _objective(spec.kappa, lambda: spec.variant.swept(parameter, value))
    elif parameter in _SWEEP_PARAMETERS:
        families = [kind for kind, cls in VARIANTS.items() if parameter in cls.sweepable]
        raise ConfigError(
            f"parameter {parameter!r} needs one of the objectives {', '.join(families)},"
            f" not {spec.variant.kind}"
        )
    else:
        raise ConfigError(
            f"unknown sweep parameter {parameter!r}; pick one of {', '.join(_SWEEP_PARAMETERS)}"
        )
    return dataclasses.replace(problem, objective=objective)


def cmd_sweep(args) -> int:
    problem = build_problem(args.config, args)
    try:
        values = [
            _finite(float(v), "sweep value") for v in args.values.split(",") if v.strip() != ""
        ]
    except ValueError as exc:
        raise ConfigError(f"cannot parse sweep values {args.values!r}: {exc}") from exc
    if not values:
        raise ConfigError("sweep needs at least one value")

    # the values' problems up to the first that cannot be built; the values
    # before it are solved first, so the first failing value gives the error
    subs, failure = [], None
    for value in values:
        try:
            subs.append(_sweep_problem(problem, args.parameter, value))
        except ConfigError as exc:
            failure = exc
            break
    sols = solve_many(
        [(sub.coeffs, sub.objective) for sub in subs],
        solver=problem.solver,
        ode_tol=problem.tolerances["ode"],
    )
    if failure is not None:
        raise failure
    x0 = problem.x0
    rows = [
        (value, sol.beta_at(0.0), sol.control(0.0), sol.value(0.0, x0), sol.y_at(0.0))
        for value, sol in zip(values, sols)
    ]

    header = (args.parameter, "beta_0", "control_at_x0", "value_at_x0", "y_0")
    csv_path = _write_csv(problem.out_dir, "sweep.csv", header, list(zip(*rows)))
    print(",".join(header))
    for row in rows:
        print(",".join(_fmt(v) for v in row))
    print(f"wrote {csv_path}")
    return 0


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
    sys.exit(main())
