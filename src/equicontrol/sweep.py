"""The ``sweep`` command: one problem solved over a list of values of one parameter.

``cli.main`` loads this module on the first ``sweep``, so that ``solve``
and ``verify`` never compile it.  The problem, the parsing of numbers and
the CSV table are ``cli``'s.
"""

from __future__ import annotations

from . import cli
from . import coeffs as cf
from .cli import _SWEEP_PARAMETERS, Problem, _finite, _fmt, _objective, _write_csv
from .equilibrium import solve_many
from .errors import ConfigError, EquicontrolError
from .objectives import VARIANT_KINDS, variant_class


def _sweep_problem(problem: Problem, parameter: str, value: float) -> Problem:
    """A copy of the problem with one swept parameter replaced."""
    coeffs, objective = problem.coeffs, problem.objective
    variant = objective.variant
    if parameter == "T":
        try:
            grid = cf.TimeGrid(value, coeffs.grid.num_steps)
            coeffs = cf.CoefficientSet(grid, *(getattr(coeffs, name) for name, _ in coeffs.paths))
        except EquicontrolError as exc:
            raise ConfigError(f"cannot sweep T to {value}: {exc}") from exc
    elif parameter == "kappa":
        objective = _objective(value, lambda: variant)
    elif parameter in variant.sweepable:
        objective = _objective(objective.kappa, lambda: variant.swept(parameter, value))
    elif parameter in _SWEEP_PARAMETERS:
        families = [kind for kind in VARIANT_KINDS if parameter in variant_class(kind).sweepable]
        raise ConfigError(
            f"parameter {parameter!r} needs one of the objectives {', '.join(families)},"
            f" not {variant.kind}"
        )
    else:
        raise ConfigError(
            f"unknown sweep parameter {parameter!r}; pick one of {', '.join(_SWEEP_PARAMETERS)}"
        )
    return Problem(coeffs, objective, problem.x0, problem.solver, problem.tolerances,
                   problem.verification, problem.out_dir, problem.config_sha256,
                   problem.config_path)


def cmd_sweep(args) -> int:
    # looked up on ``cli`` at each call, where the benchmark's tracer wraps it
    problem = cli.build_problem(args.config, args)
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
