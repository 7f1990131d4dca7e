"""The ``verify`` command and the parsers of its config section.

``cli`` loads this module on the first ``verify``, and in any command for a
config with a ``verification`` section or a ``--seed``, so that a ``solve``
or ``sweep`` of a config with neither never compiles it.  The problem, the
number parsers and the output files are ``cli``'s.
"""

from __future__ import annotations

import json

from . import cli
from .cli import _check_keys, _integral, _number_list, _require_mapping, _tolerance
from .errors import ConfigError, DomainError, NonFiniteResultError


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


def _integer_list(value, context: str):
    return [_integral(v, f"{context} entry") for v in _number_list(value, context)]


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


def suite_kwargs(section, horizon: float, seed) -> dict:
    """The suites' keyword arguments of ``verification_report``: see
    ``cli._verification_kwargs``."""
    section = _require_mapping(section, "verification")
    _check_keys(section, _SUITE_OPTIONS, "verification")
    kwargs = {}
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


def cmd_verify(args) -> int:
    # looked up on ``cli`` at each call, where the benchmark's tracer wraps them
    problem = cli.build_problem(args.config, args)
    sol = cli._solve_problem(problem)
    try:
        report = cli.verification_report(sol, **problem.verification)
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
    cli._write_manifest(problem, sol, "verify", [report_path], {"passed": report["passed"]})

    for key, value in report.items():
        if isinstance(value, dict) and "passed" in value:
            print(f"{key}: {'PASS' if value['passed'] else 'FAIL'}")
    print(f"overall: {'PASS' if report['passed'] else 'FAIL'}")
    print(f"wrote {report_path}")
    return 0 if report["passed"] else 1
