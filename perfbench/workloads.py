"""The benchmark's workloads: configs, command lists and output checks.

Every workload is a fixed list of ``equicontrol`` CLI commands.  Its configs
are generated from the workload seed, which jitters the mean weight kappa and
the penalty scale c inside ranges that keep every config solvable:

* kappa in [0.9, 1.1]: the cos budget kappa^2 * 0.25 stays below 1, the
  Gaussian-amplitude Fourier budget 2 kappa^2 * 0.25 below 1, and the
  ambiguous-cos budget kappa^2 * 2.25 below its reachable supremum 3.78;
* c in [0.8, 1.2]: the Fourier window does not depend on it and every exp,
  cosh and cos curvature stays negative.

Each command carries a check that compares its outputs with references this
module computes itself (closed forms, or an independent scipy root of the
first integral P(y) = kappa^2 theta), never with the program's own solvers.
Tolerances are those of the repository's tests.

This module imports only the standard library at import time, so the set-up
probe can time the program's import on its own.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

# Monte Carlo seeds for ``verify``.  The Monte Carlo check is a 3-standard-
# error band, so about one seed in a hundred misses it by chance.  These seeds
# keep every band of both verify configs within 2.5 standard errors over the
# whole kappa range, at full and smoke size; ``mc_seed_pool.py`` re-derives
# the list.  The workload seed picks one of them.
MC_SEEDS = (20240801, 20240802, 20240803, 20240804, 20240805, 20240806, 20240807, 20240808)
MC_SEED_MARGIN = 2.5

WORKLOADS = ("fine-grid-solve", "ode-variants-solve", "verify-default", "sweep-coarse")

# baseline dynamics: dX = 0.3 u dt + 0.2 u dW, squared budget rate (b/d)^2 = 2.25
_B, _D = 0.3, 0.2
_B_SMALL = 0.1  # budget rate 0.25 for the bounded cos and Fourier penalties
_MOMENT6 = [1.0, 0.0, 0.5, 0.0, 0.25]  # kappa_2, kappa_3, kappa_4, kappa_5, kappa_6
_KURT = [1.0, 0.0, 1.0]
_AMBIGUOUS = {"support": [1.5, 2.5], "probs": [0.5, 0.5]}

# tolerances of the repository's tests (tests/test_equilibrium.py, test_cli.py
# and test_acceptance.py)
_CLOSED_RTOL = 1e-12  # closed-form y_0 and beta
_ODE_RTOL, _ODE_ATOL = 1e-10, 1e-12  # ODE against a closed form
_ROOT_RTOL, _ROOT_ATOL = 1e-8, 1e-12  # root-solved y against an independent root
_FOURIER_ATOL = 1e-9  # y_0 = sqrt(2) - 1 identity
_STANDARDIZED_ATOL = 1e-5  # beta = 3.75 kappa (criterion 07)
_SWEEP_T_RTOL = 1e-10  # horizon sweep


def _coefficients(kind: str) -> dict:
    if kind == "full":
        return {"control_drift": _B, "control_vol": _D}
    if kind == "small":
        return {"control_drift": _B_SMALL, "control_vol": _D}
    if kind == "curved":
        return {
            "state_drift": {"type": "exponential", "scale": 0.1, "rate": 0.5},
            "control_drift": _B,
            "drift_offset": 0.05,
            "control_vol": _D,
            "vol_offset": 0.1,
        }
    raise ValueError(kind)


def _budget_rate(kind: str) -> float:
    return ((_B_SMALL if kind == "small" else _B) / _D) ** 2


def _fourier_objective(kappa: float, half_width: float = 12.0, samples: int = 2401) -> dict:
    """1 - E[cos(H x)] with standard normal H: unit atom minus the normal density."""
    step = 2.0 * half_width / (samples - 1)
    freqs = [-half_width + k * step for k in range(samples)]
    density = [-math.exp(-0.5 * f * f) / math.sqrt(2.0 * math.pi) for f in freqs]
    return {
        "variant": "fourier_even",
        "kappa": kappa,
        "frequencies": freqs,
        "density": density,
        "atom": 1.0,
    }


# --------------------------------------------------------------- references


def _moment_q(weights):
    """Coefficients of Q(y) = -2 K(y) = sum_j kappa_2j y^(j-1) / (2j-2)!!."""
    q = []
    for j in range(1, (len(weights) + 1) // 2 + 1):
        w = weights[2 * j - 2] if 2 * j - 2 < len(weights) else 0.0
        q.append(w / float(math.prod(range(2 * j - 2, 0, -2))))
    return q


def _moment_p(q, y):
    """P(y) = int_0^y Q(z)^2 dz, by exact polynomial integration."""
    total = 0.0
    for i, qi in enumerate(q):
        for k, qk in enumerate(q):
            total += qi * qk * y ** (i + k + 1) / (i + k + 1)
    return total


def _root_of(p, target):
    from scipy.optimize import brentq

    if target <= 0.0:
        return 0.0
    hi = 1.0 + target
    while p(hi) < target:
        hi *= 2.0
    return brentq(lambda y: p(y) - target, 0.0, hi, xtol=1e-15, rtol=1e-15, maxiter=200)


def _ambiguous_p(y):
    """P(y) = int_0^y (E[H^2 exp(-H^2 z / 2)])^2 dz by adaptive quadrature."""
    from scipy.integrate import quad

    v, p = _AMBIGUOUS["support"], _AMBIGUOUS["probs"]

    def slope(z):
        return sum(pi * vi * vi * math.exp(-0.5 * vi * vi * z) for vi, pi in zip(v, p)) ** 2

    return quad(slope, 0.0, y, epsabs=0.0, epsrel=1e-13, limit=200)[0]


# ------------------------------------------------------------------ checks


class CheckError(Exception):
    """A command's output disagrees with the benchmark's reference."""


def _read_csv(path: Path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], [[float(v) for v in row] for row in rows[1:]]
    for row in body:
        if not all(math.isfinite(v) for v in row):
            raise CheckError(f"{path.name}: non-finite value in row {row}")
    return header, body


def _close(name, got, want, rtol=0.0, atol=0.0):
    if not abs(got - want) <= atol + rtol * abs(want):
        raise CheckError(f"{name}: got {got!r}, reference {want!r} (rtol {rtol}, atol {atol})")


def _rel_err(got, want):
    return abs(got - want) / abs(want) if want != 0.0 else abs(got)


@dataclass
class Command:
    """One CLI invocation, its config and the check of its outputs.

    ``check(out_dir)`` raises CheckError on a wrong output and returns the
    relative error of y_0 against the reference (None when y_0 is not checked).
    """

    name: str
    subcommand: str
    config: dict
    check: object
    extra_args: list = field(default_factory=list)

    def argv(self, config_path: Path, out_dir: Path) -> list:
        return [self.subcommand, "--config", str(config_path), "--out", str(out_dir)] + list(
            self.extra_args
        )


def _solution_check(y_ref=None, beta_ref=None, y_tol=(0.0, 0.0), beta_tol=(0.0, 0.0), y_rows=None):
    """Check solution.csv: y (and beta) against functions of t, y_0 error returned.

    ``y_rows`` limits the y check to that many evenly spaced rows (always
    including t = 0), for references that cost a root solve per row.
    """

    def check(out_dir: Path):
        header, rows = _read_csv(out_dir / "solution.csv")
        if header != ["t", "y", "beta", "control_at_x0", "value_at_x0"]:
            raise CheckError(f"unexpected solution.csv header {header}")
        picks = range(len(rows))
        if y_rows is not None:
            last = len(rows) - 1
            picks = sorted({round(k * last / max(y_rows - 1, 1)) for k in range(y_rows)})
        err0 = None
        if y_ref is not None:
            for k in picks:
                t, y = rows[k][0], rows[k][1]
                want = y_ref(t)
                _close(f"y({t})", y, want, *y_tol)
                if k == 0:
                    err0 = _rel_err(y, want)
        if beta_ref is not None:
            for t, _, beta, _, _ in rows:
                _close(f"beta({t})", beta, beta_ref(t), *beta_tol)
        return err0

    return check


def _sweep_check(column: str, ref, tol):
    """Check sweep.csv: every row finite, column (beta_0 or y_0) against ref(value)."""

    def check(out_dir: Path):
        header, rows = _read_csv(out_dir / "sweep.csv")
        idx = header.index(column)
        worst = 0.0
        for row in rows:
            want = ref(row[0])
            _close(f"{column}({header[0]}={row[0]})", row[idx], want, *tol)
            worst = max(worst, _rel_err(row[idx], want))
        return worst if column == "y_0" else None

    return check


def _verify_check(y0_ref, tol):
    """verify exits 0 (checked by the caller); verification.json passed, y_0 target.

    ``y0_ref()`` is called lazily, so building the command list stays cheap.
    """

    def check(out_dir: Path):
        report = json.loads((out_dir / "verification.json").read_text())
        if report.get("passed") is not True:
            failed = [k for k, v in report.items() if isinstance(v, dict) and v.get("passed") is False]
            raise CheckError(f"verification failed: {failed}")
        rows = {row["order"]: row for row in report["monte_carlo"]["rows"]}
        y0 = rows[2]["target"]  # the second central moment target is y_0
        want = y0_ref()
        _close("y_0", y0, want, *tol)
        return _rel_err(y0, want)

    return check


# ---------------------------------------------------------------- workloads


def _config(grid_size: int, coeffs: str, objective: dict, solver: str = "auto", **extra) -> dict:
    cfg = {
        "horizon": 1.0,
        "grid_size": grid_size,
        "x0": 0.0,
        "coefficients": _coefficients(coeffs),
        "objective": objective,
        "solver": solver,
    }
    cfg.update(extra)
    return cfg


def _fine_grid_solve(rng: random.Random, smoke: bool):
    n = 128 if smoke else 4096
    horizon = 1.0
    cmds = []

    k = rng.uniform(0.9, 1.1)
    cmds.append(Command(
        "mean_variance", "solve",
        _config(n, "full", {"variant": "moment_combo", "kappa": k, "weights": [2.0]}),
        _solution_check(
            y_ref=lambda t, k=k: k * k * _budget_rate("full") * (horizon - t) / 4.0,
            beta_ref=lambda t, k=k: k * _B / (2.0 * _D * _D),
            y_tol=(_CLOSED_RTOL, 1e-14), beta_tol=(_CLOSED_RTOL, 0.0),
        ),
    ))

    k = rng.uniform(0.9, 1.1)
    w2, w4 = _KURT[0], _KURT[2]

    def kurt_y(t, k=k):
        return 2.0 * (math.cbrt(w2**3 + 1.5 * w4 * k * k * _budget_rate("full") * (horizon - t)) - w2) / w4

    cmds.append(Command(
        "variance_kurtosis", "solve",
        _config(n, "full", {"variant": "moment_combo", "kappa": k, "weights": _KURT}),
        _solution_check(
            y_ref=kurt_y,
            beta_ref=lambda t, k=k: k * _B / (_D * _D) / (w2 + 0.5 * w4 * kurt_y(t)),
            y_tol=(_CLOSED_RTOL, 1e-14), beta_tol=(_CLOSED_RTOL, 0.0),
        ),
    ))

    for name, variant, coeffs, sign in (
        ("exp", "exp", "full", 1.0),
        ("cos", "cos", "small", -1.0),
        ("exp_drift", "exp", "curved", 1.0),
    ):
        k, c = rng.uniform(0.9, 1.1), rng.uniform(0.8, 1.2)
        rate = _budget_rate(coeffs)

        def y_ref(t, k=k, c=c, rate=rate, sign=sign):
            return sign * math.log1p(sign * k * k * rate * (horizon - t)) / (c * c)

        def beta_ref(t, k=k, c=c, rate=rate, sign=sign, coeffs=coeffs):
            b = _B_SMALL if coeffs == "small" else _B
            return k * b / (_D * _D * c * math.sqrt(1.0 + sign * k * k * rate * (horizon - t)))

        cmds.append(Command(
            name, "solve",
            _config(n, coeffs, {"variant": variant, "kappa": k, "c": c}),
            _solution_check(y_ref, beta_ref, (_CLOSED_RTOL, 1e-14), (_CLOSED_RTOL, 0.0)),
        ))
    return cmds


def _ode_variants_solve(rng: random.Random, smoke: bool):
    n = 128 if smoke else 512
    cmds = []

    k = rng.uniform(0.9, 1.1)
    cmds.append(Command(
        "standardized", "solve",
        _config(n, "full", {"variant": "standardized", "kappa": k, "weights": [2.0, 1.0]}, "ode"),
        _solution_check(beta_ref=lambda t, k=k: 3.75 * k, beta_tol=(0.0, _STANDARDIZED_ATOL)),
    ))

    k = rng.uniform(0.9, 1.1)
    cmds.append(Command(
        "fourier_even", "solve",
        _config(n, "small", _fourier_objective(k), "ode"),
        _solution_check(
            y_ref=lambda t, k=k: (1.0 - 2.0 * k * k * _budget_rate("small") * (1.0 - t)) ** -0.5 - 1.0,
            y_tol=(0.0, _FOURIER_ATOL), y_rows=1,
        ),
    ))

    k, c = rng.uniform(0.9, 1.1), rng.uniform(0.8, 1.2)
    cmds.append(Command(
        "cosh_curved", "solve",
        _config(n, "curved", {"variant": "cosh", "kappa": k, "c": c}, "ode"),
        _solution_check(
            y_ref=lambda t, k=k, c=c: math.log1p(k * k * _budget_rate("curved") * (1.0 - t)) / (c * c),
            y_tol=(_ODE_RTOL, _ODE_ATOL),
        ),
    ))

    k = rng.uniform(0.9, 1.1)
    q = _moment_q(_MOMENT6)
    cmds.append(Command(
        "moment6", "solve",
        _config(n, "full", {"variant": "moment_combo", "kappa": k, "weights": _MOMENT6}, "algebraic"),
        _solution_check(
            y_ref=lambda t, k=k: _root_of(lambda y: _moment_p(q, y), k * k * 2.25 * (1.0 - t)),
            y_tol=(_ROOT_RTOL, _ROOT_ATOL),
        ),
    ))

    k = rng.uniform(0.9, 1.1)
    cmds.append(Command(
        "ambiguous_cos", "solve",
        _config(n, "full", {"variant": "ambiguous_cos", "kappa": k, **_AMBIGUOUS}),
        _solution_check(
            y_ref=lambda t, k=k: _root_of(_ambiguous_p, k * k * 2.25 * (1.0 - t)),
            y_tol=(_ROOT_RTOL, _ROOT_ATOL), y_rows=9,
        ),
    ))
    return cmds


def _verify_default(rng: random.Random, smoke: bool, seed: int):
    n = 64 if smoke else 512
    mc_seed = MC_SEEDS[seed % len(MC_SEEDS)]
    verification = {"monte_carlo": {"num_paths": 4096, "num_steps": 64}} if smoke else {}
    args = ["--seed", str(mc_seed)]
    k_mv, k_amb = rng.uniform(0.9, 1.1), rng.uniform(0.9, 1.1)
    return [
        Command(
            "mean_variance", "verify",
            _config(n, "full", {"variant": "moment_combo", "kappa": k_mv, "weights": [2.0]},
                    verification=verification),
            _verify_check(lambda: k_mv * k_mv * 2.25 / 4.0, (_CLOSED_RTOL, 0.0)),
            args,
        ),
        Command(
            "ambiguous_cos", "verify",
            _config(n, "full", {"variant": "ambiguous_cos", "kappa": k_amb, **_AMBIGUOUS},
                    verification=verification),
            _verify_check(
                lambda: _root_of(_ambiguous_p, k_amb * k_amb * 2.25), (_ROOT_RTOL, _ROOT_ATOL)
            ),
            args,
        ),
    ]


def _sweep_coarse(rng: random.Random, smoke: bool):
    n = 16 if smoke else 64
    count = 4 if smoke else 40
    k0 = rng.uniform(0.4, 0.6)
    kappas = [k0 + i / (count - 1) for i in range(count)]
    horizons = [0.25 + 1.75 * i / (count - 1) for i in range(count)]

    def values(vs):
        return ",".join(repr(v) for v in vs)

    k6 = rng.uniform(0.9, 1.1)
    q = _moment_q(_MOMENT6)
    k_exp, c_exp = rng.uniform(0.9, 1.1), rng.uniform(0.8, 1.2)
    return [
        Command(
            "kappa_standardized", "sweep",
            _config(n, "full", {"variant": "standardized", "kappa": 1.0, "weights": [2.0, 1.0]}, "ode"),
            _sweep_check("beta_0", lambda kappa: 3.75 * kappa, (0.0, _STANDARDIZED_ATOL)),
            ["--parameter", "kappa", "--values", values(kappas)],
        ),
        Command(
            "T_moment6", "sweep",
            _config(n, "full", {"variant": "moment_combo", "kappa": k6, "weights": _MOMENT6}, "algebraic"),
            _sweep_check(
                "y_0",
                lambda horizon: _root_of(lambda y: _moment_p(q, y), k6 * k6 * 2.25 * horizon),
                (_ROOT_RTOL, _ROOT_ATOL),
            ),
            ["--parameter", "T", "--values", values(horizons)],
        ),
        Command(
            "T_curved_exp", "sweep",
            _config(n, "curved", {"variant": "exp", "kappa": k_exp, "c": c_exp}),
            _sweep_check(
                "y_0",
                lambda horizon: math.log1p(k_exp * k_exp * 2.25 * horizon) / (c_exp * c_exp),
                (_SWEEP_T_RTOL, 0.0),
            ),
            ["--parameter", "T", "--values", values(horizons)],
        ),
    ]


def commands(workload: str, seed: int, smoke: bool = False) -> list:
    """The workload's command list, generated from the seed."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "fine-grid-solve":
        cmds = _fine_grid_solve(rng, smoke)
    elif workload == "ode-variants-solve":
        cmds = _ode_variants_solve(rng, smoke)
    elif workload == "verify-default":
        cmds = _verify_default(rng, smoke, seed)
    elif workload == "sweep-coarse":
        cmds = _sweep_coarse(rng, smoke)
    else:
        raise ValueError(f"unknown workload {workload!r}; pick one of {', '.join(WORKLOADS)}")
    prefix = workload.split("-")[0]
    for cmd in cmds:
        cmd.name = f"{prefix}_{cmd.name}"
    return cmds


def write_configs(cmds, config_dir: Path) -> list:
    """Write each command's config as JSON; returns the paths in command order."""
    config_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for cmd in cmds:
        path = config_dir / f"{cmd.name}.json"
        path.write_text(json.dumps(cmd.config, indent=2) + "\n")
        paths.append(path)
    return paths
