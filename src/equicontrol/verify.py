"""Numerical verification of the equilibrium property.

The equilibrium control does not depend on the state, so under it, and under
any spike on it, the terminal state is Gaussian.  One table, ``_TerminalLaw``,
integrates that law from any time to the horizon, and the checks build on it:

* spike variations (``spike_test``, one report per amplitude): perturbing
  the equilibrium control on [t, t + eps) must not improve the objective to
  first order, and the limit of the loss rate is predicted in closed form by
  the curvature K(y) of the objective;
* the diagonal of the first- and second-order adjoint processes satisfies
  the stochastic maximum principle conditions pointwise;
* the conditional moments of the terminal state solve the moment equations
  (checked with finite differences against closed-form moment surfaces);
* Monte Carlo simulation of the controlled dynamics reproduces the predicted
  terminal mean and central moments within sampling error.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .equilibrium import EquilibriumSolution
from .errors import ConfigError, DomainError, NonFiniteResultError
from .moments import MomentVector, alpha, raw_to_central
from .objectives import curvature_sum, psi

_MC_BLOCK = 1 << 17
_MC_PATH_STEP_CAP = 1 << 34
# highest moment order the PDE and Monte Carlo suites check
_MAX_ORDER = 8
# each suite raises its amplitudes or states to at most a power m (its highest
# moment order) and keeps |v|^m within this ceiling, so the products it forms
# with the coefficients and the variance stay far inside the float range
_POWER_CEILING = 1e150
# seeds the Philox key word takes as one signed 64-bit integer; larger ones
# would reach it as float64 and share streams with their neighbours
MC_SEED_RANGE = (-(1 << 63), (1 << 63) - 1)


def _nonempty(values, what: str) -> tuple:
    """``values`` as a tuple; DomainError if there are none, which would check nothing."""
    values = tuple(values)
    if not values:
        raise DomainError(f"need at least one {what}")
    return values


def _require_power_range(values, power: int, what: str) -> None:
    """DomainError unless |v|^power stays within ``_POWER_CEILING`` for every v."""
    bound = _POWER_CEILING ** (1.0 / power)
    if any(not abs(v) <= bound for v in values):
        raise DomainError(
            f"{what} must lie in [-{bound:.6g}, {bound:.6g}] (power {power}), got {list(values)}"
        )


@dataclass(frozen=True)
class DeterministicEvaluation:
    mean: float
    variance: float
    value: float


class _TerminalLaw:
    """Suffix integrals of the terminal law under the equilibrium control.

    The equilibrium control u does not depend on the state, so from (t, x)
    the terminal state is Gaussian with mean x e^{int_t^T a} plus the
    integral of row 0 below and variance the integral of row 1; a spike of
    amplitude zeta on a window W adds zeta times row 2 to the mean and
    2 zeta row 3 + zeta^2 row 4 to the variance, each integrated over W:

        e^{int a} (b u + c),  e^{2 int a} (d u + f)^2,
        e^{int a} b,  e^{2 int a} d (d u + f),  e^{2 int a} d^2.

    ``tail`` holds each row's Simpson pieces, one per grid cell, summed once
    from the horizon; rows 1 and 4 sum squares, so they are never negative.
    The table samples the control through ``control_many`` alone, so it
    stays independent of the suffix rules of the solution it checks.
    """

    def __init__(self, sol: EquilibriumSolution):
        self.sol = sol
        nodes = sol.grid.nodes
        with np.errstate(over="ignore", invalid="ignore"):
            cells = self._pieces(nodes[:-1], nodes[1:])
            summed = np.cumsum(cells[:, ::-1], axis=1)[:, ::-1]
        self.tail = np.concatenate([summed, np.zeros((5, 1))], axis=1)

    def _pieces(self, p, q):
        """Simpson's rule on [p, q] for each integrand, elementwise in p and q."""
        s = np.stack([p, 0.5 * (p + q), q])
        u = self.sol.control_many(s)
        _, b, c, d, f = self.sol.coeffs.at(s)
        growth = np.exp(self.sol.coeffs.int_a_many(s))
        squared = growth * growth
        vol = d * u + f
        g = np.stack([growth * (b * u + c), squared * vol**2, growth * b, squared * d * vol,
                      squared * d * d])
        return (q - p) / 6.0 * (g[:, 0] + 4.0 * g[:, 1] + g[:, 2])

    def between(self, t, stops):
        """The integrals over [t, stop] for t <= stop, elementwise, rows first:
        a piece up to the next node (or stop), whole cells from ``tail``, and
        a piece from the last node to stop.  A stop within the snap width of
        a node is that node, so it cuts nowhere new."""
        grid = self.sol.grid
        nodes = grid.nodes
        t, stops = np.broadcast_arrays(np.asarray(t, dtype=float), np.asarray(stops, dtype=float))
        near = nodes[np.clip(np.rint(stops / grid.step).astype(int), 0, grid.num_steps)]
        stops = np.where(np.abs(stops - near) <= grid.snap, near, stops)
        k = np.minimum(np.searchsorted(nodes, t, side="right"), grid.num_steps)
        last = np.maximum(np.searchsorted(nodes, stops, side="right") - 1, k)
        with np.errstate(over="ignore", invalid="ignore"):
            first = self._pieces(t, np.minimum(nodes[k], stops))
            rest = self.tail[:, k] - self.tail[:, last] + self._pieces(nodes[last], stops)
        return first + np.where(stops > nodes[k], rest, 0.0)


def evaluate_deterministic(sol: EquilibriumSolution, t: float, x: float) -> DeterministicEvaluation:
    """Objective kappa * mean + psi of the equilibrium control started at (t, x),
    on the Gaussian terminal law that ``_TerminalLaw`` integrates."""
    t = sol.grid.require_time(t)
    drift, variance = _TerminalLaw(sol).between(t, sol.grid.horizon)[:2].tolist()
    mean = x * sol.coeffs.growth_at(t) + drift
    spec = sol.objective
    value = spec.kappa * mean + psi(spec, MomentVector.gaussian(spec.gaussian_order, variance))
    return DeterministicEvaluation(mean, variance, value)


@dataclass(frozen=True)
class SpikeTestReport:
    """First-order loss of a spike perturbation against its predicted limit.

    ``ratios`` holds (J_perturbed - J_equilibrium) / eps for each window
    width; ``extrapolated`` removes the O(eps) correction by Richardson
    extrapolation.  The predicted limit is
    exp(2 int_t^T a) d(t)^2 zeta^2 K(y(t)), which is nonpositive exactly
    when the curvature condition holds.
    """

    t: float
    zeta: float
    x: float
    epsilons: tuple
    ratios: tuple
    extrapolated: float
    predicted_limit: float
    limit_tol: float
    match_tol: float
    nonpositive_ok: bool
    match_ok: bool
    passed: bool


def spike_test(
    sol: EquilibriumSolution,
    t: float,
    zetas,
    x: float = 0.0,
    epsilons=None,
    limit_tol: float = 1e-6,
    match_tol: float = 1e-3,
) -> tuple:
    """Perturb the equilibrium control by each zeta in ``zetas`` on [t, t + eps)
    and extrapolate: one ``SpikeTestReport`` per amplitude, all started at t.

    Every case reads one ``_TerminalLaw``, built once per start time: the
    variance from t and each window's spike integrals.  The objective moves
    by kappa zeta int_W e^{int a} b plus the change of psi, so the terminal
    mean's part that does not depend on zeta leaves no rounding in the
    ratio.  The control does not read the state, so ``x`` only labels the
    reports.  Widths must differ and exceed the snap width, below which a
    window would merge with its start.  The limit is extrapolated from the
    two smallest widths e1, e2 and their ratios r1, r2 as
    (e1 r2 - e2 r1) / (e1 - e2).

    A spike of amplitude zeta adds zeta^2 to the variance, and psi takes the
    variance to the objective's highest moment order m, so |zeta|^m must
    stay within ``_POWER_CEILING``.  The exp and cosh penalties grow
    exponentially in the variance, where no power bound suffices: there an
    amplitude whose spiked objective leaves the float range is a
    DomainError as well.
    """
    grid = sol.grid
    t = grid.require_time(t)
    remaining = grid.horizon - t
    if remaining <= 1e-9 * grid.horizon:
        raise DomainError("spike test needs t strictly before the horizon")
    if epsilons is None:
        epsilons = tuple(remaining * 2.0**-k for k in range(4, 11))
    else:
        epsilons = tuple(float(e) for e in _nonempty(epsilons, "spike width"))
    if any(not grid.snap < e <= remaining for e in epsilons):
        raise DomainError(
            f"spike widths must lie in (snap, horizon - t] = ({grid.snap:.6g}, {remaining:.6g}],"
            f" got {list(epsilons)}"
        )
    if len(set(epsilons)) < len(epsilons):
        raise DomainError(f"spike widths must differ, got {list(epsilons)}")
    zetas = _nonempty(zetas, "spike amplitude")
    spec = sol.objective
    order = spec.gaussian_order
    _require_power_range(zetas, order, "spike amplitudes")

    law = _TerminalLaw(sol)
    variance = float(law.between(t, grid.horizon)[1])
    base = psi(spec, MomentVector.gaussian(order, variance))
    windows = law.between(t, np.minimum(t + np.array(epsilons), grid.horizon))[2:].T.tolist()
    d_t = float(sol.coeffs.control_vol(t))
    growth_sq = math.exp(2.0 * sol.coeffs.int_a_at(t))
    curvature = curvature_sum(spec, sol.y_at(t))
    reports = []
    for zeta in zetas:
        row = []
        for eps, (drift, cross, square) in zip(epsilons, windows):
            spiked = max(variance + zeta * (2.0 * cross + zeta * square), 0.0)
            risk = psi(spec, MomentVector.gaussian(order, spiked)) - base
            row.append((spec.kappa * zeta * drift + risk) / eps)
            if math.isfinite(base) and not math.isfinite(row[-1]):
                raise DomainError(f"spike amplitude {zeta} takes the objective out of the float range")
        extrapolated = row[0]
        if len(row) >= 2:
            (e1, r1), (e2, r2) = sorted(zip(epsilons, row))[:2]
            extrapolated = (e1 * r2 - e2 * r1) / (e1 - e2)
        predicted = growth_sq * d_t * d_t * zeta * zeta * curvature
        nonpositive_ok = extrapolated <= limit_tol
        match_ok = abs(extrapolated - predicted) <= match_tol * (1.0 + abs(predicted))
        reports.append(
            SpikeTestReport(
                t=t,
                zeta=zeta,
                x=x,
                epsilons=epsilons,
                ratios=tuple(row),
                extrapolated=extrapolated,
                predicted_limit=predicted,
                limit_tol=limit_tol,
                match_tol=match_tol,
                nonpositive_ok=nonpositive_ok,
                match_ok=match_ok,
                passed=nonpositive_ok and match_ok,
            )
        )
    return tuple(reports)


@dataclass(frozen=True)
class FbsdeDiagnostic:
    """Diagonal values of the adjoint processes at one time.

    ``adjoint`` and ``adjoint_diffusion`` are the level and diffusion loading
    of the first-order adjoint started at t, evaluated at s = t; the
    stochastic maximum principle requires b * adjoint + d * adjoint_diffusion
    to vanish and the second-order adjoint diagonal to be negative.
    """

    t: float
    adjoint: float
    adjoint_diffusion: float
    second_adjoint: float
    optimality_residual: float
    second_adjoint_negative: bool
    tol: float
    passed: bool


def fbsde_diagonal_check(sol: EquilibriumSolution, t: float, tol: float = 1e-8) -> FbsdeDiagnostic:
    t = sol.grid.require_time(t)
    kappa = sol.objective.kappa
    growth = sol.coeffs.growth_at(t)
    curv2 = 2.0 * float(curvature_sum(sol.objective, sol.y_at(t)))
    d_t = float(sol.coeffs.control_vol(t))
    b_t = float(sol.coeffs.control_drift(t))
    adjoint = kappa * growth
    adjoint_diffusion = growth * d_t * sol.beta_at(t) * curv2
    second = growth * growth * curv2
    residual = abs(b_t * adjoint + d_t * adjoint_diffusion)
    neg_ok = second < 0.0
    passed = residual <= tol * (1.0 + kappa) and neg_ok
    return FbsdeDiagnostic(
        t=t,
        adjoint=adjoint,
        adjoint_diffusion=adjoint_diffusion,
        second_adjoint=second,
        optimality_residual=residual,
        second_adjoint_negative=neg_ok,
        tol=tol,
        passed=passed,
    )


@dataclass(frozen=True)
class PdeResidualRow:
    order: int
    scale: float
    max_residual: float
    scaled_residual: float
    tol: float
    passed: bool


@dataclass(frozen=True)
class PdeResidualReport:
    rows: tuple
    terminal_gap: float
    passed: bool


def _moment_excess(law: _TerminalLaw, times):
    """Closed-form excess m_j(t, x) - x^j of the conditional raw moments of X_T.

    Under the equilibrium feedback X_T - x from (t, x) is Gaussian with mean
    delta = x expm1(int_t^T a) + int_t^T e^(int_s^T a) (b u + c) ds and
    variance y(t), so m_j - x^j = sum_{n >= 1} C(j, n) x^(j-n) E[(X_T - x)^n],
    with the drift integral from ``_TerminalLaw``.  Built from delta and y
    alone, the excess keeps its relative precision at short horizons, where
    m_j is close to x^j.  Returns excess(order, x) over the array ``times``.
    """
    sol = law.sol
    ts = np.asarray(times, dtype=float)
    drift = law.between(ts, sol.grid.horizon)[0]
    if not np.all(np.isfinite(drift)):
        raise NonFiniteResultError("the drift of the terminal mean is not finite")
    growth = np.expm1(sol.coeffs.int_a_many(ts))
    y = sol.y_many(ts)

    def excess(order, x):
        delta = x * growth + drift
        out = np.zeros_like(delta)
        for n in range(1, order + 1):
            shift_moment = sum(
                math.comb(n, k) * delta ** (n - k) * alpha(k, y) for k in range(0, n + 1, 2)
            )
            out = out + math.comb(order, n) * x ** (order - n) * shift_moment
        return out

    return excess


def pde_residual_check(
    sol: EquilibriumSolution,
    orders=(1, 2, 3, 4),
    t_samples=None,
    x_samples=(-1.0, -0.5, 0.0, 1.0, 2.0),
    tol: float = 1e-5,
    first_order_tol: float = 1e-6,
) -> PdeResidualReport:
    """Apply the generator of the controlled diffusion to the moment surfaces.

    Each conditional moment m_j of the terminal state solves

        0 = dm/dt + (a x + b u + c) dm/dx + 1/2 (d u + f)^2 d2m/dx2

    with terminal data x^j.  Derivatives of the excess m_j - x^j are taken
    with 5-point central finite differences (dt = horizon / 4096,
    dx = 1e-3 (1 + |x|)), those of x^j exactly, and the residual is scaled
    by the largest moment magnitude over the sample set.  The states are
    raised to the highest order checked, so |x|^max(orders) must stay within
    ``_POWER_CEILING``.
    """
    grid = sol.grid
    horizon = grid.horizon
    dt = horizon / 4096.0
    if t_samples is None:
        t_samples = np.linspace(0.1 * horizon, 0.9 * horizon, 5)
    t_samples = np.asarray(_nonempty(t_samples, "pde time sample"), dtype=float)
    if np.any(t_samples < 2.0 * dt) or np.any(t_samples > horizon - 2.0 * dt):
        raise DomainError("time samples must keep the 5-point stencil inside the horizon")
    orders = _nonempty(orders, "moment order")
    if any(not 1 <= j <= _MAX_ORDER for j in orders):
        raise DomainError(f"moment orders must lie in 1..{_MAX_ORDER}")
    x_samples = _nonempty(x_samples, "pde state sample")
    _require_power_range(x_samples, max(orders), "pde state samples")
    x_samples = np.asarray(x_samples, dtype=float)

    # the excess on the stencil's time rows t - 2 dt, ..., t + 2 dt, and at the horizon
    law = _TerminalLaw(sol)
    stencil = _moment_excess(law, t_samples + dt * np.arange(-2.0, 3.0)[:, None])
    at_horizon = _moment_excess(law, [horizon])
    coeffs = sol.coeffs
    u = sol.control_many(t_samples)
    a_t, b_t, c_t, d_t, f_t = coeffs.at(t_samples)
    vol_sq = (d_t * u + f_t) ** 2

    rows = []
    terminal_gap = 0.0
    for order in orders:
        worst = 0.0
        scale = 0.0
        for x in x_samples:
            dx = 1e-3 * (1.0 + abs(x))
            em2_t, em1_t, e0, ep1_t, ep2_t = stencil(order, x)
            scale = max(scale, float(np.max(np.abs(e0 + x**order))))
            m_t = (-ep2_t + 8.0 * ep1_t - 8.0 * em1_t + em2_t) / (12.0 * dt)
            ep2, ep1, em1, em2 = (stencil(order, x + k * dx)[2] for k in (2, 1, -1, -2))
            m_x = (-ep2 + 8.0 * ep1 - 8.0 * em1 + em2) / (12.0 * dx) + order * x ** (order - 1)
            m_xx = (-ep2 + 16.0 * ep1 - 30.0 * e0 + 16.0 * em1 - em2) / (12.0 * dx * dx) + (
                order * (order - 1) * x ** max(order - 2, 0)
            )
            resid = m_t + (a_t * x + b_t * u + c_t) * m_x + 0.5 * vol_sq * m_xx
            worst = max(worst, float(np.max(np.abs(resid))))
            terminal_gap = max(terminal_gap, abs(float(at_horizon(order, x)[0])))
        scaled = worst / max(1.0, scale)
        row_tol = first_order_tol if order == 1 else tol
        rows.append(PdeResidualRow(order, scale, worst, scaled, row_tol, scaled <= row_tol))
    passed = all(r.passed for r in rows) and terminal_gap <= 1e-10
    return PdeResidualReport(tuple(rows), terminal_gap, passed)


@dataclass(frozen=True)
class McMomentRow:
    order: int
    target: float
    estimate: float
    std_error: float
    passed: bool


@dataclass(frozen=True)
class McReport:
    """Monte Carlo check of the terminal law under the equilibrium control.

    Each statistic is checked twice.  Its sample value must lie within three
    standard errors (delta-method ones for the central moments) of the value
    under the Euler scheme's own law: 0 for the noise mean, alpha(j, v_E)
    for the central moments, where v_E is the noise-free Euler variance.
    That Euler value (the noise-free endpoint for the mean) must lie within
    dt (1 + |target|) of the exact target, or within three times its distance
    from the same value at half the step when that is wider.  Moments with
    zero sampling error skip the split and get dt (1 + |target|) alone.
    ``threads`` is the number of workers that simulated the blocks.
    """

    x0: float
    seed: int
    num_paths: int
    num_steps: int
    threads: int
    mean_target: float
    mean_estimate: float
    mean_std_error: float
    mean_passed: bool
    rows: tuple
    passed: bool


def _mc_block_sums(growth, vol, sqdt, n_paths, key, max_power):
    """Power sums of the zero-mean noise part of the Euler paths, started at 0."""
    rng = np.random.Generator(np.random.Philox(key=key))
    x = np.zeros(n_paths)
    z = np.empty(n_paths)
    # x = x * growth + (vol * sqdt) * z, in place and in that order
    for k in range(growth.size):
        rng.standard_normal(out=z)
        np.multiply(x, growth[k], out=x)
        z *= vol[k] * sqdt
        x += z
    sums = np.empty(max_power)
    p = x.copy()
    sums[0] = p.sum()
    for j in range(1, max_power):
        p *= x
        sums[j] = p.sum()
    return sums


def _default_threads() -> int:
    """``EQUICONTROL_THREADS`` if set, else the number of CPUs this process may use."""
    raw = os.environ.get("EQUICONTROL_THREADS", "").strip()
    if not raw:
        try:
            return len(os.sched_getaffinity(0))
        except AttributeError:  # no affinity call on this platform
            return os.cpu_count() or 1
    try:
        threads = int(raw)
    except ValueError:
        threads = 0
    if threads < 1:
        raise ConfigError(f"EQUICONTROL_THREADS must be a positive integer, got {raw!r}")
    return threads


def _euler_steps(sol: EquilibriumSolution, num_steps: int):
    """Per-step growth 1 + a dt, drift (b u + c) dt and volatility d u + f of
    the Euler scheme over ``num_steps`` equal steps, at the left ends."""
    horizon = sol.grid.horizon
    dt = horizon / num_steps
    s_left = np.linspace(0.0, horizon, num_steps + 1)[:-1]
    u = sol.control_many(s_left)
    a, b, c, d, f = sol.coeffs.at(s_left)
    return 1.0 + a * dt, (b * u + c) * dt, d * u + f


def _noise_free_law(x0: float, growth, drift, vol, dt: float) -> tuple:
    """Endpoint and variance of the Euler scheme from x0: the recursions
    x <- x * growth + drift and v <- v * growth^2 + vol^2 dt from (x0, 0)."""
    x, v = float(x0), 0.0
    for g, step, noise in zip(growth.tolist(), drift.tolist(), (vol * vol * dt).tolist()):
        x = x * g + step
        v = v * g * g + noise
    return x, v


def monte_carlo(
    sol: EquilibriumSolution,
    x0: float,
    seed: int,
    num_paths: int,
    num_steps: int,
    orders=(2, 3, 4),
) -> McReport:
    """Euler simulation of the controlled state under the equilibrium feedback.

    Reproducible by construction: paths are generated in fixed blocks, each
    block with a counter-based generator keyed by (seed, first path index),
    so results do not depend on scheduling or thread count.  The blocks
    simulate only the noise part of the paths; the noise-free Euler endpoint
    is added to the sample mean, so no precision is lost at large states.
    x0 enters that mean alone, to the first power, so |x0| must stay within
    ``_POWER_CEILING``.  The blocks run on ``EQUICONTROL_THREADS`` workers,
    or else on as many as the process has usable CPUs, capped at the number
    of blocks.
    """
    if not MC_SEED_RANGE[0] <= seed <= MC_SEED_RANGE[1]:
        raise DomainError(f"seed must lie in [{MC_SEED_RANGE[0]}, {MC_SEED_RANGE[1]}], got {seed}")
    _require_power_range((x0,), 1, "the Monte Carlo start state")
    if num_paths < 2:
        raise DomainError("need at least 2 paths")
    if num_steps < 1:
        raise DomainError("need at least 1 time step")
    if num_paths * num_steps > _MC_PATH_STEP_CAP:
        raise DomainError(
            f"simulation of {num_paths} x {num_steps} exceeds the resource cap"
        )
    orders = tuple(int(j) for j in _nonempty(orders, "central moment order"))
    if any(j < 2 for j in orders) or max(orders) > _MAX_ORDER:
        raise DomainError(f"central moment orders must lie in 2..{_MAX_ORDER}")

    dt = sol.grid.horizon / num_steps
    sqdt = math.sqrt(dt)
    growth, drift, vol = _euler_steps(sol, num_steps)

    max_power = 2 * max(orders)
    blocks = []
    start = 0
    while start < num_paths:
        blocks.append((start, min(_MC_BLOCK, num_paths - start)))
        start += _MC_BLOCK

    errstate = np.geterr()  # pool threads start from numpy's default, not the caller's

    def run_block(block):
        bstart, bsize = block
        with np.errstate(**errstate):
            return _mc_block_sums(growth, vol, sqdt, bsize, [seed, bstart], max_power)

    threads = min(_default_threads(), len(blocks))
    with ThreadPoolExecutor(max_workers=threads) as pool:
        partials = list(pool.map(run_block, blocks))
    total = np.zeros(max_power)
    for part in partials:  # fixed reduction order keeps the result thread-independent
        total += part
    sample = raw_to_central(tuple(total / num_paths))
    endpoint, var_euler = _noise_free_law(x0, growth, drift, vol, dt)
    endpoint_half, var_half = _noise_free_law(x0, *_euler_steps(sol, 2 * num_steps), dt / 2)
    mean_estimate = endpoint + sample.mean

    def euler_ok(target, coarse, fine):
        # the Euler bias grows with |x0| and the state drift and is no sampling
        # error: allow dt (1 + |target|), widened to 3 |coarse - fine| since the
        # first-order bias is about twice that difference (Richardson)
        return abs(coarse - target) <= max(dt * (1.0 + abs(target)), 3.0 * abs(coarse - fine))

    mean_target = sol.terminal_mean(0.0, x0)
    y0 = sol.y_at(0.0)
    mean_se = math.sqrt(max(sample.central_moment(2), 0.0) / num_paths)
    noise_ok = abs(sample.mean) <= 3.0 * mean_se
    mean_passed = noise_ok and euler_ok(mean_target, endpoint, endpoint_half)

    rows = []
    for j in orders:
        target = alpha(j, y0)
        euler = alpha(j, var_euler)
        est = sample.central_moment(j)
        # delta-method variance of the j-th central moment estimator
        var_j = (
            sample.central_moment(2 * j)
            - est * est
            + j * j * sample.central_moment(2) * sample.central_moment(j - 1) ** 2
            - 2.0 * j * sample.central_moment(j - 1) * sample.central_moment(j + 1)
        )
        se = math.sqrt(max(var_j, 0.0) / num_paths)
        if se > 0.0:
            ok = abs(est - euler) <= 3.0 * se and euler_ok(target, euler, alpha(j, var_half))
        else:
            ok = abs(est - target) <= dt * (1.0 + abs(target))
        rows.append(McMomentRow(j, target, est, se, ok))
    report = McReport(
        x0=x0,
        seed=seed,
        num_paths=num_paths,
        num_steps=num_steps,
        threads=threads,
        mean_target=mean_target,
        mean_estimate=mean_estimate,
        mean_std_error=mean_se,
        mean_passed=mean_passed,
        rows=tuple(rows),
        passed=mean_passed and all(r.passed for r in rows),
    )
    return report


@dataclass(frozen=True)
class ValueConsistency:
    value_solution: float
    value_deterministic: float
    gap: float
    tol: float
    passed: bool


def value_consistency_check(
    sol: EquilibriumSolution, x: float, t: float = 0.0, tol: float = 1e-8
) -> ValueConsistency:
    """The deterministic evaluation of the equilibrium control matches V(t, x)."""
    det = evaluate_deterministic(sol, t, x)
    v = sol.value(t, x)
    gap = abs(det.value - v)
    return ValueConsistency(v, det.value, gap, tol, gap <= tol * (1.0 + abs(v)))


def _plain(obj):
    """Recursively convert dataclass/numpy containers to JSON-ready values."""
    import dataclasses

    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: _plain(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return [_plain(v) for v in obj.tolist()]
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    return obj


def verification_report(
    sol: EquilibriumSolution,
    x0: float = 0.0,
    residual_tol: float = 1e-8,
    consistency_tol: float = 5e-6,
    value_tol: float = 1e-8,
    spike: dict | None = None,
    fbsde: dict | None = None,
    pde: dict | None = None,
    monte_carlo_cfg: dict | None = None,
) -> dict:
    """Run the verification suite on a solved equilibrium; JSON-ready output.

    The core checks (pointwise optimality residual, fixed-point
    self-consistency of the accumulated variance, objective concavity along
    the solution, and agreement of the claimed value with the exact Gaussian
    evaluation of the control) always run, against ``residual_tol``,
    ``consistency_tol`` and ``value_tol``.  ``spike``, ``fbsde``, ``pde`` and
    ``monte_carlo_cfg`` enable the heavier suites; each accepts a dict of
    keyword overrides for the corresponding check (an empty dict means
    defaults).  The value check, the spikes and Monte Carlo all start at
    ``x0``, so neither ``spike`` nor ``monte_carlo_cfg`` takes a start state.
    """
    horizon = sol.grid.horizon
    report: dict = {"solver": sol.solver_name, "x0": x0}

    residuals = sol.integral_equation_residuals()
    worst_resid = float(np.max(residuals))
    report["integral_equation"] = {
        "max_scaled_residual": worst_resid,
        "tol": residual_tol,
        "passed": worst_resid <= residual_tol,
    }

    # relative to the variance once it exceeds one, as value_consistency's tol (1 + |v|)
    self_err = sol.self_consistency_error()
    report["self_consistency"] = {
        "error": self_err,
        "tol": consistency_tol,
        "passed": self_err <= consistency_tol * max(1.0, float(sol.y.max())),
    }

    worst_margin = float(sol.margins.max())
    report["concavity"] = {"worst_margin": worst_margin, "passed": worst_margin < 0.0}

    report["value_consistency"] = _plain(value_consistency_check(sol, x0, tol=value_tol))

    if spike is not None:
        cfg = dict(spike)
        times = _nonempty(cfg.pop("times", (0.0, 0.5 * horizon, 0.9 * horizon)), "spike time")
        zetas = [float(z) for z in cfg.pop("zetas", (-2.0, -1.0, -0.5, 0.5, 1.0, 2.0))]
        cases = [
            _plain(case)
            for t in times
            for case in spike_test(sol, float(t), zetas, x=x0, **cfg)
        ]
        report["spike"] = {"cases": cases, "passed": all(c["passed"] for c in cases)}

    if fbsde is not None:
        cfg = dict(fbsde)
        times = _nonempty(cfg.pop("times", (0.0, 0.5 * horizon, 0.9 * horizon)), "fbsde time")
        cases = [_plain(fbsde_diagonal_check(sol, float(t), **cfg)) for t in times]
        report["fbsde"] = {"cases": cases, "passed": all(c["passed"] for c in cases)}

    if pde is not None:
        report["pde"] = _plain(pde_residual_check(sol, **pde))

    if monte_carlo_cfg is not None:
        cfg = {"seed": 20240801, "num_paths": 200_000, "num_steps": 1024}
        cfg.update(monte_carlo_cfg)
        report["monte_carlo"] = _plain(monte_carlo(sol, x0, **cfg))

    report["passed"] = all(
        section["passed"]
        for key, section in report.items()
        if isinstance(section, dict) and "passed" in section
    )
    return report
