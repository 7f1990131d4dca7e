"""Time-consistent equilibrium controls for the linear moment problem.

The equilibrium feedback control does not depend on the state:

    u(t) = beta(t) exp(-int_t^T a) - f(t) / d(t)

where the loading beta solves the pointwise condition

    kappa b(t) / d(t)^2 + 2 beta(t) K(y(t)) = 0,

K is the even-moment curvature of the objective and y(t) = int_t^T (d beta)^2
is the terminal variance produced by the feedback itself.  Eliminating beta
gives a scalar backward equation for y alone,

    y'(t) + (kappa b(t) / d(t))^2 f(y(t))^2 = 0,   y(T) = 0,

with gain f = -1 / (2 K).  Where the objective family supplies the exact
first integral P(y) = kappa^2 theta, P the antiderivative of 4 K^2, one
routine inverts it at all nodes under two of the names in ``SOLVERS``:
``closed_form`` applies P^-1 where it is explicit and otherwise the
vectorized monotone root solve, ``algebraic`` always takes the root solve.
An adaptive backward RK4 march, ``ode``, covers the families without a P
and serves as an independent check of the others.  ``solve_many`` runs a
solver by name over a list of problems, with one inversion per P however many
of them share it; ``solve`` is its one-problem case, and ``auto`` picks
``closed_form`` for a family with a P and ``ode`` for one without.
Between nodes every solution is the cubic Hermite through y_k and the exact
slope y'_k = -(d_k beta_k)^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import coeffs as cf
from .errors import (
    ConcavityError,
    DomainError,
    EquicontrolError,
    NonFiniteResultError,
    OdeStepError,
    RootBracketError,
    UnsupportedVariantError,
)
from .moments import MomentVector
from .objectives import ObjectiveSpec, curvature_sum, psi

# the solver names ``solve`` takes besides ``auto``
SOLVERS = ("closed_form", "ode", "algebraic")
# the bit pattern of +inf, above that of every finite nonnegative double
_INF_BITS = np.float64(np.inf).view(np.uint64)
# most steps, accepted or rejected, before the backward ``ode`` march gives up
_ODE_MAX_STEPS = 20_000
# the share of tol that one ``ode`` step may spend per unit of t / T
_ODE_STEP_SHARE = 1e-3


@dataclass(frozen=True, eq=False)
class EquilibriumSolution:
    """Equilibrium loading and induced value function on the grid.

    ``objective`` is the solved spec with the variant's ``on_range`` for
    the largest node y and the n + 1 nodes: fourier_even's margins, its K
    between nodes, the value's psi and the suites' ``curvature_sum`` and
    ``psi`` calls all read its Chebyshev tables of K and E[S], and every
    other family is its own.  Between nodes the terminal feedback variance
    is the ``_hermite`` through the node values y_k and slopes
    -(d_k beta_k)^2, built on the first such query.  There K is the
    curvature at that y for every family, and the loading follows from the
    pointwise condition beta = kappa b / d^2 * (-1 / (2 K)).  ``margins``
    holds the curvature K(y_k) at each node, all negative.  A query at
    node 0 or at the node array reads node arrays only: the stored ``y``
    and ``margins``, the loading from ``margins`` with ``b_nodes`` and
    ``d_nodes`` (never the stored ``beta``), and for the control, the value
    and the terminal mean the coefficients' node arrays and the suffix
    quadratures' ``at_nodes``.  The ``ode`` march records the sum of its
    accepted steps' Richardson estimates, its accepted and rejected steps
    and its shortest step; they are 0 for the other solvers.
    """

    coeffs: cf.CoefficientSet
    objective: ObjectiveSpec
    y: np.ndarray
    beta: np.ndarray
    solver_name: str
    margins: np.ndarray
    ode_error_estimate: float = 0.0
    ode_steps: int = 0
    ode_rejected_steps: int = 0
    ode_min_step: float = 0.0

    @property
    def grid(self) -> cf.TimeGrid:
        return self.coeffs.grid

    @property
    def ode_relative_error_estimate(self) -> float:
        """``ode_error_estimate`` over max(1, max y): the number ``ode`` holds to its tol."""
        return _relative_error(self.ode_error_estimate, self.y)

    def _query(self, t):
        """A public query's checked times and their node index: 0 for t = 0,
        a full slice for the node array, else None.

        The node values were solved once; the Hermite would only return them.
        """
        t = np.asarray(t, dtype=float)
        if t.ndim == 0:
            # a single time takes the float check: 0-d numpy comparisons and
            # clip cost about 10 us, and every scalar query makes this call
            t = np.float64(self.grid.require_time(float(t)))
            return t, (0 if t == 0.0 else None)
        t = self.grid.require_time(t)
        nodes = self.grid.nodes
        return t, (slice(None) if t.shape == nodes.shape and np.array_equal(t, nodes) else None)

    @cached_property
    def _y_fn(self):
        # y'_k = -(d_k beta_k)^2; one that overflows is clipped like any steep one
        with np.errstate(over="ignore"):
            slopes = -((self.coeffs.d_nodes * self.beta) ** 2)
        return _hermite(self.grid, self.y, slopes)

    def _y(self, t, at):
        if at is not None:
            return self.y[at]
        return self._y_fn(t)

    def y_many(self, t):
        return self._y(*self._query(t))

    def y_at(self, t: float) -> float:
        return float(self.y_many(t))

    def _curvature(self, t, at):
        if at is not None:
            return self.margins[at]
        return curvature_sum(self.objective, self._y_fn(t))

    def curvature_many(self, t):
        """K(y(t)) along the solution, vectorized.

        Node queries return the stored margins; between nodes K is evaluated
        at the Hermite y(t).
        """
        return self._curvature(*self._query(t))

    def _beta(self, t, at):
        margins = self._curvature(t, at)
        if np.any(margins >= 0.0):
            raise ConcavityError("curvature not negative between nodes")
        c = self.coeffs
        if at is None:
            b, d = _paths(t, c.control_drift, c.control_vol)
        else:
            b, d = c.b_nodes[at], c.d_nodes[at]
        return self.objective.kappa * b / d**2 * (-0.5 / margins)

    def beta_many(self, t):
        return self._beta(*self._query(t))

    def beta_at(self, t: float) -> float:
        return float(self.beta_many(t))

    def control_many(self, t):
        """Equilibrium control path at an array of times in the horizon."""
        t, at = self._query(t)
        c = self.coeffs
        if at is None:
            int_a, (d, f) = c.int_a_many(t), _paths(t, c.control_vol, c.vol_offset)
        else:
            int_a, d, f = c.int_a_nodes[at], c.d_nodes[at], c.f_nodes[at]
        return self._beta(t, at) * np.exp(-int_a) - f / d

    def control(self, t: float) -> float:
        """Equilibrium control at one time; it does not depend on the state."""
        return float(self.control_many(t))

    @cached_property
    def _feedback_quadrature(self) -> cf.SuffixQuadrature:
        return cf.SuffixQuadrature(self.coeffs.b_nodes * self.beta, self.grid)

    def _terminal_mean_parts(self, t, at, x: float):
        """Theta(t, x) = x e^(int_t^T a) + int_t^T e^(int_s^T a) (c - b f / d) ds
        and the feedback drift int_t^T b beta, vectorized over t."""
        c = self.coeffs
        if at is None:
            offset = x * np.exp(c.int_a_many(t)) + c.offset_eval(t)
            return offset, self._feedback_quadrature(t)
        offset = x * c.growth[at] + c.offset_eval.at_nodes[at]
        return offset, self._feedback_quadrature.at_nodes[at]

    def value_many(self, t, x: float):
        """Equilibrium value function V(t, x) at an array of times, one state x.

        V = kappa (Theta(t, x) + int_t^T b beta) + psi on the Gaussian law
        of variance y(t).  O(n + len(t)): both suffix integrals come from
        cached O(n) quadratures and psi is evaluated once over all y(t).
        """
        t, at = self._query(t)
        spec = self.objective
        offset, feedback = self._terminal_mean_parts(t, at, x)
        y = np.asarray(self._y(t, at), dtype=float)
        risk = psi(spec, MomentVector.gaussian(spec.gaussian_order, y))
        return spec.kappa * offset + spec.kappa * feedback + risk

    def value(self, t: float, x: float) -> float:
        """Equilibrium value function V(t, x)."""
        return float(self.value_many(t, x))

    def terminal_mean(self, t: float, x: float) -> float:
        """Conditional mean of X_T under the equilibrium feedback from (t, x)."""
        offset, feedback = self._terminal_mean_parts(*self._query(t), x)
        return float(offset + feedback)

    def integral_equation_residuals(self) -> np.ndarray:
        """Scaled residual of the pointwise equilibrium condition per node."""
        lead = self.objective.kappa * self.coeffs.b_nodes / self.coeffs.d_nodes**2
        res = lead + 2.0 * self.beta * self.margins
        return np.abs(res) / (1.0 + np.abs(lead))

    def self_consistency_error(self) -> float:
        """max_k |int_t_k^T (d beta)^2 - y_k|, the feedback/variance gap.

        Equals the maximum over nodes of
        |integrate((d beta)^2, grid, t_k, T) - y_k| bitwise, from one O(n) pass.
        """
        feedback = cf.suffix_integrals((self.coeffs.d_nodes * self.beta) ** 2, self.grid)
        return float(np.max(np.abs(np.maximum(feedback, 0.0) - self.y)))


def _paths(t, *paths) -> tuple:
    """Coefficient paths at query times between nodes, as float arrays."""
    return tuple(np.asarray(path(t), dtype=float) for path in paths)


def _hermite(grid: cf.TimeGrid, values, slopes):
    """Piecewise cubic Hermite through node values and slopes, vectorized over t.

    Each cell is a cubic in Bezier form, its inner control points clipped
    to the cell's value range: the monotone guard of Fritsch & Carlson
    (1980), which keeps the curve between its end values, finite for any
    slope.  Exact at the nodes.
    """
    nodes = grid.nodes
    widths = np.diff(nodes)
    left, right = values[:-1], values[1:]
    lo, hi = np.minimum(left, right), np.maximum(left, right)
    inner_left = np.clip(left + widths * slopes[:-1] / 3.0, lo, hi)
    inner_right = np.clip(right - widths * slopes[1:] / 3.0, lo, hi)

    def evaluate(t):
        t = np.asarray(t, dtype=float)
        k = np.clip(np.searchsorted(nodes, t, side="right") - 1, 0, grid.num_steps - 1)
        s = (t - nodes[k]) / widths[k]
        r = 1.0 - s
        return r * r * (r * left[k] + 3.0 * s * inner_left[k]) + s * s * (
            3.0 * r * inner_right[k] + s * right[k]
        )

    return evaluate


def _assemble(coeffs, spec, y_nodes, solver_name, **ode_record) -> EquilibriumSolution:
    y_nodes = np.maximum(np.asarray(y_nodes, dtype=float), 0.0)
    if not np.all(np.isfinite(y_nodes)):
        raise NonFiniteResultError(f"the {solver_name} solver gave a non-finite y")
    variant = spec.variant.on_range(float(y_nodes.max()), y_nodes.size)
    if variant is not spec.variant:
        spec = ObjectiveSpec(spec.kappa, variant)
    margins = np.asarray(curvature_sum(spec, y_nodes), dtype=float)
    worst = float(margins.max())
    if not worst < 0.0:
        raise ConcavityError(f"curvature condition failed: max K = {worst:.6g} (needs K < 0)")
    lead = spec.kappa * coeffs.b_nodes / coeffs.d_nodes**2
    beta = lead * (-0.5 / margins)
    if not np.all(np.isfinite(beta)):
        raise NonFiniteResultError(f"the {solver_name} solver gave a non-finite beta")
    return EquilibriumSolution(coeffs, spec, y_nodes, beta, solver_name, margins, **ode_record)


def _solve_increasing_many(fn, targets):
    """Solve fn(y) = target elementwise for increasing fn with fn(0) = 0, y >= 0.

    ``fn`` acts on arrays.  Nonnegative doubles sort as their 64-bit
    patterns, and +inf's is below 2^63, so 63 halvings of the patterns of
    [0, +inf) leave adjacent floats lo < hi with fn(lo) < target <= fn(hi)
    (halving adjacent ones changes nothing); the one with the smaller
    |fn - target| is the root.  fn is never taken at +inf: a target that no
    finite y reaches gives NaN, and targets <= 0 give 0.
    """
    targets = np.asarray(targets, dtype=float)
    out = np.zeros_like(targets)
    active = targets > 0.0
    tgt = targets[active]
    lo = np.zeros(tgt.shape, dtype=np.uint64)
    hi = np.full(tgt.shape, _INF_BITS)
    with np.errstate(over="ignore"):
        for _ in range(int(_INF_BITS).bit_length()):
            mid = (lo + hi) >> 1
            short = fn(mid.view(float)) < tgt
            lo = np.where(short, mid, lo)
            hi = np.where(short, hi, mid)
        reached = hi < _INF_BITS
        lo, hi = lo.view(float), np.where(reached, hi, lo).view(float)
        y = np.where(np.abs(fn(hi) - tgt) < np.abs(fn(lo) - tgt), hi, lo)
    out[active] = np.where(reached, y, np.nan)
    return out


def _reachable_budget(coeffs: cf.CoefficientSet, spec: ObjectiveSpec, integral) -> np.ndarray:
    """kappa^2 theta at the nodes: NonFiniteResultError if it overflows, and a
    budget beyond the range of the first integral P (if any) raises P's ``error``."""
    th = np.maximum(coeffs.theta_eval.at_nodes, 0.0)
    k2 = spec.kappa * spec.kappa
    top = k2 * float(th.max())
    if not math.isfinite(top):
        raise NonFiniteResultError(f"the risk budget kappa^2 theta = {top} is not finite")
    if integral is not None and top >= integral.supremum:
        raise integral.error(
            f"risk budget {top:.6g} exceeds the reachable range {integral.supremum:.6g}"
            f" of the {spec.variant.kind} objective"
        )
    return k2 * th


def _first_integral(spec: ObjectiveSpec, solver_name: str):
    """The family's first integral P, else UnsupportedVariantError."""
    integral = spec.variant.first_integral
    if integral is None:
        raise UnsupportedVariantError(
            f"no {solver_name} solution for this {spec.variant.kind} objective:"
            " it has no first integral"
        )
    return integral


def _invert(variant, solver_name: str, budget) -> np.ndarray:
    """y with P(y) = budget for the variant's first integral P, elementwise.

    Only ``closed_form`` applies an explicit P^-1; otherwise the monotone
    root solve inverts P from P alone, so ``algebraic`` stays an independent
    check of the explicit inverses.  A budget no finite y reaches gives NaN.
    """
    integral = variant.first_integral
    if solver_name == "closed_form" and integral.inverse is not None:
        return integral.inverse(budget)
    return _solve_increasing_many(integral.p, budget)


def solve_ode(
    coeffs: cf.CoefficientSet,
    spec: ObjectiveSpec,
    *,
    tol: float = 1e-8,
) -> EquilibriumSolution:
    """Adaptive backward RK4 integration of the scalar equation for y.

    Integrates y' = -(kappa b / d)^2 f(y)^2 from the terminal condition
    y(T) = 0 in steps chosen by the error, not by the grid.  Each step of
    length H is taken whole and as two halves, and is accepted when
    Richardson's estimate |halves - whole| / 15 is at most
    ``_ODE_STEP_SHARE`` x tol x max(1, halves) x H / T, or the float spacing
    of halves; it then ends at the extrapolated halves + (halves - whole) / 15.
    The sum of the accepted estimates, ``ode_error_estimate``, so stays far
    below tol x max(1, max y), and a sum above it (a tol below rounding)
    raises OdeStepError.  The share is that small because ``ode`` is held to
    the closed forms at 1e-10 relative, below the default tol: with a share
    of 1, cosh on curved coefficients at n = 512 misses that by up to 50x.
    Node values come from the quintic Hermite through each step's two ends
    and its midpoint with their rates, written in s = (t_start - t) / H so
    that no difference is divided by H.  Since f = -1 / (2 K(y)) has no t,
    each attempt evaluates (kappa b / d)^2 at its four new stage times in
    one vectorized call and marches on Python floats through the family's
    ``curvature_scalar``.  It first checks the risk budget as the
    first-integral solvers do.  A step whose quarter no longer moves t (a
    layer thinner than float spacing), or more than ``_ODE_MAX_STEPS``
    attempts, raises OdeStepError at once.
    """
    horizon = coeffs.grid.horizon
    kappa = spec.kappa
    curvature = spec.variant.curvature_scalar
    _reachable_budget(coeffs, spec, spec.variant.first_integral)

    def gains(times) -> list:
        times = np.array(times)
        b = np.asarray(coeffs.control_drift(times), dtype=float)
        d = np.asarray(coeffs.control_vol(times), dtype=float)
        try:
            return [r**2 for r in (kappa * b / d).tolist()]
        except OverflowError:
            raise NonFiniteResultError("the ode gain (kappa b / d)^2 overflows") from None

    def rate(t, gain, y):
        kk = curvature(y)
        if not (kk < 0.0):
            raise ConcavityError(
                "curvature condition failed during integration:"
                f" K({t:.6g}, {y:.6g}) = {kk:.6g}"
            )
        f_gain = -0.5 / kk
        return gain * f_gain * f_gain

    def rk4(y, k1, h, t_mid, g_mid, t_end, g_end):
        k2 = rate(t_mid, g_mid, y + 0.5 * h * k1)
        k3 = rate(t_mid, g_mid, y + 0.5 * h * k2)
        k4 = rate(t_end, g_end, y + h * k3)
        return y + h * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0

    # per accepted step: start, length, y at s = 0, 1/2, 1 and H y' there
    steps, rejected, est_sum = [], 0, 0.0
    t, y, whole, h = horizon, 0.0, 0.0, horizon
    (gain,) = gains([t])
    k = rate(t, gain, y)
    while t > 0.0:
        t_end = max(t - h, 0.0)
        h = t - t_end
        unresolved = t - 0.25 * h == t  # the stage times would coincide
        if unresolved or len(steps) + rejected == _ODE_MAX_STEPS:
            why = "the step no longer moves t" if unresolved else f"{_ODE_MAX_STEPS} steps taken"
            if math.isinf(curvature(whole)):  # exp's e^(c^2 y / 2): the rate froze at 0
                why += f"; y overflows, reaching {whole:.3e}, where the curvature K is infinite"
            raise OdeStepError(
                f"backward integration stalled at t = {t:.6g},"
                f" gain (kappa b / d)^2 = {gain:.3e}: {why}"
            )
        times = [t - 0.25 * h, t - 0.5 * h, t - 0.75 * h, t_end]
        g = gains(times)
        whole = rk4(y, k, h, times[1], g[1], t_end, g[3])
        mid = rk4(y, k, 0.5 * h, times[0], g[0], times[1], g[1])
        k_mid = rate(times[1], g[1], mid)
        halves = rk4(mid, k_mid, 0.5 * h, times[2], g[2], t_end, g[3])
        est = abs(halves - whole) / 15.0
        target = max(_ODE_STEP_SHARE * tol * max(1.0, halves) * h / horizon, math.ulp(halves))
        if est <= target < math.inf:
            y_end = halves + (halves - whole) / 15.0
            k_end = rate(t_end, g[3], y_end)
            steps.append((t, h, y, mid, y_end, h * k, h * k_mid, h * k_end))
            est_sum += est
            t, y, gain, k = t_end, y_end, g[3], k_end
        else:
            rejected += 1
        # a NaN or infinite estimate gives max(0.1, nan) = 0.1: the step shrinks
        h *= 4.0 if est == 0.0 else min(4.0, max(0.1, 0.9 * (target / est) ** 0.25))
    y_nodes = _quintic_nodes(steps, coeffs.grid.nodes)
    if not _relative_error(est_sum, y_nodes) <= tol:
        raise OdeStepError(
            f"backward integration stalled at error estimate {est_sum:.3e} > tol {tol:.3e}"
            " x max(1, max y)"
        )
    return _assemble(
        coeffs, spec, y_nodes, "ode", ode_error_estimate=est_sum, ode_steps=len(steps),
        ode_rejected_steps=rejected, ode_min_step=min(step[1] for step in steps),
    )


def _quintic_nodes(steps, nodes) -> np.ndarray:
    """y at the nodes from the quintic Hermite of each backward step.

    ``steps`` holds (start, H, y0, y_mid, y1, H y0', H y_mid', H y1') per
    step; the quintic in s = (start - t) / H takes the values and s-slopes
    at s = 0, 1/2 and 1, in Newton form on the nodes 0, 0, 1/2, 1/2, 1, 1.
    """
    start, h, y0, ym, y1, d0, dm, d1 = np.array(steps).T
    # the backward steps' starts descend; a node in (start_j+1, start_j] is step j's
    j = len(steps) - 1 - np.searchsorted(start[::-1], nodes)
    s = (start[j] - nodes) / h[j]
    lo, hi = 2.0 * (ym - y0), 2.0 * (y1 - ym)
    f012, f123, f234, f345 = 2.0 * (lo - d0), 2.0 * (dm - lo), 2.0 * (hi - dm), 2.0 * (d1 - hi)
    f0123, f1234, f2345 = 2.0 * (f123 - f012), f234 - f123, 2.0 * (f345 - f234)
    f01234, f12345 = f1234 - f0123, f2345 - f1234
    c = [a[j] for a in (y0, d0, f012, f0123, f01234, f12345 - f01234)]
    inner = c[3] + (s - 0.5) * (c[4] + (s - 1.0) * c[5])
    return c[0] + s * (c[1] + s * (c[2] + (s - 0.5) * inner))


def _relative_error(est: float, y) -> float:
    """An error estimate over max(1, max y), the scale ``self_consistency`` uses;
    inf when y is not finite."""
    top = float(np.max(y))
    return est / max(1.0, top) if top < math.inf else math.inf


def _solver_name(spec: ObjectiveSpec, solver: str) -> str:
    """The solver ``auto`` picks: ``closed_form`` with a P, ``ode`` without."""
    if solver == "auto":
        return "ode" if spec.variant.first_integral is None else "closed_form"
    return solver


def solve_many(problems, solver: str = "auto", ode_tol: float | None = None) -> list:
    """Solve each (coeffs, spec) in ``problems`` with the named solver.

    Problems that ``closed_form`` or ``algebraic`` solves through one shared
    ``FirstIntegral`` object (a sweep of T or kappa keeps the variant, and
    with it P) are inverted together: their budgets kappa^2 theta are
    checked one by one, concatenated and inverted by one call.  Every
    inversion is elementwise, so each solution has the bits its problem
    gets alone.  ``ode`` problems march one by one.  A failure raises the
    error of the first failing problem in list order; a budget that no
    finite y reaches (NaN from the root solve) raises RootBracketError
    naming the problem's largest budget.
    """
    if solver != "auto" and solver not in SOLVERS:
        raise DomainError(f"unknown solver {solver!r}; pick one of auto, " + ", ".join(SOLVERS))
    # (coeffs, spec, solver name, P or None for ode, budget) per problem, up
    # to the first that fails before its inversion; that one fails last
    jobs, failure = [], None
    for coeffs, spec in problems:
        try:
            solver_name = _solver_name(spec, solver)
            integral = None if solver_name == "ode" else _first_integral(spec, solver_name)
            budget = None if integral is None else _reachable_budget(coeffs, spec, integral)
        except EquicontrolError as exc:
            failure = exc
            break
        jobs.append((coeffs, spec, solver_name, integral, budget))
    # one inversion of the concatenated budgets of every job that shares a P
    shared = {}
    for i, (_, _, _, integral, _) in enumerate(jobs):
        if integral is not None:
            shared.setdefault(id(integral), []).append(i)
    roots = {}
    for indices in shared.values():
        _, spec, solver_name, _, _ = jobs[indices[0]]
        budgets = [jobs[i][4] for i in indices]
        y = _invert(spec.variant, solver_name, np.concatenate(budgets))
        roots.update(zip(indices, np.split(y, np.cumsum([b.size for b in budgets])[:-1])))
    solutions = []
    for i, (coeffs, spec, solver_name, integral, budget) in enumerate(jobs):
        if integral is None:
            tol = {} if ode_tol is None else {"tol": float(ode_tol)}
            solutions.append(solve_ode(coeffs, spec, **tol))
            continue
        if np.any(np.isnan(roots[i])):
            raise RootBracketError(f"could not bracket root for target {float(budget.max()):.6g}")
        solutions.append(_assemble(coeffs, spec, roots[i], solver_name))
    if failure is not None:
        raise failure
    return solutions


def solve(
    coeffs: cf.CoefficientSet,
    spec: ObjectiveSpec,
    solver: str = "auto",
    ode_tol: float | None = None,
) -> EquilibriumSolution:
    """Solve one problem with the named solver: ``solve_many`` on one problem."""
    return solve_many([(coeffs, spec)], solver, ode_tol)[0]

