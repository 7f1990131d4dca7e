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
A backward RK4 integrator, ``ode``, covers the families without a P and
serves as an independent check of the others.  ``solve_many`` runs a solver
by name over a list of problems, with one inversion for every P that several
of them share; ``solve`` is its one-problem case, and ``auto`` picks
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
_MIN_EXPONENT, _MAX_EXPONENT = -1075, 1024  # 2^-1075 rounds to 0, 2^1024 overflows
_BISECT_STEPS = 30
_NEWTON_STEPS = 3
# most RK4 substeps per grid cell before the backward march gives up
_ODE_MAX_SUBSTEPS = 16


@dataclass(frozen=True, eq=False)
class EquilibriumSolution:
    """Equilibrium loading and induced value function on the grid.

    Between nodes the terminal feedback variance is the ``_hermite`` through
    the node values y_k and slopes -(d_k beta_k)^2, built on the first such
    query.  There K is the curvature at that y for every family, and the
    loading follows from the pointwise condition
    beta = kappa b / d^2 * (-1 / (2 K)).  ``margins`` holds the curvature
    K(y_k) at each node, all negative.  A query at node 0 or at the
    node array returns the stored ``y`` and ``margins`` (and the loading
    from them).  ``ode_error_estimate`` and ``ode_substeps`` record the
    ``ode`` march's Richardson estimate and substeps per cell, else 0.
    """

    coeffs: cf.CoefficientSet
    objective: ObjectiveSpec
    y: np.ndarray
    beta: np.ndarray
    solver_name: str
    margins: np.ndarray
    ode_error_estimate: float = 0.0
    ode_substeps: int = 0

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
        b = np.asarray(self.coeffs.control_drift(t), dtype=float)
        d = np.asarray(self.coeffs.control_vol(t), dtype=float)
        return self.objective.kappa * b / d**2 * (-0.5 / margins)

    def beta_many(self, t):
        return self._beta(*self._query(t))

    def beta_at(self, t: float) -> float:
        return float(self.beta_many(t))

    def control_many(self, t):
        """Equilibrium control path at an array of times in the horizon."""
        t, at = self._query(t)
        d = np.asarray(self.coeffs.control_vol(t), dtype=float)
        f = np.asarray(self.coeffs.vol_offset(t), dtype=float)
        return self._beta(t, at) * np.exp(-self.coeffs.int_a_many(t)) - f / d

    def control(self, t: float) -> float:
        """Equilibrium control at one time; it does not depend on the state."""
        return float(self.control_many(t))

    @cached_property
    def _feedback_quadrature(self) -> cf.SuffixQuadrature:
        return cf.SuffixQuadrature(self.coeffs.b_nodes * self.beta, self.grid)

    def _terminal_mean_parts(self, t, x: float):
        """Theta(t, x) = x e^(int_t^T a) + int_t^T e^(int_s^T a) (c - b f / d) ds
        and the feedback drift int_t^T b beta, vectorized over t."""
        offset = x * np.exp(self.coeffs.int_a_many(t)) + self.coeffs.offset_eval(t)
        return offset, self._feedback_quadrature(t)

    def value_many(self, t, x: float):
        """Equilibrium value function V(t, x) at an array of times, one state x.

        V = kappa (Theta(t, x) + int_t^T b beta) + psi on the Gaussian law
        of variance y(t).  O(n + len(t)): both suffix integrals come from
        cached O(n) quadratures and psi is evaluated once over all y(t).
        """
        t, at = self._query(t)
        spec = self.objective
        offset, feedback = self._terminal_mean_parts(t, x)
        y = np.asarray(self._y(t, at), dtype=float)
        risk = psi(spec, MomentVector.gaussian(spec.gaussian_order, y))
        return spec.kappa * offset + spec.kappa * feedback + risk

    def value(self, t: float, x: float) -> float:
        """Equilibrium value function V(t, x)."""
        return float(self.value_many(t, x))

    def terminal_mean(self, t: float, x: float) -> float:
        """Conditional mean of X_T under the equilibrium feedback from (t, x)."""
        offset, feedback = self._terminal_mean_parts(self.grid.require_time(t), x)
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


def _assemble(
    coeffs, spec, y_nodes, solver_name, ode_err=0.0, ode_substeps=0
) -> EquilibriumSolution:
    y_nodes = np.maximum(np.asarray(y_nodes, dtype=float), 0.0)
    if not np.all(np.isfinite(y_nodes)):
        raise NonFiniteResultError(f"the {solver_name} solver gave a non-finite y")
    margins = np.asarray(curvature_sum(spec, y_nodes), dtype=float)
    worst = float(margins.max())
    if not worst < 0.0:
        raise ConcavityError(f"curvature condition failed: max K = {worst:.6g} (needs K < 0)")
    lead = spec.kappa * coeffs.b_nodes / coeffs.d_nodes**2
    beta = lead * (-0.5 / margins)
    if not np.all(np.isfinite(beta)):
        raise NonFiniteResultError(f"the {solver_name} solver gave a non-finite beta")
    return EquilibriumSolution(
        coeffs, spec, y_nodes, beta, solver_name, margins, ode_err, ode_substeps
    )


def _solve_increasing_many(fn, dfn, targets):
    """Solve fn(y) = target elementwise for increasing fn with fn(0) = 0, y >= 0.

    ``fn`` and its derivative ``dfn`` act on arrays.  Each positive target is
    bracketed within a factor of two, 2^(e - 1) < y <= 2^e, by bisecting e
    over the float range (an fn that overflows is above any finite target),
    narrowed by bisection and polished by Newton steps clamped to the
    bracket; targets <= 0 give 0.
    """
    targets = np.asarray(targets, dtype=float)
    out = np.zeros_like(targets)
    active = targets > 0.0
    if not np.any(active):
        return out
    tgt = targets[active]
    lo_e = np.full(tgt.shape, _MIN_EXPONENT)
    hi_e = np.full(tgt.shape, _MAX_EXPONENT)
    with np.errstate(over="ignore"):
        while np.any(hi_e - lo_e > 1):
            mid_e = (lo_e + hi_e) // 2
            short = fn(np.ldexp(1.0, mid_e)) < tgt
            lo_e = np.where(short, mid_e, lo_e)
            hi_e = np.where(short, hi_e, mid_e)
        if np.any(hi_e == _MAX_EXPONENT):
            raise RootBracketError(f"could not bracket root for target {float(tgt.max()):.6g}")
        lo, hi = np.ldexp(1.0, lo_e), np.ldexp(1.0, hi_e)
        for _ in range(_BISECT_STEPS):
            mid = 0.5 * (lo + hi)
            below = fn(mid) < tgt
            lo = np.where(below, mid, lo)
            hi = np.where(below, hi, mid)
        y = 0.5 * (lo + hi)
        for _ in range(_NEWTON_STEPS):
            slope = dfn(y)
            safe = np.where(slope > 0.0, slope, 1.0)
            step = np.where(slope > 0.0, (fn(y) - tgt) / safe, 0.0)
            y = np.clip(y - step, lo, hi)
    out[active] = y
    return out


def _reachable_budget(coeffs: cf.CoefficientSet, spec: ObjectiveSpec, integral) -> np.ndarray:
    """kappa^2 theta at the nodes: NonFiniteResultError if it overflows, and a
    budget beyond the range of the first integral P (if any) raises P's ``error``."""
    th = np.maximum(coeffs.theta_eval(coeffs.grid.nodes), 0.0)
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

    Only ``closed_form`` applies an explicit P^-1; otherwise one vectorized
    monotone root solve inverts P, polished with the slope P' = 4 K^2 from
    the variant's ``curvature``, so ``algebraic`` stays an independent check
    of the explicit inverses.
    """
    integral = variant.first_integral
    if solver_name == "closed_form" and integral.inverse is not None:
        return integral.inverse(budget)
    return _solve_increasing_many(integral.p, lambda y: (2.0 * variant.curvature(y)) ** 2, budget)


def solve_ode(
    coeffs: cf.CoefficientSet,
    spec: ObjectiveSpec,
    *,
    tol: float = 1e-8,
) -> EquilibriumSolution:
    """Backward RK4 integration of the scalar equation for y.

    Integrates y' = -(kappa b / d)^2 f(y)^2 from the terminal condition
    y(T) = 0 on the master grid, with a Richardson half-step error estimate;
    the step is halved, up to ``_ODE_MAX_SUBSTEPS`` substeps per cell, only
    while the estimate misses ``tol`` x max(1, max y), a target relative to
    the variance once it exceeds one.  Since f = -1 / (2 K(y)) has no t, each
    run evaluates (kappa b / d)^2 at all its stage times in one vectorized
    call and marches on Python floats through the family's
    ``curvature_scalar``.  It first checks the risk budget as the
    first-integral solvers do.
    """
    grid = coeffs.grid
    kappa = spec.kappa
    curvature = spec.variant.curvature_scalar
    _reachable_budget(coeffs, spec, spec.variant.first_integral)

    def run(substeps: int) -> np.ndarray:
        n = grid.num_steps
        h = grid.step / substeps
        # stage times t1, t1 - h/2, t1 - h of every substep, in marching order
        t1 = (grid.nodes[n:0:-1, None] - np.arange(substeps) * h).reshape(-1)
        times = np.stack([t1, t1 - 0.5 * h, t1 - h], axis=-1).reshape(-1)
        b = np.asarray(coeffs.control_drift(times), dtype=float)
        d = np.asarray(coeffs.control_vol(times), dtype=float)
        try:
            gains = [r**2 for r in (kappa * b / d).tolist()]
        except OverflowError:
            raise NonFiniteResultError("the ode gain (kappa b / d)^2 overflows") from None

        def rate(i, y):
            kk = curvature(y)
            if not (kk < 0.0):
                raise ConcavityError(
                    "curvature condition failed during integration:"
                    f" K({times[i]:.6g}, {y:.6g}) = {kk:.6g}"
                )
            f_gain = -0.5 / kk
            return gains[i] * f_gain * f_gain

        out = np.empty(n + 1)
        out[n] = 0.0
        y = 0.0
        i = 0
        # march backward in time from the horizon
        for k in range(n, 0, -1):
            for _ in range(substeps):
                k1 = rate(i, y)
                k2 = rate(i + 1, y + 0.5 * h * k1)
                k3 = rate(i + 1, y + 0.5 * h * k2)
                k4 = rate(i + 2, y + h * k3)
                y = y + h * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
                i += 3
            out[k - 1] = y
        return out

    coarse = run(1)
    substeps = 2
    fine = run(substeps)
    est = _richardson(fine, coarse)
    while not _relative_error(est, fine) <= tol and substeps < _ODE_MAX_SUBSTEPS:
        coarse, substeps = fine, substeps * 2
        fine = run(substeps)
        est = _richardson(fine, coarse)
    if not _relative_error(est, fine) <= tol:
        raise _ode_stall(fine, est, tol, curvature)
    return _assemble(coeffs, spec, fine, "ode", ode_err=est, ode_substeps=substeps)


def _richardson(fine, coarse) -> float:
    """Richardson's error estimate max |fine - coarse| / 15 of an RK4 march at two step sizes."""
    return float(np.max(np.abs(fine - coarse))) / 15.0


def _relative_error(est: float, y) -> float:
    """An error estimate over max(1, max y), the scale ``self_consistency`` uses;
    inf when y is not finite."""
    top = float(np.max(y))
    return est / max(1.0, top) if top < math.inf else math.inf


def _ode_stall(y, est: float, tol: float, curvature) -> OdeStepError:
    """The error of a march whose estimate still misses ``tol`` at the finest step.

    A y past the range where the curvature is finite (exp's e^(c^2 y / 2)
    overflows) freezes the march's rate at zero: the message names it.
    """
    top = float(np.max(y))
    if not top < math.inf or math.isinf(curvature(top)):
        return OdeStepError(
            f"backward integration stalled at error estimate {est:.3e}: y overflows,"
            f" reaching {top:.3e}, where the curvature K is infinite"
        )
    return OdeStepError(
        f"backward integration stalled at error estimate {est:.3e} > tol {tol:.3e}"
        " x max(1, max y)"
    )


def _solver_name(spec: ObjectiveSpec, solver: str) -> str:
    """The solver ``auto`` picks: ``closed_form`` with a P, ``ode`` without."""
    if solver == "auto":
        return "ode" if spec.variant.first_integral is None else "closed_form"
    return solver


def _invert_shared(jobs) -> dict:
    """The node values of the first-integral jobs that share their P, by job index.

    The jobs of one ``FirstIntegral`` object (so of one solver: ``solve_many``
    takes one solver for all) take one ``_invert`` of their concatenated
    budgets.  A batch whose root solve cannot bracket is left out: each of
    its jobs then inverts its own budget and raises its own error.
    """
    shared = {}
    for i, (_, _, _, integral, _) in enumerate(jobs):
        if integral is not None:
            shared.setdefault(id(integral), []).append(i)
    roots = {}
    for indices in shared.values():
        if len(indices) < 2:
            continue
        _, spec, solver_name, _, _ = jobs[indices[0]]
        budgets = [jobs[i][4] for i in indices]
        try:
            y = _invert(spec.variant, solver_name, np.concatenate(budgets))
        except RootBracketError:
            continue
        ends = np.cumsum([b.size for b in budgets])[:-1]
        roots.update(zip(indices, np.split(y, ends)))
    return roots


def solve_many(problems, solver: str = "auto", ode_tol: float | None = None) -> list:
    """Solve each (coeffs, spec) in ``problems`` with the named solver.

    Problems that ``closed_form`` or ``algebraic`` solves through one shared
    ``FirstIntegral`` object (a sweep of T or kappa keeps the variant, and
    with it P) are inverted together: their budgets kappa^2 theta are
    checked one by one, concatenated and inverted by one call.  Every
    inversion is elementwise, so each solution has the bits its problem
    gets alone.  ``ode`` problems march one by one.  A failure raises the
    error of the first failing problem in list order.
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
    roots = _invert_shared(jobs)
    solutions = []
    for i, (coeffs, spec, solver_name, integral, budget) in enumerate(jobs):
        if integral is None:
            tol = {} if ode_tol is None else {"tol": float(ode_tol)}
            solutions.append(solve_ode(coeffs, spec, **tol))
        else:
            y = roots[i] if i in roots else _invert(spec.variant, solver_name, budget)
            solutions.append(_assemble(coeffs, spec, y, solver_name))
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

