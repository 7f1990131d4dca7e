"""The adaptive backward RK4 march of ``equilibrium.solve_ode``, the ``ode`` solver.

``solve_ode`` documents the march and loads this module on its first call,
so a command whose families all have a first integral never compiles it.
"""

from __future__ import annotations

import math

import numpy as np

from .equilibrium import _assemble, _reachable_budget, _relative_error
from .errors import ConcavityError, NonFiniteResultError, OdeStepError

# most steps, accepted or rejected, before the backward ``ode`` march gives up
_ODE_MAX_STEPS = 20_000
# the share of tol that one ``ode`` step may spend per unit of t / T
_ODE_STEP_SHARE = 1e-3


def march(coeffs, spec, tol: float):
    """``solve_ode(coeffs, spec, tol=tol)``."""
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
