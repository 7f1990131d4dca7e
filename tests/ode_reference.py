"""The RK4 march as it was before it ran on Python floats, kept as an oracle.

Each stage evaluates the curvature through ``curvature_sum`` and both
coefficients at its own time, so agreement with ``solve_ode`` checks the
batched stage times, the gain list and every ``curvature_scalar``.  The
step-size rule and the stall message are the production march's own.
"""

import numpy as np

from equicontrol.equilibrium import (
    _ODE_MAX_SUBSTEPS,
    _assemble,
    _ode_stall,
    _relative_error,
    _richardson,
)
from equicontrol.errors import ConcavityError, OdeStepError
from equicontrol.objectives import curvature_sum


def reference_solve_ode(coeffs, spec, *, tol=1e-8):
    grid = coeffs.grid
    kappa = spec.kappa

    def rate(t, y):
        if y < 0.0:
            if y < -1e-12:
                raise OdeStepError(f"backward step left the admissible region: y = {y:.3e}")
            y = 0.0
        kk = curvature_sum(spec, y)
        if not (kk < 0.0):
            raise ConcavityError(
                f"curvature condition failed during integration: K({t:.6g}, {y:.6g}) = {kk:.6g}"
            )
        b = float(coeffs.control_drift(t))
        d = float(coeffs.control_vol(t))
        f_gain = -0.5 / kk
        return (kappa * b / d) ** 2 * f_gain * f_gain

    def run(substeps):
        n = grid.num_steps
        h = grid.step / substeps
        out = np.empty(n + 1)
        out[n] = 0.0
        y = 0.0
        for k in range(n, 0, -1):
            t_right = grid.nodes[k]
            for j in range(substeps):
                t1 = t_right - j * h
                k1 = rate(t1, y)
                k2 = rate(t1 - 0.5 * h, y + 0.5 * h * k1)
                k3 = rate(t1 - 0.5 * h, y + 0.5 * h * k2)
                k4 = rate(t1 - h, y + h * k3)
                y = y + h * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
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
        raise _ode_stall(fine, est, tol, lambda y: curvature_sum(spec, y))
    return _assemble(coeffs, spec, fine, "ode", ode_err=est, ode_substeps=substeps)
