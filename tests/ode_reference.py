"""A fixed-step RK4 march on the grid, kept as an oracle for ``solve_ode``.

Each grid cell takes 1, 2, 4, ... uniform substeps until the Richardson
estimate of two successive runs reaches tol x max(1, max y), at most
``MAX_SUBSTEPS`` per cell.  Each stage evaluates the curvature through
``curvature_sum`` and both coefficients at its own time, so the oracle shares
neither the production march's step rule, its dense output, its batched
stage times nor its ``curvature_scalar``.  It returns the node values of y.
"""

import numpy as np

from equicontrol.errors import ConcavityError, OdeStepError
from equicontrol.objectives import curvature_sum

# most uniform substeps per grid cell before the oracle gives up
MAX_SUBSTEPS = 16


def reference_solve_ode(coeffs, spec, *, tol=1e-8):
    """y at the grid nodes; OdeStepError when MAX_SUBSTEPS misses tol."""
    grid = coeffs.grid
    kappa = spec.kappa

    def rate(t, y):
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

    def missed(fine, coarse):
        est = float(np.max(np.abs(fine - coarse))) / 15.0
        scale = max(1.0, float(np.max(fine)))
        return not est <= tol * scale

    substeps, coarse = 1, run(1)
    fine = run(2)
    while missed(fine, coarse):
        if substeps * 2 >= MAX_SUBSTEPS:
            raise OdeStepError(f"reference march missed tol {tol:.1e} at {MAX_SUBSTEPS} substeps")
        substeps, coarse = substeps * 2, fine
        fine = run(substeps * 2)
    return fine
