"""Independent numerical oracles used to freeze expected values in tests.

Everything here is deliberately written from first principles (Gauss-Hermite
quadrature, plain sums) so that agreement with the package is meaningful.
It also holds reference forms that no command needs and that left the
library for that reason: the moment-series view of psi (its gradient in the
even slots, penalties truncated at ``SERIES_TERMS``), the per-point budget,
terminal-mean and variance integrals over ``coeffs.integrate``, the
central-to-raw moment conversion, and the Gaussian terminal law of any
deterministic control.
"""

import math
from types import SimpleNamespace

import numpy as np

from equicontrol import DomainError, GridMismatchError, MomentVector
from equicontrol.coeffs import CoefficientSet, integrate
from equicontrol.moments import double_factorial
from equicontrol.objectives import ObjectiveSpec, StandardizedMoments, psi

# default number of even slots in the series view of a penalty family
SERIES_TERMS = 20


def gauss_hermite_expectation(f, mean, variance, points=64):
    """E[f(X)] for X ~ N(mean, variance) by Gauss-Hermite quadrature."""
    x, w = np.polynomial.hermite.hermgauss(points)
    pts = mean + math.sqrt(2.0 * variance) * x
    return float(np.dot(w, f(pts)) / math.sqrt(math.pi))


def gaussian_central_moment(j, variance, points=64):
    return gauss_hermite_expectation(lambda x: x**j, 0.0, variance, points)


def simpson_integral(f, a, b, n=2048):
    xs = np.linspace(a, b, 2 * n + 1)
    ys = f(xs)
    h = (b - a) / n
    return float(h / 6.0 * (ys[0] + ys[-1] + 4.0 * ys[1::2].sum() + 2.0 * ys[2:-1:2].sum()))


def gaussian_law_objective(coeffs: CoefficientSet, spec: ObjectiveSpec, t, x, control):
    """(mean, variance, value) of the deterministic control path ``control``
    (a vectorized function of time) started at (t, x).

    The terminal state is Gaussian with mean
    x e^{int_t^T a} + int_t^T e^{int_s^T a} (b u + c) ds and variance
    int_t^T e^{2 int_s^T a} (d u + f)^2 ds, each by ``simpson_integral``; the
    value is kappa * mean + psi on that law.
    """
    horizon = coeffs.grid.horizon

    def integrand(s):
        u = control(s)
        growth = np.exp(coeffs.int_a_many(s))
        drift = coeffs.control_drift(s) * u + coeffs.drift_offset(s)
        vol = coeffs.control_vol(s) * u + coeffs.vol_offset(s)
        return growth * drift, (growth * vol) ** 2

    mean = x * coeffs.growth_at(t) + simpson_integral(lambda s: integrand(s)[0], t, horizon)
    variance = simpson_integral(lambda s: integrand(s)[1], t, horizon)
    order = max(getattr(spec.variant, "order", 2), 2)
    return mean, variance, spec.kappa * mean + psi(spec, MomentVector.gaussian(order, variance))


def psi_grad_even(spec: ObjectiveSpec, y: float, terms: int | None = None):
    """psi_{z_2j} for j = 1..m at the Gaussian moment point with variance y, in ``.values``.

    Finite families give their m = order // 2 even slots, penalties ``terms``
    slots of their series.  Linear families read a_2j / (2j)! off
    ``slot_weight``; for standardized moments slot 2m (m >= 2) is c_2m / y^m
    with c_j = (-1)^(j+1) kappa_j / j!, and slot 2 also carries
    -(j/2) c_j (j-1)!! / y per live even order j.
    """
    if y < 0.0:
        raise DomainError(f"variance must be nonnegative, got {y}")
    variant = spec.variant
    m = (terms if terms is not None else SERIES_TERMS) if spec.is_penalty else variant.order // 2
    if not isinstance(variant, StandardizedMoments):
        values = [variant.slot_weight(2 * j) / math.factorial(2 * j) for j in range(1, m + 1)]
        return SimpleNamespace(values=tuple(values))
    values = [-0.5 * variant.weight(2)] + [0.0] * (m - 1)
    for j in range(2, m + 1):
        c = -variant.weight(2 * j) / math.factorial(2 * j)
        if c == 0.0:
            continue
        scale = y**j
        if scale == 0.0:
            raise DomainError("standardized moments undefined at zero variance")
        values[j - 1] = c / scale
        values[0] -= j * c * double_factorial(2 * j - 1) / y
    return SimpleNamespace(values=tuple(values))


def theta(coeffs: CoefficientSet, t: float) -> float:
    """Remaining control budget int_t^T (b(s)/d(s))^2 ds."""
    t = coeffs.grid.require_time(t)
    return max(integrate(coeffs.budget_rate_nodes, coeffs.grid, t, coeffs.grid.horizon), 0.0)


def big_theta(coeffs: CoefficientSet, t: float, x: float) -> float:
    """Terminal mean when the control only offsets risk: x exp(int_t^T a) plus
    int_t^T exp(int_s^T a) (c(s) - b(s) f(s) / d(s)) ds."""
    t = coeffs.grid.require_time(t)
    drift = integrate(coeffs.drift_offset_nodes, coeffs.grid, t, coeffs.grid.horizon)
    return x * coeffs.growth_at(t) + drift


def y_from_beta(coeffs: CoefficientSet, beta, t: float) -> float:
    """Terminal variance int_t^T (d(s) beta(s))^2 ds of the feedback loading."""
    t = coeffs.grid.require_time(t)
    beta = np.asarray(beta, dtype=float)
    if beta.shape != coeffs.grid.nodes.shape:
        raise GridMismatchError(f"beta has {beta.size} samples, not {coeffs.grid.nodes.size}")
    val = integrate((coeffs.d_nodes * beta) ** 2, coeffs.grid, t, coeffs.grid.horizon)
    return max(val, 0.0)


def central_to_raw(mv: MomentVector) -> tuple:
    """Raw moments of orders 1..order about zero."""
    return tuple(
        sum(math.comb(i, k) * mv.mean ** (i - k) * mv.central_moment(k) for k in range(i + 1))
        for i in range(1, mv.order + 1)
    )
