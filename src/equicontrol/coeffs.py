"""Time grid, model coefficients and deterministic quadrature.

The controlled state follows the linear dynamics

    dX_s = (a(s) X_s + b(s) u_s + c(s)) ds + (d(s) u_s + f(s)) dW_s

on a finite horizon [0, T].  All five coefficient paths are deterministic
functions of time, given either in closed form (constant, polynomial,
exponential) or as samples with piecewise-linear interpolation.  The control
loading on the diffusion must stay away from zero: construction rejects a
path that is not finite with magnitude at least ``D_MIN`` on a set of probe
times, or that changes sign between two of them; a polynomial is probed at
its turning points too, where a zero that changes no sign lies.

Every path exposes an exact antiderivative, so growth factors of the form
exp(int_t^T a) are additive to rounding.  Quadrature of node-sampled paths
uses composite Simpson weights over whole grid cells, a one-sided quadratic
rule when an odd cell is left over, and a linear correction on partial cells
at the interval ends; integrals between grid nodes are exact for quadratic
integrands.

``suffix_integrals`` gives int_{t_k}^T v at every node k in one O(n) pass.
It sums the same per-pair Simpson terms in the same order as ``integrate``,
so the two agree bitwise at the nodes; ``SuffixQuadrature`` builds on it.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import CoefficientError, DomainError, GridMismatchError

# floor on the magnitude of the control loading d of the diffusion
D_MIN = 1e-10


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t_k = k * horizon / num_steps, k = 0..num_steps."""

    horizon: float
    num_steps: int = 512

    def __post_init__(self):
        if not (self.horizon > 0.0 and math.isfinite(self.horizon)):
            raise DomainError(f"horizon must be positive and finite, got {self.horizon}")
        if self.num_steps < 2:
            raise DomainError(f"need at least 2 steps, got {self.num_steps}")
        if self.horizon / self.num_steps < sys.float_info.min:
            raise DomainError(f"step {self.step} is below the smallest normal float")

    @cached_property
    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon, self.num_steps + 1)

    @property
    def step(self) -> float:
        return self.horizon / self.num_steps

    @property
    def snap(self) -> float:
        """Width within which two times count as equal: 1e-12 of the horizon."""
        return 1e-12 * self.horizon

    def require_time(self, t):
        """Check t (scalar or array) lies in [0, horizon] up to rounding; clamp it there."""
        snap = self.snap
        if isinstance(t, np.ndarray):
            if not np.all((-snap <= t) & (t <= self.horizon + snap)):
                raise DomainError(f"times outside [0, {self.horizon}]")
            return np.clip(t, 0.0, self.horizon)
        if not (-snap <= t <= self.horizon + snap):
            raise DomainError(f"time {t} outside [0, {self.horizon}]")
        return min(max(t, 0.0), self.horizon)


class HornerPolynomial:
    """A polynomial with ascending float coefficients ``coef``, elementwise on arrays.

    Horner's rule runs in the operations of ``numpy.polynomial``'s ``polyval``
    (``c[-1] + x * 0``, then ``c + acc * x``), so values equal those of a
    ``numpy.polynomial.Polynomial`` with the same coefficients bit for bit,
    without importing that package.
    """

    __slots__ = ("coef",)

    def __init__(self, coef):
        self.coef = np.asarray(coef, dtype=float)

    def __call__(self, x):
        c = self.coef
        acc = c[-1] + x * 0
        for a in c[-2::-1]:
            acc = a + acc * x
        return acc

    def antiderivative(self) -> "HornerPolynomial":
        """The antiderivative P with P(0) = 0, in the operations of
        ``numpy.polynomial``'s ``polyint``: coefficient j divided by j + 1, and
        the zero polynomial kept as it is (its constant plus 0)."""
        c = self.coef
        if c.size == 1 and c[0] == 0.0:
            return HornerPolynomial(c + 0)
        p = np.empty(c.size + 1)
        p[0] = c[0] * 0
        p[1:] = c / np.arange(1, p.size)
        p[0] += 0 - HornerPolynomial(p)(0)  # polyint's lower bound: P(0) = 0
        return HornerPolynomial(p)


def finite_floats(values, what: str, error=CoefficientError) -> tuple:
    """``values`` as a tuple of floats; ``error`` at the first that is not finite."""
    values = tuple(float(v) for v in values)
    for v in values:
        if not math.isfinite(v):
            raise error(f"{what} must be finite, got {v}")
    return values


@dataclass(frozen=True)
class ConstantCoefficient:
    value: float
    kind = "constant"
    config_fields = (("value", float, None),)

    def __post_init__(self):
        finite_floats((self.value,), "constant coefficient")

    def __call__(self, t):
        return np.full_like(np.asarray(t, dtype=float), self.value)

    def antiderivative(self, t):
        return self.value * np.asarray(t, dtype=float)


@dataclass(frozen=True)
class PolynomialCoefficient:
    """Polynomial in t with ascending coefficients."""

    coeffs: tuple
    kind = "polynomial"
    config_fields = (("coefficients", list, None),)

    def __post_init__(self):
        object.__setattr__(self, "coeffs", finite_floats(self.coeffs, "polynomial coefficients"))
        if not self.coeffs:
            raise CoefficientError("polynomial coefficient needs at least one term")

    @cached_property
    def _poly(self):
        return HornerPolynomial(self.coeffs)

    @cached_property
    def _anti(self):
        return self._poly.antiderivative()

    def __call__(self, t):
        return self._poly(np.asarray(t, dtype=float))

    def antiderivative(self, t):
        return self._anti(np.asarray(t, dtype=float))


@dataclass(frozen=True)
class ExponentialCoefficient:
    """scale * exp(rate * t) + offset."""

    scale: float
    rate: float
    offset: float = 0.0
    kind = "exponential"
    config_fields = (("scale", float, None), ("rate", float, None), ("offset", float, 0.0))

    def __post_init__(self):
        finite_floats((self.scale, self.rate, self.offset), "exponential coefficient")

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        return self.scale * np.exp(self.rate * t) + self.offset

    def antiderivative(self, t):
        """scale t phi(rate t) + offset t with phi(x) = expm1(x) / x, phi(0) = 1:
        zero at t = 0, so no rate, however small, cancels (scale / rate) e^(rate t)."""
        t = np.asarray(t, dtype=float)
        x = self.rate * t
        phi = np.divide(np.expm1(x), x, out=np.ones_like(x), where=x != 0.0)
        return self.scale * t * phi + self.offset * t


@dataclass(frozen=True)
class SampledCoefficient:
    """Piecewise-linear path through (times, values) samples."""

    times: tuple
    values: tuple
    kind = "samples"
    config_fields = (("times", list, None), ("values", list, None))

    def __post_init__(self):
        times = finite_floats(self.times, "sample times")
        values = finite_floats(self.values, "sample values")
        if len(times) != len(values):
            raise GridMismatchError(f"{len(times)} sample times vs {len(values)} values")
        if len(times) < 2:
            raise CoefficientError("sampled coefficient needs at least two samples")
        if any(t1 <= t0 for t0, t1 in zip(times, times[1:])):
            raise CoefficientError("sample times must be strictly increasing")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)

    @cached_property
    def _t(self):
        return np.asarray(self.times)

    @cached_property
    def _v(self):
        return np.asarray(self.values)

    @cached_property
    def _cum(self):
        # exact antiderivative of the piecewise-linear interpolant at sample times
        dt = np.diff(self._t)
        cells = 0.5 * dt * (self._v[:-1] + self._v[1:])
        return np.concatenate([[0.0], np.cumsum(cells)])

    def __call__(self, t):
        return np.interp(np.asarray(t, dtype=float), self._t, self._v)

    def antiderivative(self, t):
        x = np.clip(np.asarray(t, dtype=float), self.times[0], self.times[-1])
        k = np.clip(np.searchsorted(self._t, x, side="right") - 1, 0, len(self.times) - 2)
        return self._cum[k] + 0.5 * (x - self._t[k]) * (self._v[k] + self(x))


# every coefficient descriptor under its config ``type``; each class lists its
# config keys in ``config_fields`` as (key, float or list, default or None if
# required), passed in that order to the constructor
COEFFICIENTS = {
    cls.kind: cls
    for cls in (
        ConstantCoefficient,
        PolynomialCoefficient,
        ExponentialCoefficient,
        SampledCoefficient,
    )
}


def coefficient_nodes(path, grid: TimeGrid) -> np.ndarray:
    """Sample a coefficient path on the grid nodes."""
    return np.asarray(path(grid.nodes), dtype=float)


def _checked_nodes(values, grid: TimeGrid) -> np.ndarray:
    v = np.asarray(values, dtype=float)
    if v.shape != grid.nodes.shape:
        raise GridMismatchError(f"expected {grid.nodes.size} node values, got {v.size}")
    return v


def _simpson_pairs(v: np.ndarray, h: float) -> np.ndarray:
    """Simpson terms h/3 (v_i + 4 v_{i+1} + v_{i+2}) for i = 0, 2, 4, ... of ``v``."""
    return (h / 3.0) * (v[:-2:2] + 4.0 * v[1:-1:2] + v[2::2])


def _one_sided_tail(v: np.ndarray, h: float, i1: int) -> float:
    """Integral over the single cell [t_{i1-1}, t_i1], quadratic through three nodes."""
    return h * (-v[i1 - 2] + 8.0 * v[i1 - 1] + 5.0 * v[i1]) / 12.0


def _composite_even(v: np.ndarray, h: float, i0: int, i1: int) -> float:
    # pair terms accumulated from the right end, the order suffix_integrals uses
    return float(np.cumsum(_simpson_pairs(v[i0 : i1 + 1], h)[::-1])[-1])


def _simpson_nodes(v: np.ndarray, h: float, i0: int, i1: int) -> float:
    """Integral over [t_i0, t_i1]; exact for quadratics sampled on the nodes."""
    m = i1 - i0
    if m <= 0:
        return 0.0
    if m == 1:
        # single cell: quadratic through the three nearest nodes
        if i1 + 1 < v.size:
            return h * (5.0 * v[i0] + 8.0 * v[i0 + 1] - v[i0 + 2]) / 12.0
        return _one_sided_tail(v, h, i1)
    if m % 2 == 1:
        return _composite_even(v, h, i0, i1 - 1) + _one_sided_tail(v, h, i1)
    return _composite_even(v, h, i0, i1)


def suffix_integrals(values, grid: TimeGrid) -> np.ndarray:
    """int_{t_k}^T of a node-sampled path for every node k, in one O(n) pass.

    Suffixes with an even cell count are Simpson pairs accumulated right to
    left from T; odd ones are pairs accumulated from t_{n-1} plus the
    one-sided rule on the last cell.  Entry k equals
    ``integrate(values, grid, t_k, horizon)`` bitwise.
    """
    v = _checked_nodes(values, grid)
    h = grid.step
    n = grid.num_steps
    out = np.zeros(n + 1)
    out[n - 2 :: -2] = np.cumsum(_simpson_pairs(v[n % 2 :], h)[::-1])
    tail = _one_sided_tail(v, h, n)
    out[n - 1] = tail
    odd_starts = np.arange(n - 3, -1, -2)
    out[odd_starts] = np.cumsum(_simpson_pairs(v[(n - 1) % 2 : n], h)[::-1]) + tail
    return out


def integrate(values, grid: TimeGrid, a: float, b: float) -> float:
    """Integrate a node-sampled path over [a, b] inside [0, horizon]."""
    v = _checked_nodes(values, grid)
    snap = grid.snap
    if not (-snap <= a <= b + snap and b <= grid.horizon + snap):
        raise DomainError(f"bad integration range [{a}, {b}] on [0, {grid.horizon}]")
    a = min(max(a, 0.0), grid.horizon)
    b = min(max(b, a), grid.horizon)
    h = grid.step
    n = grid.num_steps
    i0 = min(max(int(math.ceil((a - snap) / h)), 0), n)
    i1 = min(max(int(math.floor((b + snap) / h)), 0), n)
    if i0 > i1:
        # both endpoints inside one cell
        fa = float(np.interp(a, grid.nodes, v))
        fb = float(np.interp(b, grid.nodes, v))
        return 0.5 * (b - a) * (fa + fb)
    total = _simpson_nodes(v, h, i0, i1)
    t0 = i0 * h
    if a < t0 - snap:
        fa = float(np.interp(a, grid.nodes, v))
        total += 0.5 * (t0 - a) * (fa + v[i0])
    t1 = i1 * h
    if b > t1 + snap:
        fb = float(np.interp(b, grid.nodes, v))
        total += 0.5 * (b - t1) * (v[i1] + fb)
    return float(total)


class SuffixQuadrature:
    """Vectorized evaluation of t -> integrate(values, grid, t, horizon).

    ``at_nodes``, the integral from every node, comes from
    ``suffix_integrals`` in O(n) and equals ``integrate`` there bitwise;
    between nodes a call adds the same partial-cell trapezoid correction,
    whose cell ends at the horizon at the latest.  A call at the nodes
    returns ``at_nodes`` bitwise.  Evaluates whole arrays of times at once.
    """

    def __init__(self, values, grid: TimeGrid):
        self.grid = grid
        self.values = _checked_nodes(values, grid)
        self.at_nodes = suffix_integrals(self.values, grid)

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        scalar = t.ndim == 0
        ts = np.atleast_1d(np.clip(t, 0.0, self.grid.horizon))
        h = self.grid.step
        i0 = np.clip(np.ceil((ts - self.grid.snap) / h).astype(int), 0, self.grid.num_steps)
        width = np.maximum(np.minimum(i0 * h, self.grid.horizon) - ts, 0.0)
        left = np.interp(ts, self.grid.nodes, self.values)
        out = self.at_nodes[i0] + 0.5 * width * (left + self.values[i0])
        return float(out[0]) if scalar else out


@dataclass(frozen=True)
class CoefficientSet:
    """The five deterministic coefficient paths of the controlled dynamics.

    ``state_drift``, ``control_drift`` and ``drift_offset`` enter the drift as
    a(s) X + b(s) u + c(s); ``control_vol`` and ``vol_offset`` enter the
    diffusion as d(s) u + f(s).

    Construction rejects a ``control_vol`` that is not finite with |d| >=
    ``D_MIN`` at the probe times (the grid nodes, the midpoints, a sampled
    path's own sample times and a polynomial's turning points), or that
    changes sign between two adjacent probes: the paths are continuous, so a
    sign change means a zero between them.  A zero that changes no sign, such
    as that of (t - 0.3)^2, is a zero of d' too: of the four path types only
    a polynomial can touch zero between probes, and only at a turning point.
    """

    grid: TimeGrid
    state_drift: object
    control_drift: object
    drift_offset: object
    control_vol: object
    vol_offset: object
    # each path's config key with the constant it defaults to (None if required)
    paths = (
        ("state_drift", 0.0),
        ("control_drift", None),
        ("drift_offset", 0.0),
        ("control_vol", None),
        ("vol_offset", 0.0),
    )

    def __post_init__(self):
        snap = self.grid.snap
        for name, _ in self.paths:
            path = getattr(self, name)
            if isinstance(path, SampledCoefficient):
                if path.times[0] > snap or path.times[-1] < self.grid.horizon - snap:
                    raise CoefficientError(
                        f"sampled path on [{path.times[0]}, {path.times[-1]}] does not "
                        f"cover the horizon [0, {self.grid.horizon}]"
                    )
        probes = [self.grid.nodes, self.grid.nodes[:-1] + 0.5 * self.grid.step]
        if isinstance(self.control_vol, SampledCoefficient):
            probes.append(np.clip(self.control_vol.times, 0.0, self.grid.horizon))
        if isinstance(self.control_vol, PolynomialCoefficient):
            # the real parts of the roots of d', from coefficients scaled to at
            # most one so d' cannot overflow; a zero or non-finite d has none
            c = np.asarray(self.control_vol.coeffs)
            scale = float(np.max(np.abs(c)))
            if 0.0 < scale < math.inf:
                slope = c[1:] / scale * np.arange(1, c.size)
                probes.append(np.clip(np.roots(slope[::-1]).real, 0.0, self.grid.horizon))
        t = np.sort(np.concatenate(probes))
        d = np.asarray(self.control_vol(t), dtype=float)
        low = np.flatnonzero(~(np.isfinite(d) & (np.abs(d) >= D_MIN)))
        if low.size:
            k = low[0]
            raise CoefficientError(
                f"control volatility {d[k]:.3e} at t = {t[k]:.6g} is not finite "
                f"or below the floor {D_MIN:.3e} in magnitude"
            )
        flips = np.flatnonzero(np.signbit(d[1:]) != np.signbit(d[:-1]))
        if flips.size:
            k = flips[0]
            raise CoefficientError(
                f"control volatility changes sign between t = {t[k]:.6g} and t = {t[k + 1]:.6g}"
            )

    def at(self, t) -> tuple:
        """The five paths (a, b, c, d, f) at times t, as float arrays."""
        return tuple(np.asarray(getattr(self, name)(t), dtype=float) for name, _ in self.paths)

    @cached_property
    def b_nodes(self) -> np.ndarray:
        return coefficient_nodes(self.control_drift, self.grid)

    @cached_property
    def c_nodes(self) -> np.ndarray:
        return coefficient_nodes(self.drift_offset, self.grid)

    @cached_property
    def d_nodes(self) -> np.ndarray:
        return coefficient_nodes(self.control_vol, self.grid)

    @cached_property
    def f_nodes(self) -> np.ndarray:
        return coefficient_nodes(self.vol_offset, self.grid)

    @cached_property
    def budget_rate_nodes(self) -> np.ndarray:
        """(b/d)^2 on the nodes, the decay rate of the control budget."""
        return (self.b_nodes / self.d_nodes) ** 2

    @cached_property
    def theta_eval(self) -> SuffixQuadrature:
        return SuffixQuadrature(self.budget_rate_nodes, self.grid)

    @cached_property
    def _anti_a_end(self) -> float:
        return float(np.asarray(self.state_drift.antiderivative(self.grid.horizon)))

    def int_a_many(self, t):
        """int_t^T a from the state drift's exact antiderivative, vectorized over t."""
        t = np.asarray(t, dtype=float)
        return self._anti_a_end - np.asarray(self.state_drift.antiderivative(t), dtype=float)

    def int_a_at(self, t: float) -> float:
        return float(self.int_a_many(self.grid.require_time(t)))

    def growth_at(self, t: float) -> float:
        return math.exp(self.int_a_at(t))

    @cached_property
    def int_a_nodes(self) -> np.ndarray:
        """int_t^T a on the nodes."""
        return self.int_a_many(self.grid.nodes)

    @cached_property
    def growth(self) -> np.ndarray:
        """The terminal growth factor exp(int_t^T a) on the nodes."""
        return np.exp(self.int_a_nodes)

    @cached_property
    def drift_offset_nodes(self) -> np.ndarray:
        """exp(int_s^T a) (c(s) - b(s) f(s) / d(s)) on the nodes, the terminal mean's drift."""
        return self.growth * (self.c_nodes - self.b_nodes * self.f_nodes / self.d_nodes)

    @cached_property
    def offset_eval(self) -> SuffixQuadrature:
        return SuffixQuadrature(self.drift_offset_nodes, self.grid)

