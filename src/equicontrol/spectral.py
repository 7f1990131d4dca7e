"""The penalty families given by a frequency law: shapes 1 - E[cos(H x)].

``AmbiguousCos`` draws the frequency H from a finite law,
``DiscreteDistribution``; ``FourierEvenPenalty`` gives it through a sampled
density (a signed weight) and an atom at zero.  Both follow the ``Variant``
protocol of ``objectives``, whose registry loads this module on the first
lookup of either family, so a command that runs neither never compiles it.
The Chebyshev tables fourier_even reads K and E[S] from are built here too,
beside the rows' rounding that decides whether a table is built at all.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from .coeffs import finite_floats
from .errors import ObjectiveError, QuadratureError
from .objectives import FirstIntegral, _Penalty


class DiscreteDistribution:
    """Finite discrete law for an amplitude factor, values with probabilities."""

    def __init__(self, values, probs):
        values = finite_floats(values, "amplitude values", ObjectiveError)
        probs = finite_floats(probs, "amplitude probabilities", ObjectiveError)
        if len(values) != len(probs) or not values:
            raise ObjectiveError("amplitude law needs matching nonempty values and probs")
        if any(p < 0.0 for p in probs):
            raise ObjectiveError("amplitude probabilities must be nonnegative")
        if abs(sum(probs) - 1.0) > 1e-12:
            raise ObjectiveError(f"amplitude probabilities sum to {sum(probs)}, not 1")
        self.values, self.probs = values, probs

    def moment(self, k: int) -> float:
        return float(np.sum(np.asarray(self.probs) * np.asarray(self.values) ** k))


class AmbiguousCos(_Penalty):
    """Cosine penalty with a random amplitude: shape 1 - E[cos(H x)].  K, its
    scalar form and E[S] are sums of ``_kernel`` over the amplitude support."""

    kind = "ambiguous_cos"
    config_fields = (("support", list, None), ("probs", list, None))

    def __init__(self, amplitude: DiscreteDistribution):
        for v in amplitude.values:
            if not v * v < math.inf:
                raise ObjectiveError(f"amplitude support value {v} must have a finite square")
        if amplitude.moment(2) <= 0.0:
            raise ObjectiveError("amplitude law must have positive second moment")
        self.amplitude = amplitude

    @classmethod
    def from_config(cls, support, probs):
        return cls(DiscreteDistribution(tuple(support), tuple(probs)))

    def slot_weight(self, j: int) -> float:
        return (-1.0) ** (j // 2) * self.amplitude.moment(j) if j % 2 == 0 else 0.0

    @cached_property
    def _kernel(self) -> tuple:
        """(-v^2 / 2, p, p v^2) over the amplitude support (values v, probabilities p)."""
        v = np.asarray(self.amplitude.values)
        p = np.asarray(self.amplitude.probs)
        return -0.5 * v**2, p, p * v**2

    def _mean_decay(self, y, weights):
        """sum of weights e^(y (-v^2 / 2)) over the support, elementwise over y."""
        return np.sum(weights * np.exp(np.multiply.outer(y, self._kernel[0])), axis=-1)

    def curvature(self, y):
        return -0.5 * self._mean_decay(y, self._kernel[2])

    def curvature_scalar(self, y: float) -> float:
        rate, _, weights = self._kernel
        return -0.5 * float((weights * np.exp(y * rate)).sum())

    def gaussian_expectation(self, var):
        return 1.0 - self._mean_decay(var, self._kernel[1])

    @cached_property
    def first_integral(self) -> FirstIntegral:
        """P(y) = int_0^y (-2 K)^2 dz: pair (i, j) of the amplitude support adds
        p_i p_j (v_i v_j)^2 (e^(r y) - 1) / r with r = -(v_i^2 + v_j^2) / 2.
        The pairs sum with ``np.sum`` on the last axis, not a BLAS product:
        each entry's bits then do not depend on the rest of the array."""
        rate, p, _ = self._kernel
        v = np.asarray(self.amplitude.values)
        pair_rate = np.add.outer(rate, rate)
        live = pair_rate < 0.0
        # pairs with rate 0 have zero weight, so dropping them is exact
        pair_rate = pair_rate[live]
        pair_weight = (np.multiply.outer(p, p) * np.multiply.outer(v, v) ** 2)[live]

        def budget(y):
            return np.sum(np.expm1(np.multiply.outer(y, pair_rate)) / pair_rate * pair_weight, axis=-1)

        return FirstIntegral(budget, supremum=float(np.sum(pair_weight / -pair_rate)))


class FourierEvenPenalty(_Penalty):
    """Even penalty given through its frequency-domain weight.

    ``density`` samples the weight (transform divided by 2 pi) on the
    ``freqs`` grid; ``atom`` is an optional point mass at frequency zero.
    Signed densities are accepted; solvability is then established at run
    time through the curvature check.

    K, E[S] and the frequency moments are each one trapezoid over the
    frequency window per value, a direct row through ``_row``: the
    vectorized methods run one per entry, ``curvature_scalar`` (the ``ode``
    march's) one.  A solution reads K and E[S] from ``on_range(y_max,
    rows)``, Chebyshev tables on [0, y_max] of a few dozen rows each.
    """

    kind = "fourier_even"
    config_fields = (("frequencies", list, None), ("density", list, None), ("atom", float, 0.0))

    def __init__(self, freqs, density, atom: float = 0.0):
        freqs = finite_floats(freqs, "frequencies", ObjectiveError)
        density = finite_floats(density, "frequency density", ObjectiveError)
        finite_floats((atom,), "atom", ObjectiveError)
        if len(freqs) != len(density) or len(freqs) < 3:
            raise ObjectiveError("need matching frequency and density samples (at least 3)")
        if any(b <= a for a, b in zip(freqs, freqs[1:])):
            raise ObjectiveError("frequency samples must be strictly increasing")
        for f in (freqs[0], freqs[-1]):  # the largest in magnitude
            if not f * f < math.inf:
                raise ObjectiveError(f"frequency {f} must have a finite square")
        self.freqs, self.density, self.atom = freqs, density, atom

    @cached_property
    def _f(self):
        return np.asarray(self.freqs)

    @cached_property
    def _g(self):
        return np.asarray(self.density)

    @cached_property
    def _f_sq(self):
        return self._f * self._f

    @cached_property
    def _g_f_sq(self):
        return (self._g * self._f) * self._f

    @cached_property
    def _widths(self):
        return np.diff(self._f)

    @cached_property
    def _neg_half_f_sq(self):
        return -0.5 * self._f_sq

    @cached_property
    def _peak(self):
        """Index of the largest |g f^2|, the curvature integrand's peak at y = 0."""
        return int(np.argmax(np.abs(self._g_f_sq)))

    def _row(self, y, coef, what: str, peak=None):
        """np.trapezoid over the frequencies of the row exp(y (-f^2 / 2)) coef,
        in its operation order, once the row is negligible at both window edges
        (edge magnitude at most 1e-6 of the row's largest).

        Any |w_j| is at most the row's largest, so a row whose edge passes the
        bound at index ``peak`` passes it at the row's largest too: only the
        others need the full max for the same verdict."""
        # -f^2 / 2 is f^2 halved exactly, so after exp each weight has the
        # bits of (y f^2) * -0.5 (unless some 0 < |f| < 2.2e-154 meets y > 2e291)
        weights = np.multiply(y, self._neg_half_f_sq)
        np.exp(weights, out=weights)
        weights *= coef
        edge = max(abs(weights[0]), abs(weights[-1]))
        if peak is None or not edge <= 1e-6 * abs(weights[peak]):
            if edge > 1e-6 * max(weights.max(), -weights.min()):
                raise QuadratureError(f"{what} has not decayed at the window edge")
        pairs = weights[1:] + weights[:-1]
        pairs *= self._widths
        pairs *= 0.5  # the bits of pairs / 2.0, at half the cost
        return np.add.reduce(pairs)

    def frequency_moment(self, k: int) -> float:
        """Integral of density(h) h^k over the truncation window."""
        return float(self._row(0.0, self._g * self._f**k, f"frequency moment of order {k}"))

    def slot_weight(self, j: int) -> float:
        return (-1.0) ** (j // 2 + 1) * self.frequency_moment(j) if j % 2 == 0 else 0.0

    def _rows(self, values, *row):
        """``_row(v, *row)`` at every entry v of the array ``values``, in its shape."""
        return np.reshape([self._row(v, *row) for v in values.reshape(-1).tolist()], values.shape)

    def _curvature_rows(self, y):
        # the sum over even orders collapses back to a frequency integral
        return 0.5 * self._rows(y, self._g_f_sq, "curvature integrand", self._peak)

    def curvature_scalar(self, y: float) -> float:
        """``curvature`` at one float, one row (the RK4 march calls it per stage)."""
        return 0.5 * float(self._row(y, self._g_f_sq, "curvature integrand", self._peak))

    def _expectation_rows(self, var):
        out = self._rows(var, self._g, "frequency-domain integrand")
        out += self.atom
        return out

    # the direct rows; a table reads them by these names, so a replaced
    # ``curvature`` (the defect matrix scales it) reaches a table once
    curvature, gaussian_expectation = _curvature_rows, _expectation_rows

    def on_range(self, y_max: float, rows: int):
        return _FourierEvenTable(self, y_max, rows)


def _barycentric(x, points, values):
    """The interpolant through Chebyshev-Lobatto (points, values) at the 1-d x.
    Each entry sums its own row, never through a matrix product, so it has
    the same bits alone as in any array; an x on a point takes its value.
    Blocks of 4,096 entries bound the (entries, points) temporaries."""
    weights = np.resize([1.0, -1.0], points.size)
    weights[[0, -1]] *= 0.5
    out = np.empty_like(x)
    with np.errstate(divide="ignore", invalid="ignore"):
        for i in range(0, x.size, 4096):
            c = weights / np.subtract.outer(x[i : i + 4096], points)
            out[i : i + 4096] = np.sum(c * values, axis=-1) / np.sum(c, axis=-1)
    k = np.minimum(np.searchsorted(points, x), points.size - 1)
    return np.where(points[k] == x, values[k], out)


def _chebyshev_table(rows, y_max: float, most: int, rounding: float):
    """(points, values) of the direct ``rows`` at n + 1 nested Chebyshev-Lobatto
    points on [0, y_max], or None: from n = 16 the degree doubles while
    2n + 1 <= ``most``, until the last interpolant meets the new rows within
    8 eps x the largest |value|.  ``rounding`` is the rows' own: no table
    comes closer to them, so above 32 eps x the largest |value| (the bound
    the tables are held to) the build gives up after the first check, and a
    miss within it, which no finer level removes, passes within 16 eps x the
    largest |value| or gives up.  No row is spent unless the first check fits."""
    eps = np.finfo(float).eps
    n, values = 16, None
    while 2 * n + 1 <= most:
        if values is None:
            points = y_max * np.sin(0.5 * np.pi * np.arange(n + 1) / n) ** 2
            values = rows(points)
        fine = y_max * np.sin(0.5 * np.pi * np.arange(2 * n + 1) / (2 * n)) ** 2
        new = rows(fine[1::2])
        guess = _barycentric(fine[1::2], points, values)
        # n's values go to the even places: its points are every other one of 2n's, bit for bit
        points, values, n = fine, np.insert(new, np.arange(n + 1), values), 2 * n
        miss, largest = np.max(np.abs(guess - new)), eps * np.max(np.abs(values))
        if rounding > 32.0 * largest:
            return None
        if miss <= 8.0 * largest:
            return points, values
        if miss <= rounding:
            return (points, values) if miss <= 16.0 * largest else None
    return None


class _FourierEvenTable(FourierEvenPenalty):
    """fourier_even reading K and E[S] on (0, y_max) from Chebyshev tables
    (Berrut & Trefethen 2004), each built from its own direct rows on its
    first query inside.  A table holds at most half the ``rows`` direct rows
    it replaces, and one that fails costs at most that before the direct
    rows answer, or 33 rows where the rows' own rounding is above the
    tables' bound.  At 0, at y_max and beyond, an entry is its direct row."""

    def __init__(self, direct: FourierEvenPenalty, y_max: float, rows: int):
        # the direct penalty's fields and cached arrays, not a second validation
        self.__dict__.update(direct.__dict__, _y_max=y_max, _most=rows // 2, _tables={})

    @cached_property
    def _rounding(self) -> dict:
        """eps x what the terms of a K row and of an E[S] row add up to in
        magnitude at y = 0, their most at any y: about what a row rounds at."""
        eps = np.finfo(float).eps
        return {
            "_curvature_rows": eps * 0.5 * np.trapezoid(np.abs(self._g_f_sq), self._f),
            "_expectation_rows": eps * (abs(self.atom) + np.trapezoid(np.abs(self._g), self._f)),
        }

    def curvature(self, y):
        return self._read(y, self._curvature_rows)

    def gaussian_expectation(self, var):
        return self._read(var, self._expectation_rows)

    def _read(self, y, rows):
        inside = (y > 0.0) & (y < self._y_max)
        if not inside.any():
            return rows(y)
        if rows.__name__ not in self._tables:
            rounding = self._rounding[rows.__name__]
            self._tables[rows.__name__] = _chebyshev_table(rows, self._y_max, self._most, rounding)
        table = self._tables[rows.__name__]
        if table is None:
            return rows(y)
        out = np.empty_like(y)
        out[inside] = _barycentric(y[inside], *table)
        if not inside.all():
            out[~inside] = rows(y[~inside])
        return out
