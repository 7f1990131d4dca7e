"""Objective families over the mean and central moments of the terminal state.

Every objective has the shape

    J = kappa * E_t[X_T] + psi(M_2, ..., M_n)

where M_j is the j-th conditional central moment of X_T.  Finite families
(``MomentCombo``, ``StandardizedMoments``) weight the first n moments
directly.  Penalty families measure risk through an even shape of the
centred terminal state and correspond to an infinite moment series; on
Gaussian moment vectors they are evaluated in closed form.  ``psi`` is the
one risk function: a moment vector may hold arrays, one law per entry, and
psi then acts elementwise.

The sign convention is risk-averse: even-order slots enter psi with a
negative derivative, odd-order slots (skewness and friends) with a positive
one.  The curvature sum

    K(y) = sum_{j >= 1} j (2j - 1) alpha(2j - 2, y) psi_{z_2j}(alpha(y))

drives both the equilibrium feedback gain and the spike-variation limit; a
solvable objective keeps K strictly negative along the solution.

Each family is one class implementing the ``Variant`` protocol, registered
in ``VARIANTS`` under its config name, and ``ObjectiveSpec`` takes nothing
else.  psi, K and the solvers call the protocol and never branch on the
family; none of them reads the time.  A penalty family's Gaussian law, K,
E[S] and P, is written in its class, beside any law the family is built on
(``DiscreteDistribution`` for ``AmbiguousCos``), and psi reads E[S] through
``gaussian_penalty_expectation``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .coeffs import HornerPolynomial, finite_floats
from .errors import CosDomainError, DomainError, ObjectiveError, QuadratureError, RootBracketError
from .moments import MomentVector, any_true, double_factorial


def _trimmed(c: np.ndarray) -> np.ndarray:
    """c without trailing zeros, but at least c[0] (numpy.polynomial's ``trimseq``)."""
    nonzero = np.flatnonzero(c)
    return c[: nonzero[-1] + 1] if nonzero.size else c[:1]


def _square_and_antiderivative(q) -> HornerPolynomial:
    """int_0^y Q^2 for ascending coefficients q, in the operations of
    ``numpy.polynomial``'s ``polymul`` and ``polyint``: trimmed factors, one
    convolution, then ``HornerPolynomial.antiderivative``."""
    q = _trimmed(np.asarray(q, dtype=float))
    return HornerPolynomial(_trimmed(np.convolve(q, q))).antiderivative()


@dataclass(frozen=True)
class FirstIntegral:
    """The exact first integral P(y) = kappa^2 theta(t) of the backward equation.

    P is the antiderivative of 4 K^2 with P(0) = 0, increasing, and the
    solvers invert it from P alone: no slope is stated or read.  ``p`` acts
    elementwise on arrays, each entry's bits independent of the others
    (``solve_many`` inverts several problems' budgets in one array);
    ``inverse`` is P^-1 where it is explicit.
    A risk budget at or above ``supremum`` has no root and raises ``error``.
    """

    p: object
    inverse: object = None
    supremum: float = math.inf
    error: type = RootBracketError


class Variant:
    """The protocol of an objective family.

    ``kind`` is the config name; ``config_fields`` lists the other config
    keys as (key, float or list, default or None if required), passed in
    order to ``from_config``; ``swept`` applies one of the ``sweepable``
    parameters.  Families whose psi is linear in the slots define
    ``slot_weight(j)``, the coefficient a_j of z_j / j! in psi, from which
    ``psi_slots`` follows.  Every family has a vectorized ``curvature(y)``
    and its value at one Python float, ``curvature_scalar(y)``, in float
    arithmetic that repeats the vectorized operations (the RK4 march calls it
    per stage).  Penalties add ``gaussian_expectation(var)``, and a family
    with a known first integral returns it from ``first_integral``.  The
    moment-series view
    (psi's gradient in the even slots) is a test oracle, not part of the
    protocol.
    """

    kind = None
    config_fields = ()
    sweepable = ()
    first_integral = None

    @classmethod
    def from_config(cls, *values):
        return cls(*values)

    def swept(self, parameter: str, value: float):
        """A copy with one sweep parameter replaced."""
        return replace(self, **{parameter: value})

    def psi_slots(self, z: dict, order: int):
        """psi on the central-moment slots z[2..order]; zero weights drop out.

        Slots may be arrays of equal shape; psi is then evaluated elementwise.
        """
        weights = ((j, self.slot_weight(j)) for j in range(2, order + 1))
        return sum(a / math.factorial(j) * z[j] for j, a in weights if a != 0.0)

    def on_range(self, y_max: float, rows: int):
        """What a solution on ``rows`` nodes with variances up to y_max reads K and E[S] from."""
        return self


def _array_power(y: float, power: int) -> float:
    """y ** power as numpy computes it on a float array: powers above 2 go
    through the power ufunc, whose SIMD pow can round apart from ``math.pow``."""
    if power == 0:
        return 1.0
    if power == 1:
        return y
    if power == 2:
        return y * y
    return float(np.power(y, power))


class _FiniteMoments(Variant):
    """Families weighting the central moments 2..order through ``weights``."""

    config_fields = (("weights", list, None),)
    sweepable = ("kappa_2", "kappa_4")

    @property
    def order(self) -> int:
        return len(self.weights) + 1

    def weight(self, j: int) -> float:
        if 2 <= j <= self.order:
            return self.weights[j - 2]
        return 0.0

    def swept(self, parameter: str, value: float):
        order = int(parameter.split("_")[1])
        weights = list(self.weights) + [0.0] * max(order - 1 - len(self.weights), 0)
        weights[order - 2] = value
        return type(self)(tuple(weights))


@dataclass(frozen=True)
class MomentCombo(_FiniteMoments):
    """Linear combination of central moments 2..n with weights kappa_j.

    ``weights[j - 2]`` is kappa_j.  Even-order weights must be nonnegative
    with at least one strictly positive; odd-order weights may take any sign
    (they do not influence the equilibrium, only the objective value).
    """

    weights: tuple
    kind = "moment_combo"

    def __post_init__(self):
        weights = list(finite_floats(self.weights, "moment weights", ObjectiveError))
        while weights and weights[-1] == 0.0:
            weights.pop()
        if not weights:
            raise ObjectiveError("moment combination needs at least one nonzero weight")
        object.__setattr__(self, "weights", tuple(weights))
        evens = [w for j, w in self.even_weights()]
        if any(w < 0.0 for w in evens):
            raise ObjectiveError("even-order moment weights must be nonnegative")
        if not any(w > 0.0 for w in evens):
            raise ObjectiveError("need at least one positive even-order weight")

    def even_weights(self):
        return [(2 * j, self.weight(2 * j)) for j in range(1, self.order // 2 + 1)]

    def slot_weight(self, j: int) -> float:
        return (-1.0) ** (j + 1) * self.weight(j)

    @cached_property
    def _curvature_terms(self) -> tuple:
        """(power, weight, (2j - 2)!!) of each nonzero even weight kappa_2j."""
        return tuple(
            (j - 1, w, float(double_factorial(2 * j - 2)))
            for j, (_, w) in enumerate(self.even_weights(), start=1)
            if w != 0.0
        )

    def curvature(self, y):
        out = np.zeros_like(y)
        for power, w, scale in self._curvature_terms:
            out += w * y**power / scale
        return -0.5 * out

    def curvature_scalar(self, y: float) -> float:
        out = 0.0
        for power, w, scale in self._curvature_terms:
            out += w * _array_power(y, power) / scale
        return -0.5 * out

    @cached_property
    def first_integral(self) -> FirstIntegral:
        """P = int Q^2 with the polynomial Q = -2 K; explicit P^-1 up to order four."""
        p = _square_and_antiderivative(
            [self.weight(2 * j + 2) / float(double_factorial(2 * j)) for j in range(self.order // 2)]
        )
        w2, w4 = self.weight(2), self.weight(4)
        inverse = None
        if all(w == 0.0 for j, w in self.even_weights() if j >= 6):
            if w4 == 0.0:  # plain variance: P = w2^2 y

                def inverse(x):
                    return x / (w2 * w2)

            else:  # variance and kurtosis: P = 2 (Q^3 - w2^3) / (3 w4)

                def inverse(x):
                    # y = 2 (Q - w2) / w4 with Q - w2 = (Q^3 - w2^3) / (Q^2 + Q w2 + w2^2):
                    # no cancellation at small x, and gap = 0 only at x = w2 = 0
                    q = np.cbrt(w2**3 + 1.5 * w4 * x)
                    gap = q * q + q * w2 + w2 * w2
                    return np.divide(3.0 * x, gap, out=np.zeros_like(gap), where=gap > 0.0)

        return FirstIntegral(p, inverse)


@dataclass(frozen=True)
class StandardizedMoments(_FiniteMoments):
    """Variance plus standardized higher moments (skewness, kurtosis, ...).

    psi = -kappa_2 z_2 / 2 + sum_{j>=3} (-1)^(j+1) (kappa_j / j!) z_j / |z_2|^(j/2).
    Requires kappa_2 > 0.
    """

    weights: tuple
    kind = "standardized"

    def __post_init__(self):
        weights = finite_floats(self.weights, "standardized moment weights", ObjectiveError)
        if not weights or weights[0] <= 0.0:
            raise ObjectiveError("standardized moments need kappa_2 > 0")
        object.__setattr__(self, "weights", weights)

    def psi_slots(self, z: dict, order: int):
        z2 = z[2]
        total = -0.5 * self.weight(2) * z2
        for j in range(3, self.order + 1):
            zj = z[j]
            # a slot that is zero (or underflowed to zero) drops out, even at z2 = 0
            live = zj != 0.0
            if not any_true(live) or self.weight(j) == 0.0:
                continue
            if any_true(live & (z2 == 0.0)):
                raise DomainError("standardized moments undefined at zero variance")
            total = total + np.divide(
                (-1.0) ** (j + 1) * self.weight(j) / math.factorial(j) * zj,
                abs(z2) ** (j / 2.0),
                out=np.zeros(np.shape(live)),
                where=live,
            )
        return total

    def curvature(self, y):
        # every z_j / z_2^(j/2) is scale-free on the Gaussian family, so its
        # slot derivatives cancel in K exactly and only the variance term stays
        return np.full_like(y, -0.5 * self.weight(2))

    def curvature_scalar(self, y: float) -> float:
        return -0.5 * self.weights[0]

    @cached_property
    def first_integral(self) -> FirstIntegral:
        """Plain variance's P = kappa_2^2 y, since K = -kappa_2 / 2 exactly."""
        return MomentCombo((self.weight(2),)).first_integral


class _Penalty(Variant):
    """Families given by an even shape S: psi = -(E[S(X_T - mean)] - S(0))."""


class _ExponentialPenalty(_Penalty):
    """The exp, cosh and cos penalties, one positive scale c.

    On the Gaussian law of variance y the three are one family, written
    through the sign s of the exponent: s = 1 for exp and cosh, and cos
    is the cosh shape with c^2 replaced by -c^2 (cos(cx) = cosh(icx)), so
    s = -1.  Then K = -c e^(s c^2 y / 2) / 2, E[S] = s (e^(s c^2 y / 2) - 1) / c
    and P = s (e^(s c^2 y) - 1), which cos bounds by ``supremum`` 1.
    """

    config_fields = (("c", float, None),)
    sweepable = ("c",)
    sign = 1.0
    supremum = math.inf
    error = RootBracketError

    def __post_init__(self):
        if not 0.0 < self.c < math.inf:
            raise ObjectiveError(f"penalty scale must be positive and finite, got {self.c}")

    @cached_property
    def _rate(self) -> float:
        """The exponent s c^2 / 2 of the curvature per unit variance."""
        return self.sign * 0.5 * self.c * self.c

    def curvature(self, y):
        return -0.5 * self.c * np.exp(self._rate * y)

    def curvature_scalar(self, y: float) -> float:
        try:
            return -0.5 * self.c * math.exp(self._rate * y)
        except OverflowError:  # np.exp gives inf here
            return -math.inf

    def gaussian_expectation(self, var):
        return self.sign * np.expm1(self._rate * var) / self.c

    @cached_property
    def first_integral(self) -> FirstIntegral:
        """P = s (e^(s c^2 y) - 1)."""
        s, c2 = self.sign, self.c * self.c
        return FirstIntegral(
            lambda y: s * np.expm1(s * c2 * y),
            lambda x: s * np.log1p(s * x) / c2,
            self.supremum,
            self.error,
        )


@dataclass(frozen=True)
class ExpPenalty(_ExponentialPenalty):
    """Exponential penalty of the centred state, shape (exp(-c x) - 1) / c."""

    c: float
    kind = "exp"

    def slot_weight(self, j: int) -> float:
        return (-self.c) ** (j - 1)


@dataclass(frozen=True)
class CoshPenalty(_ExponentialPenalty):
    """Symmetric exponential penalty, shape (cosh(c x) - 1) / c: the even part
    of the exp shape, with the same Gaussian curvature, law and P."""

    c: float
    kind = "cosh"

    def slot_weight(self, j: int) -> float:
        return -(self.c ** (j - 1)) if j % 2 == 0 else 0.0


@dataclass(frozen=True)
class CosPenalty(_ExponentialPenalty):
    """Bounded oscillatory penalty, shape (1 - cos(c x)) / c.

    P = 1 - e^(-c^2 y) stays below one, so a squared risk budget of one or
    more has no solution and raises ``CosDomainError``.
    """

    c: float
    kind = "cos"
    sign = -1.0
    supremum = 1.0
    error = CosDomainError

    def slot_weight(self, j: int) -> float:
        return (-1.0) ** (j // 2) * self.c ** (j - 1) if j % 2 == 0 else 0.0


@dataclass(frozen=True)
class DiscreteDistribution:
    """Finite discrete law for an amplitude factor, values with probabilities."""

    values: tuple
    probs: tuple

    def __post_init__(self):
        values = finite_floats(self.values, "amplitude values", ObjectiveError)
        probs = finite_floats(self.probs, "amplitude probabilities", ObjectiveError)
        if len(values) != len(probs) or not values:
            raise ObjectiveError("amplitude law needs matching nonempty values and probs")
        if any(p < 0.0 for p in probs):
            raise ObjectiveError("amplitude probabilities must be nonnegative")
        if abs(sum(probs) - 1.0) > 1e-12:
            raise ObjectiveError(f"amplitude probabilities sum to {sum(probs)}, not 1")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "probs", probs)

    def moment(self, k: int) -> float:
        return float(np.sum(np.asarray(self.probs) * np.asarray(self.values) ** k))


@dataclass(frozen=True)
class AmbiguousCos(_Penalty):
    """Cosine penalty with a random amplitude: shape 1 - E[cos(H x)].  K, its
    scalar form and E[S] are sums of ``_kernel`` over the amplitude support."""

    amplitude: DiscreteDistribution
    kind = "ambiguous_cos"
    config_fields = (("support", list, None), ("probs", list, None))

    def __post_init__(self):
        if self.amplitude.moment(2) <= 0.0:
            raise ObjectiveError("amplitude law must have positive second moment")

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


@dataclass(frozen=True)
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

    freqs: tuple
    density: tuple
    atom: float = 0.0
    kind = "fourier_even"
    config_fields = (("frequencies", list, None), ("density", list, None), ("atom", float, 0.0))

    def __post_init__(self):
        freqs = finite_floats(self.freqs, "frequencies", ObjectiveError)
        density = finite_floats(self.density, "frequency density", ObjectiveError)
        finite_floats((self.atom,), "atom", ObjectiveError)
        if len(freqs) != len(density) or len(freqs) < 3:
            raise ObjectiveError("need matching frequency and density samples (at least 3)")
        if any(b <= a for a, b in zip(freqs, freqs[1:])):
            raise ObjectiveError("frequency samples must be strictly increasing")
        object.__setattr__(self, "freqs", freqs)
        object.__setattr__(self, "density", density)

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


VARIANTS = {
    cls.kind: cls
    for cls in (
        MomentCombo,
        StandardizedMoments,
        ExpPenalty,
        CoshPenalty,
        CosPenalty,
        AmbiguousCos,
        FourierEvenPenalty,
    )
}


@dataclass(frozen=True)
class ObjectiveSpec:
    """Weight on the terminal mean plus a moment-based risk functional."""

    kappa: float
    variant: Variant

    def __post_init__(self):
        if not (self.kappa >= 0.0 and math.isfinite(self.kappa)):
            raise DomainError(f"kappa must be nonnegative and finite, got {self.kappa}")
        if not isinstance(self.variant, Variant):
            raise ObjectiveError(f"not an objective variant: {self.variant!r}")

    @property
    def is_penalty(self) -> bool:
        return isinstance(self.variant, _Penalty)

    @property
    def gaussian_order(self) -> int:
        """The order of the Gaussian moment vector psi needs: the family's
        order, and 2 for the penalties, whose Gaussian psi is closed-form."""
        return 2 if self.is_penalty else self.variant.order


def gaussian_penalty_expectation(penalty, variance):
    """E[S(Z)] for the penalty shape S and Z centred Gaussian with this variance.

    ``penalty`` is any object with a ``gaussian_expectation(var)`` method over
    float arrays, as every penalty family has.  Elementwise over a scalar or
    an array of variances.
    """
    var = np.asarray(variance, dtype=float)
    if any_true(var < 0.0):
        raise DomainError(f"variance must be nonnegative, got {variance}")
    expectation = getattr(penalty, "gaussian_expectation", None)
    if expectation is None:
        raise ObjectiveError(f"not a penalty objective: {penalty!r}")
    out = expectation(var)
    return float(out) if np.ndim(out) == 0 else out


def psi(spec: ObjectiveSpec, mv: MomentVector):
    """psi(M_2, ..., M_n), the risk part of the objective at the given moment vector.

    Gaussian-tagged vectors use exact closed forms for the penalty families;
    otherwise the moment series is truncated at the vector's order.
    Normalized so that a degenerate (zero-variance) law gives zero.  A float
    for a vector of scalars, an array over a vector of arrays.
    """
    variant = spec.variant
    if spec.is_penalty and mv.gaussian_y is not None:
        base = gaussian_penalty_expectation(variant, 0.0)
        return -(gaussian_penalty_expectation(variant, mv.gaussian_y) - base)
    if not spec.is_penalty and mv.order < variant.order:
        raise DomainError(
            f"moment vector of order {mv.order} cannot feed an order-{variant.order} objective"
        )
    central = {j: mv.central_moment(j) for j in range(2, mv.order + 1)}
    out = variant.psi_slots(central, mv.order)
    return float(out) if np.ndim(out) == 0 else out


def curvature_sum(spec: ObjectiveSpec, y):
    """K(y), the even-moment curvature of psi at the Gaussian point.

    Strictly negative K is the solvability condition; it also gives the
    predicted spike-variation limit and the feedback gain -1 / (2 K).
    Accepts scalar or array y and is vectorized for every variant.
    """
    y_arr = np.asarray(y, dtype=float)
    scalar = y_arr.ndim == 0
    if np.any(y_arr < 0.0):
        raise DomainError("variance must be nonnegative")
    out = spec.variant.curvature(y_arr)
    return float(out) if scalar else out
