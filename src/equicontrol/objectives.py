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
family; none of them reads the time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .coeffs import HornerPolynomial
from .errors import CosDomainError, DomainError, ObjectiveError, QuadratureError, RootBracketError
from .moments import (
    DiscreteDistribution,
    MomentVector,
    any_true,
    double_factorial,
    gaussian_penalty_expectation,
)

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
        weights = [float(w) for w in self.weights]
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
        weights = tuple(float(w) for w in self.weights)
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
        if not (self.c > 0.0):
            raise ObjectiveError(f"penalty scale must be positive, got {self.c}")

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
class AmbiguousCos(_Penalty):
    """Cosine penalty with a random amplitude: shape 1 - E[cos(H x)]."""

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

    def curvature(self, y):
        return -0.5 * self.amplitude.mean_exp_sq(y, weight_power=2)

    @cached_property
    def _scalar_terms(self) -> tuple:
        """(-v^2 / 2, p v^2) over the amplitude support, as ``mean_exp_sq`` forms them."""
        v = self.amplitude._v
        return -0.5 * v**2, self.amplitude._p * v**2

    def curvature_scalar(self, y: float) -> float:
        rate, weights = self._scalar_terms
        return -0.5 * float((weights * np.exp(y * rate)).sum())

    def gaussian_expectation(self, var):
        return 1.0 - self.amplitude.mean_exp_sq(var)

    @cached_property
    def first_integral(self) -> FirstIntegral:
        """P(y) = int_0^y E[H^2 exp(-H^2 z / 2)]^2 dz, summed exactly over amplitude pairs.

        P sums over the pairs with ``np.sum`` on the last axis, as
        ``mean_exp_sq`` does, not a BLAS product: each entry's bits then do
        not depend on the rest of the array.
        """
        v = self.amplitude._v
        p = self.amplitude._p
        vi2 = v[:, None] ** 2 + v[None, :] ** 2
        wij = p[:, None] * p[None, :] * (v[:, None] * v[None, :]) ** 2
        pos = vi2 > 0.0
        # pairs with vi2 = 0 have zero weight, so dropping them is exact
        flat_vi2 = vi2[pos]
        flat_w = wij[pos]

        def budget(y):
            ramp = 2.0 * -np.expm1(-0.5 * np.multiply.outer(y, flat_vi2)) / flat_vi2
            return np.sum(ramp * flat_w, axis=-1)

        return FirstIntegral(budget, supremum=float(np.sum(2.0 * flat_w / flat_vi2)))


@dataclass(frozen=True)
class FourierEvenPenalty(_Penalty):
    """Even penalty given through its frequency-domain weight.

    ``density`` samples the weight (transform divided by 2 pi) on the
    ``freqs`` grid; ``atom`` is an optional point mass at frequency zero.
    Signed densities are accepted; solvability is then established at run
    time through the curvature check.

    K, E[S] and the frequency moments are each one trapezoid over the
    frequency window per value, all through ``_row``; the vectorized methods
    call it once per entry of their argument.
    """

    freqs: tuple
    density: tuple
    atom: float = 0.0
    kind = "fourier_even"
    config_fields = (("frequencies", list, None), ("density", list, None), ("atom", float, 0.0))

    def __post_init__(self):
        freqs = tuple(float(v) for v in self.freqs)
        density = tuple(float(v) for v in self.density)
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

    def curvature(self, y):
        # the sum over even orders collapses back to a frequency integral
        return 0.5 * self._rows(y, self._g_f_sq, "curvature integrand", self._peak)

    def curvature_scalar(self, y: float) -> float:
        """``curvature`` at one float, one row (the RK4 march calls it per stage)."""
        return 0.5 * float(self._row(y, self._g_f_sq, "curvature integrand", self._peak))

    def gaussian_expectation(self, var):
        out = self._rows(var, self._g, "frequency-domain integrand")
        out += self.atom
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
