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
E[S] and P, is written in its class, beside any law the family is built on,
and psi reads E[S] through ``gaussian_penalty_expectation``.  The two
families given by a frequency law, ambiguous_cos and fourier_even, live in
``spectral`` with the Chebyshev tables fourier_even reads, and load on their
first lookup.  A moment combination's P and Q are numpy polynomials
(``polymul``, ``polyint`` and ``polyval``), with ``numpy.polynomial``'s bits.
"""

from __future__ import annotations

import math
from functools import cached_property, partial

import numpy as np

from .coeffs import finite_floats
from .errors import CosDomainError, DomainError, ObjectiveError, RootBracketError
from .moments import MomentVector, any_true, double_factorial


class FirstIntegral:
    """The exact first integral P(y) = kappa^2 theta(t) of the backward equation.

    P is the antiderivative of 4 K^2 with P(0) = 0, increasing, and the
    solvers invert it from P alone: no slope is stated or read.  ``p`` acts
    elementwise on arrays, each entry's bits independent of the others
    (``solve_many`` inverts several problems' budgets in one array);
    ``inverse`` is P^-1 where it is explicit.
    A risk budget at or above ``supremum`` has no root and raises ``error``.
    """

    def __init__(self, p, inverse=None, supremum: float = math.inf, error=RootBracketError):
        self.p, self.inverse, self.supremum, self.error = p, inverse, supremum, error


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


class MomentCombo(_FiniteMoments):
    """Linear combination of central moments 2..n with weights kappa_j.

    ``weights[j - 2]`` is kappa_j.  Even-order weights must be nonnegative
    with at least one strictly positive; odd-order weights may take any sign
    (they do not influence the equilibrium, only the objective value).
    """

    kind = "moment_combo"

    def __init__(self, weights):
        weights = list(finite_floats(weights, "moment weights", ObjectiveError))
        while weights and weights[-1] == 0.0:
            weights.pop()
        if not weights:
            raise ObjectiveError("moment combination needs at least one nonzero weight")
        self.weights = tuple(weights)
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
        """P = int Q^2 with the polynomial Q = -2 K; explicit P^-1 up to order
        four, where w2^3 has a float (else the root solve inverts P)."""
        q = np.array([self.weight(2 * j) / float(double_factorial(2 * j - 2))
                      for j in range(self.order // 2, 0, -1)])
        # polymul drops Q's leading zeros, and np.polyval reads the descending
        # coefficients with numpy.polynomial's bits
        p = partial(np.polyval, np.polyint(np.polymul(q, q)))
        w2, w4 = self.weight(2), self.weight(4)
        try:
            cube = w2**3
        except OverflowError:
            cube = math.inf
        inverse = None
        if all(w == 0.0 for j, w in self.even_weights() if j >= 6):
            if w4 == 0.0:  # plain variance: P = w2^2 y

                def inverse(x):
                    return x / (w2 * w2)

            elif cube < math.inf:  # variance and kurtosis: P = 2 (Q^3 - w2^3) / (3 w4)

                def inverse(x):
                    # y = 2 (Q - w2) / w4 with Q - w2 = (Q^3 - w2^3) / (Q^2 + Q w2 + w2^2):
                    # no cancellation at small x, and gap = 0 only at x = w2 = 0
                    q = np.cbrt(cube + 1.5 * w4 * x)
                    gap = q * q + q * w2 + w2 * w2
                    return np.divide(3.0 * x, gap, out=np.zeros_like(gap), where=gap > 0.0)

        return FirstIntegral(p, inverse)


class StandardizedMoments(_FiniteMoments):
    """Variance plus standardized higher moments (skewness, kurtosis, ...).

    psi = -kappa_2 z_2 / 2 + sum_{j>=3} (-1)^(j+1) (kappa_j / j!) z_j / |z_2|^(j/2).
    Requires kappa_2 > 0.
    """

    kind = "standardized"

    def __init__(self, weights):
        weights = finite_floats(weights, "standardized moment weights", ObjectiveError)
        if not weights or weights[0] <= 0.0:
            raise ObjectiveError("standardized moments need kappa_2 > 0")
        self.weights = weights

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

    def __init__(self, c: float):
        if not (c > 0.0 and c * c < math.inf):
            raise ObjectiveError(f"penalty scale c must be positive with a finite c^2, got {c}")
        self.c = c

    def swept(self, parameter: str, value: float):
        return type(self)(value)

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


class ExpPenalty(_ExponentialPenalty):
    """Exponential penalty of the centred state, shape (exp(-c x) - 1) / c."""

    kind = "exp"

    def slot_weight(self, j: int) -> float:
        return (-self.c) ** (j - 1)


class CoshPenalty(_ExponentialPenalty):
    """Symmetric exponential penalty, shape (cosh(c x) - 1) / c: the even part
    of the exp shape, with the same Gaussian curvature, law and P."""

    kind = "cosh"

    def slot_weight(self, j: int) -> float:
        return -(self.c ** (j - 1)) if j % 2 == 0 else 0.0


class CosPenalty(_ExponentialPenalty):
    """Bounded oscillatory penalty, shape (1 - cos(c x)) / c.

    P = 1 - e^(-c^2 y) stays below one, so a squared risk budget of one or
    more has no solution and raises ``CosDomainError``.
    """

    kind = "cos"
    sign = -1.0
    supremum = 1.0
    error = CosDomainError

    def slot_weight(self, j: int) -> float:
        return (-1.0) ** (j // 2) * self.c ** (j - 1) if j % 2 == 0 else 0.0


# the families under their config names: five here, and the two given by a
# frequency law in ``spectral``, which loads on the first lookup of one of
# them; ``VARIANTS`` maps every name to its class (PEP 562)
_FAMILIES = {
    cls.kind: cls
    for cls in (MomentCombo, StandardizedMoments, ExpPenalty, CoshPenalty, CosPenalty)
}
_SPECTRAL = {"ambiguous_cos": "AmbiguousCos", "fourier_even": "FourierEvenPenalty"}
# the names ``spectral`` defines, which this module and the package resolve on first access
_SPECTRAL_NAMES = frozenset((*_SPECTRAL.values(), "DiscreteDistribution"))
VARIANT_KINDS = (*_FAMILIES, *_SPECTRAL)
# every family's ``sweepable`` parameters; the spectral families have none
SWEEP_PARAMETERS = tuple(dict.fromkeys(p for cls in _FAMILIES.values() for p in cls.sweepable))


def variant_class(kind: str):
    """The family registered under the config name ``kind``, or None."""
    if kind in _SPECTRAL:
        return __getattr__(_SPECTRAL[kind])
    return _FAMILIES.get(kind)


def __getattr__(name):
    if name == "VARIANTS":
        return {kind: variant_class(kind) for kind in VARIANT_KINDS}
    if name in _SPECTRAL_NAMES:
        from . import spectral

        return getattr(spectral, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class ObjectiveSpec:
    """Weight on the terminal mean plus a moment-based risk functional."""

    def __init__(self, kappa: float, variant: Variant):
        if not (kappa >= 0.0 and math.isfinite(kappa)):
            raise DomainError(f"kappa must be nonnegative and finite, got {kappa}")
        if not isinstance(variant, Variant):
            raise ObjectiveError(f"not an objective variant: {variant!r}")
        self.kappa, self.variant = kappa, variant

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
        raise ObjectiveError(f"not a penalty objective: {getattr(penalty, 'kind', penalty)!r}")
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
