"""Objective families over the mean and central moments of the terminal state.

Every objective has the shape

    J = kappa * E_t[X_T] + psi(t, M_2, ..., M_n)

where M_j is the j-th conditional central moment of X_T.  Finite families
(``MomentCombo``, ``StandardizedMoments``) weight the first n moments
directly.  Penalty families measure risk through an even shape of the
centred terminal state and correspond to an infinite moment series; on
Gaussian moment vectors they are evaluated in closed form.

The sign convention is risk-averse: even-order slots enter psi with a
negative derivative, odd-order slots (skewness and friends) with a positive
one.  The curvature sum

    K(t, y) = sum_{j >= 1} j (2j - 1) alpha(2j - 2, y) psi_{z_2j}(t, alpha(y))

drives both the equilibrium feedback gain and the spike-variation limit; a
solvable objective keeps K strictly negative along the solution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError, ObjectiveError, QuadratureError
from .moments import (
    DiscreteDistribution,
    MomentVector,
    alpha,
    any_true,
    double_factorial,
    gaussian_penalty_expectation,
)

# Truncation order for series views of the penalty families (moment orders
# up to 2 * SERIES_TERMS are kept).
SERIES_TERMS = 20


@dataclass(frozen=True)
class MomentCombo:
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

    @property
    def order(self) -> int:
        return len(self.weights) + 1

    def weight(self, j: int) -> float:
        if 2 <= j <= self.order:
            return self.weights[j - 2]
        return 0.0

    def even_weights(self):
        return [(2 * j, self.weight(2 * j)) for j in range(1, self.order // 2 + 1)]


@dataclass(frozen=True)
class StandardizedMoments:
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

    @property
    def order(self) -> int:
        return len(self.weights) + 1

    def weight(self, j: int) -> float:
        if 2 <= j <= self.order:
            return self.weights[j - 2]
        return 0.0


@dataclass(frozen=True)
class ExpPenalty:
    """Exponential penalty of the centred state, shape (exp(-c x) - 1) / c."""

    c: float
    kind = "exp"

    def __post_init__(self):
        if not (self.c > 0.0):
            raise ObjectiveError(f"penalty scale must be positive, got {self.c}")


@dataclass(frozen=True)
class CoshPenalty:
    """Symmetric exponential penalty, shape (cosh(c x) - 1) / c."""

    c: float
    kind = "cosh"

    def __post_init__(self):
        if not (self.c > 0.0):
            raise ObjectiveError(f"penalty scale must be positive, got {self.c}")


@dataclass(frozen=True)
class CosPenalty:
    """Bounded oscillatory penalty, shape (1 - cos(c x)) / c.

    Only solvable while the squared risk budget stays below one; the solver
    raises when that guard fails.
    """

    c: float
    kind = "cos"

    def __post_init__(self):
        if not (self.c > 0.0):
            raise ObjectiveError(f"penalty scale must be positive, got {self.c}")


@dataclass(frozen=True)
class AmbiguousCos:
    """Cosine penalty with a random amplitude: shape 1 - E[cos(H x)]."""

    amplitude: DiscreteDistribution
    kind = "ambiguous_cos"

    def __post_init__(self):
        if self.amplitude.moment(2) <= 0.0:
            raise ObjectiveError("amplitude law must have positive second moment")


@dataclass(frozen=True)
class FourierEvenPenalty:
    """Even penalty given through its frequency-domain weight.

    ``density`` samples the weight (transform divided by 2 pi) on the
    ``freqs`` grid; ``atom`` is an optional point mass at frequency zero.
    Signed densities are accepted; solvability is then established at run
    time through the curvature check.
    """

    freqs: tuple
    density: tuple
    atom: float = 0.0
    kind = "fourier_even"

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

    def frequency_moment(self, k: int) -> float:
        """Integral of density(h) h^k over the truncation window."""
        weights = self._g * self._f**k
        scale = float(np.max(np.abs(weights)))
        if scale > 0.0:
            edge = max(abs(float(weights[0])), abs(float(weights[-1])))
            if edge > 1e-6 * scale:
                raise QuadratureError(
                    f"frequency moment of order {k} has not decayed at the window edge"
                )
        return float(np.trapezoid(weights, self._f))


PENALTY_KINDS = ("exp", "cosh", "cos", "ambiguous_cos", "fourier_even")

# variants whose curvature K(t, y) has a vectorized closed form; fourier_even
# needs a frequency quadrature per point instead
CLOSED_FORM_CURVATURE_KINDS = (
    "moment_combo",
    "standardized",
    "exp",
    "cosh",
    "cos",
    "ambiguous_cos",
)


def has_closed_form_curvature(variant) -> bool:
    """True when curvature_sum costs O(1) per point (no quadrature)."""
    return getattr(variant, "kind", None) in CLOSED_FORM_CURVATURE_KINDS


@dataclass(frozen=True)
class ObjectiveSpec:
    """Weight on the terminal mean plus a moment-based risk functional."""

    kappa: float
    variant: object

    def __post_init__(self):
        if not (self.kappa >= 0.0 and math.isfinite(self.kappa)):
            raise DomainError(f"kappa must be nonnegative and finite, got {self.kappa}")
        if getattr(self.variant, "kind", None) is None:
            raise ObjectiveError(f"not an objective variant: {self.variant!r}")

    @property
    def is_penalty(self) -> bool:
        return self.variant.kind in PENALTY_KINDS


@dataclass(frozen=True)
class PsiGradient:
    """Derivatives of psi with respect to the even central-moment slots.

    ``values[j - 1]`` is psi_{z_2j} evaluated at the Gaussian moment point
    with variance y.
    """

    t: float
    y: float
    values: tuple


def _central_getter(central_by_order):
    def get(j):
        if j == 0:
            return 1.0
        if j == 1:
            return 0.0
        return central_by_order.get(j, 0.0)

    return get


def _psi_on_slots(variant, central_by_order: dict, order: int) -> float:
    """psi evaluated on raw central-moment slots (no validation).

    Slots may be arrays of equal shape; psi is then evaluated elementwise.
    """
    get = _central_getter(central_by_order)
    kind = variant.kind
    if kind == "moment_combo":
        return sum(
            (-1.0) ** (j + 1) * variant.weight(j) / math.factorial(j) * get(j)
            for j in range(2, min(order, variant.order) + 1)
        )
    if kind == "standardized":
        z2 = get(2)
        total = -0.5 * variant.weight(2) * z2
        for j in range(3, min(order, variant.order) + 1):
            zj = get(j)
            # a slot that is zero (or underflowed to zero) drops out, even at z2 = 0
            live = zj != 0.0
            if not any_true(live) or variant.weight(j) == 0.0:
                continue
            if any_true(live & (z2 == 0.0)):
                raise DomainError("standardized moments undefined at zero variance")
            total = total + np.divide(
                (-1.0) ** (j + 1) * variant.weight(j) / math.factorial(j) * zj,
                abs(z2) ** (j / 2.0),
                out=np.zeros(np.shape(live)),
                where=live,
            )
        return total
    if kind == "exp":
        c = variant.c
        return sum((-c) ** (j - 1) / math.factorial(j) * get(j) for j in range(2, order + 1))
    if kind == "cosh":
        c = variant.c
        return -sum(
            c ** (2 * j - 1) / math.factorial(2 * j) * get(2 * j)
            for j in range(1, order // 2 + 1)
        )
    if kind == "cos":
        c = variant.c
        return -sum(
            (-1.0) ** (j - 1) * c ** (2 * j - 1) / math.factorial(2 * j) * get(2 * j)
            for j in range(1, order // 2 + 1)
        )
    if kind == "ambiguous_cos":
        return -sum(
            (-1.0) ** (j - 1) * variant.amplitude.moment(2 * j) / math.factorial(2 * j) * get(2 * j)
            for j in range(1, order // 2 + 1)
        )
    if kind == "fourier_even":
        return sum(
            (-1.0) ** (j + 1) * variant.frequency_moment(2 * j) / math.factorial(2 * j) * get(2 * j)
            for j in range(1, order // 2 + 1)
        )
    raise ObjectiveError(f"unknown objective variant {kind!r}")


def psi(spec: ObjectiveSpec, t: float, mv: MomentVector) -> float:
    """Risk part of the objective at the given moment vector.

    Gaussian-tagged vectors use exact closed forms for the penalty families;
    otherwise the moment series is truncated at the vector's order.
    Normalized so that a degenerate (zero-variance) law gives zero.
    """
    variant = spec.variant
    if variant.kind in PENALTY_KINDS and mv.gaussian_y is not None:
        return gaussian_psi(spec, t, mv.gaussian_y)
    if variant.kind in ("moment_combo", "standardized") and mv.order < variant.order:
        raise DomainError(
            f"moment vector of order {mv.order} cannot feed an order-{variant.order} objective"
        )
    central = {j: mv.central_moment(j) for j in range(2, mv.order + 1)}
    return _psi_on_slots(variant, central, mv.order)


def gaussian_psi(spec: ObjectiveSpec, t, y):
    """psi on the centred Gaussian law with variance y, elementwise over y.

    Matches ``psi(spec, t, MomentVector.gaussian(order, y))`` at each y to
    rounding: exact closed forms for the penalty families, the Gaussian
    moment slots alpha(j, y) for the finite families.
    """
    variant = spec.variant
    if variant.kind in PENALTY_KINDS:
        base = gaussian_penalty_expectation(variant, 0.0)
        return -(gaussian_penalty_expectation(variant, y) - base)
    y = np.asarray(y, dtype=float)
    order = max(variant.order, 2)
    slots = {j: alpha(j, y) for j in range(2, order + 1)}
    out = _psi_on_slots(variant, slots, order)
    return float(out) if np.ndim(out) == 0 else out


def _grad_slots(spec: ObjectiveSpec, terms: int | None) -> int:
    variant = spec.variant
    if variant.kind in ("moment_combo", "standardized"):
        return max(variant.order // 2, 1)
    return terms if terms is not None else SERIES_TERMS


def psi_grad_even(spec: ObjectiveSpec, t: float, y: float, terms: int | None = None) -> PsiGradient:
    """psi_{z_2j} for j = 1..m at the Gaussian moment point with variance y.

    Analytic for every variant; odd slots are never read.  For standardized
    moments slot 2m (m >= 2) gives c_2m / y^m with c_j = (-1)^(j+1) kappa_j / j!,
    and slot 2 carries -(j/2) c_j (j-1)!! / y per live even order j; a live
    higher even weight at zero (or underflowed) variance raises DomainError.
    Fourier penalties are linear in the slots.
    """
    if y < 0.0:
        raise DomainError(f"variance must be nonnegative, got {y}")
    variant = spec.variant
    m = _grad_slots(spec, terms)
    kind = variant.kind
    if kind == "moment_combo":
        values = [-variant.weight(2 * j) / math.factorial(2 * j) for j in range(1, m + 1)]
    elif kind == "standardized":
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
    elif kind in ("exp", "cosh"):
        c = variant.c
        values = [-(c ** (2 * j - 1)) / math.factorial(2 * j) for j in range(1, m + 1)]
    elif kind == "cos":
        c = variant.c
        values = [
            -((-1.0) ** (j - 1)) * c ** (2 * j - 1) / math.factorial(2 * j)
            for j in range(1, m + 1)
        ]
    elif kind == "ambiguous_cos":
        values = [
            -((-1.0) ** (j - 1)) * variant.amplitude.moment(2 * j) / math.factorial(2 * j)
            for j in range(1, m + 1)
        ]
    elif kind == "fourier_even":
        values = [
            (-1.0) ** (j + 1) * variant.frequency_moment(2 * j) / math.factorial(2 * j)
            for j in range(1, m + 1)
        ]
    else:
        raise ObjectiveError(f"unknown objective variant {kind!r}")
    return PsiGradient(t, y, tuple(values))


def curvature_sum(spec: ObjectiveSpec, t, y):
    """K(t, y), the even-moment curvature of psi at the Gaussian point.

    Strictly negative K is the solvability condition; it also gives the
    predicted spike-variation limit and the feedback gain -1 / (2 K).
    Accepts scalar or array y and is vectorized for every variant.
    """
    y_arr = np.asarray(y, dtype=float)
    scalar = y_arr.ndim == 0
    if np.any(y_arr < 0.0):
        raise DomainError("variance must be nonnegative")
    variant = spec.variant
    kind = variant.kind
    if kind == "moment_combo":
        out = np.zeros_like(y_arr)
        for j, (_, w) in enumerate(variant.even_weights(), start=1):
            if w != 0.0:
                out += w * y_arr ** (j - 1) / float(double_factorial(2 * j - 2))
        out = -0.5 * out
    elif kind == "standardized":
        # every z_j / z_2^(j/2) is scale-free on the Gaussian family, so its
        # slot derivatives cancel in K exactly and only the variance term stays
        out = np.full_like(y_arr, -0.5 * variant.weight(2))
    elif kind in ("exp", "cosh"):
        c = variant.c
        out = -0.5 * c * np.exp(0.5 * c * c * y_arr)
    elif kind == "cos":
        c = variant.c
        out = -0.5 * c * np.exp(-0.5 * c * c * y_arr)
    elif kind == "ambiguous_cos":
        v = np.asarray(variant.amplitude.values)
        p = np.asarray(variant.amplitude.probs)
        out = -0.5 * np.sum(
            p * v**2 * np.exp(-0.5 * np.multiply.outer(y_arr, v**2)), axis=-1
        )
    elif kind == "fourier_even":
        # the sum over even orders collapses back to a frequency integral
        weights = variant._g_f_sq * np.exp(-0.5 * np.multiply.outer(y_arr, variant._f_sq))
        scale = float(np.max(np.abs(weights)))
        if scale > 0.0:
            edge = float(np.max(np.abs(weights[..., [0, -1]])))
            if edge > 1e-6 * scale:
                raise QuadratureError("curvature integrand has not decayed at the window edge")
        out = 0.5 * np.trapezoid(weights, variant._f, axis=-1)
    else:
        raise ObjectiveError(f"unknown objective variant {kind!r}")
    return float(out) if scalar else out
