"""Central-moment bookkeeping for laws of the terminal state.

A centred Gaussian with variance y has central moments
alpha(j, y) = (j-1)!! y^(j/2) for even j and zero for odd j.
``MomentVector`` holds a mean and central moments up to some order, and
``MomentVector.gaussian`` builds the Gaussian one elementwise over an array
of variances, one law per entry; ``raw_to_central`` rebuilds one from raw
moments.  Nothing here names an objective family: each family's Gaussian
law lives with the family in ``objectives``.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError

_MAX_EXACT_DOUBLE_FACTORIAL = 33  # 35!! no longer fits in 64 bits


def double_factorial(k: int):
    """k!! with the empty-product convention (-1)!! = 0!! = 1.

    Exact integer up to k = 33, floating point beyond.
    """
    k = int(k)
    if k < -1:
        raise DomainError(f"double factorial undefined for {k}")
    if k <= 0:
        return 1
    if k <= _MAX_EXACT_DOUBLE_FACTORIAL:
        return math.prod(range(k, 0, -2))
    out = 1.0
    while k > 1:
        out *= k
        k -= 2
    return out


def any_true(mask) -> bool:
    """True if any entry of a bool or bool array is set.

    A single bool, Python's or the numpy bool a scalar comparison gives,
    skips the reduction: a reduction costs microseconds per call, more than
    the scalar ``value`` query spends on psi.
    """
    return bool(mask.any()) if isinstance(mask, np.ndarray) else bool(mask)


def alpha(j: int, y):
    """Central moment of order j of a centred Gaussian with variance y.

    Accepts scalar or array y; odd orders give 0.0 either way.
    """
    j = int(j)
    if j < 0:
        raise DomainError(f"moment order must be nonnegative, got {j}")
    if any_true(y < 0.0):
        raise DomainError(f"variance must be nonnegative, got {y}")
    if j % 2 == 1:
        return 0.0
    return float(double_factorial(j - 1)) * y ** (j // 2)


class MomentVector:
    """Mean and central moments of orders 2..order of a terminal law.

    ``gaussian_y`` tags vectors whose central moments are those of a centred
    Gaussian with that variance; objective evaluation can then use exact
    closed forms instead of truncated series.  A moment may be an array,
    all of one shape: the vector then holds one law per entry.  Arrays are
    kept as given and other numbers become floats.
    """

    def __init__(self, order: int, mean: float, central: tuple, gaussian_y=None):
        if order < 1:
            raise DomainError(f"order must be at least 1, got {order}")
        central = tuple(v if isinstance(v, (float, np.ndarray)) else float(v) for v in central)
        if len(central) != order - 1:
            raise DomainError(
                f"need {order - 1} central moments for order {order}, got {len(central)}"
            )
        if order >= 2 and any_true(central[0] < 0.0):
            raise DomainError(f"variance must be nonnegative, got {central[0]}")
        if gaussian_y is not None and any_true(gaussian_y < 0.0):
            raise DomainError(f"gaussian variance tag must be nonnegative, got {gaussian_y}")
        self.order, self.mean, self.central, self.gaussian_y = order, mean, central, gaussian_y

    @classmethod
    def gaussian(cls, order: int, y, mean: float = 0.0) -> "MomentVector":
        """The centred Gaussian law of variance y, or one law per entry of an array y."""
        # alpha's expression; ``__init__`` checks y >= 0 once
        central = tuple(
            0.0 if j % 2 else float(double_factorial(j - 1)) * y ** (j // 2)
            for j in range(2, order + 1)
        )
        return cls(order, mean, central, gaussian_y=y)

    def central_moment(self, j: int) -> float:
        if j == 0:
            return 1.0
        if j == 1:
            return 0.0
        if not 2 <= j <= self.order:
            raise DomainError(f"central moment order {j} outside 2..{self.order}")
        return self.central[j - 2]


def raw_to_central(raw) -> MomentVector:
    """Rebuild a MomentVector from raw moments of orders 1..n."""
    raw = tuple(float(v) for v in raw)
    if not raw:
        raise DomainError("need at least the first raw moment")
    n = len(raw)
    mean = raw[0]
    full = (1.0,) + raw
    central = []
    for j in range(2, n + 1):
        total = 0.0
        for k in range(0, j + 1):
            total += math.comb(j, k) * (-mean) ** (j - k) * full[k]
        central.append(total)
    if central and central[0] < 0.0 and central[0] > -1e-12 * max(1.0, mean * mean):
        central[0] = 0.0  # rounding guard for degenerate laws
    return MomentVector(n, mean, tuple(central))
