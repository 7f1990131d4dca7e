"""Time-consistent controls for moment-based terminal objectives.

The package solves for the equilibrium (time-consistent) feedback control of
a linearly controlled diffusion whose objective combines the conditional mean
of the terminal state with a function of its higher central moments, and
verifies the solution numerically: spike perturbations, adjoint-process
diagonals, moment equations and Monte Carlo simulation.
"""

from .coeffs import (
    CoefficientSet,
    ConstantCoefficient,
    ExponentialCoefficient,
    PolynomialCoefficient,
    SampledCoefficient,
    TimeGrid,
    integrate,
)
from .equilibrium import EquilibriumSolution, solve, solve_many, solve_ode
from .errors import (
    CoefficientError,
    ConcavityError,
    ConfigError,
    CosDomainError,
    DomainError,
    EquicontrolError,
    GridMismatchError,
    NonFiniteResultError,
    ObjectiveError,
    OdeStepError,
    QuadratureError,
    RootBracketError,
    SolverError,
    UnsupportedVariantError,
)
from .moments import MomentVector, alpha, double_factorial, raw_to_central
from .objectives import (
    AmbiguousCos,
    CosPenalty,
    CoshPenalty,
    DiscreteDistribution,
    ExpPenalty,
    FourierEvenPenalty,
    MomentCombo,
    ObjectiveSpec,
    StandardizedMoments,
    curvature_sum,
    gaussian_penalty_expectation,
    psi,
)

__version__ = "0.1.0"

# the verification suites load on first access, so that solve and sweep never
# import them (PEP 562)
_VERIFY_NAMES = frozenset(
    (
        "evaluate_deterministic",
        "fbsde_diagonal_check",
        "monte_carlo",
        "pde_residual_check",
        "spike_test",
        "value_consistency_check",
        "verification_report",
    )
)


def __getattr__(name):
    if name in _VERIFY_NAMES:
        from . import verify

        return getattr(verify, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "AmbiguousCos",
    "CoefficientError",
    "CoefficientSet",
    "ConcavityError",
    "ConfigError",
    "ConstantCoefficient",
    "CosDomainError",
    "CosPenalty",
    "CoshPenalty",
    "DiscreteDistribution",
    "DomainError",
    "EquicontrolError",
    "EquilibriumSolution",
    "ExpPenalty",
    "ExponentialCoefficient",
    "FourierEvenPenalty",
    "GridMismatchError",
    "MomentCombo",
    "MomentVector",
    "NonFiniteResultError",
    "ObjectiveError",
    "ObjectiveSpec",
    "OdeStepError",
    "PolynomialCoefficient",
    "QuadratureError",
    "RootBracketError",
    "SampledCoefficient",
    "SolverError",
    "StandardizedMoments",
    "TimeGrid",
    "UnsupportedVariantError",
    "alpha",
    "curvature_sum",
    "double_factorial",
    "evaluate_deterministic",
    "fbsde_diagonal_check",
    "gaussian_penalty_expectation",
    "integrate",
    "monte_carlo",
    "pde_residual_check",
    "psi",
    "raw_to_central",
    "solve",
    "solve_many",
    "solve_ode",
    "spike_test",
    "value_consistency_check",
    "verification_report",
]
