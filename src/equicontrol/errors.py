"""Exception hierarchy shared across the package.

Solver failures (``SolverError`` subtree) are distinguished from bad input
(``ConfigError``, ``DomainError``) so the command line tool can map them to
distinct exit statuses.
"""


class EquicontrolError(Exception):
    """Base class for all package errors."""


class DomainError(EquicontrolError, ValueError):
    """An argument lies outside its mathematical domain."""


class GridMismatchError(EquicontrolError, ValueError):
    """A sampled path does not line up with the time grid it is used on."""


class CoefficientError(EquicontrolError, ValueError):
    """Invalid coefficient set, e.g. a diffusion loading below the floor."""


class ObjectiveError(EquicontrolError, ValueError):
    """Invalid objective specification."""


class QuadratureError(EquicontrolError):
    """A numerical integral failed its convergence check."""


class SolverError(EquicontrolError):
    """An equilibrium solver could not produce a solution."""


class UnsupportedVariantError(SolverError):
    """The requested solver does not handle this objective variant."""


class CosDomainError(SolverError):
    """Cosine penalty outside its solvable region (risk budget too large)."""


class ConcavityError(SolverError):
    """The curvature condition K < 0 failed somewhere on the solution path."""


class OdeStepError(SolverError):
    """The backward integration stalled: no substep count met its tolerance."""


class RootBracketError(SolverError):
    """A scalar root could not be bracketed."""


class NonFiniteResultError(SolverError):
    """A solution, or a result that would be written, holds a NaN or an infinity."""


class ConfigError(EquicontrolError, ValueError):
    """Unreadable or inconsistent run configuration."""
