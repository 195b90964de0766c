"""Exception types and warning categories shared across the package."""
import math


class DomainError(ValueError):
    """Argument outside the mathematical domain of an operation."""


class PoleError(DomainError):
    """Evaluation requested at (or too close to) a pole or divergence."""


class ConvergenceError(RuntimeError):
    """An iterative numerical procedure failed to reach its tolerance."""


class StructureError(ValueError):
    """A series failed a structural identity it was required to satisfy.

    Raised e.g. when a supposed-to-cancel low-order term survives, which
    signals that a wrong input series was supplied rather than a numerical
    problem.
    """


class TruncationError(ValueError):
    """Requested data lies beyond the stored truncation order."""


class RegimeWarning(UserWarning):
    """Advisory warning: formula evaluated outside its asymptotic regime."""


def require_positive(name: str, value) -> None:
    """Raise DomainError unless value is a finite number > 0 (NaN fails)."""
    if not (math.isfinite(value) and value > 0):
        raise DomainError(f"finite {name} > 0 required, got {value!r}")
