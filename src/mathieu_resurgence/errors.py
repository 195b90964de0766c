"""Exception types and warning categories shared across the package, and
the checks every public entry point makes on its arguments."""
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


def require_integer(name: str, value, least: int) -> int:
    """value as an int, unless DomainError: an integer argument is anything
    with ``__index__`` (an int, a bool, a numpy integer) and >= least; every
    float fails, 3.0 included."""
    n = value
    # a plain int skips the import: tridiag checks each eigenvalue index here
    if type(n) is not int:
        from operator import index

        try:
            n = index(value)
        except TypeError:
            n = None
    if n is None or n < least:
        raise DomainError(f"integer {name} >= {least} required, got {value!r}")
    return n


def require_rational(name: str, value):
    """value as an exact Fraction: an int, a Fraction, a finite float or
    Decimal, or text such as "1/4".  DomainError for a NaN, an infinity or
    anything else."""
    # imported here: a float-tier run of the CLI loads no fractions
    from fractions import Fraction

    try:
        return Fraction(value)
    except (TypeError, ValueError, OverflowError):
        raise DomainError(f"finite rational {name} required, got {value!r}") from None
