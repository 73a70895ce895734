"""Exception types and option-value checks shared across the package."""

import math
import numbers


class MapEvalError(Exception):
    """Base class for failures while evaluating a planar map."""


class SingularityError(MapEvalError):
    """A denominator (or other singular expression) vanished within tolerance."""


class DomainError(MapEvalError):
    """A point lies outside the rectangular domain of a map."""


class NoConvergenceError(Exception):
    """An iterative solver ran out of iterations or hit a singular system."""


class DegenerateRootError(NoConvergenceError):
    """A period-two search converged to a plain fixed point."""


class ConstraintError(ValueError):
    """A built-in system was constructed with parameters violating its constraints."""


class HypothesisError(Exception):
    """A precondition of a curve/classification routine does not hold.

    The message names the failed verdict so callers (and the CLI, which maps
    this to exit code 4) can report it.
    """


class ParseError(ValueError):
    """Syntax error in the expression language.

    Attributes:
        offset: 0-based byte offset of the offending token.
        expected: tuple of token descriptions that would have been accepted.
    """

    def __init__(self, message: str, offset: int, expected: tuple = ()):
        super().__init__(f"{message} at offset {offset}"
                         + (f" (expected {', '.join(expected)})" if expected else ""))
        self.offset = offset
        self.expected = tuple(expected)


class UnboundParameterError(KeyError):
    """An expression references a parameter with no bound value."""


def check_count(name: str, value, least: int = 1, most: float = math.inf) -> None:
    """Raise ValueError unless value is an int (not a bool) in [least, most]."""
    if not ((type(value) is int or (isinstance(value, numbers.Integral)
                                    and not isinstance(value, bool)))
            and least <= value <= most):
        top = f" and <= {most}" if most < math.inf else ""
        raise ValueError(f"{name} must be an int >= {least}{top}, got {value!r}")


def check_tolerance(name: str, value, zero: bool = False) -> None:
    """Raise ValueError unless value is a finite real (not a bool), > 0, or
    >= 0 if zero."""
    if not ((type(value) is float or (isinstance(value, numbers.Real)
                                      and not isinstance(value, bool)))
            and math.isfinite(value) and (value >= 0 if zero else value > 0)):
        raise ValueError(f"{name} must be finite and {'>=' if zero else '>'} 0, "
                         f"got {value!r}")


def check_window(name: str, w) -> None:
    """Raise ValueError unless the Rect w has a finite, positive width and
    height (and so finite sides): the windows that traces, rasters and
    analyses sample. name is the caller the message names."""
    if not (0 < w.width() < math.inf and 0 < w.height() < math.inf):
        raise ValueError(f"{name} needs a bounded window of finite, positive "
                         f"width and height, got {w}")
