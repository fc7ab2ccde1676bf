"""Exception types shared across the library, and its checks of counts and
tolerances."""
import math
from numbers import Integral, Real


class ParameterError(ValueError):
    """A model or configuration parameter is invalid (bad family/theta/d/n...)."""


def _check_count(value, what: str, minimum: int = 1) -> int:
    """``value`` as an ``int``; :class:`ParameterError` unless it is an integer,
    not a bool, and at least ``minimum``."""
    if not isinstance(value, Integral) or isinstance(value, bool) or value < minimum:
        raise ParameterError(f"{what} must be an integer >= {minimum}, got {value!r}")
    return int(value)


def _check_positive(value, what: str) -> float:
    """``value`` as a ``float``; :class:`ParameterError` unless it is a real
    number, not a bool, finite and > 0."""
    try:
        ok = isinstance(value, Real) and not isinstance(value, bool) and 0 < float(value) < math.inf
    except OverflowError:    # an int beyond the float range
        ok = False
    if not ok:
        raise ParameterError(f"{what} must be a finite real > 0, got {value!r}")
    return float(value)


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class GeneratorInfinityError(DomainError):
    """The generator was evaluated at a point where it diverges (t = 0)."""


class RangeError(ValueError):
    """A target value (e.g. Kendall's tau) is unattainable for the family.

    Carries the attainable interval in ``interval``.
    """

    def __init__(self, message: str, interval: tuple[float, float]):
        super().__init__(message)
        self.interval = interval


class QuadratureError(RuntimeError):
    """Adaptive quadrature could not meet its tolerance.

    Raised when the integrand returns a non-finite value, when
    ``max_subdivisions`` interval splits do not meet the tolerance, and when
    roundoff stalls the refinement before that.  ``estimate`` and
    ``error_bound`` hold the partial result; the read-only ``splits`` is the
    number of interval splits made before the error.
    """

    def __init__(self, message: str, estimate: float, error_bound: float,
                 splits: int = 0):
        super().__init__(message)
        self.estimate = estimate
        self.error_bound = error_bound
        self._splits = splits

    @property
    def splits(self) -> int:
        return self._splits


class EmptyLevelSetError(RuntimeError):
    """No sample point fell inside the level-set neighborhood."""


class StudyError(RuntimeError):
    """A Monte Carlo study could not produce any usable replication."""
