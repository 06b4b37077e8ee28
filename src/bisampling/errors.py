"""Exception types raised by the library."""

import numbers


class BisamplingError(ValueError):
    """Base class for all library errors."""


class OutOfBoundsError(BisamplingError):
    """A value lies outside the declared bounding interval."""


class NonFiniteError(BisamplingError):
    """An observation or support point is NaN (or otherwise unusable)."""


class InvalidProbabilityError(BisamplingError):
    """A probability argument lies outside its admissible range."""


class BadIntervalError(BisamplingError):
    """Interval endpoints are not properly ordered."""


class IndeterminateSumError(BisamplingError, ArithmeticError):
    """A weighted sum mixes positive mass at both -inf and +inf, an arithmetic failure."""


class AtObservationError(BisamplingError):
    """A query point coincides with an observation where that is disallowed."""


class TooFewSamplesError(BisamplingError):
    """Not enough observations for the requested method."""


class EmptySamplesError(BisamplingError):
    """An operation received an empty sample collection."""


def _check_n_resample(n, least: int = 1, name: str = "n_resample") -> None:
    """Reject a count ``name`` that is not an integer of at least ``least``."""
    if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < least:
        raise ValueError(f"{name} must be an integer of at least {least}, got {n!r}")


def _check_open_unit(value, name: str) -> None:
    """Raise InvalidProbabilityError unless ``value`` is a real number in (0, 1).

    NaN, None and strings fail too.
    """
    if not isinstance(value, numbers.Real) or not 0.0 < value < 1.0:
        raise InvalidProbabilityError(f"{name} must be in (0, 1), got {value!r}")
