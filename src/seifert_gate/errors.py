"""Typed errors raised by the obstruction pipeline."""

from math import log10


def quoted(value: object) -> str:
    """repr(value); for an int past Python's limit on digits converted to str, its sign and digit count."""
    try:
        return repr(value)
    except ValueError:
        e = int(log10(a := abs(value)))  # log10 may round across a power of ten; the comparisons mend it
        return f"{'-' * (value < 0)}<int of {e + (a >= 10**e) + (a >= 10 * 10**e)} digits>"


class SeifertGateError(Exception):
    """Base class for every error raised by this package."""


class TooFewFibers(SeifertGateError):
    """Fewer than three multiplicities were supplied."""


class MultiplicityTooSmall(SeifertGateError):
    """Some multiplicity is smaller than 2."""


class NotCoprime(SeifertGateError):
    """Two multiplicities share a common factor."""


class DivisionByZero(SeifertGateError, ZeroDivisionError):
    """A surgery coefficient has denominator zero."""


class InvalidRange(SeifertGateError, ValueError):
    """An argument lies outside the domain of the requested function, expansion or type."""


class EnumerationCapExceeded(SeifertGateError):
    """A lattice search visited more nodes than the configured cap."""


class RankTooLarge(SeifertGateError):
    """The rank, from the fiber count, the leg lengths or the form, is above plumbing.MAX_SEARCH_RANK.

    The limit bounds the report, validation and the plumbing's form build.
    """


class CertificateViolation(SeifertGateError):
    """A lattice identity that a derived result must satisfy does not hold."""


class NotDiagonalizable(SeifertGateError):
    """The form admits no orthonormal basis, so the requested quantity is undefined."""


class InvalidParameter(SeifertGateError, ValueError):
    """A family or run parameter (p, ell, cap, jobs) is outside its allowed range."""
