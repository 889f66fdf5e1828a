"""Exception hierarchy shared by all weightbounds modules."""

from __future__ import annotations


class WeightBoundsError(Exception):
    """Base class for all errors raised by this package."""


class NotAPrimePowerError(WeightBoundsError):
    """The requested field order has two or more distinct prime factors."""


class FieldTooLargeError(WeightBoundsError):
    """The requested field order exceeds the supported cap (2**16)."""


class LengthMismatchError(WeightBoundsError):
    """Vectors of different lengths were combined."""


class EntryOutOfRangeError(WeightBoundsError):
    """An element value lies outside [0, q)."""


class EmptyMatrixError(WeightBoundsError):
    """A generator matrix with no rows (or no columns) was supplied."""


class RankDeficientError(WeightBoundsError):
    """Supplied generator rows are linearly dependent."""


class EnumerationTooLargeError(WeightBoundsError):
    """Codeword enumeration or an `exclude` window would exceed the configured limit."""


class NotACodewordError(WeightBoundsError):
    """The supplied vector is not in the code's row space."""


class ZeroCodewordError(WeightBoundsError):
    """The zero vector was supplied where a nonzero codeword is required."""


class DegenerateResidualError(WeightBoundsError):
    """Puncturing left no coordinates or no nonzero codewords."""


class ParamRangeError(WeightBoundsError):
    """Code parameters violate a precondition (e.g. k > n or d < 1)."""


class WindowViolatedError(WeightBoundsError):
    """A weight lies outside the window w*(q-1) < q*d required here."""
