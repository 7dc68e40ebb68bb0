"""Exception hierarchy. Input-class errors map to CLI exit status 1,
internal cross-check failures to exit status 2."""

from __future__ import annotations


class BhkError(Exception):
    """Base class for all library errors."""


class InputError(BhkError):
    """The input data (matrix, group, characteristic, or document) is unusable."""


class NegativeEntry(InputError):
    """Matrix has a negative entry."""


class RowWithoutZero(InputError):
    """Some matrix row has no zero entry."""


class SingularMatrix(InputError):
    """Matrix determinant is zero."""


class CharDividesDet(InputError):
    """The characteristic divides the determinant."""


class NonpositiveWeight(InputError):
    """The weight system has a zero or negative entry."""


class NotInvertiblePotential(InputError):
    """The rows do not match any disjoint union of Fermat, chain, and loop shapes."""


class HNotInMd(InputError):
    """A subgroup handed to the age machinery has an element with nonzero coordinate sum."""


class CharDividesD(InputError):
    """The characteristic divides the exponent d."""


class ZeroCoordinate(InputError):
    """Age requested for an element with a zero coordinate."""


class NonintegralAge(InputError):
    """Coordinate sum of an age candidate is not divisible by the modulus."""


class TooLarge(InputError):
    """A group the input asks for is larger than any command enumerates."""


class NotAdequate(InputError):
    """The pair fails its adequacy check."""

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


class MirrorNotAdequate(NotAdequate):
    """The transposed pair fails its adequacy check."""


class ParseError(InputError):
    """The input document is not valid JSON of the expected shape."""


class SemanticError(InputError):
    """The input document parses but violates a semantic constraint."""


class InternalCheckError(BhkError):
    """An internal consistency assertion failed; indicates a bug, never bad input."""


class MethodMismatch(InternalCheckError):
    """Two routes to the same quantity disagreed."""
