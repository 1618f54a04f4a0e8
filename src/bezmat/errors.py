"""Error taxonomy.

Every failure mode has its own class so callers (and the CLI exit-code
mapping) can tell bad input apart from broken internals.  The split that
matters most: ``InternalAssertion`` means a certified identity failed to
hold, i.e. a bug in this library; it must never be raised for merely
unfortunate input.
"""

from __future__ import annotations


class BezmatError(Exception):
    """Base class for all library errors."""


class FormatError(BezmatError):
    """Malformed matrix document, unknown ring name, bad element syntax."""


class RingMismatch(BezmatError):
    """Operands carry different ring descriptors."""


class DimensionMismatch(BezmatError):
    """Shapes incompatible for the requested operation."""


class NotSquare(BezmatError):
    """A square matrix was required."""


class DivisionByZero(BezmatError):
    """Ring division with zero divisor."""


class NotDivisible(BezmatError):
    """Exact division failed: divisor does not divide dividend in this ring."""


class NotInvertibleOverRing(BezmatError):
    """Determinant is not a unit of the ring.  Carries the determinant."""

    def __init__(self, message, det=None):
        super().__init__(message)
        self.det = det


class NoSolution(BezmatError):
    """Linear system has no solution over the ring."""


class NotGroupInvertible(BezmatError):
    """Group inverse does not exist over the ring.

    ``side`` optionally names the offending product in a larger pipeline.
    """

    def __init__(self, message, side=None):
        super().__init__(message)
        self.side = side


class NotDrazinInvertible(BezmatError):
    """No power of the matrix is group invertible over the ring."""


class HypothesisViolated(BezmatError):
    """A required input identity (e.g. A@B@A == A@C@A) does not hold.

    Carries both computed sides so reports can show the disagreement.
    """

    def __init__(self, message, lhs=None, rhs=None):
        super().__init__(message)
        self.lhs = lhs
        self.rhs = rhs


class ConditionNotMet(BezmatError):
    """A checked column-module equality is false.  Carries the failing names."""

    def __init__(self, message, failed=(), report=None):
        super().__init__(message)
        self.failed = tuple(failed)
        self.report = report


class IndexTooSmall(BezmatError):
    """Requested power is below the Drazin index floor max(k, 1)."""

    def __init__(self, message, s=None, index=None):
        super().__init__(message)
        self.s = s
        self.index = index


class GenerationExhausted(BezmatError):
    """Rejection sampling hit its retry budget."""


class InternalAssertion(BezmatError):
    """A proven identity failed at runtime: a bug, never a property of input.

    ``instance`` carries a replayable dump (serialized inputs) when known.
    """

    def __init__(self, message, instance=None):
        super().__init__(message)
        self.instance = instance
