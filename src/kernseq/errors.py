"""Exception hierarchy.

Every error carries a stable ``code`` string so the CLI can map failures
to exit codes and machine-readable reports without parsing messages.
"""

from __future__ import annotations


class KernseqError(Exception):
    """Base class for all errors raised by this package."""

    code = "ERROR"


class AlphabetMismatchError(KernseqError):
    code = "ALPHABET_MISMATCH"


class NotEquivalenceError(KernseqError):
    """The relation failed validation as an equivalence relation.

    ``validation`` holds the failed ``RelationValidation``.
    """

    code = "NOT_EQUIVALENCE"

    def __init__(self, message, validation=None):
        super().__init__(message)
        self.validation = validation


class NotFinerError(KernseqError):
    """The first relation is not included in the second."""

    code = "NOT_FINER"


class BadClosureWitnessError(KernseqError):
    """A supplied transitive-closure witness failed its consistency checks.

    ``pair`` holds the offending pair of words (u, v).
    """

    code = "BAD_CLOSURE_WITNESS"

    def __init__(self, message, pair=None):
        super().__init__(message)
        self.pair = pair


class PreconditionError(KernseqError):
    """An operation was called on input violating a documented precondition."""

    code = "PRECONDITION_VIOLATED"


class DimensionCapError(KernseqError):
    """Synthesis went over its state-count cap or its matrix-entry budget.

    The matrix dimension itself is not capped: a finite index bounds it,
    although valid input can need large matrices (agreeing except in the
    last k letters needs dimension 2^k). Both limits are resource limits,
    not wrong answers. The entry budget bounds the memory the distinct
    matrices hold, so a broken precondition (an infinite index, which the
    checked entry points rule out first) ends at it rather than in
    running out of memory.
    """

    code = "DIMENSION_CAP"


class BoundTooLargeError(KernseqError):
    code = "BOUND_TOO_LARGE"


class NotLetterToLetterError(KernseqError):
    code = "NOT_LETTER_TO_LETTER"


class FormatError(KernseqError):
    """Parse or semantic error in a transducer file, at ``line`` when given."""

    code = "FORMAT"

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class InternalInvariantError(KernseqError):
    """An internal consistency check failed; always a bug, never user error."""

    code = "INTERNAL"
