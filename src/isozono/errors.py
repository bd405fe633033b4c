"""Error types raised by the isozono kernel.

Every rejection carries the offending data in its message so callers can
report precise diagnostics (the CLI prints them verbatim).
"""


class IsozonoError(ValueError):
    """Base class for all isozono-specific errors."""


class DimensionMismatchError(IsozonoError):
    """Inputs live in different ambient dimensions."""


class ZeroVectorError(IsozonoError):
    """A direction or generator is the zero vector."""


class NonPrimitiveGeneratorError(IsozonoError):
    """A generator's entries have a common factor > 1."""


class DuplicateGeneratorError(IsozonoError):
    """The same generator appears twice."""


class AntipodalGeneratorError(IsozonoError):
    """Two generators are negatives of each other (they define the same edges)."""


class RankDeficientError(IsozonoError):
    """Generators do not span the ambient space."""


class DimensionDeficiencyError(IsozonoError):
    """A full-dimensional polytope was required but the input is flat."""


class EmptySectionError(IsozonoError):
    """A hyperplane slice misses the polytope."""


class BudgetExceededError(IsozonoError):
    """An enumeration would exceed the configured work budget (ISOZONO_BUDGET)."""


class UnpairedSegmentError(IsozonoError):
    """A one-sided segment [0, w] has no partner [0, -w]."""


class InvalidArgumentError(IsozonoError):
    """An argument lies outside the values a routine accepts: a count, radius
    or step out of range, an empty input, or an unknown name."""


class FormatError(IsozonoError):
    """Text input could not be parsed; a file's message includes path and line number."""


class InternalConsistencyError(IsozonoError):
    """Two independent computations of the same quantity disagreed."""
