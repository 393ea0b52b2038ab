"""Error hierarchy shared by all modules.

Three classes matter to callers (and to the CLI, which maps them to
distinct exit codes): bad input, resource guard exceeded, and broken
internal invariant.
"""


class ToralDecayError(Exception):
    """Base class for all package errors."""

    exit_code = 1


class InputError(ToralDecayError):
    """The input violates a documented precondition."""

    exit_code = 2


class GuardError(ToralDecayError):
    """A resource guard would be exceeded; the request is refused."""

    exit_code = 3


class InternalError(ToralDecayError):
    """An internal invariant failed; this signals a bug, not bad input."""

    exit_code = 4


class NotExpanding(InputError):
    """Some eigenvalue has modulus <= 1 + tolerance."""


class SingularMatrix(InputError):
    """The matrix determinant is zero."""


class NotMeanZero(InputError):
    """An operation requiring a centered function got f with nonzero mean."""


class NotSimilarity(InputError):
    """A similarity matrix (A^T A proportional to the identity) is required."""


class NotDecreasing(InputError):
    """A target rate sequence is not decreasing inside (0, 1)."""


class ZeroVariance(InputError):
    """A distributional test was requested for a degenerate (sigma^2 = 0) limit."""


class TruncationTooSmall(InputError):
    """The series truncation is too small for the requested number of steps."""


class TooLarge(GuardError):
    """A size guard (q^n, n*M, ...) would be exceeded."""


class DegenerateBound(InternalError):
    """A bound evaluated to zero where that is impossible."""
