"""Exception hierarchy shared across the package.

Everything numerical derives from ValueError or RuntimeError so callers
that do not care about the fine distinctions can catch the builtins.
"""


class MatrixMarketError(ValueError):
    """Malformed Matrix Market input: bad banner, size line, or entry."""


class SymmetryError(MatrixMarketError):
    """A `general` coordinate file failed the symmetry check."""


class SchemaError(ValueError):
    """Tabular output rows disagree on their column set."""


class DomainError(ValueError):
    """Scalar argument outside the mathematical domain of an operation."""


class RankError(DomainError):
    """Requested low-rank term size is incompatible with the matrix order."""


class NotPositiveDefiniteError(ValueError):
    """A matrix required to be SPD failed a definiteness check."""

    def __init__(self, message, probe_index=None):
        super().__init__(message)
        self.probe_index = probe_index


class FactorizationError(RuntimeError):
    """A factor is unusable: an incomplete factorization broke down beyond
    the recoverable shifts, or a factor is too ill-conditioned for its
    matrix to form the error core."""


class SingularFactorError(ValueError):
    """Triangular factor has a zero diagonal entry."""


class ConvergenceError(RuntimeError):
    """An iterative kernel exceeded its iteration budget."""


class PcgBreakdownError(RuntimeError):
    """PCG met a nonpositive or non-finite r'Hr or curvature; carries the
    partial history."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report
