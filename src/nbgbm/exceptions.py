"""Exception hierarchy shared across the package."""


class NbgbmError(Exception):
    """Base class for all package errors."""


class ShapeError(NbgbmError):
    """Dimension mismatch between model components."""


class DomainError(NbgbmError):
    """Input outside the mathematical domain of an operation."""


class DegenerateCovariateError(NbgbmError):
    """A non-intercept covariate column with zero variance."""


class RankError(NbgbmError):
    """Rank-deficient design or singular constraint system."""


class NumericError(NbgbmError):
    """Non-finite values encountered during optimization."""


class PreconditionError(NbgbmError):
    """Operation called on a state that violates its precondition."""


class InputError(NbgbmError):
    """Malformed input file or inconsistent user-supplied data."""
