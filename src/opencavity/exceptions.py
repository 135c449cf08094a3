"""Exception hierarchy for opencavity.

Every error raised on a contract violation derives from OpenCavityError so
callers can distinguish physics/numerics failures from programming errors.
"""


class OpenCavityError(Exception):
    """Base class for all opencavity errors."""


class InvalidMatrix(OpenCavityError):
    """Input matrix is not square, not finite, or lacks a required structure."""


class ConvergenceFailure(OpenCavityError):
    """An iterative routine hit its iteration cap.

    Carries the best point found so the caller can inspect or restart.
    """

    def __init__(self, message, best_point=None, best_value=None):
        super().__init__(message)
        self.best_point = best_point
        self.best_value = best_value


class SingularMatrix(OpenCavityError):
    """Linear solve rejected: the smallest singular value is at or below the
    singularity threshold."""


class InvalidGeometry(OpenCavityError):
    """Lattice or lead description is unusable (bad sizes, disconnected mask,
    contact outside the interior, coinciding contacts)."""


class OutsideBand(OpenCavityError):
    """Energy lies outside the open interval (-2, 2) where propagating lead
    states exist."""


class NotNormalized(OpenCavityError):
    """Coefficient vector violates the unit-probability normalization."""


class UndefinedValue(OpenCavityError):
    """Quantity is undefined for the given input (e.g. rigidity of the zero
    vector)."""


class PoleOnAxis(OpenCavityError):
    """Requested energy coincides with a real (zero-width) eigenvalue, where
    the resolvent and the spectral sums diverge."""


class DefectiveSpectrum(OpenCavityError):
    """Operation needs a diagonalizable spectrum but a defective (coalesced)
    pair is present."""


class ExceptionalPointNotFound(OpenCavityError):
    """Exceptional-point search ended without an exceptional point: the
    separation stayed above the threshold, or the coalescence it reached is
    not defective. Carries the report, whose ``outcome`` says which."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class ParseError(OpenCavityError):
    """Config document is not syntactically valid. Carries line/column."""

    def __init__(self, message, line=None, column=None):
        super().__init__(message)
        self.line = line
        self.column = column


class ValidationError(OpenCavityError):
    """Config document parsed but a field is missing, unknown, or out of
    range. Carries the offending field name."""

    def __init__(self, message, field=None):
        super().__init__(message)
        self.field = field


class WriteError(OpenCavityError):
    """Output file could not be written."""
