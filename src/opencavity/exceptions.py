"""Exception hierarchy for opencavity.

Every error raised on a contract violation derives from OpenCavityError so
callers can distinguish physics/numerics failures from programming errors.
"""

__all__ = [
    "OpenCavityError", "InvalidMatrix", "ConvergenceFailure", "SingularMatrix",
    "InvalidGeometry", "OutsideBand", "UndefinedValue",
    "PoleOnAxis", "DefectiveSpectrum", "ExceptionalPointNotFound",
    "ParseError", "ValidationError", "WriteError",
]


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
    """E - H_eff(E) is singular at a scalar energy of ``contact_green``,
    ``s_matrix``, ``transmission_direct`` or ``wigner_delay``, or a matrix
    given to ``solve_linear`` is: the smallest singular value, of the block
    of the levels next to E in the resolvent, is at most 1e-14 times the
    infinity norm of the matrix, E - H_eff(E) itself for the resolvent."""


class InvalidGeometry(OpenCavityError):
    """Lattice or lead description is unusable (bad sizes or parameters, a
    mask that keeps no site or splits the cavity, a contact on no site).
    Both leads may share one contact."""


class OutsideBand(OpenCavityError):
    """Energy lies outside a lead's band |E| < 2t (t the lead's hopping),
    where its propagating states exist."""


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
    smallest singular value of H* - z* I stayed above 1e-12 ||H*||_inf, so
    no eigenvalue sits at z*, or the coalescence it reached is not
    defective. Carries the report, whose ``outcome`` says which."""

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
