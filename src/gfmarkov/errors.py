"""Exception taxonomy with stable error codes.

Two branches matter to callers: ``ModelError`` covers structural or
validation problems (a CLI maps these to exit status 2), and
``NumericalError`` covers failures of the numerics themselves
(exit status 3). Every concrete class carries a stable ``code`` string
that survives into machine-readable output.
"""

from __future__ import annotations


class GfmError(Exception):
    """Base class for all library errors."""

    code = "Error"

    def __init__(self, message: str, **detail):
        super().__init__(message)
        self.detail = detail


class ModelError(GfmError):
    """Invalid model, reference, or request."""

    code = "ModelError"


class NumericalError(GfmError):
    """The computation itself failed or is outside its validity region."""

    code = "NumericalError"


class NonSquareError(ModelError):
    code = "NonSquare"


class NegativeEntryError(ModelError):
    code = "NegativeEntry"


class RowSumViolationError(ModelError):
    code = "RowSumViolation"


class NegativeOffDiagonalError(ModelError):
    code = "NegativeOffDiagonal"


class GammaTooSmallError(ModelError):
    code = "GammaTooSmall"


class DimensionMismatchError(ModelError):
    code = "DimensionMismatch"


class ReferenceDegenerateError(ModelError):
    code = "ReferenceDegenerate"


class ReferenceNotDistributionLikeError(ModelError):
    code = "ReferenceNotDistributionLike"


class NotIrreducibleError(ModelError):
    code = "NotIrreducible"


class NotAperiodicError(ModelError):
    code = "NotAperiodic"


class NotErgodicError(ModelError):
    code = "NotErgodic"


class ScheduleInvalidError(ModelError):
    code = "ScheduleInvalid"


class ModelFormatError(ModelError):
    """Model file missing, unparsable, or structurally wrong."""

    code = "ModelFormat"


class NearSingularError(NumericalError):
    code = "NearSingular"


class SeriesDivergentError(NumericalError):
    code = "SeriesDivergent"


class EstimateDivergentError(NumericalError):
    code = "EstimateDivergent"
