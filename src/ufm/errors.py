"""Exception and warning types shared across the package."""


class UfmError(Exception):
    """Base class for all errors raised by this package."""


class PanelFormatError(UfmError, ValueError):
    """A panel file violates the wide/long CSV contract."""


class NonNumericCellError(PanelFormatError):
    pass


class RaggedRowsError(PanelFormatError):
    pass


class DuplicateCellError(PanelFormatError):
    pass


class MissingCellError(PanelFormatError):
    pass


class NonFiniteError(UfmError, FloatingPointError):
    """A solver produced a non-finite intermediate value."""


class RankTooLargeError(UfmError, ValueError):
    """Requested factor count too large for the panel dimensions."""


class EigenFailureError(UfmError, RuntimeError):
    """Eigendecomposition failed during normalization."""


class SubsampleRankDeficientError(UfmError, RuntimeError):
    """A half-panel fit degenerated, so cross-fitting cannot proceed."""


class SingularPhiError(UfmError, RuntimeError):
    """Loading Gram matrix too ill-conditioned to invert for inference."""


class DegenerateRegressorsError(UfmError, ValueError):
    """Regressors have zero variance; adjusted R-squared is undefined."""


class UfmWarning(UserWarning):
    """Base class for all warnings emitted by this package."""


class NoConvergeWarning(UfmWarning):
    """An iterative fit hit its iteration cap before reaching tolerance."""


class NearDegenerateEigsWarning(UfmWarning):
    """Consecutive eigenvalues nearly tie; eigenvector order/sign ambiguous."""


class ClippedFractionWarning(UfmWarning):
    """More than 10% of inverse-density weights were clipped."""
