"""Exception types shared across the package."""


class SheetcalcError(Exception):
    """Base class for all errors raised by this package."""


class ConfigurationError(SheetcalcError):
    """Invalid parameters: bad grid steps, malformed config, off-grid lags."""


class ShapeError(SheetcalcError):
    """Operands with incompatible lattice shapes or missing operands."""


class ModelError(SheetcalcError):
    """Model callbacks inconsistent with their declared derivatives or symmetry."""


class NumericsError(SheetcalcError):
    """Non-finite value produced inside the solution domain.

    Carries the lattice cell where the failure was first detected and, for
    batched work, the path as a tuple of batch indices (the block runner in
    `verify` rebases the leading index to the global path).
    """

    def __init__(self, message, cell=None, path=None):
        super().__init__(message)
        self.cell = cell
        self.path = path


class DegenerateDataError(SheetcalcError):
    """Regression input with no usable variation (all-zero moments)."""
