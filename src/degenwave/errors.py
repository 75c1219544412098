"""Exception types shared across the package."""


class DegenwaveError(Exception):
    """Base class for all errors raised by degenwave."""


class OutOfRangeError(DegenwaveError):
    """A function was queried outside its covered argument range."""


class CoverageError(DegenwaveError):
    """A model function does not cover the range required by the data.

    ``function`` names it: ``"phi"`` or ``"g"``.
    """

    def __init__(self, function: str, message: str):
        self.function = function
        super().__init__(message)


class GridMismatchError(DegenwaveError):
    """Two fields that must share a grid live on different grids."""


class BandError(DegenwaveError):
    """An operation received an empty or violated band [a, b]."""


class MeanOutOfBandError(DegenwaveError):
    """The mean that must be representable inside a band lies outside it."""


class CflViolationError(DegenwaveError):
    """A time step exceeds the monotonicity (CFL) constraint."""


class UnsupportedTestFnError(DegenwaveError):
    """A space-time test bump is not admissible for the residual quadrature."""


class SchemaError(DegenwaveError):
    """A scenario configuration violates the schema.

    ``path`` is a JSON-pointer-style location of the offending entry.
    """

    def __init__(self, path: str, message: str):
        self.path = path
        self.message = message
        super().__init__(f"{path}: {message}")

