"""Exception types shared across the package."""


class FramescaleError(Exception):
    """Base class for all errors raised by framescale."""


class NonFiniteError(FramescaleError):
    """Input contains NaN or infinity, or a frame vector whose squares leave
    the range of floats."""


class DimensionMismatchError(FramescaleError):
    """Operands have inconsistent shapes."""


class NotSpanningError(FramescaleError):
    """Vector system does not span R^n."""


class ZeroVectorError(FramescaleError):
    """A frame vector is the zero vector."""


class DimensionTooSmallError(FramescaleError):
    """A diagram vector requires ambient dimension n >= 2."""


class NotUnitNormError(FramescaleError):
    """Operation requires a unit-norm frame."""


class CorankMismatchError(FramescaleError):
    """Rank hypothesis of the requested method is not satisfied."""


class NotParsevalScalingError(FramescaleError):
    """Supplied weights do not produce a Parseval frame."""


class SingularTransformError(FramescaleError):
    """Transform matrix is not invertible."""


class NoHadamardAvailableError(FramescaleError):
    """No Hadamard matrix of the requested order can be generated."""


class BadParamsError(FramescaleError):
    """Invalid parameters for a generator or an invalid command-line tolerance."""


class InternalNumericError(FramescaleError):
    """A self-check of a computed witness or certificate failed."""


class ParseError(FramescaleError):
    """Frame document could not be parsed."""

    def __init__(self, message, line=None, col=None):
        loc = ""
        if line is not None:
            loc = f" (line {line}" + (f", column {col}" if col is not None else "") + ")"
        super().__init__(message + loc)
        self.line = line
        self.col = col
