"""Exception types shared across the toolkit."""


class SvddError(Exception):
    """Base class for all svddpeak errors."""


class InputError(SvddError):
    """Invalid argument or malformed input data."""


class DimensionError(InputError):
    """Operands have incompatible dimensions."""


class ParseError(InputError):
    """A data file could not be parsed."""

    def __init__(self, message, line_number=None):
        super().__init__(message)
        self.line_number = line_number


class DegenerateInputError(InputError):
    """Input is structurally valid but degenerate for the operation."""


class ConvergenceError(SvddError):
    """The solver hit its iteration cap; carries the best iterate found."""

    def __init__(self, message, alphas=None, kkt_residual=None, iterations=None):
        super().__init__(message)
        self.alphas = alphas
        self.kkt_residual = kkt_residual
        self.iterations = iterations


class NumericalError(SvddError):
    """A numerical routine failed or produced an inconsistent result."""


class SweepError(SvddError):
    """A bandwidth sweep failed; carries the offending bandwidth."""

    def __init__(self, message, s=None):
        super().__init__(message)
        self.s = s


class NoPeakFoundError(SvddError):
    """No zero plateau of the required length exists on the sweep grid.

    Carries the objective curve, the pointwise zero-mask and the smooth
    fit of its second derivative so the caller can inspect or export the
    diagnostics; the message names the closest near-plateau.
    """

    def __init__(self, message, zero_mask=None, fit=None, curve=None):
        super().__init__(message)
        self.curve = curve
        self.zero_mask = zero_mask
        self.fit = fit
