"""Exception hierarchy for the band-gap atom-pair simulator.

Every numerical failure raised by this package derives from
:class:`PbgpairError` so the command-line layer can map it to a single
exit code.
"""


class PbgpairError(Exception):
    """Base class for all package errors."""


class ConfigError(PbgpairError):
    """Base class for configuration and input validation errors."""


class NormalizationError(ConfigError):
    """Initial amplitudes are not unit-norm."""


class InconsistentDetunings(ConfigError):
    """omega1c - omega2c does not equal omega12 within tolerance."""


class DomainError(ConfigError):
    """A parameter lies outside its admissible domain."""


class UnknownPreset(ConfigError):
    """Requested preset name is not in the table."""


class ParseError(ConfigError):
    """A configuration file could not be parsed; carries the line number."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class NumericalError(PbgpairError):
    """Base class for numerical failures inside the engines."""


class BranchPointError(NumericalError):
    """Kernel evaluated exactly at its square-root branch point."""


class SingularSystem(NumericalError):
    """The transform-domain linear system is singular (x is a pole)."""


class DegeneratePole(NumericalError):
    """A double root: two sheet roots of the symmetric determinant closer
    than poles.DOUBLE_ROOT_TOL in S, which the closed form cannot invert."""


class CompletenessError(NumericalError):
    """The t -> 0+ limit of the inversion misses the initial amplitudes."""


class QuadratureError(NumericalError):
    """Adaptive quadrature could not reach the requested error estimate."""


class DiscretizationError(NumericalError):
    """Discrete bath failed to reproduce the transform-domain kernel."""


class RecurrenceHorizonExceeded(NumericalError):
    """Requested integration time exceeds the discrete-bath recurrence time."""


class StepSizeError(NumericalError):
    """The oracle lost its accuracy: a secular equation has no sign change
    beyond the outer poles or does not converge, or the atomic parts of its
    eigenvectors miss unit weight beyond tolerance (the weight defect)."""


class NormError(NumericalError):
    """Atomic amplitudes exceed unit total probability."""
