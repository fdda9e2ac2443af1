"""Exception types shared across the solver suite."""


class GrassflowError(Exception):
    """Base class for all solver-suite errors."""


class ConfigError(GrassflowError):
    """A precondition on the configuration or call arguments is violated."""


class SingularSystem(GrassflowError):
    """Dense linear solve hit a pivot below the relative floor."""

    def __init__(self, message, det_value=None):
        super().__init__(message)
        self.det_value = det_value


class ChartBreakdown(GrassflowError):
    """The determinant of Q crossed the invertibility threshold:
    the current coordinate patch is no longer usable.  ``t`` is the time
    of the breakdown when the run has one."""

    def __init__(self, message, det_value=None, location=None, t=None):
        super().__init__(message)
        self.det_value = det_value
        self.location = location
        self.t = t


class BlowupAtTime(GrassflowError):
    """Finite-time breakdown: q (or I + t*pi) lost invertibility."""


class IntegrationBlowup(GrassflowError):
    """A time-stepped field became non-finite."""


class DomainError(GrassflowError):
    """Input outside the mathematical domain of the formula."""


class SymbolError(GrassflowError):
    """Dispersion symbol fails the skew (purely imaginary) requirement."""


class TraceRangeError(GrassflowError):
    """Additive-kernel trace queried outside its sampled interval with
    zero-extension disabled."""


class ShockProximity(GrassflowError):
    """Characteristic inversion approached a vanishing Jacobian."""

    def __init__(self, message, jacobian_det=None, point=None):
        super().__init__(message)
        self.jacobian_det = jacobian_det
        self.point = point


class NewtonDivergence(GrassflowError):
    """Newton iteration failed to converge within the iteration cap."""
