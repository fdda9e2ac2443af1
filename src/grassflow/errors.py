"""Exception types shared across the solver suite."""


class GrassflowError(Exception):
    """Base class for all solver-suite errors."""


class ConfigError(GrassflowError):
    """A precondition on the configuration or call arguments is violated."""


class Breakdown(GrassflowError):
    """A projection lost invertibility.  ``det_value`` is the determinant
    (or scalar weight, or Jacobian) that vanished, ``location`` the point
    where it did and ``t`` the time, each None when the raiser has none."""

    def __init__(self, message, det_value=None, location=None, t=None):
        super().__init__(message)
        self.det_value = det_value
        self.location = location
        self.t = t


class SingularSystem(Breakdown):
    """Dense linear solve hit a pivot below the relative floor."""


class ChartBreakdown(Breakdown):
    """The determinant of Q crossed the invertibility threshold:
    the current coordinate patch is no longer usable."""


class BlowupAtTime(Breakdown):
    """Finite-time breakdown: q (or I + t*pi) lost invertibility."""


class VolterraBreakdown(Breakdown):
    """A triangular Volterra solve lost its system: ``backward_error``,
    max|residual| / max|p| of the solution put back into p's equation,
    passed the bound."""

    def __init__(self, message, backward_error):
        super().__init__(message)
        self.backward_error = backward_error


class IntegrationBlowup(GrassflowError):
    """A time-stepped field became non-finite; ``step`` is the first step
    known to be non-finite."""

    def __init__(self, message, step=None):
        super().__init__(message)
        self.step = step


class SymbolError(GrassflowError):
    """Dispersion symbol fails the skew (purely imaginary) requirement."""


class ShockProximity(Breakdown):
    """Characteristic inversion approached a vanishing Jacobian."""


class NewtonDivergence(GrassflowError):
    """Newton iteration failed to converge within the iteration cap."""
