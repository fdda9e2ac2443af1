"""Solvers for nonlinear PDEs via linear base flows and Fredholm/Riccati
projection, cross-validated against independent direct integrators."""

__version__ = "0.1.0"

from .core import Grid1D
from .errors import (GrassflowError, ConfigError, Breakdown, SingularSystem,
                     ChartBreakdown, BlowupAtTime, IntegrationBlowup,
                     SymbolError, ShockProximity, NewtonDivergence)
