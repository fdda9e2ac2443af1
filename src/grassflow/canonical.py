"""Base/Riccati machinery on finite-dimensional surrogates.

The canonical linear system

    Qdot = A Q + B P,     Pdot = C Q + D P,     P = G Q

has its coefficient blocks here, and the Riccati defect of its graph G
is measured.  Each pipeline evolves its own base flow in closed form.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError


@dataclass(frozen=True)
class CanonicalCoefficients:
    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray

    def __post_init__(self):
        shapes = {np.asarray(m).shape for m in (self.A, self.B, self.C, self.D)}
        if len(shapes) != 1:
            raise ConfigError("coefficient blocks must share one shape")
        for m in (self.A, self.B, self.C, self.D):
            if not np.all(np.isfinite(np.asarray(m, dtype=complex))):
                raise ConfigError("coefficient blocks must be finite")


def riccati_residual(coeffs: CanonicalCoefficients, g_samples, dt: float) -> float:
    """Sup-norm defect of Gdot = C + D G - G (A + B G), central differences
    over the stacked equispaced samples.  The blocks are (n, n), or
    (m - 2, n, n) when read at each of the m - 2 interior samples."""
    g = np.asarray(g_samples)
    if len(g) < 3:
        raise ConfigError("need at least 3 equispaced G samples")
    gi = g[1:-1]
    defect = (g[2:] - g[:-2]) / (2.0 * dt) - coeffs.C - coeffs.D @ gi \
        + gi @ (coeffs.A + coeffs.B @ gi)
    return float(np.max(np.abs(defect)))

