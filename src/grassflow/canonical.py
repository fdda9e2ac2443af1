"""Base/Riccati machinery on finite-dimensional surrogates.

The canonical linear system

    Qdot = A Q + B P,     Pdot = C Q + D P,     P = G Q

is integrated here at matrix scale, and the Riccati defect of its graph
G is measured.
"""

from dataclasses import dataclass

import numpy as np

from .core import march, rk4_step
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


def linear_flow(generator, y0, s0: float, ds: float, steps: int) -> np.ndarray:
    """RK4 trajectory, shape (steps + 1, *y0.shape), of the linear flow
    y' = generator(s) y from y0 at s0 in steps of ds, marched by
    core.march, which raises IntegrationBlowup on a non-finite state."""
    if steps < 1:
        raise ConfigError("steps must be >= 1")
    rhs = lambda s, y: generator(s) @ y
    ys = march(lambda m, y: rk4_step(rhs, y, s0 + m * ds, ds),
               np.asarray(y0), steps, range(steps + 1))
    return np.stack(list(ys.values()))


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

