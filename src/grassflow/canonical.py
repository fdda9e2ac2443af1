"""Base/Riccati machinery on finite-dimensional surrogates.

The canonical linear system

    Qdot = A Q + B P,     Pdot = C Q + D P,     P = G Q

is integrated here at matrix scale, together with the per-x Fredholm
solve used by the KdV/NLS pipelines.
"""

from dataclasses import dataclass

import numpy as np

from .core import DenseSystem, march, rk4_step, solve_dense
from .errors import ChartBreakdown, ConfigError, SingularSystem


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


def solve_fredholm_system(kmat, rhs, weights, x: float):
    """Solve  rhs(z) = g(0, z) + sum_xi g(0, xi) kmat[xi, z] w(xi)  at one x
    (``rhs`` a vector, or a matrix of columns).  Returns (g, det_track), the
    solve and det(I + K W) = det(I + K^T W) from one LU; a singular system
    raises ChartBreakdown at ``x`` carrying that determinant."""
    # row i is the equation at z_i; column j weights the unknown g(0, xi_j);
    # I + K^T W is built in place, one n x n array per x, in K's dtype
    a = np.empty((len(weights),) * 2, dtype=np.result_type(kmat, weights))
    np.multiply(weights[None, :], kmat.T, out=a)
    a[np.diag_indices_from(a)] += 1.0
    try:
        return solve_dense(DenseSystem(a, rhs), with_det=True)
    except SingularSystem as exc:
        raise ChartBreakdown(str(exc), det_value=exc.det_value,
                             location=x) from exc
