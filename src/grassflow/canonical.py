"""Base/Riccati machinery on finite-dimensional surrogates.

The canonical linear system

    Qdot = A Q + B P,     Pdot = C Q + D P,     P = G Q

is integrated here at matrix scale, together with the additive-kernel
Fredholm solver used by the KdV/NLS pipelines and a numerical check of the
product rule for serial compositions of additive operators.
"""

from dataclasses import dataclass

import numpy as np

from .core import (DenseSystem, Grid1D, QuadratureRule, march, rk4_step,
                   solve_dense)
from .errors import (ChartBreakdown, ConfigError, SingularSystem,
                     TraceRangeError)

CHART_DET_THRESHOLD = 1e-10


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


@dataclass
class BaseState:
    Q: np.ndarray
    P: np.ndarray
    t: float = 0.0


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


def integrate_base(coeffs: CanonicalCoefficients, initial: BaseState,
                   t: float, steps: int) -> BaseState:
    """Advance (Q, P) with classical fixed-step RK4."""
    if steps < 1:
        raise ConfigError("steps must be >= 1")
    block = np.block([[coeffs.A, coeffs.B], [coeffs.C, coeffs.D]])
    n = block.shape[0] // 2
    y0 = np.vstack((initial.Q, initial.P))
    y = linear_flow(lambda s: block, y0, initial.t, (t - initial.t) / steps,
                    steps)[-1]
    return BaseState(Q=y[:n], P=y[n:], t=t)


def integrate_base_exact(coeffs: CanonicalCoefficients, initial: BaseState,
                         t: float) -> BaseState:
    """Matrix-exponential solution for constant coefficients (oracle)."""
    from scipy.linalg import expm

    A, B = np.asarray(coeffs.A), np.asarray(coeffs.B)
    C, D = np.asarray(coeffs.C), np.asarray(coeffs.D)
    block = np.block([[A, B], [C, D]])
    n = A.shape[0]
    y0 = np.concatenate([np.atleast_2d(initial.Q), np.atleast_2d(initial.P)], axis=0)
    y = expm((t - initial.t) * block) @ y0
    return BaseState(Q=y[:n], P=y[n:], t=t)


def graph_solve(q, p, floor: float, error, location=None, t=None):
    """G = P Q^{-1} from one LU of Q^T.  A pivot below the solve's floor,
    or |det Q| below ``floor``, raises ``error`` carrying det Q, location
    and t."""
    # solve G Q = P as Q^T G^T = P^T
    try:
        gt, det = solve_dense(DenseSystem(q.T, p.T), with_det=True)
    except SingularSystem as exc:
        raise error(str(exc), det_value=exc.det_value, location=location,
                    t=t) from exc
    if abs(det) < floor:
        raise error(f"|det Q| = {abs(det):.3e} below {floor}",
                    det_value=det, location=location, t=t)
    return gt.T


def riccati_project(state: BaseState) -> np.ndarray:
    """G = P Q^{-1}; raises ChartBreakdown when Q leaves the chart."""
    return graph_solve(np.atleast_2d(state.Q), np.atleast_2d(state.P),
                       CHART_DET_THRESHOLD, ChartBreakdown, location=state.t)


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


# ---------------------------------------------------------------------------
# additive (Hankel) kernel traces


@dataclass
class AdditiveKernelTrace:
    """Samples of a one-argument kernel r(.) inducing an additive operator.

    The action is (R psi)(y; x) = int r(y + z + x) psi(z) dz over the
    truncated half-line.  Arguments outside the sampled interval evaluate
    to zero unless ``zero_extension`` is disabled.  Evaluations take the
    samples' dtype, float at least.
    """

    grid: Grid1D
    values: np.ndarray
    zero_extension: bool = True

    def __call__(self, points):
        pts = np.asarray(points, dtype=float)
        h = self.grid.spacing
        idx = (pts - self.grid.lower) / h
        near = np.rint(idx)
        on_node = np.abs(idx - near) < 1e-9
        vals = np.asarray(self.values)
        out = np.zeros(pts.shape, dtype=np.result_type(vals, float))
        inside = (near >= 0) & (near <= self.grid.n - 1)
        if not self.zero_extension and not np.all(inside):
            raise TraceRangeError("trace queried outside sampled interval")
        # node hits dominate; off-node interior points interpolate linearly
        take = inside & on_node
        out[take] = vals[near[take].astype(int)]
        off = inside & ~on_node
        if np.any(off):
            lo = np.clip(np.floor(idx[off]).astype(int), 0, self.grid.n - 2)
            frac = idx[off] - lo
            out[off] = (1 - frac) * vals[lo] + frac * vals[lo + 1]
        return out


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


def solve_additive_fredholm(p_trace, qhat, zgrid: Grid1D, x: float,
                            quadrature: str = "riemann-left",
                            full_kernel: bool = False):
    """Solve  p(z + x) = g(0, z) + int g(0, xi) qhat(xi, z) w(xi) dxi.

    ``p_trace`` is callable at shifted nodes; ``qhat`` is a callable
    (xi, z) -> value, vectorised over its arguments (for the KdV case it is
    the additive evaluation qhat(xi + z + x)).  Returns (g_row, det_track)
    as :func:`solve_fredholm_system` does.  With ``full_kernel`` the whole
    matrix g(y, z) is solved instead of just the y = 0 row.
    """
    rule = QuadratureRule.for_scheme(zgrid, quadrature)
    nodes, w = rule.nodes, rule.weights
    kmat = np.asarray(qhat(nodes[:, None], nodes[None, :]))
    args = nodes[:, None] + nodes[None, :] if full_kernel else nodes
    rhs = np.asarray(p_trace(args + x))
    g, det_track = solve_fredholm_system(kmat, rhs.T, w, x)
    return g.T, det_track


def fredholm_residual(p_trace, qhat, zgrid: Grid1D, x: float, g_row,
                      quadrature: str = "riemann-left") -> float:
    """Discrete residual of the solved Fredholm equation (should be ~1e-10)."""
    rule = QuadratureRule.for_scheme(zgrid, quadrature)
    nodes, w = rule.nodes, rule.weights
    kmat = np.asarray(qhat(nodes[:, None], nodes[None, :]), dtype=complex)
    lhs = np.asarray(p_trace(nodes + x), dtype=complex)
    rhs = g_row + (w[None, :] * kmat.T) @ g_row
    return float(np.max(np.abs(lhs - rhs)))


# ---------------------------------------------------------------------------
# product rule check


def compose(f: np.ndarray, g: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Operator composition by quadrature: (F G)(y,z) = sum f(y,xi) g(xi,z) w."""
    return f @ (weights[:, None] * g)


def delta_kernel(weights: np.ndarray) -> np.ndarray:
    """Kernel whose quadrature composition acts as the identity."""
    if np.any(weights == 0):
        raise ConfigError("delta discretisation needs strictly positive weights")
    return np.diag(1.0 / weights)


def product_rule_check(f_kernel, r_trace: AdditiveKernelTrace,
                       rp_trace: AdditiveKernelTrace, fp_kernel,
                       zgrid: Grid1D, x: float, dx: float,
                       quadrature: str = "trapezoid") -> float:
    """|<F d/dx (R R') F'> - <F R><R' F'>| at parameter x.

    d/dx is a central difference with step dx; all compositions use the
    grid quadrature.  Vanishes at second order in (grid spacing, dx).
    """
    rule = QuadratureRule.for_scheme(zgrid, quadrature)
    nodes, w = rule.nodes, rule.weights
    for trace in (r_trace, rp_trace):
        if not (trace.grid.lower <= x - dx and x + dx <= trace.grid.upper):
            raise TraceRangeError("x stencil leaves the sampled trace range")

    def rr(at):
        rm = r_trace(nodes[:, None] + nodes[None, :] + at)
        rpm = rp_trace(nodes[:, None] + nodes[None, :] + at)
        return compose(rm, rpm, w)

    d_rr = (rr(x + dx) - rr(x - dx)) / (2.0 * dx)
    lhs_kernel = compose(compose(f_kernel, d_rr, w), fp_kernel, w)
    # observation functional reads the kernel at (0, 0): the grid's last node
    i0 = zgrid.n - 1
    lhs = lhs_kernel[i0, i0]

    fr = compose(f_kernel, r_trace(nodes[:, None] + nodes[None, :] + x), w)
    rpfp = compose(rp_trace(nodes[:, None] + nodes[None, :] + x), fp_kernel, w)
    rhs = fr[i0, i0] * rpfp[i0, i0]
    return float(abs(lhs - rhs))
