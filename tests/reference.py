"""Reference code that more than one test file compares the package with.

None of it runs in a pipeline: the generic, callable-driven Fredholm
solver the KdV/NLS projections are checked against, with the left-endpoint
weights its hand-solved systems are built on, the same projection
one x at a time, the Nystrom solve on Gauss-Legendre nodes written out
point by point, the first-order KdV split step that ETDRK4 is held to,
the graph G = P Q^{-1} of a base pair with the Riccati
subflow built on it and its RK4 oracle, the matrix-exponential base flow,
the central first difference of the residual checks, the node-by-node
Volterra loops with their long-double twin, the np.roll upwind loop, and
the spde Poppe accumulation panel by panel; and the reader of the CLI's
tables by column name.
"""

from dataclasses import dataclass

import numpy as np

from grassflow.core import (DenseSystem, Grid1D, dft_forward, march,
                            quadrature_weights, solve_dense)
from grassflow.errors import BlowupAtTime, ConfigError, SingularSystem
from grassflow.graphflows import CFL
from grassflow.integrable import GAUSS_NODES, half_line_grid
from grassflow.spde import (TWO_PI, Field2D, PoppeResult, exact_base_modes,
                            mode_numbers)


# ---------------------------------------------------------------------------
# the generic Fredholm solver on additive (Hankel) kernel traces


def solve_fredholm_system(kmat, rhs, weights):
    """Solve  rhs(z) = g(0, z) + sum_xi g(0, xi) kmat[xi, z] w(xi)  at one x
    (``rhs`` a vector, or a matrix of columns).  Returns (g, det_track), the
    solve and det(I + K W) = det(I + K^T W) from one LU; a singular system
    raises SingularSystem carrying that determinant."""
    # row i is the equation at z_i; column j weights the unknown g(0, xi_j)
    a = np.empty((len(weights),) * 2, dtype=np.result_type(kmat, weights))
    np.multiply(weights[None, :], kmat.T, out=a)
    a[np.diag_indices_from(a)] += 1.0
    return solve_dense(DenseSystem(a, rhs))


@dataclass
class AdditiveKernelTrace:
    """Samples of a one-argument kernel r(.) inducing an additive operator.

    The action is (R psi)(y; x) = int r(y + z + x) psi(z) dz over the
    truncated half-line.  Arguments outside the sampled interval evaluate
    to zero.  Evaluations take the samples' dtype, float at least.
    """

    grid: Grid1D
    values: np.ndarray

    def __call__(self, points):
        pts = np.asarray(points, dtype=float)
        h = self.grid.spacing
        idx = (pts - self.grid.lower) / h
        near = np.rint(idx)
        on_node = np.abs(idx - near) < 1e-9
        vals = np.asarray(self.values)
        out = np.zeros(pts.shape, dtype=np.result_type(vals, float))
        inside = (near >= 0) & (near <= self.grid.n - 1)
        # node hits dominate; off-node interior points interpolate linearly
        take = inside & on_node
        out[take] = vals[near[take].astype(int)]
        off = inside & ~on_node
        if np.any(off):
            lo = np.clip(np.floor(idx[off]).astype(int), 0, self.grid.n - 2)
            frac = idx[off] - lo
            out[off] = (1 - frac) * vals[lo] + frac * vals[lo + 1]
        return out


def left_endpoint_weights(grid: Grid1D) -> np.ndarray:
    """The left Riemann sum on a closed grid: the spacing at every node but
    the last, which has weight 0."""
    w = np.full(grid.n, grid.spacing)
    w[-1] = 0.0
    return w


def solve_additive_fredholm(p_trace, qhat, zgrid: Grid1D, x: float,
                            weights=quadrature_weights,
                            full_kernel: bool = False):
    """Solve  p(z + x) = g(0, z) + int g(0, xi) qhat(xi, z) w(xi) dxi.

    ``p_trace`` is callable at shifted nodes; ``qhat`` is a callable
    (xi, z) -> value, vectorised over its arguments (for the KdV case it is
    the additive evaluation qhat(xi + z + x)); w is ``weights(zgrid)``.
    Returns (g_row, det_track) as solve_fredholm_system does.  With
    ``full_kernel`` the whole matrix g(y, z) is solved instead of just the
    y = 0 row.
    """
    nodes, w = zgrid.nodes, weights(zgrid)
    kmat = np.asarray(qhat(nodes[:, None], nodes[None, :]))
    args = nodes[:, None] + nodes[None, :] if full_kernel else nodes
    rhs = np.asarray(p_trace(args + x))
    g, det_track = solve_fredholm_system(kmat, rhs.T, w)
    return g.T, det_track


def one_x_hankel(samples, grid: Grid1D, quadrature: str,
                 m: int = GAUSS_NODES):
    """The weights of ``quadrature`` and x_i's Hankel matrix as a function
    of i, built on its own.

    ``trapezoid`` reads H[a, b] = p(y_a + z_b + x) on the half-line grid
    from the doubled sample window.  ``gauss-legendre`` sums the
    trigonometric interpolant on the m Gauss nodes of [-L/2, 0] and z = 0
    as H = E diag(c e^{-2 pi i k x}) E^T, the Nyquist mode split into
    half-modes at +-k_N; real samples keep the k >= 0 half, doubled, and
    the real part."""
    if quadrature == "trapezoid":
        zgrid = half_line_grid(grid)
        doubled = np.tile(samples, 2)
        ab = np.add.outer(np.arange(zgrid.n), np.arange(zgrid.n))
        return quadrature_weights(zgrid), lambda i: doubled[ab + i]
    nodes, weights = np.polynomial.legendre.leggauss(m)
    quarter = grid.length / 4
    eta = np.append(quarter * (nodes - 1.0), 0.0)
    k = np.fft.fftfreq(grid.n, d=grid.spacing)
    c = dft_forward(samples, grid) / grid.length
    nyq = grid.n // 2
    c[nyq] *= 0.5
    k, c = np.append(k, -k[nyq]), np.append(c, c[nyq])
    real = np.isrealobj(samples)
    if real:
        half = k >= 0
        k, c = k[half], np.where(k[half] > 0, 2.0, 1.0) * c[half]
    e = np.exp(-2j * np.pi * np.outer(eta, k))

    def hankel(i):
        h = (e * (c * np.exp(-2j * np.pi * k * grid.nodes[i]))) @ e.T
        return h.real if real else h

    return np.append(quarter * weights, 0.0), hankel


def project_one_x_at_a_time(samples, grid: Grid1D, quadrature: str,
                            quadratic=False):
    """Values, dets and breakdown x of the Fredholm projection of the trace
    ``samples``, one x at a time: each x's matrix from
    :func:`one_x_hankel`, its kernel H (or with ``quadratic`` H^H W H)
    and one solve_fredholm_system."""
    w, hankel = one_x_hankel(samples, grid, quadrature)
    values = np.full(grid.n, np.nan, dtype=samples.dtype)
    dets = np.empty(grid.n, dtype=samples.dtype)
    broken = []
    for i, x in enumerate(grid.nodes):
        h = hankel(i)
        kmat = np.conj(h).T @ (w[:, None] * h) if quadratic else h
        try:
            g, dets[i] = solve_fredholm_system(kmat, h[:, -1], w)
        except SingularSystem as exc:
            dets[i] = exc.det_value
            broken.append(float(x))
            continue
        values[i] = g[-1]
    return values, dets, broken


def trig_interpolant(samples, grid: Grid1D):
    """The trigonometric interpolant of periodic ``samples`` on ``grid``, a
    callable evaluated point by point as a direct sum over the modes
    c_k = (h / L) sum_j f_j e^{2 pi i k x_j}, each carrying e^{-2 pi i k y};
    on an even grid the Nyquist term is c_N cos(2 pi k_N y).  Real samples
    give its real part."""
    n, length = grid.n, grid.length
    k = np.fft.fftfreq(n, d=grid.spacing)
    c = np.array([grid.spacing / length
                  * np.sum(samples * np.exp(2j * np.pi * kk * grid.nodes))
                  for kk in k])
    nyq = n // 2 if n % 2 == 0 else None

    def p(y):
        total = 0.0
        for j in range(n):
            if j == nyq:
                total += c[j] * np.cos(2 * np.pi * k[j] * y)
            else:
                total += c[j] * np.exp(-2j * np.pi * k[j] * y)
        return total.real if np.isrealobj(samples) else total

    return np.vectorize(p, otypes=[samples.dtype])


def nystrom_fredholm(samples, grid: Grid1D, m: int, quadratic=False):
    """Values and dets of the Nystrom solve of
    p(z + x) = g(z) + int_{-L/2}^0 g(xi) K(xi, z) dxi  at each x of
    ``grid``, on the m Gauss-Legendre nodes xi_j of [-L/2, 0] with weights
    w_j.  K(xi, z) is p(xi + z + x), or with ``quadratic``
    sum_k w_k p*(eta_k + xi + x) p(eta_k + z + x).  The m x m system
    I + K^T W is solved by numpy, and g(0) is the interpolant
    p(x) - sum_j w_j g(xi_j) K(xi_j, 0)."""
    p = trig_interpolant(samples, grid)
    t, wt = np.polynomial.legendre.leggauss(m)
    half = grid.length / 4
    xi, w = half * (t - 1.0), half * wt
    zs = np.append(xi, 0.0)  # the nodes, then z = 0
    values, dets = [], []
    for x in grid.nodes:
        if quadratic:
            rows = p(xi[:, None] + zs[None, :] + x)  # rows[k, j]: eta_k, z_j
            kmat = np.einsum("k,ki,kj->ij", w, np.conj(rows), rows)
        else:
            kmat = p(zs[:, None] + zs[None, :] + x)
        a = np.eye(m) + kmat[:m, :m].T * w[None, :]
        g = np.linalg.solve(a, p(xi + x))
        values.append(p(x) - np.sum(w * g * kmat[:m, m]))
        dets.append(np.linalg.det(a))
    return np.array(values), np.array(dets)


# ---------------------------------------------------------------------------
# the independent KdV oracle


def split_step_kdv(u0, grid: Grid1D, dt: float, steps: int, checkpoints=None):
    """First-order split step of u_t = u_xxx + 3 (u_x)^2:
    v = exp(dt K^3) u;  u <- v + 3 dt F((F^-1 K v)^2),  K = 2 pi i k.

    Real field on its rfft half-spectrum, K = 0 at an even grid's Nyquist
    mode.  The spectrum is written out here, apart from etdrk4_kdv's, so
    that a fault in either shows when the two are compared.  Returns the
    final samples, or a dict {step: samples} when ``checkpoints`` (an
    iterable of step indices) is given.
    """
    if dt <= 0:
        raise ConfigError("dt must be positive")
    n = grid.n
    kmat = 2j * np.pi * np.fft.rfftfreq(n, d=grid.spacing)
    if n % 2 == 0:
        kmat[-1] = 0.0
    e = np.exp(dt * kmat ** 3)

    def advance(m, uhat):
        v = e * uhat
        ux = np.fft.irfft(kmat * v, n)
        return v + dt * (3.0 * np.fft.rfft(ux * ux))

    return march(advance, np.fft.rfft(np.asarray(u0, dtype=float)), steps,
                 checkpoints, lambda v: np.fft.irfft(v, n))


# ---------------------------------------------------------------------------
# the Grassmannian step at matrix scale


def integrate_base_exact(coeffs, q, p, t: float):
    """(Q, P) at t from (q, p) at 0: the matrix exponential of the constant
    block [[A, B], [C, D]]."""
    from scipy.linalg import expm

    A, B = np.asarray(coeffs.A), np.asarray(coeffs.B)
    C, D = np.asarray(coeffs.C), np.asarray(coeffs.D)
    block = np.block([[A, B], [C, D]])
    n = A.shape[0]
    y0 = np.concatenate([np.atleast_2d(q), np.atleast_2d(p)], axis=0)
    y = expm(t * block) @ y0
    return y[:n], y[n:]


def graph_solve(q, p, floor: float, error, location=None, t=None):
    """G = P Q^{-1} from one LU of Q^T.  A pivot below the solve's floor,
    or |det Q| below ``floor``, raises ``error`` carrying det Q, location
    and t."""
    # solve G Q = P as Q^T G^T = P^T
    try:
        gt, det = solve_dense(DenseSystem(q.T, p.T))
    except SingularSystem as exc:
        raise error(str(exc), det_value=exc.det_value, location=location,
                    t=t) from exc
    if abs(det) < floor:
        raise error(f"|det Q| = {abs(det):.3e} below {floor}",
                    det_value=det, location=location, t=t)
    return gt.T


def riccati_subflow(pi0: np.ndarray, t: float) -> np.ndarray:
    """pi(t) = pi0 (I + t pi0)^{-1}, the matrix solution of pi' = -pi^2."""
    pi0 = np.atleast_2d(np.asarray(pi0, dtype=float))
    # the graph of the base pair Q = I + t pi0, P = pi0
    return graph_solve(np.eye(pi0.shape[0]) + t * pi0, pi0, 1e-12,
                       BlowupAtTime, t=t)


def riccati_rk4(pi0: np.ndarray, t: float, steps: int) -> np.ndarray:
    """Classical RK4 of pi' = -pi^2 from pi0, written out by hand."""
    pi = pi0.copy()
    dt = t / steps
    for _ in range(steps):
        k1 = -pi @ pi
        y2 = pi + 0.5 * dt * k1
        k2 = -y2 @ y2
        y3 = pi + 0.5 * dt * k2
        k3 = -y3 @ y3
        y4 = pi + dt * k3
        k4 = -y4 @ y4
        pi = pi + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    return pi


# ---------------------------------------------------------------------------
# finite-difference residuals


def ddx(u, h):
    """Periodic second-order central first difference."""
    return (np.roll(u, -1) - np.roll(u, 1)) / (2.0 * h)


# ---------------------------------------------------------------------------
# the per-node loops the Volterra solve and the upwind oracle replaced


def volterra_loop(p, qv, h):
    """volterra_project's former forward substitution, one np.dot a node."""
    n = len(p)
    ref = np.zeros(n)
    ref[0] = p[0]
    for i in range(1, n):
        ref[i] = p[i] - h * np.dot(ref[:i], qv[i:0:-1])
    return ref


def deconvolve_loop(p, qv, h):
    """deconvolve's former forward substitution, last node extrapolated."""
    n = len(p)
    ref = np.zeros(n)
    for i in range(1, n):
        acc = np.dot(ref[:i - 1], qv[i:1:-1]) if i > 1 else 0.0
        ref[i - 1] = (p[i] / h - acc) / qv[1]
    ref[n - 1] = 2 * ref[n - 2] - ref[n - 3]
    return ref


def forward_substitute_longdouble(b, c, s, c0):
    """c0 g_i + s sum_{j<i} g_j c_{i-j} = b_i node by node in np.longdouble,
    from the float64 data: the exact answer to well past float64."""
    b = np.asarray(b, dtype=np.longdouble)
    c = np.asarray(c, dtype=np.longdouble)
    s, c0 = np.longdouble(s), np.longdouble(c0)
    g = np.zeros(len(b), dtype=np.longdouble)
    for i in range(len(b)):
        g[i] = (b[i] - s * np.dot(g[:i], c[i:0:-1])) / c0
    return g


def upwind_roll(pi0_samples, h, t):
    """upwind_oracle's former step, its differences taken by np.roll."""
    u = np.asarray(pi0_samples, dtype=float).copy()
    elapsed = 0.0
    while elapsed < t:
        speed = np.max(np.abs(u))
        dt = min(CFL * h / max(speed, 1e-12), t - elapsed)
        back = (u - np.roll(u, 1)) / h
        fwd = (np.roll(u, -1) - u) / h
        u = u - dt * u * np.where(u > 0, back, fwd)
        elapsed += dt
    return u


def spde_poppe_loop(g0, params, sheet, panels):
    """spde_poppe_run's former accumulation: qhat, its system and the
    system's determinant rebuilt in each panel."""
    n = g0.n
    k = mode_numbers(n)
    tf = sheet.t_final
    times = np.linspace(0.0, tf, panels + 1)
    weights = quadrature_weights(Grid1D(0.0, tf, panels + 1))
    qhat = np.zeros((n, n), dtype=complex)
    dets = np.empty(panels + 1)
    neg = (-np.arange(n)) % n
    w = sheet.cumulative(panels)
    for j, s in enumerate(times):
        p_s = exact_base_modes(g0, params, w[j], s)
        decay = np.exp(params.beta * k ** 2 * (tf - s))
        qhat += weights[j] * params.epsilon * decay[:, None] * p_s
        # p = g o (delta + qhat)  =>  P = G (I + 2 pi J Qhat) in mode matrices
        system = np.eye(n, dtype=complex) + TWO_PI * qhat[neg, :]
        dets[j] = abs(np.linalg.det(system))
    try:
        g = np.linalg.solve(system.T, p_s.T).T
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(f"I + qhat solve failed: {exc}") from exc
    residual = float(np.max(np.abs(g @ system - p_s)))
    if residual > 1e-10 * max(1.0, float(np.max(np.abs(p_s)))):
        raise SingularSystem(f"I + qhat solve residual {residual:.3e}")
    return PoppeResult(g=Field2D(g), det_track=dets,
                       solve_residual=residual)


# ---------------------------------------------------------------------------
# the CLI's tables


def read_columns(path):
    """The columns of a CLI table by name, as float arrays, in header order."""
    with open(path) as fh:
        assert fh.readline().startswith("# config_hash=")
        header = fh.readline().strip().split(",")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    assert data.shape[1] == len(header)
    return dict(zip(header, data.T))
