"""Coagulation solvers.

Constant-kernel coagulation is solved through its scalar Laplace-space base
flow; the general Smoluchowski-type equation through mass-space linear base
PDEs followed by a Volterra projection p = g * q (a power-series quotient,
the delta part of q handled analytically as the identity); its loss term
takes m0 from the scalar Riccati in closed form, and with constant
coefficients the base pair is a closed form too.  A direct
integro-differential RK4 integrator of the constant-kernel equation
provides the cross-validation oracle.
"""

import math
from dataclasses import dataclass

import numpy as np

from .core import (Grid1D, central_in_t, march, phi1, quadrature_weights,
                   rk4_step, uniform_steps)
from .errors import BlowupAtTime, ConfigError


@dataclass
class MassDensity:
    """Cluster-density samples on a truncated uniform mass grid [0, X]."""

    grid: Grid1D
    values: np.ndarray
    # set when the data is an exponential profile A exp(-beta x); enables the
    # analytic Laplace inversion in constant_kernel_solve
    exponential: tuple | None = None

    @property
    def m0(self) -> float:
        return float(np.trapezoid(self.values, dx=self.grid.spacing))

    @property
    def m1(self) -> float:
        return float(np.trapezoid(self.grid.nodes * self.values,
                              dx=self.grid.spacing))


def exponential_density(grid: Grid1D, amplitude: float, rate: float) -> MassDensity:
    vals = amplitude * np.exp(-rate * grid.nodes)
    return MassDensity(grid=grid, values=vals, exponential=(amplitude, rate))


# ---------------------------------------------------------------------------
# constant kernel K = 1


def constant_kernel_scalars(mu: float, t: float):
    """(c, lam) with p(t) = c g0 and qhat(t) = lam g0 in mass space."""
    denom = 1.0 + 0.5 * t * mu
    if denom <= 0:
        raise BlowupAtTime("base flow denominator crossed zero",
                           det_value=denom, t=t)
    return 1.0 / denom ** 2, -0.5 * t / denom


def constant_kernel_solve(g0: MassDensity, t: float) -> MassDensity:
    """Project the Laplace-space base flow back to mass space.

    Exponential data A exp(-beta x) inverts analytically:
    g(x, t) = c A exp(-(beta + lam A) x).  General sampled data goes through
    the discrete Volterra projection (first-order in the grid spacing).
    """
    if g0.exponential is not None:
        amp, rate = g0.exponential
        c, lam = constant_kernel_scalars(amp / rate, t)
        new_rate = rate + lam * amp
        if new_rate <= 0:
            raise BlowupAtTime("inverted exponential no longer decays")
        return MassDensity(grid=g0.grid,
                           values=c * amp * np.exp(-new_rate * g0.grid.nodes),
                           exponential=(c * amp, new_rate))
    c, lam = constant_kernel_scalars(g0.m0, t)
    p = c * g0.values
    qhat = lam * g0.values
    g = volterra_project(p, qhat, g0.grid)
    return MassDensity(grid=g0.grid, values=g)


# ---------------------------------------------------------------------------
# discrete Volterra convolution machinery (uniform grids, left Riemann)


def _check_uniform(grid: Grid1D):
    if grid.kind != "closed" or grid.lower != 0.0:
        raise ConfigError("mass grids are closed and start at 0")


def _series_product(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The first len(u) coefficients of the product of two real power
    series, by real FFTs padded to len(u) + len(v) (one transform when
    ``v is u``)."""
    m = len(u) + len(v)
    fu = np.fft.rfft(u, m)
    fv = fu if v is u else np.fft.rfft(v, m)
    return np.fft.irfft(fu * fv, m)[:len(u)]


def riemann_conv(u: np.ndarray, v: np.ndarray, h: float) -> np.ndarray:
    """Truncated left-Riemann convolution h sum_{j<i} u_j v_{i-j} of real
    samples: the series product of u and v less its j = i term."""
    return h * (_series_product(u, v) - u * v[0])


def _series_quotient(b, c, s, c0):
    """Solve the lower-triangular Toeplitz system
    c0 g_i + s sum_{j<i} g_j c_{i-j} = b_i, that is the power-series
    quotient g = b / a with a = (c0, s c_1, s c_2, ...).

    1/a comes from Newton's iteration r <- r - r (a r - 1), which doubles
    the number of correct coefficients each pass, so the solve is
    O(n log n).  The series are zero-padded to a power of two, which keeps
    every FFT length a power of two or three times one.  The real FFTs
    would drop an imaginary part, so complex data is refused.
    """
    if np.iscomplexobj(b) or np.iscomplexobj(c):
        raise ConfigError("the Volterra solve takes real data only")
    n = len(b)
    size = 1 << (n - 1).bit_length()
    a = np.zeros(size)
    a[:n] = s * np.asarray(c, dtype=float)
    a[0] = c0
    r = np.array([1.0 / c0])
    while len(r) < size:
        # a r - 1 vanishes below len(r); its next len(r) coefficients
        # give the next len(r) of r
        e = _series_product(a[:2 * len(r)], r)[len(r):]
        r = np.append(r, -_series_product(r, e))
    b = np.pad(np.asarray(b, dtype=float), (0, size - n))
    return _series_product(b, r)[:n]


def volterra_project(p: np.ndarray, qhat: np.ndarray, grid: Grid1D) -> np.ndarray:
    """Invert p = g + g * qhat (a unit lower-triangular Toeplitz system)."""
    _check_uniform(grid)
    return _series_quotient(p, qhat, grid.spacing, 1.0)


def deconvolve(p: np.ndarray, q: np.ndarray, grid: Grid1D) -> np.ndarray:
    """Solve p = g * q for g when q has no delta part.

    With the left-Riemann sum p_i = h sum_{j<i} g_j q_{i-j}, the unknown
    g_{i-1} sits against q_1, so q(h) must be nonzero.  Only n-1 components
    of g are determined; the last node is linearly extrapolated.
    """
    _check_uniform(grid)
    if q[1] == 0:
        raise ConfigError("deconvolution needs q nonzero at the first node")
    g = _series_quotient(p[1:] / grid.spacing, q[1:], 1, q[1])
    return np.append(g, 2 * g[-1] - g[-2])


# ---------------------------------------------------------------------------
# general Smoluchowski-type equation


@dataclass
class SmolCoefficients:
    """Coefficients of the general equation

        dg/dt = d(dx) g + g*(b(dx) g) - g*a - g*b0*g

    ``d_poly`` and ``b_poly`` are ascending polynomial coefficients with
    deg b < deg d enforced; ``a`` and ``b0`` are sampled functions on the
    mass grid; ``b0_delta`` adds a Dirac component to b0 (the constant
    kernel's gain term is b0 = -1/2 delta).  ``include_loss`` switches on
    the loss term -g m0(t), absorbed into d's zero-degree coefficient via
    the preprocessing Riccati for m0.
    """

    d_poly: tuple = (0.0,)
    b_poly: tuple = (0.0,)
    a: np.ndarray | None = None
    b0: np.ndarray | None = None
    b0_delta: float = 0.0
    include_loss: bool = False

    def __post_init__(self):
        if self._degree(self.b_poly) >= self._degree(self.d_poly) and \
                self._degree(self.b_poly) > 0:
            raise ConfigError("deg b must be strictly less than deg d")

    @staticmethod
    def _degree(poly):
        nz = [i for i, c in enumerate(poly) if c != 0]
        return max(nz) if nz else 0


def _poly_ddx(poly, u: np.ndarray, h: float) -> np.ndarray:
    """sum_k poly[k] d^k u / dx^k, each d/dx the second-order central stencil
    with second-order one-sided ends (np.gradient, edge_order=2)."""
    out = poly[0] * u
    for c in poly[1:]:
        u = np.gradient(u, h, edge_order=2)
        out = out + c * u
    return out


def m0_rates(coeffs: SmolCoefficients, grid: Grid1D):
    """(lin, quad) of the preprocessing Riccati m0' = lin m0 + quad m0^2:
    lin = D0 - abar and quad = B0 - b0bar - 1, where abar and b0bar are the
    [0, X] integrals of a and b0 (plus the delta coefficient)."""
    w = quadrature_weights(grid)
    abar = float(np.sum(w * coeffs.a)) if coeffs.a is not None else 0.0
    b0bar = coeffs.b0_delta
    if coeffs.b0 is not None:
        b0bar += float(np.sum(w * coeffs.b0))
    return coeffs.d_poly[0] - abar, coeffs.b_poly[0] - b0bar - 1.0


def m0_closed_form(lin: float, quad: float, m00: float, t: float) -> float:
    """m0(t) of m0' = lin m0 + quad m0^2 from m0(0) = m00: 1/m0 obeys a
    linear ODE, so m0(t) = m00 e^{lin t} / (1 - quad m00 phi1(lin, t)) while
    the denominator stays positive.  BlowupAtTime reports its pole
    t* = log1p(lin / (quad m00)) / lin, or 1 / (quad m00) at lin = 0."""
    denom = 1.0 - quad * m00 * float(phi1(lin, t))
    if denom <= 0:
        pole = 1.0 / (quad * m00) if lin == 0 \
            else math.log1p(lin / (quad * m00)) / lin
        raise BlowupAtTime("m0 preprocessing Riccati blew up",
                           det_value=denom, t=pole)
    return m00 * math.exp(lin * t) / denom


def _base_pair_scalars(lin: float, quad: float, m00: float, t: float):
    """(alpha(t), int_0^t alpha) for alpha' = (lin - m0) alpha, alpha(0) = 1,
    m0 from :func:`m0_closed_form`.  As int m0 = -log(den) / quad for its
    denominator den, alpha = e^{lin t} den^{1/quad} and int alpha =
    (1 - den^{1 + 1/quad}) / ((1 + quad) m00), written through phi1 so
    that quad = -1 is its limit.  At quad = 0 (or m00 = 0) m0 is
    m00 e^{lin s}, and alpha = e^{lin t - m00 phi1(lin, t)}."""
    phi = float(phi1(lin, t))
    if quad == 0 or m00 == 0:
        return math.exp(lin * t - m00 * phi), float(phi1(-m00, phi))
    m0_closed_form(lin, quad, m00, t)  # BlowupAtTime past m0's pole
    log_den = math.log1p(-quad * m00 * phi)
    return (math.exp(lin * t + log_den / quad),
            -float(phi1(1.0 + 1.0 / quad, log_den)) / (quad * m00))


def general_smol_solve(coeffs: SmolCoefficients, g0: MassDensity, t: float,
                       steps: int = 512) -> MassDensity:
    """Solve the linear base pair in mass space, then Volterra-project.

        dp/dt = d(dx) p [- m0(t) p],    dqhat/dt = a + a*qhat + b0*p
                                                   + b0_delta p - b(dx) p,
        p = g * (delta + qhat),

    with m0(t) from :func:`m0_closed_form`.  Without ``a`` and ``b0``, and
    with d constant (so b is too, deg b < deg d), the pair is
    p = alpha p0, qhat = (b0_delta - b) (int alpha) p0 in closed form.
    Otherwise ``steps`` RK4 steps march it, reading m0 at each stage time.
    """
    grid = g0.grid
    _check_uniform(grid)
    h = grid.spacing
    lin, quad = m0_rates(coeffs, grid)
    m00 = g0.m0 if coeffs.include_loss else 0.0
    p0 = g0.values.astype(float)
    if coeffs.a is None and coeffs.b0 is None \
            and coeffs._degree(coeffs.d_poly) == 0:
        alpha, integral = _base_pair_scalars(lin, quad, m00, t)
        gain = coeffs.b0_delta - coeffs.b_poly[0]
        return MassDensity(grid=grid, values=volterra_project(
            alpha * p0, gain * integral * p0, grid))
    dt = t / steps

    def rhs(s, state):
        p, qhat = state
        m0 = m0_closed_form(lin, quad, m00, s)
        dp = _poly_ddx(coeffs.d_poly, p, h) - m0 * p
        dq = coeffs.b0_delta * p - _poly_ddx(coeffs.b_poly, p, h)
        if coeffs.a is not None:
            dq = dq + coeffs.a + riemann_conv(coeffs.a, qhat, h)
        if coeffs.b0 is not None:
            dq = dq + riemann_conv(coeffs.b0, p, h)
        return np.array([dp, dq])

    state = np.array([p0, np.zeros(grid.n)])
    p, qhat = march(lambda m, y: rk4_step(rhs, y, m * dt, dt), state, steps)
    g = volterra_project(p, qhat, grid)
    return MassDensity(grid=grid, values=g)


def general_smol_residual(coeffs: SmolCoefficients, g0: MassDensity, t: float,
                          dt: float, steps: int = 512):
    """(g at t, finite-difference defect of the target equation at t).

    The loss term uses the solved density's own m0 so the residual is of the
    full equation including -g m0 when include_loss is set.
    """
    h = g0.grid.spacing
    g, gt = central_in_t(
        lambda s: general_smol_solve(coeffs, g0, s, steps=steps).values,
        t, dt)
    res = gt - _poly_ddx(coeffs.d_poly, g, h)
    res = res - riemann_conv(g, _poly_ddx(coeffs.b_poly, g, h), h)
    if coeffs.a is not None:
        res = res + riemann_conv(g, coeffs.a, h)
    if coeffs.b0 is not None:
        res = res + riemann_conv(g, riemann_conv(coeffs.b0, g, h), h)
    res = res + coeffs.b0_delta * riemann_conv(g, g, h)
    if coeffs.include_loss:
        res = res + g * MassDensity(g0.grid, g).m0
    # skip the one-sided boundary stencils
    return g, float(np.max(np.abs(res[2:-2])))


# ---------------------------------------------------------------------------
# direct integro-differential oracle


def direct_smol_oracle(g0: MassDensity, t: float, dt: float,
                       track_moments: bool = False):
    """RK4 integration of the constant-kernel (K = 1) coagulation equation
    on the truncated grid."""
    grid = g0.grid
    _check_uniform(grid)
    h = grid.spacing
    x = grid.nodes

    def rhs(s, g):
        gain = 0.5 * riemann_conv(g, g, h)
        m0 = np.trapezoid(g, dx=h)
        return gain - g * m0

    steps, dt = uniform_steps(t, dt)
    advance = lambda m, g: rk4_step(rhs, g, m * dt, dt)
    g = g0.values.astype(float)
    if not track_moments:
        return MassDensity(grid=grid, values=march(advance, g, steps))
    kept = march(advance, g, steps, range(steps + 1), lambda g: (
        g, np.trapezoid(g, dx=h), np.trapezoid(x * g, dx=h)))
    gs, m0s, m1s = zip(*kept.values())
    return (MassDensity(grid=grid, values=gs[-1]),
            dt * np.arange(steps + 1), np.array(m0s), np.array(m1s))


# ---------------------------------------------------------------------------
# pre-Laplace Burgers


def pre_laplace_burgers_solve(q0: np.ndarray, grid: Grid1D, nu: float,
                              t: float):
    """Base flow q(x,t) = q0 exp(nu x^2 t), p = 2 nu x q, then deconvolve.

    At t = 0 this is the density the Volterra relation forces for the
    supplied q0.
    """
    if nu <= 0:
        raise ConfigError("nu must be positive")
    _check_uniform(grid)
    x = grid.nodes
    qt = q0 * np.exp(nu * x ** 2 * t)
    pt = 2.0 * nu * x * qt
    return deconvolve(pt, qt, grid)


def pre_laplace_burgers_residual(q0, grid: Grid1D, nu: float, t: float,
                                 dt: float):
    """(g at t, FD defect of
    dg/dt = nu x^2 g + (x/2) int_0^x g(y) g(x-y) dy)."""
    x = grid.nodes
    g, gt = central_in_t(
        lambda s: pre_laplace_burgers_solve(q0, grid, nu, s), t, dt)
    res = gt - nu * x ** 2 * g - 0.5 * x * riemann_conv(g, g, grid.spacing)
    return g, float(np.max(np.abs(res[1:-2])))
