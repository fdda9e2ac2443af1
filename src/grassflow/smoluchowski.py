"""Coagulation solvers.

Constant-kernel coagulation and the general Smoluchowski-type equation
share one linear mass-space base pair, solved in closed form: p is a scalar
multiple alpha(t) of the data and qhat is linear in p.  A Volterra
projection p = g * q (a power-series quotient, the delta part of q handled
analytically as the identity) maps the pair back; the loss term takes m0
from the scalar Riccati in closed form.  A direct integro-differential RK4
integrator of the constant-kernel equation provides the cross-validation
oracle.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import (Grid1D, central_in_t, fft_kernels, march, phi1,
                   quadrature_weights, rk4_step, uniform_steps)
from .errors import BlowupAtTime, ConfigError, VolterraBreakdown


def moments(g: np.ndarray, grid: Grid1D):
    """(m0, m1): the trapezoid integrals of g and of x g over the grid."""
    h = grid.spacing
    return (float(np.trapezoid(g, dx=h)),
            float(np.trapezoid(grid.nodes * g, dx=h)))


# ---------------------------------------------------------------------------
# constant kernel K = 1


def constant_kernel_solve(grid: Grid1D, amplitude: float, rate: float,
                          t: float) -> np.ndarray:
    """The general equation at :data:`CONSTANT_KERNEL`,
    dg/dt = (1/2) g*g - g m0(t), from exponential data A exp(-beta x)
    (``amplitude`` A, ``rate`` beta), in closed form.

    The base pair is p(t) = c g0 and qhat(t) = lam g0 with
    (c, lam) = (alpha, -int alpha / 2) from :func:`_base_pair_scalars` at
    m0(0) = A / beta, so the Laplace inversion gives
    g(x, t) = c A exp(-(beta + lam A) x).  Sampled data go through
    :func:`general_smol_solve` at :data:`CONSTANT_KERNEL`.
    """
    c, integral = _base_pair_scalars(*m0_rates(CONSTANT_KERNEL, grid),
                                     amplitude / rate, t)
    new_rate = rate + CONSTANT_KERNEL.b0_delta * integral * amplitude
    if new_rate <= 0:
        raise BlowupAtTime("inverted exponential no longer decays")
    return c * amplitude * np.exp(-new_rate * grid.nodes)


# ---------------------------------------------------------------------------
# discrete Volterra convolution machinery (uniform grids, left Riemann)


def _check_uniform(grid: Grid1D):
    if grid.kind != "closed" or grid.lower != 0.0:
        raise ConfigError("mass grids are closed and start at 0")


@functools.cache
def _fft_length(m: int) -> int:
    """The least 2^a 3^b 5^c >= m: a length pocketfft splits into small
    radices, where a large prime factor sends it down its slower Bluestein
    path."""
    best = 1 << (m - 1).bit_length()
    threes = 1
    while threes < best:
        odd = threes
        while odd < best:
            best = min(best, odd << ((m - 1) // odd).bit_length())
            odd *= 5
        threes *= 3
    return best


def _series_product(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The first len(u) coefficients of the product of two real power
    series, by real FFTs zero-padded to the least 5-smooth length
    >= len(u) + len(v) (one transform when ``v is u``)."""
    rfft, irfft = fft_kernels(_fft_length(len(u) + len(v)), real=True)
    fu = rfft(u)
    fv = fu if v is u else rfft(v)
    return irfft(fu * fv)[:len(u)]


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


# a solve whose backward error passes this has lost its system: solvable
# cases read 1e-10 or below, broken ones 1 or above
BACKWARD_ERROR_BOUND = 1e-8


def _check_backward_error(residual, p, solve: str):
    """Raise VolterraBreakdown where max|residual| / max|p| (a NaN among
    them included) passes BACKWARD_ERROR_BOUND."""
    error = float(np.max(np.abs(residual)) / (np.max(np.abs(p)) or 1.0))
    if not error <= BACKWARD_ERROR_BOUND:
        raise VolterraBreakdown(f"{solve} backward error {error:.3e} past "
                                f"{BACKWARD_ERROR_BOUND:g}", error)


def volterra_project(p: np.ndarray, qhat: np.ndarray, grid: Grid1D) -> np.ndarray:
    """Invert p = g + g * qhat (a unit lower-triangular Toeplitz system).
    A solution whose backward error passes BACKWARD_ERROR_BOUND raises
    VolterraBreakdown."""
    _check_uniform(grid)
    h = grid.spacing
    g = _series_quotient(p, qhat, h, 1.0)
    _check_backward_error(g + riemann_conv(g, qhat, h) - p, p,
                          "volterra_project")
    return g


def deconvolve(p: np.ndarray, q: np.ndarray, grid: Grid1D) -> np.ndarray:
    """Solve p = g * q for g when q has no delta part.

    With the left-Riemann sum p_i = h sum_{j<i} g_j q_{i-j}, the unknown
    g_{i-1} sits against q_1, so q(h) must be nonzero.  Only n-1 components
    of g are determined; the last node is linearly extrapolated.  A
    solution whose backward error on p_1, ..., p_{n-1} (which the
    extrapolated node takes no part in) passes BACKWARD_ERROR_BOUND raises
    VolterraBreakdown.
    """
    _check_uniform(grid)
    if q[1] == 0:
        raise ConfigError("deconvolution needs q nonzero at the first node")
    h = grid.spacing
    g = _series_quotient(p[1:] / h, q[1:], 1, q[1])
    g = np.append(g, 2 * g[-1] - g[-2])
    _check_backward_error((riemann_conv(g, q, h) - p)[1:], p, "deconvolve")
    return g


# ---------------------------------------------------------------------------
# general Smoluchowski-type equation


@dataclass(frozen=True)
class SmolCoefficients:
    """Coefficients of the general equation

        dg/dt = d g - g*b0*g [- g m0(t)]

    ``d`` is a constant; ``b0`` is a sampled function on the mass grid, or
    a constant broadcast over it (0 by default), and ``b0_delta`` adds a
    Dirac component to it (the constant kernel's gain term is
    b0 = -1/2 delta, and a gain b g*g is b0_delta = -b).
    ``include_loss`` switches on the loss term -g m0(t), absorbed into d
    via the preprocessing Riccati for m0.
    """

    d: float = 0.0
    b0: np.ndarray | float = 0.0
    b0_delta: float = 0.0
    include_loss: bool = False


# the constant kernel K = 1: dg/dt = (1/2) g*g - g m0(t)
CONSTANT_KERNEL = SmolCoefficients(b0_delta=-0.5, include_loss=True)


def m0_rates(coeffs: SmolCoefficients, grid: Grid1D):
    """(lin, quad) of the preprocessing Riccati m0' = lin m0 + quad m0^2:
    lin = d and quad = -b0bar - 1, where b0bar is the [0, X] integral of b0
    (plus the delta coefficient)."""
    b0bar = coeffs.b0_delta + float(np.sum(quadrature_weights(grid)
                                           * coeffs.b0))
    return coeffs.d, -b0bar - 1.0


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


def general_smol_solve(coeffs: SmolCoefficients, g0: np.ndarray,
                       grid: Grid1D, t: float) -> np.ndarray:
    """Solve the linear base pair in mass space, then Volterra-project.

        dp/dt = d p [- m0(t) p],    dqhat/dt = b0*p + b0_delta p,
        p = g * (delta + qhat),

    with m0(t) from :func:`m0_closed_form`.  The pair is a closed form:
    p = alpha p0 for the scalar alpha of :func:`_base_pair_scalars`, and
    qhat, linear in p, is (int alpha) (b0_delta p0 + b0*p0).
    """
    _check_uniform(grid)
    lin, quad = m0_rates(coeffs, grid)
    m00 = moments(g0, grid)[0] if coeffs.include_loss else 0.0
    p0 = np.asarray(g0, dtype=float)
    alpha, integral = _base_pair_scalars(lin, quad, m00, t)
    b0 = np.broadcast_to(coeffs.b0, p0.shape)
    qhat = integral * (coeffs.b0_delta * p0
                       + riemann_conv(b0, p0, grid.spacing))
    try:
        return volterra_project(alpha * p0, qhat, grid)
    except VolterraBreakdown as exc:
        exc.t = t
        raise


def general_smol_residual(coeffs: SmolCoefficients, g0: np.ndarray,
                          grid: Grid1D, t: float, dt: float):
    """(g at t, finite-difference defect of the target equation at t, over
    every node).

    The loss term uses the solved density's own m0 so the residual is of the
    full equation including -g m0 when include_loss is set.
    """
    h = grid.spacing
    g, gt = central_in_t(
        lambda s: general_smol_solve(coeffs, g0, grid, s), t, dt)
    b0 = np.broadcast_to(coeffs.b0, g.shape)
    res = gt - coeffs.d * g + riemann_conv(g, riemann_conv(b0, g, h), h) \
        + coeffs.b0_delta * riemann_conv(g, g, h)
    if coeffs.include_loss:
        res = res + g * moments(g, grid)[0]
    return g, float(np.max(np.abs(res)))


# ---------------------------------------------------------------------------
# direct integro-differential oracle


def direct_smol_oracle(g0: np.ndarray, grid: Grid1D, t: float, dt: float,
                       checkpoints=None):
    """RK4 integration of the constant-kernel (K = 1) coagulation equation
    on the truncated grid, in round(t / dt) equal steps: the field at t, or
    :func:`core.march`'s dict of the fields at ``checkpoints``."""
    _check_uniform(grid)
    h = grid.spacing

    def rhs(s, g):
        gain = 0.5 * riemann_conv(g, g, h)
        m0 = np.trapezoid(g, dx=h)
        return gain - g * m0

    steps, dt = uniform_steps(t, dt)
    return march(lambda m, g: rk4_step(rhs, g, m * dt, dt),
                 np.asarray(g0, dtype=float), steps, checkpoints)


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
    try:
        return deconvolve(pt, qt, grid)
    except VolterraBreakdown as exc:
        exc.t = t
        raise


def pre_laplace_burgers_residual(q0, grid: Grid1D, nu: float, t: float,
                                 dt: float):
    """(g at t, FD defect of
    dg/dt = nu x^2 g + (x/2) int_0^x g(y) g(x-y) dy)."""
    x = grid.nodes
    g, gt = central_in_t(
        lambda s: pre_laplace_burgers_solve(q0, grid, nu, s), t, dt)
    res = gt - nu * x ** 2 * g - 0.5 * x * riemann_conv(g, g, grid.spacing)
    return g, float(np.max(np.abs(res[1:-2])))
