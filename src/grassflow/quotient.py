"""Quotient-solution PDE family and the one-dimensional elliptic construction.

The anisotropic family  dg/dt = D_x g - g b(y) gbar,  gbar(y) = g(y, y),
admits explicit solutions: p evolves by the linear symbol in x alone, q is
a scalar weight per y-node accumulated from p, and g = p / q.  The
odd-degree variant, dg/dt = D_x g - g F(|gbar|^2), replaces the q equation
by a purely imaginary phase flow, so |q| = 1 along the run.  The elliptic
construction integrates the first-order linear pair q' = aq + bp,
p' = cq + dp and projects g = p / q.
"""

from dataclasses import dataclass

import numpy as np

from .canonical import CanonicalCoefficients, linear_flow, riccati_residual
from .core import (Grid1D, central_in_t, dft_forward, dft_frequencies,
                   dft_inverse, phi1)
from .errors import (BlowupAtTime, ChartBreakdown, ConfigError,
                     IntegrationBlowup, SymbolError)

# trapezoid panels of the odd-degree phase integral over [0, t]
PHASE_STEPS = 256


@dataclass
class QuotientCoefficients:
    """Scalar-scale coefficients of the quotient family.

    ``dispersion`` maps 2 pi |k| to d(2 pi |k|) (Re d <= 0 enforced); ``b``
    is callable b(y); ``f_coeffs`` are the alpha_m of F(u) = i sum alpha_m
    u^m for the odd-degree variant (real alpha_m so F stays purely
    imaginary).  At most one of ``b`` and ``f_coeffs`` is set.
    """

    dispersion: callable
    b: callable = None
    f_coeffs: tuple = ()

    def symbol(self, k):
        d = np.asarray(self.dispersion(2.0 * np.pi * np.abs(np.asarray(k))),
                       dtype=complex)
        if np.any(d.real > 1e-12):
            raise SymbolError("dispersion has growing modes")
        return d

    def f_value(self, u):
        if np.max(np.abs(np.asarray(u).imag)) > 1e-12:
            raise ConfigError("F argument |p|^2 must be real")
        acc = 0.0
        for m, alpha in enumerate(self.f_coeffs):
            acc = acc + alpha * np.real(u) ** m
        return 1j * acc


@dataclass
class QuotientField:
    values: np.ndarray  # g[i, j] = g(x_i, y_j)
    q: np.ndarray       # per-y weight


def quotient_solve(g0: np.ndarray, grid: Grid1D,
                   coeffs: QuotientCoefficients, t: float) -> QuotientField:
    """g(x, y; t) = p(x, y; t) / q(y; t), p(., y; t) the linear evolution of
    g0(., y) under the x symbol.  The coefficients choose q:

    - ``b`` set: q(y; t) = 1 + b(y) r(y, y; t), r the inverse transform in
      x of ((e^{dt} - 1)/d) p0_hat, so that dq/dt = b(y) p(y, y; t) holds
      exactly;
    - ``f_coeffs`` set (the odd-degree variant):
      q(y; t) = exp(int_0^t F(|p(y, y; s)|^2) ds), an exact unit-modulus
      phase since F is purely imaginary; the time integral is a trapezoid
      over PHASE_STEPS panels of the exact diagonal path;
    - neither: q = 1.
    """
    if grid.kind != "periodic":
        raise ConfigError("quotient solver works on a periodic grid")
    if coeffs.b is not None and coeffs.f_coeffs:
        raise ConfigError("set at most one of b and f_coeffs")
    g0 = np.asarray(g0, dtype=complex)
    if g0.shape != (grid.n, grid.n):
        raise ConfigError("initial data must be square on the grid")
    d = coeffs.symbol(dft_frequencies(grid))
    # per-column transforms in x: p0_hat[k, j] = sum_i g0[i, j] e^{+2pi i k x_i} h
    p0_hat = dft_forward(g0, grid)
    p = dft_inverse(np.exp(d * t)[:, None] * p0_hat, grid)
    if coeffs.f_coeffs:
        # pbar(s)_j = sum_k B[j, k] e^{d_k s} p0_hat[k, j] with B the
        # inverse-DFT matrix: one product gives every quadrature time
        weights = dft_inverse(np.eye(grid.n), grid) * p0_hat.T
        ds = t / PHASE_STEPS
        pbar = weights @ np.exp(np.outer(d, ds * np.arange(PHASE_STEPS + 1)))
        exponent = np.trapezoid(coeffs.f_value(np.abs(pbar) ** 2), dx=ds,
                                axis=1)
        if np.max(np.abs(exponent.real)) > 1e-6:
            raise IntegrationBlowup("unit-modulus weight drifted off the "
                                    "circle")
        q = np.exp(exponent)
    elif coeffs.b is None:
        q = np.ones(grid.n, dtype=complex)
    else:
        # time-integrated p, inverse-transformed and read on the diagonal
        integral = np.diag(dft_inverse(phi1(d, t)[:, None] * p0_hat, grid))
        q = 1.0 + np.asarray(coeffs.b(grid.nodes), dtype=complex) * integral
    j = int(np.argmin(np.abs(q)))
    if abs(q[j]) < 1e-10:
        raise BlowupAtTime(f"quotient weight q vanished at t = {t}",
                           det_value=abs(q[j]), location=grid.nodes[j], t=t)
    return QuotientField(values=p / q[None, :], q=q)


def quotient_residual(g0, grid: Grid1D, coeffs: QuotientCoefficients,
                      t: float, dt: float):
    """(g at t, central-difference defect of dg/dt = D_x g - g b(y) gbar),
    or, when ``f_coeffs`` is set, of dg/dt = D_x g - g F(|gbar|^2)."""
    g, gt = central_in_t(lambda s: quotient_solve(g0, grid, coeffs, s).values,
                         t, dt)
    d = coeffs.symbol(dft_frequencies(grid))
    dxg = dft_inverse(d[:, None] * dft_forward(g, grid), grid)
    gbar = np.diag(g)
    if coeffs.f_coeffs:
        nonlin = g * coeffs.f_value(np.abs(gbar) ** 2)[None, :]
    else:
        b = coeffs.b(grid.nodes) if coeffs.b is not None else np.zeros(grid.n)
        nonlin = g * (np.asarray(b) * gbar)[None, :]
    return g, float(np.max(np.abs(gt - dxg + nonlin)))


# ---------------------------------------------------------------------------
# elliptic construction


@dataclass
class EllipticCoefficients:
    """Samples of a, b, c, d on a closed grid; b bounded away from zero."""

    grid: Grid1D
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray

    def __post_init__(self):
        for name in ("a", "b", "c", "d"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != (self.grid.n,):
                raise ConfigError(f"coefficient {name} shape mismatch")
            setattr(self, name, arr)
        if np.min(np.abs(self.b)) < 1e-12:
            raise ConfigError("b must be bounded away from zero")


@dataclass
class EllipticSolution:
    g: np.ndarray
    q: np.ndarray
    p: np.ndarray
    residual: float


def elliptic_quotient_solve(coeffs: EllipticCoefficients, q0: float,
                            p0: float) -> EllipticSolution:
    """Integrate q' = aq + bp, p' = cq + dp by RK4 and project g = p/q.

    The coefficients are linear between nodes, so RK4 reads them at the
    nodes and at the midpoint averages.  The reported residual is the
    interior sup-norm defect of the projected Riccati equation
    g' = c + dg - ga - gbg under central differences.
    """
    grid = coeffs.grid
    h = grid.spacing
    nodes = grid.nodes
    abcd = (coeffs.a, coeffs.b, coeffs.c, coeffs.d)
    # [[a, b], [c, d]] at x_0 + k h / 2, block k
    half = np.empty((2 * grid.n - 1, 4))
    half[::2] = np.column_stack(abcd)
    half[1::2] = 0.5 * (half[:-2:2] + half[2::2])
    blocks = half.reshape(-1, 2, 2)
    q, p = linear_flow(lambda x: blocks[round(2 * (x - grid.lower) / h)],
                       np.array([q0, p0], dtype=float), grid.lower, h,
                       grid.n - 1).T
    crossings = np.nonzero(q[:-1] * q[1:] <= 0)[0]
    if crossings.size or np.min(np.abs(q)) < 1e-10:
        idx = int(crossings[0]) if crossings.size \
            else int(np.argmin(np.abs(q)))
        raise ChartBreakdown(f"q vanished near x = {nodes[idx]}",
                             det_value=q[idx], location=nodes[idx])
    g = p / q
    residual = riccati_residual(CanonicalCoefficients(
        *(v[1:-1, None, None] for v in abcd)), g[:, None, None], h)
    return EllipticSolution(g=g, q=q, p=p, residual=residual)
