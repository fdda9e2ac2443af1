"""Quotient-solution PDE family and the one-dimensional elliptic construction.

The anisotropic family  dg/dt = D_x g - g b(y) gbar,  gbar(y) = g(y, y),
admits explicit solutions: p evolves by the linear symbol in x alone, q is
a scalar weight per y-node accumulated from p, and g = p / q.  The
odd-degree variant, dg/dt = D_x g - g F(|gbar|^2), replaces the q equation
by a purely imaginary phase flow, so |q| = 1 along the run.  The elliptic
construction evolves the first-order linear pair q' = aq + bp,
p' = cq + dp by one closed-form 2x2 exponential per interval and
projects g = p / q.
"""

from dataclasses import dataclass

import numpy as np

from .canonical import CanonicalCoefficients, riccati_residual
from .core import Grid1D, central_in_t, dft_frequencies, expm_2x2, phi1
from .errors import (BlowupAtTime, ChartBreakdown, ConfigError,
                     IntegrationBlowup, SymbolError)

# trapezoid panels of the odd-degree phase integral over [0, t]
PHASE_STEPS = 256
# y columns transformed at a time: a block's temporaries stay a small part
# of the n x n planes the solve and its residual hold
COLUMN_BLOCK = 32


@dataclass(frozen=True)
class QuotientCoefficients:
    """Scalar-scale coefficients of the quotient family.

    ``dispersion`` maps 2 pi |k| to d(2 pi |k|) (Re d <= 0 enforced); ``b``
    is callable b(y); ``f_coeffs`` are the alpha_m of F(u) = i sum alpha_m
    u^m for the odd-degree variant (real alpha_m so F stays purely
    imaginary).  Exactly one of ``b`` and ``f_coeffs`` is set.
    """

    dispersion: callable
    b: callable = None
    f_coeffs: tuple = ()

    def __post_init__(self):
        if (self.b is None) == (not self.f_coeffs):
            raise ConfigError("set exactly one of b and f_coeffs")

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
      over PHASE_STEPS panels of the exact diagonal path.

    Every y column is its own flow, so p and q are built COLUMN_BLOCK
    columns at a time from one transform of the block.
    """
    if grid.kind != "periodic":
        raise ConfigError("quotient solver works on a periodic grid")
    g0 = np.asarray(g0)
    if g0.shape != (grid.n, grid.n):
        raise ConfigError("initial data must be square on the grid")
    d = coeffs.symbol(dft_frequencies(grid))
    decay = np.exp(d * t)[:, None]
    if coeffs.f_coeffs:
        # pbar(s)_j = sum_k B[j, k] e^{d_k s} p0_hat[k, j] with B the
        # inverse-DFT matrix: one product gives every quadrature time
        inverse = np.fft.ifft(np.eye(grid.n), axis=0)
        ds = t / PHASE_STEPS
        path = np.exp(np.outer(d, ds * np.arange(PHASE_STEPS + 1)))
    else:
        integrated = phi1(d, t)[:, None]
    p = np.empty((grid.n, grid.n), dtype=complex)
    q = np.empty(grid.n, dtype=complex)
    for start in range(0, grid.n, COLUMN_BLOCK):
        cols = slice(start, start + COLUMN_BLOCK)
        # per-column transforms in x; d is even in k, so either sign
        # convention of the transform pairs each mode with the same d
        p0_hat = np.fft.fft(g0[:, cols], axis=0)
        np.fft.ifft(decay * p0_hat, axis=0, out=p[:, cols])
        if coeffs.f_coeffs:
            pbar = (inverse[cols] * p0_hat.T) @ path
            q[cols] = np.trapezoid(coeffs.f_value(np.abs(pbar) ** 2), dx=ds,
                                   axis=1)
        else:
            # time-integrated p, inverse-transformed and read on the diagonal
            q[cols] = np.fft.ifft(integrated * p0_hat, axis=0).diagonal(-start)
    if coeffs.f_coeffs:
        if np.max(np.abs(q.real)) > 1e-6:
            raise IntegrationBlowup("unit-modulus weight drifted off the "
                                    "circle")
        q = np.exp(q)
    else:
        q = 1.0 + np.asarray(coeffs.b(grid.nodes), dtype=complex) * q
    j = int(np.argmin(np.abs(q)))
    if abs(q[j]) < 1e-10:
        raise BlowupAtTime(f"quotient weight q vanished at t = {t}",
                           det_value=abs(q[j]), location=grid.nodes[j], t=t)
    p /= q
    return QuotientField(values=p, q=q)


def quotient_residual(g0, grid: Grid1D, coeffs: QuotientCoefficients,
                      t: float, dt: float):
    """(g at t, central-difference defect of dg/dt = D_x g - g b(y) gbar),
    or, when ``f_coeffs`` is set, of dg/dt = D_x g - g F(|gbar|^2).  The
    defect is formed COLUMN_BLOCK columns at a time."""
    g, gt = central_in_t(lambda s: quotient_solve(g0, grid, coeffs, s).values,
                         t, dt)
    d = coeffs.symbol(dft_frequencies(grid))[:, None]
    gbar = np.diag(g)
    if coeffs.f_coeffs:
        weight = coeffs.f_value(np.abs(gbar) ** 2)
    else:
        weight = np.asarray(coeffs.b(grid.nodes)) * gbar
    maxima = []
    for start in range(0, grid.n, COLUMN_BLOCK):
        cols = slice(start, start + COLUMN_BLOCK)
        dxg = np.fft.ifft(d * np.fft.fft(g[:, cols], axis=0), axis=0)
        maxima.append(np.max(np.abs(gt[:, cols] - dxg
                                    + g[:, cols] * weight[cols])))
    # np.max, not max(): a NaN block maximum is kept
    return g, float(np.max(maxima))


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
    """Evolve q' = aq + bp, p' = cq + dp exactly between nodes and project
    g = p/q.

    The coefficients are linear between nodes, so the two-point Gauss
    Magnus step over [x_i, x_i + h] reads
    Omega_i = h (A_i + A_{i+1}) / 2 + h^2 [A_{i+1}, A_i] / 12 in the node
    blocks A_i = [[a, b], [c, d]]: fourth order in h, and exact for
    constant coefficients.  The propagators e^{Omega_i} are chained by a
    log-depth prefix product.  The reported residual is the interior
    sup-norm defect of the projected Riccati equation
    g' = c + dg - ga - gbg under central differences.
    """
    grid = coeffs.grid
    h = grid.spacing
    nodes = grid.nodes
    abcd = (coeffs.a, coeffs.b, coeffs.c, coeffs.d)
    blocks = np.column_stack(abcd).reshape(-1, 2, 2)
    left, right = blocks[:-1], blocks[1:]
    prefix = expm_2x2(0.5 * h * (left + right)
                      + h * h / 12 * (right @ left - left @ right))
    # Hillis-Steele scan: prefix[k] becomes e^{Omega_k} ... e^{Omega_0}
    shift = 1
    with np.errstate(over="ignore", invalid="ignore"):
        while shift < len(prefix):
            prefix[shift:] = prefix[shift:] @ prefix[:-shift]
            shift *= 2
        y0 = np.array([q0, p0], dtype=float)
        states = np.vstack((y0, prefix @ y0))
    blowup = np.flatnonzero(~np.isfinite(states).all(axis=1))
    if blowup.size:
        raise IntegrationBlowup(f"state non-finite at node {blowup[0]}",
                                step=int(blowup[0]))
    q, p = states.T
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
