"""Stochastic heat flow with a nonlocal quadratic nonlinearity on [0, 2pi]^2.

Two schemes share one realised noise path: a direct exponential-integrator
time stepper, and an exact-propagation scheme that evolves the base kernel
in closed form (an exponential martingale per mode), accumulates the
auxiliary kernel by quadrature, and finishes with one dense mode-space
solve.  All nonlinear products are composition products of operator
kernels evaluated in mode space.
"""

from dataclasses import dataclass, field

import numpy as np

from .core import (DenseSystem, Grid1D, march, one_blas_thread, phi1,
                   quadrature_weights, require_power_of_two, solve_dense,
                   standard_normals)
from .errors import ConfigError, SingularSystem

TWO_PI = 2.0 * np.pi
# slices of the sheet summed at a time by BrownianSheetModes.cumulative
CUMULATIVE_ROWS = 1024


@dataclass(frozen=True)
class SpdeParams:
    """Diffusion rate alpha (the linear part alpha k^2 on the row mode k),
    noise strength gamma and weight epsilon of the quadratic term."""

    alpha: float = 1.0
    gamma: float = 10.0
    epsilon: float = 1000.0

    def __post_init__(self):
        if self.alpha <= 0:
            raise ConfigError("alpha must be positive")
        if self.gamma < 0:
            raise ConfigError("gamma must be non-negative")


def mode_numbers(n: int) -> np.ndarray:
    """Integer wavenumbers in FFT ordering for the 2 pi period."""
    require_power_of_two(n)
    return np.fft.fftfreq(n, d=1.0 / n)


@dataclass
class Field2D:
    """Mode matrix f(k, kappa) of a biperiodic kernel on [0, 2pi]^2.

    ``modes[j, l]`` multiplies e^{i k_j x} e^{i kappa_l y}; physical samples
    live on the n x n tensor grid of left-endpoint nodes.
    """

    modes: np.ndarray

    @property
    def n(self) -> int:
        return self.modes.shape[0]

    @property
    def samples(self) -> np.ndarray:
        return np.fft.ifft2(self.modes) * self.modes.size

    @staticmethod
    def from_samples(samples: np.ndarray) -> "Field2D":
        samples = np.asarray(samples, dtype=complex)
        return Field2D(modes=np.fft.fft2(samples) / samples.size)


def composition_product(f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Mode matrix of (f o g)(x, y) = int f(x, z) g(z, y) dz.

    Integrating e^{i m z} e^{i m' z} over the period picks out m' = -m with
    a 2 pi factor, so the product is 2 pi * F @ G with G's rows negated in
    index.
    """
    n = f.shape[0]
    neg = (-np.arange(n)) % n
    return TWO_PI * f @ g[neg, :]


# ---------------------------------------------------------------------------
# noise path


@dataclass
class BrownianSheetModes:
    """Per-mode Brownian increments, drawn once and shared by both schemes.

    ``increments[m, j]`` is the increment of mode k_j over the m-th of
    ``len(increments)`` equal slices of [0, t_final]; each is a real
    Gaussian of variance dt (the real compensator -(t/2) c^2 of the
    exponential martingale, which both schemes take, is the Ito correction
    only for real per-mode noise).  Coarser schemes aggregate
    contiguous slices so every consumer sees the same underlying path.
    """

    t_final: float
    increments: np.ndarray = field(repr=False)

    @staticmethod
    def generate(seed: int, n_modes: int, t_final: float,
                 resolution: int) -> "BrownianSheetModes":
        if resolution < 1:
            raise ConfigError("resolution must be >= 1")
        if not t_final > 0:
            raise ConfigError("t_final must be positive")
        w = standard_normals(seed, 1, (resolution, n_modes))
        # scaled in place: one draw-sized array, not two
        w *= np.sqrt(t_final / resolution)
        return BrownianSheetModes(t_final=t_final, increments=w)

    def _slices(self, steps: int) -> int:
        """Slices per interval of ``steps`` equal intervals."""
        if len(self.increments) % steps != 0:
            raise ConfigError("steps must divide the sheet resolution")
        return len(self.increments) // steps

    def aggregated(self, steps: int) -> np.ndarray:
        """Increments over ``steps`` equal intervals."""
        g = self._slices(steps)
        return self.increments.reshape(steps, g, -1).sum(axis=1)

    def cumulative(self, steps: int) -> np.ndarray:
        """W at the steps + 1 boundaries of ``steps`` equal intervals (row 0
        is zero), read from the running sum of the slices.  The sum runs a
        block of whole intervals at a time, each block's first row carrying
        the last row of the one before, so no sheet-sized sum is held."""
        g = self._slices(steps)
        out = np.zeros((steps + 1, self.increments.shape[1]))
        rows = g * max(1, CUMULATIVE_ROWS // g)
        for start in range(0, len(self.increments), rows):
            block = self.increments[start:start + rows].copy()
            block[0] += out[start // g]
            np.cumsum(block, axis=0, out=block)
            out[start // g + 1:(start + len(block)) // g + 1] = \
                block[g - 1::g]
        return out


# ---------------------------------------------------------------------------
# shared multipliers


def k0_mode_policy(params: SpdeParams, k: np.ndarray):
    """Noise couplings per mode; the K^{-1} and K^{-2} terms vanish at k = 0.

    Returns (noise_coef, ito_coef): gamma sqrt(pi) / k and pi gamma^2 / 2k^2
    with both set to zero at the k = 0 mode, identically in both schemes.
    """
    k = np.asarray(k, dtype=float)
    noise = np.zeros_like(k)
    ito = np.zeros_like(k)
    nz = k != 0
    noise[nz] = params.gamma * np.sqrt(np.pi) / k[nz]
    ito[nz] = 0.5 * np.pi * params.gamma ** 2 / k[nz] ** 2
    return noise, ito


# ---------------------------------------------------------------------------
# schemes


def spde_direct_run(g0: Field2D, params: SpdeParams,
                    sheet: BrownianSheetModes, steps: int) -> Field2D:
    """Exponential-integrator time stepping in mode space.

    u <- exp(-dt L)(E u) - eps dt phi1(-dt L) (u o u), with
    L = alpha k^2 and the noise factor E = exp(noise_coef dW - ito_coef dt),
    the exact per-step martingale, both acting on the row mode k alone (they
    multiply along the first argument).
    """
    k = mode_numbers(g0.n)
    dt = sheet.t_final / steps
    lam = -dt * (params.alpha * k[:, None] ** 2)
    lin = np.exp(lam)
    eps_phi = params.epsilon * dt * phi1(lam)
    noise_coef, ito_coef = k0_mode_policy(params, k)
    factors = np.exp(noise_coef * sheet.aggregated(steps) - ito_coef * dt)

    def advance(m, u):
        # lin * (E u) - eps_phi * (u o u), each of its two temporaries
        # scaled in place
        prod = composition_product(u, u)
        prod *= eps_phi
        out = factors[m][:, None] * u
        out *= lin
        out -= prod
        return out

    with one_blas_thread():
        return Field2D(march(advance, g0.modes.copy(), steps))


def _martingale_exponent(params: SpdeParams, k: np.ndarray, w: np.ndarray,
                         s) -> np.ndarray:
    """-s alpha k^2 + noise_coef w(k) - s ito_coef(k), with w = W_s: one
    time and its row of W, or a column of times and their rows."""
    noise_coef, ito_coef = k0_mode_policy(params, k)
    return -s * params.alpha * k ** 2 + noise_coef * w - s * ito_coef


def exact_base_modes(g0: Field2D, params: SpdeParams, w: np.ndarray,
                     s: float) -> np.ndarray:
    """Closed-form base kernel p(s): per-row exponential martingale.

    p_hat(k, :; s) = exp(-s alpha k^2 + noise_coef w(k)
                         - s ito_coef(k)) g0_hat(k, :), with w = W_s.
    """
    expo = _martingale_exponent(params, mode_numbers(g0.n), w, s)
    return np.exp(expo)[:, None] * g0.modes


@dataclass
class PoppeResult:
    """Projected field plus the diagnostics of the final dense solve."""

    g: Field2D
    det_track: np.ndarray
    solve_residual: float


def spde_poppe_run(g0: Field2D, params: SpdeParams,
                   sheet: BrownianSheetModes, panels: int = 256,
                   det_panels=None) -> PoppeResult:
    """Exact propagation of p, trapezoid accumulation of qhat, dense solve.

    qhat(T) = eps int_0^T p(s) ds over ``panels`` trapezoid panels, then g
    solves p = g o (delta + qhat); det_track[i] is the absolute determinant
    of the system matrix at panel det_panels[i] (default (panels,), the
    solve's own).

    p(s) = diag(e^{expo(s)}) G0, so the running sum is
    qhat_j = diag(c_j) G0 with c = cumsum(w eps e^{expo}) over the panels,
    and the system at panel j is I + diag(c_j[-k]) 2 pi G0[-k].
    The system at T below solve_dense's pivot floor raises SingularSystem
    carrying its determinant.
    """
    n = g0.n
    tf = sheet.t_final
    times = np.linspace(0.0, tf, panels + 1)[:, None]
    weights = quadrature_weights(Grid1D(0.0, tf, panels + 1))[:, None]
    w = sheet.cumulative(panels)
    c = _martingale_exponent(params, mode_numbers(n), w, times)
    np.exp(c, out=c)
    c *= weights * params.epsilon
    np.cumsum(c, axis=0, out=c)
    neg = (-np.arange(n)) % n
    # p = g o (delta + qhat)  =>  P = G (I + 2 pi J Qhat) in mode matrices
    a = TWO_PI * g0.modes[neg, :]
    diagonal = np.diag_indices(n)
    track = (panels,) if det_panels is None else det_panels

    def system_at(j):
        system = c[j, neg, None] * a
        system[diagonal] += 1.0
        return system

    with one_blas_thread():
        # at T, the last panel, solve_dense's LU gives g and the determinant
        # under the Fredholm layer's pivot floor
        system = system_at(panels)
        p_t = exact_base_modes(g0, params, w[-1], tf)
        gt, det = solve_dense(DenseSystem(system.T, p_t.T))
        g = gt.T
        residual = float(np.max(np.abs(g @ system - p_t)))
        dets = np.array([abs(det) if j == panels
                         else abs(np.linalg.det(system_at(j)))
                         for j in track])
    if residual > 1e-10 * max(1.0, float(np.max(np.abs(p_t)))):
        raise SingularSystem(f"I + qhat solve residual {residual:.3e}")
    return PoppeResult(g=Field2D(g), det_track=dets,
                       solve_residual=residual)


# ---------------------------------------------------------------------------
# initial data


def sech_ridge_initial(n: int, noise_factor: float, seed: int) -> Field2D:
    """sech(10(x + y - 2pi)) sech(10(y - pi)) plus per-mode Gaussian noise."""
    x = TWO_PI * np.arange(n) / n
    xx, yy = np.meshgrid(x, x, indexing="ij")
    samples = 1.0 / np.cosh(10.0 * (xx + yy - TWO_PI)) \
        / np.cosh(10.0 * (yy - np.pi))
    fld = Field2D.from_samples(samples)
    if noise_factor:
        z = standard_normals(seed, 2, (2, n, n))
        fld.modes = fld.modes + noise_factor * (z[0] + 1j * z[1])
    return fld
