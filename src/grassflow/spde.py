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

from .core import (DenseSystem, Grid1D, gaussian_increments, march,
                   one_blas_thread, phi1, quadrature_weights, random_stream,
                   require_power_of_two, solve_dense)
from .errors import ConfigError, SingularSystem

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class SpdeParams:
    alpha: float = 1.0
    beta: float = 0.0
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
    Gaussian of variance dt (the real compensator -(t/2) c^2 of the exact
    exponential martingale matches the direct scheme's per-step geometric
    update only for real per-mode noise).  Coarser schemes aggregate
    contiguous slices so every consumer sees the same underlying path.
    """

    t_final: float
    increments: np.ndarray = field(repr=False)

    @staticmethod
    def generate(seed: int, n_modes: int, t_final: float,
                 resolution: int) -> "BrownianSheetModes":
        if resolution < 1:
            raise ConfigError("resolution must be >= 1")
        dt = t_final / resolution
        stream = random_stream(seed, stream_id=1)
        flat = gaussian_increments(stream, resolution * n_modes, dt,
                                   complex_valued=False)
        return BrownianSheetModes(t_final=t_final,
                                  increments=flat.reshape(resolution, n_modes))

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
        is zero), read from the running sum of the slices."""
        g = self._slices(steps)
        out = np.zeros((steps + 1, self.increments.shape[1]))
        out[1:] = np.cumsum(self.increments, axis=0)[g - 1::g]
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

    u <- exp(-dt L)(u + noise_coef dW u) - eps dt phi1(-dt L) (u o u),
    with L = alpha k^2 + beta kappa^2 acting diagonally and the noise
    coupling applied row-wise (it multiplies along the first argument).
    """
    n = g0.n
    k = mode_numbers(n)
    dt = sheet.t_final / steps
    lam = -dt * (params.alpha * k[:, None] ** 2 + params.beta * k[None, :] ** 2)
    lin = np.exp(lam)
    eps_phi = params.epsilon * dt * phi1(lam)
    noise_coef, _ = k0_mode_policy(params, k)
    dws = sheet.aggregated(steps)

    def advance(m, u):
        stoch = u + (noise_coef * dws[m])[:, None] * u
        return lin * stoch - eps_phi * composition_product(u, u)

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
                   sheet: BrownianSheetModes, panels: int = 256) -> PoppeResult:
    """Exact propagation of p, trapezoid accumulation of qhat, dense solve.

    qhat(T) = eps int_0^T e^{beta k^2 (T - s)} p(s) ds over ``panels``
    trapezoid panels, then g solves p = g o (delta + qhat); the absolute
    determinant of the system matrix is tracked panel by panel.

    p(s) = diag(e^{expo(s)}) G0 and the decay is diagonal, so the running
    sum is qhat_j = diag(c_j) G0 with c = cumsum(w eps decay e^{expo}) over
    the panels, and the system at panel j is I + diag(c_j[-k]) 2 pi G0[-k].
    The system at T below solve_dense's pivot floor raises SingularSystem
    carrying its determinant.
    """
    n = g0.n
    k = mode_numbers(n)
    tf = sheet.t_final
    times = np.linspace(0.0, tf, panels + 1)[:, None]
    weights = quadrature_weights(Grid1D(0.0, tf, panels + 1))[:, None]
    w = sheet.cumulative(panels)
    # the decay e^{beta k^2 (T - s)} joins the exponent: one exp in all
    c = _martingale_exponent(params, k, w, times)
    c += params.beta * k ** 2 * (tf - times)
    np.exp(c, out=c)
    c *= weights * params.epsilon
    np.cumsum(c, axis=0, out=c)
    neg = (-np.arange(n)) % n
    # p = g o (delta + qhat)  =>  P = G (I + 2 pi J Qhat) in mode matrices
    a = TWO_PI * g0.modes[neg, :]
    diagonal = np.diag_indices(n)
    dets = np.empty(panels + 1)
    with one_blas_thread():
        for j in range(panels + 1):
            system = c[j, neg, None] * a
            system[diagonal] += 1.0
            if j < panels:
                dets[j] = abs(np.linalg.det(system))
        # at T, the last panel, solve_dense's LU gives g and the determinant
        # under the Fredholm layer's pivot floor
        p_t = exact_base_modes(g0, params, w[-1], tf)
        gt, det = solve_dense(DenseSystem(system.T, p_t.T))
        g, dets[-1] = gt.T, abs(det)
        residual = float(np.max(np.abs(g @ system - p_t)))
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
        stream = random_stream(seed, stream_id=2)
        noise = gaussian_increments(stream, n * n, 1.0, complex_valued=True)
        fld.modes = fld.modes + noise_factor * noise.reshape(n, n)
    return fld
