"""Grids, quadrature, dense solves, DFT contract, time stepping and RNG
streams.

Everything here is deterministic and pure given its inputs; a random stream
is the one stateful object and is reproducible from (seed, stream_id) alone.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, IntegrationBlowup, SingularSystem


# ---------------------------------------------------------------------------
# grids and quadrature


@dataclass(frozen=True)
class Grid1D:
    """Uniform 1-D grid.

    ``closed`` grids include both endpoints (spacing (upper-lower)/(n-1));
    ``periodic`` grids include the lower endpoint only
    (spacing (upper-lower)/n).
    """

    lower: float
    upper: float
    n: int
    kind: str = "closed"  # "closed" | "periodic"

    def __post_init__(self):
        if self.kind not in ("closed", "periodic"):
            raise ConfigError(f"unknown grid kind {self.kind!r}")
        if self.n < 2:
            raise ConfigError("grid needs at least 2 nodes")
        if not self.upper > self.lower:
            raise ConfigError("grid needs lower < upper")

    @property
    def spacing(self) -> float:
        width = self.upper - self.lower
        return width / (self.n - 1) if self.kind == "closed" else width / self.n

    @property
    def nodes(self) -> np.ndarray:
        return self.lower + self.spacing * np.arange(self.n)

    @property
    def length(self) -> float:
        return self.upper - self.lower


def quadrature_weights(grid: Grid1D, scheme: str) -> np.ndarray:
    """Non-negative weights on the grid's nodes for integration over it.

    ``riemann-left`` is the left-endpoint Riemann sum; on a closed grid its
    final node carries zero weight, so a solution value at the right
    endpoint can sit on the same grid.  ``trapezoid`` needs a closed grid.
    """
    h = grid.spacing
    w = np.full(grid.n, h, dtype=float)
    if scheme == "riemann-left":
        if grid.kind == "closed":
            w[-1] = 0.0
    elif scheme == "trapezoid":
        if grid.kind != "closed":
            raise ConfigError("trapezoid rule expects a closed grid")
        w[0] = w[-1] = 0.5 * h
    else:
        raise ConfigError(f"unknown quadrature scheme {scheme!r}")
    return w


# ---------------------------------------------------------------------------
# dense linear algebra

PIVOT_FLOOR = 1e-14


@dataclass
class DenseSystem:
    coefficients: np.ndarray
    rhs: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.coefficients)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ConfigError("coefficient matrix must be square")
        if not (np.all(np.isfinite(a.real)) and np.all(np.isfinite(a.imag))):
            raise ConfigError("coefficient matrix has non-finite entries")


def _lu_det(lu, piv):
    """det A from scipy's LU of A: U's diagonal, signed by the row swaps."""
    return np.prod(np.diag(lu)) * (-1) ** np.count_nonzero(
        piv != np.arange(len(piv)))


def solve_dense(system: DenseSystem):
    """LU solve with a relative pivot floor of 1e-14 * ||A||_inf.  Returns
    ``(solution, det A)``, the determinant taken from the same
    factorisation; a SingularSystem carries it too."""
    import scipy.linalg as sla

    a = np.asarray(system.coefficients)
    b = np.asarray(system.rhs)
    norm_a = np.max(np.sum(np.abs(a), axis=1))
    with warnings.catch_warnings():
        # a zero pivot is reported by the floor below, not as a warning
        warnings.simplefilter("ignore", sla.LinAlgWarning)
        lu, piv = sla.lu_factor(a, check_finite=False)
    pivots = np.abs(np.diag(lu))
    if norm_a == 0.0 or np.min(pivots) < PIVOT_FLOOR * norm_a:
        raise SingularSystem(
            f"pivot {np.min(pivots):.3e} below floor {PIVOT_FLOOR * norm_a:.3e}",
            det_value=_lu_det(lu, piv))
    x = sla.lu_solve((lu, piv), b, check_finite=False)
    return x, _lu_det(lu, piv)


# ---------------------------------------------------------------------------
# discrete Fourier transform contract
#
# Forward convention  f~(k) = integral f(x) e^{+2 pi i k x} dx, frequencies
# k = j/L for j in {0,..,n/2-1, -n/2,..,-1}; the inverse carries e^{-2 pi i k x}
# and a 1/L factor.  A constant c on [lo, lo+L) therefore maps to c*L in mode
# zero, and Parseval reads  sum |f|^2 h = sum |f~|^2 / L.


def require_power_of_two(n: int):
    if n < 2 or (n & (n - 1)) != 0:
        raise ConfigError(f"mode count {n} is not a power of two")


def dft_frequencies(grid: Grid1D) -> np.ndarray:
    """Frequencies k (cycles per unit length) in FFT ordering."""
    return np.fft.fftfreq(grid.n, d=grid.spacing)


def _grid_phase(grid: Grid1D) -> np.ndarray:
    # e^{2 pi i k x_j} factorises as e^{2 pi i k lo} * e^{2 pi i m j / n};
    # this is the per-mode offset factor for the grid origin.
    k = dft_frequencies(grid)
    return np.exp(2j * np.pi * k * grid.lower)


def _axis0(v: np.ndarray, ndim: int) -> np.ndarray:
    """A per-mode vector shaped to broadcast along axis 0 of ndim axes."""
    return v.reshape(v.shape + (1,) * (ndim - 1))


def dft_forward(samples: np.ndarray, grid: Grid1D) -> np.ndarray:
    """The modes of ``samples`` on the periodic ``grid``, transformed along
    axis 0 (trailing axes are independent columns): ``modes[j]`` is f~(k_j)
    in FFT ordering."""
    if grid.kind != "periodic":
        raise ConfigError("dft_forward needs a periodic grid")
    require_power_of_two(grid.n)
    samples = np.asarray(samples, dtype=complex)
    if samples.shape[0] != grid.n:
        raise ConfigError("sample count does not match grid")
    # numpy ifft carries e^{+2 pi i jm/n} and a 1/n factor
    return grid.n * np.fft.ifft(samples, axis=0) * grid.spacing \
        * _axis0(_grid_phase(grid), samples.ndim)


def dft_inverse(modes: np.ndarray, grid: Grid1D) -> np.ndarray:
    """Inverse of :func:`dft_forward`, along axis 0."""
    modes = np.asarray(modes, dtype=complex)
    phase = _axis0(np.conj(_grid_phase(grid)), modes.ndim)
    return np.fft.fft(modes * phase, axis=0) / grid.length


# ---------------------------------------------------------------------------
# time stepping and time derivatives


def rk4_step(f, y, s, ds):
    """One classical RK4 step of y' = f(s, y) from s to s + ds."""
    k1 = f(s, y)
    k2 = f(s + 0.5 * ds, y + 0.5 * ds * k1)
    k3 = f(s + 0.5 * ds, y + 0.5 * ds * k2)
    k4 = f(s + ds, y + ds * k3)
    return y + (ds / 6) * (k1 + 2 * k2 + 2 * k3 + k4)


def uniform_steps(t: float, dt: float, least: int = 1):
    """The count max(least, round(t / dt)) of equal steps that ends at t,
    and that step, t / count."""
    steps = max(least, int(round(t / dt)))
    return steps, t / steps


def phi1(d, t=1.0):
    """(e^{d t} - 1)/d elementwise, and its limit t at d = 0: t phi1(d t)
    for phi1(z) = (e^z - 1)/z, the form at t = 1.  np.expm1 keeps the
    quotient accurate at every other d, however small d t is."""
    d = np.asarray(d)
    nonzero = d != 0
    return np.where(nonzero, np.expm1(d * t) / np.where(nonzero, d, 1), t)


# march checks its state every CHECK_EVERY steps and at the last step; a
# check every step would add 12-20 % to an NLS split step at n = 256
# (measured on a 2-core Xeon)
CHECK_EVERY = 1024


def _finite(value) -> bool:
    """Every entry of an array or scalar, or of a tuple of them, is finite."""
    parts = value if isinstance(value, tuple) else (value,)
    return all(np.isfinite(part).all() for part in parts)


def march(advance, y, steps: int, checkpoints=None, readout=None):
    """``steps`` fixed steps from the state ``y``: ``advance(m, y)`` returns
    the state after step m + 1.

    Returns ``readout`` (default: the identity) of the final state, or, when
    ``checkpoints`` (an iterable of step indices) is given, a dict
    {step: readout of the state} over the kept steps in ascending order.
    A state found non-finite raises IntegrationBlowup whose ``step`` is the
    first step known to be non-finite: the earliest non-finite kept step,
    else the step of the check.
    """
    readout = readout or (lambda v: v)
    wanted = set(checkpoints) if checkpoints is not None else {steps}
    kept = {0: readout(y)} if 0 in wanted else {}
    for m in range(1, steps + 1):
        y = advance(m - 1, y)
        if (m % CHECK_EVERY == 0 or m == steps) and not _finite(y):
            step = next((s for s, v in kept.items() if not _finite(v)), m)
            raise IntegrationBlowup(f"state non-finite at step {step}",
                                    step=step)
        if m in wanted:
            kept[m] = readout(y)
    return kept if checkpoints is not None else kept[steps]


def central_in_t(solve, t: float, dt: float):
    """(solve(t), (solve(t + dt) - solve(t - dt)) / (2 dt)); the three
    solves run in time order t - dt, t, t + dt."""
    lo, mid, hi = (solve(s) for s in (t - dt, t, t + dt))
    return mid, (hi - lo) / (2 * dt)


# ---------------------------------------------------------------------------
# random streams


def random_stream(seed: int, stream_id: int) -> np.random.Generator:
    """Deterministic generator keyed by (seed, stream_id).

    Identical keys give identical sequences regardless of thread schedule;
    each logical stream must be owned by a single consumer.
    """
    ss = np.random.SeedSequence(seed, spawn_key=(stream_id,))
    return np.random.Generator(np.random.Philox(ss))


def gaussian_increments(stream: np.random.Generator, count: int, variance: float,
                        complex_valued: bool = True) -> np.ndarray:
    """i.i.d. Gaussians with the stated per-component variance."""
    if variance < 0:
        raise ConfigError("variance must be non-negative")
    sd = np.sqrt(variance)
    if complex_valued:
        z = stream.standard_normal((2, count))
        return sd * (z[0] + 1j * z[1])
    return sd * stream.standard_normal(count)
