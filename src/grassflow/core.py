"""Grids, quadrature, dense solves, DFT contract, time stepping and RNG
streams.

Everything here is deterministic and pure given its inputs; a random stream
is the one stateful object and is reproducible from (seed, stream_id) alone.
"""

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


def quadrature_weights(grid: Grid1D) -> np.ndarray:
    """The trapezoid rule's weights on a closed grid's nodes: the spacing h
    inside and h / 2 at either endpoint, so an integral over the grid is
    ``np.sum(w * f)``."""
    if grid.kind != "closed":
        raise ConfigError("trapezoid rule expects a closed grid")
    h = grid.spacing
    w = np.full(grid.n, h, dtype=float)
    w[0] = w[-1] = 0.5 * h
    return w


# ---------------------------------------------------------------------------
# dense linear algebra

PIVOT_FLOOR = 1e-14


@dataclass
class DenseSystem:
    """One system, coefficients (n, n) and rhs (n,) or (n, k), or a stack
    of them along a leading axis: (count, n, n) and (count, n) or
    (count, n, k)."""

    coefficients: np.ndarray
    rhs: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.coefficients)
        if a.ndim not in (2, 3) or a.shape[-1] != a.shape[-2]:
            raise ConfigError("coefficient matrix must be square")
        if not np.all(np.isfinite(a)):
            raise ConfigError("coefficient matrix has non-finite entries")


def solve_dense(system: DenseSystem):
    """Partial-pivot LU solves under a relative pivot floor of
    1e-14 * ||A||_inf.  Returns ``(solution, det A)``, the determinant taken
    from the same factorisation, for one system or for each of a stack.
    A system below the floor (or A = 0) is singular: alone it raises
    SingularSystem carrying its determinant, in a stack its solution is
    NaN.

    Each system costs one LAPACK getrf and one getrs; the norms, the floor
    test and the determinants are array operations over the stack."""
    from scipy.linalg import get_lapack_funcs

    a, b = np.asarray(system.coefficients), np.asarray(system.rhs)
    lone = a.ndim == 2
    if lone:
        a, b = a[None], b[None]
    getrf, getrs = get_lapack_funcs(("getrf", "getrs"), (a, b))
    # LAPACK is column-major: slice j of lu holds A_j^T row-major, so
    # lu[j].T is A_j, factorised in place
    lu = np.array(np.swapaxes(a, 1, 2), dtype=getrf.dtype, order="C")
    norm = np.max(np.sum(np.abs(lu), axis=1), axis=1)  # A's row sums
    piv = np.empty(a.shape[:2], dtype=np.int32)
    x = np.empty(b.shape, dtype=getrf.dtype)
    for j in range(len(lu)):
        _, piv[j], _ = getrf(lu[j].T, overwrite_a=True)
        x[j] = getrs(lu[j].T, piv[j], b[j])[0]
    diag = np.diagonal(lu, axis1=1, axis2=2)
    swaps = np.count_nonzero(piv != np.arange(piv.shape[1]), axis=1)
    det = np.prod(diag, axis=1) * (1 - 2 * (swaps % 2))
    pivot = np.min(np.abs(diag), axis=1)
    singular = (norm == 0.0) | (pivot < PIVOT_FLOOR * norm)
    if lone and singular[0]:
        raise SingularSystem(f"pivot {pivot[0]:.3e} below floor "
                             f"{PIVOT_FLOOR * norm[0]:.3e}",
                             det_value=det[0])
    x[singular] = np.nan
    return (x[0], det[0]) if lone else (x, det)


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
    # a diverging state overflows between two checks; the finiteness check
    # reports that as IntegrationBlowup, so numpy need not warn of it
    with np.errstate(over="ignore", invalid="ignore"):
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
