"""Grids, quadrature, dense solves, the BLAS thread policy, FFT
frequencies and kernels, time stepping, closed-form 2x2 exponentials and
random draws.

Everything here is deterministic and pure given its inputs; a random draw
is a function of its key (seed, stream_id) and its shape alone.
"""

import ctypes
import functools
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

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
    a, b = np.asarray(system.coefficients), np.asarray(system.rhs)
    lone = a.ndim == 2
    if lone:
        a, b = a[None], b[None]
    dtype = complex if np.iscomplexobj(a) or np.iscomplexobj(b) else float
    # LAPACK is column-major: slice j of lu holds A_j^T row-major, which is
    # A_j column-major, factorised in place; x holds the B_j likewise
    lu = np.array(np.swapaxes(a, 1, 2), dtype=dtype, order="C")
    x = np.array(np.swapaxes(b.reshape(len(b), b.shape[1], -1), 1, 2),
                 dtype=dtype, order="C")
    norm = np.max(np.sum(np.abs(lu), axis=1), axis=1)  # A's row sums
    piv = np.empty(a.shape[:2], dtype=np.int64)  # 1-based, as LAPACK's
    lapack = _openblas_getrf_getrs(lu.dtype.char)
    if lapack is None:
        _scipy_lu_solve(lu, piv, x)
    else:
        _openblas_lu_solve(*lapack, lu, piv, x)
    x = np.swapaxes(x, 1, 2).reshape(b.shape)
    diag = np.diagonal(lu, axis1=1, axis2=2)
    swaps = np.count_nonzero(piv != np.arange(1, piv.shape[1] + 1), axis=1)
    det = np.prod(diag, axis=1) * (1 - 2 * (swaps % 2))
    pivot = np.min(np.abs(diag), axis=1)
    singular = (norm == 0.0) | (pivot < PIVOT_FLOOR * norm)
    if lone and singular[0]:
        raise SingularSystem(f"pivot {pivot[0]:.3e} below floor "
                             f"{PIVOT_FLOOR * norm[0]:.3e}",
                             det_value=det[0])
    x[singular] = np.nan
    return (x[0], det[0]) if lone else (x, det)


def _openblas_lu_solve(getrf, getrs, lu, piv, x):
    """getrf on each column-major matrix lu[j] in place, its pivots into
    piv[j], then getrs on the right-hand sides x[j] in place.  The
    integers go by reference, and slice j's address is an offset from its
    stack's."""
    count, n = piv.shape
    order, nrhs, info = (ctypes.byref(ctypes.c_int64(value))
                         for value in (n, x.shape[1], 0))
    a0, p0, x0 = lu.ctypes.data, piv.ctypes.data, x.ctypes.data
    for j in range(count):
        a, p = a0 + j * lu.strides[0], p0 + j * piv.strides[0]
        getrf(order, order, a, order, p, info)
        getrs(b"N", order, nrhs, a, order, p, x0 + j * x.strides[0], order,
              info, 1)


def _scipy_lu_solve(lu, piv, x):
    """:func:`_openblas_lu_solve` by scipy's LAPACK, where numpy links no
    OpenBLAS of its own.  scipy's pivots are 0-based."""
    from scipy.linalg import get_lapack_funcs

    getrf, getrs = get_lapack_funcs(("getrf", "getrs"), dtype=lu.dtype)
    for j in range(len(lu)):
        _, p, _ = getrf(lu[j].T, overwrite_a=True)
        x[j] = getrs(lu[j].T, p, x[j].T)[0].T
        piv[j] = p + 1


# ---------------------------------------------------------------------------
# numpy's OpenBLAS: the LU above and the thread policy


@functools.cache
def _numpy_openblas():
    """The OpenBLAS that numpy's wheel ships (already loaded, so CDLL
    returns its handle), or None where numpy links another BLAS."""
    libs = Path(np.__file__).parent.with_name("numpy.libs")
    for path in sorted(libs.glob("libscipy_openblas*")):
        try:
            return ctypes.CDLL(str(path))
        except OSError:
            continue
    return None


@functools.cache
def _openblas_getrf_getrs(kind):
    """getrf and getrs of numpy's OpenBLAS for the dtype char ``kind``
    ('d' or 'D'), or None where that library has no ILP64 LAPACK.

    They are Fortran entry points: every argument is a pointer, the
    integers are int64, and getrs takes the hidden length of its character
    argument last.  Each pointer is declared, since ctypes would pass an
    undeclared address as a C int."""
    prefix = {"d": "d", "D": "z"}[kind]
    library = _numpy_openblas()
    try:
        getrf = getattr(library, f"scipy_{prefix}getrf_64_")
        getrs = getattr(library, f"scipy_{prefix}getrs_64_")
    except AttributeError:  # also on None, no library
        return None
    address = ctypes.c_void_p
    getrf.argtypes, getrf.restype = [address] * 6, None
    getrs.argtypes = [ctypes.c_char_p] + [address] * 8 + [ctypes.c_size_t]
    getrs.restype = None
    return getrf, getrs


@functools.cache
def _blas_thread_setter():
    """``openblas_set_num_threads_local`` of numpy's OpenBLAS, or None where
    numpy links another BLAS or an OpenBLAS older than 0.3.27."""
    setter = getattr(_numpy_openblas(), "openblas_set_num_threads_local",
                     None)
    if setter is not None:
        setter.argtypes, setter.restype = [ctypes.c_int], ctypes.c_int
    return setter


@contextmanager
def one_blas_thread():
    """Run the block's numpy BLAS and LAPACK calls, solve_dense's LU among
    them, on one thread, then restore the library's thread count.  At
    order 128 a second thread buys no wall time, and one thread makes an
    LU's rounding independent of the thread count.  In the pthreads build
    numpy's wheels ship, the setting holds for the whole library during
    the block.  Without numpy's OpenBLAS the block runs unchanged."""
    setter = _blas_thread_setter()
    if setter is None:
        yield
        return
    previous = setter(1)
    try:
        yield
    finally:
        setter(previous)


# ---------------------------------------------------------------------------
# Fourier modes: numpy's np.fft convention, mode k carries e^{+2 pi i k x}


def require_power_of_two(n: int):
    if n < 2 or (n & (n - 1)) != 0:
        raise ConfigError(f"mode count {n} is not a power of two")


def dft_frequencies(grid: Grid1D) -> np.ndarray:
    """Frequencies k (cycles per unit length) in FFT ordering."""
    return np.fft.fftfreq(grid.n, d=grid.spacing)


@functools.cache
def fft_kernels(n: int, real: bool):
    """(forward, inverse) length-``n`` transforms of 1-D arrays by the
    pocketfft kernels np.fft calls, with the scales it passes (1 forward,
    1/n inverse) bound once: the bytes of ``np.fft.rfft(a, n)`` and
    ``np.fft.irfft(a, n)`` when ``real``, else of ``np.fft.fft`` and
    ``np.fft.ifft``.  A shorter input is zero-padded as np.fft pads it;
    each call returns a fresh array.  np.fft's per-call argument handling
    is about half of a call at n = 256, which a stepper pays every step.
    numpy.fft is imported here, on the first call, not with the package.
    Where numpy has no such module or kernel, np.fft's own functions with
    ``n`` bound give the same bytes."""
    try:
        import numpy.fft._pocketfft_umath as pocketfft
        forward, inverse = ((pocketfft.rfft_n_even if n % 2 == 0
                             else pocketfft.rfft_n_odd, pocketfft.irfft)
                            if real else (pocketfft.fft, pocketfft.ifft))
    except (ImportError, AttributeError):
        pair = (np.fft.rfft, np.fft.irfft) if real else (np.fft.fft,
                                                         np.fft.ifft)
        return tuple(functools.partial(f, n=n) for f in pair)
    scale = 1 / n
    if real:
        half = n // 2 + 1
        return (lambda a: forward(a, 1, out=np.empty(half, complex)),
                lambda a: inverse(a, scale, out=np.empty(n)))
    return (lambda a: forward(a, 1, out=np.empty(n, complex)),
            lambda a: inverse(a, scale, out=np.empty(n, complex)))


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


def expm_2x2(omega):
    """e^Omega for each real 2x2 matrix of a stack (..., 2, 2), in closed
    form.  With s = tr/2 and M = Omega - s I, M^2 = delta^2 I for
    delta^2 = -det M, so e^Omega = e^s (cosh delta I + sinh(delta)/delta M):
    cos and sin of |delta| where delta^2 < 0, and sinh(delta)/delta = 1 at
    delta = 0.  Where delta > 1 the same matrix is taken as
    e^{s + delta} P + e^{s - delta} (I - P), P = (I + M/delta)/2, which
    keeps the smaller exponential from cancelling in the larger one (and
    e^s cosh delta from reading 0 inf).  Entries past the float range come
    out non-finite."""
    omega = np.asarray(omega, dtype=float)
    s = 0.5 * np.trace(omega, axis1=-2, axis2=-1)[..., None, None]
    m = omega - s * np.eye(2)
    delta2 = (m[..., 0, 0] ** 2 + m[..., 0, 1] * m[..., 1, 0])[..., None, None]
    delta = np.sqrt(np.abs(delta2))
    split = delta2 > 1
    with np.errstate(over="ignore", invalid="ignore"):
        even = np.where(delta2 < 0, np.cos(delta), np.cosh(delta))
        odd = np.where(delta2 < 0, np.sin(delta), np.sinh(delta))
        odd = np.where(delta > 0, odd / np.where(delta > 0, delta, 1.0), 1.0)
        upper = 0.5 * (np.eye(2) + m / np.where(split, delta, 1.0))
        return np.where(split, np.exp(s + delta) * upper
                        + np.exp(s - delta) * (np.eye(2) - upper),
                        np.exp(s) * (even * np.eye(2) + odd * m))


# march checks its state every CHECK_EVERY steps and at the last step; a
# check every step would add 12-20 % to an NLS split step at n = 256
# (measured on a 2-core Xeon)
CHECK_EVERY = 1024


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
            if (m % CHECK_EVERY == 0 or m == steps) \
                    and not np.isfinite(y).all():
                step = next((s for s, v in kept.items()
                             if not np.isfinite(v).all()), m)
                raise IntegrationBlowup(f"state non-finite at step {step}",
                                        step=step)
            if m in wanted:
                kept[m] = readout(y)
    return kept if checkpoints is not None else kept[steps]


def central_in_t(solve, t: float, dt: float):
    """(solve(t), (solve(t + dt) - solve(t - dt)) / (2 dt)); the three
    solves run in time order t - dt, t, t + dt, and each must return a
    fresh array, since the difference is taken in the last one's place.
    A ``dt`` past ``t`` raises ConfigError."""
    if dt > t:
        raise ConfigError(f"dt = {dt} past t = {t}: the residual would "
                          f"solve at negative time")
    lo, mid, hi = (solve(s) for s in (t - dt, t, t + dt))
    hi -= lo
    hi /= 2 * dt
    return mid, hi


# ---------------------------------------------------------------------------
# random draws: Philox4x64-10 (Salmon et al., SC'11) in numpy's uint64
# arithmetic, so no draw loads numpy.random or, through its secrets,
# OpenSSL

# counters generated at a time, so that the rounds' temporaries stay under
# 1 MB however large the draw
RANDOM_BLOCK = 4096
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_LOW32 = 0xFFFFFFFF


def _mulhilo(a: int, b: np.ndarray):
    """High and low words of the 128-bit products a * b, from 32-bit
    halves, whose partial products fit in 64 bits."""
    a_hi, a_lo = np.uint64(a >> 32), np.uint64(a & _LOW32)
    b_hi, b_lo = b >> 32, b & _LOW32
    lo_lo, hi_lo, lo_hi = a_lo * b_lo, a_hi * b_lo, a_lo * b_hi
    carry = (lo_lo >> 32) + (hi_lo & _LOW32) + (lo_hi & _LOW32)
    hi = a_hi * b_hi + (hi_lo >> 32) + (lo_hi >> 32) + (carry >> 32)
    return hi, np.uint64(a) * b


def philox4x64(first: int, count: int, key) -> np.ndarray:
    """Philox4x64-10 of the counters first, ..., first + count - 1 (their
    high three words zero) under the two-word key: a (count, 4) array whose
    rows are the counters' four output words in order."""
    c0 = np.arange(first, first + count, dtype=np.uint64)
    c1 = c2 = c3 = np.zeros(count, dtype=np.uint64)
    k0, k1 = key
    for r in range(10):
        if r:
            k0 = (k0 + _PHILOX_W[0]) % 2 ** 64
            k1 = (k1 + _PHILOX_W[1]) % 2 ** 64
        hi0, lo0 = _mulhilo(_PHILOX_M[0], c0)
        hi1, lo1 = _mulhilo(_PHILOX_M[1], c2)
        hi1 ^= c1
        hi1 ^= k0
        hi0 ^= c3
        hi0 ^= k1
        c0, c1, c2, c3 = hi1, lo1, hi0, lo0
    return np.stack((c0, c1, c2, c3), axis=-1)


def _box_muller(out: np.ndarray, words: np.ndarray):
    """Standard normals into ``out`` from a (count, 4) block of words: each
    pair (w1, w2) gives u = (w >> 11) 2^-53, then r cos(2 pi u2) and
    r sin(2 pi u2) with r = sqrt(-2 log1p(-u1)), finite since u1 < 1."""
    u = (words >> 11).astype(float)
    u *= 2.0 ** -53
    r = u[:, 0::2]
    np.log1p(-r, out=r)
    r *= -2.0
    np.sqrt(r, out=r)
    theta = u[:, 1::2]
    theta *= 2.0 * np.pi
    np.multiply(r, np.cos(theta), out=out[:, 0::2])
    np.multiply(r, np.sin(theta), out=out[:, 1::2])


def standard_normals(seed: int, stream_id: int, shape) -> np.ndarray:
    """prod(shape) standard normals under the key (seed, stream_id), by
    Box-Muller on the word pairs of counters 1, 2, ...: the words are
    those of numpy's ``Philox(key=[seed, stream_id])``, so identical keys
    give identical draws and a shorter draw is a prefix of a longer one."""
    if not (0 <= seed < 2 ** 64 and 0 <= stream_id < 2 ** 64):
        raise ConfigError("seed and stream_id must lie in [0, 2**64)")
    count = int(np.prod(shape))
    out = np.empty((-(-count // 4), 4))
    for b in range(0, len(out), RANDOM_BLOCK):
        block = out[b:b + RANDOM_BLOCK]
        _box_muller(block, philox4x64(1 + b, len(block), (seed, stream_id)))
    return out.reshape(-1)[:count].reshape(shape)
