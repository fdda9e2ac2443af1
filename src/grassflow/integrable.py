"""KdV and NLS pipelines.

Each equation is solved two ways: (i) exact dispersive propagation of the
linear base kernel followed by a per-x dense Fredholm solve, reading the
solution off the kernel at (0, 0); (ii) a direct Fourier integrator used as
the independent cross-validation oracle: ETDRK4 for KdV, a split step for
NLS.  The first-order KdV split step that ETDRK4 is itself checked against
lives with the test reference code.
"""

from dataclasses import dataclass

import numpy as np

from .core import (DenseSystem, Grid1D, dft_forward, dft_frequencies,
                   dft_inverse, march, one_blas_thread, quadrature_weights,
                   solve_dense)
from .errors import ConfigError, SymbolError

# the Gauss-Legendre node count of the KdV and NLS Nystrom solves
GAUSS_NODES = 32


def cubic_kdv_symbol(k):
    """d(2 pi i k) = (2 pi i k)^3, the KdV dispersion."""
    return (2j * np.pi * np.asarray(k, dtype=float)) ** 3


def schrodinger_symbol(k):
    """i dp/dt = dxx p  =>  dp/dt = -i (2 pi i k)^2 p."""
    return -1j * (2j * np.pi * np.asarray(k, dtype=float)) ** 2


def propagate_dispersive(modes: np.ndarray, grid: Grid1D, symbol,
                         t: float) -> np.ndarray:
    """The modes on ``grid`` propagated from time 0 to ``t``: exact per-mode
    dispersive propagation under ``symbol``, the map k -> d(2 pi i k) of a
    skew polynomial symbol d.

    The forward transform uses the kernel e^{+2 pi i k x}, so the mode stored
    at index k carries the physical harmonic e^{-2 pi i k x} and d/dx acts on
    it as multiplication by -2 pi i k.  The symbol is therefore evaluated at
    -k: the harmonic e^{+2 pi i k x} (stored at index -k) picks up the phase
    exp(t d(2 pi i k)).  On an even grid the Nyquist mode gets the even part
    (d(2 pi i k_N) + d(-2 pi i k_N)) / 2, so a real field stays real.
    """
    k = dft_frequencies(grid)
    d = symbol(-k)
    if grid.n % 2 == 0:
        nyq = grid.n // 2
        d[nyq] = 0.5 * (d[nyq] + symbol(k[nyq]))
    scale = np.max(np.abs(d)) or 1.0
    if np.max(np.abs(d.real)) > 1e-12 * scale:
        raise SymbolError(f"symbol {symbol.__name__!r} is not skew on this "
                          "grid")
    return modes * np.exp(t * d)


def half_line_grid(domain: Grid1D) -> Grid1D:
    """Closed truncation [-L/2, 0] sharing the domain's node spacing."""
    return Grid1D(domain.lower, 0.0, domain.n // 2 + 1, kind="closed")


@dataclass
class ProjectionResult:
    """Per-x output of a linearise-then-project run; ``breakdown_locations``
    lists (x, det) of each singular system, and every x-system has
    ``unknowns`` unknowns."""

    values: np.ndarray
    det_track: np.ndarray
    breakdown_locations: list
    unknowns: int


def _grid_hankel(trace, grid):
    """The trapezoid weights on the half-line grid, and the Hankel matrices
    of the x-systems lo <= m < hi as a function of (lo, hi).

    The assembly reads p(y + z + x) for y, z in [-L/2, 0] and x in
    [-L/2, L/2], arguments in [-3L/2, L/2]; the base field is periodic, so
    that doubled window is its samples taken twice.  On a domain symmetric
    about 0 the argument y_i + z_j + x_m is exactly node i + j + m of that
    window, so the matrices are the strided view H[m, i, j] = trace[i + j + m].
    """
    zgrid = half_line_grid(grid)
    doubled = np.tile(trace, 2)
    stack = np.lib.stride_tricks.as_strided(
        doubled, shape=(grid.n, zgrid.n, zgrid.n),
        strides=(doubled.strides[0],) * 3, writeable=False)
    return quadrature_weights(zgrid), lambda lo, hi: stack[lo:hi]


def _nystrom_hankel(trace, grid, m):
    """The m Gauss-Legendre weights of [-L/2, 0] and a zero weight at
    z = 0, and the Hankel matrices on those m + 1 nodes of the x-systems
    lo <= i < hi as a function of (lo, hi).

    The trace is read off its trigonometric interpolant
    p(y) = sum_k c_k e^{-2 pi i k y}, c = dft_forward / L, so with
    E[a, k] = e^{-2 pi i k eta_a} x's matrix is
    H(x)[a, b] = sum_k E[a, k] E[b, k] c_k e^{-2 pi i k x}.  On the node
    x_j = lower + j h the phase is e^{-2 pi i k lower} times the DFT
    kernel, and d = ifft(trace) is c e^{-2 pi i k lower}, so every
    x's matrix comes from one FFT along x of the per-mode E[a] E[b] d.
    On an even grid the Nyquist mode is split into half-modes at +-k_N;
    on a domain symmetric about 0 both fall in bin n/2, where they add to
    d_N Re(E[a] E[b]).  H is symmetric, so only its upper triangle is
    transformed: (m + 1)(m + 2)/2 entries, each an FFT over the n nodes.
    A real trace gives a real interpolant and keeps the real part.
    """
    nodes, weights = np.polynomial.legendre.leggauss(m)
    quarter = grid.length / 4  # [-1, 1] onto [-L/2, 0]
    eta = np.append(quarter * (nodes - 1.0), 0.0)
    et = np.exp(-2j * np.pi * np.outer(dft_frequencies(grid), eta))  # E^T
    d = np.fft.ifft(trace)
    rows, cols = np.triu_indices(m + 1)
    tri = np.empty((grid.n, len(rows)), dtype=complex)
    start = 0  # row by row, in place: no temporary of the whole triangle
    for a in range(m + 1):
        stop = start + m + 1 - a
        np.multiply(et[:, a:], (d * et[:, a])[:, None], out=tri[:, start:stop])
        start = stop
    nyq = grid.n // 2
    tri[nyq] = d[nyq] * (et[nyq, rows] * et[nyq, cols]).real
    np.fft.fft(tri, axis=0, out=tri)
    if np.isrealobj(trace):
        tri = tri.real

    def hankel(lo, hi):
        h = np.empty((hi - lo, m + 1, m + 1), dtype=tri.dtype)
        h[:, rows, cols] = h[:, cols, rows] = tri[lo:hi]
        return h

    return np.append(quarter * weights, 0.0), hankel


# the bytes of one stack of x-systems: the Fredholm layer solves the x in
# chunks of this size, so its working set is a few such stacks (and the
# Gauss-Legendre rule's FFT'd triangle) whatever the grid
CHUNK_BYTES = 1 << 18


def _project_over_x(trace, grid, kernel, quadrature, panels):
    """One Fredholm solve, and one LU, per x over the base field's
    ``trace`` on ``grid``, the x taken in chunks of CHUNK_BYTES.

    ``trapezoid`` solves on the half-line grid's n/2 + 1 nodes
    (:func:`_grid_hankel`), ``gauss-legendre`` on ``panels`` Nystrom nodes
    and z = 0 (:func:`_nystrom_hankel`).  Either way z = 0 is the last node,
    weighted h / 2 by the trapezoid rule and 0 by Gauss-Legendre, and the
    last unknown is the solution there.  The chunk's Hankel matrices H give
    the systems' kernels ``kernel(H, w)`` and, in their z = 0 columns, the
    right-hand sides.
    The trace's dtype is that of the systems, the values and the dets: a
    float64 trace gives float64 systems.  A singular system leaves a NaN
    value and its (x, det) in ``breakdown_locations``.
    """
    if grid.lower != -grid.upper:
        raise ConfigError("the Fredholm projection needs a domain "
                          "symmetric about 0")
    if quadrature == "gauss-legendre":
        w, hankel = _nystrom_hankel(trace, grid, panels)
    elif quadrature == "trapezoid":
        w, hankel = _grid_hankel(trace, grid)
    else:
        raise ConfigError(f"unknown quadrature {quadrature!r}")
    size = len(w)
    chunk = max(1, CHUNK_BYTES // (size * size * trace.itemsize))
    diag = np.arange(size)
    values = np.empty(grid.n, dtype=trace.dtype)
    dets = np.empty(grid.n, dtype=trace.dtype)
    # one BLAS thread: the values then do not depend on the thread count
    with one_blas_thread():
        for lo in range(0, grid.n, chunk):
            hi = min(lo + chunk, grid.n)
            h = hankel(lo, hi)
            # I + K^T W: row i is the equation at z_i, column j weights the
            # unknown g(0, xi_j)
            a = np.swapaxes(kernel(h, w), 1, 2) * w
            a[:, diag, diag] += 1.0
            g, dets[lo:hi] = solve_dense(DenseSystem(a, h[:, :, -1]))
            values[lo:hi] = g[:, -1]  # z = 0 sits at the last node
    broken = np.flatnonzero(np.isnan(values))
    return ProjectionResult(values=values, det_track=dets,
                            breakdown_locations=[(float(grid.nodes[i]),
                                                  dets[i]) for i in broken],
                            unknowns=size)


def kdv_fredholm_solve(p0: np.ndarray, grid: Grid1D, t: float,
                       quadrature: str = "trapezoid",
                       panels: int = GAUSS_NODES) -> ProjectionResult:
    """KdV via its additive prescription: qhat = p, one dense solve per x
    (on ``panels`` nodes under ``gauss-legendre``).

    The propagated trace is real to rounding (the Nyquist mode takes no
    phase), so the x-systems are solved in float64 and the values are
    float64."""
    modes = propagate_dispersive(dft_forward(p0, grid), grid,
                                 cubic_kdv_symbol, t)
    return _project_over_x(dft_inverse(modes, grid).real, grid,
                           lambda h, w: h, quadrature, panels)


def nls_gram(m: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """M^H W M of each matrix M of a stack."""
    return np.conj(np.swapaxes(m, 1, 2)) @ (weights[:, None] * m)


def nls_fredholm_solve(p0: np.ndarray, grid: Grid1D, t: float,
                       quadrature: str = "trapezoid",
                       panels: int = GAUSS_NODES) -> ProjectionResult:
    """NLS via the quadratic prescription qhat = P^dag P (on ``panels``
    nodes under ``gauss-legendre``)."""
    modes = propagate_dispersive(dft_forward(p0, grid), grid,
                                 schrodinger_symbol, t)
    return _project_over_x(dft_inverse(modes, grid), grid, nls_gram,
                           quadrature, panels)


# ---------------------------------------------------------------------------
# direct integrators (cross-validation oracles)


def etdrk4_kdv(u0: np.ndarray, grid: Grid1D, dt: float, steps: int,
               checkpoints=None):
    """Fourth-order exponential time differencing (ETDRK4, Cox & Matthews
    2002) of u_t = u_xxx + 3 (u_x)^2 on the rfft half-spectrum, K = 2 pi i k
    (0 at an even grid's Nyquist mode), nonlinear term 3 F((F^-1 K v)^2).
    Returns march's readout: the samples, or {step: samples} at checkpoints.

    The phi-coefficients are means over 32 points of the unit circle about
    each dt K^3 (Kassam & Trefethen 2005).  dt K^3 is imaginary, so the
    mean runs over the whole circle: their upper half circle with real()
    holds only for a real linear part.

    Fourth order needs smooth periodic data.  The kdv-paper data have a
    slope jump at +-L/2 in their periodic extension; on them the run at
    dt = 1e-2 is 7.9e-7 from the run at 2.5e-3, and each halving of dt
    from 4e-2 shrinks the change only 1.6-2.0 times.
    """
    if dt <= 0:
        raise ConfigError("dt must be positive")
    n = grid.n
    kmat = 2j * np.pi * np.fft.rfftfreq(n, d=grid.spacing)
    if n % 2 == 0:
        kmat[-1] = 0.0

    def nonlinear(v):
        ux = np.fft.irfft(kmat * v, n)
        return 3.0 * np.fft.rfft(ux * ux)

    lin = dt * kmat ** 3
    e, e2 = np.exp(lin), np.exp(lin / 2)
    z = lin[:, None] + np.exp(2j * np.pi * (np.arange(32) + 0.5) / 32)
    ez = np.exp(z)
    q = dt * np.mean((np.exp(z / 2) - 1) / z, axis=1)
    f1 = dt * np.mean((-4 - z + ez * (4 - 3 * z + z * z)) / z ** 3, axis=1)
    f2 = dt * np.mean((2 + z + ez * (z - 2)) / z ** 3, axis=1)
    f3 = dt * np.mean((-4 - 3 * z - z * z + ez * (4 - z)) / z ** 3, axis=1)

    def advance(m, v):
        nv = nonlinear(v)
        ev = e2 * v
        a = ev + q * nv
        na = nonlinear(a)
        nb = nonlinear(ev + q * na)
        nc = nonlinear(e2 * a + q * (2 * nb - nv))
        return e * v + f1 * nv + 2 * f2 * (na + nb) + f3 * nc

    return march(advance, np.fft.rfft(np.asarray(u0, dtype=float)), steps,
                 checkpoints, lambda v: np.fft.irfft(v, n))


def split_step_nls(u0: np.ndarray, grid: Grid1D, dt: float, steps: int,
                   checkpoints=None):
    """v = exp(-i dt K^2) u;  u <- v - 2 i dt F((F^-1 v)^2 (F^-1 v)^*)."""
    if dt <= 0:
        raise ConfigError("dt must be positive")
    kmat = 2j * np.pi * dft_frequencies(grid)
    lin = np.exp(-1j * dt * kmat ** 2)

    def advance(m, uhat):
        v = lin * uhat
        vphys = np.fft.ifft(v)
        return v - 2j * dt * np.fft.fft(vphys * vphys * np.conj(vphys))

    return march(advance, np.fft.fft(np.asarray(u0, dtype=complex)), steps,
                 checkpoints, np.fft.ifft)
