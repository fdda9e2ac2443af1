"""Nonlinear graph flows.

Inviscid Burgers and its generalisations are solved by inverting the
characteristic map q(a, t) = a + t * pi0(a) (one Newton over every node
at once, with a per-node bisection fallback) and reading the momentum off
the initial profile.  The generalised graph flow reduces its linear base
pair to its fundamental matrix, a closed-form 2x2 exponential, and shares
that inversion.  The direct oracle of periodic data is Fourier collocation
on one period with the 2/3 rule, stepped by RK4.
"""

from dataclasses import dataclass

import numpy as np

from .core import expm_2x2, fft_kernels, march, rk4_step
from .errors import NewtonDivergence

NEWTON_TOL = 1e-12
NEWTON_MAX_ITER = 50
JACOBIAN_FLOOR = 1e-8
FD_STEP = 1e-6
SPECTRAL_NODES = 512  # spectral_oracle's collocation nodes on one period
COURANT = 0.25  # dt max|pi0| k_max of spectral_oracle's fixed RK4 step


@dataclass
class InitialProfile:
    """Initial momentum profile a -> pi0(a) with an optional derivative.

    ``jacobian`` is the elementwise derivative pi0'(a), of the shape of a.
    Without one, the derivative falls back to central finite differences
    with step 1e-6 scaled by the argument magnitude.  ``period`` is set for
    periodic data, the period on which its spectral oracle runs.
    """

    evaluator: callable
    jacobian: callable = None
    period: float = None

    def __call__(self, a):
        return np.asarray(self.evaluator(a), dtype=float)

    def grad(self, a):
        if self.jacobian is not None:
            return np.asarray(self.jacobian(a), dtype=float)
        step = FD_STEP * np.maximum(1.0, np.abs(a))
        return (self(a + step) - self(a - step)) / (2 * step)


def _modified_profile(profile: InitialProfile, modifier):
    """pi-tilde = f(pi0^2) pi0; its derivative is finite-differenced."""
    if modifier is None:
        return profile

    def tilde(a):
        p = profile(a)
        return modifier(p * p) * p

    return InitialProfile(evaluator=tilde)


def _solve_characteristic(x, alpha, beta, pi: InitialProfile):
    """Labels a with alpha a + beta pi(a) = x, Newton at every node at once.

    Each node starts at a = x and, at each step, first meets the shock test
    J = alpha + beta pi'(a) <= 1e-8 (which covers the accepted point as
    well as the path), then the convergence test |f| <= 1e-12, then the
    update a <- a - f / J.  Nodes unconverged after 50 steps are bisected
    one by one.  Returns the labels, the shock mask and the flagged list
    [(i, x_i, J_i)]; a flagged label is where the shock test fired.
    """
    a = x.copy()
    shock = np.zeros(x.shape, dtype=bool)
    jac_at = np.empty(x.shape)
    active = np.arange(x.size)
    for _ in range(NEWTON_MAX_ITER):
        if not active.size:
            break
        la = a[active]
        f = alpha * la + beta * pi(la) - x[active]
        jac = alpha + beta * pi.grad(la)
        hit = jac <= JACOBIAN_FLOOR
        shock[active[hit]] = True
        jac_at[active[hit]] = jac[hit]
        step = ~hit & ~(np.abs(f) <= NEWTON_TOL)
        a[active[step]] = la[step] - f[step] / jac[step]
        active = active[step]
    for i in active:
        a[i] = _bisect_scalar(
            lambda s, xi=x[i]: alpha * s + beta * pi(s) - xi, x[i], beta)
    flagged = [(int(i), float(x[i]), float(jac_at[i]))
               for i in np.flatnonzero(shock)]
    return a, shock, flagged


def _bisect_scalar(residual, x, beta):
    span = max(1.0, abs(beta), abs(x))
    lo, hi = x - span, x + span
    flo = float(residual(np.array([lo]))[0])
    fhi = float(residual(np.array([hi]))[0])
    for _ in range(60):
        if flo * fhi <= 0:
            break
        span *= 2.0
        lo, hi = x - span, x + span
        flo = float(residual(np.array([lo]))[0])
        fhi = float(residual(np.array([hi]))[0])
    else:
        raise NewtonDivergence("bisection bracket never changed sign")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = float(residual(np.array([mid]))[0])
        if abs(fm) <= NEWTON_TOL or hi - lo <= NEWTON_TOL:
            return mid
        if flo * fm <= 0:
            hi, fhi = mid, fm
        else:
            lo, flo = mid, fm
    raise NewtonDivergence("bisection failed to reach tolerance")


@dataclass
class GraphField:
    """Momentum samples at the nodes; flagged nodes hit a near-shock."""

    values: np.ndarray
    flagged: list


def inviscid_burgers_eval(x_nodes, t: float, profile: InitialProfile,
                          modifier=None) -> GraphField:
    """pi(x, t) = pi0((id + t pi-tilde)^{-1}(x)) at every node at once.

    Nodes where the inversion meets the shock test are flagged and left NaN
    rather than aborting the whole field.
    """
    x_nodes = np.asarray(x_nodes, dtype=float)
    a, shock, flagged = _solve_characteristic(
        x_nodes, 1.0, t, _modified_profile(profile, modifier))
    values = np.where(shock, np.nan, profile(a))
    return GraphField(values=values, flagged=flagged)


# ---------------------------------------------------------------------------
# generalised first-order models


def generalized_flow_eval(x_nodes, t: float, profile: InitialProfile,
                          coeffs) -> GraphField:
    """Graph flow under q' = Aq + Bp, p' = Cq + Dp, ``coeffs`` = (A, B, C, D),
    four floats.  The f(|p|^2) model is
    :func:`inviscid_burgers_eval` with a modifier.

    The linear base pair is reduced to its scalar fundamental matrix
    Phi = e^{tG}, G = [[A, B], [C, D]], in closed form, so
    q(a, t) = Phi_qq a + Phi_qp pi0(a) and p(a, t) = Phi_pq a + Phi_pp pi0(a),
    and the inversion is the inviscid one with Jacobian
    Phi_qq + Phi_qp pi0'(a), under the same shock rule.
    """
    x_nodes = np.asarray(x_nodes, dtype=float)
    (qq, qp), (pq, pp) = expm_2x2(
        t * np.reshape([float(c) for c in coeffs], (2, 2)))
    a, shock, flagged = _solve_characteristic(x_nodes, qq, qp, profile)
    values = np.where(shock, np.nan, pq * a + pp * profile(a))
    return GraphField(values=values, flagged=flagged)


# ---------------------------------------------------------------------------
# direct oracle


def spectral_steps(t: float, speed: float, period: float,
                   nodes: int = SPECTRAL_NODES) -> int:
    """spectral_oracle's RK4 step count, ceil(t speed k_max / COURANT) and
    at least 1, for the top kept wavenumber k_max = 2 pi K / period,
    K = (nodes - 1) // 3, and the profile's largest |pi0| as ``speed``."""
    k_max = 2 * np.pi * ((nodes - 1) // 3) / period
    return max(1, int(np.ceil(t * speed * k_max / COURANT)))


def spectral_oracle(profile, period: float, t: float, x_nodes,
                    nodes: int = SPECTRAL_NODES, steps: int = None):
    """pi(x, t) of pi_t + (pi^2/2)_x = 0 for ``period``-periodic data by
    Fourier collocation, read at ``x_nodes``.

    The profile's samples on ``nodes`` points of [-period/2, period/2) are
    evolved on the rfft half-spectrum, the modes above K = (nodes - 1) // 3
    zeroed (the 2/3 rule), by ``steps`` RK4 steps (default
    :func:`spectral_steps`).  Since max|pi| does not grow before the shock,
    that fixed step stays stable.  The final trigonometric interpolant is
    summed at each of ``x_nodes`` by Horner in
    z = e^{2 pi i (x + period/2) / period}.
    """
    u0 = profile(period * (np.arange(nodes) / nodes - 0.5))
    top = (nodes - 1) // 3
    k = np.arange(nodes // 2 + 1)
    # -(u^2 / 2)_x: mode k of u^2 times -pi i k / period, dealiased
    flux = np.where(k <= top, -1j * np.pi * k / period, 0)
    if steps is None:
        steps = spectral_steps(t, float(np.max(np.abs(u0))), period, nodes)
    dt = t / steps
    rfft, irfft = fft_kernels(nodes, real=True)

    def rhs(s, v):
        u = irfft(v)
        return flux * rfft(u * u)

    v = march(lambda m, v: rk4_step(rhs, v, m * dt, dt),
              rfft(u0) * (k <= top), steps)
    c = v[:top + 1] / nodes
    z = np.exp(2j * np.pi * (np.asarray(x_nodes, dtype=float) / period + 0.5))
    acc = np.full(z.shape, c[top])
    for ck in c[top - 1:0:-1]:
        acc = acc * z + ck
    return c[0].real + 2 * (acc * z).real
