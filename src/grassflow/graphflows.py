"""Nonlinear graph flows.

Inviscid Burgers and its generalisations are solved by inverting the
characteristic map q(a, t) = a + t * pi0(a) (one Newton over every node
at once, with a per-node bisection fallback) and reading the momentum off
the initial profile.  The generalised graph flow reduces its linear base
pair to a fundamental matrix and shares that inversion; a first-order
upwind integrator is the direct oracle.
"""

from dataclasses import dataclass

import numpy as np

from .canonical import linear_flow
from .errors import NewtonDivergence

NEWTON_TOL = 1e-12
NEWTON_MAX_ITER = 50
JACOBIAN_FLOOR = 1e-8
FD_STEP = 1e-6
FLOW_STEPS = 256  # RK4 steps of fundamental_matrix over [0, t]
CFL = 0.4  # Courant number of upwind_oracle's adaptive step


@dataclass
class InitialProfile:
    """Initial momentum profile a -> pi0(a) with an optional derivative.

    ``jacobian`` is the elementwise derivative pi0'(a), of the shape of a.
    Without one, the derivative falls back to central finite differences
    with step 1e-6 scaled by the argument magnitude.
    """

    evaluator: callable
    jacobian: callable = None

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


def fundamental_matrix(coeffs, t: float, n: int) -> np.ndarray:
    """Phi(t) of d/ds [q; p] = [[A, B], [C, D]] [q; p] for constant (n, n)
    blocks, None for a zero block, by FLOW_STEPS of RK4."""
    blocks = [np.zeros((n, n)) if c is None
              else np.atleast_2d(np.asarray(c, dtype=float)) for c in coeffs]
    generator = np.block([blocks[:2], blocks[2:]])
    return linear_flow(lambda s: generator, np.eye(2 * n), 0.0,
                       t / FLOW_STEPS, FLOW_STEPS)[-1]


def generalized_flow_eval(x_nodes, t: float, profile: InitialProfile,
                          coeffs) -> GraphField:
    """Graph flow under q' = Aq + Bp, p' = Cq + Dp, ``coeffs`` = (A, B, C, D)
    constant scalars (None for zero).  The f(|p|^2) model is
    :func:`inviscid_burgers_eval` with a modifier.

    The linear base pair is reduced to its scalar fundamental matrix, so
    q(a, t) = Phi_qq a + Phi_qp pi0(a) and p(a, t) = Phi_pq a + Phi_pp pi0(a),
    and the inversion is the inviscid one with Jacobian
    Phi_qq + Phi_qp pi0'(a), under the same shock rule.
    """
    x_nodes = np.asarray(x_nodes, dtype=float)
    (qq, qp), (pq, pp) = fundamental_matrix(coeffs, t, 1)
    a, shock, flagged = _solve_characteristic(x_nodes, qq, qp, profile)
    values = np.where(shock, np.nan, pq * a + pp * profile(a))
    return GraphField(values=values, flagged=flagged)


# ---------------------------------------------------------------------------
# direct oracle


def upwind_oracle(pi0_samples: np.ndarray, h: float, t: float) -> np.ndarray:
    """First-order upwind integration of pi_t + pi pi_x = 0, periodic.

    Each step fills one periodic difference array, diff[i] = u_i - u_{i-1}
    with diff[0] = diff[n] = u_0 - u_{n-1}, so the backward difference at
    node i is diff[i] and the forward one diff[i + 1]; every step works in
    buffers allocated once.
    """
    u = np.asarray(pi0_samples, dtype=float).copy()
    n = len(u)
    diff = np.empty(n + 1)
    slope, change = np.empty(n), np.empty(n)
    upwind_back = np.empty(n, dtype=bool)
    elapsed = 0.0
    while elapsed < t:
        speed = np.max(np.abs(u, out=change))
        dt = min(CFL * h / max(speed, 1e-12), t - elapsed)
        np.subtract(u[1:], u[:-1], out=diff[1:n])
        diff[0] = diff[n] = u[0] - u[-1]
        diff /= h
        np.greater(u, 0, out=upwind_back)
        np.copyto(slope, diff[1:])
        np.copyto(slope, diff[:n], where=upwind_back)
        np.multiply(u, dt, out=change)
        change *= slope
        u -= change
        elapsed += dt
    return u
