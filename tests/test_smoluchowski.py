"""Coagulation solvers: constant-kernel closed forms, Volterra machinery,
the general mass-space solver, and the pre-Laplace Burgers pipeline."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from grassflow.cli import profile_samples
from grassflow.core import Grid1D, march, rk4_step
from grassflow.errors import BlowupAtTime, ConfigError
from grassflow.smoluchowski import (MassDensity, SmolCoefficients,
                                    _check_uniform, _poly_ddx,
                                    constant_kernel_scalars,
                                    constant_kernel_solve, deconvolve,
                                    direct_smol_oracle, exponential_density,
                                    general_smol_residual, general_smol_solve,
                                    m0_closed_form, m0_rates,
                                    pre_laplace_burgers_residual,
                                    pre_laplace_burgers_solve, riemann_conv,
                                    volterra_project)
from reference import (deconvolve_loop, forward_substitute_longdouble,
                       volterra_loop)


def mass_grid(upper, n):
    return Grid1D(0.0, upper, n, kind="closed")


# ---------------------------------------------------------------------------
# constant kernel closed forms


def test_m0_closed_form():
    # the constant kernel: m0' = -m0^2 / 2, m0(t) = m0(0) / (1 + t m0(0)/2)
    assert m0_closed_form(0.0, -0.5, 1.0, 0.0) == pytest.approx(1.0)
    assert m0_closed_form(0.0, -0.5, 1.0, 2.0) == pytest.approx(0.5)
    # a negative initial mass is finite while 1 + t m0(0)/2 > 0
    assert m0_closed_form(0.0, -0.5, -1.0, 1.0) == -2.0
    with pytest.raises(BlowupAtTime) as exc:
        m0_closed_form(0.0, -0.5, 1.0, -4.0)
    assert exc.value.det_value == -1.0
    assert exc.value.t == -2.0


def test_scalar_base_flow_values():
    c, lam = constant_kernel_scalars(1.0, 2.0)
    assert c == pytest.approx(0.25)
    assert lam == pytest.approx(-0.5)
    with pytest.raises(BlowupAtTime) as exc:
        constant_kernel_scalars(1.0, -2.0)
    assert (exc.value.t, exc.value.det_value) == (-2.0, 0.0)


def test_exponential_data_inverts_exactly():
    # g0 = e^{-x}, t = 2  ->  g = (1/4) e^{-x/2} pointwise
    g = mass_grid(60.0, 512)
    g0 = exponential_density(g, 1.0, 1.0)
    out = constant_kernel_solve(g0, 2.0)
    expected = 0.25 * np.exp(-0.5 * g.nodes)
    assert np.max(np.abs(out.values - expected)) == 0.0
    assert out.exponential == pytest.approx((0.25, 0.5))


def test_exponential_blowup_when_base_denominator_crosses_zero():
    # negative-mass data drives 1 + t m0/2 through zero in finite time
    g = mass_grid(10.0, 64)
    g0 = exponential_density(g, -1.0, 1.0)
    with pytest.raises(BlowupAtTime):
        constant_kernel_solve(g0, 3.0)


def negative_exponential():
    # the sampled mass of -e^{-x} on [0, 40] is -1.000127, whose base
    # denominator 1 + t m0/2 crosses zero before t = 2; the exact mass -1
    # puts the blow-up at t = 2, and only the exact mass may decide it
    return exponential_density(mass_grid(40.0, 1024), -1.0, 1.0)


def test_exponential_just_before_blowup_is_the_closed_form():
    g0, t = negative_exponential(), 1.9999
    c, lam = constant_kernel_scalars(-1.0, t)
    out = constant_kernel_solve(g0, t)
    expected = c * -1.0 * np.exp(-(1.0 + lam * -1.0) * g0.grid.nodes)
    assert np.array_equal(out.values, expected)


def test_exponential_blowup_reports_the_exact_denominator():
    with pytest.raises(BlowupAtTime) as exc:
        constant_kernel_solve(negative_exponential(), 2.0001)
    assert exc.value.det_value == 1 - 0.5 * 2.0001


def test_sampled_data_agrees_with_analytic_path():
    g = mass_grid(60.0, 2048)
    g0_exp = exponential_density(g, 1.0, 1.0)
    g0_samp = MassDensity(grid=g, values=np.exp(-g.nodes))
    analytic = constant_kernel_solve(g0_exp, 2.0)
    sampled = constant_kernel_solve(g0_samp, 2.0)
    # the sampled path is first order in the spacing
    assert np.max(np.abs(sampled.values - analytic.values)) < 5 * g.spacing


def test_constant_kernel_matches_direct_oracle():
    g = mass_grid(60.0, 512)
    g0 = exponential_density(g, 1.0, 1.0)
    proj = constant_kernel_solve(g0, 2.0)
    direct = direct_smol_oracle(g0, 2.0, 1e-3)
    assert np.max(np.abs(proj.values - direct.values)) < 1e-4


def test_moments_track_conservation_laws():
    g = mass_grid(80.0, 1024)
    g0 = exponential_density(g, 1.0, 1.0)
    _, times, m0s, m1s = direct_smol_oracle(g0, 2.0, 1e-3,
                                            track_moments=True)
    # m0 follows the closed form; m1 (total mass) is conserved
    expected = np.array([m0_closed_form(0.0, -0.5, m0s[0], s) for s in times])
    assert np.max(np.abs(m0s - expected)) < 1e-3
    assert np.max(np.abs(m1s - m1s[0])) < 1e-3 * abs(m1s[0])


# ---------------------------------------------------------------------------
# Volterra machinery


def volterra_assemble(g, qhat, grid):
    """p = g + g * qhat with (g * qhat)(x_i) = h sum_{j<i} g_j qhat_{i-j}."""
    _check_uniform(grid)
    return g + riemann_conv(g, qhat, grid.spacing)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 31))
def test_volterra_round_trip_is_exact(seed):
    rng = np.random.default_rng(seed)
    g = mass_grid(4.0, 33)
    gv = rng.standard_normal(33)
    qv = rng.standard_normal(33)
    p = volterra_assemble(gv, qv, g)
    back = volterra_project(p, qv, g)
    assert np.max(np.abs(back - gv)) < 1e-12 * max(1, np.max(np.abs(gv)))
    assert np.max(np.abs(volterra_assemble(back, qv, g) - p)) < 1e-12


@pytest.mark.parametrize("n", [33, 64])
@pytest.mark.parametrize("same", [True, False])
def test_riemann_conv_matches_direct_left_sum(n, same):
    rng = np.random.default_rng(n)
    u = rng.standard_normal(n)
    v = u if same else rng.standard_normal(n)
    h = 0.37
    direct = np.array([h * sum(u[j] * v[i - j] for j in range(i))
                       for i in range(n)])
    out = riemann_conv(u, v, h)
    assert np.max(np.abs(out - direct)) < 1e-13 * np.max(np.abs(direct))


def test_volterra_requires_mass_grid():
    with pytest.raises(ConfigError):
        volterra_project(np.ones(4), np.ones(4),
                         Grid1D(1.0, 2.0, 4, kind="closed"))


def test_deconvolve_recovers_known_factor():
    g = mass_grid(2.0, 65)
    x = g.nodes
    gv = np.exp(-x)
    qv = 1.0 + 0.5 * x
    h = g.spacing
    # assemble p = g * q with the same left-Riemann sum
    p = np.zeros(65)
    for i in range(1, 65):
        p[i] = h * np.dot(gv[:i], qv[i:0:-1])
    back = deconvolve(p, qv, g)
    assert np.max(np.abs(back[:-1] - gv[:-1])) < 1e-12
    with pytest.raises(ConfigError):
        deconvolve(p, np.zeros(65), g)


def test_triangular_solves_match_their_former_loops():
    # the FFT solve cannot repeat the loops' rounding, so both are held to
    # the same bound against a long-double forward substitution
    rng = np.random.default_rng(5)
    g = mass_grid(3.0, 129)
    h = g.spacing
    p, qv = rng.standard_normal(129), 1.0 + rng.random(129)
    exact = forward_substitute_longdouble(p, qv, h, 1.0)
    bound = 1e-14 * float(np.max(np.abs(exact)))
    for out in (volterra_project(p, qv, g), volterra_loop(p, qv, h)):
        assert float(np.max(np.abs(out - exact))) <= bound
    exact = forward_substitute_longdouble(p[1:] / h, qv[1:], 1, qv[1])
    bound = 1e-14 * float(np.max(np.abs(exact)))
    for out in (deconvolve(p, qv, g), deconvolve_loop(p, qv, h)):
        assert float(np.max(np.abs(out[:-1] - exact))) <= bound


def test_prelaplace_deconvolution_is_no_less_accurate_than_the_loop():
    # the prelaplace benchmark job's data: 8192 nodes on [0, 1], exp
    # profile, nu = 1, t = 0.5; the system amplifies rounding by about 1e4
    g = mass_grid(1.0, 8192)
    x, h = g.nodes, g.spacing
    q = profile_samples("exp", x) * np.exp(x ** 2 * 0.5)
    p = 2.0 * x * q
    exact = forward_substitute_longdouble(p[1:] / h, q[1:], 1, q[1])
    err = lambda out: float(np.max(np.abs(out[:-1] - exact)))
    assert err(deconvolve(p, q, g)) <= err(deconvolve_loop(p, q, h))


@pytest.mark.parametrize("complex_arg", [0, 1])
def test_volterra_solves_refuse_complex_data(complex_arg):
    g = mass_grid(1.0, 16)
    args = [np.ones(16), 1.0 + np.arange(16.0)]
    args[complex_arg] = args[complex_arg] + 1e-3j
    for solve in (volterra_project, deconvolve):
        with pytest.raises(ConfigError):
            solve(*args, g)


# ---------------------------------------------------------------------------
# general mass-space solver


def test_general_solver_reduces_to_constant_kernel():
    g = mass_grid(60.0, 256)
    g0 = exponential_density(g, 1.0, 1.0)
    coeffs = SmolCoefficients(b0_delta=-0.5, include_loss=True)
    out = general_smol_solve(coeffs, g0, 1.0, steps=256)
    closed = constant_kernel_solve(g0, 1.0)
    assert np.max(np.abs(out.values - closed.values)) < 5e-3


def test_degree_ordering_enforced():
    with pytest.raises(ConfigError):
        SmolCoefficients(d_poly=(0.0, 1.0), b_poly=(0.0, 0.0, 1.0))


def test_poly_ddx_matches_dense_derivative_matrix():
    # reference: the dense three-point first-derivative matrix, one-sided
    # second order at the ends, raised to powers
    g = mass_grid(3.0, 41)
    n, h = g.n, g.spacing
    dmat = np.zeros((n, n))
    for i in range(1, n - 1):
        dmat[i, i - 1], dmat[i, i + 1] = -0.5 / h, 0.5 / h
    dmat[0, :3] = np.array([-1.5, 2.0, -0.5]) / h
    dmat[-1, -3:] = np.array([0.5, -2.0, 1.5]) / h
    poly = (-0.5, 0.3, 0.1)
    ref = poly[0] * np.eye(n) + poly[1] * dmat + poly[2] * dmat @ dmat
    u = np.exp(-g.nodes) * np.cos(2.0 * g.nodes)
    assert np.max(np.abs(_poly_ddx(poly, u, h) - ref @ u)) < 1e-12


def test_m0_riccati_matches_closed_form():
    # lin != 0, and a, b0, the delta gain and B0 all enter the rates; the
    # RK4 loop converges to the closed form at fourth order
    g = mass_grid(20.0, 201)
    x = g.nodes
    a, b0 = 0.2 * np.exp(-x), -0.1 * np.exp(-0.5 * x)
    coeffs = SmolCoefficients(d_poly=(0.3,), b_poly=(0.1,), a=a, b0=b0,
                              b0_delta=-0.4, include_loss=True)
    lin, quad = m0_rates(coeffs, g)
    assert lin == pytest.approx(0.3 - np.trapezoid(a, x), abs=1e-15)
    assert quad == pytest.approx(0.1 + 0.4 - np.trapezoid(b0, x) - 1.0,
                                 abs=1e-15)
    exact = m0_closed_form(lin, quad, 1.5, 2.0)
    errs = [abs(_m0_riccati_loop(lin, quad, 1.5, 2.0, steps) - exact)
            for steps in (8, 16, 32)]
    # measured 15.9 and 16.0
    assert errs[0] / errs[1] > 14 and errs[1] / errs[2] > 14


def test_m0_riccati_blowup_with_growth_reports_its_pole():
    # lin = -0.2, quad = 1: 1/m0 reaches 0 at e^{-t/5} = 1 - 1/(5 m0(0))
    g = mass_grid(10.0, 64)
    g0 = exponential_density(g, 2.0, 1.0)
    coeffs = SmolCoefficients(d_poly=(-0.2,), b0_delta=-2.0,
                              include_loss=True)
    lin, quad = m0_rates(coeffs, g)
    assert (lin, quad) == (-0.2, 1.0)
    pole = -5.0 * np.log(1.0 - 1.0 / (5.0 * g0.m0))
    with pytest.raises(BlowupAtTime, match="m0 preprocessing Riccati") as exc:
        general_smol_solve(coeffs, g0, 1.0, steps=64)
    assert abs(exc.value.t - pole) <= 1e-12
    assert np.isfinite(m0_closed_form(lin, quad, g0.m0, pole * (1 - 1e-9)))


def test_general_residual_shrinks_under_simultaneous_refinement():
    # the residual floor is first order in the spacing, so grid and stencil
    # must refine together
    coeffs = SmolCoefficients(d_poly=(-0.2,), b0_delta=-0.4)

    def residual(n, dt, steps):
        g = mass_grid(30.0, n)
        g0 = exponential_density(g, 0.8, 1.0)
        return general_smol_residual(coeffs, g0, 0.5, dt, steps=steps)[1]

    coarse = residual(97, 2e-2, 128)
    fine = residual(193, 1e-2, 256)
    assert fine < coarse
    assert coarse / fine > 1.7


def test_general_solver_with_sampled_interaction_terms():
    g = mass_grid(20.0, 128)
    g0 = exponential_density(g, 0.5, 1.0)
    a = 0.1 * np.exp(-2.0 * g.nodes)
    b0 = -0.05 * np.exp(-g.nodes)
    coeffs = SmolCoefficients(d_poly=(-0.1,), a=a, b0=b0)
    out = general_smol_solve(coeffs, g0, 0.5, steps=256)
    assert np.all(np.isfinite(out.values))
    mid, res = general_smol_residual(coeffs, g0, 0.5, 1e-2, steps=256)
    assert res < 1e-2
    # the residual's middle solve is the solve at t itself
    assert np.array_equal(mid, out.values)


def _m0_riccati_loop(lin, quad, m00, t, steps):
    """The reference: the RK4 loop that stepped the m0 Riccati to t before
    its closed form."""
    dt = t / steps
    rate = lambda s, m: lin * m + quad * m * m
    m0 = m00
    for i in range(steps):
        m0 = rk4_step(rate, m0, i * dt, dt)
    return m0


def _general_smol_loop(coeffs, g0, t, steps):
    """The reference: general_smol_solve's own RK4 loop on its linear base
    pair before it went through core.march; a constant delta gain and the
    loss term, as in the constant-kernel preset."""
    grid, h, dt = g0.grid, g0.grid.spacing, t / steps
    # d0 = abar = b0c = 0, so lin = 0 and quad = -b0_delta - 1
    quad = -coeffs.b0_delta - 1.0

    def rhs(s, state):
        p, qhat = state
        m0 = m0_closed_form(0.0, quad, g0.m0, s)
        dp = _poly_ddx(coeffs.d_poly, p, h) - m0 * p
        dq = coeffs.b0_delta * p - _poly_ddx(coeffs.b_poly, p, h)
        return np.array([dp, dq])

    state = np.array([g0.values.astype(float), np.zeros(grid.n)])
    for m in range(steps):
        state = rk4_step(rhs, state, m * dt, dt)
    return volterra_project(state[0], state[1], grid)


def test_general_solver_equals_its_loop_bitwise():
    g = mass_grid(40.0, 128)
    g0 = MassDensity(grid=g, values=np.exp(-g.nodes))
    coeffs = SmolCoefficients(b0_delta=-0.5, include_loss=True)
    out = general_smol_solve(coeffs, g0, 0.7, steps=96)
    assert np.array_equal(out.values, _general_smol_loop(coeffs, g0, 0.7, 96))


def test_m0_riccati_blowup_reports_its_time():
    # m0' = -m0^2 / 2 from m0(0) = -4 blows up at t = 0.5
    g = mass_grid(10.0, 32)
    coeffs = SmolCoefficients(b0_delta=-0.5, include_loss=True)
    with pytest.raises(BlowupAtTime) as exc:
        m0_closed_form(*m0_rates(coeffs, g), -4.0, 1.0)
    assert exc.value.t == 0.5


# ---------------------------------------------------------------------------
# exponential-kernel bridge


def gain_only_oracle(g0, t, dt, alpha=None):
    """RK4 of the gain-only equation dg/dt = (1/2) int_0^x K(y, x - y)
    g(y) g(x - y) dy on the truncated grid: the constant kernel K = 1, or
    with ``alpha`` the kernel K(y, x - y) = exp(-2 alpha y (x - y))."""
    grid = g0.grid
    h, x, n = grid.spacing, grid.nodes, grid.n
    if alpha is None:
        gain = lambda s, g: 0.5 * riemann_conv(g, g, h)
    else:
        # kmat[i, j] = K(x_j, x_i - x_j) pairs g_j with g_{i-j}, j < i
        lag = np.tril(np.subtract.outer(np.arange(n), np.arange(n)), -1)
        dist = np.tril(np.subtract.outer(x, x))  # x_i - x_j, 0 for j > i
        kmat = np.tril(np.exp(-2.0 * alpha * x * dist), -1)
        gain = lambda s, g: 0.5 * h * ((kmat * g[lag]) @ g)
    steps = max(1, int(round(t / dt)))
    dt = t / steps
    g = march(lambda m, g: rk4_step(gain, g, m * dt, dt),
              g0.values.astype(float), steps)
    return MassDensity(grid=grid, values=g)


def exp_kernel_rescale(g, alpha, inverse=False):
    """Map between the exp-kernel and constant-kernel gain-only flows.

    If g solves the gain-only equation with K(y, x-y) = exp(-2 alpha y(x-y)),
    then u = g exp(alpha x^2) solves the constant-kernel gain-only equation:
    the kernel exactly absorbs the cross term of (y + (x-y))^2.  ``inverse``
    maps a constant-kernel solution back.
    """
    expo = alpha * g.grid.nodes ** 2
    if inverse:
        expo = -expo
    if np.max(expo) > 700:
        raise ConfigError("rescaling factor overflows")
    return MassDensity(grid=g.grid, values=g.values * np.exp(expo))


def test_exp_kernel_at_zero_alpha_is_the_constant_gain_only_oracle():
    g = mass_grid(6.0, 256)
    g0 = MassDensity(grid=g, values=np.exp(-2.0 * g.nodes))
    exp_out = gain_only_oracle(g0, 0.4, 1e-3, alpha=0.0)
    const_out = gain_only_oracle(g0, 0.4, 1e-3)
    assert np.max(np.abs(exp_out.values - const_out.values)) < 1e-13


def test_exp_kernel_bridge_holds_to_round_off():
    # the rescaling identity is exact on the grid, so the two oracles agree
    # to round-off once the exp-kernel gain pairs g_j with g_{i-j}
    alpha = 0.05
    g = mass_grid(6.0, 256)
    g0 = MassDensity(grid=g, values=np.exp(-2.0 * g.nodes))
    exp_out = gain_only_oracle(g0, 0.4, 1e-3, alpha=alpha)
    const_out = gain_only_oracle(exp_kernel_rescale(g0, alpha), 0.4, 1e-3)
    bridged = exp_kernel_rescale(exp_out, alpha)
    assert np.max(np.abs(bridged.values - const_out.values)) < 1e-12


def test_rescale_round_trip_and_overflow_guard():
    g = mass_grid(10.0, 64)
    g0 = MassDensity(grid=g, values=np.exp(-g.nodes))
    back = exp_kernel_rescale(exp_kernel_rescale(g0, 0.3), 0.3, inverse=True)
    assert np.allclose(back.values, g0.values)
    with pytest.raises(ConfigError):
        exp_kernel_rescale(g0, 100.0)


def _oracle_loop(g0, t, dt):
    """The reference: direct_smol_oracle's own RK4 loop and moment lists
    (constant kernel, with track_moments) before it went through
    core.march."""
    h, x = g0.grid.spacing, g0.grid.nodes

    def rhs(s, g):
        return 0.5 * riemann_conv(g, g, h) - g * np.trapezoid(g, dx=h)

    steps = max(1, int(round(t / dt)))
    dt = t / steps
    g = g0.values.astype(float).copy()
    times, m0s, m1s = [0.0], [np.trapezoid(g, dx=h)], [np.trapezoid(x * g, dx=h)]
    for m in range(steps):
        g = rk4_step(rhs, g, m * dt, dt)
        times.append((m + 1) * dt)
        m0s.append(np.trapezoid(g, dx=h))
        m1s.append(np.trapezoid(x * g, dx=h))
    return g, np.array(times), np.array(m0s), np.array(m1s)


def test_oracle_equals_its_loop_bitwise():
    g = mass_grid(40.0, 128)
    g0 = exponential_density(g, 1.0, 1.0)
    out, times, m0s, m1s = direct_smol_oracle(g0, 0.5, 1e-2,
                                              track_moments=True)
    ref = _oracle_loop(g0, 0.5, 1e-2)
    for a, b in zip((out.values, times, m0s, m1s), ref):
        assert np.array_equal(a, b)
    assert np.array_equal(direct_smol_oracle(g0, 0.5, 1e-2).values, ref[0])


# ---------------------------------------------------------------------------
# pre-Laplace Burgers


def test_pre_laplace_burgers_residual_order():
    def residual(n, dt):
        g = mass_grid(1.0, n)
        return pre_laplace_burgers_residual(np.exp(-g.nodes), g, 1.0, 0.3,
                                            dt)[1]

    coarse = residual(65, 2e-2)
    fine = residual(129, 1e-2)
    assert fine < coarse
    assert coarse / fine > 1.7


def test_pre_laplace_burgers_rejects_bad_nu():
    g = mass_grid(1.0, 33)
    with pytest.raises(ConfigError):
        pre_laplace_burgers_solve(np.ones(33), g, -1.0, 0.1)


def test_pre_laplace_burgers_t_zero_consistency():
    g = mass_grid(1.0, 65)
    q0 = np.exp(-0.5 * g.nodes)
    # at t = 0 the solve is the density the Volterra relation forces on q0
    g0 = pre_laplace_burgers_solve(q0, g, 1.0, 0.0)
    assert np.array_equal(g0, deconvolve(2.0 * g.nodes * q0, q0, g))
