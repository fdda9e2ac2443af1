"""Coagulation solvers: constant-kernel closed forms, Volterra machinery,
the general mass-space solver, and the pre-Laplace Burgers pipeline."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from grassflow import smoluchowski
from grassflow.cli import SAMPLED_PROFILES
from grassflow.core import Grid1D, march, rk4_step, uniform_steps
from grassflow.errors import BlowupAtTime, ConfigError, VolterraBreakdown
from grassflow.smoluchowski import (BACKWARD_ERROR_BOUND, CONSTANT_KERNEL,
                                    SmolCoefficients, _base_pair_scalars,
                                    _check_uniform, constant_kernel_solve,
                                    deconvolve, direct_smol_oracle,
                                    general_smol_residual, general_smol_solve,
                                    m0_closed_form, m0_rates, moments,
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


def constant_kernel_pair(mu, t):
    """(c, lam) with p(t) = c g0 and qhat(t) = lam g0: the base pair at
    (lin, quad) = (0, -1/2), as constant_kernel_solve takes it."""
    c, integral = _base_pair_scalars(0.0, -0.5, mu, t)
    return c, -0.5 * integral


def test_scalar_base_flow_values():
    # c = 1 / (1 + t mu / 2)^2 and lam = -(t / 2) / (1 + t mu / 2)
    c, lam = constant_kernel_pair(1.0, 2.0)
    assert c == pytest.approx(0.25)
    assert lam == pytest.approx(-0.5)
    with pytest.raises(BlowupAtTime) as exc:
        constant_kernel_pair(1.0, -2.0)
    assert (exc.value.t, exc.value.det_value) == (-2.0, 0.0)


def test_exponential_data_inverts_exactly():
    # g0 = e^{-x}, t = 2  ->  g = (1/4) e^{-x/2} pointwise
    g = mass_grid(60.0, 512)
    out = constant_kernel_solve(g, 1.0, 1.0, 2.0)
    expected = 0.25 * np.exp(-0.5 * g.nodes)
    assert np.max(np.abs(out - expected)) == 0.0


def test_exponential_blowup_when_base_denominator_crosses_zero():
    # negative-mass data drives 1 + t m0/2 through zero in finite time
    g = mass_grid(10.0, 64)
    with pytest.raises(BlowupAtTime):
        constant_kernel_solve(g, -1.0, 1.0, 3.0)


# the sampled mass of -e^{-x} on [0, 40] is -1.000127, whose base
# denominator 1 + t m0/2 crosses zero before t = 2; the exact mass -1 puts
# the blow-up at t = 2, and only the exact mass may decide it
NEGATIVE_EXPONENTIAL_GRID = mass_grid(40.0, 1024)


def test_exponential_just_before_blowup_is_the_closed_form():
    g, t = NEGATIVE_EXPONENTIAL_GRID, 1.9999
    c, lam = constant_kernel_pair(-1.0, t)
    out = constant_kernel_solve(g, -1.0, 1.0, t)
    expected = c * -1.0 * np.exp(-(1.0 + lam * -1.0) * g.nodes)
    assert np.array_equal(out, expected)


def test_exponential_blowup_reports_the_exact_denominator():
    with pytest.raises(BlowupAtTime) as exc:
        constant_kernel_solve(NEGATIVE_EXPONENTIAL_GRID, -1.0, 1.0, 2.0001)
    assert exc.value.det_value == 1 - 0.5 * 2.0001


def test_sampled_data_agrees_with_analytic_path():
    g = mass_grid(60.0, 2048)
    analytic = constant_kernel_solve(g, 1.0, 1.0, 2.0)
    sampled = general_smol_solve(CONSTANT_KERNEL, np.exp(-g.nodes), g, 2.0)
    # the sampled path is first order in the spacing
    assert np.max(np.abs(sampled - analytic)) < 5 * g.spacing


def test_constant_kernel_matches_direct_oracle():
    g = mass_grid(60.0, 512)
    proj = constant_kernel_solve(g, 1.0, 1.0, 2.0)
    direct = direct_smol_oracle(np.exp(-g.nodes), g, 2.0, 1e-3)
    assert np.max(np.abs(proj - direct)) < 1e-4


def oracle_moments(g0, grid, t, dt):
    """The oracle's times, m0 and m1 at every step."""
    steps, dt = uniform_steps(t, dt)
    kept = direct_smol_oracle(g0, grid, t, dt, checkpoints=range(steps + 1))
    m0s, m1s = np.array([moments(g, grid) for g in kept.values()]).T
    return dt * np.array(list(kept)), m0s, m1s


def test_moments_track_conservation_laws():
    g = mass_grid(80.0, 1024)
    times, m0s, m1s = oracle_moments(np.exp(-g.nodes), g, 2.0, 1e-3)
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


def test_riemann_conv_pads_to_a_5_smooth_length(monkeypatch):
    # 2 * 257 samples would take pocketfft's Bluestein path for the prime
    # 257; 540 = 2^2 3^3 5 is the least 5-smooth length above 514
    lengths = []
    kernels = smoluchowski.fft_kernels
    monkeypatch.setattr(smoluchowski, "fft_kernels",
                        lambda n, real: lengths.append(n) or kernels(n, real))
    u, v = np.random.default_rng(257).standard_normal((2, 257))
    out = riemann_conv(u, v, 0.37)
    assert lengths == [540]
    direct = 0.37 * (np.convolve(u, v)[:257] - u * v[0])
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
    q = SAMPLED_PROFILES["exp"](x) * np.exp(x ** 2 * 0.5)
    p = 2.0 * x * q
    exact = forward_substitute_longdouble(p[1:] / h, q[1:], 1, q[1])
    err = lambda out: float(np.max(np.abs(out[:-1] - exact)))
    assert err(deconvolve(p, q, g)) <= err(deconvolve_loop(p, q, h))


def prelaplace_pair(domain_l):
    """prelaplace's default data at t = 1 (exp profile, nu = 1, 256 nodes)
    on [0, domain_l]: the grid, p and q."""
    g = mass_grid(domain_l, 256)
    x = g.nodes
    q = SAMPLED_PROFILES["exp"](x) * np.exp(x ** 2)
    return g, 2.0 * x * q, q


@pytest.mark.parametrize("domain_l, solvable", [(1.0, True), (3.0, True),
                                                (4.0, False), (10.0, False)])
def test_deconvolve_refuses_a_solution_with_a_large_backward_error(
        domain_l, solvable):
    # q = e^{-x + x^2} spans e^{L^2 - L}: at L = 4 the FFT quotient's g(0)
    # reads 1.99988 for 2, at L = 10 about 1e63
    g, p, q = prelaplace_pair(domain_l)
    if solvable:
        out = deconvolve(p, q, g)
        error = np.max(np.abs((riemann_conv(out, q, g.spacing) - p)[1:]))
        assert error <= BACKWARD_ERROR_BOUND * np.max(np.abs(p))
        return
    with pytest.raises(VolterraBreakdown, match="deconvolve backward error") \
            as caught:
        deconvolve(p, q, g)
    assert caught.value.backward_error > BACKWARD_ERROR_BOUND


def test_volterra_project_refuses_a_solution_with_a_large_backward_error():
    # g + g * (-10) = 1 has g = (1 + 10 h)^i, about e^{100} at x = 10,
    # which the FFT quotient cannot hold to the bound
    g = mass_grid(10.0, 256)
    with pytest.raises(VolterraBreakdown, match="volterra_project") as caught:
        volterra_project(np.ones(256), np.full(256, -10.0), g)
    assert caught.value.backward_error > 1.0
    # a NaN in the data is past every bound
    p = np.ones(256)
    p[3] = np.nan
    with pytest.raises(VolterraBreakdown):
        volterra_project(p, np.ones(256), g)


def test_volterra_breakdown_names_the_solve_time():
    # on [0, 10], qhat = -10 t and q = e^{x^2 t} take each Volterra solve
    # past the backward-error bound
    g = mass_grid(10.0, 256)
    solves = [lambda t: general_smol_solve(SmolCoefficients(b0_delta=-10.0),
                                           np.ones(256), g, t),
              lambda t: pre_laplace_burgers_solve(np.ones(256), g, 1.0, t)]
    for solve in solves:
        with pytest.raises(VolterraBreakdown) as caught:
            solve(0.75)
        assert caught.value.t == 0.75


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
    coeffs = SmolCoefficients(b0_delta=-0.5, include_loss=True)
    out = general_smol_solve(coeffs, np.exp(-g.nodes), g, 1.0)
    closed = constant_kernel_solve(g, 1.0, 1.0, 1.0)
    assert np.max(np.abs(out - closed)) < 5e-3


def test_m0_riccati_matches_closed_form():
    # lin != 0, and b0 and the delta gain both enter the rates; the RK4
    # loop converges to the closed form at fourth order
    g = mass_grid(20.0, 201)
    x = g.nodes
    b0 = -0.1 * np.exp(-0.5 * x)
    coeffs = SmolCoefficients(d=0.3, b0=b0, b0_delta=-0.5,
                              include_loss=True)
    lin, quad = m0_rates(coeffs, g)
    assert lin == 0.3
    assert quad == pytest.approx(0.5 - np.trapezoid(b0, x) - 1.0,
                                 abs=1e-15)
    exact = m0_closed_form(lin, quad, 1.5, 2.0)
    errs = [abs(_m0_riccati_loop(lin, quad, 1.5, 2.0, steps) - exact)
            for steps in (8, 16, 32)]
    # measured 15.9 and 16.0
    assert errs[0] / errs[1] > 14 and errs[1] / errs[2] > 14


def test_m0_riccati_blowup_with_growth_reports_its_pole():
    # lin = -0.2, quad = 1: 1/m0 reaches 0 at e^{-t/5} = 1 - 1/(5 m0(0))
    g = mass_grid(10.0, 64)
    g0 = 2.0 * np.exp(-g.nodes)
    m00 = moments(g0, g)[0]
    coeffs = SmolCoefficients(d=-0.2, b0_delta=-2.0, include_loss=True)
    lin, quad = m0_rates(coeffs, g)
    assert (lin, quad) == (-0.2, 1.0)
    pole = -5.0 * np.log(1.0 - 1.0 / (5.0 * m00))
    with pytest.raises(BlowupAtTime, match="m0 preprocessing Riccati") as exc:
        general_smol_solve(coeffs, g0, g, 1.0)
    assert abs(exc.value.t - pole) <= 1e-12
    assert np.isfinite(m0_closed_form(lin, quad, m00, pole * (1 - 1e-9)))


def test_general_residual_shrinks_under_simultaneous_refinement():
    # the residual floor is first order in the spacing, so grid and time
    # step must refine together; the delta gain enters the solve and the
    # residual alike (measured ratio 1.94)
    coeffs = SmolCoefficients(d=-0.2, b0_delta=-0.5)

    def residual(n, dt):
        g = mass_grid(30.0, n)
        return general_smol_residual(coeffs, 0.8 * np.exp(-g.nodes), g, 0.5,
                                     dt)[1]

    coarse = residual(97, 2e-2)
    fine = residual(193, 1e-2)
    assert fine < coarse
    assert coarse / fine > 1.7


def test_general_solver_with_sampled_interaction_terms():
    g = mass_grid(20.0, 128)
    g0 = 0.5 * np.exp(-g.nodes)
    b0 = -0.05 * np.exp(-g.nodes)
    coeffs = SmolCoefficients(d=-0.1, b0=b0)
    out = general_smol_solve(coeffs, g0, g, 0.5)
    assert np.all(np.isfinite(out))
    # over every node (measured 5.7e-6)
    mid, res = general_smol_residual(coeffs, g0, g, 0.5, 1e-2)
    assert res < 1e-5
    # the residual's middle solve is the solve at t itself
    assert np.array_equal(mid, out)


def _m0_riccati_loop(lin, quad, m00, t, steps):
    """The reference: the RK4 loop that stepped the m0 Riccati to t before
    its closed form."""
    dt = t / steps
    rate = lambda s, m: lin * m + quad * m * m
    m0 = m00
    for i in range(steps):
        m0 = rk4_step(rate, m0, i * dt, dt)
    return m0


def _general_smol_loop(coeffs, g0, grid, t, steps):
    """The reference: the RK4 loop that stepped general_smol_solve's linear
    base pair before its closed form, with m0 from its closed form."""
    h, dt = grid.spacing, t / steps
    lin, quad = m0_rates(coeffs, grid)
    m00 = moments(g0, grid)[0] if coeffs.include_loss else 0.0

    def rhs(s, state):
        p, qhat = state
        m0 = m0_closed_form(lin, quad, m00, s)
        dp = coeffs.d * p - m0 * p
        dq = coeffs.b0_delta * p \
            + riemann_conv(np.broadcast_to(coeffs.b0, p.shape), p, h)
        return np.array([dp, dq])

    state = np.array([g0.astype(float), np.zeros(grid.n)])
    for m in range(steps):
        state = rk4_step(rhs, state, m * dt, dt)
    return volterra_project(state[0], state[1], grid)


def _loop_gaps(coeffs, g0, grid, t):
    """The closed-form solve's gaps to its RK4 loop at 96, 192, 384 steps."""
    out = general_smol_solve(coeffs, g0, grid, t)
    return [float(np.max(np.abs(out - _general_smol_loop(coeffs, g0, grid, t,
                                                          steps))))
            for steps in (96, 192, 384)]


def test_general_solver_closed_form_matches_its_loop_and_constant_kernel():
    # the constant-kernel preset's coefficients; the loop converges to the
    # closed form at fourth order (measured 4.4e-12, 2.7e-13, 1.7e-14)
    g = mass_grid(40.0, 128)
    coeffs = SmolCoefficients(b0_delta=-0.5, include_loss=True)
    gaps = _loop_gaps(coeffs, np.exp(-g.nodes), g, 0.7)
    assert gaps[0] / gaps[1] >= 14 and gaps[2] <= 1e-13


# a sampled b0 on the loss-term tests' grid
B0 = -0.1 * np.exp(-0.5 * mass_grid(40.0, 128).nodes)


@pytest.mark.parametrize("rates, coeffs", [
    ((0.3, -0.3), SmolCoefficients(d=0.3, b0_delta=-0.7,
                                   include_loss=True)),
    ((-0.2, 0.0), SmolCoefficients(d=-0.2, b0_delta=-1.0,
                                   include_loss=True)),
    # the gain b0_delta = -(1 + quad) vanishes here, so qhat = 0
    ((-0.2, -1.0), SmolCoefficients(d=-0.2, include_loss=True)),
    # qhat = (int alpha) (b0_delta p0 + b0*p0) (measured 2.9e-12,
    # 1.8e-13, 1.2e-14)
    ((0.3, -0.3 - np.trapezoid(B0, dx=40.0 / 127)),
     SmolCoefficients(d=0.3, b0=B0, b0_delta=-0.7, include_loss=True)),
], ids=["lin", "quad0", "quad-1", "b0"])
def test_general_solver_loss_term_matches_its_loop(rates, coeffs):
    g = mass_grid(40.0, 128)
    assert m0_rates(coeffs, g) == pytest.approx(rates, abs=1e-15)
    gaps = _loop_gaps(coeffs, np.exp(-g.nodes), g, 0.7)
    assert gaps[0] / gaps[1] >= 14 and gaps[2] <= 1e-13


def test_general_solver_sampled_b0_without_loss_matches_its_loop():
    # alpha = e^{d t}: 96 steps of the loop reach round-off (measured
    # 6.7e-16)
    g = mass_grid(40.0, 128)
    g0 = np.exp(-g.nodes)
    coeffs = SmolCoefficients(d=-0.1, b0=B0, b0_delta=-0.1)
    out = general_smol_solve(coeffs, g0, g, 0.7)
    loop = _general_smol_loop(coeffs, g0, g, 0.7, 96)
    assert np.max(np.abs(out - loop)) <= 1e-14


def test_general_solver_decay_is_exact():
    # the CLI's default coefficients, d = -1: g = e^{-t} g0 (measured 9.8e-17
    # relative)
    g = mass_grid(40.0, 512)
    g0 = np.exp(-g.nodes)
    out = general_smol_solve(SmolCoefficients(d=-1.0), g0, g, 1.0)
    exact = np.exp(-1.0) * g0
    assert np.max(np.abs(out - exact)) <= 1e-14 * np.max(exact)


def test_m0_riccati_blowup_reports_its_time():
    # m0' = -m0^2 / 2 from m0(0) = -4 blows up at t = 0.5
    g = mass_grid(10.0, 32)
    coeffs = SmolCoefficients(b0_delta=-0.5, include_loss=True)
    with pytest.raises(BlowupAtTime) as exc:
        m0_closed_form(*m0_rates(coeffs, g), -4.0, 1.0)
    assert exc.value.t == 0.5


# ---------------------------------------------------------------------------
# exponential-kernel bridge


def gain_only_oracle(g0, grid, t, dt, alpha=None):
    """RK4 of the gain-only equation dg/dt = (1/2) int_0^x K(y, x - y)
    g(y) g(x - y) dy on the truncated grid: the constant kernel K = 1, or
    with ``alpha`` the kernel K(y, x - y) = exp(-2 alpha y (x - y))."""
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
    return march(lambda m, g: rk4_step(gain, g, m * dt, dt),
                 g0.astype(float), steps)


def exp_kernel_rescale(g, grid, alpha, inverse=False):
    """Map between the exp-kernel and constant-kernel gain-only flows.

    If g solves the gain-only equation with K(y, x-y) = exp(-2 alpha y(x-y)),
    then u = g exp(alpha x^2) solves the constant-kernel gain-only equation:
    the kernel exactly absorbs the cross term of (y + (x-y))^2.  ``inverse``
    maps a constant-kernel solution back.
    """
    expo = alpha * grid.nodes ** 2
    if inverse:
        expo = -expo
    if np.max(expo) > 700:
        raise ConfigError("rescaling factor overflows")
    return g * np.exp(expo)


def test_exp_kernel_at_zero_alpha_is_the_constant_gain_only_oracle():
    g = mass_grid(6.0, 256)
    g0 = np.exp(-2.0 * g.nodes)
    exp_out = gain_only_oracle(g0, g, 0.4, 1e-3, alpha=0.0)
    const_out = gain_only_oracle(g0, g, 0.4, 1e-3)
    assert np.max(np.abs(exp_out - const_out)) < 1e-13


def test_exp_kernel_bridge_holds_to_round_off():
    # the rescaling identity is exact on the grid, so the two oracles agree
    # to round-off once the exp-kernel gain pairs g_j with g_{i-j}
    alpha = 0.05
    g = mass_grid(6.0, 256)
    g0 = np.exp(-2.0 * g.nodes)
    exp_out = gain_only_oracle(g0, g, 0.4, 1e-3, alpha=alpha)
    const_out = gain_only_oracle(exp_kernel_rescale(g0, g, alpha), g, 0.4,
                                 1e-3)
    bridged = exp_kernel_rescale(exp_out, g, alpha)
    assert np.max(np.abs(bridged - const_out)) < 1e-12


def test_rescale_round_trip_and_overflow_guard():
    g = mass_grid(10.0, 64)
    g0 = np.exp(-g.nodes)
    back = exp_kernel_rescale(exp_kernel_rescale(g0, g, 0.3), g, 0.3,
                              inverse=True)
    assert np.allclose(back, g0)
    with pytest.raises(ConfigError):
        exp_kernel_rescale(g0, g, 100.0)


def _oracle_loop(g0, grid, t, dt):
    """The reference: direct_smol_oracle's own RK4 loop and moment lists
    (constant kernel) before it went through core.march."""
    h, x = grid.spacing, grid.nodes

    def rhs(s, g):
        return 0.5 * riemann_conv(g, g, h) - g * np.trapezoid(g, dx=h)

    steps = max(1, int(round(t / dt)))
    dt = t / steps
    g = g0.astype(float).copy()
    times, m0s, m1s = [0.0], [np.trapezoid(g, dx=h)], [np.trapezoid(x * g, dx=h)]
    for m in range(steps):
        g = rk4_step(rhs, g, m * dt, dt)
        times.append((m + 1) * dt)
        m0s.append(np.trapezoid(g, dx=h))
        m1s.append(np.trapezoid(x * g, dx=h))
    return g, np.array(times), np.array(m0s), np.array(m1s)


def test_oracle_equals_its_loop_bitwise():
    g = mass_grid(40.0, 128)
    g0 = np.exp(-g.nodes)
    kept = direct_smol_oracle(g0, g, 0.5, 1e-2, checkpoints=range(51))
    ref = _oracle_loop(g0, g, 0.5, 1e-2)
    out = (kept[50], *oracle_moments(g0, g, 0.5, 1e-2))
    for a, b in zip(out, ref):
        assert np.array_equal(a, b)
    assert np.array_equal(direct_smol_oracle(g0, g, 0.5, 1e-2), ref[0])


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
