"""KdV / NLS pipelines and their split-step oracles."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from grassflow.core import Grid1D, central_in_t, quadrature_weights
from grassflow.errors import ConfigError, SymbolError
from grassflow.cli import SAMPLED_PROFILES, RunConfig, apply_preset
from grassflow.integrable import (CHUNK_BYTES, GAUSS_NODES, _project_over_x,
                                  cubic_kdv_symbol, etdrk4_kdv,
                                  half_line_grid, kdv_fredholm_solve,
                                  nls_fredholm_solve, nls_gram,
                                  propagate_dispersive, schrodinger_symbol,
                                  split_step_nls)
from reference import (AdditiveKernelTrace, ddx, kdv_paper_split_step,
                       nystrom_fredholm, one_x_hankel, project_one_x_at_a_time,
                       solve_additive_fredholm, split_step_kdv)

RULES = ("trapezoid", "gauss-legendre")


def periodic_grid(lo, hi, n):
    return Grid1D(lo, hi, n, kind="periodic")


def additive_trace(samples, g, real=False):
    """The samples of a periodic field on the grid ``g``, or with ``real``
    their real parts, on the doubled window [-3L/2, L/2), zero beyond it."""
    wide = Grid1D(g.lower - g.length, g.lower + g.length, 2 * g.n,
                  kind="periodic")
    samples = samples.real if real else samples
    return AdditiveKernelTrace(grid=wide, values=np.tile(samples, 2))


def nls_assemble_qhat(trace, zgrid, x):
    """qhat(y, z) = int p*(y + xi + x) p(xi + z + x) dxi by the trapezoid
    rule.

    Returned matrix is Hermitian positive semidefinite by construction
    (a weighted Gram matrix of shifted trace rows).
    """
    nodes, w = zgrid.nodes, quadrature_weights(zgrid)
    m = trace(nodes[:, None] + nodes[None, :] + x)  # m[k, j] = p(eta_k + z_j + x)
    return nls_gram(m[None], w)[0]


# ---------------------------------------------------------------------------
# propagation


def test_symbols_are_skew():
    for sym in (cubic_kdv_symbol, schrodinger_symbol):
        vals = sym(np.linspace(-4, 4, 33))
        assert np.max(np.abs(vals.real)) < 1e-12 * max(1, np.max(np.abs(vals)))


def test_propagation_rejects_growing_symbol():
    g = periodic_grid(-1, 1, 16)

    def heat(k):
        return -(2 * np.pi * k) ** 2 + 0j

    with pytest.raises(SymbolError, match="'heat'"):
        propagate_dispersive(np.ones(16), g, heat, 0.1)


def test_single_harmonic_propagates_by_phase():
    # the harmonic e^{+2 pi i k x} picks up the phase exp(t (2 pi i k)^3),
    # wherever the grid starts
    for g in (periodic_grid(0.0, 2.0, 32), periodic_grid(-3.0, 5.0, 32)):
        for k1 in (1.0 / g.length, -3.0 / g.length):
            f = np.exp(2j * np.pi * k1 * g.nodes)
            out = propagate_dispersive(f, g, cubic_kdv_symbol, 0.3)
            expected = f * np.exp(0.3 * (2j * np.pi * k1) ** 3)
            assert np.max(np.abs(out - expected)) < 1e-12


def test_nyquist_mode_takes_the_even_part_of_the_symbol():
    g = periodic_grid(-5.0, 5.0, 64)
    p0 = -0.5 * np.cosh(g.nodes / 20.0) + 0.1 * np.sin(3.0 * g.nodes)
    # odd KdV symbol: the real field stays real to rounding
    kdv = propagate_dispersive(p0, g, cubic_kdv_symbol, 0.7)
    assert np.max(np.abs(kdv.imag)) < 1e-15
    # even Schrodinger symbol: every mode, Nyquist included, takes its own
    # phase
    k = np.fft.fftfreq(g.n, d=g.spacing)
    nls = propagate_dispersive(p0, g, schrodinger_symbol, 0.7)
    expected = np.fft.ifft(np.fft.fft(p0)
                           * np.exp(0.7 * schrodinger_symbol(k)))
    assert np.array_equal(nls, expected)


def test_additive_trace_is_periodic_extension():
    g = periodic_grid(-2.0, 2.0, 16)
    samples = np.sin(np.pi * g.nodes)
    trace = additive_trace(samples, g)
    # one period to the left reproduces the same values
    assert np.max(np.abs(trace(g.nodes - g.length) - samples)) < 1e-12
    # beyond the doubled window the trace is zero
    assert trace(np.array([g.lower - g.length - 0.5]))[0] == 0.0


def test_half_line_grid_ends_at_zero():
    g = periodic_grid(-5.0, 5.0, 64)
    z = half_line_grid(g)
    assert z.lower == -5.0 and z.upper == 0.0 and z.n == 33
    assert z.spacing == pytest.approx(g.spacing)


# ---------------------------------------------------------------------------
# Fredholm pipelines


def test_kdv_zero_data_gives_zero_field():
    g = periodic_grid(-5.0, 5.0, 32)
    res = kdv_fredholm_solve(np.zeros(32), g, 1.0)
    assert np.max(np.abs(res.values)) == 0.0
    assert np.allclose(res.det_track, 1.0)


def test_kdv_small_amplitude_linear_limit():
    # for data of size eps the projected field equals the trace to O(eps^2)
    g = periodic_grid(-5.0, 5.0, 64)
    eps = 1e-6
    p0 = eps * np.exp(-g.nodes ** 2)
    res = kdv_fredholm_solve(p0, g, 0.0)
    assert np.max(np.abs(np.real(res.values) - p0)) < 10 * eps ** 2


def test_kdv_matches_split_step_on_coarse_run():
    g = periodic_grid(-5.0, 5.0, 64)
    p0 = -0.5 * np.cosh(g.nodes / 20.0)
    u0 = np.real(kdv_fredholm_solve(p0, g, 0.0).values)
    t = 0.5
    direct = split_step_kdv(u0, g, 1e-4, 5000)
    proj = np.real(kdv_fredholm_solve(p0, g, t).values)
    assert np.max(np.abs(proj - direct)) < 1e-2


def test_kdv_values_are_float64_at_every_time():
    g = periodic_grid(-5.0, 5.0, 64)
    p0 = -0.5 * np.cosh(g.nodes / 20.0)
    for quadrature in RULES:
        for t in (0.0, 0.3, 1.5):
            res = kdv_fredholm_solve(p0, g, t, quadrature)
            assert res.values.dtype == np.float64
            assert res.det_track.dtype == np.float64


def generic_projection(samples, g, qhat_for_x, real=False):
    """Values and dets from the generic solver on interpolating callables
    (over the real part of the trace with ``real``) under the trapezoid
    rule, and det(I + K W) of each x-system by an independent
    determinant."""
    trace = additive_trace(samples, g, real)
    zgrid = half_line_grid(g)
    w = quadrature_weights(zgrid)
    nodes = zgrid.nodes
    values, dets, plain = [], [], []
    for x in g.nodes:
        qhat = qhat_for_x(trace, zgrid, x)
        g_row, det = solve_additive_fredholm(trace, qhat, zgrid, x)
        values.append(g_row[-1])
        dets.append(det)
        kmat = np.asarray(qhat(nodes[:, None], nodes[None, :]), dtype=complex)
        plain.append(np.linalg.det(np.eye(len(w)) + kmat * w))
    return np.array(values), np.array(dets), np.array(plain)


# the generic solver reads the trace at grid nodes: it checks the grid rule
@pytest.mark.parametrize("quadrature", ["trapezoid"])
def test_kdv_projection_matches_generic_solver(quadrature):
    g = periodic_grid(-5.0, 5.0, 64)
    p0 = -0.5 * np.cosh(g.nodes / 20.0)
    t = 0.7
    res = kdv_fredholm_solve(p0, g, t, quadrature)
    p = propagate_dispersive(p0, g, cubic_kdv_symbol, t)
    values, dets, plain = generic_projection(
        p, g, lambda trace, z, x: lambda xi, zz: trace(xi + zz + x),
        real=True)
    assert np.array_equal(res.values, values)
    assert np.array_equal(res.det_track, dets)
    assert np.max(np.abs(res.det_track - plain) / np.abs(plain)) < 1e-12


@pytest.mark.parametrize("quadrature", ["trapezoid"])
def test_nls_projection_matches_generic_solver(quadrature):
    g = periodic_grid(-20.0, 20.0, 64)
    p0 = 0.5 * np.cosh(g.nodes / 40.0)
    t = 1.5
    res = nls_fredholm_solve(p0, g, t, quadrature)
    p = propagate_dispersive(p0, g, schrodinger_symbol, t)

    def qhat_for_x(trace, zgrid, x):
        qm = nls_assemble_qhat(trace, zgrid, x)
        return lambda xi, z: qm

    values, dets, plain = generic_projection(p, g, qhat_for_x)
    assert np.max(np.abs(res.values - values)) <= 1e-13
    for ref in (dets, plain):
        assert np.max(np.abs(res.det_track - ref) / np.abs(ref)) < 1e-12


def test_kdv_nystrom_matches_the_pointwise_reference():
    g = periodic_grid(-5.0, 5.0, 16)
    p0 = -0.5 * np.cosh(g.nodes / 20.0) + 0.3 * np.exp(-g.nodes ** 2)
    t = 0.7
    res = kdv_fredholm_solve(p0, g, t, "gauss-legendre", 6)
    p = propagate_dispersive(p0, g, cubic_kdv_symbol, t).real
    values, dets = nystrom_fredholm(p, g, 6)
    assert res.values.dtype == values.dtype == np.float64
    assert np.max(np.abs(res.values - values)) <= 1e-12
    assert np.max(np.abs(res.det_track - dets)) <= 1e-12


def test_nls_nystrom_matches_the_pointwise_reference():
    g = periodic_grid(-4.0, 4.0, 16)
    p0 = 0.5 * np.exp(-g.nodes ** 2 / 4.0 + 1j * g.nodes)
    t = 0.3
    res = nls_fredholm_solve(p0, g, t, "gauss-legendre", 6)
    p = propagate_dispersive(p0, g, schrodinger_symbol, t)
    values, dets = nystrom_fredholm(p, g, 6, quadratic=True)
    assert np.max(np.abs(res.values - values)) <= 1e-12
    assert np.max(np.abs(res.det_track - dets)) <= 1e-12


def test_singular_x_system_is_reported_with_its_determinant():
    # h = 1 and trapezoid weights (0.5, 1, 0.5): the x = -2 system has an
    # all-zero first column; those at x = -1, 0, 1 have det -0.5, -0.5,
    # -0.75
    g = periodic_grid(-2.0, 2.0, 4)
    p0 = np.array([-2.0, 0.0, 0.0, 1.0])
    res = kdv_fredholm_solve(p0, g, 0.0)
    assert [x for x, _ in res.breakdown_locations] == [-2.0]
    det = res.breakdown_locations[0][1]
    assert np.isfinite(det) and abs(det) < 1e-14
    assert res.det_track[0] == det
    assert np.isnan(res.values[0]) and np.all(np.isfinite(res.values[1:]))
    assert res.det_track[1:] == pytest.approx([-0.5, -0.5, -0.75])


def test_every_x_system_singular_still_returns():
    g = periodic_grid(-1.0, 1.0, 2)
    res = kdv_fredholm_solve(-np.ones(2), g, 0.0)
    assert [x for x, _ in res.breakdown_locations] == [-1.0, 0.0]
    assert np.all(np.isnan(res.values))
    assert np.all(np.isfinite(res.det_track))


def chunk_of(res):
    """The x count of each chunk of the solve that gave ``res``."""
    return CHUNK_BYTES // (res.unknowns ** 2 * res.values.itemsize)


@pytest.mark.parametrize("quadrature", RULES)
@pytest.mark.parametrize("equation", ["kdv", "nls"])
def test_chunked_projection_matches_one_x_at_a_time(equation, quadrature):
    # 64 x-systems of 33 unknowns: chunks of 30 (KdV, float64) or 15 (NLS,
    # complex), the last one short
    if equation == "kdv":
        g = periodic_grid(-5.0, 5.0, 64)
        p0 = -0.5 * np.cosh(g.nodes / 20.0) + 0.3 * np.exp(-g.nodes ** 2)
        solve, symbol, t = kdv_fredholm_solve, cubic_kdv_symbol, 0.7
    else:
        g = periodic_grid(-4.0, 4.0, 64)
        p0 = 0.5 * np.exp(-g.nodes ** 2 / 4.0 + 1j * g.nodes)
        solve, symbol, t = nls_fredholm_solve, schrodinger_symbol, 0.3
    res = solve(p0, g, t, quadrature)
    chunk = chunk_of(res)
    assert res.unknowns == 33 and 1 < chunk < g.n and g.n % chunk != 0
    p = propagate_dispersive(p0, g, symbol, t)
    values, dets, broken = project_one_x_at_a_time(
        p.real if equation == "kdv" else p, g, quadrature,
        quadratic=equation == "nls")
    assert broken == [] and res.breakdown_locations == []
    assert res.values.dtype == values.dtype
    assert np.max(np.abs(res.values - values)) <= 1e-14
    assert np.max(np.abs(res.det_track - dets) / np.abs(dets)) <= 1e-14


@pytest.mark.parametrize("quadrature", RULES)
def test_one_singular_x_system_in_a_later_chunk(quadrature):
    # the trace 0.1 + a e^{-2 pi i y / L} gives each x the kernel of the
    # constant plus a rank-one H turning with e^{-2 pi i x / L}, so by the
    # determinant lemma det(I + H^T W) = d0 (1 + a e^{-2 pi i x / L} s):
    # the a that zeroes it at x_50 leaves |det| >= 2 d0 sin(pi / 64) at
    # every other x, with d0 = 1 + 0.1 L / 2 = 1.5: 0.1472
    g = periodic_grid(-5.0, 5.0, 64)
    mode = np.exp(-2j * np.pi * g.nodes / g.length)

    def det_at_x50(samples):
        w, hankel = one_x_hankel(samples, g, quadrature)
        return np.linalg.det(np.eye(len(w)) + hankel(50).T * w)

    # affine in a: d0 + a (d1 - d0)
    d0, d1 = det_at_x50(0.1 + 0 * mode), det_at_x50(0.1 + mode)
    samples = 0.1 + d0 / (d0 - d1) * mode
    res = _project_over_x(samples, g, lambda h, w: h, quadrature,
                          GAUSS_NODES)
    assert 50 >= chunk_of(res) and 50 % chunk_of(res) != 0
    assert [x for x, _ in res.breakdown_locations] == [g.nodes[50]]
    det = res.breakdown_locations[0][1]
    assert res.det_track[50] == det and abs(det) < 1e-14
    assert np.isnan(res.values[50])
    assert np.all(np.isfinite(np.delete(res.values, 50)))
    assert np.min(np.abs(np.delete(res.det_track, 50))) > 0.147


@pytest.mark.parametrize("equation, solve", [("kdv", kdv_fredholm_solve),
                                             ("nls", nls_fredholm_solve)])
def test_paper_preset_solve_working_set_is_bounded(equation, solve):
    # the chunks keep the layer's peak allocation to a few stacks of
    # x-systems and the FFT'd triangle: one (256, 33, 33) complex stack of
    # every x would alone be 4.25 MiB
    import tracemalloc

    config = apply_preset(RunConfig(equation, preset="paper"))
    g = periodic_grid(-config.domain_l / 2, config.domain_l / 2,
                      config.grid_n)
    p0 = SAMPLED_PROFILES[config.profile](g.nodes)
    solve(p0, g, config.t_final, config.quadrature)  # the lazy imports
    tracemalloc.start()
    try:
        solve(p0, g, config.t_final, config.quadrature)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2 ** 20


def test_projection_needs_symmetric_domain():
    g = periodic_grid(-4.0, 6.0, 32)
    with pytest.raises(ConfigError):
        kdv_fredholm_solve(np.zeros(32), g, 0.0)


def test_unknown_quadrature_rejected():
    g = periodic_grid(-4.0, 4.0, 32)
    for solve in (kdv_fredholm_solve, nls_fredholm_solve):
        with pytest.raises(ConfigError):
            solve(np.zeros(32), g, 0.0, "riemann-left")


def _d3dx3(u, h):
    return (-np.roll(u, 2) + 2 * np.roll(u, 1)
            - 2 * np.roll(u, -1) + np.roll(u, -2)) / (2.0 * h ** 3)


def _d2dx2(u, h):
    return (np.roll(u, 1) - 2 * u + np.roll(u, -1)) / h ** 2


def kdv_pde_residual(p0, grid, t, dt):
    """(u at t, sup-norm defect of du/dt - 3 (du/dx)^2 = d^3u/dx^3) for the
    projected field, with three pipeline evaluations for the time
    derivative."""
    u, ut = central_in_t(
        lambda s: kdv_fredholm_solve(p0, grid, s).values, t, dt)
    h = grid.spacing
    res = ut - 3.0 * ddx(u, h) ** 2 - _d3dx3(u, h)
    return u, float(np.max(np.abs(res)))


def nls_pde_residual(p0, grid, t, dt):
    """(u at t, sup-norm defect of i du/dt = d^2u/dx^2 + 2 |u|^2 u)."""
    u, ut = central_in_t(
        lambda s: nls_fredholm_solve(p0, grid, s).values, t, dt)
    res = 1j * ut - _d2dx2(u, grid.spacing) - 2.0 * np.abs(u) ** 2 * u
    return u, float(np.max(np.abs(res)))


def test_kdv_pde_residual_shrinks_with_stencil():
    g = periodic_grid(-5.0, 5.0, 64)
    p0 = -0.05 * np.cosh(g.nodes / 20.0)
    _, coarse = kdv_pde_residual(p0, g, 0.2, 2e-3)
    _, fine = kdv_pde_residual(p0, g, 0.2, 1e-3)
    assert fine <= coarse


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2 ** 31))
def test_nls_kernel_is_hermitian_psd(seed):
    rng = np.random.default_rng(seed)
    g = periodic_grid(-4.0, 4.0, 32)
    p0 = rng.standard_normal(32) + 1j * rng.standard_normal(32)
    trace = additive_trace(p0, g)
    z = half_line_grid(g)
    qm = nls_assemble_qhat(trace, z, 0.5)
    assert np.max(np.abs(qm - np.conj(qm).T)) < 1e-10
    eig = np.linalg.eigvalsh(qm)
    assert eig.min() > -1e-10


def test_nls_determinant_at_least_one():
    g = periodic_grid(-20.0, 20.0, 64)
    p0 = 0.5 * np.cosh(g.nodes / 40.0)
    for t in (0.0, 1.0):
        res = nls_fredholm_solve(p0, g, t)
        assert np.min(np.abs(res.det_track)) >= 1.0 - 1e-6


def test_nls_matches_split_step_on_coarse_run():
    g = periodic_grid(-20.0, 20.0, 64)
    p0 = 0.5 * np.cosh(g.nodes / 40.0)
    u0 = nls_fredholm_solve(p0, g, 0.0).values
    t = 1.0
    direct = split_step_nls(u0, g, 0.01, 100)
    proj = nls_fredholm_solve(p0, g, t).values
    assert np.max(np.abs(proj - direct)) < 5e-3


def test_nls_pde_residual_moderate():
    g = periodic_grid(-20.0, 20.0, 64)
    p0 = 0.05 * np.cosh(g.nodes / 40.0)
    assert nls_pde_residual(p0, g, 0.5, 1e-3)[1] < 1e-2


# ---------------------------------------------------------------------------
# split-step oracles


def test_split_step_kdv_linear_limit_matches_exact_propagation():
    # tiny amplitude: the nonlinear update is O(eps^2), so the scheme
    # reduces to exact dispersive propagation
    g = periodic_grid(-5.0, 5.0, 64)
    eps = 1e-8
    u0 = eps * np.sin(2 * np.pi * g.nodes / g.length)
    out = split_step_kdv(u0, g, 1e-3, 100)
    linear = propagate_dispersive(u0, g, cubic_kdv_symbol, 0.1)
    assert np.max(np.abs(out - np.real(linear))) < 1e-3 * eps


def complex_split_step_kdv(u0, grid, dt, steps):
    """The first-order split step of u_t = u_xxx + 3 (u_x)^2 on complex
    FFTs, Nyquist K zeroed."""
    kmat = 2j * np.pi * np.fft.fftfreq(grid.n, d=grid.spacing)
    kmat[grid.n // 2] = 0.0
    lin = np.exp(dt * kmat ** 3)
    uhat = np.fft.fft(np.asarray(u0, dtype=complex))
    out = [np.fft.ifft(uhat).real]
    for _ in range(steps):
        v = lin * uhat
        uhat = v + 3.0 * dt * np.fft.fft(np.fft.ifft(kmat * v) ** 2)
        out.append(np.fft.ifft(uhat).real)
    return out


def test_split_step_kdv_matches_complex_fft_reference():
    g = periodic_grid(-5.0, 5.0, 64)
    u0 = -0.5 * np.cosh(g.nodes / 20.0) + 0.2 * np.exp(-g.nodes ** 2)
    ref = complex_split_step_kdv(u0, g, 1e-3, 200)
    final = split_step_kdv(u0, g, 1e-3, 200)
    cps = split_step_kdv(u0, g, 1e-3, 200, checkpoints=[0, 7, 100, 200])
    scale = np.max(np.abs(u0))
    assert final.dtype == np.float64
    assert np.max(np.abs(final - ref[-1])) < 1e-13 * scale
    for m, samples in cps.items():
        assert samples.dtype == np.float64
        assert np.max(np.abs(samples - ref[m])) < 1e-13 * scale


def test_split_step_nls_conserves_mass_approximately():
    g = periodic_grid(-10.0, 10.0, 128)
    u0 = 0.5 / np.cosh(g.nodes)
    out = split_step_nls(u0, g, 1e-3, 1000)
    m0 = np.sum(np.abs(u0) ** 2) * g.spacing
    m1 = np.sum(np.abs(out) ** 2) * g.spacing
    assert m1 == pytest.approx(m0, rel=1e-2)


def test_split_step_checkpoints_and_dt_validation():
    g = periodic_grid(-5.0, 5.0, 32)
    u0 = np.sin(2 * np.pi * g.nodes / g.length)
    out = split_step_kdv(u0, g, 1e-3, 10, checkpoints=[0, 5, 10])
    assert set(out) == {0, 5, 10}
    assert np.allclose(out[0], u0)
    with pytest.raises(ConfigError):
        split_step_kdv(u0, g, -1e-3, 10)


def test_split_step_kdv_steps_the_squared_slope():
    # u = c + a sin(x): u_xxx has zero mean, so the mean of u grows at
    # 3 <u_x^2> = 3 a^2 / 2, where 3 u u_x = (3 u^2 / 2)_x would leave it
    # at c
    g = periodic_grid(-np.pi, np.pi, 32)
    a = 1e-3
    u0 = 0.5 + a * np.sin(g.nodes)
    out = split_step_kdv(u0, g, 1e-3, 100)
    assert np.mean(out) - 0.5 == pytest.approx(1.5 * a ** 2 * 0.1, rel=1e-3)


def test_etdrk4_kdv_linear_limit_matches_exact_propagation():
    g = periodic_grid(-5.0, 5.0, 64)
    eps = 1e-8
    u0 = eps * (np.sin(2 * np.pi * g.nodes / g.length)
                + np.exp(-g.nodes ** 2))
    out = etdrk4_kdv(u0, g, 1e-2, 10)
    linear = propagate_dispersive(u0, g, cubic_kdv_symbol, 0.1)
    assert out.dtype == np.float64
    assert np.max(np.abs(out - np.real(linear))) < 1e-6 * eps


def test_etdrk4_kdv_is_fourth_order_in_dt():
    # smooth localized data on L = 40: each halving of dt cuts the error
    # against a fine run by at least `bar`.  0.5 e^{-x^2}, n = 128, t = 1,
    # 64 to 256 steps against 1024 (measured 16.9, 10.8); 0.1 e^{-x^2/4},
    # n = 256, t = 0.5, 25 to 100 steps against 800 (measured 15.8, 15.9)
    for amp, width, n, t, coarse, fine, bar in (
            (0.5, 1.0, 128, 1.0, 64, 1024, 8.0),
            (0.1, 4.0, 256, 0.5, 25, 800, 12.0)):
        g = periodic_grid(-20.0, 20.0, n)
        u0 = amp * np.exp(-g.nodes ** 2 / width)
        ref = etdrk4_kdv(u0, g, t / fine, fine)
        errs = [np.max(np.abs(etdrk4_kdv(u0, g, t / s, s) - ref))
                for s in (coarse, 2 * coarse, 4 * coarse)]
        assert errs[0] / errs[1] >= bar and errs[1] / errs[2] >= bar


def test_etdrk4_kdv_checkpoints_match_the_final_samples():
    g = periodic_grid(-5.0, 5.0, 32)
    u0 = 0.3 * np.exp(-g.nodes ** 2)
    cps = etdrk4_kdv(u0, g, 1e-2, 20, checkpoints=[0, 10, 20])
    assert set(cps) == {0, 10, 20}
    assert np.allclose(cps[0], u0)
    assert np.array_equal(cps[10], etdrk4_kdv(u0, g, 1e-2, 10))
    assert np.array_equal(cps[20], etdrk4_kdv(u0, g, 1e-2, 20))
    with pytest.raises(ConfigError):
        etdrk4_kdv(u0, g, 0.0, 10)


def test_etdrk4_kdv_matches_split_step_on_paper_preset():
    # 1500 ETDRK4 steps against 150 000 first-order split steps of the
    # same equation (measured 9.3e-7 apart)
    g = periodic_grid(-5.0, 5.0, 256)
    u0 = kdv_fredholm_solve(-0.5 * np.cosh(g.nodes / 20.0), g, 0.0).values
    fine = kdv_paper_split_step(1e-4)[1.0]
    assert np.max(np.abs(etdrk4_kdv(u0, g, 1e-2, 1500) - fine)) < 2e-6
