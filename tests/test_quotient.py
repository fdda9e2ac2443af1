"""Quotient-solution family and the elliptic first-order construction."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from grassflow.core import Grid1D, dft_frequencies
from grassflow.errors import (BlowupAtTime, ChartBreakdown, ConfigError,
                              IntegrationBlowup, SymbolError)
from grassflow.quotient import (COLUMN_BLOCK, PHASE_STEPS,
                                EllipticCoefficients, QuotientCoefficients,
                                elliptic_quotient_solve, quotient_residual,
                                quotient_solve)
from reference import (linear_flow, quotient_residual_whole,
                       quotient_solve_whole)


def periodic_grid(l, n):
    return Grid1D(0.0, l, n, kind="periodic")


def gaussian_sheet(grid, width=None):
    c = 0.5 * (grid.lower + grid.upper)
    w = width or (grid.upper - grid.lower) / 8
    xx, yy = np.meshgrid(grid.nodes, grid.nodes, indexing="ij")
    return np.exp(-((xx - c) ** 2 + (yy - c) ** 2) / w ** 2)


def heat_coeffs(b=None, f=()):
    return QuotientCoefficients(dispersion=lambda s: -s ** 2, b=b, f_coeffs=f)


# ---------------------------------------------------------------------------
# linear limit and basic contracts


def test_b_zero_is_exact_per_mode_propagation():
    g = periodic_grid(2.0 * np.pi, 32)
    coeffs = heat_coeffs(b=np.zeros_like)
    xx, yy = np.meshgrid(g.nodes, g.nodes, indexing="ij")
    g0 = np.sin(xx) * np.cos(2 * yy)
    t = 0.3
    out = quotient_solve(g0, g, coeffs, t)
    # each x harmonic e^{i m x} decays by exp(-m^2 t)
    expected = np.exp(-t) * np.sin(xx) * np.cos(2 * yy)
    assert np.max(np.abs(out.values - expected)) < 1e-12
    assert np.allclose(out.q, 1.0)


def test_t_zero_is_identity():
    g = periodic_grid(4.0, 16)
    g0 = gaussian_sheet(g)
    out = quotient_solve(g0, g, heat_coeffs(b=lambda y: np.ones_like(y)), 0.0)
    assert np.max(np.abs(out.values - g0)) < 1e-12


def test_growing_dispersion_rejected():
    g = periodic_grid(4.0, 16)
    coeffs = QuotientCoefficients(dispersion=lambda s: s ** 2, b=np.ones_like)
    with pytest.raises(SymbolError):
        quotient_solve(gaussian_sheet(g), g, coeffs, 0.1)


def test_shape_and_grid_validation():
    g = periodic_grid(4.0, 16)
    with pytest.raises(ConfigError):
        quotient_solve(np.zeros((8, 8)), g, heat_coeffs(b=np.ones_like), 0.1)
    closed = Grid1D(0.0, 4.0, 16, kind="closed")
    with pytest.raises(ConfigError):
        quotient_solve(np.zeros((16, 16)), closed, heat_coeffs(b=np.ones_like),
                       0.1)


def test_q_accumulates_diagonal_integral():
    # dq/dt = b(y) p(y, y; t): at small t, q ~ 1 + t b(y) g0(y, y)
    g = periodic_grid(4.0, 32)
    g0 = gaussian_sheet(g)
    t = 1e-5
    out = quotient_solve(g0, g, heat_coeffs(b=lambda y: 2.0 * np.ones_like(y)),
                         t)
    expected = 1.0 + 2.0 * t * np.diag(g0)
    assert np.max(np.abs(out.q - expected)) < 1e-8


def test_blowup_when_weight_vanishes():
    g = periodic_grid(4.0, 32)
    g0 = gaussian_sheet(g)
    t = 1.0
    # read off the accumulated diagonal integral with b = 1, then choose a
    # constant b that zeroes q exactly at the integral's peak node
    probe = quotient_solve(g0, g, heat_coeffs(b=lambda y: np.ones_like(y)), t)
    integral = probe.q - 1.0
    peak = integral[np.argmax(np.abs(integral))]
    coeffs = heat_coeffs(b=lambda y: np.full_like(y, -1.0 / peak.real))
    with pytest.raises(BlowupAtTime) as exc:
        quotient_solve(g0, g, coeffs, t)
    # the record names the time, the y node and min |q|
    assert exc.value.t == t
    assert exc.value.location == g.nodes[np.argmax(np.abs(integral))]
    assert exc.value.det_value < 1e-10


# ---------------------------------------------------------------------------
# residual convergence (solution is spatially exact, so the stencil dt is
# the only discretisation knob)


def test_residual_second_order_in_stencil_dt():
    g = periodic_grid(4.0, 32)
    g0 = gaussian_sheet(g)
    coeffs = heat_coeffs(b=lambda y: np.ones_like(y))
    r = [quotient_residual(g0, g, coeffs, 0.4, dt)[1]
         for dt in (4e-2, 2e-2, 1e-2)]
    assert r[1] < r[0] and r[2] < r[1]
    assert r[0] / r[1] > 2.0 and r[1] / r[2] > 2.0


# ---------------------------------------------------------------------------
# odd-degree variant


def test_odd_degree_weight_is_unimodular():
    g = periodic_grid(4.0, 32)
    g0 = gaussian_sheet(g)
    coeffs = heat_coeffs(f=(0.5, -0.3, 0.1))
    out = quotient_solve(g0, g, coeffs, 0.5)
    assert np.max(np.abs(np.abs(out.q) - 1.0)) < 1e-8


def test_neither_b_nor_f_coeffs_rejected():
    # the linear flow is b = 0 (test_b_zero_is_exact_per_mode_propagation)
    with pytest.raises(ConfigError, match="exactly one"):
        heat_coeffs()


def test_b_and_f_coeffs_together_rejected():
    with pytest.raises(ConfigError, match="exactly one"):
        heat_coeffs(b=np.ones_like, f=(0.5,))
    # nor can the second be set after construction
    with pytest.raises(dataclasses.FrozenInstanceError):
        heat_coeffs(b=np.ones_like).f_coeffs = (0.5,)


def test_odd_degree_diagonal_matches_full_inverse_per_time():
    # the former solve: the whole field inverse-transformed at every
    # quadrature time, its diagonal read off
    g = periodic_grid(4.0, 64)
    g0 = gaussian_sheet(g) * np.exp(1j * np.add.outer(g.nodes, 0.5 * g.nodes))
    coeffs = heat_coeffs(f=(0.5, -0.3, 0.1))
    t, steps = 0.6, PHASE_STEPS
    d = coeffs.symbol(dft_frequencies(g))
    p0_hat = np.fft.fft(g0, axis=0)
    exponent = np.zeros(g.n, dtype=complex)
    for m in range(steps + 1):
        p = np.fft.ifft(np.exp(d * (m * t / steps))[:, None] * p0_hat,
                        axis=0)
        w = 0.5 * t / steps if m in (0, steps) else t / steps
        exponent += w * coeffs.f_value(np.abs(np.diag(p)) ** 2)
    q = np.exp(exponent)
    out = quotient_solve(g0, g, coeffs, t)
    assert np.max(np.abs(out.q - q)) <= 1e-12 * np.max(np.abs(q))
    ref = p / q[None, :]
    assert np.max(np.abs(out.values - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_odd_degree_residual_decreases():
    g = periodic_grid(4.0, 32)
    g0 = gaussian_sheet(g)
    coeffs = heat_coeffs(f=(0.4, 0.2))
    _, coarse = quotient_residual(g0, g, coeffs, 0.4, 4e-2)
    _, fine = quotient_residual(g0, g, coeffs, 0.4, 2e-2)
    assert fine < coarse


# ---------------------------------------------------------------------------
# column blocks


@pytest.mark.parametrize("n", [16, 64, 256])
@pytest.mark.parametrize("coeffs", [heat_coeffs(b=np.ones_like),
                                    heat_coeffs(f=(0.5, -0.3, 0.1))],
                         ids=["b", "odd-degree"])
def test_column_blocks_keep_the_whole_plane_bytes(n, coeffs):
    # 16 columns are less than one block; complex data for the odd degree
    g = periodic_grid(4.0, n)
    g0 = gaussian_sheet(g)
    if coeffs.f_coeffs:
        g0 = g0 * np.exp(1j * np.add.outer(g.nodes, 0.5 * g.nodes))
    values, q = quotient_solve_whole(g0, g, coeffs, 0.6)
    out = quotient_solve(g0, g, coeffs, 0.6)
    assert np.array_equal(out.values, values) and np.array_equal(out.q, q)
    ref_g, ref_residual = quotient_residual_whole(g0, g, coeffs, 0.6, 1e-3)
    field, residual = quotient_residual(g0, g, coeffs, 0.6, 1e-3)
    assert np.array_equal(field, ref_g) and residual == ref_residual


def test_nan_in_the_last_block_reaches_the_residual():
    # a reduction by Python's max() would drop the last block's NaN
    g = periodic_grid(4.0, 3 * COLUMN_BLOCK)
    g0 = gaussian_sheet(g)
    g0[5, -3] = np.nan
    coeffs = heat_coeffs(b=np.zeros_like)
    with np.errstate(invalid="ignore"):
        assert np.isnan(quotient_residual(g0, g, coeffs, 0.5, 1e-3)[1])


def test_residual_holds_few_planes():
    # the solve's output and central_in_t's three planes, 1 MiB each at
    # n = 256, and one block's temporaries; whole planes peaked at 7.1 MiB
    g = periodic_grid(4.0, 256)
    g0 = gaussian_sheet(g)
    coeffs = heat_coeffs(b=np.ones_like)
    tracemalloc.start()
    try:
        quotient_residual(g0, g, coeffs, 1.0, 1e-3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4.5 * 2 ** 20


# ---------------------------------------------------------------------------
# elliptic construction


def closed_unit_grid(n):
    return Grid1D(0.0, 1.0, n, kind="closed")


def test_elliptic_reciprocal_closed_form():
    # q' = p, p' = 0, q0 = p0 = 1: g = 1 / (1 + x)
    g = closed_unit_grid(2 ** 10)
    zeros, ones = np.zeros(g.n), np.ones(g.n)
    coeffs = EllipticCoefficients(g, zeros, ones, zeros, zeros)
    sol = elliptic_quotient_solve(coeffs, 1.0, 1.0)
    assert np.max(np.abs(sol.g - 1.0 / (1.0 + g.nodes))) < 1e-8
    assert sol.residual < 1e-6


def test_elliptic_tanh_closed_form():
    # q' = p, p' = q, q0 = 1, p0 = 0: g = tanh(x)
    g = closed_unit_grid(2 ** 10)
    zeros, ones = np.zeros(g.n), np.ones(g.n)
    coeffs = EllipticCoefficients(g, zeros, ones, ones, zeros)
    sol = elliptic_quotient_solve(coeffs, 1.0, 0.0)
    assert np.max(np.abs(sol.g - np.tanh(g.nodes))) < 1e-8
    assert sol.residual < 1e-6


def test_elliptic_residual_at_least_second_order():
    def residual(n):
        g = closed_unit_grid(n)
        zeros, ones = np.zeros(g.n), np.ones(g.n)
        coeffs = EllipticCoefficients(g, zeros, ones, ones, zeros)
        return elliptic_quotient_solve(coeffs, 1.0, 0.0).residual

    coarse, fine = residual(129), residual(257)
    assert fine < coarse
    assert coarse / fine > 3.5


def test_elliptic_varying_coefficients_match_interpolating_rk4():
    # reference: RK4 of the same ODE, its coefficients linearly
    # interpolated, with 64 steps per interval; the Magnus step is fourth
    # order (measured 7.7e-8, 4.8e-9, 3.0e-10, 1.9e-11 at n = 33..257)
    def gap(n, substeps=64):
        g = closed_unit_grid(n)
        x, h = g.nodes, g.spacing
        abcd = 0.3 * x, 1.0 + x ** 2, np.sin(3.0 * x), -0.2 * np.cos(x)
        sol = elliptic_quotient_solve(EllipticCoefficients(g, *abcd),
                                      1.0, 0.2)
        # the blocks at every half step, read by the stage point's index
        half = np.linspace(0.0, 1.0, 2 * substeps * (n - 1) + 1)
        blocks = np.stack([np.interp(half, x, v) for v in abcd],
                          axis=1).reshape(-1, 2, 2)
        ds = h / substeps
        ref = linear_flow(lambda s: blocks[round(2 * s / ds)],
                          np.array([1.0, 0.2]), 0.0, ds,
                          substeps * (n - 1))[::substeps]
        return max(np.max(np.abs(sol.q - ref[:, 0])),
                   np.max(np.abs(sol.p - ref[:, 1])))

    gaps = [gap(n) for n in (33, 65, 129, 257)]
    assert gaps[1] <= 5e-9
    assert all(coarse / fine >= 15 for coarse, fine in zip(gaps, gaps[1:]))


def test_elliptic_benchmark_grid_is_exact_to_round_off():
    # the elliptic job's grid: constant coefficients make each interval's
    # exponential exact (measured 2.3e-14 and 1.1e-16)
    g = Grid1D(0.0, 10.0, 8192, kind="closed")
    zeros, ones = np.zeros(g.n), np.ones(g.n)
    tanh = elliptic_quotient_solve(
        EllipticCoefficients(g, zeros, ones, ones, zeros), 1.0, 0.0)
    assert np.max(np.abs(tanh.g - np.tanh(g.nodes))) <= 1e-13
    reciprocal = elliptic_quotient_solve(
        EllipticCoefficients(g, zeros, ones, zeros, zeros), 1.0, 1.0)
    assert np.max(np.abs(reciprocal.g - 1.0 / (1.0 + g.nodes))) <= 1e-13


def test_elliptic_chart_breakdown():
    # q' = p, p' = -q from (1, 0): q = cos(x) vanishes inside [0, 2]
    g = Grid1D(0.0, 2.0, 513, kind="closed")
    zeros, ones = np.zeros(g.n), np.ones(g.n)
    coeffs = EllipticCoefficients(g, zeros, ones, -ones, zeros)
    with pytest.raises(ChartBreakdown):
        elliptic_quotient_solve(coeffs, 1.0, 0.0)


def test_elliptic_non_finite_run_raises():
    # q' = 1000 q + p overflows long before x = 10: q ~ e^{1000 x} first
    # exceeds the largest float (e^{709.8}) at node 5, x = 0.78
    g = Grid1D(0.0, 10.0, 65, kind="closed")
    zeros, ones = np.zeros(g.n), np.ones(g.n)
    coeffs = EllipticCoefficients(g, 1000.0 * ones, ones, zeros, zeros)
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(IntegrationBlowup) as exc:
        elliptic_quotient_solve(coeffs, 1.0, 1.0)
    assert exc.value.step == 5


def test_elliptic_solve_reads_grid_nodes_a_fixed_number_of_times(
        monkeypatch):
    reads = []
    nodes = Grid1D.nodes
    monkeypatch.setattr(Grid1D, "nodes", property(
        lambda grid: reads.append(grid) or nodes.fget(grid)))
    counts = []
    for n in (64, 256, 1024):
        g = closed_unit_grid(n)
        zeros, ones = np.zeros(g.n), np.ones(g.n)
        reads.clear()
        coeffs = EllipticCoefficients(g, zeros, ones, ones, zeros)
        elliptic_quotient_solve(coeffs, 1.0, 0.0)
        counts.append(len(reads))
    assert counts[0] == counts[1] == counts[2]


def test_elliptic_coefficient_validation():
    g = closed_unit_grid(16)
    zeros, ones = np.zeros(g.n), np.ones(g.n)
    with pytest.raises(ConfigError):
        EllipticCoefficients(g, zeros, zeros, ones, zeros)  # b == 0
    with pytest.raises(ConfigError):
        EllipticCoefficients(g, np.zeros(8), ones, ones, zeros)
