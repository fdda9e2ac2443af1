"""Stochastic flow on [0, 2pi]^2: noise path, composition algebra, schemes."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from grassflow import core
from grassflow.core import phi1
from grassflow.errors import ConfigError
from grassflow.spde import (CUMULATIVE_ROWS, BrownianSheetModes, Field2D,
                            SpdeParams, composition_product, exact_base_modes,
                            k0_mode_policy, mode_numbers, sech_ridge_initial,
                            spde_direct_run, spde_poppe_run)
from reference import spde_poppe_loop


def zero_noise_params(**kw):
    return SpdeParams(**{"gamma": 0.0, **kw})


# ---------------------------------------------------------------------------
# mode plumbing and composition algebra


def test_mode_numbers_validation_and_ordering():
    k = mode_numbers(8)
    assert np.array_equal(k, [0, 1, 2, 3, -4, -3, -2, -1])
    with pytest.raises(ConfigError):
        mode_numbers(12)


def test_field_round_trip():
    rng = np.random.default_rng(0)
    samples = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    fld = Field2D.from_samples(samples)
    assert np.max(np.abs(fld.samples - samples)) < 1e-12


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2 ** 31))
def test_composition_identity_is_neutral(seed):
    rng = np.random.default_rng(seed)
    n = 8
    f = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    # the mode matrix of the Dirac kernel delta(x - y)
    neg = (-np.arange(n)) % n
    delta = np.zeros((n, n), dtype=complex)
    delta[np.arange(n), neg] = 1.0 / (2.0 * np.pi)
    assert np.max(np.abs(composition_product(f, delta) - f)) < 1e-12
    assert np.max(np.abs(composition_product(delta, f) - f)) < 1e-12


def test_composition_product_matches_quadrature():
    # compare the mode-space product against direct trapezoid integration of
    # int f(x, z) g(z, y) dz on the periodic grid
    rng = np.random.default_rng(1)
    n = 16
    f = Field2D.from_samples(rng.standard_normal((n, n)))
    g = Field2D.from_samples(rng.standard_normal((n, n)))
    prod = composition_product(f.modes, g.modes)
    h = 2.0 * np.pi / n
    direct = h * f.samples @ g.samples
    assert np.max(np.abs(Field2D(prod).samples - direct)) < 1e-10


# ---------------------------------------------------------------------------
# noise path


def test_sheet_deterministic_and_aggregation_consistent():
    a = BrownianSheetModes.generate(7, 8, 1.0, 64)
    b = BrownianSheetModes.generate(7, 8, 1.0, 64)
    assert np.array_equal(a.increments, b.increments)
    # summing 64 fine slices into 16 coarse ones preserves the path
    coarse = a.aggregated(16)
    assert np.allclose(coarse.sum(axis=0), a.increments.sum(axis=0))
    assert np.allclose(coarse[0], a.increments[:4].sum(axis=0))
    with pytest.raises(ConfigError):
        a.aggregated(48)


def test_sheet_increment_variance_is_the_slice_length():
    sheet = BrownianSheetModes.generate(5, 4, 2.0, 50000)
    assert np.var(sheet.increments) == pytest.approx(2.0 / 50000, rel=0.05)


@pytest.mark.parametrize("t_final", [0.0, -1.0])
def test_sheet_refuses_a_non_positive_t_final(t_final):
    with pytest.raises(ConfigError):
        BrownianSheetModes.generate(0, 4, t_final, 8)


def test_sheet_time_lookup():
    # W at the boundaries of 4 intervals of [0, 2]: row 1 is W at t = 0.5
    sheet = BrownianSheetModes.generate(3, 4, 2.0, 8)
    w = sheet.cumulative(4)
    assert np.allclose(w[1], sheet.increments[:2].sum(axis=0))
    assert np.allclose(w[0], 0.0)
    # every interval count reads the same running sum of the slices
    assert np.array_equal(w, sheet.cumulative(8)[::2])
    # 3 equal intervals do not end on slice boundaries
    with pytest.raises(ConfigError):
        sheet.cumulative(3)


@pytest.mark.parametrize("g", [1, 3, 7])
def test_blocked_cumulative_is_the_whole_running_sum(g):
    # 1500 intervals of g slices: several blocks, the last a partial one
    steps = 1500
    sheet = BrownianSheetModes.generate(5, 6, 1.0, g * steps)
    assert len(sheet.increments) % (g * (CUMULATIVE_ROWS // g)) != 0
    w = sheet.cumulative(steps)
    assert not w[0].any()
    assert np.array_equal(w[1:],
                          np.cumsum(sheet.increments, axis=0)[g - 1::g])


def test_sheet_builds_its_cumulative_once(monkeypatch):
    sheet = BrownianSheetModes.generate(3, 4, 2.0, 8)
    original = BrownianSheetModes.cumulative
    calls = []

    def counted(self, steps):
        calls.append(steps)
        return original(self, steps)

    monkeypatch.setattr(BrownianSheetModes, "cumulative", counted)
    spde_poppe_run(sech_ridge_initial(4, 0.0, 0),
                   zero_noise_params(epsilon=0.0), sheet, panels=8)
    assert calls == [8]


def test_k0_policy_zeroes_the_mean_mode():
    params = SpdeParams(gamma=10.0)
    k = mode_numbers(8)
    noise, ito = k0_mode_policy(params, k)
    assert noise[0] == 0.0 and ito[0] == 0.0
    assert noise[1] == pytest.approx(10.0 * np.sqrt(np.pi))
    assert ito[2] == pytest.approx(0.5 * np.pi * 100.0 / 4.0)


def test_params_validation():
    with pytest.raises(ConfigError):
        SpdeParams(alpha=0.0)
    with pytest.raises(ConfigError):
        SpdeParams(gamma=-1.0)


# ---------------------------------------------------------------------------
# deterministic limits


def test_direct_scheme_heat_limit_is_exact():
    # gamma = 0, eps = 0: the exponential integrator reproduces the heat
    # semigroup exactly regardless of step count
    n = 16
    params = zero_noise_params(epsilon=0.0)
    fld = sech_ridge_initial(n, 0.0, 0)
    sheet = BrownianSheetModes.generate(0, n, 0.5, 8)
    out = spde_direct_run(fld, params, sheet, steps=8)
    k = mode_numbers(n)
    expected = np.exp(-0.5 * params.alpha * k[:, None] ** 2
                      + 0.0 * k[None, :]) * fld.modes
    assert np.max(np.abs(out.modes - expected)) < 1e-12


def test_poppe_scheme_heat_limit_is_exact():
    n = 16
    params = zero_noise_params(epsilon=0.0)
    fld = sech_ridge_initial(n, 0.0, 0)
    sheet = BrownianSheetModes.generate(0, n, 0.5, 8)
    res = spde_poppe_run(fld, params, sheet, panels=8, det_panels=range(9))
    k = mode_numbers(n)
    expected = np.exp(-0.5 * params.alpha * k[:, None] ** 2) * fld.modes
    assert np.max(np.abs(res.g.modes - expected)) < 1e-12
    assert len(res.det_track) == 9 and np.allclose(res.det_track, 1.0)


def test_exact_base_modes_martingale_exponent():
    n = 8
    params = SpdeParams(gamma=2.0)
    fld = sech_ridge_initial(n, 0.0, 0)
    sheet = BrownianSheetModes.generate(5, n, 1.0, 4)
    w = sheet.increments[:2].sum(axis=0)
    p = exact_base_modes(fld, params, w, 0.5)
    k = mode_numbers(n)
    noise, ito = k0_mode_policy(params, k)
    expo = -0.5 * params.alpha * k ** 2 + noise * w - 0.5 * ito
    assert np.max(np.abs(p - np.exp(expo)[:, None] * fld.modes)) < 1e-12


@pytest.mark.parametrize("n, panels", [
    (32, 256),
    (128, 1024),  # the benchmark's spde job
], ids=["32-modes", "128-modes"])
def test_poppe_run_matches_its_panel_loop(n, panels):
    # the closed-form accumulation sums the same terms in another order
    params = SpdeParams(gamma=10.0, epsilon=1000.0)
    fld = sech_ridge_initial(n, 0.001, 1)
    sheet = BrownianSheetModes.generate(1, n, 0.007, panels)
    res = spde_poppe_run(fld, params, sheet, panels=panels,
                         det_panels=range(panels + 1))
    ref = spde_poppe_loop(fld, params, sheet, panels)
    g, g_ref = res.g.samples, ref.g.samples
    assert np.max(np.abs(g - g_ref)) <= 1e-14 * np.max(np.abs(g_ref))
    assert np.max(np.abs(res.det_track / ref.det_track - 1.0)) <= 1e-13


def test_poppe_run_without_numpys_openblas(monkeypatch):
    # MKL, Accelerate or an OpenBLAS before 0.3.27: no thread setter is
    # found and the schemes run on the library's own threads
    monkeypatch.setattr(core, "_blas_thread_setter", lambda: None)
    n, panels = 128, 64
    params = SpdeParams(gamma=10.0, epsilon=1000.0)
    fld = sech_ridge_initial(n, 0.001, 1)
    sheet = BrownianSheetModes.generate(1, n, 0.007, panels)
    res = spde_poppe_run(fld, params, sheet, panels=panels,
                         det_panels=range(panels + 1))
    ref = spde_poppe_loop(fld, params, sheet, panels)
    assert np.max(np.abs(res.det_track / ref.det_track - 1.0)) <= 1e-13
    direct = spde_direct_run(fld, params, sheet, 16)
    assert np.all(np.isfinite(direct.modes))


def test_poppe_run_samples_its_determinant_track():
    # the track is a diagnostic: where it is taken moves neither the field
    # nor a determinant, and by default it is the final solve's alone
    n, panels = 32, 64
    params = SpdeParams(gamma=10.0, epsilon=1000.0)
    fld = sech_ridge_initial(n, 0.001, 1)
    sheet = BrownianSheetModes.generate(1, n, 0.007, panels)
    full = spde_poppe_run(fld, params, sheet, panels=panels,
                          det_panels=range(panels + 1))
    default = spde_poppe_run(fld, params, sheet, panels=panels)
    assert np.array_equal(default.g.modes, full.g.modes)
    assert default.solve_residual == full.solve_residual
    assert np.array_equal(default.det_track, full.det_track[-1:])
    sampled = (0, 7, 32, 64)
    assert np.array_equal(spde_poppe_run(fld, params, sheet, panels=panels,
                                         det_panels=sampled).det_track,
                          full.det_track[list(sampled)])


def test_poppe_run_memory_stays_small():
    # the benchmark's job; the per-panel loop it replaced peaked at 3.41 MiB
    n, panels = 128, 1024
    params = SpdeParams(gamma=10.0, epsilon=1000.0)
    fld = sech_ridge_initial(n, 0.001, 1)
    sheet = BrownianSheetModes.generate(1, n, 0.007, panels)
    tracemalloc.start()
    try:
        spde_poppe_run(fld, params, sheet, panels=panels)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5 * 2 ** 20


# ---------------------------------------------------------------------------
# cross-validation of the two schemes


def test_single_mode_geometric_update_matches_martingale_per_step():
    # eps = 0: each mode's per-step factor exp(c dW - c^2 dt / 2 - dt a k^2)
    # multiplies to the exponential martingale at t, so the direct scheme
    # is the exact base flow at any step count; the Poppe scheme, whose
    # qhat is then zero, is that base flow at any panel count, so the two
    # schemes' linear parts are one equation
    params = SpdeParams(alpha=1.0, gamma=2.0, epsilon=0.0)
    n, t = 8, 0.05
    fld = sech_ridge_initial(n, 0.0, 0)
    sheet = BrownianSheetModes.generate(3, n, t, 64)
    exact = exact_base_modes(fld, params, sheet.cumulative(1)[-1], t)
    for steps in (1, 8, 64):
        for out in (spde_direct_run(fld, params, sheet, steps).modes,
                    spde_poppe_run(fld, params, sheet, steps).g.modes):
            assert np.max(np.abs(out - exact)) \
                <= 1e-14 * np.max(np.abs(exact))


def test_schemes_agree_on_shared_noise_path():
    # single shared noise path: the direct scheme stays within a small
    # pathwise band of the exact-propagation scheme
    n = 16
    params = SpdeParams(gamma=1.0, epsilon=1.0)
    fld = sech_ridge_initial(n, 0.0, 0)
    resolution = 1024
    sheet = BrownianSheetModes.generate(21, n, 0.2, resolution)
    ref = spde_poppe_run(fld, params, sheet, panels=resolution)
    out = spde_direct_run(fld, params, sheet, steps=resolution)
    assert float(np.max(np.abs(out.modes - ref.g.modes))) < 1e-3


def test_deterministic_nonlinear_cross_validation():
    # gamma = 0 keeps both schemes deterministic; moderate eps
    n = 16
    params = zero_noise_params(epsilon=5.0)
    fld = sech_ridge_initial(n, 0.0, 0)
    sheet = BrownianSheetModes.generate(0, n, 0.2, 1024)
    direct = spde_direct_run(fld, params, sheet, steps=1024)
    proj = spde_poppe_run(fld, params, sheet, panels=256)
    assert np.max(np.abs(direct.modes - proj.g.modes)) < 1e-3


def test_direct_run_follows_the_heat_semigroup():
    # without noise and nonlinearity, 4 steps to t = 0.5 are the heat
    # semigroup at that time
    n = 8
    params = zero_noise_params(epsilon=0.0)
    fld = sech_ridge_initial(n, 0.0, 0)
    sheet = BrownianSheetModes.generate(0, n, 0.5, 4)
    out = spde_direct_run(fld, params, sheet, steps=4)
    k = mode_numbers(n)
    expected = np.exp(-0.5 * params.alpha * k[:, None] ** 2) * fld.modes
    assert np.allclose(out.modes, expected)


def _direct_loop(g0, params, sheet, steps):
    """The reference: spde_direct_run's own loop before it went through
    core.march, with its exact per-step noise factor."""
    k = mode_numbers(g0.n)
    dt = sheet.t_final / steps
    lam = -dt * (params.alpha * k[:, None] ** 2)
    lin, phi = np.exp(lam), phi1(lam)
    noise_coef, ito_coef = k0_mode_policy(params, k)
    dws = sheet.aggregated(steps)
    u = g0.modes.copy()
    for m in range(steps):
        stoch = np.exp(noise_coef * dws[m] - ito_coef * dt)[:, None] * u
        u = lin * stoch - params.epsilon * dt * phi * composition_product(u, u)
    return u


def test_direct_run_equals_its_loop_bitwise():
    n, steps = 16, 64
    params = SpdeParams(gamma=10.0, epsilon=1000.0)
    fld = sech_ridge_initial(n, 0.001, 7)
    sheet = BrownianSheetModes.generate(7, n, 0.007, 256)
    out = spde_direct_run(fld, params, sheet, steps)
    assert np.array_equal(out.modes, _direct_loop(fld, params, sheet, steps))


@pytest.mark.parametrize("seed", [0, 1])
def test_direct_run_converges_at_first_order(seed):
    # the exact per-step noise factor exp(noise_coef dW - ito_coef dt) makes
    # the direct scheme first order against a fine Poppe field: its gap
    # shrinks at least 3x per 4x steps (measured 1.5e-3, 3.6e-4, 9.5e-5 on
    # seed 0 and 1.4e-3, 3.3e-4, 8.1e-5 on seed 1; the Euler-Maruyama
    # factor 1 + noise_coef dW reached 2.2x from 512 to 2048 steps on seed 1
    # and 1.3x on seed 0)
    n = 32
    params = SpdeParams(gamma=10.0, epsilon=1000.0)
    fld = sech_ridge_initial(n, 0.001, seed)
    sheet = BrownianSheetModes.generate(seed, n, 0.007, 8192)
    ref = spde_poppe_run(fld, params, sheet, panels=8192).g.samples
    gaps = [float(np.max(np.abs(spde_direct_run(fld, params, sheet,
                                                steps).samples - ref)))
            for steps in (128, 512, 2048)]
    assert gaps[0] / gaps[1] >= 3 and gaps[1] / gaps[2] >= 3


def test_initial_data_noise_is_seeded():
    a = sech_ridge_initial(8, 0.01, 42)
    b = sech_ridge_initial(8, 0.01, 42)
    c = sech_ridge_initial(8, 0.01, 43)
    assert np.array_equal(a.modes, b.modes)
    assert not np.array_equal(a.modes, c.modes)
