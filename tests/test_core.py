"""Grids, quadrature, dense solves, the FFT's restriction and kernels, RK4
stepping, the fixed-step march, random draws."""

import functools
import sys
import types
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from grassflow import core, graphflows, integrable, smoluchowski
from grassflow.core import (Grid1D, DenseSystem, central_in_t, expm_2x2,
                            march, one_blas_thread, phi1, quadrature_weights,
                            rk4_step, solve_dense, standard_normals)
from grassflow.errors import ConfigError, IntegrationBlowup, SingularSystem
from grassflow.integrable import cubic_kdv_symbol, propagate_dispersive
from grassflow.spde import BrownianSheetModes, sech_ridge_initial


# ---------------------------------------------------------------------------
# grids and quadrature


def test_closed_grid_includes_both_endpoints():
    g = Grid1D(-1.0, 1.0, 5, kind="closed")
    assert g.spacing == pytest.approx(0.5)
    assert np.allclose(g.nodes, [-1.0, -0.5, 0.0, 0.5, 1.0])


def test_periodic_grid_excludes_upper_endpoint():
    g = Grid1D(0.0, 1.0, 4, kind="periodic")
    assert g.spacing == pytest.approx(0.25)
    assert np.allclose(g.nodes, [0.0, 0.25, 0.5, 0.75])


@pytest.mark.parametrize("kwargs", [
    dict(lower=0.0, upper=1.0, n=1),
    dict(lower=1.0, upper=0.0, n=4),
    dict(lower=0.0, upper=1.0, n=4, kind="open"),
])
def test_grid_rejects_bad_parameters(kwargs):
    with pytest.raises(ConfigError):
        Grid1D(**kwargs)


def test_trapezoid_is_exact_for_linear_functions():
    g = Grid1D(0.0, 1.0, 17, kind="closed")
    w = quadrature_weights(g)
    assert np.sum(w * g.nodes) == pytest.approx(0.5)


def test_trapezoid_second_order_on_smooth_integrand():
    errs = []
    for n in (33, 65):
        g = Grid1D(0.0, 1.0, n, kind="closed")
        w = quadrature_weights(g)
        errs.append(abs(np.sum(w * np.exp(g.nodes)) - (np.e - 1.0)))
    assert errs[0] / errs[1] > 3.5


def test_unknown_quadrature_scheme_rejected():
    with pytest.raises(ConfigError):
        quadrature_weights(Grid1D(0.0, 1.0, 8, kind="periodic"))


# ---------------------------------------------------------------------------
# dense solves


def test_solve_dense_matches_hand_inverse():
    a = np.array([[2.0, 1.0], [1.0, 3.0]])
    b = np.array([1.0, 2.0])
    x, _ = solve_dense(DenseSystem(a, b))
    assert np.allclose(a @ x, b, atol=1e-14)


def test_solve_dense_raises_on_singular_matrix():
    # the pivot floor reports the breakdown; no warning about the exactly
    # zero pivot may reach stderr before it
    a = np.array([[1.0, 2.0], [2.0, 4.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularSystem) as exc:
            solve_dense(DenseSystem(a, np.array([1.0, 1.0])))
    assert exc.value.det_value == 0


def test_dense_system_validates_shape_and_finiteness():
    with pytest.raises(ConfigError):
        DenseSystem(np.ones((2, 3)), np.ones(2))
    with pytest.raises(ConfigError):
        DenseSystem(np.array([[1.0, np.nan], [0.0, 1.0]]), np.ones(2))


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=2, max_value=6), st.integers(0, 2 ** 31))
def test_solve_dense_residual_small(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n)) + n * np.eye(n)
    b = rng.standard_normal(n)
    x, _ = solve_dense(DenseSystem(a, b))
    assert np.max(np.abs(a @ x - b)) < 1e-10 * max(1.0, np.max(np.abs(b)))


# below the pivot floor: an exactly singular system, and a 1e-10 pivot
# under a norm of 1e20 (|det| = 1e10)
FLOOR_CASES = (np.array([[1.0, 2.0], [2.0, 4.0]]), np.diag([1e20, 1e-10]))


def test_scipy_fallback_agrees_with_numpys_openblas(monkeypatch):
    # where numpy links no OpenBLAS of its own, solve_dense factorises by
    # scipy's LAPACK under the same contract
    if core._openblas_getrf_getrs("d") is None:
        pytest.skip("numpy links no OpenBLAS with ILP64 LAPACK")
    rng = np.random.default_rng(5)  # systems whose LUs swap rows
    a = rng.standard_normal((4, 9, 9))
    z = a + 1j * rng.standard_normal((4, 9, 9))
    systems = [DenseSystem(a, rng.standard_normal((4, 9))),
               DenseSystem(z, rng.standard_normal((4, 9, 3))),
               DenseSystem(a[0], rng.standard_normal(9)),
               DenseSystem(np.stack(FLOOR_CASES + (np.eye(2),)),
                           np.ones((3, 2)))]

    def solve_all():
        solved = [solve_dense(system) for system in systems]
        for floor in FLOOR_CASES:
            with pytest.raises(SingularSystem) as exc:
                solve_dense(DenseSystem(floor, np.ones(2)))
            solved.append((str(exc.value), exc.value.det_value))
        return solved

    openblas = solve_all()
    assert np.isnan(openblas[3][0][:2]).all()  # the stack's singular two
    monkeypatch.setattr(core, "_openblas_getrf_getrs", lambda kind: None)
    fallback = solve_all()
    for (x, det), (y, d) in zip(openblas[:4], fallback[:4]):
        np.testing.assert_allclose(y, x, rtol=1e-13)
        np.testing.assert_allclose(d, det, rtol=1e-13)
    assert fallback[4:] == openblas[4:]


# ---------------------------------------------------------------------------
# BLAS threads


def blas_threads(setter):
    """numpy's OpenBLAS thread count, read through the entry point the
    policy calls: it returns the count it replaces."""
    count = setter(1)
    setter(count)
    return count


@pytest.fixture
def setter():
    """The policy's setter, with the count at two threads, so that one
    thread is seen to be set; the count is restored afterwards."""
    blas = getattr(np.__config__, "CONFIG", {}) \
        .get("Build Dependencies", {}).get("blas", {})
    version = tuple(int(v) for v in blas.get("version", "0").split(".")[:3])
    if blas.get("name") != "scipy-openblas" or version < (0, 3, 27):
        pytest.skip("numpy links no OpenBLAS with "
                    "openblas_set_num_threads_local")
    setter = core._blas_thread_setter()
    assert setter is not None, "numpy's OpenBLAS was not found"
    previous = setter(2)
    yield setter
    setter(previous)


def test_one_blas_thread_restores_the_count_it_found(setter):
    with one_blas_thread():
        assert blas_threads(setter) == 1
        with one_blas_thread():
            assert blas_threads(setter) == 1
        assert blas_threads(setter) == 1  # the outer block's count
    assert blas_threads(setter) == 2


def test_one_blas_thread_restores_the_count_after_an_error(setter):
    with pytest.raises(ZeroDivisionError):
        with one_blas_thread():
            1 / 0
    assert blas_threads(setter) == 2


# ---------------------------------------------------------------------------
# the FFT's restriction and kernels


def test_dft_requires_periodic_power_of_two():
    # the KdV and NLS base flows propagate on a periodic power-of-two grid
    with pytest.raises(ConfigError, match="periodic"):
        propagate_dispersive(np.zeros(8), Grid1D(0.0, 1.0, 8, kind="closed"),
                             cubic_kdv_symbol, 0.1)
    with pytest.raises(ConfigError, match="power of two"):
        propagate_dispersive(np.zeros(12),
                             Grid1D(0.0, 1.0, 12, kind="periodic"),
                             cubic_kdv_symbol, 0.1)


def same_bytes(a, b):
    return a.dtype == b.dtype and a.shape == b.shape \
        and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("n", [256, 255])
def test_fft_kernels_give_the_bytes_of_np_fft(n):
    rng = np.random.default_rng(n)
    x = rng.standard_normal(n)
    z = x + 1j * rng.standard_normal(n)
    rfft, irfft = core.fft_kernels(n, real=True)
    spectrum = np.fft.rfft(x)
    assert same_bytes(rfft(x), spectrum)
    assert same_bytes(irfft(spectrum), np.fft.irfft(spectrum, n))
    # a series shorter than n, zero-padded as _series_product pads it
    short = x[:n // 2]
    assert same_bytes(rfft(short), np.fft.rfft(short, n))
    fft, ifft = core.fft_kernels(n, real=False)
    assert same_bytes(fft(z), np.fft.fft(z))
    assert same_bytes(ifft(z), np.fft.ifft(z))
    # each call writes a fresh array
    assert not np.shares_memory(rfft(x), rfft(x))
    assert not np.shares_memory(ifft(z), ifft(z))


@pytest.mark.parametrize("n", [256, 255])
@pytest.mark.parametrize("missing", ["module", "kernel"])
def test_fft_kernels_fall_back_to_np_fft(monkeypatch, n, missing):
    # without numpy's pocketfft ufunc module, or one of its kernels, the
    # pair is np.fft's own functions with n bound: the same bytes
    # (np.fft itself keeps the module it bound on import)
    stub = None if missing == "module" else types.ModuleType("stub")
    monkeypatch.setitem(sys.modules, "numpy.fft._pocketfft_umath", stub)
    monkeypatch.setattr(np.fft, "_pocketfft_umath", stub)
    core.fft_kernels.cache_clear()
    try:
        test_fft_kernels_give_the_bytes_of_np_fft(n)
        assert all(isinstance(kernel, functools.partial)
                   for real in (True, False)
                   for kernel in core.fft_kernels(n, real))
    finally:
        core.fft_kernels.cache_clear()


def np_fft_kernels(n, real):
    """fft_kernels spelled by np.fft's own functions."""
    if real:
        return (lambda a: np.fft.rfft(a, n), lambda a: np.fft.irfft(a, n))
    return (lambda a: np.fft.fft(a, n), lambda a: np.fft.ifft(a, n))


def oracle_runs(steps):
    """Each stepper that transforms through fft_kernels, run for ``steps``
    steps on small smooth data, and the Riemann convolution of one series
    with another and with itself."""
    kdv_grid = Grid1D(-10.0, 10.0, 64, kind="periodic")
    nls_grid = Grid1D(-8.0, 8.0, 64, kind="periodic")
    mass_grid = Grid1D(0.0, 10.0, 65)
    u, v = np.exp(-mass_grid.nodes), 1 / (1 + mass_grid.nodes)
    return {
        "etdrk4_kdv": integrable.etdrk4_kdv(
            0.5 / np.cosh(kdv_grid.nodes) ** 2, kdv_grid, 1e-3, steps),
        "split_step_nls": integrable.split_step_nls(
            1 / np.cosh(nls_grid.nodes), nls_grid, 1e-3, steps),
        "spectral_oracle": graphflows.spectral_oracle(
            np.sin, 2 * np.pi, 0.2, np.linspace(-3, 3, 7), nodes=64,
            steps=steps),
        "riemann_conv": smoluchowski.riemann_conv(u, v, mass_grid.spacing),
        "riemann_conv_square": smoluchowski.riemann_conv(
            u, u, mass_grid.spacing),
        "direct_smol_oracle": smoluchowski.direct_smol_oracle(
            u, mass_grid, steps * 1e-3, 1e-3),
    }


def test_steppers_give_the_same_bytes_through_np_fft(monkeypatch):
    kept = oracle_runs(20)
    for module in (integrable, graphflows, smoluchowski):
        monkeypatch.setattr(module, "fft_kernels", np_fft_kernels)
    for name, values in oracle_runs(20).items():
        assert same_bytes(kept[name], values), name


def test_oracle_steps_make_no_np_fft_call(monkeypatch):
    # np.fft's per-call set-up is about half of a length-256 transform;
    # the steppers bind their kernels once, so no step pays it
    calls = []
    for name in ("rfft", "irfft", "fft", "ifft"):
        transform = getattr(np.fft, name)
        monkeypatch.setattr(np.fft, name, lambda *a, transform=transform,
                            **k: calls.append(1) or transform(*a, **k))
    counts = []
    for steps in (100, 200):
        calls.clear()
        oracle_runs(steps)
        counts.append(len(calls))
    assert counts[0] == counts[1] < 10


# ---------------------------------------------------------------------------
# time stepping and time derivatives


def test_rk4_step_is_the_fourth_order_taylor_step():
    # y' = y: one step multiplies by 1 + h + h^2/2 + h^3/6 + h^4/24
    h = 0.1
    y = rk4_step(lambda s, y: y, np.array([2.0]), 0.0, h)
    assert y[0] == pytest.approx(2.0 * (1 + h + h ** 2 / 2 + h ** 3 / 6
                                        + h ** 4 / 24), rel=1e-15)


def test_rk4_step_is_exact_for_cubic_time_dependence():
    # y' = f(s) is Simpson's rule on [s, s + ds], exact for cubics
    f = lambda s, y: 1.0 + s - 3.0 * s ** 2 + 4.0 * s ** 3
    prim = lambda s: s + s ** 2 / 2 - s ** 3 + s ** 4
    y = rk4_step(f, 0.5, 0.2, 0.3)
    assert y == pytest.approx(0.5 + prim(0.5) - prim(0.2), rel=1e-14)


def test_central_in_t_solves_in_time_order():
    seen = []

    def solve(s):
        seen.append(s)
        return np.array([s ** 2, 3.0 * s])

    mid, rate = central_in_t(solve, 0.5, 0.25)
    assert seen == [0.25, 0.5, 0.75]
    assert np.allclose(mid, [0.25, 1.5])
    assert np.allclose(rate, [1.0, 3.0])


def test_central_in_t_refuses_a_step_past_t():
    # a step past t would solve at negative time; a step of t solves at 0
    seen = []
    solve = lambda s: seen.append(s) or np.array([s])
    with pytest.raises(ConfigError, match="negative time"):
        central_in_t(solve, 0.5, 0.75)
    assert seen == []
    central_in_t(solve, 0.5, 0.5)
    assert seen == [0.0, 0.5, 1.0]


def test_march_keeps_the_asked_steps():
    # the state after step m is 1 + 2 + ... + m, so each kept value also
    # shows that advance saw the step index
    advance = lambda m, y: y + (m + 1)
    assert march(advance, 0, 4) == 10
    assert march(advance, 0, 4, readout=lambda y: -y) == -10
    assert march(advance, 0, 4, [0, 2, 4]) == {0: 0, 2: 3, 4: 10}
    assert march(advance, 0, 4, [4, 2]) == {2: 3, 4: 10}
    assert list(march(advance, 0, 4, [4, 0, 2])) == [0, 2, 4]
    assert march(advance, 0, 4, range(5), str) == \
        {0: "0", 1: "1", 2: "3", 3: "6", 4: "10"}
    assert march(advance, 7, 0) == 7


def test_march_names_the_first_step_known_non_finite():
    # the state turns NaN at step 3 and stays NaN
    advance = lambda m, y: y * np.nan if m + 1 == 3 else y + 1.0
    y0 = np.zeros(2)
    cases = [
        (dict(checkpoints=range(2001)), 3),   # step 3 is kept
        (dict(), 1024),                       # the first check fires
        (dict(checkpoints=[0, 2, 1000]), 1000),
    ]
    for kwargs, step in cases:
        with pytest.raises(IntegrationBlowup) as exc:
            march(advance, y0, 2000, **kwargs)
        assert exc.value.step == step
    with pytest.raises(IntegrationBlowup) as exc:
        march(advance, y0, 5)                 # the last step is checked
    assert exc.value.step == 5


@pytest.mark.parametrize("z", [1e-9, 5e-7, 1e-3])
def test_phi1_gives_the_growth_factor_to_round_off(z):
    # the quotient family's growth factor (e^{dt} - 1)/d; a two-term series
    # below |dt| = 1e-6 was 4e-14 off at dt = 5e-7
    t = 0.3
    d = np.array([z, -z, 1j * z]) / t
    rel = np.abs(phi1(d, t) / (np.expm1(d * t) / d) - 1.0)
    assert np.max(rel) <= 1e-15
    assert np.array_equal(phi1(np.array([0.0, 0j]), t), [t, t])
    assert np.array_equal(phi1(np.array([0.0, 0j])), [1.0, 1.0])


def test_expm_2x2_takes_each_branch_in_closed_form():
    # a rotation (delta^2 < 0), a shear (delta = 0) and a boost
    # (delta^2 > 0), each shifted by 0.5 I, two stiff cases, then a random
    # stack against scipy's Pade exponential (measured 5.3e-14 of each
    # matrix's largest entry, most of it scipy's)
    from scipy.linalg import expm

    c, s = np.cos(0.7), np.sin(0.7)
    ch, sh = np.cosh(0.7), np.sinh(0.7)
    omega = np.array([[[0.5, 0.7], [-0.7, 0.5]], [[0.5, 0.7], [0.0, 0.5]],
                      [[0.5, 0.7], [0.7, 0.5]]])
    exact = np.exp(0.5) * np.array([[[c, s], [-s, c]],
                                    [[1.0, 0.7], [0.0, 1.0]],
                                    [[ch, sh], [sh, ch]]])
    assert np.max(np.abs(expm_2x2(omega) - exact)) <= 1e-15
    # stiff: e^{-1600} underflows, and e^{40} must not swamp the 1 beside it
    stiff = expm_2x2(np.array([[[40.0, 0.0], [0.0, 0.0]],
                               [[-1600.0, 1.0], [0.0, 0.0]]]))
    exact = np.array([[[np.exp(40.0), 0.0], [0.0, 1.0]],
                      [[0.0, 1.0 / 1600.0], [0.0, 1.0]]])
    assert np.allclose(stiff, exact, rtol=1e-15, atol=0.0)
    omega = np.random.default_rng(7).standard_normal((4, 50, 2, 2))
    exact = np.array([expm(w) for w in omega.reshape(-1, 2, 2)])
    gap = np.abs(expm_2x2(omega).reshape(-1, 2, 2) - exact)
    assert np.max(gap.max(axis=(1, 2)) / np.abs(exact).max(axis=(1, 2))) \
        <= 1e-12


# ---------------------------------------------------------------------------
# random draws


def test_random_stream_reproducible_and_stream_separated():
    a = standard_normals(123, 0, 10)
    b = standard_normals(123, 0, 10)
    assert np.array_equal(a, b)
    # different stream ids or seeds share not even one value
    draws = [standard_normals(seed, stream_id, 1000)
             for seed in (0, 123) for stream_id in (0, 1, 2)]
    assert len(np.unique(np.concatenate(draws))) == 1000 * len(draws)


@pytest.mark.parametrize("key", [(123, 7), (0, 0), (1, 2),
                                 (2 ** 64 - 1, 1), (5, 2 ** 64 - 1)])
def test_philox_words_are_numpys(key):
    # the key's words are (seed, stream_id) and the counters run 1, 2, ...,
    # as in numpy's Philox; the counters span more than one block
    words = core.philox4x64(1, core.RANDOM_BLOCK + 3, key).reshape(-1)
    expected = np.random.Philox(key=np.array(key, dtype=np.uint64)) \
        .random_raw(len(words))
    assert words.dtype == np.uint64
    assert np.array_equal(words, expected)


def test_normals_are_box_muller_on_word_pairs():
    words = core.philox4x64(1, 2, (9, 4)).reshape(-1)[:6].reshape(3, 2)
    u = (words >> 11).astype(float) * 2.0 ** -53
    r = np.sqrt(-2.0 * np.log1p(-u[:, 0]))
    expected = np.stack((r * np.cos(2.0 * np.pi * u[:, 1]),
                         r * np.sin(2.0 * np.pi * u[:, 1])), axis=-1)
    assert np.array_equal(standard_normals(9, 4, 6), expected.reshape(-1))


def test_a_shorter_draw_is_a_prefix_of_a_longer_one():
    # 4 * RANDOM_BLOCK + 6 normals take counters from a second block, and
    # neither count is a multiple of the 4 words of a counter
    whole = standard_normals(3, 1, (1, 4 * core.RANDOM_BLOCK + 6))
    assert whole.shape == (1, 4 * core.RANDOM_BLOCK + 6)
    assert np.array_equal(standard_normals(3, 1, 7), whole[0, :7])
    assert np.array_equal(standard_normals(3, 1, (2, 2 * core.RANDOM_BLOCK)),
                          whole[0, :4 * core.RANDOM_BLOCK].reshape(2, -1))


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_normal_moments_within_five_standard_errors(seed):
    # 2 M draws; each statistic's standard error is that of a mean of
    # i.i.d. terms: Var z = 2, Var z^2 = 2, Var z^4 = 105 - 9 = 96
    n = 2_000_000
    z = standard_normals(seed, 1, n)
    tail = 0.0026997960632601866  # P(|z| > 3) = erfc(3 / sqrt 2)
    stats = [(np.mean(z), 0.0, 1.0),
             (np.mean(z * z), 1.0, 2.0),
             (np.mean(z ** 4), 3.0, 96.0),
             (np.mean(np.abs(z) > 3.0), tail, tail * (1.0 - tail))]
    for value, expected, variance in stats:
        assert abs(value - expected) <= 5.0 * np.sqrt(variance / n)


@pytest.mark.parametrize("complex_valued", [False, True])
def test_gaussian_increments_are_the_scaled_draw(complex_valued):
    # the model's Gaussian increments are standard_normals scaled by their
    # standard deviation: the sheet's real ones on stream 1, the initial
    # data's complex ones on the two halves of stream 2
    if complex_valued:
        z = standard_normals(5, 2, (2, 8, 8))
        got = sech_ridge_initial(8, 0.3, 5).modes
        expected = sech_ridge_initial(8, 0.0, 5).modes \
            + 0.3 * (z[0] + 1j * z[1])
    else:
        got = BrownianSheetModes.generate(5, 6, 0.3, 64).increments
        expected = standard_normals(5, 1, (64, 6)) * np.sqrt(0.3 / 64)
    assert np.array_equal(got, expected)


@pytest.mark.parametrize("key", [(-1, 0), (2 ** 64, 0), (0, 2 ** 64)])
def test_random_stream_refuses_a_key_word_out_of_range(key):
    with pytest.raises(ConfigError):
        standard_normals(*key, 4)
