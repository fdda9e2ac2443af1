"""Grids, quadrature, dense solves, the DFT contract, RK4 stepping, the
fixed-step march, RNG."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from grassflow.core import (Grid1D, DenseSystem, central_in_t,
                            dft_forward, dft_frequencies, dft_inverse,
                            gaussian_increments, march, phi1,
                            quadrature_weights, random_stream, rk4_step,
                            solve_dense)
from grassflow.errors import ConfigError, IntegrationBlowup, SingularSystem


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
    # the pivot floor reports the breakdown; scipy's LinAlgWarning about
    # the exactly zero pivot must not reach stderr before it
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


# ---------------------------------------------------------------------------
# DFT contract


def test_dft_requires_periodic_power_of_two():
    with pytest.raises(ConfigError):
        dft_forward(np.zeros(8), Grid1D(0.0, 1.0, 8, kind="closed"))
    with pytest.raises(ConfigError):
        dft_forward(np.zeros(12), Grid1D(0.0, 1.0, 12, kind="periodic"))


def test_constant_maps_to_mode_zero_times_length():
    g = Grid1D(-3.0, 5.0, 16, kind="periodic")
    modes = dft_forward(np.full(16, 2.5), g)
    assert modes[0] == pytest.approx(2.5 * g.length)
    assert np.max(np.abs(modes[1:])) < 1e-12


def test_single_harmonic_lands_in_one_mode():
    g = Grid1D(0.0, 2.0, 32, kind="periodic")
    k1 = 1.0 / g.length
    # forward kernel is e^{+2 pi i k x}, so e^{-2 pi i k1 x} fills mode +k1
    modes = dft_forward(np.exp(-2j * np.pi * k1 * g.nodes), g)
    k = dft_frequencies(g)
    idx = int(np.argmin(np.abs(k - k1)))
    assert abs(modes[idx] - g.length) < 1e-10
    mask = np.ones(32, dtype=bool)
    mask[idx] = False
    assert np.max(np.abs(modes[mask])) < 1e-10


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 31), st.sampled_from([8, 16, 64]))
def test_dft_round_trip(seed, n):
    rng = np.random.default_rng(seed)
    g = Grid1D(-2.0, 2.0, n, kind="periodic")
    f = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    back = dft_inverse(dft_forward(f, g), g)
    assert np.max(np.abs(back - f)) < 1e-12


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 31), st.sampled_from([8, 32]))
def test_parseval_identity(seed, n):
    rng = np.random.default_rng(seed)
    g = Grid1D(0.0, 3.0, n, kind="periodic")
    f = rng.standard_normal(n)
    modes = dft_forward(f, g)
    lhs = np.sum(np.abs(f) ** 2) * g.spacing
    rhs = np.sum(np.abs(modes) ** 2) / g.length
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_dft_transforms_2d_samples_column_by_column():
    rng = np.random.default_rng(5)
    g = Grid1D(-1.5, 2.5, 16, kind="periodic")
    f = rng.standard_normal((16, 3)) + 1j * rng.standard_normal((16, 3))
    modes = dft_forward(f, g)
    samples = dft_inverse(modes, g)
    for j in range(3):
        column = dft_forward(f[:, j], g)
        assert np.max(np.abs(modes[:, j] - column)) < 1e-14
        back = dft_inverse(column, g)
        assert np.max(np.abs(samples[:, j] - back)) < 1e-14
    with pytest.raises(ConfigError):
        dft_forward(f.T, g)


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
        (dict(checkpoints=[500, 2000],        # tuple readouts are scanned
              readout=lambda y: (y, y.sum())), 500),
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


# ---------------------------------------------------------------------------
# random streams


def test_random_stream_reproducible_and_stream_separated():
    a = random_stream(123, 0).standard_normal(10)
    b = random_stream(123, 0).standard_normal(10)
    c = random_stream(123, 1).standard_normal(10)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_gaussian_increments_variance():
    stream = random_stream(5, 0)
    z = gaussian_increments(stream, 200000, 0.25, complex_valued=True)
    assert np.var(z.real) == pytest.approx(0.25, rel=0.05)
    assert np.var(z.imag) == pytest.approx(0.25, rel=0.05)


def test_gaussian_increments_rejects_negative_variance():
    with pytest.raises(ConfigError):
        gaussian_increments(random_stream(0, 0), 4, -1.0)
