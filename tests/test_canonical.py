"""Base/Riccati integration, additive traces, the Fredholm solver."""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from grassflow.canonical import (AdditiveKernelTrace, BaseState,
                                 CanonicalCoefficients, compose, delta_kernel,
                                 fredholm_residual, integrate_base,
                                 integrate_base_exact, linear_flow,
                                 product_rule_check, riccati_project,
                                 riccati_residual, solve_additive_fredholm)
from grassflow.core import Grid1D, QuadratureRule, rk4_step
from grassflow.errors import (ChartBreakdown, ConfigError, IntegrationBlowup,
                              TraceRangeError)
from grassflow.graphflows import riccati_subflow


def random_coeffs(rng, n):
    blocks = [rng.standard_normal((n, n)) for _ in range(4)]
    return CanonicalCoefficients(*blocks)


# ---------------------------------------------------------------------------
# base integration


def test_coefficients_validate_shapes():
    with pytest.raises(ConfigError):
        CanonicalCoefficients(np.eye(2), np.eye(2), np.eye(2), np.eye(3))


def test_rk4_matches_matrix_exponential_oracle():
    rng = np.random.default_rng(0)
    coeffs = random_coeffs(rng, 3)
    init = BaseState(Q=np.eye(3), P=0.1 * rng.standard_normal((3, 3)))
    approx = integrate_base(coeffs, init, 0.5, steps=200)
    exact = integrate_base_exact(coeffs, init, 0.5)
    assert np.max(np.abs(approx.Q - exact.Q)) < 1e-8
    assert np.max(np.abs(approx.P - exact.P)) < 1e-8


def test_scalar_base_flow_closed_form():
    # Qdot = P, Pdot = 0 with Q0 = 1, P0 = 2  =>  Q = 1 + 2t
    coeffs = CanonicalCoefficients(np.zeros((1, 1)), np.eye(1),
                                   np.zeros((1, 1)), np.zeros((1, 1)))
    out = integrate_base(coeffs, BaseState(np.eye(1), 2 * np.eye(1)), 3.0, 10)
    assert out.Q[0, 0] == pytest.approx(7.0)
    assert out.P[0, 0] == pytest.approx(2.0)


def test_linear_flow_returns_the_whole_trajectory():
    # y' = [[0, 1], [-1, 0]] y from (1, 0): y(s) = (cos s, -sin s)
    rot = np.array([[0.0, 1.0], [-1.0, 0.0]])
    ys = linear_flow(lambda s: rot, np.array([1.0, 0.0]), 0.5, 0.01, 100)
    assert ys.shape == (101, 2)
    s = 0.01 * np.arange(101)
    assert np.max(np.abs(ys - np.column_stack((np.cos(s), -np.sin(s))))) < 1e-9
    with pytest.raises(ConfigError):
        linear_flow(lambda s: rot, np.array([1.0, 0.0]), 0.0, 0.01, 0)
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(IntegrationBlowup):
        linear_flow(lambda s: 1e3 * np.eye(2), np.ones(2), 0.0, 1.0, 200)


def _linear_flow_loop(generator, y0, s0, ds, steps):
    """The reference: linear_flow's own RK4 loop before it went through
    core.march."""
    ys = [np.asarray(y0)]
    rhs = lambda s, y: generator(s) @ y
    for m in range(steps):
        ys.append(rk4_step(rhs, ys[-1], s0 + m * ds, ds))
    return np.stack(ys)


def test_linear_flow_equals_its_loop_bitwise():
    rng = np.random.default_rng(3)
    a, b = rng.standard_normal((2, 4, 4))
    generator = lambda s: a + np.sin(s) * b
    y0 = rng.standard_normal((4, 2))
    assert np.array_equal(linear_flow(generator, y0, 0.3, 0.01, 250),
                          _linear_flow_loop(generator, y0, 0.3, 0.01, 250))


def test_riccati_projection_and_breakdown():
    state = BaseState(Q=np.array([[2.0, 0.0], [0.0, 4.0]]),
                      P=np.array([[1.0, 0.0], [0.0, 1.0]]))
    g = riccati_project(state)
    assert np.allclose(g, np.diag([0.5, 0.25]))
    with pytest.raises(ChartBreakdown):
        riccati_project(BaseState(Q=np.zeros((2, 2)), P=np.eye(2)))


def test_riccati_project_turns_pivot_floor_into_chart_breakdown():
    # |det Q| = 1e10 passes the chart threshold, the 1e-10 pivot does not
    state = BaseState(Q=np.diag([1e20, 1e-10]), P=np.eye(2), t=0.25)
    with pytest.raises(ChartBreakdown) as exc:
        riccati_project(state)
    assert exc.value.location == 0.25
    assert exc.value.det_value == pytest.approx(1e10)
    assert "pivot" in str(exc.value)


@pytest.mark.parametrize("project", [
    lambda: riccati_project(BaseState(Q=np.array([[2.0, 1.0], [0.5, 3.0]]),
                                      P=np.eye(2))),
    lambda: riccati_subflow(np.array([[0.2, 0.1], [0.3, -0.4]]), 0.5),
], ids=["riccati_project", "riccati_subflow"])
def test_riccati_projection_factorises_once(monkeypatch, project):
    calls = []
    lu_factor = scipy.linalg.lu_factor
    monkeypatch.setattr(scipy.linalg, "lu_factor",
                        lambda *a, **k: calls.append(1) or lu_factor(*a, **k))

    def forbidden(*args, **kwargs):
        raise AssertionError("second factorisation")

    monkeypatch.setattr(np.linalg, "det", forbidden)
    monkeypatch.setattr(np.linalg, "solve", forbidden)
    project()
    assert len(calls) == 1


def test_riccati_residual_small_on_true_flow():
    rng = np.random.default_rng(1)
    coeffs = random_coeffs(rng, 2)
    init = BaseState(Q=np.eye(2), P=0.2 * rng.standard_normal((2, 2)))
    dt = 1e-3
    gs = [riccati_project(integrate_base_exact(coeffs, init, k * dt))
          for k in range(5)]
    assert riccati_residual(coeffs, gs, dt) < 1e-4


def test_riccati_residual_needs_three_samples():
    coeffs = random_coeffs(np.random.default_rng(2), 2)
    with pytest.raises(ConfigError):
        riccati_residual(coeffs, [np.eye(2), np.eye(2)], 1e-3)


# ---------------------------------------------------------------------------
# additive traces


def test_trace_node_lookup_and_zero_extension():
    g = Grid1D(-2.0, 0.0, 5, kind="closed")
    trace = AdditiveKernelTrace(grid=g, values=np.arange(5.0))
    assert trace(np.array([-2.0, -1.5, 0.0])) == pytest.approx([0, 1, 4])
    # off-node points interpolate linearly
    assert trace(np.array([-1.75])) == pytest.approx([0.5])
    # outside the window: zero by default, error when disabled
    assert trace(np.array([1.0])) == pytest.approx([0.0])
    strict = AdditiveKernelTrace(grid=g, values=np.arange(5.0),
                                 zero_extension=False)
    with pytest.raises(TraceRangeError):
        strict(np.array([1.0]))


# ---------------------------------------------------------------------------
# Fredholm solver


def test_two_node_fredholm_matches_hand_solve():
    zgrid = Grid1D(-1.0, 0.0, 2, kind="closed")
    kvals = np.array([[0.3, 0.1], [0.2, 0.4]])  # k[i, j] = qhat(xi_i, z_j)

    def qhat(xi, z):
        xi_idx = np.rint(xi - zgrid.lower).astype(int) * 0 + \
            np.rint((np.asarray(xi) - zgrid.lower)).astype(int)
        z_idx = np.rint((np.asarray(z) - zgrid.lower)).astype(int)
        return kvals[xi_idx, z_idx]

    p = AdditiveKernelTrace(grid=Grid1D(-2.0, 2.0, 5, kind="closed"),
                            values=np.array([1.0, 2.0, 3.0, 4.0, 5.0]))
    g_row, det = solve_additive_fredholm(p, qhat, zgrid, 0.0,
                                         quadrature="riemann-left")
    # riemann-left weights are (1, 0): unknowns g(-1), g(0) satisfy
    #   p(-1) = g(-1) + g(-1) k(-1,-1),   p(0) = g(0) + g(-1) k(-1, 0)
    h = 1.0
    g_m1 = 2.0 / (1.0 + h * kvals[0, 0])
    g_0 = 3.0 - h * g_m1 * kvals[0, 1]
    assert g_row == pytest.approx([g_m1, g_0])
    assert det == pytest.approx((1.0 + h * kvals[0, 0]))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 31), st.sampled_from(["riemann-left", "trapezoid"]))
def test_fredholm_solution_has_tiny_discrete_residual(seed, scheme):
    rng = np.random.default_rng(seed)
    zgrid = Grid1D(-1.0, 0.0, 17, kind="closed")
    wide = Grid1D(-3.0, 1.0, 65, kind="closed")
    trace = AdditiveKernelTrace(grid=wide, values=rng.standard_normal(65))

    def qhat(xi, z):
        return 0.5 * trace(xi + z)

    g_row, _ = solve_additive_fredholm(trace, qhat, zgrid, 0.25,
                                       quadrature=scheme)
    assert fredholm_residual(trace, qhat, zgrid, 0.25, g_row,
                             quadrature=scheme) < 1e-10


def test_fredholm_full_kernel_first_row_consistent():
    rng = np.random.default_rng(3)
    zgrid = Grid1D(-1.0, 0.0, 9, kind="closed")
    wide = Grid1D(-3.0, 1.0, 33, kind="closed")
    trace = AdditiveKernelTrace(grid=wide, values=rng.standard_normal(33))

    def qhat(xi, z):
        return 0.3 * trace(xi + z)

    g_row, _ = solve_additive_fredholm(trace, qhat, zgrid, 0.0)
    g_full, _ = solve_additive_fredholm(trace, qhat, zgrid, 0.0,
                                        full_kernel=True)
    # the y = 0 row of the full kernel solve is the single-row solve
    assert np.max(np.abs(g_full[-1] - g_row)) < 1e-12


def test_fredholm_breakdown_on_singular_operator():
    zgrid = Grid1D(-1.0, 0.0, 2, kind="closed")

    def qhat(xi, z):
        # with riemann-left weights (1, 0) this makes the pivot vanish
        return np.where(np.rint(xi - zgrid.lower) == 0, -1.0, 0.0)

    trace = AdditiveKernelTrace(grid=Grid1D(-2.0, 2.0, 5, kind="closed"),
                                values=np.ones(5))
    with pytest.raises(ChartBreakdown):
        solve_additive_fredholm(trace, qhat, zgrid, 0.0)


# ---------------------------------------------------------------------------
# operator compositions


def test_delta_kernel_is_composition_identity():
    rng = np.random.default_rng(4)
    g = Grid1D(0.0, 1.0, 9, kind="closed")
    rule = QuadratureRule.trapezoid(g)
    f = rng.standard_normal((9, 9))
    delta = delta_kernel(rule.weights)
    assert np.allclose(compose(f, delta, rule.weights), f)
    assert np.allclose(compose(delta, f, rule.weights), f)


def test_product_rule_defect_shrinks_with_refinement():
    # traces must decay to numerical zero inside the truncated window,
    # otherwise the derivative identity picks up a fixed boundary term
    def defect(n_nodes):
        zgrid = Grid1D(-10.0, 0.0, n_nodes, kind="closed")
        wide = Grid1D(-21.0, 1.0, 22 * (n_nodes - 1) // 10 + 1, kind="closed")
        xs = wide.nodes
        r = AdditiveKernelTrace(grid=wide,
                                values=np.exp(-2.0 * (xs + 5.0) ** 2))
        rp = AdditiveKernelTrace(grid=wide,
                                 values=np.exp(-2.0 * (xs + 4.0) ** 2))
        nodes = zgrid.nodes
        f = np.exp(-0.5 * (nodes[:, None] - nodes[None, :]) ** 2)
        fp = np.exp(-0.5 * (nodes[:, None] + nodes[None, :] + 3.0) ** 2)
        dx = zgrid.spacing
        return product_rule_check(f, r, rp, fp, zgrid, 0.1, dx)

    coarse, fine = defect(101), defect(201)
    assert fine < coarse
    assert coarse / fine > 2.0
