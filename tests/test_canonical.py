"""Base/Riccati integration, the graph of the base pair, and the generic
Fredholm solver and product rule on additive traces."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from grassflow import core
from grassflow.canonical import CanonicalCoefficients, riccati_residual
from grassflow.core import Grid1D, quadrature_weights, rk4_step
from grassflow.errors import (ChartBreakdown, ConfigError, IntegrationBlowup,
                             SingularSystem)
from reference import (AdditiveKernelTrace, expm_taylor, graph_solve,
                       integrate_base_exact, left_endpoint_weights,
                       linear_flow, riccati_subflow, solve_additive_fredholm)


def random_coeffs(rng, n):
    blocks = [rng.standard_normal((n, n)) for _ in range(4)]
    return CanonicalCoefficients(*blocks)


def base_flow(coeffs, q, p, t, steps):
    """(Q, P) at t by linear_flow's RK4 on the constant block."""
    block = np.block([[coeffs.A, coeffs.B], [coeffs.C, coeffs.D]])
    y = linear_flow(lambda s: block, np.vstack((q, p)), 0.0, t / steps,
                    steps)[-1]
    return y[:len(q)], y[len(q):]


# ---------------------------------------------------------------------------
# base integration


def test_coefficients_validate_shapes():
    with pytest.raises(ConfigError):
        CanonicalCoefficients(np.eye(2), np.eye(2), np.eye(2), np.eye(3))


def test_rk4_matches_matrix_exponential_oracle():
    rng = np.random.default_rng(0)
    coeffs = random_coeffs(rng, 3)
    q, p = np.eye(3), 0.1 * rng.standard_normal((3, 3))
    approx = base_flow(coeffs, q, p, 0.5, steps=200)
    exact = integrate_base_exact(coeffs, q, p, 0.5)
    assert np.max(np.abs(approx[0] - exact[0])) < 1e-8
    assert np.max(np.abs(approx[1] - exact[1])) < 1e-8


def test_expm_taylor_matches_scipys_expm():
    # the reference exponential against scipy's Pade one, on blocks of the
    # orders and scales criterion 3 takes and well past them (measured
    # 1.7e-13 of the largest entry), and e^0 = I
    from scipy.linalg import expm

    rng = np.random.default_rng(0)
    for n in (1, 2, 4, 8):
        for scale in (1e-4, 0.1, 1.0, 10.0):
            a = scale * rng.standard_normal((n, n))
            exact = expm(a)
            assert np.max(np.abs(expm_taylor(a) - exact)) \
                <= 1e-12 * np.max(np.abs(exact)), (n, scale)
    assert np.array_equal(expm_taylor(np.zeros((3, 3))), np.eye(3))


def test_scalar_base_flow_closed_form():
    # Qdot = P, Pdot = 0 with Q0 = 1, P0 = 2  =>  Q = 1 + 2t
    coeffs = CanonicalCoefficients(np.zeros((1, 1)), np.eye(1),
                                   np.zeros((1, 1)), np.zeros((1, 1)))
    q, p = base_flow(coeffs, np.eye(1), 2 * np.eye(1), 3.0, 10)
    assert q[0, 0] == pytest.approx(7.0)
    assert p[0, 0] == pytest.approx(2.0)


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
    # the chart breaks down below |det Q| = 1e-10
    g = graph_solve(np.array([[2.0, 0.0], [0.0, 4.0]]),
                    np.array([[1.0, 0.0], [0.0, 1.0]]), 1e-10, ChartBreakdown)
    assert np.allclose(g, np.diag([0.5, 0.25]))
    with pytest.raises(ChartBreakdown):
        graph_solve(np.zeros((2, 2)), np.eye(2), 1e-10, ChartBreakdown)


def test_riccati_project_turns_pivot_floor_into_chart_breakdown():
    # |det Q| = 1e10 passes the chart threshold, the 1e-10 pivot does not
    with pytest.raises(ChartBreakdown) as exc:
        graph_solve(np.diag([1e20, 1e-10]), np.eye(2), 1e-10, ChartBreakdown,
                    location=0.25)
    assert exc.value.location == 0.25
    assert exc.value.det_value == pytest.approx(1e10)
    assert "pivot" in str(exc.value)


@pytest.mark.parametrize("project", [
    lambda: graph_solve(np.array([[2.0, 1.0], [0.5, 3.0]]), np.eye(2), 1e-10,
                        ChartBreakdown),
    lambda: riccati_subflow(np.array([[0.2, 0.1], [0.3, -0.4]]), 0.5),
], ids=["riccati_project", "riccati_subflow"])
def test_riccati_projection_factorises_once(monkeypatch, project):
    # every LU of solve_dense is one getrf: numpy's OpenBLAS's through
    # core's binding, and scipy's where that binding finds no library
    calls = []

    def counted(getrf):
        def call(*args, **kwargs):
            calls.append(1)
            return getrf(*args, **kwargs)
        return call

    def forbidden(*args, **kwargs):
        raise AssertionError("second factorisation")

    monkeypatch.setattr(np.linalg, "det", forbidden)
    monkeypatch.setattr(np.linalg, "solve", forbidden)
    binding = core._openblas_getrf_getrs
    if binding("d") is not None:
        # src/ imports scipy only in core._scipy_lu_solve (test_layout),
        # so this path cannot reach scipy's lu_factor
        monkeypatch.setattr(core, "_openblas_getrf_getrs", lambda kind: (
            counted(binding(kind)[0]), binding(kind)[1]))
        project()
        assert len(calls) == 1
        calls.clear()
    import scipy.linalg

    monkeypatch.setattr(scipy.linalg, "lu_factor", forbidden)
    get_lapack_funcs = scipy.linalg.get_lapack_funcs
    monkeypatch.setattr(core, "_openblas_getrf_getrs", lambda kind: None)
    monkeypatch.setattr(scipy.linalg, "get_lapack_funcs", lambda *a, **k: [
        counted(f) if f.__name__.endswith("getrf") else f
        for f in get_lapack_funcs(*a, **k)])
    project()
    assert len(calls) == 1


def test_riccati_residual_small_on_true_flow():
    rng = np.random.default_rng(1)
    coeffs = random_coeffs(rng, 2)
    q, p = np.eye(2), 0.2 * rng.standard_normal((2, 2))
    dt = 1e-3
    gs = [graph_solve(*integrate_base_exact(coeffs, q, p, k * dt), 1e-10,
                      ChartBreakdown) for k in range(5)]
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
    # outside the window: zero
    assert trace(np.array([1.0])) == pytest.approx([0.0])


# ---------------------------------------------------------------------------
# Fredholm solver


def fredholm_residual(p_trace, qhat, zgrid: Grid1D, x: float, g_row,
                      weights) -> float:
    """Discrete residual of the solved Fredholm equation (should be ~1e-10)
    under the weights ``weights(zgrid)``."""
    nodes, w = zgrid.nodes, weights(zgrid)
    kmat = np.asarray(qhat(nodes[:, None], nodes[None, :]), dtype=complex)
    lhs = np.asarray(p_trace(nodes + x), dtype=complex)
    rhs = g_row + (w[None, :] * kmat.T) @ g_row
    return float(np.max(np.abs(lhs - rhs)))


def test_two_node_fredholm_matches_hand_solve():
    zgrid = Grid1D(-1.0, 0.0, 2, kind="closed")
    kvals = np.array([[0.3, 0.1], [0.2, 0.4]])  # k[i, j] = qhat(xi_i, z_j)

    def qhat(xi, z):
        xi_idx = np.rint((np.asarray(xi) - zgrid.lower)).astype(int)
        z_idx = np.rint((np.asarray(z) - zgrid.lower)).astype(int)
        return kvals[xi_idx, z_idx]

    p = AdditiveKernelTrace(grid=Grid1D(-2.0, 2.0, 5, kind="closed"),
                            values=np.array([1.0, 2.0, 3.0, 4.0, 5.0]))
    g_row, det = solve_additive_fredholm(p, qhat, zgrid, 0.0,
                                         weights=left_endpoint_weights)
    # the left-endpoint weights are (1, 0): unknowns g(-1), g(0) satisfy
    #   p(-1) = g(-1) + g(-1) k(-1,-1),   p(0) = g(0) + g(-1) k(-1, 0)
    h = 1.0
    g_m1 = 2.0 / (1.0 + h * kvals[0, 0])
    g_0 = 3.0 - h * g_m1 * kvals[0, 1]
    assert g_row == pytest.approx([g_m1, g_0])
    assert det == pytest.approx((1.0 + h * kvals[0, 0]))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 31),
       st.sampled_from([left_endpoint_weights, quadrature_weights]))
def test_fredholm_solution_has_tiny_discrete_residual(seed, weights):
    rng = np.random.default_rng(seed)
    zgrid = Grid1D(-1.0, 0.0, 17, kind="closed")
    wide = Grid1D(-3.0, 1.0, 65, kind="closed")
    trace = AdditiveKernelTrace(grid=wide, values=rng.standard_normal(65))

    def qhat(xi, z):
        return 0.5 * trace(xi + z)

    g_row, _ = solve_additive_fredholm(trace, qhat, zgrid, 0.25,
                                       weights=weights)
    assert fredholm_residual(trace, qhat, zgrid, 0.25, g_row,
                             weights) < 1e-10


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
        # with the left-endpoint weights (1, 0) this makes the pivot vanish
        return np.where(np.rint(xi - zgrid.lower) == 0, -1.0, 0.0)

    trace = AdditiveKernelTrace(grid=Grid1D(-2.0, 2.0, 5, kind="closed"),
                                values=np.ones(5))
    with pytest.raises(SingularSystem):
        solve_additive_fredholm(trace, qhat, zgrid, 0.0,
                                weights=left_endpoint_weights)


# ---------------------------------------------------------------------------
# operator compositions and the product rule


def compose(f: np.ndarray, g: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Operator composition by quadrature: (F G)(y,z) = sum f(y,xi) g(xi,z) w."""
    return f @ (weights[:, None] * g)


def delta_kernel(weights: np.ndarray) -> np.ndarray:
    """Kernel whose quadrature composition acts as the identity."""
    if np.any(weights == 0):
        raise ConfigError("delta discretisation needs strictly positive weights")
    return np.diag(1.0 / weights)


def product_rule_check(f_kernel, r_trace: AdditiveKernelTrace,
                       rp_trace: AdditiveKernelTrace, fp_kernel,
                       zgrid: Grid1D, x: float, dx: float) -> float:
    """|<F d/dx (R R') F'> - <F R><R' F'>| at parameter x.

    d/dx is a central difference with step dx; all compositions use the
    trapezoid rule.  Vanishes at second order in (grid spacing, dx).
    """
    nodes, w = zgrid.nodes, quadrature_weights(zgrid)
    for trace in (r_trace, rp_trace):
        assert trace.grid.lower <= x - dx and x + dx <= trace.grid.upper, \
            "x stencil leaves the sampled trace range"

    def rr(at):
        rm = r_trace(nodes[:, None] + nodes[None, :] + at)
        rpm = rp_trace(nodes[:, None] + nodes[None, :] + at)
        return compose(rm, rpm, w)

    d_rr = (rr(x + dx) - rr(x - dx)) / (2.0 * dx)
    lhs_kernel = compose(compose(f_kernel, d_rr, w), fp_kernel, w)
    # observation functional reads the kernel at (0, 0): the grid's last node
    i0 = zgrid.n - 1
    lhs = lhs_kernel[i0, i0]

    fr = compose(f_kernel, r_trace(nodes[:, None] + nodes[None, :] + x), w)
    rpfp = compose(rp_trace(nodes[:, None] + nodes[None, :] + x), fp_kernel, w)
    rhs = fr[i0, i0] * rpfp[i0, i0]
    return float(abs(lhs - rhs))


def test_delta_kernel_is_composition_identity():
    rng = np.random.default_rng(4)
    g = Grid1D(0.0, 1.0, 9, kind="closed")
    w = quadrature_weights(g)
    f = rng.standard_normal((9, 9))
    delta = delta_kernel(w)
    assert np.allclose(compose(f, delta, w), f)
    assert np.allclose(compose(delta, f, w), f)


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
