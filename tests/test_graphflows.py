"""Characteristic inversion, graph flows, Riccati subflow, chart swap."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from grassflow import graphflows
from grassflow.core import central_in_t
from grassflow.errors import BlowupAtTime
from grassflow.graphflows import (FD_STEP, JACOBIAN_FLOOR, NEWTON_MAX_ITER,
                                  NEWTON_TOL, GraphField, InitialProfile,
                                  _bisect_scalar,
                                  _modified_profile, _solve_characteristic,
                                  fundamental_matrix, generalized_flow_eval,
                                  inviscid_burgers_eval, upwind_oracle)
from reference import ddx, riccati_rk4, riccati_subflow, upwind_roll


# ---------------------------------------------------------------------------
# characteristic inversion


def label(x, t, profile, modifier=None):
    """The label a of a + t pi-tilde(a) = x, and the solve's flagged list."""
    a, _, flagged = _solve_characteristic(np.full(1, x, dtype=float), 1.0, t,
                                          _modified_profile(profile, modifier))
    return float(a[0]), flagged


def test_linear_profile_inverts_in_closed_form():
    # pi0(a) = c a  =>  a = x / (1 + c t)
    prof = InitialProfile(evaluator=lambda a: 0.5 * a)
    a, flagged = label(2.0, 1.0, prof)
    assert a == pytest.approx(2.0 / 1.5, abs=1e-12) and flagged == []


def test_constant_profile_inverts_exactly():
    prof = InitialProfile(evaluator=lambda a: np.full_like(np.atleast_1d(a), 3.0))
    a, flagged = label(1.0, 2.0, prof)
    assert a == pytest.approx(1.0 - 6.0, abs=1e-12) and flagged == []


def test_newton_and_bisection_agree():
    prof = InitialProfile(evaluator=lambda a: np.tanh(np.atleast_1d(a)))
    x, t = 0.7, 0.5
    a_newton, flagged = label(x, t, prof)
    assert flagged == []

    # force the bisection path by resolving the same scalar root directly
    def residual(a):
        return a + t * np.tanh(a) - x

    a_bisect = _bisect_scalar(residual, x, t)
    assert abs(a_newton - a_bisect) < 1e-10


def test_shock_flags_steepening_profile():
    prof = InitialProfile(evaluator=lambda a: -np.tanh(np.atleast_1d(a)))
    # shock time is 1 for pi0 = -tanh; at t = 1 the origin is singular
    _, flagged = label(0.0, 1.0, prof)
    assert [f[:2] for f in flagged] == [(0, 0.0)]
    assert flagged[0][2] <= JACOBIAN_FLOOR


def shock_time(profile, sample_points):
    """1 / max(-pi0') over the sampled labels; inf for non-compressive data."""
    worst = np.max(-profile.grad(np.asarray(sample_points, dtype=float)),
                   initial=0.0)
    return np.inf if worst <= 0 else 1.0 / float(worst)


def test_shock_time_formula():
    prof = InitialProfile(evaluator=lambda a: -np.tanh(np.atleast_1d(a)),
                          jacobian=lambda a: -1.0 / np.cosh(np.atleast_1d(a)) ** 2)
    pts = np.linspace(-3, 3, 101)
    assert shock_time(prof, pts) == pytest.approx(1.0)
    rare = InitialProfile(evaluator=lambda a: np.atleast_1d(a))
    assert shock_time(rare, pts) == np.inf


@settings(max_examples=20, deadline=None)
@given(st.floats(-2.0, 2.0), st.floats(0.0, 0.8))
def test_solution_constant_along_characteristics(a0, t):
    # pi(q(a, t), t) = pi0(a) for the cubic-like profile
    prof = InitialProfile(evaluator=lambda a: 0.3 * np.atleast_1d(a) ** 3
                          / (1.0 + np.atleast_1d(a) ** 2))
    q = a0 + t * float(prof(np.atleast_1d(a0))[0])
    field = inviscid_burgers_eval(np.array([q]), t, prof)
    assert field.values[0] == pytest.approx(float(prof(np.atleast_1d(a0))[0]),
                                            abs=1e-10)


# ---------------------------------------------------------------------------
# inviscid Burgers field


def test_linear_profile_field_closed_form():
    prof = InitialProfile(evaluator=lambda a: np.atleast_1d(a))
    x = np.linspace(-2, 2, 21)
    field = inviscid_burgers_eval(x, 0.5, prof)
    assert np.max(np.abs(field.values - x / 1.5)) < 1e-10
    assert field.flagged == []


def test_upwind_oracle_matches_characteristics():
    n = 512
    x = np.linspace(-np.pi, np.pi, n, endpoint=False)
    h = x[1] - x[0]
    prof = InitialProfile(evaluator=lambda a: 0.5 * np.sin(np.atleast_1d(a)))
    t = 0.8
    direct = upwind_oracle(0.5 * np.sin(x), h, t)
    exact = inviscid_burgers_eval(x, t, prof).values
    assert np.max(np.abs(direct - exact)) < 1e-2


def test_upwind_oracle_equals_its_roll_loop_bitwise():
    # the burgers benchmark job's oracle input: sine on 16384 nodes of
    # [-pi, pi), to t = 0.5
    h = 2 * np.pi / 16384
    xs = -np.pi + h * np.arange(16384)
    cases = [(np.sin(xs), h, 0.5)]
    # test_upwind_oracle_matches_characteristics's data
    x = np.linspace(-np.pi, np.pi, 512, endpoint=False)
    cases.append((0.5 * np.sin(x), x[1] - x[0], 0.8))
    for pi0, h, t in cases:
        assert np.array_equal(upwind_oracle(pi0, h, t), upwind_roll(pi0, h, t))


def test_shock_flagging_window():
    prof = InitialProfile(evaluator=lambda a: -np.tanh(np.atleast_1d(a)))
    x = np.linspace(-1, 1, 41)
    before = inviscid_burgers_eval(x, 0.9, prof)
    at = inviscid_burgers_eval(x, 1.0, prof)
    assert before.flagged == []
    assert len(at.flagged) > 0
    flagged_idx = [i for i, _, _ in at.flagged]
    assert all(np.isnan(at.values[i]) for i in flagged_idx)


def inviscid_residual(profile, x_nodes, t, dt):
    """(pi at t, central-difference defect of pi_t + pi pi_x = 0 on interior
    nodes)."""
    x = np.asarray(x_nodes, dtype=float)
    pi, pt = central_in_t(
        lambda s: inviscid_burgers_eval(x, s, profile).values, t, dt)
    res = pt + pi * ddx(pi, x[1] - x[0])
    return pi, float(np.max(np.abs(res[1:-1])))


def test_inviscid_residual_second_order_in_stencil():
    prof = InitialProfile(evaluator=lambda a: 0.2 * np.sin(np.atleast_1d(a)))
    x = np.linspace(-np.pi, np.pi, 129)
    _, coarse = inviscid_residual(prof, x, 0.5, 4e-2)
    _, fine = inviscid_residual(prof, x, 0.5, 2e-2)
    # central time stencil: O(dt^2) once the spatial term is resolved
    assert fine < coarse


def test_cubic_modifier_matches_scalar_formula():
    # modified flow pi(x, t) = pi0(a), a + t f(pi0^2) pi0(a) = x
    prof = InitialProfile(evaluator=lambda a: 0.4 * np.atleast_1d(a))
    modifier = lambda s: 1.0 + s  # f(|p|^2) = 1 + |p|^2
    x0, t = 0.9, 0.7
    field_a, flagged = label(x0, t, prof, modifier=modifier)
    assert flagged == []
    p = 0.4 * field_a
    assert field_a + t * (1.0 + p ** 2) * p == pytest.approx(x0, abs=1e-10)


def _per_node_newton(x_nodes, t, profile, modifier=None):
    """The per-node scalar Newton the vectorised solve replaced, kept as the
    reference: one node at a time, a 1x1 np.linalg.det / solve per step.
    Returns (values, flagged) as GraphField carries them."""

    def pi(a):
        p = profile(a)
        return p if modifier is None else modifier(float(np.dot(p, p))) * p

    def dpi(a):
        if modifier is None and profile.jacobian is not None:
            return np.atleast_2d(profile.jacobian(a))
        step = FD_STEP * max(1.0, abs(a[0]))
        return np.atleast_2d((pi(a + step) - pi(a - step)) / (2 * step))

    values = np.full(len(x_nodes), np.nan)
    flagged = []
    for i, x in enumerate(x_nodes):
        a = np.array([x])
        for _ in range(NEWTON_MAX_ITER):
            f = a + t * pi(a) - x
            jac = np.eye(1) + t * dpi(a)
            det = float(np.linalg.det(jac))
            if det <= JACOBIAN_FLOOR:
                flagged.append((i, float(x), det))
                break
            if np.max(np.abs(f)) <= NEWTON_TOL:
                values[i] = profile(a)[0]
                break
            a = a - np.linalg.solve(jac, f)
        else:
            a = _bisect_scalar(lambda s: s + t * pi(s) - x, x, t)
            values[i] = profile(np.array([a]))[0]
    return values, flagged


def _cubic(a):
    return 0.3 * a ** 3 / (1.0 + a ** 2)


NEG_TANH = InitialProfile(lambda a: -np.tanh(a),
                          lambda a: -1.0 / np.cosh(a) ** 2)
PROBE = np.linspace(-0.5, 0.5, 21)


@pytest.mark.parametrize("x, t, profile, modifier", [
    (np.linspace(-np.pi, np.pi, 4096), 0.5, InitialProfile(np.sin, np.cos),
     None),
    (np.linspace(-2.0, 2.0, 257), 0.8, InitialProfile(_cubic), None),
    (np.linspace(-2.0, 2.0, 257), 0.7, InitialProfile(lambda a: 0.4 * a),
     lambda s: 1.0 + s),
    (PROBE, 0.9, NEG_TANH, None),
    (PROBE, 1.0, NEG_TANH, None),
    (PROBE, 1.1, NEG_TANH, None),
], ids=["sin-4096", "cubic-fd", "modifier", "neg-tanh-0.9", "neg-tanh-1.0",
        "neg-tanh-1.1"])
def test_vectorised_solve_matches_per_node_newton(x, t, profile, modifier):
    field = inviscid_burgers_eval(x, t, profile, modifier=modifier)
    values, flagged = _per_node_newton(x, t, profile, modifier=modifier)
    assert np.array_equal(field.values, values, equal_nan=True)
    assert [f[:2] for f in field.flagged] == [f[:2] for f in flagged]
    # the solve reports the 1x1 Jacobian itself; numpy's det returns it as
    # sign * exp(log|J|), a few ulp per unit of |log|J|| away
    assert np.allclose([f[2] for f in field.flagged],
                       [f[2] for f in flagged], rtol=1e-13, atol=0.0)


def test_bisection_fallback_matches_newton(monkeypatch):
    prof = InitialProfile(lambda a: 0.5 * np.sin(a))
    x = np.linspace(-np.pi, np.pi, 65)
    newton = inviscid_burgers_eval(x, 0.8, prof).values
    # after one Newton step every node not started on its root is bisected
    monkeypatch.setattr(graphflows, "NEWTON_MAX_ITER", 1)
    bisected = inviscid_burgers_eval(x, 0.8, prof).values
    assert np.max(np.abs(bisected - newton)) < 1e-10


def test_bisection_grows_its_bracket(monkeypatch):
    # a + 0.5 * 5 = 0 has its root at -2.5, outside the first bracket
    # [-1, 1], so the bracket doubles twice before the bisection starts
    monkeypatch.setattr(graphflows, "NEWTON_MAX_ITER", 0)
    prof = InitialProfile(lambda a: np.full_like(a, 5.0))
    a, flagged = label(0.0, 0.5, prof)
    assert a == -2.5 and flagged == []


def test_evaluator_calls_do_not_grow_with_nodes():
    counts = []
    for n in (64, 4096):
        calls = []

        def sin(a):
            calls.append(a.size)
            return np.sin(a)

        inviscid_burgers_eval(np.linspace(-np.pi, np.pi, n), 0.5,
                              InitialProfile(sin, np.cos))
        counts.append(len(calls))
    assert counts[0] == counts[1]


# ---------------------------------------------------------------------------
# generalised flows


def test_fundamental_matrix_of_constant_system():
    # A=0, B=1, C=0, D=0: Phi = [[1, t], [0, 1]]
    phi = fundamental_matrix((None, np.array([[1.0]]), None, None), 2.0, 1)
    assert np.allclose(phi, [[1.0, 2.0], [0.0, 1.0]], atol=1e-12)


def test_generalized_flow_reduces_to_inviscid_burgers():
    prof = InitialProfile(evaluator=lambda a: 0.3 * np.sin(np.atleast_1d(a)))
    x = np.linspace(-2, 2, 33)
    plain = inviscid_burgers_eval(x, 0.6, prof)
    coeffs = (None, np.array([[1.0]]), None, None)
    gen = generalized_flow_eval(x, 0.6, prof, coeffs=coeffs)
    assert np.max(np.abs(plain.values - gen.values)) < 1e-9


@pytest.mark.parametrize("t", [0.9, 1.0, 1.1])
def test_generalized_flow_applies_inviscid_shock_rule(t):
    # A = C = D = 0, B = 1 is inviscid Burgers, shocks included
    plain = inviscid_burgers_eval(PROBE, t, NEG_TANH)
    gen = generalized_flow_eval(PROBE, t, NEG_TANH,
                                coeffs=(None, np.array([[1.0]]), None, None))
    assert [i for i, _, _ in gen.flagged] == [i for i, _, _ in plain.flagged]
    assert np.array_equal(np.isnan(gen.values), np.isnan(plain.values))
    ok = ~np.isnan(plain.values)
    assert np.max(np.abs(gen.values[ok] - plain.values[ok])) < 1e-9


def test_generalized_flow_with_decay_matches_closed_form():
    # q' = p, p' = -p: p(t) = e^{-t} pi0, q(t) = a + (1 - e^{-t}) pi0
    prof = InitialProfile(evaluator=lambda a: 0.5 * np.atleast_1d(a))
    coeffs = (None, np.array([[1.0]]), None, np.array([[-1.0]]))
    t = 1.2
    x = np.linspace(-1, 1, 11)
    field = generalized_flow_eval(x, t, prof, coeffs=coeffs)
    tau = 1.0 - np.exp(-t)
    a = x / (1.0 + 0.5 * tau)
    expected = np.exp(-t) * 0.5 * a
    assert np.max(np.abs(field.values - expected)) < 1e-8


def generalized_residual(profile, coeffs, x_nodes, t, dt):
    """(pi at t, defect of pi_t + pi_x (A x + B pi) - (C x + D pi) on
    interior nodes)."""
    x = np.asarray(x_nodes, dtype=float)
    pi, pt = central_in_t(
        lambda s: generalized_flow_eval(x, s, profile, coeffs=coeffs).values,
        t, dt)
    A, B, C, D = (0.0 if c is None else float(np.ravel(c)[0])
                  for c in coeffs)
    res = pt + ddx(pi, x[1] - x[0]) * (A * x + B * pi) - (C * x + D * pi)
    return pi, float(np.max(np.abs(res[1:-1])))


def test_generalized_residual_decreases_with_stencil():
    prof = InitialProfile(evaluator=lambda a: 0.2 * np.sin(np.atleast_1d(a)))
    coeffs = (None, np.array([[1.0]]), None, np.array([[-0.5]]))
    x = np.linspace(-np.pi, np.pi, 65)
    _, coarse = generalized_residual(prof, coeffs, x, 0.4, 4e-2)
    _, fine = generalized_residual(prof, coeffs, x, 0.4, 2e-2)
    assert fine < coarse


# ---------------------------------------------------------------------------
# Riccati subflow and chart swap


def test_riccati_subflow_scalar_closed_form():
    out = riccati_subflow(np.array([[2.0]]), 0.5)
    assert out[0, 0] == pytest.approx(1.0)


def test_riccati_subflow_matches_ode_oracle():
    rng = np.random.default_rng(11)
    pi0 = 0.4 * rng.standard_normal((3, 3))
    t = 0.7
    pi = riccati_rk4(pi0, t, 2000)
    assert np.max(np.abs(riccati_subflow(pi0, t) - pi)) < 1e-6


def test_riccati_subflow_nilpotent_hand_inverse():
    pi0 = np.array([[0.0, 1.0], [0.0, 0.0]])
    # (I + t pi0)^{-1} = I - t pi0, so pi = pi0 (nilpotent kills the square)
    assert np.allclose(riccati_subflow(pi0, 3.0), pi0)


def test_riccati_subflow_blowup():
    with pytest.raises(BlowupAtTime):
        riccati_subflow(np.array([[-1.0]]), 1.0)


def test_chart_swap_composition_identity():
    # for pi0 = id: pi(x, t) = x / (1 + t) and the swapped chart carries
    # pi'_0 = id, so pi'_t(y) = y + t y = (1 + t) y is its inverse graph
    t = 0.8
    y = np.linspace(-2, 2, 17)
    swapped = y + t * y
    prof = InitialProfile(evaluator=lambda a: np.atleast_1d(a))
    direct = inviscid_burgers_eval(swapped, t, prof).values
    assert np.max(np.abs(direct - y)) < 1e-8


# ---------------------------------------------------------------------------
# decaying bridge


def decaying_burgers_eval(s_nodes, t, profile):
    """Solve pi_t + pi pi_s = -pi through the exact integrating factor.

    Substituting pi = e^{-t} sigma and tau = 1 - e^{-t} reduces the decaying
    flow to plain inviscid Burgers in the rescaled time tau.
    """
    tau = 1.0 - np.exp(-t)
    base = inviscid_burgers_eval(s_nodes, tau, profile)
    return GraphField(values=np.exp(-t) * base.values, flagged=base.flagged)


def test_decaying_burgers_matches_integrating_factor():
    prof = InitialProfile(evaluator=lambda a: 0.3 * np.sin(np.atleast_1d(a)))
    s = np.linspace(-2, 2, 25)
    t = 1.5
    field = decaying_burgers_eval(s, t, prof)
    tau = 1.0 - np.exp(-t)
    base = inviscid_burgers_eval(s, tau, prof)
    assert np.allclose(field.values, np.exp(-t) * base.values)
    # finite-difference check of pi_t + pi pi_s = -pi
    dt, h = 1e-4, s[1] - s[0]
    f0 = decaying_burgers_eval(s, t - dt, prof).values
    f2 = decaying_burgers_eval(s, t + dt, prof).values
    pt = (f2 - f0) / (2 * dt)
    ps = (np.roll(field.values, -1) - np.roll(field.values, 1)) / (2 * h)
    res = pt + field.values * ps + field.values
    assert np.max(np.abs(res[1:-1])) < 1e-3
