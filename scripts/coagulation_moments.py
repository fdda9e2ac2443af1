#!/usr/bin/env python3
"""Constant-kernel coagulation: closed form, oracle, and moment tracks.

Solves g0 = e^{-x} at t (default 2) through the Laplace-space base flow (analytic
inversion), compares against the direct integro-differential oracle, and
prints the zeroth-moment track against its closed form along with the
conserved first moment.
"""

import argparse

import numpy as np

from grassflow.core import Grid1D, uniform_steps
from grassflow.smoluchowski import (CONSTANT_KERNEL, constant_kernel_solve,
                                    direct_smol_oracle, m0_closed_form,
                                    m0_rates, moments)


def study(upper: float, n: int, t: float, dt: float):
    grid = Grid1D(0.0, upper, n, kind="closed")
    proj = constant_kernel_solve(grid, 1.0, 1.0, t)
    # g = e^{-x / s} / s^2 with s = 1 + t/2 solves the equation from e^{-x}
    s = 1.0 + 0.5 * t
    closed = np.exp(-grid.nodes / s) / s ** 2
    print(f"sup|projected - closed form| = "
          f"{np.max(np.abs(proj - closed)):.3e}")
    steps, step = uniform_steps(t, dt)
    kept = direct_smol_oracle(np.exp(-grid.nodes), grid, t, dt,
                              checkpoints=range(steps + 1))
    times = step * np.arange(steps + 1)
    m0s, m1s = np.array([moments(g, grid) for g in kept.values()]).T
    print(f"sup|projected - direct oracle| = "
          f"{np.max(np.abs(proj - kept[steps])):.3e}")
    # m0' = -m0^2 / 2 for the constant kernel
    rates = m0_rates(CONSTANT_KERNEL, grid)
    expected = np.array([m0_closed_form(*rates, m0s[0], s) for s in times])
    print(f"max relative m0 error vs closed form = "
          f"{np.max(np.abs(m0s - expected) / expected):.3e}")
    print(f"max relative m1 drift = "
          f"{np.max(np.abs(m1s - m1s[0]) / abs(m1s[0])):.3e}")
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        i = int(round(frac * (len(times) - 1)))
        print(f"  t={times[i]:<6g} m0={m0s[i]:.6f} "
              f"(closed {expected[i]:.6f})  m1={m1s[i]:.6f}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--upper", type=float, default=40.0)
    parser.add_argument("--nodes", type=int, default=1024)
    parser.add_argument("--t-final", type=float, default=2.0)
    parser.add_argument("--dt", type=float, default=1e-3)
    args = parser.parse_args()
    study(args.upper, args.nodes, args.t_final, args.dt)
