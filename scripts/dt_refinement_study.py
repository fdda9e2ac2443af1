#!/usr/bin/env python3
"""Cross-validation gap vs split-step time step for KdV and NLS.

The projected (dense-solve) field is exact in time, so the sup-norm gap to
the split-step oracle should decrease as the oracle's dt is halved at fixed
spectral resolution.  Prints one line per (equation, dt).
"""

import argparse

import numpy as np

from grassflow.core import Grid1D
from grassflow.integrable import (kdv_fredholm_solve, nls_fredholm_solve,
                                  split_step_kdv, split_step_nls)


def study(equation: str, dts, fracs=(0.2, 0.5, 1.0)):
    if equation == "kdv":
        grid = Grid1D(-5.0, 5.0, 256, kind="periodic")
        p0 = -0.5 * np.cosh(grid.nodes / 20.0)
        t_final, solve, stepper = 15.0, kdv_fredholm_solve, split_step_kdv
        real = True
    else:
        grid = Grid1D(-20.0, 20.0, 256, kind="periodic")
        p0 = 0.5 * np.cosh(grid.nodes / 40.0)
        t_final, solve, stepper = 100.0, nls_fredholm_solve, split_step_nls
        real = False

    def values(res):
        return np.real(res.values) if real else res.values

    proj = {f: values(solve(p0, grid, f * t_final)) for f in fracs}
    u0 = values(solve(p0, grid, 0.0))
    for dt in dts:
        steps = int(round(t_final / dt))
        cps = [int(round(f * t_final / dt)) for f in fracs]
        direct = stepper(u0, grid, dt, steps, checkpoints=cps)
        sup = max(float(np.max(np.abs(proj[f] - direct[c])))
                  for f, c in zip(fracs, cps))
        print(f"{equation}  dt={dt:<8g}  sup|projected - direct| = {sup:.8f}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--equation", choices=("kdv", "nls", "both"),
                        default="both")
    args = parser.parse_args()
    if args.equation in ("kdv", "both"):
        study("kdv", (1e-4, 5e-5))
    if args.equation in ("nls", "both"):
        study("nls", (1e-2, 5e-3))
