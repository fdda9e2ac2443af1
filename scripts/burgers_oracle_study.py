#!/usr/bin/env python3
"""Where the spectral Burgers oracle stays valid as the shock approaches.

For sine data, whose characteristics first cross at t = 1, runs
``graphflows.spectral_oracle`` at each node count on its own step count
and at four times as many steps, and prints both sup-norm gaps to the
characteristic solve at evenly spaced points of one period.  Where the
gap falls with the node count the oracle resolves the field; where it
stays put the steepening profile has outrun the kept modes.
"""

import argparse

import numpy as np

from grassflow.graphflows import (InitialProfile, inviscid_burgers_eval,
                                  spectral_oracle, spectral_steps)


def study(times, node_counts, points: int):
    profile = InitialProfile(np.sin, np.cos)
    x = np.linspace(-np.pi, np.pi, points, endpoint=False)
    for t in times:
        exact = inviscid_burgers_eval(x, t, profile).values
        for nodes in node_counts:
            # the oracle's own count: max|sin| on its nodes is 1
            steps = spectral_steps(t, 1.0, 2 * np.pi, nodes)
            gaps = [np.nanmax(np.abs(spectral_oracle(
                profile, 2 * np.pi, t, x, nodes, s) - exact))
                for s in (steps, 4 * steps)]
            print(f"t={t:<5g} nodes={nodes:<5d} steps={steps:<6d} "
                  f"gap = {gaps[0]:.3e}  gap at 4x steps = {gaps[1]:.3e}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--points", type=int, default=4096)
    args = parser.parse_args()
    study((0.5, 0.9, 0.99), (128, 256, 512, 1024, 2048), args.points)
