#!/usr/bin/env python3
"""Run every reference preset through the CLI into out/<equation>/.

Produces the projected field, the direct-integrator field, their absolute
difference, and the determinant track for each equation that has a paper
preset, plus a metadata sidecar per run.  The seed reaches each equation
that reads one (spde).
"""

import argparse
import pathlib
import sys

from grassflow.cli import EQUATIONS
from grassflow.cli import main as cli_main

PRESET_EQUATIONS = tuple(name for name, equation in EQUATIONS.items()
                         if "paper" in equation.presets)


def run(out_root: pathlib.Path, seed: int) -> int:
    worst = 0
    for eq in PRESET_EQUATIONS:
        out = out_root / eq
        out.mkdir(parents=True, exist_ok=True)
        print(f"== {eq} (preset paper) -> {out}")
        reads_seed = "seed" in EQUATIONS[eq].reads
        seed_flag = ["--seed", str(seed)] if reads_seed else []
        rc = cli_main([eq, "--preset", "paper", *seed_flag,
                       "--out", str(out)])
        print(f"   exit status {rc}")
        worst = max(worst, rc)
    return worst


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="out", help="output root directory")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    sys.exit(run(pathlib.Path(args.out), args.seed))
