#!/usr/bin/env python3
"""Reproducer of the stall in a process's first complex matrix products.

Starts fresh interpreters one after another.  Each times 300 composition
products of 128 x 128 complex mode matrices, the product the stochastic
flow's direct scheme takes at every step, and prints the total seconds of
its first and last 100.  A process whose first 100 take many times its
last 100 has stalled.  The BLAS thread count is whatever the environment
sets; run it once as is and once with OPENBLAS_NUM_THREADS=1 to compare.

    PYTHONPATH=src python scripts/blas_first_calls.py --processes 6
"""

import argparse
import os
import subprocess
import sys
import time

import numpy as np

from grassflow.spde import composition_product

PRODUCTS = 300
MODES = 128


def time_products(products: int = PRODUCTS, n: int = MODES) -> list:
    """Seconds of each of ``products`` composition products of n x n
    complex matrices, in order."""
    rng = np.random.default_rng(0)
    f = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    seconds = []
    for _ in range(products):
        start = time.perf_counter()
        composition_product(f, g)
        seconds.append(time.perf_counter() - start)
    return seconds


def study(processes: int):
    threads = os.environ.get("OPENBLAS_NUM_THREADS", "unset")
    print(f"OPENBLAS_NUM_THREADS={threads}, {processes} processes, "
          f"{PRODUCTS} products of {MODES} x {MODES} complex matrices each")
    for i in range(processes):
        # a fresh interpreter each, so every process makes its first calls
        out = subprocess.run([sys.executable, __file__, "--one"], check=True,
                             capture_output=True, text=True).stdout
        first, last = (float(v) for v in out.split())
        print(f"process {i}: first 100 {first:.3f} s, last 100 {last:.3f} s")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--processes", type=int, default=6)
    parser.add_argument("--one", action="store_true",
                        help="time one process's products and print its "
                             "first and last totals")
    args = parser.parse_args()
    if args.one:
        seconds = time_products()
        print(sum(seconds[:100]), sum(seconds[-100:]))
    else:
        study(args.processes)
