#!/usr/bin/env python3
"""Reproducer of the stall in a process's first complex matrix products,
bare and under the package's one-BLAS-thread policy.

Starts fresh interpreters one after another, two per round: one times
300 composition products of 128 x 128 complex mode matrices, the product
the stochastic flow's direct scheme takes at every step, on the BLAS
threads the environment gives; the other times the same products inside
``grassflow.core.one_blas_thread()``.  Each prints the total seconds of
its first and last 100.  A process whose first 100 take STALL_RATIO times
its last 100 or more has stalled; the stalls of either kind are counted.

    PYTHONPATH=src python scripts/blas_first_calls.py --processes 8
"""

import argparse
import contextlib
import subprocess
import sys
import time

import numpy as np

from grassflow.core import one_blas_thread
from grassflow.spde import composition_product

PRODUCTS = 300
MODES = 128
STALL_RATIO = 5.0
KINDS = {"bare": contextlib.nullcontext, "one thread": one_blas_thread}


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
    print(f"{processes} processes of each kind, {PRODUCTS} products of "
          f"{MODES} x {MODES} complex matrices each")
    stalls = dict.fromkeys(KINDS, 0)
    for i in range(processes):
        for kind in KINDS:
            # a fresh interpreter each, so every process makes its first
            # calls
            out = subprocess.run([sys.executable, __file__, "--one", kind],
                                 check=True, capture_output=True,
                                 text=True).stdout
            first, last = (float(v) for v in out.split())
            stalls[kind] += first >= STALL_RATIO * last
            print(f"process {i}, {kind}: first 100 {first:.3f} s, "
                  f"last 100 {last:.3f} s")
    for kind, count in stalls.items():
        print(f"{kind}: {count} of {processes} processes stalled")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--processes", type=int, default=6)
    parser.add_argument("--one", choices=KINDS,
                        help="time one process's products of this kind and "
                             "print its first and last totals")
    args = parser.parse_args()
    if args.one:
        with KINDS[args.one]():
            seconds = time_products()
        print(sum(seconds[:100]), sum(seconds[-100:]))
    else:
        study(args.processes)
