#!/usr/bin/env python3
"""Run every benchmark job and a default run of each equation, then print
the SHA-256 of every file they leave.

    OPENBLAS_NUM_THREADS=1 python3 scripts/output_digest.py <out-root> \
        [--seed 1]

The package is imported from `src/` of the checkout that holds this
script, and the jobs are read from that checkout's
`perfbench/workloads.py`, so two checkouts run the same list and their
digests diff line for line.  Every run is one in-process CLI call: a job
of workload W writes into `<out-root>/W/<job>`, a default run of an
equation into `<out-root>/default/<equation>`, and the EXTRA_RUNS into
`<out-root>/extra/`.  Each run's exit status, standard output and
standard error go to `<run directory>.console`, which is digested too.
Output lines are `sha256  relative-path`, sorted by path.
"""

import argparse
import contextlib
import hashlib
import importlib.util
import io
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
import grassflow.cli as cli  # noqa: E402

# runs beside the defaults whose tables come from a profile's or a preset's
# own branch of a runner, or from a grid that no default or job uses: less
# than one column block of the quotient solve, an odd length that the
# series products pad, and spde's default sheet and modes, whose default run
# breaks down in its oracle before it writes a table.  smol-const's sampled
# profiles take the general solve, and a burgers shock writes its field
# under exit 1
EXTRA_RUNS = [("extra/elliptic-tanh", ("elliptic", "--profile", "tanh")),
              ("extra/smol-general-constant-kernel",
               ("smol-general", "--preset", "constant-kernel")),
              ("extra/quotient-16", ("quotient", "--grid-n", "16")),
              ("extra/smol-const-257", ("smol-const", "--grid-n", "257")),
              ("extra/spde-no-oracle", ("spde", "--compare-oracle", "off")),
              ("extra/smol-const-gaussian",
               ("smol-const", "--profile", "gaussian")),
              ("extra/burgers-shock",
               ("burgers", "--profile", "sin", "--t-final", "1.5"))]


def all_runs(seed: int) -> list:
    """(directory, argv) of every job of both workloads, a default run of
    each equation and the extra runs."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return [(f"{name}/{job.name}", job.argv)
            for name in workloads.WORKLOADS
            for job in workloads.jobs(name, seed)] \
        + [(f"default/{equation}", (equation,))
           for equation in cli.EQUATIONS] + EXTRA_RUNS


def run_all(out_root: pathlib.Path, runs):
    """Each run of ``runs`` into its directory under ``out_root``, its exit
    status and console output into the directory's .console file."""
    for directory, argv in runs:
        out = out_root / directory
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            code = cli.main([*argv, "--out", str(out)])
        out.parent.mkdir(parents=True, exist_ok=True)
        out.with_name(out.name + ".console").write_text(
            f"exit {code}\n--- stdout\n{stdout.getvalue()}"
            f"--- stderr\n{stderr.getvalue()}")


def digests(out_root: pathlib.Path) -> list:
    """``sha256  relative-path`` of every file under ``out_root``."""
    return [f"{hashlib.sha256(path.read_bytes()).hexdigest()}  "
            f"{path.relative_to(out_root).as_posix()}"
            for path in sorted(out_root.rglob("*")) if path.is_file()]


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out_root", type=pathlib.Path,
                        help="a new or empty directory")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    if args.out_root.exists() and any(args.out_root.iterdir()):
        parser.error(f"{args.out_root} is not empty")
    run_all(args.out_root, all_runs(args.seed))
    print("\n".join(digests(args.out_root)))
