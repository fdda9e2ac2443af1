#!/usr/bin/env python3
"""Benchmark of the grassflow pipelines through the public CLI.

    python3 perfbench/run.py --workload paper-presets --seed 1 \
        --seconds 5 --trace 0

Run from anywhere; the package is imported from `src/` of the checkout that
holds this directory.  Each job is one `grassflow.cli.main(argv)` call in
this process, counted as one operation.  Jobs run closed-loop and in order.
A pass runs every job of the workload once; an untraced round is
`workloads.PASSES` passes, and rounds repeat until `--seconds` have passed
(at least one round).  Outputs are checked after each round, outside the
timed region (see checks.py).

`--trace 0` reports the end-to-end metrics: median round wall time and
process CPU time, peak resident memory and set-up time.  `--trace 1`
alternates traced and untraced rounds of one pass each and reports the
per-layer metrics of tracing.py, the per-family wall times of the untraced
rounds, and the tracing overhead.  The last line of standard output is one
JSON object; the lines before it are for people.  Outputs, the host record
and the span file go to `.perfbench_out/` at the checkout root.

No BLAS thread variable is set and `--threads` is left at its default, so
the numbers include the thread-pool contention of the default setting.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
# fresh imports timed for setup_s; single imports vary by about 25 % back
# to back, medians of 5 by under 10 %
IMPORT_SAMPLES = 5
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")

sys.path.insert(0, str(HERE))
import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def fresh_import_seconds():
    """Wall time of a new interpreter that imports grassflow.cli and exits."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import grassflow.cli"], env=env,
                   cwd=ROOT, check=True)
    return time.perf_counter() - start


def host_record():
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "blas_thread_vars": {v: os.environ.get(v) for v in THREAD_VARS},
        "cli_threads": "default",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


def run_job(cli, job, out_dir, tracer=None):
    """One CLI invocation; returns (exit code, wall s, cpu s)."""
    argv = list(job.argv) + ["--out", str(out_dir)]
    w0, c0 = time.perf_counter(), time.process_time()
    try:
        if tracer is None:
            code = cli.main(argv)
        else:
            code = tracer.call("job", cli.main, (argv,))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # a crash is a failed operation, not a stop
        print(f"job {job.name} raised {type(exc).__name__}: {exc}",
              file=sys.stderr)
        code = -1
    return code, time.perf_counter() - w0, time.process_time() - c0


def round_plan(jobs, base, passes):
    """(output directory, job) for every job of every pass of a round."""
    return [(base / f"pass-{p + 1}" / job.name, job)
            for p in range(passes) for job in jobs]


def run_round(cli, plan, tracer=None):
    """Every job of the plan once; returns per-job results and totals."""
    for out, _ in plan:
        shutil.rmtree(out, ignore_errors=True)
    results = []
    w0, c0 = time.perf_counter(), time.process_time()
    for out, job in plan:
        results.append((out, job) + run_job(cli, job, out, tracer))
    wall, cpu = time.perf_counter() - w0, time.process_time() - c0
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return results, wall, cpu, rss_mb


def check_round(results, cache):
    """Failure messages by output directory, for jobs that failed."""
    failed = {}
    for out, job, code, _, _ in results:
        context = {"cache": cache, "neighbours": tuple(
            str(out.parent / name) for name in job.neighbours) or None}
        msgs = checks.check_job(str(out), job.equation, code, context)
        if msgs:
            failed[out] = msgs
    return failed


def result_line(attempted, failed, metrics):
    """The run's JSON result.  A job that exits non-zero, raises or fails a
    check counts as failed, and any failed job makes the run incorrect."""
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def family_seconds(results):
    totals = {}
    for _, job, _, wall, _ in results:
        totals[job.family] = totals.get(job.family, 0.0) + wall
    return totals


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "grassflow" / "__init__.py").is_file():
        print(f"perfbench: no grassflow package under {SRC}", file=sys.stderr)
        return 2

    sys.path.insert(0, str(SRC))
    import grassflow.cli as cli
    if Path(cli.__file__).resolve().parent != SRC / "grassflow":
        print(f"perfbench: imported {cli.__file__}, not the checkout's",
              file=sys.stderr)
        return 2
    # set-up: a fresh interpreter's import, then this run's inputs; only
    # the untraced run reports it.  The import above, untimed, has filled
    # the file cache and compiled the checkout's bytecode.
    import_s = [fresh_import_seconds()
                for _ in range(0 if args.trace else IMPORT_SAMPLES)]
    prep0 = time.perf_counter()
    base = OUT / args.workload
    shutil.rmtree(base, ignore_errors=True)
    base.mkdir(parents=True)
    jobs = workloads.jobs(args.workload, args.seed)
    prep_s = time.perf_counter() - prep0

    host = host_record()
    (OUT / "host.json").write_text(json.dumps(host, indent=1) + "\n")

    cache = {}  # the independent KdV integration, shared by every round

    tracer = tracing.Tracer() if args.trace else None
    plain, traced = [], []   # (wall, cpu, rss, families) per round
    layers = []              # per-layer metrics of each traced round
    attempted = failed = 0
    failures = {}
    start = time.perf_counter()
    while True:
        # a traced run alternates a traced round, for the per-layer
        # metrics, with an untraced one, for the per-family times; both are
        # one pass
        kinds = (True, False) if args.trace else (False,)
        passes = 1 if args.trace else workloads.PASSES[args.workload]
        for with_trace in kinds:
            if with_trace:
                tracer.reset()
                tracer.install()
            try:
                results, wall, cpu, rss = run_round(
                    cli, round_plan(jobs, base, passes),
                    tracer if with_trace else None)
            finally:
                if with_trace:
                    tracer.uninstall()
            (traced if with_trace else plain).append(
                (wall, cpu, rss, family_seconds(results)))
            if with_trace:
                layers.append(tracing.layer_metrics(tracer))
            bad = check_round(results, cache)
            attempted += len(results)
            failed += len(bad)
            failures.update(bad)
        if time.perf_counter() - start >= args.seconds:
            break

    def med(rows, i):
        return statistics.median(r[i] for r in rows)

    families = {f: statistics.median(r[3].get(f, 0.0) for r in plain)
                for f in workloads.FAMILIES}
    if args.trace:
        metrics = {name: {"value": statistics.median(m[name] for m in layers),
                          "unit": unit}
                   for name, unit in tracing.LAYER_METRICS.items()}
        for fam, value in families.items():
            metrics[f"family.{fam}_s"] = {"value": value, "unit": "s"}
        tracer.write_spans(base / "trace.jsonl")
    else:
        metrics = {
            "setup_s": {"value": statistics.median(import_s) + prep_s,
                        "unit": "s"},
            "run_s": {"value": med(plain, 0), "unit": "s"},
            "cpu_s": {"value": med(plain, 1), "unit": "s"},
            "peak_rss_mb": {"value": plain[-1][2], "unit": "MB"},
        }

    if import_s:
        print("fresh imports s: " + " ".join(f"{t:.3f}" for t in import_s))
    print(f"workload {args.workload}  seed {args.seed}  rounds "
          f"{len(plain)} untraced, {len(traced)} traced")
    print("round wall s: untraced "
          + " ".join(f"{r[0]:.3f}" for r in plain) + "  traced "
          + " ".join(f"{r[0]:.3f}" for r in traced))
    print("host " + json.dumps(host))
    for fam, value in families.items():
        if value:
            print(f"  family {fam:<10} {value:10.4f} s")
    for name, m in metrics.items():
        print(f"  {name:<44} {m['value']:14.6g} {m['unit']}")
    print(f"operations attempted {attempted}  failed {failed}")
    for out, msgs in sorted(failures.items()):
        print(f"  FAILED {out.relative_to(base)}: " + "; ".join(msgs))
    print(json.dumps(result_line(attempted, failed, metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
