"""Tests of the benchmark's own checks.

Each case runs one small CLI job of a family, confirms that its check
passes, then changes one value in one of the job's output files and
confirms that the check now marks the operation failed.

    python3 -m pytest perfbench/test_checks.py
"""

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
from workloads import TWO_PI, Job, central  # noqa: E402


def perturb(path, column, row, change):
    """Replace the value in data row `row` (0-based) of `column` by
    change(old value)."""
    lines = path.read_text().splitlines(keepends=True)
    header = lines[1].strip().split(",")
    col = header.index(column)
    fields = lines[2 + row].rstrip("\n").split(",")
    fields[col] = repr(change(float(fields[col])))
    lines[2 + row] = ",".join(fields) + "\n"
    path.write_text("".join(lines))


def last(path):
    return len(path.read_text().splitlines()) - 3


# (job, or the three jobs of a central difference, file, column, row: int or
# callable(path) -> int, change, a phrase of the failure message that the
# matching check gives)
CASES = [
    (Job("kdv", "kdv", "kdv", ("kdv", "--preset", "paper", "--grid-n", "64",
                               "--t-final", "0.5", "--checkpoints", "2")),
     "kdv_poppe.csv", "value_real", last, lambda v: v + 0.5,
     "kdv projected-vs-oracle gap"),
    (Job("kdv-no-oracle", "kdv", "kdv",
         ("kdv", "--preset", "paper", "--grid-n", "64", "--t-final", "0.5",
          "--checkpoints", "2", "--compare-oracle", "off",
          "--quadrature", "trapezoid")),
     "kdv_poppe.csv", "value_real", last, lambda v: v + 0.5,
     "kdv projected-vs-independent gap"),
    (Job("nls", "nls", "nls", ("nls", "--preset", "paper", "--grid-n", "64",
                               "--t-final", "1.0", "--checkpoints", "2")),
     "nls_det.csv", "det_abs", 3, lambda v: 0.5, "nls det_track min"),
    (Job("nls-mass", "nls", "nls",
         ("nls", "--preset", "paper", "--grid-n", "64", "--t-final", "1.0",
          "--checkpoints", "2", "--compare-oracle", "off")),
     "nls_poppe.csv", "value_real", last, lambda v: 3.0 * v,
     "nls relative mass drift"),
    (Job("smol-const", "smol-const", "coag", ("smol-const", "--preset",
                                              "paper")),
     "smol-const_poppe.csv", "value_real", 10, lambda v: v * 1.001,
     "smol-const closed-form error"),
    (Job("smol-general", "smol-general", "coag",
         ("smol-general", "--grid-n", "64", "--t-final", "0.5")),
     "smol-general_poppe.csv", "value_real", 5, lambda v: v + 1e-6,
     "smol-general error"),
    (central("prelaplace", "coag",
             ("prelaplace", "--grid-n", "4096", "--domain-l", "1.0"), 0.5,
             0.001),
     "prelaplace_poppe.csv", "value_real", 2048, lambda v: 1.1 * v,
     "prelaplace relative residual"),
    (Job("burgers", "burgers", "burgers",
         ("burgers", "--profile", "sin", "--t-final", "0.5", "--grid-n",
          "128", "--domain-l", TWO_PI)),
     "burgers_field.csv", "value_real", 7, lambda v: v + 1e-6,
     "burgers |v - sin(x - t v)|"),
    (Job("burgers-nan", "burgers", "burgers",
         ("burgers", "--profile", "sin", "--t-final", "0.5", "--grid-n",
          "128", "--domain-l", TWO_PI)),
     "burgers_difference.csv", "difference", 7, lambda v: float("nan"),
     "non-finite"),
    (Job("spde", "spde", "spde", ("spde", "--preset", "paper", "--seed",
                                  "0")),
     "spde_poppe.csv", "value_real", 100, lambda v: v + 1.0,
     "spde relative direct-vs-projected gap"),
    (central("quotient", "quotient", ("quotient", "--grid-n", "32"), 1.0,
             0.001),
     "quotient_field.csv", "value_real", 300, lambda v: v + 1e-3,
     "quotient relative residual"),
    (Job("elliptic", "elliptic", "quotient", ("elliptic", "--grid-n", "256")),
     "elliptic_field.csv", "value_real", 3, lambda v: v + 1e-9,
     "elliptic error"),
]


def _checked(case):
    jobs = case[0] if isinstance(case[0], list) else [case[0]]
    return jobs, next(j for j in jobs if j.neighbours or len(jobs) == 1)


@pytest.mark.parametrize("case", CASES, ids=[_checked(c)[1].name
                                            for c in CASES])
def test_perturbed_output_fails_its_check(tmp_path, case):
    import grassflow.cli as cli

    jobs, job = _checked(case)
    filename, column, row, change, expected = case[1:]
    for each in jobs:
        code, _, _ = run.run_job(cli, each, tmp_path / each.name)
        assert code == 0
    context = {"cache": {}, "neighbours": tuple(
        str(tmp_path / name) for name in job.neighbours) or None}
    out = tmp_path / job.name
    assert checks.check_job(str(out), job.equation, 0, context) == []

    path = out / filename
    perturb(path, column, row(path) if callable(row) else row, change)
    failures = checks.check_job(str(out), job.equation, 0, context)
    assert any(expected in message for message in failures), failures


def test_nonzero_exit_fails(tmp_path):
    assert checks.check_job(str(tmp_path), "kdv", 1, {}) == ["exit status 1"]


def test_failed_job_makes_run_incorrect(tmp_path, capsys):
    import grassflow.cli as cli

    bad = Job("kdv", "kdv", "kdv", ("kdv", "--no-such-flag"))
    results, _, _, _ = run.run_round(cli, [(tmp_path / bad.name, bad)])
    assert results[0][2] != 0
    failures = run.check_round(results, {})
    line = run.result_line(len(results), len(failures), {})
    assert line["correct"] is False and line["failed"] == 1


def test_missing_output_fails(tmp_path):
    assert checks.check_job(str(tmp_path), "elliptic", 0, {}) != []
