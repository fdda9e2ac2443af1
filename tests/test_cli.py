"""Command-line front end: validation, presets, outputs, reproducibility."""

import csv
import dataclasses
import filecmp
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import grassflow.cli as cli
from grassflow import quotient, smoluchowski
from grassflow.cli import (RunConfig, apply_preset, config_hash, main,
                           validate, write_table)
from grassflow.core import Grid1D, dft_forward, dft_inverse
from grassflow.errors import ChartBreakdown
from grassflow.integrable import (cubic_kdv_symbol, propagate_dispersive,
                                  schrodinger_symbol)
from grassflow.smoluchowski import MassDensity, constant_kernel_solve
from reference import read_columns


def base_config(**kw):
    return RunConfig(**{"equation": "burgers", "profile": "linear", **kw})


# ---------------------------------------------------------------------------
# validation


def test_paper_presets_validate_clean():
    for eq in ("kdv", "nls", "spde", "smol-const"):
        config = apply_preset(RunConfig(equation=eq, preset="paper"))
        assert validate(config) == []
        if eq in ("kdv", "nls"):
            assert config.quadrature == "gauss-legendre"


def test_kdv_and_nls_default_to_the_trapezoid_rule(tmp_path):
    # the presets keep gauss-legendre; a run without one solves on the
    # half-line grid's n/2 + 1 nodes
    assert RunConfig("kdv").quadrature == "trapezoid"
    assert main(["kdv", "--grid-n", "32", "--t-final", "0.01",
                 "--checkpoints", "2", "--out", str(tmp_path)]) == 0
    meta = read_metadata(tmp_path / "kdv_metadata.txt")
    assert meta["quadrature"] == "trapezoid"
    assert meta["x_system_unknowns"] == str(32 // 2 + 1)


def test_readme_synopsis_names_every_quadrature():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    synopsis = re.findall(r"--quadrature \{([^}]*)\}", readme)
    assert [tuple(s.split("|")) for s in synopsis] == [cli.QUADRATURES]


def test_non_power_of_two_modes_flagged():
    config = RunConfig(equation="kdv", grid_n=100)
    problems = validate(config)
    assert len(problems) == 1
    assert "power of two" in problems[0]


def test_negative_dt_flagged():
    config = base_config(dt=-1e-3)
    problems = validate(config)
    assert len(problems) == 1
    assert "dt" in problems[0]


def test_multiple_violations_all_reported():
    config = RunConfig(equation="kdv", grid_n=100, dt=-1.0, t_final=-2.0)
    assert len(validate(config)) == 3


def test_unknown_equation_flagged():
    assert any("unknown equation" in p
               for p in validate(RunConfig(equation="heat")))


# ---------------------------------------------------------------------------
# config hash and CLI plumbing


def test_hash_ignores_output_location_only():
    a = base_config(out="/tmp/a")
    b = base_config(out="/tmp/b")
    c = base_config(seed=1)
    assert config_hash(a) == config_hash(b)
    assert config_hash(a) != config_hash(c)


def test_validate_only_flag(capsys):
    rc = main(["kdv", "--grid-n", "100", "--validate-only"])
    out = capsys.readouterr().out
    assert rc == 2
    assert "power of two" in out
    rc = main(["kdv", "--validate-only"])
    assert rc == 0


def test_config_file_and_flag_precedence(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("grid-n = 64\nt-final = 0.25\nseed = 9\n")
    out = tmp_path / "run"
    rc = main(["burgers", "--config", str(cfg), "--profile", "linear",
               "--t-final", "0.5", "--out", str(out)])
    assert rc == 0
    meta = (out / "burgers_metadata.txt").read_text()
    assert "grid_n = 64" in meta          # from the file
    assert "t_final = 0.5" in meta        # flag wins over the file
    assert "seed = 9" in meta


def test_parser_flags_are_the_run_config_fields():
    # --config and --validate-only steer the run; each other flag sets the
    # RunConfig field of its name, parsed to the field's type (argparse
    # reads a flag without a type as str)
    flags = {a.dest: a for a in cli.build_parser()._actions
             if a.option_strings
             and a.dest not in ("help", "config", "validate_only")}
    types = {f.name: f.type for f in dataclasses.fields(RunConfig)
             if f.name != "equation"}
    assert set(flags) == set(types)
    for name, action in flags.items():
        if name == "compare_oracle":
            assert tuple(action.choices) == ("on", "off")
        else:
            assert (action.type or str) is types[name], name
    assert tuple(flags["quadrature"].choices) == ("trapezoid",
                                                  "gauss-legendre")
    parse = lambda *argv: cli.config_from_args(
        cli.build_parser().parse_args(["kdv", *argv]))
    assert parse().compare_oracle is True
    assert parse("--compare-oracle", "off").compare_oracle is False
    assert parse("--compare-oracle", "on", "--seed", "3").seed == 3


def test_unknown_config_key_rejected(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("tolerance = 1e-3\n")
    with pytest.raises(SystemExit):
        main(["burgers", "--config", str(cfg)])


def test_bad_config_value_exits_2_like_a_flag(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("grid-n = abc\n")
    with pytest.raises(SystemExit) as exc:
        main(["burgers", "--config", str(cfg), "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "argument --grid-n: invalid int value: 'abc'" in \
        capsys.readouterr().err


@pytest.mark.parametrize("equation", ["elliptic", "quotient", "kdv"])
def test_unknown_profile_exits_2(tmp_path, capsys, equation):
    args = [equation, "--profile", "nonsense"]
    assert main(args + ["--validate-only"]) == 2
    assert "unknown profile 'nonsense'" in capsys.readouterr().out
    assert main(args + ["--out", str(tmp_path)]) == 2
    assert not list(tmp_path.iterdir())


def test_unknown_preset_exits_2(tmp_path, capsys):
    args = ["kdv", "--preset", "nonsense"]
    assert main(args + ["--validate-only"]) == 2
    out = capsys.readouterr().out
    assert "unknown preset 'nonsense' for kdv" in out
    assert "1 violation(s)" in out
    assert main(args + ["--out", str(tmp_path)]) == 2
    assert "unknown preset 'nonsense' for kdv" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_every_equation_defaults_to_an_accepted_profile():
    for equation, accepted in cli.PROFILES.items():
        config = RunConfig(equation=equation)
        assert config.profile == accepted[0]
        assert validate(config) == []


# ---------------------------------------------------------------------------
# runs and outputs


def read_table(path):
    with open(path) as fh:
        first = fh.readline()
        assert first.startswith("# config_hash=")
        header = fh.readline().strip().split(",")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    return first.strip(), header, rows


def write_table_row_wise(path, header, rows, chash):
    """The row-wise writer that write_table replaced, kept as reference."""
    with open(path, "w", newline="\n") as fh:
        fh.write(f"# config_hash={chash}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([format(float(v), ".17g") for v in row])


def test_write_table_matches_row_wise_writer(tmp_path):
    specials = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1e300, -1e-300,
                1.0 / 3.0, -2.5, 1e16, 123456789.123456789]
    rng = np.random.default_rng(0)
    rows = np.vstack([np.reshape(specials, (-1, 3)),
                      rng.standard_normal((50, 3)) * 10.0 ** rng.integers(
                          -300, 300, (50, 3))])
    header = ("x", "t", "value")
    write_table(tmp_path / "a.csv", header, rows, "abc")
    write_table_row_wise(tmp_path / "b.csv", header, rows, "abc")
    assert (tmp_path / "a.csv").read_bytes() == \
        (tmp_path / "b.csv").read_bytes()


def test_plane_tables_are_x_outer_y_inner(tmp_path):
    n = 8
    assert main(["spde", "--grid-n", str(n), "--t-final", "0.004",
                 "--dt", "2e-4", "--panels", "16",
                 "--out", str(tmp_path)]) == 0
    assert main(["quotient", "--grid-n", str(n), "--out", str(tmp_path)]) == 0
    spde_nodes = 2.0 * np.pi * np.arange(n) / n
    quotient_nodes = Grid1D(0.0, 10.0, n, kind="periodic").nodes
    for name, nodes in (("spde_direct.csv", spde_nodes),
                        ("spde_poppe.csv", spde_nodes),
                        ("spde_difference.csv", spde_nodes),
                        ("quotient_field.csv", quotient_nodes)):
        _, header, rows = read_table(tmp_path / name)
        assert header[:2] == ["x", "y"]
        assert len(rows) == n * n
        xy = np.array([[float(r[0]), float(r[1])] for r in rows])
        assert np.array_equal(xy[:, 0], np.repeat(nodes, n)), name
        assert np.array_equal(xy[:, 1], np.tile(nodes, n)), name


def test_quotient_run_reads_nodes_independent_of_grid_size(tmp_path,
                                                           monkeypatch):
    nodes = Grid1D.nodes
    reads = []

    def counted(self):
        reads.append(self.n)
        return nodes.fget(self)

    monkeypatch.setattr(Grid1D, "nodes", property(counted))
    counts = []
    for n in (16, 64):
        reads.clear()
        assert main(["quotient", "--grid-n", str(n),
                     "--out", str(tmp_path / str(n))]) == 0
        counts.append(len(reads))
    assert counts[0] == counts[1]


def count_calls(monkeypatch, module, name):
    """Calls of module.name, through every reference grassflow holds."""
    original = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for owner in (module, cli):
        if getattr(owner, name, None) is original:
            monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.mark.parametrize("argv, module, name, expected", [
    (["prelaplace", "--grid-n", "32"], smoluchowski, "deconvolve", 4),
    (["smol-general", "--grid-n", "32"], smoluchowski, "general_smol_solve",
     3),
    (["quotient", "--grid-n", "16"], quotient, "quotient_solve", 3),
], ids=["prelaplace", "smol-general", "quotient"])
def test_job_solves_each_time_once(tmp_path, monkeypatch, argv, module,
                                   name, expected):
    # t - dt, t and t + dt for the residual, whose middle solve is written;
    # prelaplace adds its t = 0 row
    calls = count_calls(monkeypatch, module, name)
    assert main(argv + ["--out", str(tmp_path)]) == 0
    assert len(calls) == expected


def test_burgers_linear_closed_form(tmp_path):
    rc = main(["burgers", "--profile", "linear", "--t-final", "1.0",
               "--grid-n", "11", "--domain-l", "4.0",
               "--out", str(tmp_path)])
    assert rc == 0
    table = read_columns(tmp_path / "burgers_field.csv")
    assert list(table) == ["x", "value_real", "value_imag"]
    for x, value in zip(table["x"], table["value_real"]):
        assert value == pytest.approx(x / 2.0, abs=1e-10)


def test_burgers_shock_exit_code(tmp_path):
    rc = main(["burgers", "--profile", "neg-tanh", "--t-final", "1.0",
               "--grid-n", "21", "--domain-l", "2.0", "--out", str(tmp_path)])
    assert rc == 1  # breakdown report, field still written
    assert (tmp_path / "burgers_field.csv").exists()


def test_validation_exit_code(tmp_path):
    rc = main(["kdv", "--grid-n", "100", "--out", str(tmp_path)])
    assert rc == 2


@pytest.mark.parametrize("equation, grid_n", [("smol-general", 3),
                                              ("smol-general", 4),
                                              ("prelaplace", 3)])
def test_grid_too_small_for_residual_exits_2(tmp_path, capsys, equation,
                                             grid_n):
    args = [equation, "--grid-n", str(grid_n)]
    assert main(args + ["--validate-only"]) == 2
    assert "grid-n must be at least" in capsys.readouterr().out
    assert main(args + ["--out", str(tmp_path)]) == 2
    assert "grid-n must be at least" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("equation, grid_n", [("smol-general", 5),
                                              ("prelaplace", 4)])
def test_smallest_accepted_grid_runs(tmp_path, equation, grid_n):
    assert main([equation, "--grid-n", str(grid_n),
                 "--out", str(tmp_path)]) == 0


def test_kdv_run_produces_four_tables(tmp_path):
    rc = main(["kdv", "--grid-n", "32", "--domain-l", "10.0",
               "--t-final", "0.01", "--dt", "1e-3", "--checkpoints", "3",
               "--out", str(tmp_path)])
    assert rc == 0
    for name in ("kdv_poppe.csv", "kdv_direct.csv", "kdv_difference.csv",
                 "kdv_det.csv", "kdv_metadata.txt"):
        assert (tmp_path / name).exists()
    first, _, rows = read_table(tmp_path / "kdv_poppe.csv")
    assert len(rows) == 3 * 32
    # every output embeds the same config hash
    other, _, _ = read_table(tmp_path / "kdv_direct.csv")
    assert first == other


@pytest.mark.parametrize("argv", [
    ("kdv", "--t-final", "1", "--dt", "0.3"),
    ("nls", "--t-final", "0.004", "--dt", "0.01"),
], ids=["kdv", "nls"])
def test_fredholm_run_ends_at_t_final(tmp_path, argv):
    # a dt that does not divide t_final is rounded to t_final / steps, so
    # the last checkpoint, and the oracle's, is t_final itself
    equation, t_final = argv[0], float(argv[2])
    rc = main([*argv, "--grid-n", "32", "--checkpoints", "2",
               "--out", str(tmp_path)])
    assert rc == 0
    for name in ("poppe", "direct"):
        _, _, rows = read_table(tmp_path / f"{equation}_{name}.csv")
        assert float(rows[-1][1]) == t_final


def read_metadata(path):
    return dict(line.split(" = ", 1)
                for line in path.read_text().splitlines())


@pytest.mark.parametrize("argv, step", [
    (("kdv", "--grid-n", "32", "--t-final", "1", "--dt", "0.3",
      "--checkpoints", "2"), "0.33333333333333331"),
    (("nls", "--grid-n", "32", "--t-final", "1", "--dt", "0.3",
      "--checkpoints", "2"), "0.33333333333333331"),
    (("spde", "--grid-n", "8", "--t-final", "0.007", "--dt", "0.003",
      "--panels", "4"), "0.0035000000000000001"),
    (("smol-const", "--grid-n", "64", "--t-final", "1", "--dt", "0.3"),
     "0.33333333333333331"),
], ids=["kdv", "nls", "spde", "smol-const"])
def test_sidecar_records_the_step_the_run_took(tmp_path, argv, step):
    # dt echoes the configuration; step is t_final / steps, the step taken
    assert main([*argv, "--out", str(tmp_path)]) == 0
    meta = read_metadata(tmp_path / f"{argv[0]}_metadata.txt")
    assert meta["dt"] == cli._fmt(float(argv[argv.index("--dt") + 1]))
    assert meta["step"] == step


def complex_columns_by_time(path):
    """{t: value_real + i value_imag} of a field table, in row order."""
    _, _, rows = read_table(path)
    by_time = {}
    for row in rows:
        value = float(row[2]) + 1j * float(row[3])
        by_time.setdefault(float(row[1]), []).append(value)
    return {t: np.array(v) for t, v in by_time.items()}


@pytest.mark.parametrize("equation, symbol, readout", [
    ("kdv", cubic_kdv_symbol, np.real),
    ("nls", schrodinger_symbol, np.asarray),
], ids=["kdv", "nls"])
def test_nonlinear_effect_is_the_oracle_gap_to_the_linear_flow(
        tmp_path, equation, symbol, readout):
    rc = main([equation, "--grid-n", "64", "--t-final", "0.5", "--dt", "0.01",
               "--checkpoints", "3", "--out", str(tmp_path)])
    assert rc == 0
    grid = Grid1D(-5.0, 5.0, 64, kind="periodic")
    u0 = readout(complex_columns_by_time(tmp_path / f"{equation}_poppe.csv")
                 [0.0])
    effect = 0.0
    for t, direct in complex_columns_by_time(
            tmp_path / f"{equation}_direct.csv").items():
        linear = dft_inverse(propagate_dispersive(dft_forward(u0, grid), grid,
                                                  symbol, t), grid)
        effect = max(effect, np.max(np.abs(readout(direct)
                                           - readout(linear))))
    meta = read_metadata(tmp_path / f"{equation}_metadata.txt")
    assert effect > 0
    assert float(meta["nonlinear_effect"]) == pytest.approx(effect,
                                                             rel=1e-12)


def test_burgers_difference_wraps_the_periodic_oracle(tmp_path):
    # x = +L/2 is the periodic oracle's first node, -L/2, not its last
    rc = main(["burgers", "--profile", "sin", "--grid-n", "256",
               "--t-final", "0.5", "--domain-l", str(2 * np.pi),
               "--out", str(tmp_path)])
    assert rc == 0
    gap = read_columns(tmp_path / "burgers_difference.csv")["difference"]
    assert abs(gap[0] - gap[-1]) <= 1e-12


def test_kdv_paper_preset_closes_on_its_oracle(tmp_path):
    # the ETDRK4 oracle integrates the equation the projection solves: the
    # gap is about 2.1e-3, where a 3 u u_x oracle left 0.029
    rc = main(["kdv", "--preset", "paper", "--checkpoints", "2",
               "--out", str(tmp_path)])
    assert rc == 0
    meta = read_metadata(tmp_path / "kdv_metadata.txt")
    assert meta["dt"] == "0.01"
    assert float(meta["sup_difference"]) <= 5e-3


@pytest.mark.parametrize("quadrature", cli.QUADRATURES)
def test_constant_data_make_every_x_system_singular(tmp_path, monkeypatch,
                                                    capsys, quadrature):
    # the constant kernel c = -2 / L gives det(I + K^T W) = 1 + c L / 2 = 0
    # at every x, on every rule: the weights sum to L / 2, so the det is
    # the rounding left of cancelling 1, at most one machine epsilon
    monkeypatch.setattr(cli, "profile_samples",
                        lambda name, x: np.full(len(x), -2.0 / 8.0))
    rc = main(["kdv", "--grid-n", "16", "--domain-l", "8", "--quadrature",
               quadrature, "--out", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert ("16 singular Fredholm system(s) at t = 0.0, the first at "
            "x = -4.0") in err
    det = complex(err.split("determinant = ")[1].strip().rstrip(")"))
    assert abs(det) <= np.finfo(float).eps
    assert os.listdir(tmp_path) == []


def test_kdv_singular_system_exits_1_without_tables(tmp_path, monkeypatch,
                                                   capsys):
    # with h = 1 this profile makes the x = -2 system singular at t = 0
    monkeypatch.setattr(cli, "profile_samples",
                        lambda name, x: np.array([-2.0, 0.0, 0.0, 1.0]))
    rc = main(["kdv", "--grid-n", "4", "--domain-l", "4.0", "--t-final",
               "0.01", "--dt", "1e-3", "--out", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    # the breakdown is at the first checkpoint, not at --t-final
    assert "(t = 0.0, location = -2.0," in err
    det = complex(err.split("determinant = ")[1].strip().rstrip(")"))
    assert np.isfinite(det) and abs(det) < 1e-14
    assert not any(name.endswith((".csv", ".txt"))
                   for name in os.listdir(tmp_path))


def test_failed_oracle_leaves_no_tables(tmp_path, capsys):
    # the projection succeeds, then the oracle blows up at step 100
    rc = main(["kdv", "--profile", "gaussian", "--out", str(tmp_path)])
    assert rc == 1
    assert "IntegrationBlowup" in capsys.readouterr().err
    assert not any(name.endswith((".csv", ".txt"))
                   for name in os.listdir(tmp_path))


def loaded_by_cli_import(module: str) -> bool:
    """Whether a fresh interpreter has ``module`` loaded after
    ``import grassflow.cli``."""
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    code = f"import sys, grassflow.cli; print({module!r} in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return out.strip() == "True"


def test_cli_import_does_not_load_scipy_signal():
    # scipy.signal costs over a second to import, on every CLI call
    assert not loaded_by_cli_import("scipy.signal")


def test_cli_import_does_not_load_numpy_polynomial():
    # the Gauss-Legendre nodes load numpy.polynomial only when a run asks
    # for them, so the import every CLI call pays stays as it is
    assert not loaded_by_cli_import("numpy.polynomial")


# one small job of each equation that has no Fredholm solve
SCIPY_LINALG_FREE_JOBS = (
    ("spde", "--grid-n", "8", "--t-final", "0.004", "--dt", "2e-4",
     "--panels", "16"),
    ("burgers", "--profile", "sin", "--t-final", "0.5", "--grid-n", "64",
     "--domain-l", "6.283185307179586"),
    ("quotient", "--grid-n", "16"),
    ("smol-general", "--grid-n", "32", "--t-final", "0.1", "--dt", "0.01"),
    ("prelaplace", "--grid-n", "32", "--t-final", "0.1", "--dt", "0.01"),
    ("elliptic", "--grid-n", "64"),
    ("smol-const", "--grid-n", "64", "--t-final", "0.1", "--dt", "0.01"),
)


def test_runs_without_a_fredholm_solve_do_not_load_scipy_linalg(tmp_path):
    # importing scipy.linalg adds about 20 MB of resident memory to a run
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys\nfrom grassflow.cli import main\n"
            f"for argv in {SCIPY_LINALG_FREE_JOBS!r}:\n"
            f"    assert main(list(argv) + ['--out', {str(tmp_path)!r}]) "
            "== 0, argv\n"
            "print('scipy.linalg' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


def test_breakdown_report_keeps_zero_location_and_determinant(
        tmp_path, monkeypatch, capsys):
    def singular(config, write):
        raise ChartBreakdown("singular", det_value=0.0, location=0.0)

    monkeypatch.setitem(cli.RUNNERS, "burgers", singular)
    assert main(["burgers", "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "location = 0.0" in err and "determinant = 0.0" in err


def test_blowup_report_carries_time_and_determinant(tmp_path, capsys):
    # negative-mass data drives the base denominator 1 + t m0 / 2 negative
    rc = main(["smol-const", "--profile", "kdv-paper", "--grid-n", "64",
               "--t-final", "0.5", "--out", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "breakdown: base flow denominator crossed zero (t = 0.5, " \
        "location = None, determinant = " in err
    det = float(err.split("determinant = ")[1].strip().rstrip(")"))
    assert det <= 0
    assert not any(name.endswith((".csv", ".txt"))
                   for name in os.listdir(tmp_path))


def test_m0_riccati_blowup_reports_its_time(tmp_path, capsys):
    # m0(0) = -20 sinh 2 = -36.27 on the kdv-paper profile, so the closed
    # form m0 / (1 + m0 t / 2) blows up at t = 0.0551
    rc = main(["smol-general", "--preset", "constant-kernel",
               "--profile", "kdv-paper", "--out", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "m0 preprocessing Riccati blew up" in err
    t = float(err.split("(t = ")[1].split(",")[0])
    assert 0.0551 <= t < 0.06


def test_smol_general_constant_kernel_preset(tmp_path):
    rc = main(["smol-general", "--preset", "constant-kernel",
               "--out", str(tmp_path)])
    assert rc == 0
    values = read_columns(tmp_path / "smol-general_poppe.csv")["value_real"]
    grid = Grid1D(0.0, 40.0, 512, kind="closed")
    expected = constant_kernel_solve(
        MassDensity(grid=grid, values=np.exp(-grid.nodes)), 1.0).values
    assert np.max(np.abs(values - expected)) <= 1e-12


def test_spde_rerun_is_bitwise_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    args = ["spde", "--grid-n", "8", "--t-final", "0.004", "--dt", "2e-4",
            "--panels", "16", "--seed", "42"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    names = [n for n in os.listdir(a) if n.endswith(".csv")]
    assert names
    for name in names:
        assert filecmp.cmp(a / name, b / name, shallow=False), name


@pytest.mark.parametrize("args", [
    ["prelaplace", "--grid-n", "64", "--domain-l", "1.0", "--t-final", "0.5"],
    ["smol-general", "--grid-n", "32", "--t-final", "0.5"],
    ["burgers", "--profile", "sin", "--grid-n", "64", "--t-final", "0.5",
     "--domain-l", str(2 * np.pi)],
])
def test_rerun_is_bitwise_identical(tmp_path, args):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    names = sorted(os.listdir(a))
    assert names == sorted(os.listdir(b))
    assert [n for n in names if n.endswith(".csv")]
    for name in names:
        # the sidecars differ only in the out line
        text = [[line for line in (d / name).read_text().splitlines()
                 if not line.startswith("out = ")] for d in (a, b)]
        assert text[0] == text[1], name


def test_spde_sidecar_records_the_least_determinant(tmp_path):
    assert main(["spde", "--grid-n", "8", "--t-final", "0.004", "--dt", "2e-4",
                 "--panels", "16", "--out", str(tmp_path)]) == 0
    meta = read_metadata(tmp_path / "spde_metadata.txt")
    det = read_columns(tmp_path / "spde_det.csv")["det_abs"]
    assert float(meta["min_abs_det"]) == np.min(det)
    # the determinant is per panel, so the field tables carry none
    for name in ("direct", "poppe"):
        assert "det_track" not in read_columns(tmp_path / f"spde_{name}.csv")


def test_tables_hold_per_row_values_and_sidecars_the_residual(tmp_path):
    for argv, table, key in (
            (("smol-general", "--grid-n", "32", "--t-final", "0.1",
              "--dt", "0.01"), "poppe", "pde_residual"),
            (("prelaplace", "--grid-n", "32", "--t-final", "0.1",
              "--dt", "0.01"), "poppe", "pde_residual"),
            (("quotient", "--grid-n", "16"), "field", "pde_residual"),
            (("elliptic", "--grid-n", "64"), "field", "ode_residual")):
        assert main(list(argv) + ["--out", str(tmp_path)]) == 0
        header = list(read_columns(tmp_path / f"{argv[0]}_{table}.csv"))
        assert header[-2:] == ["value_real", "value_imag"]
        meta = read_metadata(tmp_path / f"{argv[0]}_metadata.txt")
        assert np.isfinite(float(meta[key]))


# a small run of each equation, with every table it writes
SMALL_RUNS = {
    "kdv": ("--grid-n", "32", "--t-final", "0.01", "--checkpoints", "3"),
    "nls": ("--grid-n", "32", "--t-final", "0.01", "--checkpoints", "3"),
    "smol-const": ("--grid-n", "64", "--t-final", "0.1", "--dt", "0.01"),
    "smol-general": ("--grid-n", "32", "--t-final", "0.1", "--dt", "0.01"),
    "prelaplace": ("--grid-n", "32", "--t-final", "0.1", "--dt", "0.01"),
    "burgers": ("--profile", "sin", "--grid-n", "64", "--t-final", "0.5",
                "--domain-l", str(2 * np.pi)),
    "spde": ("--grid-n", "8", "--t-final", "0.004", "--dt", "2e-4",
             "--panels", "16"),
    "quotient": ("--grid-n", "16"),
    "elliptic": ("--grid-n", "64"),
}

# the tables whose rows hold more than one time: the checkpoints of kdv and
# nls, prelaplace's t_final and t = 0, and spde's determinant per panel
MULTI_TIME = {f"{eq}_{name}" for eq in ("kdv", "nls")
              for name in ("poppe", "det", "direct", "difference")} \
    | {"prelaplace_poppe", "spde_det"}


def test_tables_hold_only_columns_that_vary(tmp_path):
    # t only where the rows hold more than one time, det_track only where a
    # Fredholm solve has one per row, and no column NaN on every row
    assert set(SMALL_RUNS) == set(cli.EQUATIONS)
    names = set()
    for equation, argv in SMALL_RUNS.items():
        out = tmp_path / equation
        assert main([equation, *argv, "--out", str(out)]) == 0
        for path in sorted(out.glob("*.csv")):
            name, table = path.stem, read_columns(path)
            names.add(name)
            assert ("t" in table) == (name in MULTI_TIME), name
            if "t" in table:
                assert len(np.unique(table["t"])) > 1, name
            assert ("det_track" in table) == \
                (name in ("kdv_poppe", "nls_poppe")), name
            for column, values in table.items():
                assert not np.all(np.isnan(values)), (name, column)
    assert MULTI_TIME <= names


def test_smol_const_closed_form_takes_a_negative_initial_mass(tmp_path):
    # m0(0) = -5.21 on the kdv-paper profile; 1 + t m0(0) / 2 stays positive
    rc = main(["smol-const", "--profile", "kdv-paper", "--grid-n", "64",
               "--t-final", "0.01", "--out", str(tmp_path)])
    assert rc == 0
    meta = read_metadata(tmp_path / "smol-const_metadata.txt")
    assert meta["m0_closed_form"] == "-5.3503841419452796"


def test_smol_const_run_reports_moments(tmp_path):
    rc = main(["smol-const", "--grid-n", "256", "--domain-l", "40",
               "--t-final", "2.0", "--dt", "1e-2", "--out", str(tmp_path)])
    assert rc == 0
    meta = (tmp_path / "smol-const_metadata.txt").read_text()
    line = next(l for l in meta.splitlines() if l.startswith("m0 "))
    m0 = float(line.split("=")[1])
    assert m0 == pytest.approx(0.5, abs=1e-2)


def test_elliptic_run_residual(tmp_path):
    rc = main(["elliptic", "--grid-n", "1024", "--domain-l", "1.0",
               "--profile", "tanh", "--out", str(tmp_path)])
    assert rc == 0
    meta = (tmp_path / "elliptic_metadata.txt").read_text()
    line = next(l for l in meta.splitlines()
                if l.startswith("ode_residual"))
    assert float(line.split("=")[1]) < 1e-6
