"""Command-line front end: validation, presets, outputs, reproducibility."""

import dataclasses
import filecmp
import hashlib
import math
import os
import re
import subprocess
import sys
from decimal import Decimal, localcontext
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import grassflow.cli as cli
from grassflow import floattext, quotient, smoluchowski
from grassflow.cli import (SAMPLED_PROFILES, RunConfig, apply_preset,
                           config_hash, main, validate, write_table)
from grassflow.core import Grid1D
from grassflow.errors import ChartBreakdown
from grassflow.graphflows import inviscid_burgers_eval
from grassflow.integrable import (cubic_kdv_symbol, propagate_dispersive,
                                  schrodinger_symbol)
from grassflow.smoluchowski import (CONSTANT_KERNEL, general_smol_solve,
                                    moments)
from reference import read_columns, write_table_row_wise


def base_config(**kw):
    return RunConfig(**{"equation": "burgers", "profile": "linear", **kw})


# ---------------------------------------------------------------------------
# validation


def test_paper_presets_validate_clean():
    # every preset, so one that sets a setting its equation does not read
    # is refused here
    for eq, record in cli.EQUATIONS.items():
        for preset in record.presets:
            config = apply_preset(RunConfig(equation=eq, preset=preset))
            assert validate(config) == [], (eq, preset)
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
    config = RunConfig(equation="smol-const", dt=-1e-3)
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
    c = base_config(t_final=2.0)
    assert config_hash(a) == config_hash(b)
    assert config_hash(a) != config_hash(c)


# a value other than the default, as its flag takes it, for each setting
# an equation may or may not read
OTHER_VALUES = {"grid_n": "64", "domain_l": "3", "t_final": "7", "dt": "0.3",
                "seed": "9", "quadrature": "gauss-legendre",
                "compare_oracle": "off", "profile": "gaussian", "nu": "2",
                "checkpoints": "3", "panels": "64"}


def test_every_setting_is_read_by_some_equation():
    # preset and out steer every run; a setting no runner reads is deleted
    # rather than carried along
    read = {name for record in cli.EQUATIONS.values()
            for name in record.reads}
    assert read | {"equation", "preset", "out"} == \
        {f.name for f in dataclasses.fields(RunConfig)}
    assert set(OTHER_VALUES) == read - {"preset"}


@pytest.mark.parametrize("name", OTHER_VALUES)
@pytest.mark.parametrize("equation", cli.EQUATIONS)
def test_an_equation_takes_only_the_settings_it_reads(tmp_path, capsys,
                                                      equation, name):
    # a read setting is part of the hash; an unread one set away from its
    # default is refused with one line naming its flag, before any output
    flag = "--" + name.replace("_", "-")
    argv = [equation, flag, OTHER_VALUES[name]]
    config = cli.config_from_args(cli.build_parser().parse_args(argv))
    if name in cli.EQUATIONS[equation].reads:
        assert config_hash(config) != config_hash(RunConfig(equation))
        return
    assert validate(config) == [f"{equation} does not read {flag}"]
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err == \
        f"precondition violated: {equation} does not read {flag}\n"
    assert not out.exists()


@pytest.mark.parametrize("argv, flags", [
    (("kdv", "--panels", "64"), ["--panels"]),
    (("spde", "--preset", "paper", "--domain-l", "3"), ["--domain-l"]),
    (("elliptic", "--t-final", "7", "--dt", "0.3"), ["--t-final", "--dt"]),
], ids=["kdv-panels", "spde-domain-l", "elliptic-t-final-dt"])
def test_unread_flags_exit_2_without_output(tmp_path, capsys, argv, flags):
    # flags that once changed only the hash of byte-identical tables
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"precondition violated: {argv[0]} does not read {flag}"
        for flag in flags]
    assert not out.exists()


@pytest.mark.parametrize("argv", [("burgers", "--dt", "-1"),
                                  ("elliptic", "--panels", "1")])
def test_a_bad_value_of_an_unread_flag_gets_one_line(capsys, argv):
    # a value is checked only where its setting is read
    assert main([*argv, "--validate-only"]) == 2
    assert capsys.readouterr().out.splitlines() == [
        f"precondition violated: {argv[0]} does not read {argv[1]}",
        "1 violation(s)"]


def test_sidecar_records_the_equation_and_the_settings_it_reads(tmp_path):
    assert main(["elliptic", "--grid-n", "64", "--out", str(tmp_path)]) == 0
    meta = read_metadata(tmp_path / "elliptic_metadata.txt")
    assert list(meta) == ["config_hash", "version", "equation", "domain_l",
                          "grid_n", "profile", "ode_residual"]


def test_readme_lists_the_flags_each_equation_takes():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    listed = {}
    # one item per line group: "- `eq`[, `eq`]: `--flag`, `--flag`, ..."
    for names, flags in re.findall(r"^- (`[a-z-]+`(?:, `[a-z-]+`)*): "
                                   r"(`--[a-z-]+`(?:,\s+`--[a-z-]+`)*)",
                                   readme, re.MULTILINE):
        for equation in re.findall(r"`([a-z-]+)`", names):
            listed[equation] = re.findall(r"`(--[a-z-]+)`", flags)
    assert listed == {
        equation: ["--" + name.replace("_", "-") for name in record.reads
                   if name != "preset"]
        for equation, record in cli.EQUATIONS.items()}


def test_validate_only_flag(capsys):
    rc = main(["kdv", "--grid-n", "100", "--validate-only"])
    out = capsys.readouterr().out
    assert rc == 2
    assert "power of two" in out
    rc = main(["kdv", "--validate-only"])
    assert rc == 0


def test_config_file_and_flag_precedence(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("grid-n = 64\nt-final = 0.25\ndomain-l = 3\n")
    out = tmp_path / "run"
    rc = main(["burgers", "--config", str(cfg), "--profile", "linear",
               "--t-final", "0.5", "--out", str(out)])
    assert rc == 0
    meta = (out / "burgers_metadata.txt").read_text()
    assert "grid_n = 64" in meta          # from the file
    assert "t_final = 0.5" in meta        # flag wins over the file
    assert "domain_l = 3" in meta


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


@pytest.mark.parametrize("equation", ["elliptic", "burgers", "kdv"])
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
    for equation, record in cli.EQUATIONS.items():
        config = RunConfig(equation=equation)
        assert config.profile == (record.profiles[0] if record.profiles
                                  else "")
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


def exact_ties():
    """x = M / 2**(17 - d), M odd, in decade d: its decimal expansion has
    17 - d places after the point, so 18 significant digits ending in 5, a
    tie of rounding to 17.  Three per decade that holds such x."""
    ties = []
    for d in range(-7, 16):
        scale = 2.0 ** (17 - d)
        low = math.ceil(10.0 ** d * scale)
        high = min(math.floor(10.0 ** (d + 1) * scale), 2 ** 53)
        ties += [(m | 1) / scale for m in (low, (low + high) // 2, high - 2)]
    return np.array(ties)


def near_ties():
    """x, not a tie, whose 17-digit rounding lies within 1e-14 of one: for
    10**k = 5**k 2**k, x = m / 2**(53 + k) with m 5**k a few off 2**52
    modulo 2**53; for 10**-j, x = m 2**(e + j) with m 2**e a few off
    5**j / 2 modulo 5**j."""
    ties = []
    for delta in range(-7, 8, 2):
        for k in range(21, 40):
            m = (2 ** 52 + delta) * pow(5 ** k, -1, 2 ** 53) % 2 ** 53
            if 10 ** 16 * 2 ** 53 <= m * 5 ** k < 10 ** 17 * 2 ** 53:
                ties.append(m / 2.0 ** (53 + k))
        for j in (21, 22):
            for e in range(20, 80):
                r = (5 ** j + delta) // 2 * pow(2 ** e, -1, 5 ** j) % 5 ** j
                ties += [float(m * 2 ** (e + j))
                         for m in range(r, 2 ** 53, 5 ** j)
                         if 10 ** 16 * 5 ** j <= m * 2 ** e
                         < 10 ** 17 * 5 ** j]
    return np.array(ties)


def hard_values():
    """The values whose text %.17g gets least from plain rounding: powers of
    ten and both their neighbours, from the subnormals to 1e308 and so past
    both edges of floattext.DECADES; exact and near ties; the switch between
    fixed and scientific notation and the decade that rounding crosses;
    powers of two, subnormals, signed zeros, nan and infinities."""
    tens = np.array([float(f"1e{k}") for k in range(-323, 309)])
    rng = np.random.default_rng(1)
    return np.concatenate([
        tens, np.nextafter(tens, 0), np.nextafter(tens, np.inf),
        exact_ties(), near_ties(),
        [9.9999999999999995e-05, 1e-4, 1e16, 1e17, 99999999999999999.0,
         9.9999999999999991e-05, 9.9999999999999989e-191],
        np.ldexp(1.0, np.arange(-1074, 1024)),
        rng.integers(1, 2 ** 52, 30).view(float),
        [5e-324, 2.2250738585072009e-308, 0.0, -0.0, np.nan, np.inf,
         -np.inf, 1.0 / 3.0, -2.5, 123456789.123456789, -1e-300]])


def test_tie_values_are_what_they_claim():
    for x in exact_ties():
        digits = format(Decimal(x), "f").replace(".", "").lstrip("0")
        assert len(digits) == 18 and digits.endswith("5"), x
    with localcontext() as exact:
        exact.prec = 1000
        for x in near_ties():
            # x * 10**(16 - d), d the decade of x
            scaled = Decimal(x).scaleb(16 - Decimal(x).adjusted())
            assert 0 < abs(scaled % 1 - Decimal("0.5")) < Decimal("1e-14"), x


def test_write_table_matches_row_wise_writer(tmp_path):
    rng = np.random.default_rng(0)
    hard = hard_values()
    bits = rng.integers(-2 ** 63, 2 ** 63, (2000, 3), dtype=np.int64,
                        endpoint=False)
    scaled = rng.standard_normal((50, 3)) * 10.0 ** rng.integers(
        -300, 300, (50, 3))
    # a grid's columns over more than one block: signed zeros, nan and
    # infinities outer, then x, then y inner, beside a constant and a
    # column of values
    grid = np.stack(np.broadcast_arrays(
        np.array([0.0, -0.0, np.nan, np.inf, -np.inf])[:, None, None],
        (2.0 * np.pi * np.arange(32) / 32)[:, None],
        rng.standard_normal(64) * 10.0 ** rng.integers(-30, 30, 64),
        0.75, rng.standard_normal((5, 32, 64))), axis=-1).reshape(-1, 5)
    # a plane's x-outer and y-inner nodes over zeros of both signs beside
    # nan and +-inf: each column starts as a grid's and then breaks it
    nodes = 2.0 * np.pi * np.arange(64) / 64
    stacked = np.vstack([
        np.stack(np.broadcast_arrays(nodes[:, None], nodes),
                 axis=-1).reshape(-1, 2),
        np.column_stack([np.resize([0.0, -0.0], 4096),
                         np.resize([np.nan, np.inf, -np.inf], 4096)])])
    for name, rows, per_cell in (
            ("hard", np.resize(hard, (len(hard) + 2) // 3 * 3).reshape(-1, 3),
             [0, 1, 2]),
            ("bits", bits.view(float), [0, 1, 2]),
            ("scaled", scaled, [0, 1, 2]),
            ("grid", grid, [4]),
            ("stacked", stacked, [0, 1])):
        # the columns written cell by cell; the others' patterns are
        # formatted once
        assert [j for j, column in enumerate(rows.view(np.int64).T)
                if floattext.grid_pattern(column) is None] == per_cell, name
        header = tuple(f"c{j}" for j in range(rows.shape[1]))
        write_table(tmp_path / f"{name}.csv", header, rows, "abc")
        write_table_row_wise(tmp_path / f"{name}_rows.csv", header, rows,
                             "abc")
        assert (tmp_path / f"{name}.csv").read_bytes() == \
            (tmp_path / f"{name}_rows.csv").read_bytes(), name


@st.composite
def bit_tables(draw):
    """Float64 tables of any bit patterns, 1 to 3 columns and up to 3000
    rows: drawn value by value, mostly one repeated pattern, or from a
    seeded generator, every value its own."""
    shape = (draw(st.integers(1, 3000)), draw(st.integers(1, 3)))
    if draw(st.booleans()):
        return draw(hnp.arrays(np.int64, shape)).view(float)
    seed = draw(st.integers(0, 2 ** 32 - 1))
    return np.random.default_rng(seed).integers(
        -2 ** 63, 2 ** 63, shape, dtype=np.int64).view(float)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(rows=bit_tables())
def test_write_table_bytes_are_those_of_percent_g(tmp_path_factory, rows):
    out = tmp_path_factory.mktemp("tables")
    header = tuple(f"c{j}" for j in range(rows.shape[1]))
    write_table(out / "table.csv", header, rows, "abc")
    write_table_row_wise(out / "rows.csv", header, rows, "abc")
    assert (out / "table.csv").read_bytes() == (out / "rows.csv").read_bytes()


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
    # at the default domain-l 10 the Volterra solve breaks down
    (["prelaplace", "--grid-n", "32", "--domain-l", "1"], smoluchowski,
     "deconvolve", 4),
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


@pytest.mark.parametrize("argv", [
    ("kdv", "--t-final", "inf"), ("spde", "--t-final", "inf"),
    ("quotient", "--domain-l", "inf"), ("smol-general", "--domain-l", "inf"),
    ("prelaplace", "--nu", "inf"), ("smol-const", "--dt", "inf"),
    ("burgers", "--t-final", "nan"),
], ids=lambda argv: "-".join(argv).replace("--", ""))
def test_a_non_finite_setting_exits_2_without_output(tmp_path, capsys,
                                                     argv):
    # kdv and spde died counting their steps, and the others wrote all-NaN
    # tables under exit 0
    line = f"precondition violated: {argv[1][2:]} must be positive and finite"
    assert main([*argv, "--validate-only"]) == 2
    assert capsys.readouterr().out.splitlines() == [line, "1 violation(s)"]
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 2
    assert capsys.readouterr().err == line + "\n"
    assert not out.exists()


# the equations whose residual solves at t-final +- dt, on small grids; at
# the default domain-l 10 prelaplace's deconvolution breaks down
RESIDUAL_RUNS = {"quotient": ("--grid-n", "16"),
                 "smol-general": ("--grid-n", "32"),
                 "prelaplace": ("--grid-n", "32", "--domain-l", "1")}


@pytest.mark.parametrize("equation, dt", [("quotient", "1.2"),
                                          ("smol-general", "2"),
                                          ("prelaplace", "2")])
def test_a_residual_step_past_t_final_exits_2_without_output(
        tmp_path, capsys, equation, dt):
    # the residual solved at t-final - dt < 0: quotient wrote a NaN
    # residual with overflow warnings, the others a residual that measured
    # nothing, each under exit 0
    argv = [equation, *RESIDUAL_RUNS[equation], "--dt", dt]
    line = ("precondition violated: dt must be at most t-final: the "
            "residual solves at t-final - dt")
    assert main([*argv, "--validate-only"]) == 2
    assert capsys.readouterr().out.splitlines() == [line, "1 violation(s)"]
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 2
    assert capsys.readouterr().err == line + "\n"
    assert not out.exists()


@pytest.mark.parametrize("equation", RESIDUAL_RUNS)
def test_a_residual_step_of_t_final_runs(tmp_path, equation):
    # the first solve is at t = 0
    assert main([equation, *RESIDUAL_RUNS[equation], "--dt", "1",
                 "--out", str(tmp_path)]) == 0
    meta = dict(line.split(" = ", 1) for line in
                (tmp_path / f"{equation}_metadata.txt").read_text()
                .splitlines())
    assert np.isfinite(float(meta["pde_residual"]))


@pytest.mark.parametrize("equation", ["kdv", "nls", "smol-const", "spde"])
def test_a_step_count_past_the_float_range_exits_2_without_output(
        tmp_path, capsys, equation):
    # each setting is finite, but round(t-final / dt) overflowed in
    # uniform_steps with a traceback
    argv = [equation, "--t-final", "1e300", "--dt", "1e-10"]
    line = "precondition violated: t-final / dt must be finite"
    assert main([*argv, "--validate-only"]) == 2
    assert capsys.readouterr().out.splitlines() == [line, "1 violation(s)"]
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 2
    assert capsys.readouterr().err == line + "\n"
    assert not out.exists()


def test_default_prelaplace_run_reports_its_breakdown(tmp_path, capsys):
    # at domain-l 10 the base flow spans e^{100}: the deconvolution's
    # backward error reads about 1e61, where it wrote |g| near 1e65 under
    # exit 0.  The residual's first solve, at t - dt, breaks down, and the
    # line names that time and no unset field
    assert main(["prelaplace", "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("breakdown: deconvolve backward error")
    assert err[0].endswith("(t = 0.999)") and "None" not in err[0]
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("equation, grid_n", [("prelaplace", 3),
                                              ("elliptic", 2)])
def test_grid_too_small_for_residual_exits_2(tmp_path, capsys, equation,
                                             grid_n):
    # elliptic's Riccati residual needs three G samples
    args, out = [equation, "--grid-n", str(grid_n)], tmp_path / "out"
    assert main(args + ["--validate-only"]) == 2
    assert "grid-n must be at least" in capsys.readouterr().out
    assert main(args + ["--out", str(out)]) == 2
    assert "precondition violated: grid-n must be at least" \
        in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("equation, grid_n", [("smol-general", 2),
                                              ("prelaplace", 4),
                                              ("elliptic", 3)])
def test_smallest_accepted_grid_runs(tmp_path, equation, grid_n):
    # on [0, 1]: at the default domain-l 10 prelaplace's Volterra solve
    # breaks down
    assert main([equation, "--grid-n", str(grid_n), "--domain-l", "1",
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


@pytest.mark.parametrize("equation", ["kdv", "nls"])
def test_more_checkpoints_than_steps_exit_2(tmp_path, capsys, equation):
    # one step holds two distinct checkpoints: eleven would be written as
    # two under a sidecar that said eleven
    out = tmp_path / "out"
    assert main([equation, "--grid-n", "32", "--t-final", "0.01", "--dt",
                 "0.01", "--checkpoints", "11", "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "precondition violated: checkpoints must be at most 2, the step "
        "count round(t-final / dt) plus one\n")
    assert not out.exists()
    # a checkpoint at every step, the tightest of the presets' and
    # benchmark's runs
    every = ["--t-final", "0.1", "--dt", "0.01", "--checkpoints", "11"]
    assert main([equation, "--grid-n", "32", *every, "--compare-oracle",
                 "off", "--out", str(out)]) == 0
    times = np.unique(read_columns(out / f"{equation}_det.csv")["t"])
    assert times.tolist() == [m * (0.1 / 10) for m in range(11)]


def read_metadata(path):
    return dict(line.split(" = ", 1)
                for line in path.read_text().splitlines())


@pytest.mark.parametrize("argv, step", [
    (("kdv", "--grid-n", "32", "--t-final", "1", "--dt", "0.3",
      "--checkpoints", "2"), "0.33333333333333331"),
    (("nls", "--grid-n", "32", "--t-final", "1", "--dt", "0.3",
      "--checkpoints", "2"), "0.33333333333333331"),
    (("spde", "--grid-n", "8", "--t-final", "0.007", "--dt", "0.003",
      "--panels", "4", "--checkpoints", "5"), "0.0035000000000000001"),
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
        linear = propagate_dispersive(u0, grid, symbol, t)
        effect = max(effect, np.max(np.abs(readout(direct)
                                           - readout(linear))))
    meta = read_metadata(tmp_path / f"{equation}_metadata.txt")
    assert effect > 0
    assert float(meta["nonlinear_effect"]) == pytest.approx(effect,
                                                             rel=1e-12)


def test_burgers_difference_wraps_the_periodic_oracle(tmp_path):
    # x = +L/2 reads the periodic oracle where x = -L/2 does
    rc = main(["burgers", "--profile", "sin", "--grid-n", "256",
               "--t-final", "0.5", "--domain-l", str(2 * np.pi),
               "--out", str(tmp_path)])
    assert rc == 0
    gap = read_columns(tmp_path / "burgers_difference.csv")["difference"]
    assert abs(gap[0] - gap[-1]) <= 1e-12
    # the spectral oracle resolves pre-shock sine data to rounding
    meta = read_metadata(tmp_path / "burgers_metadata.txt")
    assert float(meta["sup_difference"]) <= 1e-10


def test_burgers_oracle_runs_on_the_profile_period(tmp_path):
    # on the default L = 10 the oracle still solves sin's 2 pi-periodic
    # problem: an oracle periodic on L read a gap of 0.788 here
    rc = main(["burgers", "--profile", "sin", "--t-final", "0.5",
               "--out", str(tmp_path)])
    assert rc == 0
    meta = read_metadata(tmp_path / "burgers_metadata.txt")
    assert meta["domain_l"] == "10"
    assert float(meta["sup_difference"]) <= 1e-10


def test_burgers_near_the_shock_keeps_a_finite_difference(tmp_path):
    # at t = 0.99 no node is flagged yet; the gap (0.0137) grows as the
    # slope steepens, but every row is finite
    rc = main(["burgers", "--profile", "sin", "--t-final", "0.99",
               "--domain-l", str(2 * np.pi), "--out", str(tmp_path)])
    assert rc == 0
    gap = read_columns(tmp_path / "burgers_difference.csv")["difference"]
    assert np.all(np.isfinite(gap))
    meta = read_metadata(tmp_path / "burgers_metadata.txt")
    assert float(meta["sup_difference"]) == np.max(gap)
    # a run with a flagged node raises and writes no sidecar, so a sidecar
    # has no flagged count to report
    assert list(meta) == ["config_hash", "version", "equation",
                          "compare_oracle", "domain_l", "grid_n", "profile",
                          "t_final", "sup_difference"]


def test_burgers_past_the_shock_reports_the_shock(tmp_path, capsys):
    # past the shock the run stops on the flagged nodes, not on the oracle
    rc = main(["burgers", "--profile", "sin", "--t-final", "1.2",
               "--domain-l", str(2 * np.pi), "--out", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    # the breakdown line is where the flagged count is reported
    x = np.linspace(-np.pi, np.pi, 256)
    flagged = inviscid_burgers_eval(x, 1.2,
                                    cli.BURGERS_PROFILES["sin"]).flagged
    assert len(flagged) > 0
    assert f"breakdown: {len(flagged)} nodes flagged near a shock" in err
    assert "IntegrationBlowup" not in err
    assert (tmp_path / "burgers_field.csv").exists()
    # past the shock the spectral oracle is not the entropy solution, so
    # no difference table is written
    assert not (tmp_path / "burgers_difference.csv").exists()
    assert not (tmp_path / "burgers_metadata.txt").exists()


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
    monkeypatch.setitem(cli.SAMPLED_PROFILES, "kdv-paper",
                        lambda x: np.full(len(x), -2.0 / 8.0))
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
    monkeypatch.setitem(cli.SAMPLED_PROFILES, "kdv-paper",
                        lambda x: np.array([-2.0, 0.0, 0.0, 1.0]))
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


def fresh_python(code: str) -> str:
    """The standard output of ``code`` run by a fresh interpreter that
    imports grassflow from this checkout."""
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout.strip()


def loaded_by_cli_import(*modules: str) -> bool:
    """Whether a fresh interpreter has any of ``modules`` loaded after
    ``import grassflow.cli``."""
    return fresh_python("import sys, grassflow.cli; "
                        f"print(any(m in sys.modules for m in {modules!r}))"
                        ) == "True"


def test_cli_import_does_not_load_numpy_random():
    # the package draws its noise from core's own Philox stream, so
    # numpy.random (6 MB) never loads
    assert not loaded_by_cli_import("numpy.random")


def test_cli_import_does_not_load_openssl():
    # config_hash takes CPython's built-in SHA-256, so hashlib's OpenSSL
    # binding, _hashlib, is not loaded
    assert not loaded_by_cli_import("_hashlib")


def test_spde_run_loads_neither_numpy_random_nor_openssl(tmp_path):
    # spde draws from core's Philox stream, not numpy.random, whose
    # bit_generator imports secrets and with it OpenSSL's _hashlib
    argv = ["spde", "--grid-n", "8", "--t-final", "0.004", "--dt", "2e-4",
            "--panels", "16", "--out", str(tmp_path)]
    assert fresh_python(
        "import sys, grassflow.cli as cli; "
        f"code = cli.main({argv!r}); "
        "print(code, [m for m in ('numpy.random', '_hashlib') "
        "if m in sys.modules])") == "0 []"


@pytest.mark.parametrize("seed, line", [
    (-1, "seed must be non-negative"), (2 ** 64, "seed must be below 2**64"),
])
def test_a_seed_that_is_no_key_word_exits_2_without_output(tmp_path, capsys,
                                                           seed, line):
    # the seed is one 64-bit word of the noise stream's key
    argv = ["spde", "--seed", str(seed)]
    line = f"precondition violated: {line}"
    assert main([*argv, "--validate-only"]) == 2
    assert capsys.readouterr().out.splitlines() == [line, "1 violation(s)"]
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 2
    assert capsys.readouterr().err == line + "\n"
    assert not out.exists()


def test_the_largest_key_word_is_a_valid_seed(capsys):
    assert main(["spde", "--seed", str(2 ** 64 - 1), "--validate-only"]) == 0
    assert capsys.readouterr().out == "0 violation(s)\n"


def expected_hashes() -> dict:
    """hashlib's SHA-256 of each equation's default settings, cut to 16
    hex digits."""
    blobs = {equation: ";".join(
        f"{k}={cli._fmt(v)}"
        for k, v in cli.read_settings(RunConfig(equation)).items())
        for equation in cli.EQUATIONS}
    return {equation: hashlib.sha256(blob.encode()).hexdigest()[:16]
            for equation, blob in blobs.items()}


def test_config_hash_is_hashlibs_sha256():
    assert cli.sha256.__module__ in ("_sha2", "_sha256")
    assert {equation: config_hash(RunConfig(equation))
            for equation in cli.EQUATIONS} == expected_hashes()


def test_config_hash_falls_back_to_hashlib():
    # an interpreter without the built-in modules hashes through hashlib
    out = fresh_python(
        "import sys; sys.modules['_sha2'] = sys.modules['_sha256'] = None; "
        "import hashlib, grassflow.cli as cli; "
        "print(cli.sha256 is hashlib.sha256, {e: cli.config_hash("
        "cli.RunConfig(e)) for e in cli.EQUATIONS})")
    assert out == f"True {expected_hashes()!r}"


def test_cli_import_does_not_load_scipy_signal():
    # scipy.signal costs over a second to import, on every CLI call
    assert not loaded_by_cli_import("scipy.signal")


def test_cli_import_does_not_load_numpy_polynomial():
    # the Gauss-Legendre nodes load numpy.polynomial only when a run asks
    # for them, so the import every CLI call pays stays as it is
    assert not loaded_by_cli_import("numpy.polynomial")


def test_cli_import_does_not_load_numpy_fft():
    # core.fft_kernels imports numpy.fft on its first call, not with the
    # package, so the import every CLI call pays stays as it is
    assert not loaded_by_cli_import("numpy.fft")


def test_cli_import_does_not_load_fractions_or_decimal():
    # write_table's powers of ten come from Python integers on the first
    # table written, not from either module at import
    assert not loaded_by_cli_import("fractions", "decimal")


# one small job of each equation, and the kdv and nls paper presets
SCIPY_LINALG_FREE_JOBS = (
    ("kdv", "--grid-n", "32", "--t-final", "0.1", "--dt", "0.01"),
    ("nls", "--grid-n", "32", "--t-final", "0.1", "--dt", "0.01"),
    ("kdv", "--preset", "paper"),
    ("nls", "--preset", "paper"),
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


def test_runs_do_not_load_scipy_linalg(tmp_path):
    # importing scipy.linalg adds about 20 MB of resident memory to a run;
    # solve_dense factorises by numpy's own OpenBLAS where numpy has one
    blas = getattr(np.__config__, "CONFIG", {}) \
        .get("Build Dependencies", {}).get("blas", {})
    if blas.get("name") != "scipy-openblas":
        pytest.skip("numpy links no OpenBLAS of its own")
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
    # negative-mass data drives the base denominator 1 + t m0 / 2 negative;
    # the report gives m0's pole t* = -2 / m0 (0.384 here) and the
    # denominator at the requested t = 0.5
    rc = main(["smol-const", "--profile", "kdv-paper", "--grid-n", "64",
               "--t-final", "0.5", "--out", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "breakdown: m0 preprocessing Riccati blew up (t = " in err
    # no location is set, so none is printed
    assert "location" not in err and ", determinant = " in err
    grid = Grid1D(0.0, 10.0, 64, kind="closed")
    m0 = moments(SAMPLED_PROFILES["kdv-paper"](grid.nodes), grid)[0]
    t = float(err.split("(t = ")[1].split(",")[0])
    assert t == pytest.approx(-2.0 / m0, rel=1e-14) and t < 0.5
    det = float(err.split("determinant = ")[1].strip().rstrip(")"))
    assert det == pytest.approx(1.0 + 0.25 * m0, rel=1e-14) and det <= 0
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
    expected = general_smol_solve(CONSTANT_KERNEL, np.exp(-grid.nodes), grid,
                                  1.0)
    assert np.array_equal(values, expected)


def test_smol_const_sampled_data_take_the_general_solve(tmp_path):
    # only the exp profile has the closed form; the others are the general
    # solve at the constant kernel
    assert main(["smol-const", "--profile", "gaussian",
                 "--out", str(tmp_path)]) == 0
    values = read_columns(tmp_path / "smol-const_poppe.csv")["value_real"]
    grid = Grid1D(0.0, 10.0, 256, kind="closed")
    expected = general_smol_solve(
        CONSTANT_KERNEL, SAMPLED_PROFILES["gaussian"](grid.nodes), grid, 1.0)
    assert np.array_equal(values, expected)


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


def tables_across_blas_thread_counts(tmp_path, argv):
    """Run ``argv`` in fresh processes under OPENBLAS_NUM_THREADS=1 and
    with no BLAS thread variable, and compare their tables byte for byte;
    return the table names."""
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    outs = []
    for threads in ("1", None):
        env = {name: value for name, value in os.environ.items()
               if name not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                               "OMP_NUM_THREADS")}
        env["PYTHONPATH"] = src
        if threads:
            env["OPENBLAS_NUM_THREADS"] = threads
        outs.append(tmp_path / argv[0] / (threads or "default"))
        subprocess.run([sys.executable, "-m", "grassflow.cli", *argv,
                        "--out", str(outs[-1])], env=env, check=True)
    names = sorted(n for n in os.listdir(outs[0]) if n.endswith(".csv"))
    for name in names:
        assert filecmp.cmp(outs[0] / name, outs[1] / name,
                           shallow=False), name
    return names


def test_spde_tables_do_not_depend_on_the_blas_thread_count(tmp_path):
    # at 128 modes OpenBLAS threads each LU when it may, and a threaded
    # zgetrf rounds otherwise than a one-thread one; a checkpoint at every
    # panel compares each panel's LU
    argv = ["spde", "--preset", "paper", "--grid-n", "128", "--panels", "64",
            "--checkpoints", "65"]
    assert tables_across_blas_thread_counts(
        tmp_path, argv) == ["spde_det.csv", "spde_difference.csv",
                            "spde_direct.csv", "spde_poppe.csv"]


@pytest.mark.parametrize("equation", ["kdv", "nls"])
def test_fredholm_tables_do_not_depend_on_the_blas_thread_count(tmp_path,
                                                                 equation):
    # the NLS Gram and the LU run on one thread: a threaded zgemm or getrf
    # rounds otherwise, which reaches the n = 64 nls tables
    assert tables_across_blas_thread_counts(
        tmp_path, [equation, "--grid-n", "64"]) == [
        f"{equation}_{name}.csv"
        for name in ("det", "difference", "direct", "poppe")]


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
        # the sidecar does not record the output location
        assert filecmp.cmp(a / name, b / name, shallow=False), name


def test_spde_sidecar_records_the_least_determinant(tmp_path):
    assert main(["spde", "--grid-n", "8", "--t-final", "0.004", "--dt", "2e-4",
                 "--panels", "16", "--out", str(tmp_path)]) == 0
    meta = read_metadata(tmp_path / "spde_metadata.txt")
    det = read_columns(tmp_path / "spde_det.csv")["det_abs"]
    assert float(meta["min_abs_det"]) == np.min(det)
    # the determinant is per panel, so the field tables carry none
    for name in ("direct", "poppe"):
        assert "det_track" not in read_columns(tmp_path / f"spde_{name}.csv")


def test_spde_samples_its_determinant_track(tmp_path):
    # --checkpoints picks the panels round(j 16 / 3); their rows are those
    # of a run with a checkpoint at every panel, string for string
    argv = ["spde", "--grid-n", "8", "--t-final", "0.004", "--dt", "2e-4",
            "--panels", "16"]
    rows = {}
    for count in ("4", "17"):
        assert main(argv + ["--checkpoints", count,
                            "--out", str(tmp_path / count)]) == 0
        rows[count] = (tmp_path / count / "spde_det.csv").read_text() \
            .splitlines()[2:]
    assert len(rows["17"]) == 17
    assert rows["4"] == [rows["17"][j] for j in (0, 5, 11, 16)]
    assert float(rows["4"][1].split(",")[0]) == 0.004 * 5 / 16
    for name in ("poppe", "direct", "difference"):
        tables = [(tmp_path / d / f"spde_{name}.csv").read_text()
                  .split("\n", 1)[1] for d in ("4", "17")]
        assert tables[0] == tables[1], name


def test_spde_more_checkpoints_than_panels_exit_2(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["spde", "--grid-n", "8", "--t-final", "0.004", "--dt",
                 "2e-4", "--panels", "16", "--checkpoints", "18",
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "precondition violated: checkpoints must be at most 17, "
        "panels + 1\n")
    assert not out.exists()
    assert validate(RunConfig("spde", panels=16, checkpoints=17)) == []


def test_spde_compare_oracle_off_skips_the_direct_scheme(tmp_path):
    # off skips the direct scheme and its tables; the Poppe field and its
    # determinants are those of the run that compares
    argv = ["spde", "--grid-n", "8", "--t-final", "0.004", "--dt", "2e-4",
            "--panels", "16"]
    for oracle in ("on", "off"):
        assert main(argv + ["--compare-oracle", oracle,
                            "--out", str(tmp_path / oracle)]) == 0
    names = sorted(path.name for path in (tmp_path / "off").glob("*.csv"))
    assert names == ["spde_det.csv", "spde_poppe.csv"]
    meta = read_metadata(tmp_path / "off" / "spde_metadata.txt")
    assert meta["sup_difference"] == "nan"
    for name in names:
        # the hash line differs: compare_oracle is part of the run's identity
        tables = [(tmp_path / d / name).read_text().split("\n", 1)[1]
                  for d in ("on", "off")]
        assert tables[0] == tables[1], name


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
# nls, prelaplace's t_final and t = 0, and spde's determinant at its
# checkpoint panels
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
