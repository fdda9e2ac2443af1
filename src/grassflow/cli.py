"""Command-line front end.

One subcommand per equation, reproducible runs: every output CSV embeds a
hash of the equation and the settings its run reads (READS), and a metadata
sidecar echoes them so a run can be reconstructed from its outputs alone.
"""

import argparse
import hashlib
import os
import sys
from dataclasses import dataclass, fields
from types import SimpleNamespace

import numpy as np

from . import __version__
from .core import Grid1D, dft_forward, dft_inverse, uniform_steps
from .errors import Breakdown, ChartBreakdown, GrassflowError, ShockProximity
from .graphflows import InitialProfile, inviscid_burgers_eval, upwind_oracle
from .integrable import (cubic_kdv_symbol, etdrk4_kdv, kdv_fredholm_solve,
                         nls_fredholm_solve, propagate_dispersive,
                         schrodinger_symbol, split_step_nls)
from .quotient import (EllipticCoefficients, QuotientCoefficients,
                       elliptic_quotient_solve, quotient_residual)
from .smoluchowski import (MassDensity, SmolCoefficients, direct_smol_oracle,
                           constant_kernel_solve, exponential_density,
                           general_smol_residual, m0_closed_form,
                           pre_laplace_burgers_residual,
                           pre_laplace_burgers_solve)
from .spde import (BrownianSheetModes, SpdeParams, sech_ridge_initial,
                   spde_direct_run, spde_poppe_run)

EQUATIONS = ("kdv", "nls", "smol-const", "smol-general", "prelaplace",
             "burgers", "spde", "quotient", "elliptic")

SPECTRAL_EQUATIONS = ("kdv", "nls", "spde", "quotient")

QUADRATURES = ("trapezoid", "gauss-legendre")


@dataclass
class RunConfig:
    """Complete description of one solver run."""

    equation: str
    preset: str = ""
    grid_n: int = 256
    domain_l: float = 10.0
    t_final: float = 1.0
    dt: float = 1e-3
    seed: int = 0
    quadrature: str = "trapezoid"
    out: str = "."
    compare_oracle: bool = True
    profile: str = ""
    nu: float = 1.0
    checkpoints: int = 11
    panels: int = 256

    def __post_init__(self):
        if not self.profile and self.equation in PROFILES:
            self.profile = PROFILES[self.equation][0]


PRESETS = {
    ("kdv", "paper"): dict(grid_n=256, domain_l=10.0, dt=1e-2, t_final=15.0,
                           profile="kdv-paper", quadrature="gauss-legendre"),
    ("nls", "paper"): dict(grid_n=256, domain_l=40.0, dt=5e-2, t_final=100.0,
                           profile="nls-paper", quadrature="gauss-legendre"),
    ("spde", "paper"): dict(grid_n=32, t_final=0.007, dt=0.007 / 256),
    ("smol-const", "paper"): dict(grid_n=1024, domain_l=40.0, t_final=2.0,
                                  dt=1e-2, profile="exp"),
    ("smol-general", "constant-kernel"): dict(grid_n=512, domain_l=40.0,
                                              t_final=1.0, profile="exp"),
}


def apply_preset(config: RunConfig, overridden=()) -> RunConfig:
    # no preset, or an unknown one, sets nothing; validate reports the latter
    for name, value in PRESETS.get((config.equation, config.preset),
                                   {}).items():
        if name not in overridden:
            setattr(config, name, value)
    return config


def validate(config: RunConfig) -> list:
    """Every violated precondition, one human-readable line each."""
    if config.equation not in EQUATIONS:
        return [f"unknown equation {config.equation!r}"]
    # a setting the run does not read would change nothing but the hash
    problems = [f"{config.equation} does not read --{f.name.replace('_', '-')}"
                for f in fields(RunConfig)[1:]
                if f.name not in (*READS[config.equation], "preset", "out")
                and getattr(config, f.name) != f.default]
    # the smol-general and prelaplace residuals skip 4 and 3 boundary nodes
    least = {"smol-general": 5, "prelaplace": 4}.get(config.equation, 2)
    if config.grid_n < least:
        problems.append(f"grid-n must be at least {least}")
    if config.preset and (config.equation, config.preset) not in PRESETS:
        problems.append(f"unknown preset {config.preset!r} for "
                        f"{config.equation}")
    accepted = PROFILES.get(config.equation)
    if accepted and config.profile not in accepted:
        problems.append(f"unknown profile {config.profile!r} for "
                        f"{config.equation}; one of {', '.join(accepted)}")
    if config.equation in SPECTRAL_EQUATIONS and \
            (config.grid_n & (config.grid_n - 1)) != 0:
        problems.append("grid-n must be a power of two (DFT restriction)")
    # a setting's value is checked only where it is read: an unread one has
    # its line above
    checks = {
        "domain_l": (config.domain_l > 0, "domain-l must be positive"),
        "t_final": (config.t_final > 0, "t-final must be positive"),
        "dt": (config.dt > 0, "dt must be positive"),
        "quadrature": (config.quadrature in QUADRATURES,
                       f"unknown quadrature {config.quadrature!r}"),
        "seed": (config.seed >= 0, "seed must be non-negative"),
        "checkpoints": (config.checkpoints >= 2,
                        "checkpoints must be at least 2"),
        "panels": (config.panels >= 2, "panels must be at least 2"),
        "nu": (config.nu > 0, "nu must be positive"),
    }
    problems += [message for name, (ok, message) in checks.items()
                 if name in READS[config.equation] and not ok]
    return problems


# ---------------------------------------------------------------------------
# serialisation


def _fmt(value) -> str:
    if isinstance(value, float) or isinstance(value, np.floating):
        return format(float(value), ".17g")
    return str(value)


def read_settings(config: RunConfig) -> dict:
    """The run's identity: its equation, then the settings it reads."""
    names = ("equation", *sorted(READS[config.equation]))
    return {name: getattr(config, name) for name in names}


def config_hash(config: RunConfig) -> str:
    blob = ";".join(f"{k}={_fmt(v)}" for k, v in read_settings(config).items())
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


# rows formatted by one % each: np.savetxt's text, without its per-row
# Python loop, and a block's text stays under a few MB
CSV_BLOCK = 4096


def _shared_texts(bits):
    """The sorted distinct values of a column of float64 bit patterns and
    their texts, if the column has at most one distinct value in eight rows;
    None otherwise.  Bit patterns keep -0.0 apart from 0.0, which float
    equality merges and %.17g writes apart."""
    ordered = np.sort(bits)
    first = np.ones(len(ordered), dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    distinct = ordered[first]
    if 8 * len(distinct) > len(bits):
        return None
    return distinct, np.array(["%.17g" % v for v in
                               distinct.view(float).tolist()], dtype=object)


def write_table(path: str, header, rows, chash: str):
    """One CSV: the hash line, the header, then ``rows``, a 2-D float array
    with one row per line, each value at 17 significant digits.  A column
    that repeats its values is formatted once per distinct value."""
    rows = np.ascontiguousarray(rows, dtype=float)
    bits = rows.view(np.int64)
    shared = [_shared_texts(column) for column in bits.T]
    line = ",".join("%.17g" if s is None else "%s" for s in shared) + "\n"
    cells = np.empty((min(CSV_BLOCK, len(rows)), rows.shape[1]),
                     dtype=object)
    with open(path, "w", newline="\n") as fh:
        fh.write(f"# config_hash={chash}\n")
        fh.write(",".join(header) + "\n")
        for start in range(0, len(rows), CSV_BLOCK):
            block = slice(start, start + CSV_BLOCK)
            size = len(rows[block])
            for j, column in enumerate(shared):
                if column is None:
                    cells[:size, j] = rows[block, j]
                else:
                    # the cells of a shared column are its texts, so no
                    # Python float is made for them
                    distinct, texts = column
                    cells[:size, j] = texts[np.searchsorted(distinct,
                                                            bits[block, j])]
            fh.write((line * size) % tuple(cells[:size].ravel().tolist()))


def write_metadata(config: RunConfig, chash: str, extra=None):
    path = os.path.join(config.out, f"{config.equation}_metadata.txt")
    with open(path, "w", newline="\n") as fh:
        fh.write(f"config_hash = {chash}\n")
        fh.write(f"version = {__version__}\n")
        for k, v in read_settings(config).items():
            fh.write(f"{k} = {_fmt(v)}\n")
        for k, v in sorted((extra or {}).items()):
            fh.write(f"{k} = {_fmt(v)}\n")


def _value(field):
    """The value_real and value_imag columns of a field, in its own dtype."""
    field = np.asarray(field)
    return {"value_real": field.real, "value_imag": field.imag}


# ---------------------------------------------------------------------------
# initial profiles


SAMPLED_PROFILES = {
    "kdv-paper": lambda x: -0.5 * np.cosh(x / 20.0),
    "nls-paper": lambda x: 0.5 * np.cosh(x / 40.0),
    "gaussian": lambda x: np.exp(-x ** 2),
    "exp": lambda x: np.exp(-x),
}


def profile_samples(name: str, x: np.ndarray) -> np.ndarray:
    return SAMPLED_PROFILES[name](x)


BURGERS_PROFILES = {
    "linear": InitialProfile(lambda a: a, np.ones_like),
    "const": InitialProfile(np.ones_like, np.zeros_like),
    "sin": InitialProfile(np.sin, np.cos),
    "neg-tanh": InitialProfile(lambda a: -np.tanh(a),
                               lambda a: -1.0 / np.cosh(a) ** 2),
}


# the profiles each equation accepts, its default first
PROFILES = {
    "kdv": ("kdv-paper", "nls-paper", "gaussian", "exp"),
    "nls": ("nls-paper", "kdv-paper", "gaussian", "exp"),
    "smol-const": ("exp", "kdv-paper", "nls-paper", "gaussian"),
    "smol-general": ("exp", "kdv-paper", "nls-paper", "gaussian"),
    "prelaplace": ("exp", "kdv-paper", "nls-paper", "gaussian"),
    "burgers": tuple(BURGERS_PROFILES), "elliptic": ("reciprocal", "tanh"),
}


# ---------------------------------------------------------------------------
# per-equation runners
#
# A runner takes read_settings(config) as attributes and write(name,
# **columns), which keeps the table <equation>_<name>.csv, its columns named
# and in order, for run to write once the runner has returned, and returns
# the entries its run adds to the metadata sidecar.  The columns broadcast
# against each other and become rows in row-major order, so a plane is
# x-outer, y-inner.  A table has a t column only if it holds more than one
# time; a one-time table's time is the sidecar's t_final.


def _checkpoint_steps(config: RunConfig):
    """The step count, the step t_final / total, which ends the last step at
    t_final, and the checkpoint steps."""
    total, dt = uniform_steps(config.t_final, config.dt)
    idx = sorted({int(round(j * total / (config.checkpoints - 1)))
                  for j in range(config.checkpoints)})
    return total, dt, idx


def _run_fredholm(config: RunConfig, write, solve, stepper, readout,
                  symbol) -> dict:
    """KdV and NLS: project at every checkpoint, then cross-validate the
    ``readout`` of the projected field against the direct ``stepper``.
    The oracle's ``nonlinear_effect`` is its largest distance from the
    linear flow under ``symbol`` of the same t = 0 data.  The first
    singular x-system raises ChartBreakdown."""
    grid = Grid1D(-config.domain_l / 2, config.domain_l / 2, config.grid_n,
                  kind="periodic")
    nodes = grid.nodes
    p0 = profile_samples(config.profile, nodes)
    total, dt, idx = _checkpoint_steps(config)
    times = [m * dt for m in idx]
    solved = []
    for t in times:
        res = solve(p0, grid, t, config.quadrature)
        if res.breakdown_locations:
            x, det = res.breakdown_locations[0]
            raise ChartBreakdown(
                f"{len(res.breakdown_locations)} singular Fredholm "
                f"system(s) at t = {t}, the first at x = {x}",
                det_value=det, location=x, t=t)
        solved.append(res)
    # (checkpoint, x) arrays, and t as a column beside them
    values = np.array([res.values for res in solved])
    det_abs = np.abs([res.det_track for res in solved])
    t = np.array(times)[:, None]
    write("poppe", x=nodes, t=t, **_value(values), det_track=det_abs)
    write("det", x=nodes, t=t, det_abs=det_abs)
    extra = {"min_abs_det": float(np.min(det_abs)),
             "sup_difference": np.nan, "step": dt,
             "x_system_unknowns": solved[0].unknowns}
    if config.compare_oracle:
        u0 = readout(values[0])
        direct = stepper(u0, grid, dt, total, checkpoints=idx)
        direct = np.array([direct[m] for m in idx])
        u0_modes = dft_forward(u0, grid)
        linear = np.array([readout(dft_inverse(propagate_dispersive(
            u0_modes, grid, symbol, tm), grid)) for tm in times])
        gap = np.abs(readout(values) - direct)
        write("direct", x=nodes, t=t, **_value(direct))
        write("difference", x=nodes, t=t, difference=gap)
        extra["sup_difference"] = float(np.max(gap))
        extra["nonlinear_effect"] = float(np.max(np.abs(direct - linear)))
    return extra


def run_kdv(config: RunConfig, write) -> dict:
    return _run_fredholm(config, write, kdv_fredholm_solve, etdrk4_kdv,
                         np.real, cubic_kdv_symbol)


def run_nls(config: RunConfig, write) -> dict:
    return _run_fredholm(config, write, nls_fredholm_solve, split_step_nls,
                         np.asarray, schrodinger_symbol)


def run_smol_const(config: RunConfig, write) -> dict:
    grid = Grid1D(0.0, config.domain_l, config.grid_n, kind="closed")
    nodes, t = grid.nodes, config.t_final
    if config.profile == "exp":
        g0 = exponential_density(grid, 1.0, 1.0)
    else:
        g0 = MassDensity(grid=grid,
                         values=profile_samples(config.profile, nodes))
    gt = constant_kernel_solve(g0, t)
    write("poppe", x=nodes, **_value(gt.values))
    extra = {"m0": gt.m0, "m1": gt.m1,
             "m0_closed_form": m0_closed_form(0.0, -0.5, g0.m0, t)}
    if config.compare_oracle:
        direct = direct_smol_oracle(g0, t, config.dt)
        gap = np.abs(gt.values - direct.values)
        write("direct", x=nodes, **_value(direct.values))
        write("difference", x=nodes, difference=gap)
        extra["sup_difference"] = float(np.max(gap))
        extra["step"] = uniform_steps(t, config.dt)[1]
    return extra


def run_smol_general(config: RunConfig, write) -> dict:
    grid = Grid1D(0.0, config.domain_l, config.grid_n, kind="closed")
    nodes = grid.nodes
    g0 = MassDensity(grid=grid, values=profile_samples(config.profile, nodes))
    if config.preset == "constant-kernel":
        coeffs = SmolCoefficients(b0_delta=-0.5, include_loss=True)
    else:
        coeffs = SmolCoefficients(d_poly=(-1.0,))
    g, residual = general_smol_residual(coeffs, g0, config.t_final,
                                        dt=config.dt)
    gt = MassDensity(grid=grid, values=g)
    write("poppe", x=nodes, **_value(g))
    return {"pde_residual": residual, "m0": gt.m0, "m1": gt.m1}


def run_prelaplace(config: RunConfig, write) -> dict:
    grid = Grid1D(0.0, config.domain_l, config.grid_n, kind="closed")
    nodes = grid.nodes
    q0 = profile_samples(config.profile, nodes)
    g, residual = pre_laplace_burgers_residual(q0, grid, config.nu,
                                               config.t_final, config.dt)
    g_init = pre_laplace_burgers_solve(q0, grid, config.nu, 0.0)
    write("poppe", x=nodes, t=np.array([[config.t_final], [0.0]]),
          **_value(np.array([g, g_init])))
    return {"pde_residual": residual}


def run_burgers(config: RunConfig, write) -> dict:
    profile = BURGERS_PROFILES[config.profile]
    x = np.linspace(-config.domain_l / 2, config.domain_l / 2, config.grid_n)
    fld = inviscid_burgers_eval(x, config.t_final, profile)
    write("field", x=x, **_value(fld.values))
    extra = {"flagged_nodes": len(fld.flagged)}
    if config.compare_oracle and config.profile in ("sin",):
        fine = 4 * config.grid_n
        h = config.domain_l / fine
        xs = -config.domain_l / 2 + h * np.arange(fine)
        oracle = upwind_oracle(profile(xs), h, config.t_final)
        # the oracle is periodic: x = +L/2 reads it at -L/2
        interp = np.interp(x, xs, oracle, period=config.domain_l)
        gap = np.abs(fld.values - interp)
        write("difference", x=x, difference=gap)
        extra["sup_difference"] = float(np.nanmax(gap))
    if fld.flagged:
        raise ShockProximity(
            f"{len(fld.flagged)} nodes flagged near a shock at "
            f"t = {config.t_final}; first at x = {fld.flagged[0][1]}",
            det_value=fld.flagged[0][2], location=fld.flagged[0][1])
    return extra


def run_spde(config: RunConfig, write) -> dict:
    params = SpdeParams(alpha=1.0, beta=0.0, gamma=10.0, epsilon=1000.0)
    t = config.t_final
    steps, step = uniform_steps(t, config.dt, least=2)
    # one sheet serves both schemes: its resolution must subdivide into the
    # direct scheme's steps and the quadrature panels alike, and it does not
    # depend on whether the direct scheme runs, nor then does the Poppe field
    resolution = int(np.lcm(steps, config.panels))
    sheet = BrownianSheetModes.generate(config.seed, config.grid_n, t,
                                        resolution)
    g0 = sech_ridge_initial(config.grid_n, 0.001, config.seed)
    poppe = spde_poppe_run(g0, params, sheet, panels=config.panels)
    nodes = 2.0 * np.pi * np.arange(config.grid_n) / config.grid_n
    xy = {"x": nodes[:, None], "y": nodes}
    write("poppe", **xy, **_value(poppe.g.samples))
    write("det", t=np.linspace(0, t, config.panels + 1),
          det_abs=poppe.det_track)
    extra = {"sup_difference": np.nan,
             "min_abs_det": float(np.min(poppe.det_track)),
             "solve_residual": poppe.solve_residual}
    if config.compare_oracle:
        direct = spde_direct_run(g0, params, sheet, steps)
        gap = np.abs(direct.samples - poppe.g.samples)
        write("direct", **xy, **_value(direct.samples))
        write("difference", **xy, difference=gap)
        extra["sup_difference"] = float(np.max(gap))
        extra["step"] = step
    return extra


def run_quotient(config: RunConfig, write) -> dict:
    grid = Grid1D(0.0, config.domain_l, config.grid_n, kind="periodic")
    nodes = grid.nodes
    centre = config.domain_l / 2
    width = config.domain_l / 8
    xx, yy = np.meshgrid(nodes, nodes, indexing="ij")
    g0 = np.exp(-((xx - centre) ** 2 + (yy - centre) ** 2) / width ** 2)
    coeffs = QuotientCoefficients(dispersion=lambda s: -s ** 2,
                                  b=lambda y: np.ones_like(y))
    g, residual = quotient_residual(g0, grid, coeffs, config.t_final,
                                    dt=config.dt)
    # the field is real by its equation (real data, dispersion -s^2, b = 1):
    # the imaginary part of quotient_solve's complex arithmetic is rounding
    write("field", x=nodes[:, None], y=nodes, **_value(g.real))
    return {"pde_residual": residual}


def run_elliptic(config: RunConfig, write) -> dict:
    grid = Grid1D(0.0, config.domain_l, config.grid_n, kind="closed")
    zeros, ones = np.zeros(grid.n), np.ones(grid.n)
    if config.profile == "tanh":
        coeffs = EllipticCoefficients(grid, zeros, ones, ones, zeros)
    else:
        coeffs = EllipticCoefficients(grid, zeros, ones, zeros, zeros)
    q0, p0 = (1.0, 0.0) if config.profile == "tanh" else (1.0, 1.0)
    sol = elliptic_quotient_solve(coeffs, q0, p0)
    write("field", x=grid.nodes, **_value(sol.g))
    return {"ode_residual": sol.residual}


RUNNERS = {
    "kdv": run_kdv, "nls": run_nls, "smol-const": run_smol_const,
    "smol-general": run_smol_general, "prelaplace": run_prelaplace,
    "burgers": run_burgers, "spde": run_spde, "quotient": run_quotient,
    "elliptic": run_elliptic,
}

# the settings each runner reads, all that run hands it besides the equation
PROFILE_RUN = ("grid_n", "domain_l", "profile", "t_final")
READS = {
    "kdv": PROFILE_RUN + ("dt", "checkpoints", "quadrature", "compare_oracle"),
    "nls": PROFILE_RUN + ("dt", "checkpoints", "quadrature", "compare_oracle"),
    "smol-const": PROFILE_RUN + ("dt", "compare_oracle"),
    "smol-general": PROFILE_RUN + ("preset", "dt"),
    "prelaplace": PROFILE_RUN + ("nu", "dt"),
    "burgers": PROFILE_RUN + ("compare_oracle",),
    "spde": ("grid_n", "seed", "t_final", "dt", "panels", "compare_oracle"),
    "quotient": ("grid_n", "domain_l", "t_final", "dt"),
    "elliptic": ("grid_n", "domain_l", "profile"),
}


def run(config: RunConfig) -> int:
    problems = validate(config)
    if problems:
        for p in problems:
            print(f"precondition violated: {p}", file=sys.stderr)
        return 2
    os.makedirs(config.out, exist_ok=True)
    chash = config_hash(config)

    tables = []

    def write_tables():
        for name, columns in tables:
            rows = np.stack(np.broadcast_arrays(*columns.values()), axis=-1)
            write_table(os.path.join(config.out,
                                     f"{config.equation}_{name}.csv"),
                        tuple(columns), rows.reshape(-1, len(columns)), chash)

    try:
        extra = RUNNERS[config.equation](
            SimpleNamespace(**read_settings(config)),
            lambda name, **columns: tables.append((name, columns)))
    except Breakdown as exc:
        # a failed run leaves no tables, except a shock's field, which is
        # whole but for its flagged NaN nodes
        if isinstance(exc, ShockProximity):
            write_tables()
        t = config.t_final if exc.t is None else exc.t
        print(f"breakdown: {exc} (t = {t}, location = {exc.location}, "
              f"determinant = {exc.det_value})", file=sys.stderr)
        return 1
    except GrassflowError as exc:
        print(f"breakdown: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    write_tables()
    write_metadata(config, chash, extra)
    return 0


# ---------------------------------------------------------------------------
# argument handling


def _config_file_argv(path: str) -> list:
    """The ``key = value`` lines of a config file as ``--key value`` flags."""
    argv = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition("=")
            argv += ["--" + key.strip().replace("_", "-"), value.strip()]
    return argv


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="grassflow",
        description="Nonlinear PDE solvers by linear base flows and "
                    "Fredholm/Riccati projection, with direct oracles.")
    parser.add_argument("equation", choices=EQUATIONS)
    parser.add_argument("--config", default=None,
                        help="key-value text file with the same keys as "
                             "the flags")
    # a flag of its name and type for each RunConfig field after equation
    choices = {"quadrature": QUADRATURES, "compare_oracle": ("on", "off")}
    for f in fields(RunConfig)[1:]:
        kind = ({"choices": choices[f.name]} if f.name in choices
                else {"type": f.type})
        parser.add_argument("--" + f.name.replace("_", "-"), **kind)
    parser.add_argument("--validate-only", action="store_true")
    return parser


def config_from_args(args) -> RunConfig:
    config = RunConfig(equation=args.equation)
    overridden = set()
    for f in fields(RunConfig)[1:]:
        value = getattr(args, f.name)
        if value is not None:
            # compare_oracle, the one bool field, is set by on/off
            setattr(config, f.name, value == "on" if f.type is bool else value)
            overridden.add(f.name)
    return apply_preset(config, overridden)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.config:
        # the file's values parse first; parsing the flags into that
        # namespace keeps each value no flag sets again
        args = parser.parse_args(argv, namespace=parser.parse_args(
            [args.equation] + _config_file_argv(args.config)))
    config = config_from_args(args)
    if args.validate_only:
        problems = validate(config)
        for p in problems:
            print(f"precondition violated: {p}")
        print(f"{len(problems)} violation(s)")
        return 0 if not problems else 2
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
