"""Command-line front end.

One subcommand per equation, shared flags, reproducible runs: every output
CSV embeds a hash of the full configuration, and a metadata sidecar echoes
the configuration so a run can be reconstructed from its outputs alone.
"""

import argparse
import hashlib
import os
import sys
from dataclasses import asdict, dataclass, fields

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
                           general_smol_residual,
                           m0_constant_kernel, pre_laplace_burgers_residual,
                           pre_laplace_burgers_solve)
from .spde import (BrownianSheetModes, SpdeParams, sech_ridge_initial,
                   spde_direct_run, spde_poppe_run)

EQUATIONS = ("kdv", "nls", "smol-const", "smol-general", "prelaplace",
             "burgers", "spde", "quotient", "elliptic")

SPECTRAL_EQUATIONS = ("kdv", "nls", "spde", "quotient")

QUADRATURES = ("riemann-left", "trapezoid", "gauss-legendre")


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
    quadrature: str = "riemann-left"
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
    ("spde", "paper"): dict(grid_n=32, domain_l=2.0 * np.pi, t_final=0.007,
                            dt=0.007 / 256, profile="sech-ridge"),
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
    problems = []
    if config.equation not in EQUATIONS:
        problems.append(f"unknown equation {config.equation!r}")
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
    if config.domain_l <= 0:
        problems.append("domain-l must be positive")
    if config.t_final <= 0:
        problems.append("t-final must be positive")
    if config.dt <= 0:
        problems.append("dt must be positive")
    if config.quadrature not in QUADRATURES:
        problems.append(f"unknown quadrature {config.quadrature!r}")
    if config.seed < 0:
        problems.append("seed must be non-negative")
    if config.checkpoints < 2:
        problems.append("checkpoints must be at least 2")
    if config.panels < 2:
        problems.append("panels must be at least 2")
    if config.equation == "prelaplace" and config.nu <= 0:
        problems.append("nu must be positive")
    return problems


# ---------------------------------------------------------------------------
# serialisation


def _fmt(value) -> str:
    if isinstance(value, float) or isinstance(value, np.floating):
        return format(float(value), ".17g")
    return str(value)


def config_hash(config: RunConfig) -> str:
    # the output location is not part of the run's identity
    blob = ";".join(f"{k}={_fmt(v)}"
                    for k, v in sorted(asdict(config).items()) if k != "out")
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


# rows formatted by one % each: np.savetxt's text, without its per-row
# Python loop, and a block's text stays under a few MB
CSV_BLOCK = 4096


def write_table(path: str, header, rows, chash: str):
    """One CSV: the hash line, the header, then ``rows``, a 2-D float array
    with one row per line, each value at 17 significant digits."""
    rows = np.asarray(rows)
    line = ",".join(["%.17g"] * rows.shape[1]) + "\n"
    with open(path, "w", newline="\n") as fh:
        fh.write(f"# config_hash={chash}\n")
        fh.write(",".join(header) + "\n")
        for start in range(0, len(rows), CSV_BLOCK):
            block = rows[start:start + CSV_BLOCK]
            fh.write((line * len(block)) % tuple(block.ravel().tolist()))


def write_metadata(config: RunConfig, chash: str, extra=None):
    path = os.path.join(config.out, f"{config.equation}_metadata.txt")
    with open(path, "w", newline="\n") as fh:
        fh.write(f"config_hash = {chash}\n")
        fh.write(f"version = {__version__}\n")
        for k, v in sorted(asdict(config).items()):
            fh.write(f"{k} = {_fmt(v)}\n")
        for k, v in sorted((extra or {}).items()):
            fh.write(f"{k} = {_fmt(v)}\n")


def _columns(*columns):
    """A table from equal-length columns, scalars broadcast along them."""
    return np.column_stack(np.broadcast_arrays(*columns))


def _plane_xy(nodes):
    """The x (outer) and y (inner) columns of the n x n tensor grid, in the
    row-major order of an (n, n) field."""
    return np.repeat(nodes, len(nodes)), np.tile(nodes, len(nodes))


def _field_table(coords, t, values, det=np.nan):
    """Rows of a field sampled at the points of ``coords`` (x, or the x and
    y of _plane_xy): the coords, t, value_real, value_imag and det."""
    vals = np.asarray(values, dtype=complex).ravel()
    return _columns(*coords, t, vals.real, vals.imag, det)


FIELD_HEADER = ("x", "t", "value_real", "value_imag", "det_track")
PLANE_HEADER = ("x", "y") + FIELD_HEADER[1:]
DIFF_HEADER = ("x", "t", "difference")


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
    "burgers": tuple(BURGERS_PROFILES), "spde": ("sech-ridge",),
    "quotient": ("gaussian",), "elliptic": ("reciprocal", "tanh"),
}


# ---------------------------------------------------------------------------
# per-equation runners
#
# A runner takes the configuration and write(name, header, rows), which
# keeps the table <equation>_<name>.csv for run to write once the runner
# has returned, and returns the entries its run adds to the metadata
# sidecar.


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
    poppe_rows, det_rows, diff_rows, direct_rows = [], [], [], []
    results = {}
    for m in idx:
        t = m * dt
        res = solve(p0, grid, t, config.quadrature)
        if res.breakdown_locations:
            x, det = res.breakdown_locations[0]
            raise ChartBreakdown(
                f"{len(res.breakdown_locations)} singular Fredholm "
                f"system(s) at t = {t}, the first at x = {x}",
                det_value=det, location=x, t=t)
        results[m] = res
        det_abs = np.abs(res.det_track)
        poppe_rows.append(_field_table((nodes,), t, res.values, det_abs))
        det_rows.append(_columns(nodes, t, det_abs))
    write("poppe", FIELD_HEADER, np.vstack(poppe_rows))
    write("det", ("x", "t", "det_abs"), np.vstack(det_rows))
    extra = {"min_abs_det": min(float(np.min(np.abs(r.det_track)))
                                for r in results.values()),
             "sup_difference": np.nan, "step": dt,
             "x_system_unknowns": results[0].unknowns}
    if config.compare_oracle:
        u0 = readout(results[0].values)
        direct = stepper(u0, grid, dt, total, checkpoints=idx)
        u0_modes = dft_forward(u0, grid)
        sup = effect = 0.0
        for m in idx:
            t = m * dt
            direct_rows.append(_field_table((nodes,), t, direct[m]))
            gap = np.abs(readout(results[m].values) - direct[m])
            diff_rows.append(_columns(nodes, t, gap))
            sup = max(sup, float(np.max(gap)))
            linear = readout(dft_inverse(propagate_dispersive(
                u0_modes, grid, symbol, t), grid))
            effect = max(effect, float(np.max(np.abs(direct[m] - linear))))
        write("direct", FIELD_HEADER, np.vstack(direct_rows))
        write("difference", DIFF_HEADER, np.vstack(diff_rows))
        extra["sup_difference"] = sup
        extra["nonlinear_effect"] = effect
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
    write("poppe", FIELD_HEADER, _field_table((nodes,), t, gt.values))
    extra = {"m0": gt.m0, "m1": gt.m1,
             "m0_closed_form": m0_constant_kernel(g0.m0, t)}
    if config.compare_oracle:
        direct = direct_smol_oracle(g0, t, config.dt)
        gap = np.abs(gt.values - direct.values)
        write("direct", FIELD_HEADER, _field_table((nodes,), t, direct.values))
        write("difference", DIFF_HEADER, _columns(nodes, t, gap))
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
    write("poppe", FIELD_HEADER, _field_table((nodes,), config.t_final, g))
    return {"pde_residual": residual, "m0": gt.m0, "m1": gt.m1}


def run_prelaplace(config: RunConfig, write) -> dict:
    grid = Grid1D(0.0, config.domain_l, config.grid_n, kind="closed")
    nodes = grid.nodes
    q0 = profile_samples(config.profile, nodes)
    g, residual = pre_laplace_burgers_residual(q0, grid, config.nu,
                                               config.t_final, config.dt)
    g_init = pre_laplace_burgers_solve(q0, grid, config.nu, 0.0)
    rows = np.vstack((
        _field_table((nodes,), config.t_final, g),
        _field_table((nodes,), 0.0, g_init)))
    write("poppe", FIELD_HEADER, rows)
    return {"pde_residual": residual}


def run_burgers(config: RunConfig, write) -> dict:
    profile = BURGERS_PROFILES[config.profile]
    x = np.linspace(-config.domain_l / 2, config.domain_l / 2, config.grid_n)
    fld = inviscid_burgers_eval(x, config.t_final, profile)
    write("field", FIELD_HEADER,
          _field_table((x,), config.t_final, fld.values))
    extra = {"flagged_nodes": len(fld.flagged)}
    if config.compare_oracle and config.profile in ("sin",):
        fine = 4 * config.grid_n
        h = config.domain_l / fine
        xs = -config.domain_l / 2 + h * np.arange(fine)
        oracle = upwind_oracle(profile(xs), h, config.t_final)
        # the oracle is periodic: x = +L/2 reads it at -L/2
        interp = np.interp(x, xs, oracle, period=config.domain_l)
        gap = np.abs(fld.values - interp)
        write("difference", DIFF_HEADER, _columns(x, config.t_final, gap))
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
    # direct scheme's steps and the quadrature panels alike
    resolution = int(np.lcm(steps, config.panels))
    sheet = BrownianSheetModes.generate(config.seed, config.grid_n, t,
                                        resolution)
    g0 = sech_ridge_initial(config.grid_n, 0.001, config.seed)
    direct = spde_direct_run(g0, params, sheet, steps)
    poppe = spde_poppe_run(g0, params, sheet, panels=config.panels)
    xy = _plane_xy(2.0 * np.pi * np.arange(config.grid_n) / config.grid_n)
    write("direct", PLANE_HEADER, _field_table(xy, t, direct.samples))
    write("poppe", PLANE_HEADER, _field_table(xy, t, poppe.g.samples))
    gap = np.abs(direct.samples - poppe.g.samples)
    write("difference", ("x", "y") + DIFF_HEADER[1:],
          _columns(*xy, t, gap.ravel()))
    write("det", ("t", "det_abs"),
          _columns(np.linspace(0, t, config.panels + 1), poppe.det_track))
    return {"sup_difference": float(np.max(gap)),
            "min_abs_det": float(np.min(poppe.det_track)),
            "solve_residual": poppe.solve_residual, "step": step}


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
    write("field", PLANE_HEADER,
          _field_table(_plane_xy(nodes), config.t_final, g))
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
    write("field", FIELD_HEADER,
          _field_table((grid.nodes,), 0.0, sol.g))
    return {"ode_residual": sol.residual}


RUNNERS = {
    "kdv": run_kdv, "nls": run_nls, "smol-const": run_smol_const,
    "smol-general": run_smol_general, "prelaplace": run_prelaplace,
    "burgers": run_burgers, "spde": run_spde, "quotient": run_quotient,
    "elliptic": run_elliptic,
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
        for name, header, rows in tables:
            write_table(os.path.join(config.out,
                                     f"{config.equation}_{name}.csv"),
                        header, rows, chash)

    try:
        extra = RUNNERS[config.equation](config, lambda *table:
                                         tables.append(table))
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
    overridden.discard("preset")
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
