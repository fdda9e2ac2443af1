"""Command-line front end.

One subcommand per equation, reproducible runs: every output CSV embeds a
hash of the equation and the settings its run reads (Equation.reads), and a
metadata sidecar echoes them, so a run can be rebuilt from its outputs alone.
"""

import argparse
import os
import sys
from dataclasses import dataclass, field, fields
from types import SimpleNamespace

import numpy as np

# CPython's built-in SHA-256 (_sha2 from 3.12, _sha256 before): the digest
# hashlib gives, without the OpenSSL library hashlib loads on import
try:
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

from . import __version__, floattext
from .core import Grid1D, uniform_steps
from .errors import Breakdown, ChartBreakdown, GrassflowError, ShockProximity
from .graphflows import InitialProfile, inviscid_burgers_eval, spectral_oracle
from .integrable import (cubic_kdv_symbol, etdrk4_kdv, kdv_fredholm_solve,
                         nls_fredholm_solve, propagate_dispersive,
                         schrodinger_symbol, split_step_nls)
from .quotient import (EllipticCoefficients, QuotientCoefficients,
                       elliptic_quotient_solve, quotient_residual)
from .smoluchowski import (CONSTANT_KERNEL, SmolCoefficients,
                           constant_kernel_solve, direct_smol_oracle,
                           general_smol_residual, general_smol_solve,
                           m0_closed_form, m0_rates, moments,
                           pre_laplace_burgers_residual,
                           pre_laplace_burgers_solve)
from .spde import (BrownianSheetModes, SpdeParams, sech_ridge_initial,
                   spde_direct_run, spde_poppe_run)

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
        equation = EQUATIONS.get(self.equation)
        if not self.profile and equation and equation.profiles:
            self.profile = equation.profiles[0]


@dataclass(frozen=True)
class Equation:
    """An equation's runner, the settings it reads (all that run hands the
    runner), the profiles it accepts (its default first), its presets, its
    least node count, a power of two where its grid is a DFT's, and whether
    its residual is a central difference in t, which solves at
    t-final - dt."""

    runner: callable
    reads: tuple
    profiles: tuple = ()
    presets: dict = field(default_factory=dict)
    least_n: int = 2
    power_of_two: bool = False
    central_in_t: bool = False


def apply_preset(config: RunConfig, overridden=()) -> RunConfig:
    # no preset, or an unknown one, sets nothing; validate reports the latter
    presets = EQUATIONS[config.equation].presets
    for name, value in presets.get(config.preset, {}).items():
        if name not in overridden:
            setattr(config, name, value)
    return config


def validate(config: RunConfig) -> list:
    """Every violated precondition, one human-readable line each."""
    if config.equation not in EQUATIONS:
        return [f"unknown equation {config.equation!r}"]
    equation = EQUATIONS[config.equation]
    reads = equation.reads
    # a setting the run does not read would change nothing but the hash
    problems = [f"{config.equation} does not read --{f.name.replace('_', '-')}"
                for f in fields(RunConfig)[1:]
                if f.name not in (*reads, "preset", "out")
                and getattr(config, f.name) != f.default]
    if config.grid_n < equation.least_n:
        problems.append(f"grid-n must be at least {equation.least_n}")
    if config.preset and config.preset not in equation.presets:
        problems.append(f"unknown preset {config.preset!r} for "
                        f"{config.equation}")
    accepted = equation.profiles
    if accepted and config.profile not in accepted:
        problems.append(f"unknown profile {config.profile!r} for "
                        f"{config.equation}; one of {', '.join(accepted)}")
    if equation.power_of_two and (config.grid_n & (config.grid_n - 1)) != 0:
        problems.append("grid-n must be a power of two (DFT restriction)")
    # a setting's value is checked only where it is read: an unread one has
    # its line above.  0 < value < inf refuses NaN too.
    positive = "must be positive and finite"
    checks = {
        "domain_l": (0 < config.domain_l < np.inf, f"domain-l {positive}"),
        "t_final": (0 < config.t_final < np.inf, f"t-final {positive}"),
        "dt": (0 < config.dt < np.inf, f"dt {positive}"),
        "quadrature": (config.quadrature in QUADRATURES,
                       f"unknown quadrature {config.quadrature!r}"),
        # the seed is a 64-bit word of the noise stream's key
        "seed": (0 <= config.seed < 2 ** 64,
                 "seed must be non-negative" if config.seed < 0
                 else "seed must be below 2**64"),
        "checkpoints": (config.checkpoints >= 2,
                        "checkpoints must be at least 2"),
        "panels": (config.panels >= 2, "panels must be at least 2"),
        "nu": (0 < config.nu < np.inf, f"nu {positive}"),
    }
    problems += [message for name, (ok, message) in checks.items()
                 if name in reads and not ok]
    # a run that reads both steps t-final / dt times, or solves at t +- dt
    steps = None
    if {"t_final", "dt"} <= set(reads) and checks["t_final"][0] \
            and checks["dt"][0]:
        if equation.central_in_t and config.dt > config.t_final:
            problems.append("dt must be at most t-final: the residual "
                            "solves at t-final - dt")
        elif config.t_final / config.dt < np.inf:
            steps = uniform_steps(config.t_final, config.dt)[0]
        else:
            problems.append("t-final / dt must be finite")
    # one checkpoint at t = 0 and at most one per step, or where the run
    # reads panels, per panel, keeps them distinct
    bound = None
    if "panels" in reads:
        bound = config.panels + 1, "panels + 1"
    elif "checkpoints" in reads and steps is not None:
        bound = steps + 1, "the step count round(t-final / dt) plus one"
    if bound and config.checkpoints > bound[0]:
        problems.append(f"checkpoints must be at most {bound[0]}, {bound[1]}")
    return problems


# ---------------------------------------------------------------------------
# serialisation


def _fmt(value) -> str:
    if isinstance(value, float) or isinstance(value, np.floating):
        return format(float(value), ".17g")
    return str(value)


def read_settings(config: RunConfig) -> dict:
    """The run's identity: its equation, then the settings it reads."""
    names = ("equation", *sorted(EQUATIONS[config.equation].reads))
    return {name: getattr(config, name) for name in names}


def config_hash(config: RunConfig) -> str:
    blob = ";".join(f"{k}={_fmt(v)}" for k, v in read_settings(config).items())
    return sha256(blob.encode()).hexdigest()[:16]


def write_table(path: str, header, rows, chash: str):
    """One CSV: the hash line, the header, then ``rows``, a 2-D float array
    with one row per line, each value as ``"%.17g" % value``.

    No Python float is made per value: floattext.g17_slots spells the text
    with exact digits, or leaves a value to ``%`` where its arithmetic could
    round either way, so the bytes are those of ``%``.  A column broadcast
    over the table's grid, such as a plane's x and y, a series' t or an
    all-zero value_imag, has its pattern formatted once."""
    rows = np.ascontiguousarray(rows, dtype=float)
    n_rows, n_cols = rows.shape
    patterns = {}
    for j, column in enumerate(rows.view(np.int64).T):
        found = floattext.grid_pattern(column)
        if found:
            patterns[j] = found[0], floattext.g17_slots(found[1].view(float))
    own = [j for j in range(n_cols) if j not in patterns]
    per = max(1, floattext.BLOCK // n_cols)
    # the separator sits in byte 31 of each value's words: deleting the NUL
    # bytes closes the text up to it
    seps = np.array([ord(",")] * (n_cols - 1) + [ord("\n")],
                    dtype=np.uint64) << np.uint64(56)
    slots = np.empty((per, n_cols, 4), dtype="<u8")
    with open(path, "wb") as fh:
        fh.write(f"# config_hash={chash}\n{','.join(header)}\n".encode())
        for start in range(0, n_rows, per):
            block = slots[:min(per, n_rows - start)]
            if own:
                block[:, own] = floattext.g17_slots(
                    rows[start:start + len(block), own].ravel()).reshape(
                    len(block), len(own), 4)
            index = np.arange(start, start + len(block))
            for j, (run, texts) in patterns.items():
                block[:, j] = texts.take(index // run % len(texts), axis=0)
            block[..., 3] |= seps
            fh.write(block.tobytes().translate(None, b"\0"))


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


def _sampled(default: str) -> tuple:
    """The sampled profiles, ``default`` first."""
    return default, *(name for name in SAMPLED_PROFILES if name != default)


BURGERS_PROFILES = {
    "linear": InitialProfile(lambda a: a, np.ones_like),
    "const": InitialProfile(np.ones_like, np.zeros_like),
    "sin": InitialProfile(np.sin, np.cos, period=2 * np.pi),
    "neg-tanh": InitialProfile(lambda a: -np.tanh(a),
                               lambda a: -1.0 / np.cosh(a) ** 2),
}

# each elliptic profile's coefficients (a, b, c, d), constant on the grid,
# and its initial values (q0, p0)
ELLIPTIC_PROFILES = {"reciprocal": ((0.0, 1.0, 0.0, 0.0), (1.0, 1.0)),
                     "tanh": ((0.0, 1.0, 1.0, 0.0), (1.0, 0.0))}


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


def _evenly_spread(total: int, count: int) -> list:
    """``count`` evenly spread indices from 0 to ``total``, distinct under
    validate's bound count <= total + 1."""
    return [round(j * total / (count - 1)) for j in range(count)]


def _cross_validate(write, coords, projected, direct) -> float:
    """Write the ``direct`` oracle's field and its gap to the ``projected``
    one, both over the columns ``coords``, and return the largest gap."""
    gap = np.abs(projected - direct)
    write("direct", **coords, **_value(direct))
    write("difference", **coords, difference=gap)
    return float(np.max(gap))


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
    p0 = SAMPLED_PROFILES[config.profile](nodes)
    # the step t_final / total ends the last step at t_final
    total, dt = uniform_steps(config.t_final, config.dt)
    idx = _evenly_spread(total, config.checkpoints)
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
        linear = np.array([readout(propagate_dispersive(u0, grid, symbol, tm))
                           for tm in times])
        extra["sup_difference"] = _cross_validate(
            write, {"x": nodes, "t": t}, readout(values), direct)
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
    g0 = SAMPLED_PROFILES[config.profile](nodes)
    # the exp profile, 1 e^{-1 x}, inverts in closed form
    gt = (constant_kernel_solve(grid, 1.0, 1.0, t) if config.profile == "exp"
          else general_smol_solve(CONSTANT_KERNEL, g0, grid, t))
    write("poppe", x=nodes, **_value(gt))
    m0, m1 = moments(gt, grid)
    extra = {"m0": m0, "m1": m1,
             "m0_closed_form": m0_closed_form(*m0_rates(CONSTANT_KERNEL, grid),
                                              moments(g0, grid)[0], t)}
    if config.compare_oracle:
        direct = direct_smol_oracle(g0, grid, t, config.dt)
        extra["sup_difference"] = _cross_validate(write, {"x": nodes}, gt,
                                                  direct)
        extra["step"] = uniform_steps(t, config.dt)[1]
    return extra


def run_smol_general(config: RunConfig, write) -> dict:
    grid = Grid1D(0.0, config.domain_l, config.grid_n, kind="closed")
    nodes = grid.nodes
    g0 = SAMPLED_PROFILES[config.profile](nodes)
    coeffs = (CONSTANT_KERNEL if config.preset == "constant-kernel"
              else SmolCoefficients(d=-1.0))
    g, residual = general_smol_residual(coeffs, g0, grid, config.t_final,
                                        dt=config.dt)
    write("poppe", x=nodes, **_value(g))
    m0, m1 = moments(g, grid)
    return {"pde_residual": residual, "m0": m0, "m1": m1}


def run_prelaplace(config: RunConfig, write) -> dict:
    grid = Grid1D(0.0, config.domain_l, config.grid_n, kind="closed")
    nodes = grid.nodes
    q0 = SAMPLED_PROFILES[config.profile](nodes)
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
    # past a shock the truncated spectral oracle is not the entropy
    # solution, so a flagged run writes no difference table
    if fld.flagged:
        raise ShockProximity(
            f"{len(fld.flagged)} nodes flagged near a shock at "
            f"t = {config.t_final}; first at x = {fld.flagged[0][1]}",
            det_value=fld.flagged[0][2], location=fld.flagged[0][1])
    extra = {}
    # a periodic profile's oracle runs on its own period, not on domain_l
    if config.compare_oracle and profile.period:
        oracle = spectral_oracle(profile, profile.period, config.t_final, x)
        gap = np.abs(fld.values - oracle)
        write("difference", x=x, difference=gap)
        extra["sup_difference"] = float(np.nanmax(gap))
    return extra


def run_spde(config: RunConfig, write) -> dict:
    params = SpdeParams()
    t = config.t_final
    steps, step = uniform_steps(t, config.dt, least=2)
    # one sheet serves both schemes: its resolution must subdivide into the
    # direct scheme's steps and the quadrature panels alike, and it does not
    # depend on whether the direct scheme runs, nor then does the Poppe field
    resolution = int(np.lcm(steps, config.panels))
    sheet = BrownianSheetModes.generate(config.seed, config.grid_n, t,
                                        resolution)
    g0 = sech_ridge_initial(config.grid_n, 0.001, config.seed)
    # the determinant is a diagnostic, taken at evenly spread panels
    idx = _evenly_spread(config.panels, config.checkpoints)
    poppe = spde_poppe_run(g0, params, sheet, panels=config.panels,
                           det_panels=idx)
    nodes = 2.0 * np.pi * np.arange(config.grid_n) / config.grid_n
    xy = {"x": nodes[:, None], "y": nodes}
    write("poppe", **xy, **_value(poppe.g.samples))
    write("det", t=np.linspace(0, t, config.panels + 1)[idx],
          det_abs=poppe.det_track)
    extra = {"sup_difference": np.nan,
             "min_abs_det": float(np.min(poppe.det_track)),
             "solve_residual": poppe.solve_residual}
    if config.compare_oracle:
        direct = spde_direct_run(g0, params, sheet, steps)
        extra["sup_difference"] = _cross_validate(write, xy, poppe.g.samples,
                                                  direct.samples)
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
    constants, initial = ELLIPTIC_PROFILES[config.profile]
    coeffs = EllipticCoefficients(grid, *(np.full(grid.n, c)
                                          for c in constants))
    sol = elliptic_quotient_solve(coeffs, *initial)
    write("field", x=grid.nodes, **_value(sol.g))
    return {"ode_residual": sol.residual}


PROFILE_RUN = ("grid_n", "domain_l", "profile", "t_final")
FREDHOLM_RUN = PROFILE_RUN + ("dt", "checkpoints", "quadrature",
                              "compare_oracle")
EQUATIONS = {
    "kdv": Equation(run_kdv, FREDHOLM_RUN, _sampled("kdv-paper"), {
        "paper": dict(grid_n=256, domain_l=10.0, dt=1e-2, t_final=15.0,
                      profile="kdv-paper", quadrature="gauss-legendre")},
        power_of_two=True),
    "nls": Equation(run_nls, FREDHOLM_RUN, _sampled("nls-paper"), {
        "paper": dict(grid_n=256, domain_l=40.0, dt=5e-2, t_final=100.0,
                      profile="nls-paper", quadrature="gauss-legendre")},
        power_of_two=True),
    "smol-const": Equation(
        run_smol_const, PROFILE_RUN + ("dt", "compare_oracle"),
        _sampled("exp"), {"paper": dict(grid_n=1024, domain_l=40.0,
                                        t_final=2.0, dt=1e-2, profile="exp")}),
    "smol-general": Equation(
        run_smol_general, PROFILE_RUN + ("preset", "dt"), _sampled("exp"),
        {"constant-kernel": dict(grid_n=512, domain_l=40.0, t_final=1.0,
                                 profile="exp")}, central_in_t=True),
    # the residual skips 3 boundary nodes
    "prelaplace": Equation(run_prelaplace, PROFILE_RUN + ("nu", "dt"),
                           _sampled("exp"), least_n=4, central_in_t=True),
    "burgers": Equation(run_burgers, PROFILE_RUN + ("compare_oracle",),
                        tuple(BURGERS_PROFILES)),
    "spde": Equation(run_spde, ("grid_n", "seed", "t_final", "dt", "panels",
                                "checkpoints", "compare_oracle"), (), {
        "paper": dict(grid_n=32, t_final=0.007, dt=0.007 / 256)},
        power_of_two=True),
    "quotient": Equation(run_quotient, ("grid_n", "domain_l", "t_final", "dt"),
                         power_of_two=True, central_in_t=True),
    "elliptic": Equation(run_elliptic, ("grid_n", "domain_l", "profile"),
                         tuple(ELLIPTIC_PROFILES), least_n=3),
}
# run dispatches through this view: the benchmark's tracer finds a runner in
# a module-level dict, not inside a record
RUNNERS = {name: equation.runner for name, equation in EQUATIONS.items()}


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
        fields = {"t": config.t_final if exc.t is None else exc.t,
                  "location": exc.location, "determinant": exc.det_value}
        shown = ", ".join(f"{k} = {v}" for k, v in fields.items()
                          if v is not None)
        print(f"breakdown: {exc} ({shown})", file=sys.stderr)
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
