"""The benchmark's workloads: each is a list of `grassflow` CLI jobs.

A pass runs every job of its workload once, in order, in one process; an
untraced round is PASSES passes.  The flags below are the whole definition
of a job; `--out` is added by the runner.  Only the spde job takes the
benchmark seed.
"""

from dataclasses import dataclass

# sin is 2*pi-periodic, so the upwind oracle's periodic grid sees no jump
TWO_PI = "6.283185307179586"


@dataclass(frozen=True)
class Job:
    name: str          # unique in its workload; also its output directory
    equation: str
    family: str        # kdv, nls, coag, burgers, spde or quotient
    argv: tuple        # CLI arguments without --out
    # names of the same job at t - dt and t + dt in the same round, for a
    # central-difference residual check
    neighbours: tuple = ()


def central(equation, family, argv, t_final, dt):
    """The job at t - dt, t and t + dt; the middle one is checked against
    the other two."""
    def at(suffix, t):
        return Job(equation + suffix, equation, family,
                   tuple(argv) + ("--t-final", repr(t), "--dt", repr(dt)))

    minus, plus = at("-minus", t_final - dt), at("-plus", t_final + dt)
    middle = Job(equation, equation, family, at("", t_final).argv,
                 neighbours=(minus.name, plus.name))
    return [minus, middle, plus]


def jobs(workload, seed):
    """The jobs of `workload`; the seed reaches the spde job only."""
    if workload == "paper-presets":
        return [
            Job("kdv", "kdv", "kdv",
                ("kdv", "--preset", "paper", "--checkpoints", "2")),
            Job("nls", "nls", "nls",
                ("nls", "--preset", "paper", "--checkpoints", "2")),
            Job("smol-const", "smol-const", "coag",
                ("smol-const", "--preset", "paper")),
        ]
    if workload == "per-node-families":
        return [
            Job("smol-general", "smol-general", "coag",
                ("smol-general", "--grid-n", "512", "--t-final", "1.0",
                 "--dt", "0.001")),
            *central("prelaplace", "coag",
                     ("prelaplace", "--grid-n", "8192", "--domain-l", "1.0"),
                     0.5, 0.001),
            Job("burgers", "burgers", "burgers",
                ("burgers", "--profile", "sin", "--t-final", "0.5",
                 "--grid-n", "4096", "--domain-l", TWO_PI)),
            Job("spde", "spde", "spde",
                ("spde", "--preset", "paper", "--grid-n", "128",
                 "--panels", "1024", "--seed", str(seed))),
            *central("quotient", "quotient", ("quotient", "--grid-n", "256"),
                     1.0, 0.001),
            Job("elliptic", "elliptic", "quotient",
                ("elliptic", "--grid-n", "8192")),
        ]
    raise KeyError(workload)


WORKLOADS = ("paper-presets", "per-node-families")
# passes over the job list in an untraced round.  BLAS thread contention
# makes one pass of paper-presets vary by up to a factor of 2 in the NLS
# job; over ten runs, two passes a round roughly halved the spread of its
# run_s.  per-node-families spread as much with two passes as with one, as
# there the spread comes from CPU speed drifting over minutes, so it keeps
# one and leaves the time to the full set of runs.
PASSES = {"paper-presets": 2, "per-node-families": 1}
FAMILIES = ("kdv", "nls", "coag", "burgers", "spde", "quotient")
