"""Span tracing of grassflow's public functions, for the per-layer metrics.

For the length of a traced round, `Tracer.install()` replaces each function
named in TARGETS by a wrapper, in every loaded `grassflow` module that holds
a reference to it (module globals, and dicts such as `cli.RUNNERS`), and on
the class for methods.  `Tracer.uninstall()` puts the originals back.

Each call records one span: name, id, parent id, start, end, wall time and
process CPU time (all threads).  Self time is a span's time minus the time
its direct children cover; calls are sequential, so children never overlap.
Counts (matrix orders, steps, points, rows, bytes) are recorded by the same
wrappers.  The tracer's own work around each call (span bookkeeping and the
counters) is charged to no span: it is taken out of the parent's self time
and summed into `trace.overhead_s`.  A target that no longer exists is skipped and reports 0 calls.
"""

import functools
import inspect
import itertools
import json
import os
import sys
import time
from collections import defaultdict

import numpy as np


def _dense_flops(n, is_complex, rhs_columns=0):
    # LU is 2/3 n^3 multiply-adds, each triangular solve pair 2 n^2; a
    # complex operation is counted as 4 real ones.  Computed, not measured.
    scale = 4 if is_complex else 1
    return scale * (2.0 / 3.0 * n ** 3 + 2.0 * n ** 2 * rhs_columns)


def _count_solve_dense(a, result):
    system = a["system"]
    coeffs = np.asarray(system.coefficients)
    rhs = np.asarray(system.rhs)
    cols = rhs.shape[1] if rhs.ndim == 2 else 1
    return {"core.dense_flop": _dense_flops(coeffs.shape[0],
                                            np.iscomplexobj(coeffs), cols)}


def _count_det_plain(a, result):
    mat = np.asarray(a["qhat_weighted"])
    return {"core.dense_flop": _dense_flops(mat.shape[0],
                                            np.iscomplexobj(mat))}


def _count_points(a, result):
    return {"canonical.trace_lookup.points": np.size(a["points"])}


def _count_x_systems(a, result):
    return {"integrable.x_systems": a["grid"].n}


def _count_steps(name):
    return lambda a, result: {name: a["steps"]}


def _count_smol_steps(a, result):
    return {"smoluchowski.direct_smol_oracle.steps":
            max(1, int(round(a["t"] / a["dt"])))}


def _count_nodes(a, result):
    return {"graphflows.inviscid_burgers_eval.nodes": len(a["x_nodes"])}


def _count_table(a, result):
    return {"cli.write_table.rows": len(a["rows"]),
            "cli.write_table.bytes": os.path.getsize(a["path"])}


# (span name, grassflow module, attribute or Class.method, counter)
TARGETS = (
    ("core.solve_dense", "core", "solve_dense", _count_solve_dense),
    ("core.det_plain", "core", "det_plain", _count_det_plain),
    ("core.dft", "core", "dft_forward", None),
    ("core.dft", "core", "dft_inverse", None),
    ("canonical.solve_additive_fredholm", "canonical",
     "solve_additive_fredholm", None),
    ("canonical.trace_lookup", "canonical", "AdditiveKernelTrace.__call__",
     _count_points),
    ("integrable.propagate_dispersive", "integrable", "propagate_dispersive",
     None),
    ("integrable.additive_trace", "integrable", "additive_trace", None),
    ("integrable.nls_assemble_qhat", "integrable", "nls_assemble_qhat", None),
    ("integrable.kdv_fredholm_solve", "integrable", "kdv_fredholm_solve",
     _count_x_systems),
    ("integrable.nls_fredholm_solve", "integrable", "nls_fredholm_solve",
     _count_x_systems),
    ("integrable.split_step_kdv", "integrable", "split_step_kdv",
     _count_steps("integrable.split_step_kdv.steps")),
    ("integrable.split_step_nls", "integrable", "split_step_nls",
     _count_steps("integrable.split_step_nls.steps")),
    ("smoluchowski.constant_kernel_solve", "smoluchowski",
     "constant_kernel_solve", None),
    ("smoluchowski.direct_smol_oracle", "smoluchowski", "direct_smol_oracle",
     _count_smol_steps),
    ("smoluchowski.general_smol_solve", "smoluchowski", "general_smol_solve",
     None),
    ("smoluchowski.volterra_project", "smoluchowski", "volterra_project",
     None),
    ("smoluchowski.deconvolve", "smoluchowski", "deconvolve", None),
    ("graphflows.inviscid_burgers_eval", "graphflows", "inviscid_burgers_eval",
     _count_nodes),
    ("graphflows.invert_characteristic", "graphflows",
     "invert_characteristic", None),
    ("graphflows.upwind_oracle", "graphflows", "upwind_oracle", None),
    ("spde.sheet_generate", "spde", "BrownianSheetModes.generate", None),
    ("spde.sheet_cumulative", "spde", "BrownianSheetModes.cumulative", None),
    ("spde.sheet_at_time", "spde", "BrownianSheetModes.at_time", None),
    ("spde.spde_direct_run", "spde", "spde_direct_run", None),
    ("spde.spde_poppe_run", "spde", "spde_poppe_run", None),
    ("quotient.quotient_solve", "quotient", "quotient_solve", None),
    ("quotient.elliptic_quotient_solve", "quotient", "elliptic_quotient_solve",
     None),
    ("quotient.elliptic_coeff_at", "quotient", "EllipticCoefficients.at",
     None),
    ("cli.write_table", "cli", "write_table", _count_table),
    ("cli.write_metadata", "cli", "write_metadata", None),
)

# every per-equation runner in cli.RUNNERS is traced under this one name
RUNNER_SPAN = "cli.runner"


class Tracer:
    """In-memory spans and per-name aggregates of the traced calls."""

    def __init__(self):
        self.spans = []
        self.calls = defaultdict(int)
        self.self_wall = defaultdict(float)
        self.self_cpu = defaultdict(float)
        self.counts = defaultdict(float)
        self.overhead = 0.0
        self._ids = itertools.count()
        self._stack = []
        self._undo = []

    def reset(self):
        """Forget the aggregates (spans are kept for the trace file)."""
        self.calls.clear()
        self.self_wall.clear()
        self.self_cpu.clear()
        self.counts.clear()
        self.overhead = 0.0

    def call(self, name, fn, args=(), kwargs=None, counter=None, sig=None):
        """Run fn(*args, **kwargs) inside a span called `name`."""
        t_in, c_in = time.perf_counter(), time.process_time()
        kwargs = kwargs or {}
        stack = self._stack
        parent = stack[-1] if stack else None
        frame = [next(self._ids), 0.0, 0.0]
        stack.append(frame)
        returned = False
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            result = fn(*args, **kwargs)
            returned = True
        finally:
            w1, c1 = time.perf_counter(), time.process_time()
            stack.pop()
            wall, cpu = w1 - w0, c1 - c0
            self.calls[name] += 1
            self.self_wall[name] += wall - frame[1]
            self.self_cpu[name] += cpu - frame[2]
            self.spans.append((frame[0], parent[0] if parent else None, name,
                               w0, w1, cpu))
            if counter is not None and returned:
                self._count(counter, sig, args, kwargs, result)
            # the parent's children cover this call and its bookkeeping, so
            # neither lands in the parent's self time
            t_out, c_out = time.perf_counter(), time.process_time()
            if parent is not None:
                parent[1] += t_out - t_in
                parent[2] += c_out - c_in
            self.overhead += (t_out - t_in) - wall
        return result

    def _count(self, counter, sig, args, kwargs, result):
        try:
            counted = counter(sig.bind(*args, **kwargs).arguments, result)
        except (KeyError, TypeError, AttributeError, OSError):
            counted = {}  # a changed signature leaves its counts at 0
        for key, value in counted.items():
            self.counts[key] += value

    def _wrap(self, name, fn, counter):
        sig = inspect.signature(fn) if counter is not None else None
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return tracer.call(name, fn, args, kwargs, counter, sig)

        return traced

    def _replace_everywhere(self, original, wrapper):
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "grassflow"
                                      or modname.startswith("grassflow.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._undo.append((setattr, module, attr, original))
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if item is original:
                            value[key] = wrapper
                            self._undo.append((dict.__setitem__, value, key,
                                               original))

    def install(self):
        modules = {name: sys.modules.get(f"grassflow.{name}")
                   for name in ("core", "canonical", "integrable",
                                "smoluchowski", "graphflows", "spde",
                                "quotient", "cli")}
        for name, modname, attr, counter in TARGETS:
            module = modules[modname]
            owner_name, _, method = attr.rpartition(".")
            if owner_name:
                cls = getattr(module, owner_name, None)
                raw = vars(cls).get(method) if cls is not None else None
                if raw is None:
                    continue
                is_static = isinstance(raw, staticmethod)
                fn = raw.__func__ if is_static else raw
                wrapper = self._wrap(name, fn, counter)
                setattr(cls, method,
                        staticmethod(wrapper) if is_static else wrapper)
                self._undo.append((setattr, cls, method, raw))
                continue
            original = getattr(module, attr, None)
            if callable(original):
                self._replace_everywhere(original,
                                         self._wrap(name, original, counter))
        runners = getattr(modules["cli"], "RUNNERS", {})
        for original in set(runners.values()):
            self._replace_everywhere(original,
                                     self._wrap(RUNNER_SPAN, original, None))

    def uninstall(self):
        while self._undo:
            setter, owner, key, original = self._undo.pop()
            setter(owner, key, original)

    def write_spans(self, path):
        """One JSON object per span; times relative to the first span."""
        origin = min((s[3] for s in self.spans), default=0.0)
        with open(path, "w") as fh:
            for sid, parent, name, start, end, cpu in self.spans:
                fh.write(json.dumps({
                    "id": sid, "parent": parent, "name": name,
                    "start": round(start - origin, 9),
                    "end": round(end - origin, 9),
                    "wall_s": round(end - start, 9), "cpu_s": round(cpu, 9),
                }) + "\n")


# per-layer metric name -> unit; the order is the order of the report
LAYER_METRICS = {
    "core.solve_dense.calls": "count", "core.solve_dense.self_s": "s",
    "core.solve_dense.cpu_s": "s", "core.det_plain.calls": "count",
    "core.det_plain.self_s": "s", "core.det_plain.cpu_s": "s",
    "core.dense_gflop": "GFLOP", "core.dft.self_s": "s",
    "core.factorisations_per_x_system": "count",
    "canonical.solve_additive_fredholm.calls": "count",
    "canonical.solve_additive_fredholm.self_s": "s",
    "canonical.trace_lookup.calls": "count",
    "canonical.trace_lookup.points": "count",
    "canonical.trace_lookup.self_s": "s",
    "integrable.propagate_dispersive.self_s": "s",
    "integrable.additive_trace.self_s": "s",
    "integrable.nls_assemble_qhat.calls": "count",
    "integrable.nls_assemble_qhat.self_s": "s",
    "integrable.kdv_fredholm_solve.self_s": "s",
    "integrable.nls_fredholm_solve.self_s": "s",
    "integrable.x_systems": "count",
    "integrable.split_step_kdv.steps": "count",
    "integrable.split_step_kdv.self_s": "s",
    "integrable.split_step_nls.steps": "count",
    "integrable.split_step_nls.self_s": "s",
    "smoluchowski.constant_kernel_solve.self_s": "s",
    "smoluchowski.direct_smol_oracle.steps": "count",
    "smoluchowski.direct_smol_oracle.self_s": "s",
    "smoluchowski.general_smol_solve.calls": "count",
    "smoluchowski.general_smol_solve.self_s": "s",
    "smoluchowski.volterra_project.self_s": "s",
    "smoluchowski.deconvolve.calls": "count",
    "smoluchowski.deconvolve.self_s": "s",
    "graphflows.inviscid_burgers_eval.nodes": "count",
    "graphflows.inviscid_burgers_eval.self_s": "s",
    "graphflows.invert_characteristic.calls": "count",
    "graphflows.invert_characteristic.self_s": "s",
    "graphflows.upwind_oracle.self_s": "s",
    "spde.sheet_generate.self_s": "s", "spde.sheet_cumulative.calls": "count",
    "spde.sheet_at_time.calls": "count", "spde.cumulative_per_query": "ratio",
    "spde.spde_direct_run.self_s": "s", "spde.spde_poppe_run.self_s": "s",
    "spde.spde_poppe_run.cpu_s": "s",
    "quotient.quotient_solve.calls": "count",
    "quotient.quotient_solve.self_s": "s",
    "quotient.elliptic_quotient_solve.self_s": "s",
    "quotient.elliptic_coeff_at.calls": "count",
    "cli.runner.self_s": "s", "cli.write_table.rows": "count",
    "cli.write_table.bytes": "bytes", "cli.write_table.self_s": "s",
    "cli.write_metadata.self_s": "s", "trace.overhead_s": "s",
}


def layer_metrics(tracer):
    """Per-layer values of one traced round, keyed as in LAYER_METRICS."""
    out = {}
    for metric in LAYER_METRICS:
        span, _, field = metric.rpartition(".")
        if field == "calls":
            out[metric] = tracer.calls[span]
        elif field == "self_s":
            out[metric] = tracer.self_wall[span]
        elif field == "cpu_s":
            out[metric] = tracer.self_cpu[span]
        else:
            out[metric] = tracer.counts[metric]
    out["trace.overhead_s"] = tracer.overhead
    out["core.dense_gflop"] = tracer.counts["core.dense_flop"] / 1e9
    x_systems = tracer.counts["integrable.x_systems"]
    factorisations = (tracer.calls["core.solve_dense"]
                      + tracer.calls["core.det_plain"])
    out["core.factorisations_per_x_system"] = \
        factorisations / x_systems if x_systems else 0.0
    queries = tracer.calls["spde.sheet_at_time"]
    out["spde.cumulative_per_query"] = \
        tracer.calls["spde.sheet_cumulative"] / queries if queries else 0.0
    return out
