"""The package keeps only what its pipelines run, imports scipy in one
place, and the benchmark's tracer still finds what it times.

Every public top-level function and class of ``src/grassflow`` and
``scripts`` must be named somewhere in those two trees outside its own
definition: by a call, an attribute, an import or a table entry.  A
mention in a docstring or a comment does not count.  Reference code that
only the tests need lives in ``tests/``.
"""

import ast
import importlib
import importlib.util
import inspect
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "grassflow").glob("*.py")) \
    + sorted((ROOT / "scripts").glob("*.py"))

# public names kept without a caller, each for its reason
WITHOUT_CALLER = {
    "generalized_flow_eval": "the paper's generalised graph flow; it shares "
                             "the characteristic solve with burgers",
}


def _names(node):
    """Every name that ``node`` refers to: loads, attributes and imports."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield (sub.asname or sub.name).rpartition(".")[2]


def test_every_public_name_has_a_caller():
    defined, referenced = {}, set()
    for path in SOURCES:
        for node in ast.parse(path.read_text()).body:
            name = getattr(node, "name", None)  # a def's or a class's
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    and not name.startswith("_"):
                defined[name] = path.relative_to(ROOT)
            # a definition's own body does not count as its caller
            referenced |= set(_names(node)) - {name}
    orphans = sorted(f"{path}: {name}" for name, path in defined.items()
                     if name not in referenced)
    # exactly the listed names, each still defined and still uncalled
    assert orphans == sorted(f"{defined[name]}: {name}"
                             for name in WITHOUT_CALLER)


def _scipy_imports(node, scope):
    """The dotted scope of each import of scipy under ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            yield from _scipy_imports(child, f"{scope}.{child.name}")
        elif isinstance(child, (ast.Import, ast.ImportFrom)):
            # an ImportFrom's module, or an Import's names
            modules = [getattr(child, "module", None) or alias.name
                       for alias in child.names]
            if any(m.partition(".")[0] == "scipy" for m in modules):
                yield scope
        else:
            yield from _scipy_imports(child, scope)


def test_only_the_dense_fallback_imports_scipy():
    # scipy.linalg adds about 20 MB to a run's resident memory; a lazy
    # import on a path that no run test reaches would bring it back
    found = [scope for path in sorted((ROOT / "src" / "grassflow")
                                      .glob("*.py"))
             for scope in _scipy_imports(ast.parse(path.read_text()),
                                         path.stem)]
    assert found == ["core._scipy_lu_solve"]


# tracer targets already gone from the package; the tracer skips them and
# their per-layer metrics read 0 until the benchmark drops or renames them
STALE_TARGETS = {
    "core.det_plain", "canonical.solve_additive_fredholm",
    "canonical.AdditiveKernelTrace.__call__", "integrable.additive_trace",
    "integrable.nls_assemble_qhat", "graphflows.invert_characteristic",
    "quotient.EllipticCoefficients.at", "spde.BrownianSheetModes.at_time",
    "integrable.split_step_kdv",
}


def _tracing():
    # perfbench/tracing.py is read, never changed: a rename in src/ must not
    # silently zero a per-layer metric
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def _resolve(modname, attr):
    """The target as the tracer finds it, or None.  A method must be its
    class's own, as the tracer requires."""
    module = importlib.import_module(f"grassflow.{modname}")
    owner, _, name = attr.rpartition(".")
    scope = getattr(module, owner, None) if owner else module
    return None if scope is None else vars(scope).get(name)


def test_tracer_targets_resolve_in_the_package():
    unresolved = {f"{modname}.{attr}"
                  for _, modname, attr, _ in _tracing().TARGETS
                  if _resolve(modname, attr) is None}
    assert unresolved <= STALE_TARGETS


def test_tracer_counters_read_parameters_of_their_targets():
    # the tracer swallows the KeyError of a counter that reads a renamed
    # parameter, and the count reads 0
    missing = []
    for _, modname, attr, counter in _tracing().TARGETS:
        if counter is None or f"{modname}.{attr}" in STALE_TARGETS:
            continue
        params = inspect.signature(_resolve(modname, attr)).parameters
        keys = re.findall(r'a\["(\w+)"\]', inspect.getsource(counter))
        assert keys, f"no parameter read by the counter of {attr}"
        missing += [f"{modname}.{attr}: {key}" for key in keys
                    if key not in params]
    assert missing == []
