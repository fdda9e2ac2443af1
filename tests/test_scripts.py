"""Every script under scripts/ imports against the current library, the
coagulation moment, spde panel and Burgers oracle studies run on small
grids, and the output digest of a run is its own on a second run.

Importing runs each script's top level (its `from grassflow... import`
lines) but not its entry point, which sits under the `__main__` guard.
"""

import importlib.util
import pathlib

import numpy as np
import pytest

SCRIPTS = sorted((pathlib.Path(__file__).resolve().parent.parent
                  / "scripts").glob("*.py"))


def test_scripts_are_found():
    assert SCRIPTS


def load(path):
    spec = importlib.util.spec_from_file_location(f"script_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.stem)
def test_script_imports(path, capsys):
    load(path)
    assert capsys.readouterr().out == ""  # the entry point did not run


def test_coagulation_moments_study_runs(capsys):
    # the study reads the oracle's moment tracks
    script = next(p for p in SCRIPTS if p.stem == "coagulation_moments")
    load(script).study(40.0, 256, 0.5, 1e-2)
    lines = capsys.readouterr().out.splitlines()
    errors = {line.split(" = ")[0]: float(line.split(" = ")[1])
              for line in lines[:4]}
    assert errors["sup|projected - closed form|"] < 1e-12
    assert errors["sup|projected - direct oracle|"] < 1e-3
    assert errors["max relative m0 error vs closed form"] < 2e-3
    assert errors["max relative m1 drift"] < 1e-10
    assert len(lines) == 9


def test_spde_panel_study_runs(capsys):
    # the study builds its parameters and runs both schemes on one path
    script = next(p for p in SCRIPTS if p.stem == "spde_panel_study")
    load(script).study(0, 8, 16, 0.007, (8, 16))
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == ["panels=8", "panels=16"]
    for line in lines:
        gap, det = (float(part.split()[0]) for part in line.split("= ")[1:])
        assert np.isfinite(gap) and det > 0


def test_burgers_oracle_study_runs(capsys):
    # one line per (t, node count); before the shock the gap falls with the
    # node count
    script = next(p for p in SCRIPTS if p.stem == "burgers_oracle_study")
    load(script).study((0.5, 0.99), (64, 128), 64)
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[:2] for line in lines] == [
        ["t=0.5", "nodes=64"], ["t=0.5", "nodes=128"],
        ["t=0.99", "nodes=64"], ["t=0.99", "nodes=128"]]
    gaps = [float(line.split("gap = ")[1].split()[0]) for line in lines]
    assert gaps[1] < gaps[0] / 10
    assert all(np.isfinite(gaps))


def test_reference_panels_run(tmp_path, capsys):
    # every paper preset runs, the seed reaching spde alone
    script = next(p for p in SCRIPTS if p.stem == "reproduce_reference_panels")
    assert load(script).run(tmp_path, seed=7) == 0
    assert "seed = 7" in (tmp_path / "spde" / "spde_metadata.txt").read_text()


def test_output_digest_repeats(tmp_path):
    # a run that writes tables, one that breaks down and one refused before
    # any output: each leaves its console file, and both passes digest alike
    script = load(next(p for p in SCRIPTS if p.stem == "output_digest"))
    runs = [("ok/elliptic", ("elliptic", "--grid-n", "64")),
            ("ok/burgers", ("burgers", "--profile", "sin", "--grid-n", "64",
                            "--t-final", "1.5")),
            ("refused/kdv", ("kdv", "--grid-n", "100"))]
    lines = []
    for name in ("a", "b"):
        script.run_all(tmp_path / name, runs)
        lines.append(script.digests(tmp_path / name))
    assert lines[0] == lines[1]
    assert [line.split("  ")[1] for line in lines[0]] == [
        "ok/burgers/burgers_field.csv", "ok/burgers.console",
        "ok/elliptic/elliptic_field.csv", "ok/elliptic/elliptic_metadata.txt",
        "ok/elliptic.console", "refused/kdv.console"]
    assert (tmp_path / "a" / "refused" / "kdv.console").read_text() == (
        "exit 2\n--- stdout\n--- stderr\nprecondition violated: grid-n "
        "must be a power of two (DFT restriction)\n")
    # the full list: every job of both workloads and each equation's default
    directories = [directory for directory, _ in script.all_runs(seed=1)]
    assert len(set(directories)) == len(directories)
    assert {d.partition("/")[0] for d in directories} == {
        "paper-presets", "per-node-families", "default", "extra"}
    assert [d for d in directories if d.startswith("default/")] == [
        f"default/{equation}" for equation in script.cli.EQUATIONS]
