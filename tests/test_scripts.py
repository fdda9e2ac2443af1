"""Every script under scripts/ imports against the current library.

Importing runs each script's top level (its `from grassflow... import`
lines) but not its entry point, which sits under the `__main__` guard.
"""

import importlib.util
import pathlib

import pytest

SCRIPTS = sorted((pathlib.Path(__file__).resolve().parent.parent
                  / "scripts").glob("*.py"))


def test_scripts_are_found():
    assert SCRIPTS


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.stem)
def test_script_imports(path, capsys):
    spec = importlib.util.spec_from_file_location(f"script_{path.stem}", path)
    spec.loader.exec_module(importlib.util.module_from_spec(spec))
    assert capsys.readouterr().out == ""  # the entry point did not run
