"""The test runner's own settings, as pyproject.toml gives them, the
package's import order and import graph, and its read-only module tables."""

from __future__ import annotations

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent

FAILING_PROPERTY = """
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_fails(x):
    assert x < 0
"""


def test_failing_property_test_prints_its_example(tmp_path):
    # every warning is an error, so one raised while Hypothesis reports a
    # failure would end the run in INTERNALERROR and hide the example
    test_file = tmp_path / "test_failing.py"
    test_file.write_text(FAILING_PROPERTY)
    command = [
        sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
        "-p", "no:cacheprovider", str(test_file),
    ]
    result = subprocess.run(
        command, cwd=tmp_path, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 1, result.stdout + result.stderr
    assert "Falsifying example" in result.stdout


MODULES = ("atomic", "rbm", "exact", "bell", "epr", "trainer", "cli")


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_first(module):
    # an import cycle between modules breaks only the import orders that
    # enter it at the wrong module, so each module is imported first in a
    # fresh interpreter
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, "-c", f"import eprbm.{module}"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr


def _eprbm_imports(tree: ast.Module) -> list[str]:
    """The eprbm modules a parsed eprbm module imports, relative or absolute."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
            node.level or (node.module or "").split(".")[0] == "eprbm"
        ):
            found.append("." * node.level + (node.module or ""))
        elif isinstance(node, ast.Import):
            found += [a.name for a in node.names if a.name.split(".")[0] == "eprbm"]
    return found


def test_import_graph():
    # rbm owns the packed parameters, the pattern tables and the log-joint,
    # and every other layer reads them from it; rbm imports no other eprbm
    # module, so no module needs an import hidden behind TYPE_CHECKING to
    # break a cycle. Parsed, never imported.
    offenders = []
    for path in sorted((ROOT / "src" / "eprbm").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        if path.name == "rbm.py":
            offenders += [f"rbm.py imports {name}" for name in _eprbm_imports(tree)]
        offenders += [
            f"{path.name}:{node.lineno} imports under TYPE_CHECKING"
            for node in ast.walk(tree)
            if isinstance(node, ast.If) and "TYPE_CHECKING" in ast.unparse(node.test)
        ]
    assert offenders == []


def test_module_arrays_read_only():
    # a writable module table lets any caller change every later result:
    # bell.OUTCOME_SIGNS[0] = -1.0 moved the reference model's S from 2.826
    # to 2.429
    checked, writable = set(), []
    for module in MODULES:
        for name, value in vars(importlib.import_module(f"eprbm.{module}")).items():
            if isinstance(value, np.ndarray):
                checked.add(f"{module}.{name}")
                if value.flags.writeable:
                    writable.append(f"{module}.{name}")
    assert writable == []
    assert {"bell.OUTCOME_SIGNS", "epr._CSV_LINES", "exact._MARGIN_TERMS"} <= checked
