"""The test runner's own settings, as pyproject.toml gives them, the
declared dependencies, the package's import order and import graph, its
read-only module tables and the equality of its array-holding dataclasses."""

from __future__ import annotations

import ast
import dataclasses
import importlib
import os
import re
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


def _third_party_imports(paths, local: set[str]) -> dict[str, str]:
    """Each top-level module the files import that is neither in the standard
    library nor in local, mapped to the first file importing it. Parsed,
    never imported."""
    found = {}
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top not in sys.stdlib_module_names and top not in local:
                    found.setdefault(top, path.name)
    return found


def _requirement_names(requirements: list[str]) -> set[str]:
    """The distribution name that opens each requirement string, normalized."""
    return {
        re.match(r"[A-Za-z0-9_.-]+", requirement).group().lower().replace("-", "_")
        for requirement in requirements
    }


def test_imports_are_declared():
    # a module that the package, its tests or its benchmark import, but that
    # pyproject.toml does not declare, is there only where something else
    # installed it. Each import is matched to the distribution of the same
    # name, as every one of them is named today.
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    runtime = _requirement_names(project["dependencies"])
    extras = project["optional-dependencies"]
    src_files = sorted((ROOT / "src" / "eprbm").glob("*.py"))
    test_files = sorted((ROOT / "tests").glob("*.py"))
    bench_files = sorted((ROOT / "perfbench").glob("*.py"))
    undeclared = []
    # the files, the extra that declares their imports beyond the runtime's,
    # and the module names that are theirs
    for files, extra, local in (
        (src_files, None, set()),
        (test_files, "test", {path.stem for path in test_files}),
        (bench_files, "bench", {path.stem for path in bench_files}),
    ):
        declared = runtime | _requirement_names(extras[extra] if extra else [])
        where = f"the {extra} extra or " if extra else ""
        undeclared += [
            f"{path} imports {module}, not in {where}[project].dependencies"
            for module, path in _third_party_imports(files, {"eprbm"} | local).items()
            if module not in declared
        ]
    assert undeclared == []


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


def test_array_dataclasses_compare_by_value():
    # a generated __eq__ over ndarray fields raises "The truth value of an
    # array ... is ambiguous": every dataclass holding an array binds the one
    # array-aware equality, and so has no hash
    equal_fields = getattr(importlib.import_module("eprbm.rbm"), "_equal_fields", None)
    found = {}
    for module in MODULES:
        for name, value in vars(importlib.import_module(f"eprbm.{module}")).items():
            if (
                isinstance(value, type)
                and dataclasses.is_dataclass(value)
                and value.__module__ == f"eprbm.{module}"
                and any("ndarray" in str(f.type) for f in dataclasses.fields(value))
            ):
                found[f"{module}.{name}"] = (
                    value.__eq__ is equal_fields, value.__hash__ is None
                )
    assert found == dict.fromkeys(
        (
            "rbm.RbmModel",
            "exact.ExactDistribution",
            "exact.MeasurementIndependenceReport",
            "epr.EprDataset",
        ),
        (True, True),
    )
