"""The eprbm names the benchmark in perfbench/ calls must exist.

The benchmark's files are parsed with ast, never imported or run: no
subprocess starts and pytest_benchmark is not needed. So a change to the
library API that breaks the benchmark fails here, in Tier-1, instead of in
a benchmark run.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _is_module(name: str) -> bool:
    try:
        importlib.import_module(name)
    except ModuleNotFoundError:
        return False
    return True


def eprbm_uses() -> list[tuple[str, str, str]]:
    """(benchmark file, eprbm module, attribute) for every eprbm name used.

    A name counts as used when a file imports it from an eprbm module
    (`from eprbm.epr import generate_dataset`) or reads it as an attribute
    of an eprbm module it imported (`from eprbm import epr`, then
    `epr.generate_dataset`).
    """
    uses = set()
    for path in sorted(BENCH.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        modules = {}  # local name -> eprbm module it is bound to
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "eprbm":
                for alias in node.names:
                    full = f"{node.module}.{alias.name}"
                    if _is_module(full):
                        modules[alias.asname or alias.name] = full
                    else:
                        uses.add((path.name, node.module, alias.name))
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "eprbm" and alias.asname:
                        modules[alias.asname] = alias.name
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in modules
            ):
                uses.add((path.name, modules[node.value.id], node.attr))
    return sorted(uses)


USES = eprbm_uses()


def test_parser_finds_the_benchmark_calls():
    found = {(module, name) for _, module, name in USES}
    for use in [
        ("eprbm.epr", "generate_dataset"),
        ("eprbm.epr", "encode_dataset"),
        ("eprbm.trainer", "train"),
        ("eprbm.trainer", "model_expectation_pcd"),
        ("eprbm.exact", "enumerate_distribution"),
        ("eprbm.cli", "main"),
    ]:
        assert use in found


@pytest.mark.parametrize(
    "path, module, name", USES, ids=[f"{p}:{m}.{n}" for p, m, n in USES]
)
def test_benchmark_name_exists(path, module, name):
    imported = importlib.import_module(module)
    assert hasattr(imported, name), f"{path} uses {module}.{name}, which does not exist"
    value = getattr(imported, name)
    # a module's own dunders (exact.__file__) are data, everything else is called
    if not (name.startswith("__") and name.endswith("__")):
        assert callable(value), f"{path} calls {module}.{name}, which is not callable"
