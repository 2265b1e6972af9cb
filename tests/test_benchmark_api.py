"""The eprbm names the benchmark in perfbench/ calls must exist, and every
call must bind to its target's signature.

The benchmark's files are parsed with ast, never imported or run: no
subprocess starts and pytest_benchmark is not needed. So a change to the
library API that breaks the benchmark fails here, in Tier-1, instead of in
a benchmark run.
"""

from __future__ import annotations

import ast
import importlib
import inspect
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _is_module(name: str) -> bool:
    try:
        importlib.import_module(name)
    except ModuleNotFoundError:
        return False
    return True


def _benchmark_files():
    """(file name, parsed tree, modules, names) for each benchmark file.

    modules maps each local name bound to an eprbm module to that module
    (`from eprbm import epr`, `import eprbm.exact as exact`); names maps each
    local name imported from an eprbm module to (module, attribute)
    (`from eprbm.epr import generate_dataset`).
    """
    for path in sorted(BENCH.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        modules, names = {}, {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "eprbm":
                for alias in node.names:
                    full = f"{node.module}.{alias.name}"
                    if _is_module(full):
                        modules[alias.asname or alias.name] = full
                    else:
                        names[alias.asname or alias.name] = (node.module, alias.name)
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "eprbm" and alias.asname:
                        modules[alias.asname] = alias.name
        yield path.name, tree, modules, names


def _target(node, modules, names) -> tuple[str, str] | None:
    """(eprbm module, attribute) that the expression node names, if any."""
    if isinstance(node, ast.Name) and node.id in names:
        return names[node.id]
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in modules
    ):
        return modules[node.value.id], node.attr
    return None


def eprbm_uses() -> list[tuple[str, str, str]]:
    """(benchmark file, eprbm module, attribute) for every eprbm name used.

    A name counts as used when a file imports it from an eprbm module
    (`from eprbm.epr import generate_dataset`) or reads it as an attribute
    of an eprbm module it imported (`from eprbm import epr`, then
    `epr.generate_dataset`).
    """
    uses = set()
    for name, tree, modules, names in _benchmark_files():
        uses.update((name, *target) for target in names.values())
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                target = _target(node, modules, names)
                if target:
                    uses.add((name, *target))
    return sorted(uses)


def eprbm_calls() -> list[tuple[str, int, str, str, int | None, tuple[str, ...]]]:
    """(benchmark file, line, eprbm module, attribute, positional argument
    count, keyword names) for every call of an eprbm name. The count is None
    when the call unpacks *args or **kwargs, which cannot be bound unrun."""
    calls = []
    for name, tree, modules, names in _benchmark_files():
        for node in ast.walk(tree):
            target = isinstance(node, ast.Call) and _target(node.func, modules, names)
            if target:
                unpacked = any(isinstance(arg, ast.Starred) for arg in node.args) or any(
                    kw.arg is None for kw in node.keywords
                )
                n_args = None if unpacked else len(node.args)
                keywords = tuple(kw.arg for kw in node.keywords if kw.arg)
                calls.append((name, node.lineno, *target, n_args, keywords))
    return sorted(calls)


USES = eprbm_uses()
CALLS = eprbm_calls()


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


def test_parser_finds_the_benchmark_call_forms():
    found = {(module, name, n_args, keywords) for _, _, module, name, n_args, keywords in CALLS}
    for call in [
        ("eprbm.trainer", "init_chains", 3, ()),
        ("eprbm.trainer", "model_expectation_pcd", 4, ()),
        ("eprbm.trainer", "TrainerConfig", 0, ("seed", "n_epochs")),
        ("eprbm.rbm", "RbmModel", 0, ("visible_bias", "hidden_bias", "weights")),
    ]:
        assert call in found


@pytest.mark.parametrize(
    "path, line, module, name, n_args, keywords",
    CALLS,
    ids=[f"{p}:{line}:{m}.{n}" for p, line, m, n, _, _ in CALLS],
)
def test_benchmark_call_binds(path, line, module, name, n_args, keywords):
    where = f"{path}:{line} calls {module}.{name}"
    assert n_args is not None, f"{where} with unpacked arguments, which cannot be checked"
    signature = inspect.signature(getattr(importlib.import_module(module), name))
    try:
        signature.bind(*[None] * n_args, **dict.fromkeys(keywords))
    except TypeError as err:
        pytest.fail(
            f"{where} with {n_args} positional arguments and keywords "
            f"{list(keywords)}, which {signature} does not accept: {err}"
        )
