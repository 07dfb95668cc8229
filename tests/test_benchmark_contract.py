"""The benchmark's import contract.

The scripts under ``benchmarks/`` run against the library in ``src/``. This
reads their syntax trees and checks that every name they import from
``ttasched`` resolves, and that every attribute they access on an imported
``ttasched`` module exists. A change to the library's API that would break
the benchmark fails here, in milliseconds, rather than in a benchmark run.
The tracer's ``SPANS`` names are strings that it tolerates missing, so they
are not checked.
"""

import ast
import importlib
from pathlib import Path

import pytest

BENCHMARKS = sorted(
    (Path(__file__).resolve().parent.parent / "benchmarks").glob("*.py")
)


def _is_module(name: str) -> bool:
    try:
        importlib.import_module(name)
    except ModuleNotFoundError:
        return False
    return True


def _resolves(module: str, name: str) -> bool:
    """``name`` is an attribute or a submodule of the module ``module``."""
    return hasattr(importlib.import_module(module), name) or _is_module(
        f"{module}.{name}"
    )


def _uses(path: Path) -> list[tuple[int, str, str]]:
    """(line, module, name) for every ``from ttasched... import name`` in
    the file and every ``module.name`` access on a ttasched module bound
    by an import."""
    tree = ast.parse(path.read_text(), filename=str(path))
    modules = {}  # local name -> ttasched module
    uses = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "ttasched":
                    # ``import a.b`` binds ``a``; ``import a.b as m`` binds ``a.b``
                    local = alias.asname or "ttasched"
                    modules[local] = alias.name if alias.asname else "ttasched"
        elif (
            isinstance(node, ast.ImportFrom)
            and node.level == 0
            and (node.module or "").split(".")[0] == "ttasched"
        ):
            for alias in node.names:
                uses.append((node.lineno, node.module, alias.name))
                submodule = f"{node.module}.{alias.name}"
                if _is_module(submodule):
                    modules[alias.asname or alias.name] = submodule
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
        ):
            uses.append((node.lineno, modules[node.value.id], node.attr))
    return uses


@pytest.mark.parametrize("path", BENCHMARKS, ids=[p.name for p in BENCHMARKS])
def test_every_ttasched_name_the_benchmark_uses_exists(path):
    missing = [
        f"{path.name}:{line}: {module}.{name}"
        for line, module, name in _uses(path)
        if not _resolves(module, name)
    ]
    assert not missing, missing


def test_the_scan_sees_the_benchmarks_calls():
    # the workload driver's inputs and timed calls, so the scan cannot pass
    # by finding nothing
    uses = {
        (module, name)
        for path in BENCHMARKS
        if path.name == "workloads.py"
        for _, module, name in _uses(path)
    }
    assert {
        ("ttasched.presets", "write_fixture_tree"),
        ("ttasched.pipeline", "report_json"),
        ("ttasched.importance", "ImportanceVector"),
    } <= uses
