"""The names the benchmark in ``rvabench/`` reads from ``rvacheck``.

The benchmark is run on the parent commit and on a change alike, so a
name it imports or reads must not move or vanish without a change to
the benchmark itself.  These tests parse its files and resolve every
such name; they import nothing from ``rvabench``.
"""

import ast
import importlib

import pytest

from tests.conftest import ROOT

BENCH_FILES = sorted((ROOT / "rvabench").glob("*.py"))


def parsed(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def resolve(module, name):
    """``module.name``, importing it when it is a submodule."""
    mod = importlib.import_module(module)
    if hasattr(mod, name):
        return getattr(mod, name)
    return importlib.import_module(f"{module}.{name}")


def dotted(node):
    """``a.b.c`` of an attribute chain on a plain name, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return [node.id, *reversed(parts)]


def literal(tree, name):
    """The literal value assigned to module-level ``name`` in ``tree``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise LookupError(name)


def test_bench_files_found():
    assert {"run.py", "inputs.py", "sweep.py", "tracing.py"} <= {p.name for p in BENCH_FILES}


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_imported_names_resolve(path):
    for node in ast.walk(parsed(path)):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "rvacheck":
            for alias in node.names:
                resolve(node.module, alias.name)


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_module_attributes_resolve(path):
    # ``check`` and ``oracle`` are always the modules there, imported as
    # ``from rvacheck import check, oracle`` or handed on as arguments
    for node in ast.walk(parsed(path)):
        chain = dotted(node)
        if chain and chain[0] in ("check", "oracle") and len(chain) > 1:
            value = importlib.import_module(f"rvacheck.{chain[0]}")
            for attr in chain[1:]:
                value = getattr(value, attr)


def test_check_functions_of_the_sweep_resolve():
    check = importlib.import_module("rvacheck.check")
    for name in literal(parsed(ROOT / "rvabench" / "sweep.py"), "CHECK_FUNCTIONS").values():
        assert callable(getattr(check, name))


def test_traced_layers_import():
    for layer in literal(parsed(ROOT / "rvabench" / "tracing.py"), "LAYERS"):
        importlib.import_module(f"rvacheck.{layer}")
