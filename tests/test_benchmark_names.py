"""The names the benchmark in ``rvabench/`` reads from ``rvacheck``.

The benchmark is run on the parent commit and on a change alike, so a
name it imports or reads must not move or vanish without a change to
the benchmark itself.  These tests parse its files and resolve every
such name; they import nothing from ``rvabench``.  The traced CLI child,
``rvabench/tracing.py``, also reads the results of the functions it
wraps (its counters), so it is run as a subprocess on small inputs.
"""

import ast
import importlib
import json
import subprocess
import sys

import pytest

from rvacheck.alphabet import PARALLEL, SEQUENTIAL
from rvacheck.aut_io import serialize_automaton
from rvacheck.oracle import gen_known_rva
from tests.conftest import FIG2_PATH, ROOT

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


# small files of every mode; the unit boxes reach the dual tails
TRACED = {
    "unit-box-parallel": (("unit-box", 2, 2, PARALLEL), ("parallel", "complement")),
    "unit-box-sequential": (("unit-box", 2, 2, SEQUENTIAL), ("sequential",)),
    "fig2": (None, ("parallel", "complement", "dim1")),
}


@pytest.mark.parametrize("name", TRACED)
def test_traced_check_runs(tmp_path, name):
    known, modes = TRACED[name]
    path = FIG2_PATH
    if known is not None:
        path = tmp_path / f"{name}.rva"
        path.write_text(serialize_automaton(gen_known_rva(*known)), encoding="utf-8")
    for mode in modes:
        out = tmp_path / f"{name}-{mode}.json"
        proc = subprocess.run(
            [sys.executable, str(ROOT / "rvabench" / "tracing.py"), str(out), "0", "--",
             "check", str(path), "--mode", mode, "--json"],
            capture_output=True, text=True, cwd=ROOT, timeout=120,
        )
        assert proc.returncode in (0, 1), (mode, proc.stderr)
        stats = json.loads(out.read_text(encoding="utf-8"))
        checks = [entry for key, entry in stats.items() if key.startswith("check.check_rva_")]
        assert checks and not any(entry["errors"] for entry in checks), (mode, stats)
        if known is not None and mode != "complement":
            assert stats["fixing.dual_fixings"]["calls"] >= 1, (mode, stats)
