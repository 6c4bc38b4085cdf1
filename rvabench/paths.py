"""Locate the checkout the benchmark runs in and the program source inside it."""

from __future__ import annotations

import os
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".rvabench_work"


def use_checkout_source():
    """Import ``rvacheck`` from this checkout's ``src`` or exit with code 2."""
    if not (SRC / "rvacheck" / "__init__.py").is_file():
        sys.exit(f"rvabench: no program source at {SRC / 'rvacheck'}")
    sys.path.insert(0, str(SRC))
    import rvacheck

    if Path(rvacheck.__file__).resolve().parent != SRC / "rvacheck":
        sys.exit(f"rvabench: rvacheck imported from {rvacheck.__file__}, not {SRC}")


def child_env():
    """Environment for child interpreters: this checkout's source first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env
