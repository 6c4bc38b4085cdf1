"""Layer tracing from outside the program.

:func:`install` wraps every public function of the layer modules, plus
``CounterexamplePair.verify``, and rebinds each wrapper in every
``rvacheck`` module that imported the function (module-level dispatch
tables included), so calls between layers go through a span.  Spans are
aggregated per function name as they close: busy time (outermost spans
only), self time (duration minus the direct child spans), call count,
exceptions that escaped, and counts taken from arguments and results at
the same boundary.

Run as a script it is the traced CLI child::

    python3 rvabench/tracing.py OUT.json T0 -- check FILE --mode parallel --json

It imports ``rvacheck.cli``, records the interpreter start and import
time against ``T0`` (the parent's ``time.time()`` before spawning), runs
``rvacheck.cli.main`` on the remaining arguments under the tracer and
writes the aggregates to ``OUT.json``.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

LAYERS = ("aut_io", "automaton", "minimize", "shape", "fixing", "check", "oracle", "words")


def _refine_blocks(args, result):
    return {"blocks": int(result.max()) + 1 if len(result) else 0}


# counts recorded at a span's boundary: name -> f(args, result) -> {counter: value}
COUNTERS = {
    "aut_io.parse_automaton": lambda a, r: {"states": r.n},
    "automaton.trim_accessible": lambda a, r: {"states_in": a[0].n, "states_out": r[0].n},
    "automaton.sccs": lambda a, r: {"states": a[0].n},
    "minimize.refine_partition": _refine_blocks,
    "minimize.minimize_weak": lambda a, r: {"states_in": a[0].n, "states_out": r.target.n},
    "minimize.joint_equivalence": lambda a, r: {"union_states": sum(x.n for x in r.automata)},
    "shape.compute_shape_sets": lambda a, r: {"visits": r.visits},
    "fixing.fix_sequential": lambda a, r: {"states_out": r.automaton.n},
}


class Tracer:
    """Per-name span aggregates for one process."""

    def __init__(self, witness_check=None):
        self.stats = {}
        self._stack = []  # [child seconds] of each open span
        self._open = {}   # name -> open span count, to skip nested busy time
        self._witness_check = witness_check

    def _entry(self, name):
        entry = self.stats.get(name)
        if entry is None:
            entry = self.stats[name] = {"s": 0.0, "self_s": 0.0, "calls": 0, "errors": 0}
        return entry

    def wrap(self, name, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]
            self._stack.append(frame)
            self._open[name] = self._open.get(name, 0) + 1
            start = time.perf_counter()
            failed = True
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                elapsed = time.perf_counter() - start
                self._stack.pop()
                self._open[name] -= 1
                if self._stack:
                    self._stack[-1][0] += elapsed
                entry = self._entry(name)
                entry["calls"] += 1
                entry["self_s"] += elapsed - frame[0]
                if not self._open[name]:
                    entry["s"] += elapsed
                if failed:
                    entry["errors"] += 1
                else:
                    if counter is not None:
                        for key, value in counter(args, result).items():
                            entry[key] = entry.get(key, 0) + value
                    if name == "oracle.expand_witness":
                        self._count_witness(entry, args, result)

        return traced

    def _count_witness(self, entry, args, result):
        if result is None or self._witness_check is None:
            return
        verdict, mode = args[0], args[1]
        entry["produced"] = entry.get("produced", 0) + 1
        if self._witness_check(verdict.minimized, result, mode) is None:
            entry["verified"] = entry.get("verified", 0) + 1


def install(tracer: Tracer):
    """Route every public layer function through ``tracer``."""
    from rvacheck import oracle

    modules = [m for name, m in sys.modules.items()
               if name == "rvacheck" or name.startswith("rvacheck.")]
    for layer in LAYERS:
        module = sys.modules[f"rvacheck.{layer}"]
        for attr, current in list(vars(module).items()):
            if attr.startswith("_") or not inspect.isfunction(current):
                continue
            if current.__module__ != module.__name__:
                continue
            # a second install replaces the earlier tracer's wrapper
            wrapped = tracer.wrap(f"{layer}.{attr}", inspect.unwrap(current))
            for other in modules:
                for key, value in list(vars(other).items()):
                    if value is current:
                        setattr(other, key, wrapped)
                    elif isinstance(value, dict):  # dispatch tables such as cli.CHECKS
                        for k, v in list(value.items()):
                            if v is current:
                                value[k] = wrapped
    verify = inspect.unwrap(oracle.CounterexamplePair.verify)
    oracle.CounterexamplePair.verify = tracer.wrap("oracle.CounterexamplePair.verify", verify)


def merge(into, stats):
    """Add one process's aggregates into ``into``."""
    for name, entry in stats.items():
        target = into.setdefault(name, {})
        for key, value in entry.items():
            target[key] = target.get(key, 0) + value
    return into


def main(argv):
    out_path, t0 = argv[0], float(argv[1])
    cli_args = argv[argv.index("--") + 1:]
    import rvacheck.cli

    ready = time.time()
    from inputs import check_expansion

    tracer = Tracer(witness_check=check_expansion)
    install(tracer)
    code = rvacheck.cli.main(cli_args)
    sys.stdout.flush()
    tracer.stats["cli.startup"] = {"s": ready - t0, "calls": 1}
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(tracer.stats, fh)
    return code


if __name__ == "__main__":
    from paths import use_checkout_source

    use_checkout_source()
    sys.exit(main(sys.argv[1:]))
