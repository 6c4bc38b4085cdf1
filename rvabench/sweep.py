"""Library sweep over one corpus file, run as a guarded child process::

    python3 rvabench/sweep.py CORPUS.json [TRACE_OUT.json]

Each automaton gets ``saturation_oracle``, every applicable check mode,
``expand_witness`` on every "no" and value verification of the witness.
Oracle verdicts are the reference for ``parallel``, ``sequential`` and
``dim1``; complement witnesses are verified with the sign-extended value
map of :mod:`inputs`, since the oracle does not cover that mode.  The
last stdout line is a JSON object with the per-automaton latencies, the
operation count and the failures.
"""

from __future__ import annotations

import json
import sys
import time

CHECK_FUNCTIONS = {
    "parallel": "check_rva_parallel",
    "sequential": "check_rva_sequential",
    "dim1": "check_rva_dim1",
    "complement": "check_rva_complement_parallel",
}


def sweep_one(aut, check, oracle, modes_for, check_expansion):
    """Run every mode on one automaton; return (ops, [(mode, reason)])."""
    modes = modes_for(aut)
    try:
        reference = oracle.saturation_oracle(aut).answer
    except Exception as exc:  # a crash is a failure of every mode, not of the sweep
        return len(modes), [(m, f"oracle raised {type(exc).__name__}: {exc}") for m in modes]
    failures = []
    for mode in modes:
        try:
            verdict = getattr(check, CHECK_FUNCTIONS[mode])(aut)
            if mode != "complement" and verdict.answer != reference:
                failures.append((mode, f"verdict {verdict.answer}, oracle {reference}"))
                continue
            if verdict.answer:
                continue
            expansion = oracle.expand_witness(verdict, mode)
            reason = check_expansion(aut, expansion, mode)
            if (reason is None and mode != "complement"
                    and isinstance(expansion, oracle.CounterexamplePair)
                    and not expansion.verify(aut)):
                reason = "CounterexamplePair.verify rejects the pair"
        except Exception as exc:  # recorded as this mode's failure
            reason = f"{type(exc).__name__}: {exc}"
        if reason is not None:
            failures.append((mode, reason))
    return len(modes), failures


def main(argv):
    from rvacheck import check, oracle
    from rvacheck.aut_io import parse_automaton

    from inputs import check_expansion, modes_for

    with open(argv[0], encoding="utf-8") as fh:
        corpus = [(item["label"], parse_automaton(item["text"])) for item in json.load(fh)]
    tracer = None
    if len(argv) > 1:
        from tracing import Tracer, install

        tracer = Tracer(witness_check=check_expansion)
        install(tracer)
    latencies, failures = [], []
    ops = 0
    for label, aut in corpus:
        start = time.perf_counter()
        n, fails = sweep_one(aut, check, oracle, modes_for, check_expansion)
        latencies.append((time.perf_counter() - start) * 1000.0)
        ops += n
        failures.extend([label, *fail] for fail in fails)
    if tracer is not None:
        with open(argv[1], "w", encoding="utf-8") as fh:
            json.dump(tracer.stats, fh)
    print(json.dumps({"latency_ms": latencies, "ops": ops, "failures": failures}))
    return 0


if __name__ == "__main__":
    from paths import use_checkout_source

    use_checkout_source()
    sys.exit(main(sys.argv[1:]))
