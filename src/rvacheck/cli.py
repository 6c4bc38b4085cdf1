"""Command-line interface.

Exit codes: 0 when the queried property holds, 1 when it fails (a
witness is printed), 2 on usage, format or file errors.  ``--json``
switches the verdict output to one machine-readable object on stdout.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .alphabet import PARALLEL, SEQUENTIAL
from .aut_io import read_automaton, serialize_automaton, write_automaton
from .check import (
    check_rva_complement_parallel,
    check_rva_dim1,
    check_rva_parallel,
    check_rva_sequential,
)
from .minimize import minimal_form
from .shape import check_minimal_shape

CHECKS = {
    "parallel": check_rva_parallel,
    "sequential": check_rva_sequential,
    "dim1": check_rva_dim1,
    "complement": check_rva_complement_parallel,
}


def _load(args):
    with open(args.file, "r", encoding="utf-8") as handle:
        return read_automaton(handle, complete_with_sink=args.complete_with_sink)


def _emit(args, payload, human_lines):
    if args.json:
        # one-shot dumps without an indent: the only form json encodes in C
        sys.stdout.write(json.dumps(payload) + "\n")
    else:
        for line in human_lines:
            print(line)


def _verdict_payload(verdict, states, elapsed, extra=None):
    payload = verdict.to_dict()
    if extra:
        payload["witness"] = dict(payload["witness"] or {}, **extra)
    payload["stats"] = {"states": states, "time_ms": round(elapsed * 1000.0, 3)}
    return payload


def cmd_check(args):
    aut = _load(args)
    start = time.perf_counter()
    verdict = CHECKS[args.mode](aut)
    elapsed = time.perf_counter() - start
    extra = {}
    lines = []
    if verdict:
        lines.append(f"yes: the automaton is saturated ({args.mode} encoding)")
    else:
        from .oracle import expand_witness  # only a "no" loads the word layer

        lines.append(f"no: {verdict.witness.kind}")
        expansion = expand_witness(verdict, args.mode)
        if expansion is not None:
            data = expansion.to_dict()
            extra = {"expansion": data}
            if expansion.kind == "equal-value-pair":
                lines.append(f"  accepted: {data['accepted']}")
                lines.append(f"  rejected: {data['rejected']}")
                lines.append(f"  value: ({', '.join(data['value'])})")
            else:
                lines.append(f"  accepted non-encoding word: {data['word']}")
    _emit(args, _verdict_payload(verdict, aut.n, elapsed, extra), lines)
    return 0 if verdict else 1


def cmd_classify(args):
    aut = _load(args)
    start = time.perf_counter()
    m = minimal_form(aut)
    weak = m is not None
    shape = check_minimal_shape(m.target, (m.target.initial,)) if weak else None
    par = shape if aut.alphabet.kind == PARALLEL else None
    seq = shape if aut.alphabet.kind == SEQUENTIAL else None
    elapsed = time.perf_counter() - start
    payload = {
        "weak": weak,
        "encoding": aut.alphabet.kind,
        "base": aut.alphabet.base,
        "dim": aut.alphabet.dim,
        "d_parallel": None if par is None else par.answer,
        "d_sequential": None if seq is None else seq.answer,
        "stats": {"states": aut.n, "time_ms": round(elapsed * 1000.0, 3)},
    }
    lines = [
        f"states: {aut.n}",
        f"weak: {weak}",
    ]
    if par is not None:
        lines.append(f"{aut.alphabet.dim}-parallel shape: {par.answer}")
    if seq is not None:
        lines.append(f"{aut.alphabet.dim}-sequential shape: {seq.answer}")
    _emit(args, payload, lines)
    return 0


def cmd_minimize(args):
    aut = _load(args)
    morphism = minimal_form(aut)
    if morphism is None:
        print("error: automaton is not weak", file=sys.stderr)
        return 1
    classes = {}  # target state -> its reachable source states, ascending
    for q, target_state in enumerate(morphism.mapping.tolist()):
        if target_state >= 0:
            classes.setdefault(target_state, []).append(q)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            write_automaton(morphism.target, handle)
    payload = {
        "states": morphism.target.n,
        "classes": {str(k): v for k, v in sorted(classes.items())},
    }
    lines = [f"minimal automaton has {morphism.target.n} states"]
    for target_state, members in sorted(classes.items()):
        lines.append(f"  class {target_state}: {{{' '.join(map(str, members))}}}")
    if not args.output:
        lines.append(serialize_automaton(morphism.target).rstrip("\n"))
    _emit(args, payload, lines)
    return 0


def cmd_eval(args):
    from .words import parse_lasso

    aut = _load(args)
    word = parse_lasso(args.word, aut.alphabet)
    accepted = aut.accepts_lasso(word.prefix, word.period)
    payload = {"answer": accepted, "witness": None, "stats": {"states": aut.n}}
    _emit(args, payload, ["accepted" if accepted else "rejected"])
    return 0 if accepted else 1


def cmd_gen(args):
    from .oracle import gen_known_rva

    aut = gen_known_rva(args.kind, args.base, args.dim, args.encoding)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            write_automaton(aut, handle)
    else:
        write_automaton(aut, sys.stdout)
    return 0


def cmd_oracle(args):
    from .oracle import saturation_oracle

    aut = _load(args)
    start = time.perf_counter()
    verdict = saturation_oracle(aut, args.bound)
    elapsed = time.perf_counter() - start
    lines = []
    if verdict:
        lines.append(f"yes (bounded): {verdict.detail}")
    else:
        lines.append(f"no: {verdict.witness.kind}")
        data = verdict.witness.to_dict()
        for key in ("word", "accepted", "rejected", "value"):
            if key in data:
                lines.append(f"  {key}: {data[key]}")
    _emit(args, _verdict_payload(verdict, aut.n, elapsed), lines)
    return 0 if verdict else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="rvacheck",
        description="Decide whether weak Buchi automata over digit alphabets "
        "recognize saturated languages of real-vector encodings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="machine-readable output")
    loads = argparse.ArgumentParser(add_help=False)
    loads.add_argument("file", help="automaton file")
    loads.add_argument(
        "--complete-with-sink",
        action="store_true",
        help="complete a partial transition table with a fresh rejecting sink",
    )

    p = sub.add_parser("check", parents=[common, loads], help="run a saturation check")
    p.add_argument("--mode", choices=sorted(CHECKS), required=True)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser(
        "classify", parents=[common, loads], help="report weakness and encoding shape"
    )
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser(
        "minimize", parents=[common, loads], help="minimize a weak automaton"
    )
    p.add_argument("-o", "--output", help="write the minimal automaton here")
    p.set_defaults(func=cmd_minimize)

    p = sub.add_parser(
        "eval", parents=[common, loads], help="run a lasso word on the automaton"
    )
    p.add_argument("--word", required=True, help='lasso literal, e.g. "1 * / 0"')
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("gen", parents=[common], help="emit a known saturated automaton")
    p.add_argument(
        "--kind",
        choices=["full-space", "zero-only", "unit-box", "complement-full"],
        required=True,
    )
    p.add_argument("--base", type=int, default=2)
    p.add_argument("--dim", type=int, default=1)
    p.add_argument("--encoding", choices=[PARALLEL, SEQUENTIAL], default=PARALLEL)
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser(
        "oracle", parents=[common, loads], help="word-level saturation search"
    )
    p.add_argument(
        "--bound", type=int, default=None, help="search product nodes at depth below BOUND only"
    )
    p.set_defaults(func=cmd_oracle)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, MemoryError) as exc:  # bad files or input, input too large
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
