"""Line-oriented text format for automata.

::

    rva-automaton v1
    base: 2
    dim: 1
    encoding: parallel
    fixed: 0          # optional
    states: 3
    initial: 0
    accepting: 1
    transitions:
    0 0 -> 0
    0 1 -> 2
    0 * -> 1
    ...

Parallel letters are comma-joined digits ("1,0"), sequential letters
single digits, ``#`` marks a fixed component and ``*`` the separator.
In the header ``#`` starts a comment anywhere on a line.  Below
``transitions:``, where ``#`` can be a letter, it starts a comment only
at the start of a line or after the destination state
(``0 #,1 -> 2  # note``).  Parsing validates totality unless a missing
transition is allowed to fall into a fresh rejecting sink.
"""

from __future__ import annotations

from collections import defaultdict

from .alphabet import AlphabetSpec, PARALLEL, SEQUENTIAL
from .automaton import Automaton

FORMAT_HEADER = "rva-automaton v1"

# Largest table (states x letters) --complete-with-sink fills in, and
# largest letter count any file may declare.  Completion allocates the
# table at its declared size, so the header is held to this before
# anything is allocated: about 128 MB per copy at 8 bytes a cell.
MAX_TABLE_CELLS = 1 << 24


def check_table_budget(spec: AlphabetSpec, states: int = 0):
    """Raise ValueError unless the letters of ``spec``, and a table of
    ``states`` rows of them, fit in ``MAX_TABLE_CELLS``.

    ``b^d`` is not computed for a ``d`` at which it alone exceeds the
    budget.
    """
    free = spec.dim - len(spec.fixed)
    # base >= 2, so from this exponent on b^free alone exceeds the budget
    too_wide = spec.is_parallel and free >= MAX_TABLE_CELLS.bit_length()
    if too_wide or spec.num_letters > MAX_TABLE_CELLS:
        letters = f"{spec.base}^{free} + 1" if spec.is_parallel else spec.num_letters
        raise ValueError(
            f"declared alphabet of {letters} letters "
            f"exceeds the budget of {MAX_TABLE_CELLS} transitions"
        )
    width = spec.num_letters
    if states * width > MAX_TABLE_CELLS:
        raise ValueError(
            f"declared table of {states} states x {width} letters = {states * width} "
            f"transitions exceeds the budget of {MAX_TABLE_CELLS} transitions"
        )


class AutomatonFormatError(ValueError):
    def __init__(self, message, line=None):
        self.line = line
        where = f" (line {line})" if line is not None else ""
        super().__init__(f"{message}{where}")


def parse_automaton(text: str, complete_with_sink: bool = False) -> Automaton:
    lines = text.splitlines()
    fields = {}
    transitions_at = None
    header_seen = False
    for idx, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if not header_seen:
            if line != FORMAT_HEADER:
                raise AutomatonFormatError(
                    f"expected header {FORMAT_HEADER!r}, found {line!r}", idx
                )
            header_seen = True
            continue
        if line == "transitions:":
            transitions_at = idx
            break
        key, sep, value = line.partition(":")
        if not sep:
            raise AutomatonFormatError(f"expected 'key: value', found {line!r}", idx)
        key = key.strip()
        if key in fields:
            raise AutomatonFormatError(f"duplicate field {key!r}", idx)
        fields[key] = (value.strip(), idx)
    if not header_seen:
        raise AutomatonFormatError("empty input, expected header")
    if transitions_at is None:
        raise AutomatonFormatError("missing 'transitions:' section")

    def need(key):
        if key not in fields:
            raise AutomatonFormatError(f"missing field {key!r}")
        return fields[key]

    def need_int(key, minimum):
        value, idx = need(key)
        try:
            out = int(value)
        except ValueError:
            raise AutomatonFormatError(f"field {key!r} must be an integer", idx)
        if out < minimum:
            raise AutomatonFormatError(f"field {key!r} must be >= {minimum}", idx)
        return out

    base = need_int("base", 2)
    dim = need_int("dim", 1)
    encoding, enc_line = need("encoding")
    if encoding not in (PARALLEL, SEQUENTIAL):
        raise AutomatonFormatError(
            f"encoding must be 'parallel' or 'sequential', found {encoding!r}", enc_line
        )
    fixed = frozenset()
    if "fixed" in fields:
        value, idx = fields["fixed"]
        try:
            fixed = frozenset(int(tok) for tok in value.split())
        except ValueError:
            raise AutomatonFormatError("fixed components must be integers", idx)
    try:
        spec = AlphabetSpec(base, dim, encoding, fixed)
    except ValueError as exc:
        raise AutomatonFormatError(str(exc))

    n = need_int("states", 1)
    initial = need_int("initial", 0)
    if initial >= n:
        raise AutomatonFormatError("initial state out of range", fields["initial"][1])
    accepting_text, acc_line = need("accepting")
    try:
        accepting = frozenset(int(tok) for tok in accepting_text.split())
    except ValueError:
        raise AutomatonFormatError("accepting states must be integers", acc_line)
    if any(not (0 <= q < n) for q in accepting):
        raise AutomatonFormatError("accepting state out of range", acc_line)

    try:
        check_table_budget(spec, n if complete_with_sink else 0)
    except ValueError as exc:
        raise AutomatonFormatError(str(exc))
    width = spec.num_letters
    below = len(lines) - transitions_at
    # each line holds at most one transition: a table the lines cannot
    # fill fails anyway, so it is not allocated at its declared size
    short = not complete_with_sink and n * width > below
    flat = defaultdict(lambda: None) if short else [None] * (n * width)
    letter_ids = {}  # exact letter token -> letter index
    for idx in range(transitions_at, len(lines)):
        head, arrow, tail = lines[idx].partition("->")
        parts = head.split()
        if parts and parts[0][0] == "#":
            continue  # comment line
        if not arrow:
            if not parts:
                continue
            raise AutomatonFormatError(
                f"expected '<src> <letter> -> <dst>', found {head.strip()!r}", idx + 1
            )
        if len(parts) != 2:
            raise AutomatonFormatError(
                f"expected '<src> <letter>' before '->', found {head.strip()!r}", idx + 1
            )
        src_text, token = parts
        try:
            src = int(src_text)
            dst = int(tail.split("#", 1)[0])
        except ValueError:
            raise AutomatonFormatError("states must be integers", idx + 1)
        if not (0 <= src < n) or not (0 <= dst < n):
            raise AutomatonFormatError("transition state out of range", idx + 1)
        li = letter_ids.get(token)
        if li is None:
            try:
                li = spec.letter_index(spec.parse_letter(token))
            except ValueError as exc:
                raise AutomatonFormatError(str(exc), idx + 1)
            letter_ids[token] = li
        k = src * width + li
        if flat[k] is not None:
            raise AutomatonFormatError(
                f"duplicate transition for state {src} letter {token}", idx + 1
            )
        flat[k] = dst

    del lines  # free the line strings before the rows and the table exist
    if short or None in flat:
        missing = (k for k in range(n * width) if flat[k] is None)
        if not complete_with_sink:
            q, li = divmod(next(missing), width)
            size = (
                f" ({n} states x {width} letters need {n * width} transitions, "
                f"{below} lines follow 'transitions:')"
                if short
                else ""
            )
            raise AutomatonFormatError(
                f"missing transition for state {q} letter "
                f"{spec.format_letter(spec.letter_at(li))}{size}; "
                "pass --complete-with-sink to add a rejecting sink"
            )
        for k in missing:
            flat[k] = n
        flat += [n] * width
        n += 1
    table = [flat[k : k + width] for k in range(0, n * width, width)]
    return Automaton(spec, n, initial, accepting, table)


def serialize_automaton(aut: Automaton) -> str:
    spec = aut.alphabet
    lines = [
        FORMAT_HEADER,
        f"base: {spec.base}",
        f"dim: {spec.dim}",
        f"encoding: {spec.kind}",
    ]
    if spec.fixed:
        lines.append("fixed: " + " ".join(str(f) for f in sorted(spec.fixed)))
    lines.append(f"states: {aut.n}")
    lines.append(f"initial: {aut.initial}")
    lines.append("accepting: " + " ".join(str(q) for q in sorted(aut.accepting)))
    lines.append("transitions:")
    letters = [spec.format_letter(spec.letter_at(i)) for i in range(spec.num_letters)]
    for q, row in enumerate(aut.delta):
        for text, t in zip(letters, row):
            lines.append(f"{q} {text} -> {t}")
    return "\n".join(lines) + "\n"
