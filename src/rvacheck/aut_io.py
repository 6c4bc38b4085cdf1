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

A file (:func:`read_automaton`) is read one line at a time up to its
first line that is neither blank nor a comment, each line held to
``MAX_HEADER_LINE`` (65,536) characters, its line break included: a
longer line, or a first such line other than the header, refuses the
file before the rest is read.  The body after ``transitions:`` is held to
the declared cells times the longest line the writer puts out for their
alphabet and states, plus ``COMMENT_ALLOWANCE`` (2^20) characters.

A table of at least ``SMALL_TABLE_CELLS`` cells whose body is in the
form :func:`serialize_automaton` writes (ASCII, ``\n`` line ends,
single spaces, decimal states, letters of one-digit components, no
fixed components) is read in bulk, by numpy over chunks of whole lines,
straight into the ``n x letters`` array.  Smaller tables, any other
body and any body with an error are read by the line loop into rows;
it names every error with its line.  The writer mirrors the bulk reader:
numpy lays out a chunk of lines as one byte buffer, so a table is never
held as text all at once, and a table stored as rows is converted to an
array one chunk at a time.
"""

from __future__ import annotations

import re
from collections import defaultdict
from functools import lru_cache
from itertools import chain

import numpy as np

from .alphabet import AlphabetSpec, PARALLEL, SEQUENTIAL
from .automaton import SMALL_TABLE_CELLS, Automaton

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


# every line break ``str.splitlines`` knows, so header line numbers match it
_LINE_BREAK = re.compile("\r\n|[\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029]")

# characters a line before the header may hold
MAX_HEADER_LINE = 1 << 16

# characters a body may hold beyond its longest possible transition lines
COMMENT_ALLOWANCE = 1 << 20

# characters of the body the bulk reader converts to bytes at a time
_BULK_CHUNK = 1 << 18


def _lines(text):
    """``text.splitlines()``, lazily, each line with the offset past its break."""
    pos = 0
    for brk in _LINE_BREAK.finditer(text):
        yield text[pos : brk.start()], brk.end()
        pos = brk.end()
    if pos < len(text):
        yield text[pos:], len(text)


def read_automaton(handle, complete_with_sink: bool = False) -> Automaton:
    """Read an automaton from an open text file (see the module docstring)."""
    head, found = "", None
    while found is None:
        line = handle.readline(MAX_HEADER_LINE + 1)
        if len(line) > MAX_HEADER_LINE:
            message = f"line over {MAX_HEADER_LINE} characters before the header"
            raise AutomatonFormatError(message, sum(1 for _ in _lines(head)) + 1)
        if not line:
            break
        head += line
        found = next(filter(None, (raw.split("#", 1)[0].strip() for raw, _ in _lines(line))), None)
    if found != FORMAT_HEADER:
        return parse_automaton(head)  # refuses it, naming the line
    for line in iter(handle.readline, ""):
        head += line
        if "transitions:" in (raw.split("#", 1)[0].strip() for raw, _ in _lines(line)):
            break
    header = spec, n, *_ = _parse_header(head, complete_with_sink)
    letter = (spec.dim if spec.is_parallel else 1) * (len(str(spec.base - 1)) + 1)  # and commas
    budget = n * spec.num_letters * (2 * len(str(n - 1)) + letter + 5) + COMMENT_ALLOWANCE
    body = handle.read(budget + 1)
    if len(body) > budget:
        raise AutomatonFormatError(f"transitions over the budget of {budget} characters")
    return _build(head + body, header, complete_with_sink)


def parse_automaton(text: str, complete_with_sink: bool = False) -> Automaton:
    """Read an automaton.

    The header is read line by line.  The transitions of a table of at
    least ``SMALL_TABLE_CELLS`` cells go to the bulk reader
    (:func:`_bulk_table`), which gives the array.  Smaller tables, and
    bodies the bulk reader refuses, go to the line loop
    (:func:`_line_table`), which gives rows and names every error.
    """
    return _build(text, _parse_header(text, complete_with_sink), complete_with_sink)


def _parse_header(text, complete_with_sink):  # the fields, transitions: line and its end
    fields = {}
    transitions_at = None
    header_seen = False
    for idx, (raw, end) in enumerate(_lines(text), start=1):
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
            transitions_at, body = idx, end
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
    return spec, n, initial, accepting, transitions_at, body


def _build(text, header, complete_with_sink):  # header: _parse_header(text, ...)
    spec, n, initial, accepting, transitions_at, body = header
    table = None
    if n * spec.num_letters >= SMALL_TABLE_CELLS:
        table = _bulk_table(text, body, spec, n, complete_with_sink)
    if table is None:
        table = _line_table(
            text[body:].splitlines(), transitions_at, spec, n, complete_with_sink
        )
    return Automaton(spec, len(table), initial, accepting, table)


def _bulk_table(text, body, spec, n, complete_with_sink):
    """The table of a plain body, or None to leave the body to the line loop.

    A plain body is ASCII, every line of it ends in ``\n`` and reads
    ``<src> <letter> -> <dst>`` with single spaces: the states in 1-18
    decimal digits and in range, the letter ``*`` or single digits
    (comma-joined in a parallel alphabet), no letter of a fixed
    alphabet.  No cell may be given twice, and only ``complete_with_sink``
    allows a cell to be missing.  That is what :func:`serialize_automaton`
    writes for an unfixed alphabet of base at most 10.  The body is
    converted in chunks of whole lines, so no more than one chunk is held
    as bytes and index arrays.  The line count bounds the table before it
    is allocated.
    """
    width = spec.num_letters
    cells = n * width
    lines = text.count("\n", body) + (len(text) > body and text[-1] != "\n")
    if spec.fixed or not lines or lines > cells or (lines < cells and not complete_with_sink):
        return None
    flat = np.full(cells + width * complete_with_sink, -1, dtype=np.int64)
    pos, written = body, 0
    while pos < len(text):
        end = text.find("\n", pos + _BULK_CHUNK) + 1 or len(text)
        try:
            chunk = text[pos:end].encode("ascii")
        except UnicodeEncodeError:
            return None
        if not chunk.endswith(b"\n"):
            chunk += b"\n"
        cell_dst = _bulk_chunk(np.frombuffer(chunk, np.uint8), spec, n)
        if cell_dst is None:
            return None
        flat[cell_dst[0]] = cell_dst[1]
        written += len(cell_dst[0])
        pos = end
    missing = flat[:cells] < 0
    count = int(np.count_nonzero(missing))
    if written + count != cells or (count and not complete_with_sink):
        return None  # a cell given twice, or missing without completion
    if not count:
        return flat[:cells].reshape(n, width)
    flat[:cells][missing] = n
    flat[cells:] = n
    return flat.reshape(n + 1, width)


def _bulk_chunk(a, spec, n):
    """Cells and destinations of the ``\n``-ended plain lines in bytes ``a``, or None."""
    ends = np.flatnonzero(a == 10)
    gaps = np.flatnonzero(a == 32)
    if len(gaps) != 3 * len(ends):
        return None
    s0, s1, s2 = gaps.reshape(-1, 3).T
    starts = np.concatenate(([0], ends[:-1] + 1))
    # each line's three spaces lie inside it, around a nonempty source,
    # letter and destination and the two bytes of the arrow
    if not (
        (s0 > starts).all()
        and (s1 > s0 + 1).all()
        and (s2 == s1 + 3).all()
        and (ends > s2 + 1).all()
        and (a[s1 + 1] == 45).all()
        and (a[s1 + 2] == 62).all()
    ):
        return None
    src = _decimals(a, starts, s0)
    dst = _decimals(a, s2 + 1, ends)
    letter = _letter_indices(a, s0 + 1, s1 - s0 - 1, spec)
    if src is None or dst is None or letter is None:
        return None
    if src.max() >= n or dst.max() >= n:
        return None
    return src * spec.num_letters + letter, dst


def _decimals(a, lo, hi):
    """Values of the fields ``a[lo:hi]``, or None unless each is 1-18 ASCII digits.

    ``a[hi]`` is a space or line break, so reading past a short field
    finds no digit.
    """
    length = hi - lo
    if length.max() > 18:
        return None
    value = np.zeros(len(lo), dtype=np.int64)
    for j in range(int(length.max())):
        digit = a[np.minimum(lo + j, hi)] - 48  # wraps above 9 off a digit
        live = length > j
        if not np.array_equal(digit <= 9, live):
            return None
        value = np.where(live, value * 10 + digit, value)
    return value


def _letter_indices(a, lo, length, spec):
    """Letter indices of the fields ``a[lo:lo+length]``, or None unless each
    is ``*`` or the alphabet's digits, one byte each, comma-joined."""
    digits = spec.dim if spec.is_parallel else 1
    star = (length == 1) & (a[lo] == 42)
    if not ((length == 2 * digits - 1) | star).all():
        return None
    index = np.full(len(lo), spec.star_index, dtype=np.int64)
    rows = np.flatnonzero(~star)
    at = lo[rows]
    value = np.zeros(len(rows), dtype=np.int64)
    for c in range(digits):
        digit = a[at + 2 * c] - 48  # wraps above 9 off a digit
        if (digit >= min(spec.base, 10)).any():
            return None
        if c + 1 < digits and (a[at + 2 * c + 1] != 44).any():
            return None
        value = value * spec.base + digit
    index[rows] = value
    return index


def _line_table(lines, first, spec, n, complete_with_sink):
    """The rows read line by line from the body ``lines``; the line
    numbers of its errors count from ``first``, the ``transitions:`` line."""
    width = spec.num_letters
    below = len(lines)
    # each line holds at most one transition: a table the lines cannot
    # fill fails anyway, so it is not allocated at its declared size
    short = not complete_with_sink and n * width > below
    flat = defaultdict(lambda: None) if short else [None] * (n * width)
    letter_ids = {}  # exact letter token -> letter index
    for idx, line in enumerate(lines, start=first + 1):
        head, arrow, tail = line.partition("->")
        parts = head.split()
        if parts and parts[0][0] == "#":
            continue  # comment line
        if not arrow:
            if not parts:
                continue
            raise AutomatonFormatError(
                f"expected '<src> <letter> -> <dst>', found {head.strip()!r}", idx
            )
        if len(parts) != 2:
            raise AutomatonFormatError(
                f"expected '<src> <letter>' before '->', found {head.strip()!r}", idx
            )
        src_text, token = parts
        try:
            src = int(src_text)
            dst = int(tail.split("#", 1)[0])
        except ValueError:
            raise AutomatonFormatError("states must be integers", idx)
        if not (0 <= src < n) or not (0 <= dst < n):
            raise AutomatonFormatError("transition state out of range", idx)
        li = letter_ids.get(token)
        if li is None:
            try:
                li = spec.letter_index(spec.parse_letter(token))
            except ValueError as exc:
                raise AutomatonFormatError(str(exc), idx)
            letter_ids[token] = li
        k = src * width + li
        if flat[k] is not None:
            raise AutomatonFormatError(
                f"duplicate transition for state {src} letter {token}", idx
            )
        flat[k] = dst

    del lines  # free the line strings before the rows exist
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
    return [flat[k : k + width] for k in range(0, n * width, width)]


# transitions written per chunk of text
_WRITE_CELLS = 1 << 16


@lru_cache(maxsize=16)  # a corpus run writes 8 alphabets; a wide one takes MBs
def _arrows(spec):
    """The bytes of ``" <letter> -> "`` for every letter of ``spec``, one
    row per letter index, padded on the right with 0 bytes."""
    texts = [f" {spec.format_letter(a)} -> ".encode() for a in spec.letters()]
    size = max(map(len, texts))
    padded = b"".join(text.ljust(size, b"\0") for text in texts)
    return np.frombuffer(padded, np.uint8).reshape(len(texts), size)


def _put_digits(out, values):
    """Write the ASCII digits of ``values`` into the columns of ``out``,
    right-aligned, with 0 bytes before each number."""
    last = out.shape[1] - 1
    for j in range(last, -1, -1):
        quotient = values // 10
        out[:, j] = values - quotient * 10 + 48
        if j < last:
            out[:, j][values == 0] = 0
        values = quotient


def _text_chunks(aut: Automaton):
    """The file text of ``aut`` in chunks of ``_WRITE_CELLS`` transition
    lines, the header leading the first.

    A chunk is one byte buffer with a row per line: the source digits,
    the letter's arrow bytes and the destination digits, each padded
    with 0 bytes, and ``\n``; one compress drops the 0 bytes.  Its cells
    are a slice of the array or, from an automaton that stores rows,
    those rows converted, so writing derives neither form whole.
    """
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
    head = "\n".join(lines) + "\n"
    arrows = _arrows(spec)
    width, size = arrows.shape
    places = len(str(aut.n - 1))
    step = max(1, _WRITE_CELLS // width)
    stored = vars(aut).get("delta")  # None when only the array is stored
    for lo in range(0, aut.n, step):
        m = min(step, aut.n - lo)
        if stored is not None:
            cells = np.fromiter(chain.from_iterable(stored[lo : lo + m]), np.int64, m * width)
        else:
            cells = aut.table[lo : lo + m].ravel()
        line = np.empty((m, width, 2 * places + size + 1), np.uint8)
        _put_digits(line[:, 0, :places], np.arange(lo, lo + m))
        line[:, 1:, :places] = line[:, :1, :places]
        line[:, :, places : places + size] = arrows
        _put_digits(line[:, :, -places - 1 : -1].reshape(-1, places), cells)
        line[:, :, -1] = 10
        yield head + line[line != 0].tobytes().decode("ascii")
        head = ""


def serialize_automaton(aut: Automaton) -> str:
    return "".join(_text_chunks(aut))


def write_automaton(aut: Automaton, handle):
    """Write the text of :func:`serialize_automaton` to ``handle``, one
    bounded chunk at a time."""
    for chunk in _text_chunks(aut):
        handle.write(chunk)
