"""The numpy writer against the line-by-line writer it replaced.

``reference_text`` formats one f-string per transition, as the writer
did before it formatted whole chunks of lines with numpy.  Every text
``serialize_automaton`` writes must equal it byte for byte, whichever
form the automaton stores and wherever the chunks split the table.
"""

import io
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rvacheck import aut_io
from rvacheck.alphabet import PARALLEL, SEQUENTIAL, AlphabetSpec
from rvacheck.aut_io import FORMAT_HEADER, parse_automaton, serialize_automaton, write_automaton
from rvacheck.automaton import Automaton
from rvacheck.oracle import gen_interval_rva, gen_known_rva, gen_random_weak, gen_residue_rva

# the state counts on either side of a new decimal place
STATE_COUNTS = (1, 2, 9, 10, 11, 99, 100, 101, 999, 1000, 1001)


def reference_text(aut):
    """The file text of ``aut``, one f-string per transition line."""
    spec = aut.alphabet
    lines = [FORMAT_HEADER, f"base: {spec.base}", f"dim: {spec.dim}", f"encoding: {spec.kind}"]
    if spec.fixed:
        lines.append("fixed: " + " ".join(str(f) for f in sorted(spec.fixed)))
    lines.append(f"states: {aut.n}")
    lines.append(f"initial: {aut.initial}")
    lines.append("accepting: " + " ".join(str(q) for q in sorted(aut.accepting)))
    lines.append("transitions:")
    arrows = [f" {spec.format_letter(spec.letter_at(i))} -> " for i in range(spec.num_letters)]
    stored = vars(aut).get("delta")  # read the array without caching rows
    rows = stored if stored is not None else aut.table.tolist()
    lines.extend(
        f"{q}{arrow}{t}" for q, row in enumerate(rows) for arrow, t in zip(arrows, row)
    )
    return "\n".join(lines) + "\n"


def random_automaton(spec, n, rng, as_rows):
    """A seeded automaton of ``n`` states over ``spec``, built from rows or an array."""
    table = np.array([[rng.randrange(n) for _ in range(spec.num_letters)] for _ in range(n)])
    accepting = {q for q in range(n) if rng.random() < 0.5}
    delta = table.tolist() if as_rows else table
    return Automaton(spec, n, rng.randrange(n), accepting, delta)


class Chunks:
    """A handle that keeps each chunk written to it."""

    def __init__(self):
        self.chunks = []

    def write(self, text):
        self.chunks.append(text)


def first_difference(text, expected):
    """The first differing line of two texts as ``(index, line, expected
    line)``, or None: pytest would diff texts of 20,000 lines in full."""
    lines, wanted = text.splitlines(True), expected.splitlines(True)
    pairs = zip(lines + [None], wanted + [None])
    return next(((i, *pair) for i, pair in enumerate(pairs) if pair[0] != pair[1]), None)


def assert_written_as_reference(aut):
    """The text equals the reference, ``write_automaton`` writes it in
    chunks of at most ``_WRITE_CELLS`` lines (one row if a row is wider),
    and writing derived neither stored form from the other."""
    stored = set(vars(aut)) & {"table", "delta"}
    text = serialize_automaton(aut)
    assert first_difference(text, reference_text(aut)) is None
    handle = Chunks()
    write_automaton(aut, handle)
    assert first_difference("".join(handle.chunks), text) is None
    rows = max(1, aut_io._WRITE_CELLS // aut.alphabet.num_letters)
    assert len(handle.chunks) == -(-aut.n // rows)
    lines = [chunk.count("\n") for chunk in handle.chunks]
    assert max(lines[1:], default=0) <= rows * aut.alphabet.num_letters
    assert set(vars(aut)) & {"table", "delta"} == stored
    return text


@pytest.mark.parametrize("as_rows", [True, False], ids=["rows", "array"])
@pytest.mark.parametrize(
    "spec",
    [
        AlphabetSpec(2, 1),
        AlphabetSpec(3, 2, SEQUENTIAL),
        AlphabetSpec(2, 3, PARALLEL, {1}),
        AlphabetSpec(12, 1, SEQUENTIAL, {0}),
    ],
    ids=str,
)
def test_state_counts_across_a_new_decimal_place(spec, as_rows):
    rng = random.Random(f"{spec}:{as_rows}")
    for n in STATE_COUNTS:
        assert_written_as_reference(random_automaton(spec, n, rng, as_rows))


@settings(max_examples=120, deadline=None)
@given(
    base=st.integers(2, 12),
    dim=st.integers(1, 3),
    kind=st.sampled_from([PARALLEL, SEQUENTIAL]),
    fix=st.booleans(),
    n=st.sampled_from(STATE_COUNTS),
    as_rows=st.booleans(),
    write_cells=st.sampled_from([1, 2, 5, 64, 1 << 16]),
    seed=st.integers(0, 2**32 - 1),
)
def test_text_equals_the_reference_writer(base, dim, kind, fix, n, as_rows, write_cells, seed):
    # fixed components write ``#`` letters; bases 11 and 12 two-character
    # digits; a small ``_WRITE_CELLS`` splits chunks inside the table
    fixed = {dim - 1} if fix else set()
    spec = AlphabetSpec(base, dim, kind, fixed)
    if n * spec.num_letters > 20000:
        n = 20000 // spec.num_letters
    aut = random_automaton(spec, n, random.Random(seed), as_rows)
    with mock.patch.object(aut_io, "_WRITE_CELLS", write_cells):
        assert_written_as_reference(aut)


def test_generated_families_equal_the_reference():
    cases = [
        gen_known_rva(kind, base, dim, encoding)
        for kind in ("full-space", "zero-only", "unit-box", "complement-full")
        for encoding in (PARALLEL, SEQUENTIAL)
        if not (kind == "complement-full" and encoding == SEQUENTIAL)
        for base in (2, 3)
        for dim in (1, 2, 3)
    ]
    cases += [gen_residue_rva(7), gen_interval_rva(5), gen_random_weak(40, 3, 2, seed=1)]
    cases += [gen_random_weak(30, 2, 2, SEQUENTIAL, seed=2)]
    forms = {"delta" in vars(aut) for aut in cases}
    assert forms == {True, False}  # both stored forms are written
    for aut in cases:
        assert_written_as_reference(aut)


def test_a_large_table_round_trips_through_the_bulk_reader():
    # 75,000 cells of rows: two chunks, read back in bulk as an array
    rows = gen_interval_rva(25000)
    text = assert_written_as_reference(rows)
    array = parse_automaton(text)
    assert "delta" not in vars(array) and array.structurally_equal(rows)
    assert assert_written_as_reference(array) == text
    with io.StringIO() as handle:
        write_automaton(array, handle)
        assert first_difference(handle.getvalue(), text) is None
