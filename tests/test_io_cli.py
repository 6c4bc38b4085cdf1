import contextlib
import io
import itertools
import json
import random
import resource
import subprocess
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rvacheck import aut_io
from rvacheck.alphabet import AlphabetSpec
from rvacheck.aut_io import AutomatonFormatError, parse_automaton, serialize_automaton
from rvacheck.automaton import SMALL_TABLE_CELLS, Automaton
from rvacheck.cli import main
from rvacheck.fixing import fix_parallel, fix_sequential
from rvacheck.minimize import _merge_equal_rows
from rvacheck.oracle import gen_interval_rva, gen_known_rva, gen_random_weak, gen_residue_rva
from rvacheck.shape import check_minimal_shape
from tests.conftest import FIG2_PATH, ROOT, reference_minimal_form


# tokens for edits of a valid file: numbers stay small or exceed every
# budget, since a state count just within it makes completion allocate
# a table of up to MAX_TABLE_CELLS entries
FUZZ_TOKENS = [
    "0", "1", "2", "3", "6", "7", "-1", "10", "9" * 20, "x", "", "#", "*", "->",
    ":", ",", "0,1", "#,1", "parallel", "sequential", "transitions:",
]
FUZZ_WORDS = FUZZ_TOKENS + [
    "\n", " ", "base: ", "dim: ", "encoding: ",
    "states: ", "initial: ", "accepting: ", "fixed: ",
]


def parse_or_format_error(text):
    """Parse with and without completion; only a format error may escape."""
    for complete in (False, True):
        try:
            parse_automaton(text, complete_with_sink=complete)
        except AutomatonFormatError:
            pass


def any_size_to_the_bulk_reader():
    """Offer tables of every size to the bulk reader, not only those of
    at least ``SMALL_TABLE_CELLS`` cells."""
    return mock.patch.object(aut_io, "SMALL_TABLE_CELLS", 0)


def outcome(text, complete):
    """What parsing ``text`` gives: the automaton's parts or the error."""
    try:
        aut = parse_automaton(text, complete_with_sink=complete)
    except AutomatonFormatError as exc:
        return "error", str(exc), exc.line
    return aut.alphabet, aut.n, aut.initial, aut.accepting, aut.table.tolist()


def parse_outcome(text, complete):
    """:func:`outcome` with the bulk reader offered the body at any size."""
    with any_size_to_the_bulk_reader():
        return outcome(text, complete)


def line_loop_outcome(text, complete):
    """:func:`outcome` with the bulk reader refusing every body."""
    with mock.patch.object(aut_io, "_bulk_table", return_value=None):
        return outcome(text, complete)


def bulk_reads(text, complete=False, any_size=True):
    """Whether the bulk reader, not the line loop, reads the body of
    ``text``; with ``any_size``, tables of every size are offered to it."""
    lift = any_size_to_the_bulk_reader() if any_size else contextlib.nullcontext()
    with lift, mock.patch.object(aut_io, "_line_table", side_effect=AssertionError):
        try:
            parse_automaton(text, complete_with_sink=complete)
        except AssertionError:
            return False
    return True


def big_row_automaton(n=350_000):
    """An automaton of ``n`` states x 3 letters, built from Python rows."""
    rows = [[(3 * q + i) * 7919 % n for i in range(3)] for q in range(n)]
    return Automaton(AlphabetSpec(2, 1), n, 0, frozenset({1, 5}), rows)


# edits of one transition line for the differential test
LINE_EDITS = [
    lambda line: line.replace(" ", "  ", 1),
    lambda line: line.replace(" ", "\t", 1),
    lambda line: " " + line,
    lambda line: line + " ",
    lambda line: line + "\r",
    lambda line: line.replace(" ", "\v", 1),
    lambda line: line.replace(" ", "\f", 1),
    lambda line: line + "  # note",
    lambda line: "# " + line,
    lambda line: line.replace(" -> ", "->", 1),
    lambda line: line.replace("->", "->>", 1),
    lambda line: line.replace(" * ", " 2 ", 1),
    lambda line: line.replace(" -> ", " ->", 1),
    lambda line: "+" + line,
    lambda line: "0" + line,
    lambda line: line + "0",
    lambda line: line.replace(" -> ", " -> 1_", 1),
    lambda line: line.replace(" -> ", " -> \u0661", 1),
    lambda line: line.replace(" -> ", " -> 9999999999999999999", 1),
    lambda line: line.replace(" -> ", " -> -", 1),
    lambda line: line.replace(" ", " 0", 1),
    lambda line: line.replace(" ", " #", 1),
    lambda line: line.replace(",", ",#", 1),
    lambda line: line.replace(",", "", 1),
    lambda line: line.replace(" 0 ", " *,0 ", 1),
    lambda line: line.replace(" 1", " 2", 1),
    lambda line: line.replace(" -> ", " 0 -> ", 1),
    lambda line: "",
]


class TestFormat:
    def test_fig2_file(self, fig2):
        assert fig2.n == 7
        assert fig2.alphabet.num_letters == 4
        assert fig2.accepting == frozenset({0, 5})

    def test_round_trip_fig2(self, fig2):
        again = parse_automaton(serialize_automaton(fig2))
        assert again.structurally_equal(fig2)

    def test_round_trip_families_and_corpus(self):
        samples = [
            gen_known_rva("full-space", 2, 2),
            gen_known_rva("unit-box", 3, 2, "sequential"),
            gen_known_rva("complement-full", 2, 2),
            fix_parallel(gen_residue_rva(7), 0, 1).automaton,  # '#' letters
            fix_sequential(gen_known_rva("unit-box", 3, 2, "sequential"), 0).automaton,
        ]
        samples += [
            gen_random_weak(1 + s % 8, 2 + s % 2, 1 + s % 2, "parallel", s)
            for s in range(10)
        ]
        for aut in samples:
            text = serialize_automaton(aut)
            again = parse_automaton(text)
            assert again.structurally_equal(aut)
            assert serialize_automaton(again) == text

    @given(
        st.integers(0, 500),
        st.integers(1, 6),
        st.sampled_from([2, 3]),
        st.sampled_from([1, 2]),
        st.sampled_from(["parallel", "sequential"]),
        st.integers(-1, 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_round_trip_property(self, seed, n, base, dim, encoding, fix):
        aut = gen_random_weak(n, base, dim, encoding, seed)
        # fix < 0 keeps the alphabet; otherwise fix a component to digit 1,
        # which brings in the letters '#', '#,1' and '1,#'
        if fix >= 0 and encoding == "parallel":
            aut = fix_parallel(aut, min(fix, dim - 1), 1).automaton
        elif fix >= 0:
            aut = fix_sequential(aut, 1).automaton
        text = serialize_automaton(aut)
        again = parse_automaton(text)
        assert again.structurally_equal(aut)
        assert serialize_automaton(again) == text
        # comment lines and comments after the destination are skipped
        commented = "\n".join(
            line + "  # note" if "->" in line else line for line in text.splitlines()
        ).replace("transitions:", "transitions:\n# 0 0 -> 0\n  # note", 1)
        assert parse_automaton(commented).structurally_equal(aut)

    @given(
        st.text(max_size=200)
        | st.lists(st.sampled_from(FUZZ_WORDS), max_size=60).map(
            lambda words: aut_io.FORMAT_HEADER + "\n" + "".join(words)
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_arbitrary_text_raises_only_format_errors(self, text):
        parse_or_format_error(text)

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_edited_fig2_raises_only_format_errors(self, data):
        lines = FIG2_PATH.read_text().splitlines()
        for _ in range(data.draw(st.integers(1, 4))):
            i = data.draw(st.integers(0, max(len(lines) - 1, 0)))
            op = data.draw(st.sampled_from(["delete", "duplicate", "token", "insert"]))
            if op == "insert" or not lines:
                lines.insert(i, data.draw(st.text(max_size=12)))
            elif op == "delete":
                del lines[i]
            elif op == "duplicate":
                lines.insert(i, lines[i])
            else:
                words = lines[i].split() or [""]
                k = data.draw(st.integers(0, len(words) - 1))
                words[k] = data.draw(st.sampled_from(FUZZ_TOKENS) | st.text(max_size=4))
                lines[i] = " ".join(words)
        parse_or_format_error("\n".join(lines))

    def test_bulk_reader_reads_what_serialize_writes(self):
        for aut in (gen_residue_rva(7), gen_known_rva("unit-box", 3, 2, "sequential"),
                    gen_random_weak(6, 3, 2, "parallel", 1)):
            text = serialize_automaton(aut)
            assert bulk_reads(text)
            with any_size_to_the_bulk_reader():
                assert parse_automaton(text).structurally_equal(aut)
        # a fixed alphabet is left to the line loop, even where no line
        # spells a '#' letter
        fixed = serialize_automaton(fix_parallel(gen_residue_rva(7), 0, 1).automaton)
        assert not bulk_reads(fixed)
        star_lines = "\n".join(line for line in fixed.splitlines() if "#" not in line)
        assert not bulk_reads(star_lines, complete=True)

    def test_small_tables_are_read_into_rows(self):
        # 682 and 683 states x 3 letters: 2046 and 2049 cells
        assert aut_io.SMALL_TABLE_CELLS == 2048
        small, large = gen_residue_rva(682), gen_residue_rva(683)
        text = serialize_automaton(small)
        assert not bulk_reads(text, any_size=False) and bulk_reads(text)
        read = parse_automaton(text)
        assert "delta" in vars(read) and "table" not in vars(read)
        assert read.structurally_equal(small)
        text = serialize_automaton(large)
        assert bulk_reads(text, any_size=False)
        read = parse_automaton(text)
        assert "table" in vars(read) and "delta" not in vars(read)
        assert read.structurally_equal(large)

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_bulk_reader_agrees_with_the_line_loop(self, data):
        seed = data.draw(st.integers(0, 200))
        base, dim = data.draw(st.sampled_from([2, 3])), data.draw(st.sampled_from([1, 2]))
        encoding = data.draw(st.sampled_from(["parallel", "sequential"]))
        aut = gen_random_weak(1 + seed % 6, base, dim, encoding, seed)
        if data.draw(st.integers(0, 3)) == 0:  # '#' letters
            aut = (fix_parallel(aut, 0, 1) if encoding == "parallel" else fix_sequential(aut, 1)).automaton
        lines = serialize_automaton(aut).splitlines()
        first = lines.index("transitions:") + 1
        head, body = lines[:first], lines[first:]
        for _ in range(data.draw(st.integers(0, 3))):
            op = data.draw(st.sampled_from(["edit", "delete", "duplicate", "shuffle"]))
            i = data.draw(st.integers(0, max(len(body) - 1, 0)))
            if not body:
                break
            if op == "edit":
                body[i] = data.draw(st.sampled_from(LINE_EDITS))(body[i])
            elif op == "delete":
                del body[i]
            elif op == "duplicate":
                body.insert(i, body[i])
            else:
                body = data.draw(st.permutations(body))
        ending = data.draw(st.sampled_from(["\n", "\n", "\n", "\r\n"]))
        text = ending.join(head + body) + data.draw(st.sampled_from(["", ending]))
        for complete in (False, True):
            assert parse_outcome(text, complete) == line_loop_outcome(text, complete)

    @pytest.mark.parametrize("dim, fixed, old, new, message", [
        # the separator's slot, taken by a digit beyond the base
        (1, False, "0 * -> 1", "0 2 -> 1", "digit 2 out of range for base 2 (line 11)"),
        (1, False, "0 * -> 1", "0 * ->> 1", "states must be integers (line 11)"),
        (1, False, "0 * -> 1", " * -> 1", "expected '<src> <letter>' before '->', found '*' (line 11)"),
        (1, False, "0 * -> 1", "3 * -> 1", "transition state out of range (line 11)"),
        # 2^64 + 1 and 2 * 10^18 - 1: values beyond int64 arithmetic
        (1, False, "0 * -> 1", "0 * -> 18446744073709551617", "transition state out of range (line 11)"),
        (1, False, "0 * -> 1", "0 * -> 1999999999999999999", "transition state out of range (line 11)"),
        (1, False, "0 * -> 1", "0 0,0 -> 1", "letter '0,0' has 2 components, expected 1 (line 11)"),
        (2, False, "0 0,1 -> 0", "0 0;1 -> 0", "letter '0;1' has 1 components, expected 2 (line 10)"),
        (2, True, "0 #,1 -> 0", "0 1,1 -> 0", "component 0 of (1, 1) must be '#' (line 11)"),
    ])
    def test_lines_the_bulk_reader_leaves_to_the_line_loop(self, dim, fixed, old, new, message):
        aut = gen_known_rva("full-space", 2, dim)
        if fixed:
            aut = fix_parallel(aut, 0, 1).automaton
        text = serialize_automaton(aut)
        assert old in text
        edited = text.replace(old, new, 1)
        for complete in (False, True):
            with pytest.raises(AutomatonFormatError) as err:
                parse_automaton(edited, complete_with_sink=complete)
            assert str(err.value) == message
            assert line_loop_outcome(edited, complete) == parse_outcome(edited, complete)

    def test_line_ends_read_alike(self):
        # 400 states, every transition into 0-9: a destination "9\r"
        # misread as 9 * 10 + ("\r" - "0") mod 256 = 311 would be in range
        n = 400
        table = (np.arange(n * 3, dtype=np.int64) % 10).reshape(n, 3)
        aut = Automaton(AlphabetSpec(2, 1), n, 0, frozenset({2}), table)
        text = serialize_automaton(aut)
        assert bulk_reads(text)
        for variant in (text.replace("\n", "\r\n"), text.replace("\n", "\r"),
                        text.replace(" ->", "\t->"), text.replace("\n", " \n")):
            assert not bulk_reads(variant)
            assert parse_automaton(variant).structurally_equal(aut)

    @given(st.text(alphabet=st.sampled_from("ab \r\n\v\f\x1c\x1d\x1e\x85\u2028\u2029"), max_size=30))
    @settings(max_examples=300, deadline=None)
    def test_header_lines_split_as_splitlines(self, text):
        # header line numbers and the body offset come from this split
        pieces = list(aut_io._lines(text))
        assert [line for line, _ in pieces] == text.splitlines()
        for (line, end), rest in zip(pieces, text.splitlines(keepends=True)):
            assert text[end - len(rest) : end] == rest

    def test_three_spaces_per_line_on_average_are_not_enough(self):
        lines = serialize_automaton(gen_known_rva("full-space", 2, 1)).splitlines()
        first = lines.index("transitions:") + 1
        lines[first : first + 2] = ["0 0 -> 1 2", "0 -> 3"]
        text = "\n".join(lines) + "\n"
        for complete in (False, True):
            with pytest.raises(AutomatonFormatError) as err:
                parse_automaton(text, complete_with_sink=complete)
            assert str(err.value) == "states must be integers (line 9)"
            assert line_loop_outcome(text, complete) == parse_outcome(text, complete)

    def test_letter_spellings_share_one_slot(self, fig2_text):
        # '01' is read as the letter 1, so it collides with the '1' line
        lines = fig2_text.splitlines()
        at = next(i for i, line in enumerate(lines) if line.startswith("0 1 "))
        respelled = list(lines)
        respelled[at] = lines[at].replace("0 1 ", "0 01 ", 1)
        assert parse_automaton("\n".join(respelled)).structurally_equal(
            parse_automaton(fig2_text)
        )
        with pytest.raises(AutomatonFormatError) as err:
            parse_automaton("\n".join(respelled + [lines[at]]))
        assert "duplicate" in str(err.value)
        assert err.value.line == len(lines) + 1

    def test_missing_transition_reported(self, fig2_text):
        pruned = "\n".join(
            line for line in fig2_text.splitlines() if not line.startswith("3 1 ")
        )
        with pytest.raises(AutomatonFormatError) as err:
            parse_automaton(pruned)
        assert "state 3" in str(err.value) and "1" in str(err.value)

    def test_completion_adds_sink(self, fig2_text):
        pruned = "\n".join(
            line for line in fig2_text.splitlines() if not line.startswith("3 1 ")
        )
        aut = parse_automaton(pruned, complete_with_sink=True)
        assert aut.n == 8
        assert aut.delta[3][aut.alphabet.letter_index((1,))] == 7
        assert 7 not in aut.accepting

    def test_complete_automaton_gains_no_sink(self, fig2_text):
        aut = parse_automaton(fig2_text, complete_with_sink=True)
        assert aut.n == 7

    def test_duplicate_transition_rejected(self, fig2_text):
        doubled = fig2_text + "\n0 0 -> 2\n"
        with pytest.raises(AutomatonFormatError) as err:
            parse_automaton(doubled)
        assert "duplicate" in str(err.value)

    def test_digit_out_of_range(self):
        text = FIG2_PATH.read_text().replace("base: 3", "base: 2")
        with pytest.raises(AutomatonFormatError) as err:
            parse_automaton(text)
        lines = text.splitlines()
        assert err.value.line == 1 + next(
            i for i, line in enumerate(lines) if line.startswith("0 2 ")
        )

    def test_declared_size_beyond_the_lines_is_not_allocated(self, tmp_path):
        text = (
            "rva-automaton v1\nbase: 2\ndim: 1\nencoding: parallel\n"
            "states: 2000000\ninitial: 0\naccepting:\ntransitions:\n"
            "0 0 -> 0\n0 1 -> 0\n0 * -> 0\n"
        )
        tracemalloc.start()
        try:
            with pytest.raises(AutomatonFormatError) as err:
                parse_automaton(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert "6000000" in str(err.value) and "3 lines" in str(err.value)
        assert "state 1" in str(err.value)
        path = tmp_path / "huge.rva"
        path.write_text(text)
        assert main(["check", str(path), "--mode", "parallel"]) == 2

    def test_declared_table_over_budget_is_refused(self, monkeypatch, fig2_text, tmp_path):
        # fig2 declares 7 states x 4 letters = 28 transitions
        monkeypatch.setattr(aut_io, "MAX_TABLE_CELLS", 28)
        assert parse_automaton(fig2_text, complete_with_sink=True).n == 7
        monkeypatch.setattr(aut_io, "MAX_TABLE_CELLS", 27)
        # a complete file is as large as its lines: only completion is held
        assert parse_automaton(fig2_text).n == 7
        with pytest.raises(AutomatonFormatError) as err:
            parse_automaton(fig2_text, complete_with_sink=True)
        assert "budget of 27" in str(err.value) and "= 28 transitions" in str(err.value)
        path = tmp_path / "fig2.rva"
        path.write_text(fig2_text)
        assert main(["check", str(path), "--mode", "parallel", "--complete-with-sink"]) == 2
        # the letter count alone is held to the budget, with or without
        # completion, and b^d is not computed beyond it
        for dim in ("4", "1000000000"):
            wide = fig2_text.replace("dim: 1", "dim: " + dim)
            with pytest.raises(AutomatonFormatError) as err:
                parse_automaton(wide)
            assert f"3^{dim} + 1 letters" in str(err.value)
            assert "budget of 27" in str(err.value)

    def test_writing_holds_a_chunk_not_the_text(self, tmp_path):
        # ``gen`` writes about 1M transitions of Python rows, 21 MB of
        # text, with less address space left than the text takes
        path = tmp_path / "big.rva"
        text = serialize_automaton(big_row_automaton())
        probe = (
            "import resource, sys\n"
            "from rvacheck import oracle\n"
            "from rvacheck.cli import main\n"
            "from tests.test_io_cli import big_row_automaton\n"
            "aut = big_row_automaton()\n"
            "oracle.gen_known_rva = lambda *args: aut\n"
            "with open('/proc/self/statm') as statm:\n"
            "    size = int(statm.read().split()[0]) * resource.getpagesize()\n"
            f"resource.setrlimit(resource.RLIMIT_AS, (size + {len(text)}, size + {len(text)}))\n"
            f"sys.exit(main(['gen', '--kind', 'full-space', '-o', {str(path)!r}]))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, cwd=ROOT
        )
        assert proc.returncode == 0, proc.stderr
        written = path.read_text()
        assert written == text
        # 17 chunks of transitions, each written once
        assert parse_automaton(written).structurally_equal(big_row_automaton())

    def test_serialize_reads_the_stored_form(self):
        # rows or array, the text is the same, and writing derives neither
        rows = big_row_automaton(5000)
        array = Automaton(rows.alphabet, rows.n, rows.initial, rows.accepting,
                          np.array(rows.delta))
        text = serialize_automaton(rows)
        assert serialize_automaton(array) == text
        assert "table" not in vars(rows) and "delta" not in vars(array)
        assert parse_automaton(text).structurally_equal(rows)

    def test_error_carries_line_number(self):
        text = (
            "rva-automaton v1\nbase: x\ndim: 1\nencoding: parallel\n"
            "states: 1\ninitial: 0\naccepting:\ntransitions:\n"
        )
        with pytest.raises(AutomatonFormatError) as err:
            parse_automaton(text)
        assert err.value.line == 2


# states 2 and 3 form an unreachable cycle where only 3 accepts
UNREACHABLE_NON_WEAK = (
    "rva-automaton v1\nbase: 2\ndim: 1\nencoding: parallel\n"
    "states: 4\ninitial: 0\naccepting: 1 3\ntransitions:\n"
    "0 0 -> 0\n0 1 -> 1\n0 * -> 1\n1 0 -> 1\n1 1 -> 1\n1 * -> 1\n"
    "2 0 -> 3\n2 1 -> 3\n2 * -> 3\n3 0 -> 2\n3 1 -> 2\n3 * -> 2\n"
)


def twinned_interval(n=800, seed=7):
    """``gen_interval_rva(n)`` plus an unreachable twin (same row, same
    acceptance) of every fifth state and one unreachable state of its
    own, with the states shuffled: a table of at least
    ``SMALL_TABLE_CELLS`` cells whose minimal form takes the merge, the
    trim and the quotient."""
    base = gen_interval_rva(n)
    twins = range(0, n, 5)
    rows = base.delta + [base.delta[q] for q in twins]
    accepting = set(base.accepting) | {n + i for i, q in enumerate(twins) if q in base.accepting}
    rows.append([len(rows)] * base.alphabet.num_letters)
    perm = list(range(len(rows)))
    random.Random(seed).shuffle(perm)
    shuffled = [None] * len(rows)
    for q, row in enumerate(rows):
        shuffled[perm[q]] = [perm[t] for t in row]
    return Automaton(
        base.alphabet, len(rows), perm[base.initial], {perm[q] for q in accepting}, shuffled
    )


def run_cli(*argv):
    proc = subprocess.run(
        [sys.executable, "-m", "rvacheck.cli", *argv],
        capture_output=True,
        text=True,
    )
    return proc


def run_cli_optimized(*argv):
    """The CLI under ``python -O`` (no asserts), in 2 GiB of address space."""

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    return subprocess.run(
        [sys.executable, "-O", "-m", "rvacheck.cli", *argv],
        capture_output=True,
        text=True,
        preexec_fn=cap,
    )


class TestCli:
    def test_guards_hold_without_asserts(self, fig2_text, tmp_path):
        huge = fig2_text.replace("states: 7", "states: 1000000000000")
        cases = {
            "fig2": (fig2_text, 1),
            "out-of-range": (fig2_text.replace("0 0 -> 1", "0 0 -> 9"), 2),
            "wrong-width": (fig2_text.replace("0 0 -> 1", "0 0,0 -> 1"), 2),
            "over-budget": (huge, 2),
        }
        for name, (text, code) in cases.items():
            path = tmp_path / f"{name}.rva"
            path.write_text(text)
            proc = run_cli_optimized(
                "check", str(path), "--mode", "parallel", "--complete-with-sink"
            )
            assert proc.returncode == code, (name, proc.stderr)
            assert "Traceback" not in proc.stderr, name
        assert "budget" in proc.stderr

    def test_classify_decides_weakness_on_the_reachable_part(self, tmp_path):
        path = tmp_path / "part.rva"
        path.write_text(UNREACHABLE_NON_WEAK)
        proc = run_cli("classify", str(path), "--json")
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["weak"] is True

    def test_classify_reports_null_shape_when_not_weak(self, tmp_path):
        path = tmp_path / "mixed.rva"
        path.write_text(
            "rva-automaton v1\nbase: 2\ndim: 1\nencoding: parallel\n"
            "states: 2\ninitial: 0\naccepting: 0\ntransitions:\n"
            "0 0 -> 1\n0 1 -> 1\n0 * -> 1\n1 0 -> 0\n1 1 -> 0\n1 * -> 0\n"
        )
        proc = run_cli("classify", str(path), "--json")
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout)
        assert payload["weak"] is False
        assert payload["d_parallel"] is None and payload["d_sequential"] is None

    def test_check_failure_exit_code_and_witness(self):
        proc = run_cli("check", str(FIG2_PATH), "--mode", "parallel", "--json")
        assert proc.returncode == 1
        payload = json.loads(proc.stdout)
        assert payload["answer"] is False
        assert payload["witness"]["kind"] == "zero-loop-broken"
        assert payload["witness"]["expansion"]["kind"] == "equal-value-pair"
        assert payload["stats"]["states"] == 7
        assert payload["stats"]["time_ms"] >= 0

    def test_check_success_exit_code(self, tmp_path):
        target = tmp_path / "full.rva"
        run = run_cli("gen", "--kind", "full-space", "--base", "2", "--dim", "1",
                      "-o", str(target))
        assert run.returncode == 0
        proc = run_cli("check", str(target), "--mode", "parallel")
        assert proc.returncode == 0
        assert "yes" in proc.stdout

    def test_check_loads_the_word_layer_only_on_no(self, tmp_path):
        # a small table, and one above the size gate: a "yes" imports
        # neither the word layer nor numpy.ma (which a bare np.unique loads)
        small, large = gen_known_rva("full-space", 2, 2), gen_residue_rva(1500)
        for name, aut in (("full", small), ("residue", large)):
            path = tmp_path / f"{name}.rva"
            path.write_text(serialize_automaton(aut))
            probe = (
                "import sys\n"
                "from rvacheck.cli import main\n"
                f"code = main(['check', {str(path)!r}, '--mode', 'parallel'])\n"
                "print(code, [m for m in ('rvacheck.oracle', 'rvacheck.words', 'fractions',"
                " 'numpy.ma') if m in sys.modules])\n"
            )
            proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
            assert proc.stdout.splitlines()[-1] == "0 []", (name, proc.stderr)
        proc = run_cli("check", str(FIG2_PATH), "--mode", "parallel")
        assert proc.returncode == 1
        assert proc.stdout == (
            "no: zero-loop-broken\n"
            "  accepted: 0 1 * / 0\n"
            "  rejected: 1 * / 0\n"
            "  value: (1)\n"
        )

    def test_unwritable_output_exit_code(self, tmp_path):
        target = str(tmp_path / "no" / "such" / "dir" / "x.rva")
        for argv in (("minimize", str(FIG2_PATH)), ("gen", "--kind", "full-space")):
            proc = run_cli(*argv, "-o", target)
            assert proc.returncode == 2, argv
            assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr

    def test_gen_held_to_the_table_budget(self):
        # 2^40 + 1 letters; a 2^13 + 1 state table of 2^12 + 1 letters
        for kind, dim in (("full-space", "40"), ("unit-box", "12")):
            proc = run_cli_optimized("gen", "--kind", kind, "--base", "2", "--dim", dim)
            assert proc.returncode == 2, (kind, proc.stderr)
            assert "budget" in proc.stderr and "Traceback" not in proc.stderr
            assert not proc.stdout

    def test_check_modes_cover_dim1_and_complement(self, tmp_path):
        full = tmp_path / "full.rva"
        run_cli("gen", "--kind", "full-space", "-o", str(full))
        assert run_cli("check", str(full), "--mode", "dim1").returncode == 0
        comp = tmp_path / "comp.rva"
        run_cli("gen", "--kind", "complement-full", "-o", str(comp))
        assert run_cli("check", str(comp), "--mode", "complement").returncode == 0

    def test_usage_error_exit_code(self, tmp_path):
        missing = tmp_path / "nope.rva"
        proc = run_cli("check", str(missing), "--mode", "parallel")
        assert proc.returncode == 2
        bad = tmp_path / "bad.rva"
        bad.write_text("not an automaton\n")
        proc = run_cli("classify", str(bad))
        assert proc.returncode == 2
        assert "error" in proc.stderr

    def test_minimize_prints_classes(self, tmp_path):
        out = tmp_path / "min.rva"
        proc = run_cli("minimize", str(FIG2_PATH), "-o", str(out), "--json")
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["states"] == 5
        classes = {frozenset(v) for v in payload["classes"].values()}
        assert classes == {
            frozenset({0, 2}),
            frozenset({1}),
            frozenset({3, 4}),
            frozenset({5}),
            frozenset({6}),
        }
        small = parse_automaton(out.read_text())
        assert small.n == 5

    def test_minimize_ignores_unreachable_non_weak_part(self, tmp_path):
        path = tmp_path / "part.rva"
        path.write_text(UNREACHABLE_NON_WEAK)
        proc = run_cli("minimize", str(path), "--json")
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout)
        assert payload["states"] == 2
        assert sorted(payload["classes"].values()) == [[0], [1]]
        assert run_cli("check", str(path), "--mode", "parallel").returncode in (0, 1)

    def test_minimize_and_classify_compose_merge_trim_and_quotient(self, tmp_path):
        aut = twinned_interval()
        assert aut.n * aut.alphabet.num_letters >= SMALL_TABLE_CELLS
        assert _merge_equal_rows(aut)[1] is not None
        want = reference_minimal_form(aut)
        classes = {}
        for q, target_state in enumerate(want.mapping.tolist()):
            if target_state >= 0:
                classes.setdefault(str(target_state), []).append(q)
        assert sum(map(len, classes.values())) == 800  # the twins and the lone state: -1
        path, out = tmp_path / "twinned.rva", tmp_path / "min.rva"
        path.write_text(serialize_automaton(aut))
        proc = run_cli("minimize", str(path), "-o", str(out), "--json")
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == {"states": want.target.n, "classes": classes}
        assert parse_automaton(out.read_text()).structurally_equal(want.target)
        proc = run_cli("classify", str(path), "--json")
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout)
        assert payload["weak"] is True and payload["d_sequential"] is None
        shape = check_minimal_shape(want.target, (want.target.initial,))
        assert payload["d_parallel"] is shape.answer is True

    def test_complement_witness_value_is_signed(self, tmp_path):
        text = serialize_automaton(
            Automaton(AlphabetSpec(2, 1), 6, 0, frozenset({3}),
                      [[5, 1, 4], [4, 2, 3], [2, 2, 4], [3, 3, 4], [4, 4, 4], [5, 4, 3]])
        )
        path = tmp_path / "sign.rva"
        path.write_text(text)
        proc = run_cli("check", str(path), "--mode", "complement", "--json")
        assert proc.returncode == 1
        expansion = json.loads(proc.stdout)["witness"]["expansion"]
        assert expansion["value"] == ["-1"]

    def test_eval_word(self):
        accept = run_cli("eval", str(FIG2_PATH), "--word", "2 * / 1")
        assert accept.returncode == 0 and "accepted" in accept.stdout
        reject = run_cli("eval", str(FIG2_PATH), "--word", "0 / 1")
        assert reject.returncode == 1 and "rejected" in reject.stdout

    def test_oracle_command(self, tmp_path):
        proc = run_cli("oracle", str(FIG2_PATH), "--json")
        assert proc.returncode == 1
        payload = json.loads(proc.stdout)
        assert payload["witness"]["kind"] == "equal-value-pair"
        full = tmp_path / "full.rva"
        run_cli("gen", "--kind", "full-space", "-o", str(full))
        proc = run_cli("oracle", str(full), "--bound", "6")
        assert proc.returncode == 0

    def test_oracle_bound_is_search_depth(self, tmp_path, capsys):
        # one accepting state looping on every letter: "/ 0" breaks the
        # shape at prefix length 0, yet lies at product depth 0, which
        # --bound 0 does not search and --bound 1 does
        spec = AlphabetSpec(2, 1)
        path = tmp_path / "loop.rva"
        path.write_text(serialize_automaton(Automaton(spec, 1, 0, {0}, [[0, 0, 0]])))
        assert main(["oracle", str(path), "--bound", "0"]) == 0
        assert capsys.readouterr().out == (
            "yes (bounded): no counterexample among product nodes"
            " at search depth below 0\n"
        )
        for bound in ([], ["--bound", "1"]):
            assert main(["oracle", str(path), *bound]) == 1
            assert capsys.readouterr().out == "no: shape-violation\n  word: / 0\n"
        assert main(["oracle", str(FIG2_PATH), "--bound", "-1"]) == 2
        assert capsys.readouterr().err == (
            "error: the search bound must not be negative, got -1\n"
        )

    def test_classify_reports_shape(self):
        proc = run_cli("classify", str(FIG2_PATH), "--json")
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["weak"] is True
        assert payload["d_parallel"] is True

    def test_in_process_entry_point(self, capsys):
        code = main(["classify", str(FIG2_PATH)])
        assert code == 0
        out = capsys.readouterr().out
        assert "weak: True" in out


class EndlessText(io.TextIOBase):
    """A text file that opens with ``head`` and then never ends; reading
    it whole, or a line of it without a limit, fails the test."""

    def __init__(self, head=""):
        self.head = head

    def readline(self, size=-1):
        assert size >= 0, "a line read without a limit"
        line, self.head = self.head[:size], self.head[size:]
        if "\n" in line:
            line, rest = line.split("\n", 1)
            line += "\n"
            self.head = rest + self.head
        return line or "x" * size

    def read(self, size=-1):
        raise AssertionError("read past the line before the header")


class TestHeaderRead:
    """A file is refused after its first line that is neither blank nor a
    comment unless that line is the header, and at any longer line before it."""

    def test_over_cap_line_exits_2_with_one_line(self, tmp_path, capsys):
        path = tmp_path / "long.rva"
        path.write_text("# a note\n" + "0" * 40 + "\n")
        with mock.patch.object(aut_io, "MAX_HEADER_LINE", 16):
            assert main(["check", str(path), "--mode", "parallel"]) == 2
        err = capsys.readouterr().err
        assert err == "error: line over 16 characters before the header (line 2)\n"

    def test_endless_input_is_refused_after_one_line(self):
        with pytest.raises(AutomatonFormatError, match="line over"):
            aut_io.read_automaton(EndlessText("\n# c\n"))
        with pytest.raises(AutomatonFormatError, match="expected header .* [(]line 3[)]"):
            aut_io.read_automaton(EndlessText("\n# c\nrva-automaton v2\n"))

    def test_header_after_comment_lines_parses(self, fig2_text):
        body = fig2_text.split(aut_io.FORMAT_HEADER, 1)[1]
        for text in (
            fig2_text,  # comment lines, then the header
            "\n  \n# note\n" + aut_io.FORMAT_HEADER + "  # the format" + body,
            "# note\v" + aut_io.FORMAT_HEADER + body,  # a header after a vertical tab
        ):
            read = aut_io.read_automaton(io.StringIO(text))
            assert read.structurally_equal(parse_automaton(fig2_text))

    def test_refusal_names_the_line_as_parsing_does(self, fig2_text):
        body = fig2_text.split(aut_io.FORMAT_HEADER, 1)[1]
        for head in ("base: 2\n", "\n# c\n\x0bv1\n", "# a\x1cb\n"):
            with pytest.raises(AutomatonFormatError) as parsed:
                parse_automaton(head + body)
            with pytest.raises(AutomatonFormatError) as read:
                aut_io.read_automaton(io.StringIO(head + body))
            assert str(read.value) == str(parsed.value)

    def test_memory_error_exits_2_with_one_line(self, capsys):
        with mock.patch("rvacheck.cli.read_automaton", side_effect=MemoryError):
            assert main(["check", str(FIG2_PATH), "--mode", "parallel"]) == 2
        assert capsys.readouterr().err == "error: out of memory\n"


class EndlessBody(io.StringIO):
    """A header up to ``transitions:``, then comment lines without end."""

    def read(self, size=-1):
        assert size >= 0, "read to the end of an endless file"
        return ("# note\n" * (size // 7 + 1))[:size]


class TestBodyRead:
    """The transitions are held to their cells' longest written lines
    plus ``COMMENT_ALLOWANCE`` characters."""

    def test_written_files_fit_without_the_allowance(self, monkeypatch, fig2_text):
        monkeypatch.setattr(aut_io, "COMMENT_ALLOWANCE", 0)
        automata = [parse_automaton(fig2_text), gen_residue_rva(1001), gen_interval_rva(300)]
        for kind, base, dim, enc in itertools.product(
            ("full-space", "unit-box"), (2, 3, 10, 12), (1, 2), ("parallel", "sequential")
        ):
            automata.append(gen_known_rva(kind, base, dim, enc))
        for aut in automata[:]:
            spec = aut.alphabet
            if spec.is_parallel:
                automata.append(fix_parallel(aut, spec.dim - 1, 0).automaton)
            else:
                automata.append(fix_sequential(aut, 0).automaton)
        for aut in automata:
            text = serialize_automaton(aut)
            assert aut_io.read_automaton(io.StringIO(text)).structurally_equal(aut)
        # fig2's file is the writer's text: it fills its budget exactly
        with pytest.raises(AutomatonFormatError, match="over the budget of 252 characters"):
            aut_io.read_automaton(io.StringIO(fig2_text + "\n"))

    def test_over_budget_body_exits_2_with_one_line(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(aut_io, "COMMENT_ALLOWANCE", 64)
        one_state = serialize_automaton(Automaton(AlphabetSpec(2, 1), 1, 0, {0}, [[0, 0, 0]]))
        budget = 3 * (2 + 1 + 6) + 64  # 3 cells of "0 L -> 0\n" at most
        path = tmp_path / "commented.rva"
        path.write_text(one_state + "#" * (budget - len(one_state.split("transitions:\n")[1])))
        with open(path) as handle:
            assert aut_io.read_automaton(handle).n == 1
        path.write_text(one_state + "# note\n" * 1000)
        assert main(["check", str(path), "--mode", "parallel"]) == 2
        err = capsys.readouterr().err
        assert err == f"error: transitions over the budget of {budget} characters\n"

    def test_endless_body_is_refused_after_the_budget(self, fig2_text):
        head = fig2_text.split("transitions:\n")[0] + "transitions:\n"
        budget = 7 * 4 * 9 + aut_io.COMMENT_ALLOWANCE
        with pytest.raises(AutomatonFormatError, match=f"over the budget of {budget} "):
            aut_io.read_automaton(EndlessBody(head))


class TestCliFuzz:
    EDITS = 200
    WORDS = ["0 * / 0", "1 0 * / 1", "0,1 * / 0,0", "* / 1", "0 /", "2 / #"]

    def seed_texts(self, tmp_path):
        """fig2, gen files of every kind, and minimize -o files."""
        texts = [FIG2_PATH.read_text()]
        out = tmp_path / "seed.rva"
        argvs = [
            ["gen", "--kind", kind, "--base", base, "--dim", dim, "--encoding", enc]
            for kind in ("full-space", "zero-only", "unit-box")
            for base, dim, enc in (("2", "1", "parallel"), ("3", "2", "sequential"))
        ]
        argvs += [["gen", "--kind", "complement-full"], ["minimize", str(FIG2_PATH)]]
        for argv in argvs:
            assert self.run(argv + ["-o", str(out)]) == 0, argv
            texts.append(out.read_text())
        return texts

    @staticmethod
    def run(argv):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return main(argv)

    def test_edited_files_exit_0_1_or_2_without_a_traceback(self, tmp_path):
        texts = self.seed_texts(tmp_path)
        rng = random.Random(20261019)
        path, out = str(tmp_path / "edited.rva"), str(tmp_path / "out.rva")
        codes = set()
        for _ in range(self.EDITS):
            lines = rng.choice(texts).splitlines()
            for _ in range(rng.randint(1, 3)):
                i = rng.randrange(len(lines) + 1)
                op = rng.choice(["delete", "duplicate", "token", "insert"])
                if op == "insert" or i == len(lines):
                    lines.insert(i, rng.choice(FUZZ_WORDS) + rng.choice(FUZZ_TOKENS))
                elif op == "delete":
                    del lines[i]
                elif op == "duplicate":
                    lines.insert(i, lines[i])
                else:
                    words = lines[i].split() or [""]
                    words[rng.randrange(len(words))] = rng.choice(FUZZ_TOKENS)
                    lines[i] = " ".join(words)
            text = "\n".join(lines) + "\n"
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
            mode = rng.choice(["parallel", "sequential", "dim1", "complement"])
            for argv in (
                ["check", path, "--mode", mode, "--json"],
                ["check", path, "--mode", mode, "--complete-with-sink"],
                ["classify", path],
                ["minimize", path, "-o", out],
                ["eval", path, "--word", rng.choice(self.WORDS)],
                ["oracle", path, "--bound", "3"],
            ):
                try:
                    code = self.run(argv)
                except Exception as exc:  # a traceback from the CLI
                    raise AssertionError((argv, text)) from exc
                assert code in (0, 1, 2), (argv, text)
                codes.add(code)
        assert codes == {0, 1, 2}
