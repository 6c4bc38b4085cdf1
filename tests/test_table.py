"""The array-backed table against row-by-row reference loops.

Fixings, unions, refinement and the dual-tail tests read the ``n x
letters`` array with gathers, and their letter sets are index
arithmetic on the mixed-radix letter order; each is compared here with
the plain loop over Python rows and letter tuples that defines it.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rvacheck import minimize
from rvacheck.alphabet import BLANK, PARALLEL, SEQUENTIAL, AlphabetSpec
from rvacheck.aut_io import serialize_automaton
from rvacheck.automaton import SMALL_TABLE_CELLS, Automaton, trim_accessible
from rvacheck.check import _dual_tails, _first_mismatch
from rvacheck.fixing import fix_parallel, fix_sequential
from rvacheck.minimize import (
    _refinement_rounds,
    minimize_weak,
    normalized_colors,
    refine_partition,
)
from rvacheck.oracle import (
    _dual_pairs,
    gen_random_sequential_shaped,
    gen_random_weak,
    parallelize_automaton,
)
from rvacheck.verdict import PairMismatch
from tests.conftest import language_classes, unary_counter


@st.composite
def weak_automata(draw):
    """Random weak automata and shaped ones, base 2-4, dimension 1-3;
    fewer states once a parallel alphabet has more than 9 digit letters."""
    seed = draw(st.integers(0, 10**6))
    base = draw(st.sampled_from([2, 3, 4]))
    dim = draw(st.sampled_from([1, 2, 3]))
    wide = base**dim > 9
    kind = draw(st.sampled_from(["weak", "shaped", "parallelized"]))
    if kind == "weak":
        encoding = draw(st.sampled_from([PARALLEL, SEQUENTIAL]))
        return gen_random_weak(draw(st.integers(1, 4 if wide else 8)), base, dim, encoding, seed)
    shaped = gen_random_sequential_shaped(draw(st.integers(4, 12 if wide else 40)), base, dim, seed)
    return shaped if kind == "shaped" else parallelize_automaton(shaped)


def minimal(aut):
    trimmed, _ = trim_accessible(aut)
    return minimize_weak(trimmed).target


# ---------------------------------------------------------------------------
# reference loops


def fix_parallel_rows(aut, f, z):
    spec = aut.alphabet
    new_spec = AlphabetSpec(spec.base, spec.dim, PARALLEL, spec.fixed | {f})
    filled = [
        spec.letter_index(tuple(z if i == f else sym for i, sym in enumerate(letter)))
        for letter in new_spec.digit_letters()
    ]
    rows = [[row[i] for i in filled] + [row[spec.star_index]] for row in aut.delta]
    return Automaton(new_spec, aut.n, aut.initial, aut.accepting, rows)


def fix_sequential_rows(aut, z):
    spec = aut.alphabet
    d = spec.dim
    new_spec = AlphabetSpec(spec.base, d, SEQUENTIAL, frozenset({d - 1}))
    sink = aut.n * d
    width = new_spec.num_letters
    rows = []
    for q in range(aut.n):
        for i in range(d):
            row = [sink] * width
            if i < d - 1:
                for a in range(spec.base):
                    row[a] = aut.delta[q][a] * d + (i + 1)
            else:
                row[new_spec.letter_index(BLANK)] = aut.delta[q][z] * d
            row[new_spec.star_index] = aut.delta[q][spec.star_index] * d + i
            rows.append(row)
    rows.append([sink] * width)
    accepting = frozenset(q * d + i for q in aut.accepting for i in range(d))
    return Automaton(new_spec, aut.n * d + 1, aut.initial * d, accepting, rows)


def union_classes_rows(automata):
    rows, accepting = [], set()
    for a in automata:
        off = len(rows)
        rows += [[t + off for t in row] for row in a.delta]
        accepting |= {q + off for q in a.accepting}
    union = Automaton(automata[0].alphabet, len(rows), automata[0].initial, accepting, rows)
    block = refine_partition(np.array(rows), normalized_colors(union)).tolist()
    offsets = np.cumsum([0] + [a.n for a in automata])
    return [block[off : off + a.n] for off, a in zip(offsets, automata)]


def moore_rows(rows, labels):
    """Moore refinement over Python rows, every round up to the stable
    one; ids rank signatures in order."""

    def ranks(keys):
        order = {key: i for i, key in enumerate(sorted(set(keys)))}
        return [order[key] for key in keys]

    rounds = [ranks(labels)]
    while True:
        block = rounds[-1]
        sig = [(block[q], *(block[t] for t in row)) for q, row in enumerate(rows)]
        split = ranks(sig)
        if max(split) == max(block):
            return rounds
        rounds.append(split)


def first_seen(ids):
    """``ids`` renumbered 0, 1, ... in order of first occurrence."""
    seen = {}
    return [seen.setdefault(i, len(seen)) for i in ids]


def dual_tails_rows(m, f, skip=None):
    spec = m.alphabet
    b = spec.base
    hi_cls, lo_cls = language_classes(
        fix_parallel(m, f, b - 1).automaton, fix_parallel(m, f, 0).automaton
    )
    for letter in spec.digit_letters():
        if letter[f] == b - 1:
            continue
        bumped = letter[:f] + (letter[f] + 1,) + letter[f + 1 :]
        li, lj = spec.letter_index(letter), spec.letter_index(bumped)
        for q in range(m.n):
            if q != skip and hi_cls[m.delta[q][li]] != lo_cls[m.delta[q][lj]]:
                return PairMismatch(f, q, letter, bumped)
    return None


def dual_pairs_rows(spec, f):
    b = spec.base
    flip = {}
    forced = []
    if spec.kind == PARALLEL:
        for letter in spec.digit_letters():
            li = spec.letter_index(letter)
            if letter[f] < b - 1:
                bumped = letter[:f] + (letter[f] + 1,) + letter[f + 1 :]
                flip[li] = spec.letter_index(bumped)
            if letter[f] == b - 1:
                low = letter[:f] + (0,) + letter[f + 1 :]
                forced.append((li, spec.letter_index(low)))
    else:
        for a in range(b - 1):
            flip[a] = a + 1
        forced.append((b - 1, 0))
    return flip, forced


def sequential_tails_rows(m):
    spec = m.alphabet
    b = spec.base
    d = spec.dim
    hi_cls, lo_cls = language_classes(
        fix_sequential(m, b - 1).automaton, fix_sequential(m, 0).automaton
    )
    for a in range(b - 1):
        for q in range(m.n):
            # state q at digit class 0 of each fixing
            if hi_cls[m.delta[q][a] * d] != lo_cls[m.delta[q][a + 1] * d]:
                return PairMismatch(spec.dim - 1, q, a, a + 1)
    return None


# ---------------------------------------------------------------------------


def alphabets():
    """Every parallel alphabet of base 2-4 and dimension 1-4 with every
    fixed subset, and the unfixed sequential ones."""
    for b, d in itertools.product((2, 3, 4), range(1, 5)):
        yield AlphabetSpec(b, d, SEQUENTIAL)
        for r in range(d + 1):
            for fixed in itertools.combinations(range(d), r):
                yield AlphabetSpec(b, d, PARALLEL, frozenset(fixed))


def component(spec, letter, f):
    """Component ``f`` of a letter tuple; a sequential letter is one digit."""
    return letter[f] if spec.kind == PARALLEL else letter


def test_digits_and_sign_mask_read_the_letter_tuples():
    for spec in alphabets():
        top = spec.base - 1
        letters = [spec.letter_at(i) for i in range(spec.num_letters - 1)]
        free = spec.free_components
        signs = [all(component(spec, x, g) in (0, top) for g in free) for x in letters]
        assert spec.sign_mask().tolist() == signs
        for f in free:
            digit, weight = spec.digits(f)
            assert digit.tolist() == [component(spec, x, f) for x in letters]
            for i, x in enumerate(letters):
                if digit[i] < top:
                    bumped = x[:f] + (x[f] + 1,) + x[f + 1 :] if spec.kind == PARALLEL else x + 1
                    assert spec.letter_at(i + weight) == bumped
        for f in spec.fixed:
            with pytest.raises(ValueError, match="not a free component"):
                spec.digits(f)
        if not spec.fixed:
            for f in range(spec.dim):
                assert _dual_pairs(spec, f) == dual_pairs_rows(spec, f)
        if spec.kind == SEQUENTIAL and spec.dim > 1:
            last = AlphabetSpec(spec.base, spec.dim, SEQUENTIAL, {spec.dim - 1})
            with pytest.raises(ValueError, match="placeholder"):
                last.digits(0)


def assert_same_automaton(built, reference):
    assert built.structurally_equal(reference)
    assert built.delta == reference.delta
    assert all(type(t) is int for row in built.delta for t in row)
    assert serialize_automaton(built) == serialize_automaton(reference)


@given(weak_automata(), st.integers(0, 3))
@settings(max_examples=60, deadline=None)
def test_fixings_equal_their_row_definition(aut, z):
    spec = aut.alphabet
    z = min(z, spec.base - 1)
    if spec.kind == PARALLEL:
        for f in range(spec.dim):
            fixed = fix_parallel(aut, f, z).automaton
            assert_same_automaton(fixed, fix_parallel_rows(aut, f, z))
            for g in range(spec.dim):
                if g != f:  # a second component of an already fixed alphabet
                    assert_same_automaton(
                        fix_parallel(fixed, g, z).automaton, fix_parallel_rows(fixed, g, z)
                    )
    else:
        assert_same_automaton(fix_sequential(aut, z).automaton, fix_sequential_rows(aut, z))


@given(weak_automata())
@settings(max_examples=60, deadline=None)
def test_joint_classes_equal_a_list_built_union(aut):
    # the blocks of a glued union, colored by weak_colors, against the
    # rows' union colored by normalized_colors
    spec = aut.alphabet
    m = minimal(aut)
    if spec.kind == PARALLEL:
        pair = [fix_parallel(m, 0, spec.base - 1).automaton, fix_parallel(m, 0, 0).automaton]
    else:
        pair = [fix_sequential(m, spec.base - 1).automaton, fix_sequential(m, 0).automaton]
    for automata in (pair, [m, aut], [aut]):
        classes = language_classes(*automata)
        assert [c.tolist() for c in classes] == union_classes_rows(automata)


@pytest.mark.parametrize(
    "m, k, num, distinct, bincount",
    [
        (4000, 24, 3, 2, True),  # tall, few values: folds in the dense cap
        (3000, 12, 2990, 5, False),  # tall, num near m: 62-bit folds
        (6, 80, 5, 3, True),  # wide and short
        (8, 64, 40, 8, False),  # wide and short, num past the dense cap
        (1, 9, 4, 1, True),  # one row
    ],
)
def test_signature_ranks_are_lexicographic_ranks(monkeypatch, m, k, num, distinct, bincount):
    # dense ranks in the order of (code, *row), so grouped by the leading
    # code: incremental_rounds reads a block's pieces as consecutive ranks
    ranked, rank = set(), minimize._rank

    def spy(codes, span):
        ranked.add(span <= 2 * len(codes) + 64)  # by bincount, else by a sort
        return rank(codes, span)

    monkeypatch.setattr(minimize, "_rank", spy)
    rng = np.random.default_rng(m * k + num)
    pool = rng.integers(0, num, (max(1, m // 3), k))  # repeated rows
    cols = pool[rng.integers(0, len(pool), m)]
    code = rng.integers(0, distinct, m)
    ranks, count = minimize._signature_ranks(code, distinct, num, cols)
    expected = np.unique(np.column_stack((code, cols)), axis=0, return_inverse=True)[1]
    assert ranks.tolist() == expected.ravel().tolist()
    assert count == int(expected.max()) + 1
    assert ranked == {bincount}


def assert_moore_rounds(rows, labels):
    """Every round of the refinement has Moore's partition, under dense
    ids; the ids of large tables are not Moore's ranks, so partitions
    are compared with ids renumbered by first occurrence."""
    table = np.array(rows)
    rounds = []
    for block, _, _ in _refinement_rounds(table, labels):
        ids = block.tolist()
        assert set(ids) == set(range(max(ids) + 1))  # the trace reads max() + 1 blocks
        rounds.append(first_seen(ids))
    assert rounds == [first_seen(block) for block in moore_rows(rows, labels)]
    assert first_seen(refine_partition(table, labels).tolist()) == rounds[-1]


def joined_chains(lengths):
    """Chains of the given lengths that digit 0 walks down into two
    shared sinks, the accepting one after the chains of even index and
    the dead one after the others; every other letter leads to the dead
    sink.  States as far from the accepting sink split in that round
    only, so the rounds go on as long as the longest chain into it."""
    acc, dead = 0, 1
    rows = [[acc] * 4, [dead] * 4]
    for k, length in enumerate(lengths):
        start = len(rows)
        for q in range(start, start + length):
            rows.append([q + 1 if q + 1 < start + length else (acc, dead)[k % 2]] + [dead] * 3)
    return Automaton(AlphabetSpec(3, 1), len(rows), 2, frozenset({acc}), rows)


@given(
    weak_automata(),
    st.integers(0, 1500),
    st.booleans(),
    st.lists(st.integers(30, 120), min_size=7, max_size=10),
)
@settings(max_examples=40, deadline=None)
def test_refinement_equals_moore_loop(aut, extra, chains, lengths):
    # large automata keep more folds in the linear range of _rank, and
    # those of SMALL_TABLE_CELLS cells or more take incremental rounds;
    # the large random ones settle at round 0 and joined chains late, so
    # chains also run with the incremental rounds at every size
    gates = [SMALL_TABLE_CELLS]
    if chains:
        aut, gates = joined_chains(lengths), [SMALL_TABLE_CELLS, 0]
    elif extra > 1000:
        aut = gen_random_weak(extra, aut.alphabet.base, aut.alphabet.dim, PARALLEL, extra)
    for gate in gates:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(minimize, "SMALL_TABLE_CELLS", gate)
            assert_moore_rounds(aut.delta, normalized_colors(aut))


@pytest.mark.parametrize("gate", [SMALL_TABLE_CELLS, 0])
@pytest.mark.parametrize("m", [50, 300])
def test_counter_refinement_equals_moore_loop(monkeypatch, m, gate):
    # one state splits off per round: the incremental rounds' own case
    monkeypatch.setattr(minimize, "SMALL_TABLE_CELLS", gate)
    counter = unary_counter(m)
    assert_moore_rounds(counter.delta, normalized_colors(counter))


def test_untouched_rest_moves_when_outnumbered(monkeypatch):
    # round 1 splits 4 off {4, 5, 8, 9}, so round 2 re-ranks 0, 1 and 2,
    # which outnumber the untouched 3 of their block: the rest takes a
    # new id; both keeping the old one would merge them again
    monkeypatch.setattr(minimize, "SMALL_TABLE_CELLS", 0)
    rows = [[4], [4], [4], [5], [6], [7], [6], [7], [7], [7]]
    assert_moore_rounds(rows, [0, 0, 0, 0, 1, 1, 2, 3, 1, 1])


@given(weak_automata())
@settings(max_examples=80, deadline=None)
def test_vectorized_dual_tails_find_the_loop_first_mismatch(aut):
    for m in (aut, minimal(aut)):
        if m.alphabet.kind == SEQUENTIAL:
            assert _dual_tails(m, m.alphabet.dim - 1)[1] == sequential_tails_rows(m)
            continue
        for f in range(m.alphabet.dim):
            assert _dual_tails(m, f)[1] == dual_tails_rows(m, f)
            for skip in (m.initial, m.n - 1):
                assert _dual_tails(m, f, skip)[1] == dual_tails_rows(m, f, skip)


@given(
    st.integers(1, 6).flatmap(
        lambda cols: st.lists(
            st.lists(st.booleans(), min_size=cols, max_size=cols), min_size=1, max_size=8
        )
    )
)
@settings(max_examples=200, deadline=None)
def test_first_mismatch_scans_letters_then_states(rows):
    expected = next(
        ((q, k) for k in range(len(rows[0])) for q in range(len(rows)) if rows[q][k]),
        None,
    )
    assert _first_mismatch(np.array(rows, dtype=bool)) == expected


def test_array_built_rows_are_plain_ints():
    aut = gen_random_weak(6, 3, 2, PARALLEL, 7)
    built = Automaton(aut.alphabet, aut.n, aut.initial, aut.accepting, np.array(aut.delta))
    assert_same_automaton(built, aut)
    assert built.delta is built.delta  # materialized once
    assert aut.delta is aut.delta  # rows given are kept as the view
    assert aut.table is aut.table and np.array_equal(aut.table, built.table)


def test_rows_and_arrays_are_validated_alike():
    spec = AlphabetSpec(2, 1)
    too_large = [[0, 1, 2], [0, 0, 0]]
    negative = [[0, 1, -1], [0, 0, 0]]
    for rows in (too_large, negative):
        for delta in (rows, np.array(rows)):
            with pytest.raises(ValueError, match="transition target out of range"):
                Automaton(spec, 2, 0, frozenset(), delta)
    with pytest.raises(ValueError, match="state 1: expected 3 transitions, got 2"):
        Automaton(spec, 2, 0, frozenset(), [[0, 1, 1], [0, 0]])
    with pytest.raises(ValueError, match="must be 2 x 3"):
        Automaton(spec, 2, 0, frozenset(), np.zeros((2, 2), dtype=np.int64))
