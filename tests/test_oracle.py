import itertools
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rvacheck.alphabet import PARALLEL, SEQUENTIAL, STAR, AlphabetSpec
from rvacheck.aut_io import serialize_automaton
from rvacheck.automaton import Automaton, is_weak, sccs, strong_components
from rvacheck.check import (
    check_rva_complement_parallel,
    check_rva_parallel,
    check_rva_sequential,
)
from rvacheck.minimize import _shortest_path, minimize_weak
from rvacheck.oracle import (
    CounterexamplePair,
    _dual_pairs,
    _every_and_digits,
    _fates,
    distinguishing_lasso,
    dual_violation,
    expand_witness,
    gen_interval_rva,
    gen_known_rva,
    gen_random_sequential_shaped,
    gen_random_weak,
    gen_residue_rva,
    pad_violation,
    parallelize_automaton,
    saturation_oracle,
    shape_violation_word,
)
from rvacheck.words import LassoWord, PairWord, lasso_to_pair, value_real
from tests.word_encodings import alternative_encodings, pair_to_lasso


# ---------------------------------------------------------------------------
# literal enumeration (cross-validation of the product searches)


def enumerate_encoding_words(spec: AlphabetSpec, max_natural, max_period):
    """Every one-separator pair word within small natural/period bounds."""
    digits = list(spec.digit_letters())
    for nat_len in range(max_natural + 1):
        for per_len in range(1, max_period + 1):
            for nat in itertools.product(digits, repeat=nat_len):
                for per in itertools.product(digits, repeat=per_len):
                    yield PairWord(nat, per, frozenset({nat_len}))


def saturation_oracle_enumerative(aut: Automaton, max_natural=3, max_period=2):
    """Literal bounded enumeration: accepted encodings must keep all their
    alternative encodings accepted.  Exponential; only for tiny automata."""
    spec = aut.alphabet
    for pw in enumerate_encoding_words(spec, max_natural, max_period):
        word = pair_to_lasso(pw)
        if not aut.accepts_lasso(word.prefix, word.period):
            continue
        for alt in alternative_encodings(pw, spec):
            other = pair_to_lasso(alt)
            if not aut.accepts_lasso(other.prefix, other.period):
                return CounterexamplePair(word, other, spec)
    return None


# ---------------------------------------------------------------------------
# full-graph reference for the product searches: tuple nodes, Tarjan on
# the whole explored product, acceptance read off SCC flags


def reference_lasso(start, succ, bad, depth_cap=None):
    """Labels of a shortest path into the first bad recurrent component in
    BFS order and of a shortest cycle back to its entry, or None.

    ``succ(node)`` lists ``(label, node)`` edges; ``bad(node)`` is asked
    of one member of each recurrent component.
    """
    ids, order, depth, edges = {start: 0}, [start], [0], []
    for v, node in enumerate(order):
        row = []
        if depth_cap is None or depth[v] < depth_cap:
            for label, t in succ(node):
                if t not in ids:
                    ids[t] = len(order)
                    order.append(t)
                    depth.append(depth[v] + 1)
                row.append((label, ids[t]))
        edges.append(row)
    targets = [[t for _, t in row] for row in edges]
    scc_of, comps = strong_components(targets)
    bad_ids = {
        cid
        for cid, comp in enumerate(comps)
        if (len(comp) > 1 or comp[0] in targets[comp[0]]) and bad(order[comp[0]])
    }
    if not bad_ids:
        return None
    prefix, entry = _shortest_path(
        edges.__getitem__, 0, lambda t: True, lambda v: scc_of[v] in bad_ids
    )
    home = scc_of[entry]
    head, last = _shortest_path(
        edges.__getitem__, entry, lambda t: scc_of[t] == home, lambda v: entry in targets[v]
    )
    return prefix, head + [next(label for label, t in edges[last] if t == entry)]


def settled_acceptance(aut):
    info = sccs(aut)
    return [info.accepting[info.scc_of[q]] for q in range(aut.n)]


def monitor_step(state, is_star, d_seq):
    """(separators seen: 0/1/2, digit count mod d_seq) after one letter."""
    stars, cls = state
    if is_star:
        return (1, 0) if stars == 0 and cls == 0 else (2, 0)
    if stars >= 2:
        return (2, 0)
    return (stars, (cls + 1) % d_seq)


def reference_shape_lasso(aut, depth_cap):
    spec, delta, acc = aut.alphabet, aut.delta, settled_acceptance(aut)

    def succ(node):
        q, mon = node
        return [
            (i, (delta[q][i], monitor_step(mon, i == spec.star_index, spec.seq_dim)))
            for i in range(spec.num_letters)
        ]

    return reference_lasso(
        (aut.initial, (0, 0)), succ, lambda node: acc[node[0]] and node[1][0] != 1, depth_cap
    )


def reference_pad_lasso(aut, depth_cap):
    spec, delta, acc = aut.alphabet, aut.delta, settled_acceptance(aut)
    padded = aut.run_prefix(aut.initial, (spec.zero_letter(),) * spec.seq_dim)
    if padded == aut.initial:
        return None

    def succ(node):
        x, y, mon = node
        out = []
        for i in range(spec.num_letters):
            after = monitor_step(mon, i == spec.star_index, spec.seq_dim)
            if after[0] < 2:
                out.append((i, (delta[x][i], delta[y][i], after)))
        return out

    def bad(node):
        x, y, mon = node
        return mon[0] == 1 and acc[x] != acc[y]

    return reference_lasso((aut.initial, padded, (0, 0)), succ, bad, depth_cap)


def reference_dual_lasso(aut, f, depth_cap):
    spec, delta, acc = aut.alphabet, aut.delta, settled_acceptance(aut)
    star, d_seq = spec.star_index, spec.seq_dim
    flip, forced = _dual_pairs(spec, f)
    sequential = spec.kind == SEQUENTIAL

    def succ(node):
        x, y, phase, mon = node
        at_f = not sequential or mon[1] == f
        out = []
        for i in range(spec.num_letters):
            after = monitor_step(mon, i == star, d_seq)
            if after[0] == 2:
                continue
            if i == star:
                out.append(((i, i), (delta[x][i], delta[y][i], phase, after)))
            elif phase == 0:
                out.append(((i, i), (delta[x][i], delta[y][i], 0, after)))
                if i in flip and at_f:
                    out.append(((i, flip[i]), (delta[x][i], delta[y][flip[i]], 1, after)))
            elif not at_f:
                out.append(((i, i), (delta[x][i], delta[y][i], 1, after)))
        if phase == 1 and at_f:
            after = monitor_step(mon, False, d_seq)
            for i, j in forced:
                out.append(((i, j), (delta[x][i], delta[y][j], 1, after)))
        return out

    def bad(node):
        x, y, phase, mon = node
        return phase == 1 and mon[0] == 1 and acc[x] != acc[y]

    return reference_lasso((aut.initial, aut.initial, 0, (0, 0)), succ, bad, depth_cap)


def reference_distinguishing_lasso(a, q, b, p):
    acc_a, acc_b = settled_acceptance(a), settled_acceptance(b)

    def succ(node):
        x, y = node
        return [(i, (a.delta[x][i], b.delta[y][i])) for i in range(a.alphabet.num_letters)]

    return reference_lasso((q, p), succ, lambda node: acc_a[node[0]] != acc_b[node[1]])


def lasso_of(spec, found, side=None):
    """The reference's labels as a lasso word; ``side`` picks from label pairs."""
    u, v = found

    def letters(labels):
        return tuple(spec.letter_at(i if side is None else i[side]) for i in labels)

    return LassoWord(letters(u), letters(v))


def with_unreachable_non_weak_cycle(aut):
    """``aut`` plus two states that swap on every letter, one accepting,
    unreachable from the rest (the ``UNREACHABLE_NON_WEAK`` pattern)."""
    n, width = aut.n, aut.alphabet.num_letters
    rows = aut.delta + [[n + 1] * width, [n] * width]
    return Automaton(aut.alphabet, n + 2, aut.initial, aut.accepting | {n + 1}, rows)


class TestBruteforceEquality:
    def test_reflexive(self, fig2):
        for q in range(fig2.n):
            assert distinguishing_lasso(fig2, q, fig2, q) is None

    def test_fig2_merge_pairs(self, fig2):
        assert distinguishing_lasso(fig2, 3, fig2, 4) is None
        assert distinguishing_lasso(fig2, 0, fig2, 2) is None
        assert distinguishing_lasso(fig2, 0, fig2, 1) is not None

    def test_distinguishing_lasso_is_real(self, fig2):
        lasso = distinguishing_lasso(fig2, 0, fig2, 1)
        assert lasso is not None
        u, v = lasso
        from rvacheck.automaton import Automaton as A

        from_q0 = fig2.accepts_lasso(u, v)
        moved = A(fig2.alphabet, fig2.n, 1, fig2.accepting, fig2.delta)
        assert from_q0 != moved.accepts_lasso(u, v)


class TestViolationSearches:
    def test_fig2_pad_violation(self, fig2):
        pair = pad_violation(fig2)
        assert pair is not None and pair.verify(fig2)
        accepted_value = value_real(lasso_to_pair(pair.accepted), fig2.alphabet)
        assert accepted_value == value_real(
            lasso_to_pair(pair.rejected), fig2.alphabet
        )

    def test_full_space_clean(self):
        for d in (1, 2):
            aut = gen_known_rva("full-space", 2, d)
            assert shape_violation_word(aut) is None
            assert pad_violation(aut) is None
            for f in range(d):
                assert dual_violation(aut, f) is None

    def test_missing_dual_found(self):
        # 0^* 1 * 0^w : value 1 kept, its dual 0^* * 1^w dropped
        spec = AlphabetSpec(2, 1)
        delta = [[0, 1, 3], [3, 3, 2], [2, 3, 3], [3, 3, 3]]
        aut = Automaton(spec, 4, 0, frozenset({2}), delta)
        assert pad_violation(aut) is None
        pair = dual_violation(aut, 0)
        assert pair is not None and pair.verify(aut)
        assert value_real(lasso_to_pair(pair.accepted), spec) == (Fraction(1),)

    def test_no_separator_word_found(self):
        spec = AlphabetSpec(2, 1)
        aut = Automaton(spec, 1, 0, frozenset({0}), [[0, 0, 0]])
        word = shape_violation_word(aut)
        assert word is not None
        assert STAR not in word.prefix + word.period or (
            word.prefix + word.period
        ).count(STAR) >= 2


class TestProductEngine:
    """Every search against the full-graph reference above."""

    @given(
        seed=st.integers(0, 10**6),
        n=st.integers(1, 8),
        base=st.sampled_from([2, 3]),
        dim=st.sampled_from([1, 2]),
        encoding=st.sampled_from([PARALLEL, SEQUENTIAL]),
        shaped=st.booleans(),
        depth_cap=st.none() | st.integers(0, 4),
        data=st.data(),
    )
    @settings(max_examples=100, deadline=None)
    def test_searches_match_the_full_graph_reference(
        self, seed, n, base, dim, encoding, shaped, depth_cap, data
    ):
        if shaped:  # these pass the shape search, so pad and dual pairs show
            aut = gen_random_sequential_shaped(7 + n, base, dim, seed)
            if encoding == PARALLEL:
                aut = parallelize_automaton(aut)
        else:
            aut = gen_random_weak(n, base, dim, encoding, seed)
        other = gen_random_weak(data.draw(st.integers(1, 8)), base, dim, encoding, seed + 1)
        assert_searches_match(aut, depth_cap, other, data)

    @given(
        seed=st.integers(0, 10**6),
        n=st.integers(16, 64),
        base=st.sampled_from([2, 3]),
        dim=st.sampled_from([1, 2]),
        encoding=st.sampled_from([PARALLEL, SEQUENTIAL]),
        depth_cap=st.none() | st.integers(0, 6),
        data=st.data(),
    )
    @settings(max_examples=25, deadline=None)
    def test_searches_match_at_corpus_sizes(self, seed, n, base, dim, encoding, depth_cap, data):
        """The corpus's shaped automata, where most product nodes can no
        longer disagree and are not expanded."""
        aut = gen_random_sequential_shaped(n, base, dim, seed)
        other = gen_random_sequential_shaped(data.draw(st.integers(16, 64)), base, dim, seed + 1)
        if encoding == PARALLEL:
            aut, other = parallelize_automaton(aut), parallelize_automaton(other)
        assert_searches_match(aut, depth_cap, other, data)


def assert_searches_match(aut, depth_cap, other, data):
    """Every search on ``aut`` (and ``distinguishing_lasso`` between it
    and ``other`` from two drawn states) equals the reference."""
    spec, dim = aut.alphabet, aut.alphabet.dim
    found = reference_shape_lasso(aut, depth_cap)
    expected = None if found is None else lasso_of(spec, found)
    assert shape_violation_word(aut, depth_cap) == expected

    found = reference_pad_lasso(aut, depth_cap)
    pair = pad_violation(aut, depth_cap)
    if found is None:
        assert pair is None
    else:
        plain = lasso_of(spec, found)
        pad = (spec.zero_letter(),) * spec.seq_dim
        padded = LassoWord(pad + plain.prefix, plain.period)
        assert {pair.accepted, pair.rejected} == {plain, padded}

    for f in range(dim):
        found = reference_dual_lasso(aut, f, depth_cap)
        pair = dual_violation(aut, f, depth_cap)
        if found is None:
            assert pair is None
        else:
            hi, lo = lasso_of(spec, found, 0), lasso_of(spec, found, 1)
            assert {pair.accepted, pair.rejected} == {hi, lo}

    q = data.draw(st.integers(0, aut.n - 1))
    p = data.draw(st.integers(0, other.n - 1))
    found = reference_distinguishing_lasso(aut, q, other, p)
    word = None if found is None else lasso_of(spec, found)
    expected = None if word is None else (word.prefix, word.period)
    assert distinguishing_lasso(aut, q, other, p) == expected


def forward_fates(aut, letters):
    """Per state, its set-based forward closure on ``letters`` as fate
    bits: 1 if it holds an accepting state, 2 if a rejecting one."""
    fates = []
    for q in range(aut.n):
        seen, todo = {q}, [q]
        while todo:
            row = aut.delta[todo.pop()]
            for t in {row[i] for i in letters} - seen:
                seen.add(t)
                todo.append(t)
        fates.append(bool(seen & aut.accepting) | bool(seen - aut.accepting) << 1)
    return fates


class TestFates:
    @given(
        n=st.integers(1, 12),
        base=st.sampled_from([2, 3]),
        dim=st.sampled_from([1, 2]),
        data=st.data(),
    )
    @settings(max_examples=100, deadline=None)
    def test_fates_are_the_forward_closure(self, n, base, dim, data):
        spec = AlphabetSpec(base, dim)
        width = spec.num_letters
        rows = data.draw(st.lists(st.lists(st.integers(0, n - 1), min_size=width,
                                           max_size=width), min_size=n, max_size=n))
        accepting = data.draw(st.sets(st.integers(0, n - 1)))
        letters = sorted(data.draw(st.sets(st.integers(0, width - 1))))
        aut = Automaton(spec, n, 0, accepting, rows)
        assert _fates(aut, letters) == forward_fates(aut, letters)

    @pytest.mark.parametrize("seed", range(6))
    def test_searches_agree_with_fates_passed_or_computed(self, seed):
        for encoding in (SEQUENTIAL, PARALLEL):
            aut = gen_random_sequential_shaped(12 + 9 * seed, 2 + seed % 2, 1 + seed // 3, seed)
            if encoding == PARALLEL:
                aut = parallelize_automaton(aut)
            fates = _every_and_digits(aut)
            for cap in (None, 2):
                assert shape_violation_word(aut, cap, fates) == shape_violation_word(aut, cap)
                assert pad_violation(aut, cap, fates) == pad_violation(aut, cap)
                for f in range(aut.alphabet.dim):
                    assert dual_violation(aut, f, cap, fates) == dual_violation(aut, f, cap)

    @pytest.mark.parametrize(
        "accepting, rows, pad, dual",
        [
            (
                {3, 4, 5, 6, 7},
                [[2, 0, 5], [0, 1, 3], [1, 2, 8], [5, 3, 8], [5, 6, 8],
                 [7, 4, 8], [6, 5, 8], [3, 3, 8], [8, 8, 8]],
                ("* / 1 0", "0 * / 1 0"),
                ("1 * / 0 0 0", "0 * / 1 1 1"),
            ),
            (
                {4, 5, 6},
                [[1, 2, 7], [0, 3, 4], [2, 2, 6], [0, 0, 6], [4, 4, 7],
                 [4, 5, 7], [5, 4, 7], [7, 7, 7]],
                ("0 * / 0", "* / 0"),
                ("0 1 * 0 0 / 0", "0 0 * 1 1 / 1"),
            ),
        ],
    )
    def test_rejecting_sink_keeps_the_pairs(self, accepting, rows, pad, dual):
        """Runs that fall into the rejecting sink stop being expanded; the
        pairs are the ones the search found before it skipped nodes."""
        aut = Automaton(AlphabetSpec(2, 1, SEQUENTIAL), len(rows), 0, accepting, rows)
        assert set(_fates(aut, range(3))) == {2, 3}  # the sink and the rest
        for pair, words in ((pad_violation(aut), pad), (dual_violation(aut, 0), dual)):
            found = pair.to_dict()
            assert (found["accepted"], found["rejected"]) == words


class TestSaturationOracle:
    @pytest.mark.parametrize("encoding", [PARALLEL, SEQUENTIAL])
    @pytest.mark.parametrize("kind", ["full-space", "zero-only", "unit-box"])
    def test_unreachable_non_weak_part_is_ignored(self, kind, encoding):
        check = check_rva_parallel if encoding == PARALLEL else check_rva_sequential
        for base, dim in itertools.product((2, 3), (1, 2)):
            aut = with_unreachable_non_weak_cycle(gen_known_rva(kind, base, dim, encoding))
            assert not is_weak(aut)
            assert check(aut).answer
            verdict = saturation_oracle(aut)
            assert verdict.answer, verdict.witness

    def test_full_space_yes(self):
        verdict = saturation_oracle(gen_known_rva("full-space", 2, 2), 6)
        assert verdict.answer

    def test_fig2_no_with_verified_pair(self, fig2):
        verdict = saturation_oracle(fig2)
        assert not verdict.answer
        pair = verdict.witness
        assert isinstance(pair, CounterexamplePair)
        assert pair.verify(fig2)
        # values agree exactly, acceptance differs
        assert value_real(lasso_to_pair(pair.accepted), fig2.alphabet) == (
            value_real(lasso_to_pair(pair.rejected), fig2.alphabet)
        )

    def test_single_word_language_flagged(self):
        spec = AlphabetSpec(2, 1)
        delta = [[0, 1, 3], [3, 3, 2], [2, 3, 3], [3, 3, 3]]
        aut = Automaton(spec, 4, 0, frozenset({2}), delta)
        verdict = saturation_oracle(aut)
        assert not verdict.answer
        assert verdict.witness.kind == "equal-value-pair"

    def test_bound_caps_prefix_search(self, fig2):
        capped = saturation_oracle(fig2, sample_bound=0)
        # a bound of 0 searches no product node, so nothing is found
        assert capped.answer and "0" in capped.detail

    def test_matches_literal_enumeration(self):
        mismatches = []
        for seed in range(40):
            aut = gen_random_weak(1 + seed % 5, 2, 1, "parallel", seed)
            if not is_weak(aut):
                continue
            product_no = not saturation_oracle(aut).answer
            literal = saturation_oracle_enumerative(aut, max_natural=3, max_period=2)
            literal_shape = shape_violation_word(aut) is not None
            if literal is not None:
                assert literal.verify(aut)
                # anything the literal search finds, the product search finds
                assert product_no
            if not product_no:
                assert literal is None and not literal_shape
        assert mismatches == []

    def test_deterministic(self, fig2):
        first = saturation_oracle(fig2)
        second = saturation_oracle(fig2)
        assert first.witness.to_dict() == second.witness.to_dict()


class TestGenerators:
    def test_known_counts(self):
        for b in (2, 3):
            for d in (1, 2, 3):
                assert gen_known_rva("full-space", b, d, "parallel").n == 3
                assert gen_known_rva("full-space", b, d, "sequential").n == d + 2

    def test_known_families_weak_and_total(self):
        for kind in ("full-space", "zero-only", "unit-box"):
            for enc in ("parallel", "sequential"):
                aut = gen_known_rva(kind, 2, 2, enc)
                assert is_weak(aut)
        assert is_weak(gen_known_rva("complement-full", 2, 2))

    def test_complement_family_parallel_only(self):
        with pytest.raises(ValueError):
            gen_known_rva("complement-full", 2, 2, "sequential")

    def test_zero_only_language(self):
        aut = gen_known_rva("zero-only", 2, 2)
        zero = (0, 0)
        assert aut.accepts_lasso([zero, STAR], [zero])
        assert not aut.accepts_lasso([(1, 0), STAR], [zero])
        assert not aut.accepts_lasso([zero, STAR], [(0, 1)])

    def test_unit_box_boundary_encodings(self):
        aut = gen_known_rva("unit-box", 2, 1)
        one, zero = (1,), (0,)
        assert aut.accepts_lasso([one, STAR], [zero])
        assert aut.accepts_lasso([STAR], [one])          # dual of 1
        assert aut.accepts_lasso([zero, STAR], [one, zero])
        assert not aut.accepts_lasso([one, STAR], [zero, one])
        assert not aut.accepts_lasso([one, zero, STAR], [zero])

    def test_random_weak_deterministic(self):
        a = gen_random_weak(6, 2, 2, "parallel", 123)
        b = gen_random_weak(6, 2, 2, "parallel", 123)
        assert serialize_automaton(a) == serialize_automaton(b)
        c = gen_random_weak(6, 2, 2, "parallel", 124)
        assert serialize_automaton(a) != serialize_automaton(c)

    def test_shaped_sequential_passes_shape(self):
        from rvacheck.minimize import minimal_form
        from rvacheck.shape import check_minimal_shape

        for seed in range(20):
            aut = gen_random_sequential_shaped(8, 2, 2, seed)
            assert is_weak(aut)
            m = minimal_form(aut).target
            assert check_minimal_shape(m, (m.initial,)).answer

    def test_interval_family(self):
        aut = gen_interval_rva(60)
        assert aut.n == 60
        assert is_weak(aut)
        assert saturation_oracle(aut).answer

    def test_residue_family(self):
        from rvacheck.oracle import gen_residue_rva

        for n in (21, 64):
            aut = gen_residue_rva(n)
            assert aut.n == n
            assert is_weak(aut)
            # the counter does not compress: minimization keeps it whole
            assert minimize_weak(aut).target.n >= n - 1
            assert saturation_oracle(aut).answer


class TestComplementWitness:
    def test_sign_absorption_pair_has_signed_value(self):
        # "1 *" and "1 1 *" both encode -1 sign-extended; only one is accepted
        spec = AlphabetSpec(2, 1)
        delta = [[5, 1, 4], [4, 2, 3], [2, 2, 4], [3, 3, 4], [4, 4, 4], [5, 4, 3]]
        aut = Automaton(spec, 6, 0, frozenset({3}), delta)
        verdict = check_rva_complement_parallel(aut)
        pair = expand_witness(verdict, "complement")
        assert pair.signed
        assert pair.verify(aut) and pair.verify(verdict.minimized)
        assert pair.values() == (-1,)
        assert pair.to_dict()["value"] == ["-1"]
        unsigned = CounterexamplePair(pair.accepted, pair.rejected, spec)
        assert not unsigned.verify(aut)

    def test_verify_rejects_only_a_missing_sign_digit(self):
        # base 3: a leading 1 leads to an accepting sink, 0 to a dead one
        spec = AlphabetSpec(3, 1)
        aut = Automaton(spec, 3, 0, frozenset({1}), [[2, 1, 2, 2], [1] * 4, [2] * 4])
        one, zero = (1,), (0,)
        rejected = LassoWord((zero, STAR), (zero,))
        no_sign = CounterexamplePair(LassoWord((one, STAR), (zero,)), rejected, spec, True)
        assert not no_sign.verify(aut)
        # a separator in the period is no encoding at all: a fault upstream
        malformed = CounterexamplePair(LassoWord((one,), (STAR, zero)), rejected, spec, True)
        with pytest.raises(ValueError):
            malformed.verify(aut)

    def test_residue_expansion_is_fast_and_verified(self):
        # the product search took about 29 s and 1.4 GB here
        aut = gen_residue_rva(1457)
        verdict = check_rva_complement_parallel(aut)
        start = time.perf_counter()
        pair = expand_witness(verdict, "complement")
        elapsed = time.perf_counter() - start
        assert isinstance(pair, CounterexamplePair) and pair.signed
        assert pair.verify(aut)
        assert value_real(lasso_to_pair(pair.accepted), aut.alphabet, signed=True) == (
            value_real(lasso_to_pair(pair.rejected), aut.alphabet, signed=True)
        )
        assert elapsed < 1.0


def traced_peak_mb(fn):
    """``fn()`` and the peak memory tracemalloc saw while it ran, in MB."""
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def digit_chain(k):
    """Base 3: ``c_0`` loops on 0, 1 steps ``c_r`` to ``c_{r+1}``, ``c_k``
    reads ``*`` into an accepting all-digit state, everything else is dead.

    Its first dual-tail mismatch sits about ``k`` letters deep.
    """
    spec = AlphabetSpec(3, 1)
    accept, dead = k + 1, k + 2
    rows = []
    for r in range(k + 1):
        row = [dead] * spec.num_letters
        if r == 0:
            row[0] = 0
        if r < k:
            row[1] = r + 1
        else:
            row[spec.star_index] = accept
        rows.append(row)
    rows.append([accept] * 3 + [dead])
    rows.append([dead] * spec.num_letters)
    return Automaton(spec, k + 3, 0, frozenset({accept}), rows)


class TestExpansionMemory:
    def test_deep_pair_mismatch_has_a_linear_access_path(self):
        # a path to every state, held at once, peaked at 64 MB here
        aut = digit_chain(4000)
        verdict = check_rva_parallel(aut)
        assert verdict.witness.kind == "pair-mismatch"
        pair, peak = traced_peak_mb(lambda: expand_witness(verdict, "parallel"))
        assert pair.verify(aut) and pair.verify(verdict.minimized)
        assert len(pair.accepted.prefix) >= 4000
        assert peak < 16

    def test_zero_loop_pair_is_read_off_the_refinement(self):
        # the two-run product search took 14 s and 177 MB here
        residue = gen_residue_rva(527)
        aut = Automaton(residue.alphabet, residue.n, 1, residue.accepting, residue.table)
        verdict = check_rva_parallel(aut)
        assert verdict.witness.kind == "zero-loop-broken"
        pair, peak = traced_peak_mb(lambda: expand_witness(verdict, "parallel"))
        assert isinstance(pair, CounterexamplePair)
        assert pair.verify(aut) and pair.verify(verdict.minimized)
        assert peak < 16


class TestParallelization:
    def test_same_states_vector_steps(self):
        aut = gen_known_rva("full-space", 2, 2, "sequential")
        par = parallelize_automaton(aut)
        assert par.n == aut.n
        assert par.alphabet == AlphabetSpec(2, 2, "parallel")
        assert par.step(0, (1, 0)) == aut.run_prefix(0, [1, 0])

    def test_acceptance_correspondence(self):
        import random

        rng = random.Random(9)
        for seed in range(25):
            aut = gen_random_weak(1 + seed % 6, 2, 2, "sequential", seed)
            par = parallelize_automaton(aut)
            letters = list(par.alphabet.letters())
            u = [rng.choice(letters) for _ in range(rng.randrange(3))]
            v = [rng.choice(letters) for _ in range(1 + rng.randrange(2))]

            def flatten(word):
                out = []
                for a in word:
                    if a == STAR:
                        out.append(STAR)
                    else:
                        out.extend(a)
                return out

            assert par.accepts_lasso(u, v) == aut.accepts_lasso(
                flatten(u), flatten(v)
            )


# ---------------------------------------------------------------------------
# bounded-exhaustive agreement on every small automaton


def canonical_tables(n, width):
    """Every initially connected table of ``n`` states over ``width``
    letters in canonical form: a breadth-first search from state 0, with
    letters in index order, meets the states in the order 0, 1, ..., n-1."""
    for cells in itertools.product(range(n), repeat=n * width):
        rows = [list(cells[q * width : (q + 1) * width]) for q in range(n)]
        order = [0]
        for q in order:
            order += [t for t in dict.fromkeys(rows[q]) if t not in order]
        if order == list(range(n)):
            yield rows


def small_space(sizes, width):
    """Every canonical table of ``sizes`` states over ``width`` letters
    with every acceptance set, as ``(rows, accepting)`` in a fixed order."""
    for n in sizes:
        for rows in canonical_tables(n, width):
            for r in range(n + 1):
                for accepting in itertools.combinations(range(n), r):
                    yield rows, accepting


def agreeing_verdict(spec, rows, accepting, mode):
    """The check's verdict in ``mode`` on the automaton of ``rows``,
    rooted at 0, once it equals the oracle's and any "no" but not-weak
    expands to a verified witness."""
    aut = Automaton(spec, len(rows), 0, frozenset(accepting), rows)
    check = check_rva_sequential if mode == SEQUENTIAL else check_rva_parallel
    verdict = check(aut)
    assert verdict.answer == saturation_oracle(aut).answer, (rows, accepting)
    if verdict.answer or verdict.witness.kind == "not-weak":
        return verdict
    expansion = expand_witness(verdict, mode)
    if isinstance(expansion, CounterexamplePair):
        assert expansion.verify(aut), (rows, accepting)
    else:
        word = expansion.word
        assert aut.accepts_lasso(word.prefix, word.period), (rows, accepting)
        with pytest.raises(ValueError):  # not a valid encoding
            value_real(lasso_to_pair(word), spec)
    return verdict


@pytest.mark.parametrize("base, dim, two_state_tables", [(2, 2, 992), (3, 1, 240)])
def test_every_small_parallel_automaton_agrees_with_the_oracle(base, dim, two_state_tables):
    # n <= 2 over 5 (b=2 d=2) or 4 (b=3 d=1) letters, every acceptance set
    spec = AlphabetSpec(base, dim)
    assert len(list(canonical_tables(2, spec.num_letters))) == two_state_tables
    space = list(small_space((1, 2), spec.num_letters))
    for rows, accepting in space:
        agreeing_verdict(spec, rows, accepting, PARALLEL)
    assert len(space) == 2 + 4 * two_state_tables


# The n <= 3 spaces over 3 letters (parallel b=2 d=1, sequential b=2
# d=2) hold 63,946 automata each.  Tier-1 checks every
# THREE_STATE_STRIDE-th of them, and every table whose check finds a
# pair mismatch or a broken zero loop: a run of each whole space found
# these, and otherwise only yes, not-shape and not-weak answers.
THREE_STATE_STRIDE = 11
THREE_STATE_NOS = {
    PARALLEL: {
        ((0, 0, 1), (1, 2, 2), (2, 2, 2), (1,)): "pair-mismatch",
        ((0, 0, 1), (2, 1, 2), (2, 2, 2), (1,)): "pair-mismatch",
        ((0, 1, 2), (1, 1, 1), (1, 2, 1), (2,)): "pair-mismatch",
        ((0, 1, 2), (1, 1, 1), (2, 2, 1), (2,)): "pair-mismatch",
        ((1, 0, 2), (1, 1, 1), (1, 2, 1), (2,)): "zero-loop-broken",
        ((1, 0, 2), (1, 1, 1), (2, 1, 1), (2,)): "zero-loop-broken",
        ((1, 0, 2), (1, 1, 1), (2, 2, 1), (2,)): "zero-loop-broken",
        ((1, 1, 2), (1, 1, 1), (1, 2, 1), (2,)): "zero-loop-broken",
        ((1, 1, 2), (1, 1, 1), (1, 2, 1), (0, 2)): "zero-loop-broken",
        ((1, 1, 2), (1, 1, 1), (2, 1, 1), (2,)): "zero-loop-broken",
        ((1, 1, 2), (1, 1, 1), (2, 1, 1), (0, 2)): "zero-loop-broken",
        ((1, 1, 2), (1, 1, 1), (2, 2, 1), (2,)): "zero-loop-broken",
        ((1, 1, 2), (1, 1, 1), (2, 2, 1), (0, 2)): "zero-loop-broken",
    },
    SEQUENTIAL: {
        ((1, 1, 2), (1, 1, 1), (1, 2, 1), (2,)): "zero-loop-broken",
        ((1, 1, 2), (1, 1, 1), (1, 2, 1), (0, 2)): "zero-loop-broken",
        ((1, 1, 2), (1, 1, 1), (2, 1, 1), (2,)): "zero-loop-broken",
        ((1, 1, 2), (1, 1, 1), (2, 1, 1), (0, 2)): "zero-loop-broken",
        ((1, 1, 2), (1, 1, 1), (2, 2, 1), (2,)): "zero-loop-broken",
        ((1, 1, 2), (1, 1, 1), (2, 2, 1), (0, 2)): "zero-loop-broken",
    },
}


@pytest.mark.parametrize("encoding, dim", [(PARALLEL, 1), (SEQUENTIAL, 2)])
def test_three_state_automata_agree_with_the_oracle_on_a_stride(encoding, dim):
    spec = AlphabetSpec(2, dim, encoding)
    listed = THREE_STATE_NOS[encoding]
    found = {}
    for i, (rows, accepting) in enumerate(small_space((1, 2, 3), spec.num_letters)):
        case = (*map(tuple, rows), accepting) if len(rows) == 3 else None
        if i % THREE_STATE_STRIDE and case not in listed:
            continue
        verdict = agreeing_verdict(spec, rows, accepting, encoding)
        if case in listed:
            found[case] = verdict.witness.kind
    assert i + 1 == 63946
    assert found == listed
