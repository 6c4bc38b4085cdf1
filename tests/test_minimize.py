import itertools
import random

import numpy as np
import pytest

from rvacheck import minimize
from rvacheck.alphabet import PARALLEL, SEQUENTIAL, AlphabetSpec
from rvacheck.automaton import SMALL_TABLE_CELLS, Automaton, is_weak, sccs, trim_accessible
from rvacheck.check import (
    check_rva_complement_parallel,
    check_rva_dim1,
    check_rva_parallel,
    check_rva_sequential,
)
from rvacheck.fixing import dual_fixings, fix_parallel, fix_sequential
from rvacheck.minimize import (
    _merge_equal_rows,
    distinguishing_word,
    minimal_form,
    minimize_weak,
)
from rvacheck.oracle import (
    distinguishing_lasso,
    gen_interval_rva,
    gen_known_rva,
    gen_random_sequential_shaped,
    gen_random_weak,
    gen_residue_rva,
    parallelize_automaton,
)
from tests.conftest import glued, language_classes, reference_minimal_form, unary_counter


def corpus(count, sizes=range(1, 9), bases=(2, 3), dims=(1, 2), kinds=("parallel",)):
    seed = 0
    made = 0
    while made < count:
        for n in sizes:
            for b in bases:
                for d in dims:
                    for kind in kinds:
                        if made >= count:
                            return
                        yield gen_random_weak(n, b, d, kind, seed)
                        made += 1
        seed += 1


class TestMinimizeWeak:
    def test_seven_state_example_collapses_to_five(self, fig2):
        morphism = minimize_weak(fig2)
        assert morphism.target.n == 5
        groups = {}
        for q, image in enumerate(morphism.mapping):
            groups.setdefault(image, set()).add(q)
        assert set(map(frozenset, groups.values())) == {
            frozenset({0, 2}),
            frozenset({1}),
            frozenset({3, 4}),
            frozenset({5}),
            frozenset({6}),
        }
        # the class of the accepting-but-transient initial state loses
        # acceptance in the quotient
        assert morphism.mapping[0] not in morphism.target.accepting
        assert morphism.mapping[5] in morphism.target.accepting

    def test_already_minimal_is_bijective(self, fig2):
        once = minimize_weak(fig2).target
        again = minimize_weak(once)
        assert again.target.n == once.n
        assert sorted(again.mapping) == list(range(once.n))

    def test_duplicated_automaton_folds(self):
        base = gen_known_rva("full-space", 2, 1)
        n = base.n
        spec = base.alphabet
        # two copies reachable via the two digits of a fresh root
        delta = [[1, 1 + n, 2 * n + 1]]
        for copy in range(2):
            off = 1 + copy * n
            for q in range(n):
                delta.append([base.delta[q][i] + off for i in range(spec.num_letters)])
        sink = 2 * n + 1
        delta.append([sink] * spec.num_letters)
        accepting = frozenset(
            q + 1 + copy * n for copy in range(2) for q in base.accepting
        )
        doubled = Automaton(spec, 2 * n + 2, 0, accepting, delta)
        assert is_weak(doubled)
        morphism = minimize_weak(doubled)
        # the copies collapse onto one sub-automaton, the fresh sink joins
        # their dead class, and the root keeps a class of its own
        assert morphism.target.n == n + 1
        for q in range(n):
            assert morphism.mapping[1 + q] == morphism.mapping[1 + n + q]

    def test_rejects_non_weak(self):
        spec = AlphabetSpec(2, 1)
        aut = Automaton(spec, 2, 0, frozenset({0}), [[1, 1, 1], [0, 0, 0]])
        with pytest.raises(ValueError):
            minimize_weak(aut)

    def test_quotient_is_weak_and_idempotent(self):
        for aut in corpus(60):
            target = minimize_weak(aut).target
            assert is_weak(target)
            assert minimize_weak(target).target.n == target.n

    def test_language_preserved_per_state(self):
        for aut in corpus(40, sizes=range(1, 7)):
            morphism = minimize_weak(aut)
            for q in range(aut.n):
                assert distinguishing_lasso(
                    aut, q, morphism.target, morphism.mapping[q]
                ) is None, f"state {q} changed language"

    def test_minimality_exhaustive_small(self):
        for aut in corpus(40, sizes=range(1, 7)):
            trimmed, _ = trim_accessible(aut)
            target = minimize_weak(trimmed).target
            for q, p in itertools.combinations(range(target.n), 2):
                assert distinguishing_lasso(target, q, target, p) is not None, (
                    f"states {q},{p} of the quotient are equivalent"
                )

    def test_morphism_surjective_and_rooted(self):
        for aut in corpus(30):
            morphism = minimize_weak(aut)
            assert morphism.mapping[aut.initial] == morphism.target.initial
            assert set(morphism.mapping) == set(range(morphism.target.n))

    def test_numbering_ignores_block_ids(self, monkeypatch):
        # the residue automaton's states are unreachable in the union, and
        # its blocks are numbered by their smallest state, not by their ids;
        # each setting reads a union of its own
        def union():
            return glued(gen_known_rva("full-space", 2, 1), gen_residue_rva(700))[0]

        first = union()
        assert first.n * first.alphabet.num_letters >= SMALL_TABLE_CELLS
        want = minimize_weak(first)
        assert want.target.n - minimize_weak(trim_accessible(union())[0]).target.n > 100
        refine = minimize.refine_partition
        for seed in range(3):
            rng = np.random.default_rng(seed)

            def shuffled(table, labels):
                block = refine(table, labels)
                return rng.permutation(int(block.max()) + 1)[block]

            monkeypatch.setattr(minimize, "refine_partition", shuffled)
            got = minimize_weak(union())
            assert got.target.structurally_equal(want.target)
            assert np.array_equal(got.mapping, want.mapping)


def repetitive(seed, base, dim, encoding, weak):
    """A seeded automaton with many equal rows: each row repeats an
    earlier one with one target moved, or is fresh.  Acceptance is a
    random union of components when ``weak``, else a random state set;
    a non-weak cycle is appended unreachable half of the time."""
    rng = random.Random(f"{seed}:{base}:{dim}:{encoding}:{weak}")
    spec = AlphabetSpec(base, dim, encoding)
    width = spec.num_letters
    n = rng.randrange(1, 40)
    rows = []
    for q in range(n):
        if rows and rng.random() < 0.7:
            row = list(rng.choice(rows))
            if rng.random() < 0.5:
                row[rng.randrange(width)] = rng.randrange(n)
        else:
            row = [rng.randrange(n) for _ in range(width)]
        rows.append(row)
    rows.reverse()  # copies point above themselves, as in a tree's levels
    if weak:
        info = sccs(Automaton(spec, n, 0, frozenset(), rows))
        accepting = {q for comp in info.components if rng.random() < 0.5 for q in comp}
    else:
        accepting = {q for q in range(n) if rng.random() < 0.3}
    if rng.random() < 0.5:  # UNREACHABLE_NON_WEAK's cycle, where one side accepts
        rows += [[n + 1] * width, [n] * width]
        accepting.add(n + 1)
    return Automaton(spec, len(rows), rng.randrange(n), frozenset(accepting), rows)


def two_chains(length, spec=AlphabetSpec(2, 1)):
    """A root over two chains of ``length`` states into one accepting
    sink, which letter 0 walks down and every other letter leaves for a
    dead state; the chains merge one level per round of equal rows."""
    sink, dead = 2 * length + 1, 2 * length + 2
    others = [dead] * (spec.num_letters - 1)
    rows = [[1, length + 1] + others[1:]]
    for start in (1, length + 1):
        for q in range(start, start + length):
            rows.append([q + 1 if q + 1 < start + length else sink] + others)
    rows += [[sink] * spec.num_letters, [dead] * spec.num_letters]
    return Automaton(spec, dead + 1, 0, frozenset({sink}), rows)


def twinned_chain(length):
    """A chain of self-looping states of alternating acceptance, which
    letter 0 walks down, and an unreachable twin of each state with its
    row: each twin merges with a state that the initial one reaches only
    ``length`` levels down."""
    rows = [[min(q + 1, length - 1), q, q] for q in range(length)]
    accepting = frozenset(q for q in range(2 * length) if q % length % 2 == 0)
    return Automaton(AlphabetSpec(2, 1), 2 * length, 0, accepting, np.array(rows + rows))


class TestMergeEqualRows:
    @pytest.fixture(autouse=True, params=["merge-every-table", "default-cell-bound"])
    def merge_bound(self, request, monkeypatch):
        # the small tables here merge only with the bound lifted
        if request.param == "merge-every-table":
            monkeypatch.setattr(minimize, "SMALL_TABLE_CELLS", 0)

    def assert_same_minimal_form(self, aut):
        got, want = minimal_form(aut), reference_minimal_form(aut)
        assert (got is None) == (want is None)
        if got is None:
            return None
        assert got.source is aut and got.target.structurally_equal(want.target)
        assert np.array_equal(got.mapping, want.mapping)
        return got.target

    def test_minimal_form_equals_the_unmerged_pipeline(self):
        merged = not_weak = 0
        for seed in range(25):
            for base, dim, enc, weak in itertools.product(
                (2, 3), (1, 2), (PARALLEL, SEQUENTIAL), (True, False)
            ):
                aut = repetitive(seed, base, dim, enc, weak)
                quotient, state_of = _merge_equal_rows(aut)
                if state_of is not None:  # a morphism onto the quotient
                    merged += 1
                    assert quotient.initial == state_of[aut.initial]
                    for q in range(aut.n):
                        assert (q in aut.accepting) == (state_of[q] in quotient.accepting)
                        assert list(state_of[aut.table[q]]) == quotient.delta[state_of[q]]
                not_weak += self.assert_same_minimal_form(aut) is None
        assert merged >= 200 and not_weak >= 100, (merged, not_weak)
        twins = twinned_chain(20000)
        assert self.assert_same_minimal_form(twins).n == 20000
        assert (minimal_form(twins).mapping[20000:] == -1).all()

    def test_unreachable_non_weak_cycle_is_ignored(self):
        spec = AlphabetSpec(2, 1)
        # UNREACHABLE_NON_WEAK with state 1's row repeated in states 4 and 5
        rows = [[0, 1, 1], [1, 1, 1], [3, 3, 3], [2, 2, 2], [1, 1, 1], [1, 1, 1]]
        aut = Automaton(spec, 6, 0, frozenset({1, 3, 4, 5}), rows)
        assert _merge_equal_rows(aut)[0].n == 4
        assert self.assert_same_minimal_form(aut).n == 2

    def test_two_chains(self):
        for length in range(1, 9):
            for spec in (AlphabetSpec(2, 1), AlphabetSpec(3, 2), AlphabetSpec(2, 2, SEQUENTIAL)):
                aut = two_chains(length, spec)
                # the root, one state per level, the sink and the dead state
                assert self.assert_same_minimal_form(aut).n == length + 3
                # the first round merges the two last levels, one state
                # of at least five: under a quarter, so it is not taken
                assert _merge_equal_rows(aut)[0] is aut

    def test_interval_collapses(self):
        aut = gen_interval_rva(2000)
        quotient, _ = _merge_equal_rows(aut)
        assert quotient.n < 60, quotient.n
        assert self.assert_same_minimal_form(aut).n == minimal_form(quotient).target.n


def test_checks_of_a_large_table_build_no_rows():
    # every stage of a check reads the array of a table this large: no
    # Python rows are built for the input or for its minimal form
    residue = gen_residue_rva(20001)
    sequential = AlphabetSpec(2, 1, SEQUENTIAL)
    for spec, check in [
        (residue.alphabet, check_rva_parallel),
        (residue.alphabet, check_rva_dim1),
        (residue.alphabet, check_rva_complement_parallel),
        (sequential, check_rva_sequential),
    ]:
        aut = Automaton(spec, residue.n, residue.initial, residue.accepting, residue.table)
        verdict = check(aut)
        assert verdict.minimized.n >= 19997
        assert "delta" not in vars(aut) and "delta" not in vars(verdict.minimized)


class TestJointEquivalence:
    """Two states of glued automata share a block of the refined union
    exactly when they have one language."""

    def test_identical_automata_pair_up(self):
        aut = gen_known_rva("full-space", 2, 2)
        one, other = language_classes(aut, aut)
        assert np.array_equal(one, other)

    def test_fixed_full_space_all_equivalent(self):
        aut = gen_known_rva("full-space", 2, 2)
        hi = fix_parallel(aut, 0, 1).automaton
        lo = fix_parallel(aut, 0, 0).automaton
        hi_cls, lo_cls = language_classes(hi, lo)
        assert np.array_equal(hi_cls, lo_cls)

    def test_disjoint_languages_no_cross_equivalence(self):
        full = gen_known_rva("full-space", 2, 1)
        zero = gen_known_rva("zero-only", 2, 1)
        full_cls, zero_cls = language_classes(full, zero)
        # only the two dead sinks coincide
        matches = {
            (q, p)
            for q in range(full.n)
            for p in range(zero.n)
            if full_cls[q] == zero_cls[p]
        }
        assert matches == {(2, 2)}

    def test_matches_bruteforce(self):
        for base in (2, 3):
            pool = list(corpus(12, sizes=range(1, 6), bases=(base,), dims=(1,)))
            for a, b in zip(pool[::2], pool[1::2]):
                a_cls, b_cls = language_classes(a, b)
                for q in range(a.n):
                    for p in range(b.n):
                        assert (a_cls[q] == b_cls[p]) == (
                            distinguishing_lasso(a, q, b, p) is None
                        )


def doubling_unions():
    """Dual-fixing unions of shaped d = 1 automata, as drawn and
    parallelized, and of the residue and interval families."""
    for seed in range(12):
        for base, n in itertools.product((2, 3), (8, 13, 21, 34, 64)):
            shaped = gen_random_sequential_shaped(n, base, 1, seed)
            yield shaped
            yield parallelize_automaton(shaped)
    for n, base in itertools.product((7, 8, 30, 257), (2, 3)):
        yield gen_residue_rva(n, base)
        yield gen_interval_rva(n, base)


def fixing_union(aut, f=0):
    return dual_fixings(minimal_form(aut).target, f)[0]


def canonical(ids):
    first = {}
    return [first.setdefault(x, len(first)) for x in ids]


def two_column(rows, accepting=()):
    """An automaton over ``#`` and ``*``, the columns of a d = 1 fixing."""
    return Automaton(AlphabetSpec(2, 1, PARALLEL, {0}), len(rows), 0, accepting, rows)


def separator_chain(length):
    """Self-looping states, each led by its separator to the one before."""
    return two_column([[q, max(q - 1, 0)] for q in range(length)])


def two_cycle_chain(pairs):
    """Pairs of states swapped by the digit column, each led by its
    separator to the pair before; every other pair accepts, so the
    colors climb the chain.  Contracting the digit column's cycles only
    halves it."""
    rows = []
    for i in range(pairs):
        rows += [[2 * i + 1, max(2 * i - 2, 0)], [2 * i, 2 * i + 1]]
    return two_column(rows, {q for q in range(2 * pairs) if q // 2 % 2 == 0})


@pytest.fixture
def contracted(monkeypatch):
    """:func:`minimize.weak_colors` on its quotient path, whatever the
    table's size."""
    monkeypatch.setattr(minimize, "SMALL_TABLE_CELLS", 0)
    return minimize.weak_colors


class TestDoublingColors:
    """:func:`minimize.weak_colors`, whose quotient pointer doubling
    finds, against :func:`sccs` and :func:`minimize.normalized_colors`."""

    def assert_like_tarjan(self, weak_colors, aut):
        color, comp, recurrent, accepting = weak_colors(aut)
        info = sccs(aut)
        assert np.asarray(color).tolist() == minimize.normalized_colors(aut, info)
        assert canonical(np.asarray(comp).tolist()) == canonical(info.scc_of)
        assert np.asarray(recurrent)[comp].tolist() == [info.recurrent[c] for c in info.scc_of]
        assert np.asarray(accepting)[comp].tolist() == [info.accepting[c] for c in info.scc_of]

    def test_equals_tarjan_on_dimension_one_fixings(self, contracted):
        checked = 0
        for aut in doubling_unions():
            self.assert_like_tarjan(contracted, fixing_union(aut))
            checked += 1
        assert checked > 240

    def test_equals_tarjan_on_dimension_two_fixings(self, contracted):
        for seed in range(6):
            shaped = gen_random_sequential_shaped(30 + 7 * seed, 2 + seed % 2, 2, seed)
            self.assert_like_tarjan(contracted, fixing_union(shaped, 1))
            wide = parallelize_automaton(shaped)
            for f in (0, 1):
                self.assert_like_tarjan(contracted, fixing_union(wide, f))

    def test_equals_tarjan_where_one_digit_function_declined(self, contracted):
        # up to five separator layers, a separator that closes a cycle,
        # and a union whose every state has two digit columns
        for layers in range(1, 6):
            self.assert_like_tarjan(contracted, separator_chain(layers))
        closing = two_column([[1, 0], [0, 2], [2, 0]])
        self.assert_like_tarjan(contracted, closing)
        assert len(sccs(closing).components) == 1
        wide = parallelize_automaton(gen_random_sequential_shaped(30, 2, 2, 1))
        self.assert_like_tarjan(contracted, fixing_union(wide))

    def test_four_layers_suffice_and_a_fifth_declines(self, contracted):
        # a fifth layer of one component: 4-5, the digit column's cycle
        # (one node), and 6, a node of its own
        rows = separator_chain(4).table.tolist() + [[5, 3], [4, 6], [4, 6]]
        for accepting in ((), (4, 5, 6), (0, 2)):
            self.assert_like_tarjan(contracted, two_column(rows, accepting))
        for accepting in ((5,), (6,), (4, 5)):
            aut = two_column(rows, accepting)
            assert not sccs(aut).weak
            assert contracted(aut) is None

    def test_declines_off_its_case(self, contracted):
        # the separator leads from 1 to 2 and back to 0: one component of
        # two nodes, 0-1 (the digit column's cycle) and 2
        rows = [[1, 0], [0, 2], [2, 0]]
        self.assert_like_tarjan(contracted, two_column(rows))
        self.assert_like_tarjan(contracted, two_column(rows, (0, 1, 2)))
        for accepting in ((0,), (2,), (0, 1)):
            aut = two_column(rows, accepting)
            assert not sccs(aut).weak
            assert contracted(aut) is None

    def test_equals_tarjan_above_the_size_gate(self):
        for seed, (base, dim, enc) in enumerate(
            itertools.product((2, 3), (1, 2), (PARALLEL, SEQUENTIAL))
        ):
            width = AlphabetSpec(base, dim, enc).num_letters
            aut = gen_random_weak(SMALL_TABLE_CELLS // width + 1, base, dim, enc, seed)
            self.assert_like_tarjan(minimize.weak_colors, aut)
        chain = two_cycle_chain(2000)
        self.assert_like_tarjan(minimize.weak_colors, chain)
        assert max(minimize.weak_colors(chain)[0]) >= 1999

    def test_non_weak_cycle_declines_and_raises(self):
        size = SMALL_TABLE_CELLS  # above the size gate: colored on the quotient
        rows = [[(q + 1) % size, size] for q in range(size)] + [[size, size]]
        aut = two_column(rows, {0})
        assert minimize.weak_colors(aut) is None
        assert minimal_form(aut) is None
        with pytest.raises(ValueError):
            distinguishing_word(aut, 0, 1)

    def test_large_unions_match_the_tarjan_path(self, monkeypatch):
        # each setting builds its own residue automaton, minimal form and
        # union, so neither reads what the other kept on them
        def classes_and_words():
            residue = minimal_form(gen_residue_rva(1500)).target  # unions above the size gate
            union, offset, _ = dual_fixings(residue, 0)
            assert union.n * union.alphabet.num_letters >= SMALL_TABLE_CELLS
            pairs = [(q, offset + p % residue.n) for q in range(0, residue.n, 97)
                     for p in (q, q + 1, 0)]
            classes = minimize.refine_partition(union.table, minimize.weak_colors(union)[0])
            return classes, [distinguishing_word(union, q, p) for q, p in pairs]

        contracted, words = classes_and_words()
        monkeypatch.setattr(minimize, "SMALL_TABLE_CELLS", 1 << 62)
        tarjan, tarjan_words = classes_and_words()
        assert np.array_equal(contracted, tarjan)
        assert words == tarjan_words
        assert any(word is not None for word in words)


def accepts_from(aut, q, word):
    started = Automaton(aut.alphabet, aut.n, q, aut.accepting, aut.delta)
    return started.accepts_lasso(*word)


def weak_pairs(seeds):
    """State pairs of random weak automata, of their hi/lo fixings, and
    of shaped automata's fixings, in a fixed order."""
    for seed in seeds:
        for base, dim, enc in itertools.product((2, 3), (1, 2), (PARALLEL, SEQUENTIAL)):
            a = gen_random_weak(2 + seed % 6, base, dim, enc, seed)
            b = gen_random_weak(1 + seed * 7 % 8, base, dim, enc, seed + 1)
            for q in range(a.n):
                yield a, q, a, (q + 1) % a.n
                yield a, q, b, q % b.n
            if enc == PARALLEL:
                f = seed % dim
                hi = fix_parallel(a, f, base - 1).automaton
                lo = fix_parallel(a, f, 0).automaton
                for q in range(a.n):
                    for p in range(a.n):
                        yield hi, q, lo, p
            else:
                hi = fix_sequential(a, base - 1).automaton
                lo = fix_sequential(a, 0).automaton
                for q in range(a.n):
                    yield hi, q * dim, lo, (q + seed) % a.n * dim
        shaped = gen_random_sequential_shaped(8 + seed % 24, 2 + seed % 2, 1 + seed % 2, seed)
        par = parallelize_automaton(shaped)
        b = shaped.alphabet.base
        d = shaped.alphabet.dim
        hi, lo = fix_sequential(shaped, b - 1).automaton, fix_sequential(shaped, 0).automaton
        phi = fix_parallel(par, 0, b - 1).automaton
        plo = fix_parallel(par, 0, 0).automaton
        for q in range(shaped.n):
            yield hi, q * d, lo, shaped.delta[q][0] * d
            yield phi, q, plo, par.delta[q][0]


class TestDistinguishingWord:
    def test_agrees_with_product_search(self):
        # two states of one automaton, or of two glued into one
        checked = differing = 0
        for a, q, b, p in weak_pairs(range(25)):
            if a is b:
                word = distinguishing_word(a, q, p)
            else:
                union, (_, offset) = glued(a, b)
                word = distinguishing_word(union, q, offset + p)
            reference = distinguishing_lasso(a, q, b, p)
            assert (word is None) == (reference is None), (a, q, b, p)
            checked += 1
            if word is not None:
                differing += 1
                assert accepts_from(a, q, word) != accepts_from(b, p, word)
        assert checked >= 5000
        assert differing >= 700

    def test_long_color_chain(self):
        # a ladder of k components of alternating acceptance: letter 1
        # climbs down one rung, 0 and * loop, the last rung absorbs all;
        # two rungs of the same acceptance only differ at the bottom
        k = 9
        spec = AlphabetSpec(2, 1)
        delta = [[i, min(i + 1, k - 1), i] for i in range(k)]
        ladder = Automaton(spec, k, 0, frozenset(range(0, k, 2)), delta)
        for q in range(k):
            for p in range(k):
                word = distinguishing_word(ladder, q, p)
                assert (word is None) == (q == p)
                if word is not None:
                    assert accepts_from(ladder, q, word) != accepts_from(ladder, p, word)

    def test_deep_refinement(self):
        # a unary counter whose states only differ after going round:
        # pairs split after up to m rounds
        m = 150
        counter = unary_counter(m)
        acc, dead = m, m + 1
        for q, p in [(1, 2), (0, m - 1), (3, 77), (m - 1, m - 2), (acc, dead)]:
            word = distinguishing_word(counter, q, p)
            reference = distinguishing_lasso(counter, q, counter, p)
            assert len(word[0]) + len(word[1]) <= len(reference[0]) + len(reference[1])
            assert accepts_from(counter, q, word) != accepts_from(counter, p, word)

    def test_deep_refinement_keeps_changes_not_rounds(self, monkeypatch):
        # 4000 rounds over the 4002 states: kept whole, the rounds would
        # hold 16 million ids for the descent
        counter = unary_counter(4000)
        kept = []
        rounds = minimize._refinement_rounds

        def spy(table, labels):
            for block, states, previous in rounds(table, labels):
                kept.append(len(previous))
                yield block, states, previous

        monkeypatch.setattr(minimize, "_refinement_rounds", spy)
        word = distinguishing_word(counter, 1, 2)
        assert accepts_from(counter, 1, word) != accepts_from(counter, 2, word)
        assert len(kept) >= 4000
        assert sum(kept[1:]) <= 8 * counter.n  # round 0 changes nothing

    def test_fig2_pairs(self, fig2):
        for q in range(fig2.n):
            for p in range(fig2.n):
                word = distinguishing_word(fig2, q, p)
                assert (word is None) == (distinguishing_lasso(fig2, q, fig2, p) is None)
                if word is not None:
                    assert accepts_from(fig2, q, word) != accepts_from(fig2, p, word)

    def test_non_weak_rejected(self):
        spec = AlphabetSpec(2, 1)
        cycle = Automaton(spec, 2, 0, frozenset({1}), [[1, 1, 1], [0, 0, 0]])
        with pytest.raises(ValueError):
            distinguishing_word(cycle, 0, 1)
