import itertools

import pytest

from rvacheck.alphabet import PARALLEL, SEQUENTIAL, AlphabetSpec
from rvacheck.automaton import Automaton, is_weak, trim_accessible
from rvacheck.fixing import fix_parallel, fix_sequential
from rvacheck.minimize import distinguishing_word, joint_equivalence, minimize_weak
from rvacheck.oracle import (
    distinguishing_lasso,
    gen_known_rva,
    gen_random_sequential_shaped,
    gen_random_weak,
    parallelize_automaton,
)


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


class TestJointEquivalence:
    def test_identical_automata_pair_up(self):
        aut = gen_known_rva("full-space", 2, 2)
        table = joint_equivalence([aut, aut])
        for q in range(aut.n):
            assert table.same_language(0, q, 1, q)

    def test_fixed_full_space_all_equivalent(self):
        aut = gen_known_rva("full-space", 2, 2)
        hi = fix_parallel(aut, 0, 1).automaton
        lo = fix_parallel(aut, 0, 0).automaton
        table = joint_equivalence([hi, lo])
        for q in range(aut.n):
            assert table.same_language(0, q, 1, q)

    def test_disjoint_languages_no_cross_equivalence(self):
        full = gen_known_rva("full-space", 2, 1)
        zero = gen_known_rva("zero-only", 2, 1)
        table = joint_equivalence([full, zero])
        # only the two dead sinks coincide
        matches = {
            (q, p)
            for q in range(full.n)
            for p in range(zero.n)
            if table.same_language(0, q, 1, p)
        }
        assert matches == {(2, 2)}

    def test_matches_bruteforce(self):
        for base in (2, 3):
            pool = list(corpus(12, sizes=range(1, 6), bases=(base,), dims=(1,)))
            for a, b in zip(pool[::2], pool[1::2]):
                table = joint_equivalence([a, b])
                for q in range(a.n):
                    for p in range(b.n):
                        assert table.same_language(0, q, 1, p) == (
                            distinguishing_lasso(a, q, b, p) is None
                        )

    def test_alphabet_mismatch_rejected(self):
        a = gen_known_rva("full-space", 2, 1)
        b = gen_known_rva("full-space", 3, 1)
        with pytest.raises(ValueError):
            joint_equivalence([a, b])


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
                hi = fix_sequential(a, base - 1)
                lo = fix_sequential(a, 0)
                for q in range(a.n):
                    yield hi.automaton, hi.state(q), lo.automaton, lo.state((q + seed) % a.n)
        shaped = gen_random_sequential_shaped(8 + seed % 24, 2 + seed % 2, 1 + seed % 2, seed)
        par = parallelize_automaton(shaped)
        b = shaped.alphabet.base
        hi, lo = fix_sequential(shaped, b - 1), fix_sequential(shaped, 0)
        phi = fix_parallel(par, 0, b - 1).automaton
        plo = fix_parallel(par, 0, 0).automaton
        for q in range(shaped.n):
            yield hi.automaton, hi.state(q), lo.automaton, lo.state(shaped.delta[q][0])
            yield phi, q, plo, par.delta[q][0]


class TestDistinguishingWord:
    def test_agrees_with_product_search(self):
        checked = differing = 0
        for a, q, b, p in weak_pairs(range(25)):
            word = distinguishing_word(a, q, b, p)
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
                word = distinguishing_word(ladder, q, ladder, p)
                assert (word is None) == (q == p)
                if word is not None:
                    assert accepts_from(ladder, q, word) != accepts_from(ladder, p, word)

    def test_deep_refinement(self):
        # a unary counter whose states only differ after going round:
        # pairs split after up to m rounds
        m = 150
        spec = AlphabetSpec(2, 1)
        acc, dead = m, m + 1
        delta = [[(r + 1) % m, acc if r == 0 else dead, dead] for r in range(m)]
        delta += [[acc] * 3, [dead] * 3]
        counter = Automaton(spec, m + 2, 0, frozenset({acc}), delta)
        for q, p in [(1, 2), (0, m - 1), (3, 77), (m - 1, m - 2), (acc, dead)]:
            word = distinguishing_word(counter, q, counter, p)
            reference = distinguishing_lasso(counter, q, counter, p)
            assert len(word[0]) + len(word[1]) <= len(reference[0]) + len(reference[1])
            assert accepts_from(counter, q, word) != accepts_from(counter, p, word)

    def test_fig2_pairs(self, fig2):
        for q in range(fig2.n):
            for p in range(fig2.n):
                word = distinguishing_word(fig2, q, fig2, p)
                assert (word is None) == (distinguishing_lasso(fig2, q, fig2, p) is None)
                if word is not None:
                    assert accepts_from(fig2, q, word) != accepts_from(fig2, p, word)

    def test_alphabet_mismatch_and_non_weak_rejected(self):
        a = gen_known_rva("full-space", 2, 1)
        with pytest.raises(ValueError):
            distinguishing_word(a, 0, gen_known_rva("full-space", 3, 1), 0)
        spec = AlphabetSpec(2, 1)
        cycle = Automaton(spec, 2, 0, frozenset({1}), [[1, 1, 1], [0, 0, 0]])
        with pytest.raises(ValueError):
            distinguishing_word(cycle, 0, a, 0)
