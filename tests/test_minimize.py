import itertools

import pytest

from rvacheck import (
    AlphabetSpec,
    Automaton,
    is_weak,
    joint_equivalence,
    minimize_weak,
    trim_accessible,
)
from rvacheck.fixing import fix_parallel
from rvacheck.oracle import (
    gen_known_rva,
    gen_random_weak,
    state_lang_equal_bruteforce,
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
                assert state_lang_equal_bruteforce(
                    aut, q, morphism.target, morphism.mapping[q]
                ), f"state {q} changed language"

    def test_minimality_exhaustive_small(self):
        for aut in corpus(40, sizes=range(1, 7)):
            trimmed, _ = trim_accessible(aut)
            target = minimize_weak(trimmed).target
            for q, p in itertools.combinations(range(target.n), 2):
                assert not state_lang_equal_bruteforce(target, q, target, p), (
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
                            state_lang_equal_bruteforce(a, q, b, p)
                        )

    def test_alphabet_mismatch_rejected(self):
        a = gen_known_rva("full-space", 2, 1)
        b = gen_known_rva("full-space", 3, 1)
        with pytest.raises(ValueError):
            joint_equivalence([a, b])
