import numpy as np
import pytest

from rvacheck.alphabet import BLANK, PARALLEL, SEQUENTIAL, STAR
from rvacheck.automaton import is_weak
from rvacheck.fixing import dual_fixings, fix_parallel, fix_sequential
from rvacheck.oracle import distinguishing_lasso, gen_known_rva, gen_random_weak
from rvacheck.words import PairWord
from tests.conftest import language_classes
from tests.word_encodings import pair_to_lasso


def random_blank_lasso(rng, spec, f=None):
    """A short random lasso over a fixed alphabet, one separator."""
    letters = list(spec.digit_letters())
    prefix = [rng.choice(letters) for _ in range(rng.randrange(3))]
    prefix.append(STAR)
    prefix.extend(rng.choice(letters) for _ in range(rng.randrange(2)))
    period = [rng.choice(letters) for _ in range(1 + rng.randrange(2))]
    return tuple(prefix), tuple(period)


def fill(word, f, z, parallel):
    out = []
    for a in word:
        if a == STAR:
            out.append(STAR)
        elif parallel:
            out.append(a[:f] + (z,) + a[f + 1 :])
        else:
            out.append(z if a == BLANK else a)
    return tuple(out)


class TestFixParallel:
    def test_alphabet_and_states(self):
        aut = gen_known_rva("full-space", 2, 2)
        fixed = fix_parallel(aut, 1, 0)
        assert fixed.automaton.n == aut.n
        assert fixed.automaton.alphabet.fixed == frozenset({1})
        assert fixed.automaton.alphabet.num_letters == 3

    def test_full_space_fixed_accepts_all_blank_words(self):
        import random

        aut = gen_known_rva("full-space", 2, 3)
        fixed = fix_parallel(aut, 1, 1).automaton
        rng = random.Random(7)
        for _ in range(25):
            u, v = random_blank_lasso(rng, fixed.alphabet)
            assert fixed.accepts_lasso(u, v)

    def test_weakness_preserved(self, fig2):
        for z in (0, 2):
            assert is_weak(fix_parallel(fig2, 0, z).automaton)
        for seed in range(20):
            aut = gen_random_weak(1 + seed % 6, 2, 2, "parallel", seed)
            assert is_weak(fix_parallel(aut, seed % 2, 0).automaton)

    def test_word_correspondence(self):
        import random

        rng = random.Random(3)
        for seed in range(25):
            aut = gen_random_weak(1 + seed % 6, 2, 2, "parallel", seed)
            f, z = seed % 2, seed % 2
            fixed = fix_parallel(aut, f, z).automaton
            u, v = random_blank_lasso(rng, fixed.alphabet)
            filled_u, filled_v = fill(u, f, z, True), fill(v, f, z, True)
            assert fixed.accepts_lasso(u, v) == aut.accepts_lasso(filled_u, filled_v)

    def test_initial_state_commutes(self):
        from rvacheck.automaton import Automaton

        for seed in range(10):
            aut = gen_random_weak(2 + seed % 5, 2, 2, "parallel", seed)
            fixed = fix_parallel(aut, 0, 1).automaton
            for q in range(aut.n):
                moved = Automaton(
                    aut.alphabet, aut.n, q, aut.accepting, aut.delta
                )
                fixed_moved = fix_parallel(moved, 0, 1).automaton
                assert distinguishing_lasso(fixed, q, fixed_moved, q) is None

    def test_rejects_bad_requests(self):
        aut = gen_known_rva("full-space", 2, 2)
        with pytest.raises(ValueError):
            fix_parallel(aut, 2, 0)
        with pytest.raises(ValueError):
            fix_parallel(aut, 0, 2)
        seq = gen_known_rva("full-space", 2, 2, "sequential")
        with pytest.raises(ValueError):
            fix_parallel(seq, 0, 0)


class TestFixSequential:
    def test_state_count(self):
        aut = gen_known_rva("full-space", 2, 3, "sequential")
        fixed = fix_sequential(aut, 0)
        assert fixed.automaton.n == aut.n * 3 + 1

    def test_full_space_fixed_language(self):
        import random

        aut = gen_known_rva("full-space", 2, 2, "sequential")
        fixed = fix_sequential(aut, 0)
        rng = random.Random(11)
        spec = fixed.automaton.alphabet
        digits = [0, 1]
        for _ in range(30):
            # alternate digit (class 0) and blank (class 1) with one
            # aligned separator: always accepted by the fixed full space
            blocks = [
                (rng.choice(digits), BLANK) for _ in range(rng.randrange(3))
            ]
            prefix = [x for block in blocks for x in block] + [STAR]
            period = [rng.choice(digits), BLANK]
            assert fixed.automaton.accepts_lasso(prefix, period)
            # a blank in the digit slot dies
            assert not fixed.automaton.accepts_lasso([BLANK], period)

    def test_weakness_preserved(self):
        for seed in range(20):
            aut = gen_random_weak(1 + seed % 6, 2, 2, "sequential", seed)
            assert is_weak(fix_sequential(aut, seed % 2).automaton)

    def test_word_correspondence(self):
        import random

        rng = random.Random(5)
        d = 2
        for seed in range(25):
            aut = gen_random_weak(1 + seed % 6, 2, d, "sequential", seed)
            z = seed % 2
            fixed = fix_sequential(aut, z)
            spec = fixed.automaton.alphabet
            blocks = [
                (rng.choice([0, 1]), BLANK) for _ in range(rng.randrange(3))
            ]
            prefix = [x for block in blocks for x in block]
            if rng.random() < 0.8:
                prefix.append(STAR)
            period = [rng.choice([0, 1]), BLANK]
            filled_prefix = fill(tuple(prefix), None, z, False)
            filled_period = fill(tuple(period), None, z, False)
            assert fixed.automaton.accepts_lasso(prefix, period) == (
                aut.accepts_lasso(filled_prefix, filled_period)
            )

    def test_word_level_fixing_matches(self):
        # the automaton-level simulation agrees with rewriting the word
        aut = gen_known_rva("unit-box", 2, 2, "sequential")
        fixed = fix_sequential(aut, 0)
        lasso = pair_to_lasso(PairWord((1, BLANK), (0, BLANK), frozenset({2})))
        filled_prefix = fill(lasso.prefix, None, 0, False)
        filled_period = fill(lasso.period, None, 0, False)
        assert fixed.automaton.accepts_lasso(lasso.prefix, lasso.period) == (
            aut.accepts_lasso(filled_prefix, filled_period)
        )

    def test_refix_keeps_last(self):
        # fixing twice with different digits equals fixing once with the last
        for seed in range(10):
            aut = gen_random_weak(2 + seed % 5, 3, 2, "parallel", seed)
            once = fix_parallel(aut, 1, 2).automaton
            # refixing at the word level: languages must match state by state
            again = fix_parallel(aut, 1, 2).automaton
            assert np.array_equal(*language_classes(once, again))


class TestDualFixings:
    @pytest.mark.parametrize("encoding", [PARALLEL, SEQUENTIAL])
    @pytest.mark.parametrize("base", [2, 3])
    def test_union_stacks_the_two_fixings(self, base, encoding):
        # the b-1 fixing's states, then the 0 fixing's from offset on
        for seed in range(6):
            dim = 1 + seed % 3
            aut = gen_random_weak(1 + seed % 5, base, dim, encoding, seed)
            for f in range(dim) if encoding == PARALLEL else [dim - 1]:
                if encoding == PARALLEL:
                    hi, lo = fix_parallel(aut, f, base - 1), fix_parallel(aut, f, 0)
                else:
                    hi, lo = fix_sequential(aut, base - 1), fix_sequential(aut, 0)
                top, bottom = hi.automaton, lo.automaton
                union, offset, stride = dual_fixings(aut, f)
                assert offset == top.n and union.n == top.n + bottom.n
                assert np.array_equal(union.table, np.vstack((top.table, bottom.table + offset)))
                assert union.accepting == top.accepting | {q + offset for q in bottom.accepting}
                assert union.alphabet == top.alphabet and union.initial == top.initial
                assert stride == (1 if encoding == PARALLEL else dim)
                assert stride == hi.stride == lo.stride

    def test_sequential_fixes_only_the_last_component(self):
        aut = gen_random_weak(3, 2, 2, SEQUENTIAL, 0)
        with pytest.raises(ValueError):
            dual_fixings(aut, 0)
