import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rvacheck.alphabet import AlphabetSpec
from rvacheck.words import (
    PairWord,
    SignDigitError,
    format_lasso,
    lasso_to_pair,
    parallelize,
    parse_lasso,
    value_fractional,
    value_natural,
    value_real,
)
from tests.word_encodings import (
    alternative_encodings,
    encodings_of_rational,
    pair_to_lasso,
    sequentialize,
)

B2 = AlphabetSpec(2, 1)
B2D2 = AlphabetSpec(2, 2)
B2D2_SEQ = AlphabetSpec(2, 2, "sequential")


def w(prefix, period=(), stars=()):
    return PairWord(tuple(prefix), tuple(period), frozenset(stars))


class TestValueMaps:
    def test_natural_base2(self):
        assert value_natural([1, 0], 2) == 2
        assert value_natural([], 2) == 0
        assert value_natural([0, 0, 0, 0, 0], 2) == 0
        assert value_natural([1], 2) == 1
        assert value_natural([0, 1], 2) == 1

    def test_fractional_base2(self):
        assert value_fractional([], [1, 0], 2) == Fraction(2, 3)
        assert value_fractional([], [0, 1], 2) == Fraction(1, 3)
        assert value_fractional([0], [1, 0], 2) == Fraction(1, 3)
        assert value_fractional([0], [1], 2) == Fraction(1, 2)
        assert value_fractional([1], [0], 2) == Fraction(1, 2)

    def test_fractional_equals_the_sum_of_fractions(self):
        # the reference adds the geometric tail to the head and scales,
        # in four Fraction operations; the closed form builds one Fraction
        def reference(prefix, period, base):
            head = value_natural(prefix, base)
            tail = Fraction(value_natural(period, base), base ** len(period) - 1)
            return (head + tail) / Fraction(base) ** len(prefix)

        rng = random.Random(23)
        for _ in range(20000):
            base = rng.randrange(2, 11)
            prefix = [rng.randrange(base) for _ in range(rng.randrange(8))]
            period = [rng.randrange(base) for _ in range(rng.randrange(1, 8))]
            want = reference(prefix, period, base)
            got = value_fractional(prefix, period, base)
            assert got == want and str(got) == str(want), (prefix, period, base)

    def test_real_dim1(self):
        eight_thirds = w([(1,), (0,)], [(1,), (0,)], stars={2})
        assert value_real(eight_thirds, B2) == (Fraction(8, 3),)
        half = w([(0,)], [(1,)], stars={0})
        assert value_real(half, B2) == (Fraction(1, 2),)
        padded_half = w([(0,)] * 5 + [(1,)], [(0,)], stars={5})
        assert value_real(padded_half, B2) == (Fraction(1, 2),)
        zero = w([], [(0,)], stars={0})
        assert value_real(zero, B2) == (0,)

    def test_real_vector(self):
        # the grouped form of 1,0,0,0,*,(1,0)...; per the value maps the
        # fractional tail (1,0)^w contributes (1, 0), so the pair is (3, 0)
        word = w([(1, 0), (0, 0)], [(1, 0)], stars={2})
        assert value_real(word, B2D2) == (Fraction(3), Fraction(0))

    def test_fractional_reaches_one(self):
        for b in (2, 3, 5):
            assert value_fractional([], [b - 1], b) == 1

    def test_signed_values(self):
        assert value_real(w([(1,)], [(0,)], stars={1}), B2, signed=True) == (-1,)
        assert value_real(w([(1,), (1,)], [(0,)], stars={2}), B2, signed=True) == (-1,)
        assert value_real(w([(0,), (1,)], [(0,)], stars={2}), B2, signed=True) == (1,)
        assert value_real(w([(1,)], [(1,)], stars={1}), B2, signed=True) == (0,)
        b3 = AlphabetSpec(3, 1)
        assert value_real(w([(2,), (0,)], [(0,)], stars={2}), b3, signed=True) == (-3,)
        vector = w([(1, 0), (0, 1)], [(0, 0)], stars={2})
        assert value_real(vector, B2D2, signed=True) == (-2, 1)

    def test_signed_needs_a_sign_digit(self):
        with pytest.raises(SignDigitError):
            value_real(w([(1,)], [(0,)], stars={1}), AlphabetSpec(3, 1), signed=True)
        with pytest.raises(SignDigitError):
            value_real(w([], [(0,)], stars={0}), B2, signed=True)

    @given(
        st.integers(2, 4),
        st.lists(st.integers(0, 3), max_size=6),
        st.booleans(),
    )
    def test_signed_is_b_complement(self, base, tail, negative):
        sign = base - 1 if negative else 0
        digits = [sign] + [d % base for d in tail]
        spec = AlphabetSpec(base, 1)
        word = w([(d,) for d in digits], [(0,)], stars={len(digits)})
        value = value_real(word, spec, signed=True)[0]
        if negative:  # -(complemented digits + 1)
            assert value == -(value_natural([base - 1 - d for d in digits], base) + 1)
        else:
            assert value == value_natural(digits, base)
        longer = w([(sign,)] + [(d,) for d in digits], [(0,)], stars={len(digits) + 1})
        assert value_real(longer, spec, signed=True)[0] == value

    def test_star_count_enforced(self):
        with pytest.raises(ValueError):
            value_real(w([(1,)], [(0,)], stars=set()), B2)
        with pytest.raises(ValueError):
            value_real(w([(1,)], [(0,)], stars={0, 2}), B2)

    @given(
        st.integers(2, 4),
        st.lists(st.integers(0, 3), max_size=6),
        st.lists(st.integers(0, 3), min_size=1, max_size=4),
    )
    def test_closed_form_matches_partial_sums(self, base, prefix, period):
        prefix = [d % base for d in prefix]
        period = [d % base for d in period]
        value = value_fractional(prefix, period, base)
        assert 0 <= value <= 1
        k = 64
        digits = (prefix + period * k)[:k]
        partial = sum(Fraction(d, base ** (i + 1)) for i, d in enumerate(digits))
        assert partial <= value <= partial + Fraction(1, base**k)

    @given(
        st.integers(2, 3),
        st.lists(st.integers(0, 2), max_size=5),
        st.lists(st.integers(0, 2), min_size=1, max_size=3),
    )
    def test_value_one_only_for_all_high_digits(self, base, prefix, period):
        prefix = [d % base for d in prefix]
        period = [d % base for d in period]
        value = value_fractional(prefix, period, base)
        all_high = all(d == base - 1 for d in prefix + period)
        assert (value == 1) == all_high


class TestGrouping:
    def test_grouping_matches_worked_example(self):
        seq = w([1, 0, 0], [0, 1], stars={4})
        par = parallelize(seq, 2)
        assert par.stars == frozenset({2})
        assert par.prefix == ((1, 0), (0, 0))
        # the period may be unrolled; its letter stream must be (1,0) forever
        assert set(par.period) == {(1, 0)}
        assert value_real(par, B2D2) == value_real(seq, B2D2_SEQ)

    def test_dim1_is_reshaping_only(self):
        seq = w([1, 0], [1], stars={1})
        par = parallelize(seq, 1)
        assert par.prefix == ((1,), (0,))
        assert sequentialize(par) == seq

    def test_misaligned_star_rejected(self):
        with pytest.raises(ValueError):
            parallelize(w([1, 0, 0], [0, 1], stars={3}), 2)

    @given(
        st.integers(1, 3),
        st.data(),
    )
    def test_round_trip(self, d, data):
        nat_blocks = data.draw(st.integers(0, 3))
        per_blocks = data.draw(st.integers(1, 3))
        digits = data.draw(
            st.lists(
                st.integers(0, 1),
                min_size=d * (nat_blocks + per_blocks),
                max_size=d * (nat_blocks + per_blocks),
            )
        )
        seq = w(digits[: d * nat_blocks], digits[d * nat_blocks :], stars={d * nat_blocks})
        par = parallelize(seq, d)
        back = sequentialize(par)
        assert back.stars == seq.stars
        span = len(seq.prefix) + 3 * len(seq.period)
        assert [back.digit_at(i) for i in range(span)] == [
            seq.digit_at(i) for i in range(span)
        ]
        assert parallelize(back, d).prefix == par.prefix


class TestAlternativeEncodings:
    def test_dual_for_one(self):
        one = w([(1,)], [(0,)], stars={1})
        alts = alternative_encodings(one, B2)
        values = {value_real(a, B2) for a in alts}
        assert values == {(Fraction(1),)}
        streams = {(a.prefix, a.period, a.stars) for a in alts}
        dual = w([(0,)], [(1,)], stars={1})
        assert (dual.prefix, dual.period, dual.stars) in streams

    def test_non_terminating_value_has_single_form_per_length(self):
        two_thirds = w([], [(1,), (0,)], stars={0})
        alts = alternative_encodings(two_thirds, B2, max_natural_len=3)
        by_length = {}
        for a in alts:
            by_length.setdefault(a.star_position, []).append(a)
        assert set(by_length) == {0, 1, 2, 3}
        assert all(len(v) == 1 for v in by_length.values())

    def test_zero_single_form_per_length(self):
        zero = w([], [(0,)], stars={0})
        alts = alternative_encodings(zero, B2, max_natural_len=2)
        assert len(alts) == 3
        assert all(value_real(a, B2) == (0,) for a in alts)

    def test_every_alternative_has_equal_value(self):
        word = w([(1, 0), (0, 1)], [(1, 0)], stars={2})
        target = value_real(word, B2D2)
        alts = alternative_encodings(word, B2D2)
        assert len(alts) >= 4  # dual tails exist in both components
        for a in alts:
            assert value_real(a, B2D2) == target

    def test_input_encoding_is_rediscovered(self):
        word = w([(1,)], [(0,)], stars={1})
        alts = alternative_encodings(word, B2)
        assert any(
            a.stars == word.stars
            and [a.digit_at(i) for i in range(4)] == [word.digit_at(i) for i in range(4)]
            for a in alts
        )

    def test_sequential_outputs_are_sequential(self):
        word = w([1, 0], [1, 0], stars={2})
        alts = alternative_encodings(word, B2D2_SEQ)
        for a in alts:
            assert all(isinstance(x, int) for x in a.prefix + a.period)
            assert value_real(a, B2D2_SEQ) == value_real(word, B2D2_SEQ)

    def test_encodings_of_rational_counts(self):
        assert len(encodings_of_rational(Fraction(1, 2), 2, 0)) == 2
        assert len(encodings_of_rational(Fraction(1, 3), 2, 0)) == 1
        assert len(encodings_of_rational(Fraction(0), 2, 0)) == 1
        assert encodings_of_rational(Fraction(5), 2, 1) == []
        nat, fpre, fper = encodings_of_rational(Fraction(5, 2), 2, 3)[0]
        assert nat == (0, 1, 0) and (fpre, fper) == ((1,), (0,))


class TestLassoForms:
    def test_pair_to_lasso_star_in_prefix(self):
        word = w([(1,)], [(0,)], stars={1})
        lasso = pair_to_lasso(word)
        assert lasso.prefix == ((1,), "*")
        assert lasso.period == ((0,),)
        assert lasso_to_pair(lasso) == word

    def test_star_beyond_prefix_unrolls_period(self):
        word = w([(1,)], [(0,), (1,)], stars={3})
        lasso = pair_to_lasso(word)
        assert lasso.prefix == ((1,), (0,), (1,), "*")
        assert lasso.period == ((0,), (1,))

    def test_literal_round_trip(self):
        text = "1,0 0,0 * / 1,0"
        lasso = parse_lasso(text, B2D2)
        assert format_lasso(lasso, B2D2) == text
        seq_text = "1 0 * / 1 0"
        lasso = parse_lasso(seq_text, AlphabetSpec(2, 2, "sequential"))
        assert format_lasso(lasso, AlphabetSpec(2, 2, "sequential")) == seq_text

    def test_literal_needs_period(self):
        with pytest.raises(ValueError):
            parse_lasso("1 0 *", B2)
