"""Encodings of rationals and word conversions that only the tests use.

Every encoding of a value (both forms of a terminating expansion, every
natural-part length up to a bound), the flattening of a parallel word
into its sequential digits, and a pair word's lasso form: the reference
material for the tests of the value maps, the fixings and the oracle.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd

from rvacheck.alphabet import STAR, AlphabetSpec
from rvacheck.words import (
    LassoWord,
    PairWord,
    _digit_counts_before_stars,
    parallelize,
    value_real,
)


def sequentialize(pw: PairWord):
    """Flatten a parallel word's vectors back into a digit sequence."""
    if not pw.prefix and not pw.period:
        d = 1
    else:
        sample = pw.prefix[0] if pw.prefix else pw.period[0]
        d = len(sample)
    prefix = tuple(x for vec in pw.prefix for x in vec)
    period = tuple(x for vec in pw.period for x in vec)
    stars = frozenset(
        c * d + k for k, c in enumerate(_digit_counts_before_stars(pw.stars))
    )
    return PairWord(prefix, period, stars)


def _expansion(frac: Fraction, base):
    """Greedy base-b expansion of a rational in [0, 1).

    Returns ``(prefix, period, terminates)``; a terminating expansion is
    reported with period ``(0,)``.
    """
    digits = []
    seen = {}
    num, den = frac.numerator, frac.denominator
    while True:
        if num == 0:
            return tuple(digits), (0,), True
        if num in seen:
            k = seen[num]
            return tuple(digits[:k]), tuple(digits[k:]), False
        seen[num] = len(digits)
        num *= base
        digits.append(num // den)
        num %= den


def natural_length_lower_bound(q, base):
    """Least natural-part length that can carry ``floor(q)``."""
    length = 0
    ipart = int(q)
    while base**length <= ipart:
        length += 1
    return length


def encodings_of_rational(q, base, natural_len):
    """All encodings of ``q >= 0`` whose natural part has the given length.

    Yields ``(natural, fractional_prefix, fractional_period)`` digit
    triples.  There are two exactly when ``q`` is a nonzero rational
    with a finite base-b expansion (the terminating form and its dual
    ending in ``(b-1)^w``), one otherwise, and none when the natural
    part cannot hold the integer digits.
    """
    q = Fraction(q)
    if q < 0:
        raise ValueError("only non-negative values are encodable")
    ipart = int(q)
    if natural_len < natural_length_lower_bound(q, base):
        return []
    nat = []
    rem = ipart
    for _ in range(natural_len):
        nat.append(rem % base)
        rem //= base
    nat.reverse()
    nat = tuple(nat)
    fpre, fper, terminates = _expansion(q - ipart, base)
    out = [(nat, fpre, fper)]
    if terminates and q != 0:
        stream = list(nat + fpre)
        last = max(i for i, d in enumerate(stream) if d)
        stream[last] -= 1
        head = stream[: last + 1]
        if last < natural_len:
            dual_nat = tuple(head) + (base - 1,) * (natural_len - last - 1)
            dual = (dual_nat, (), (base - 1,))
        else:
            dual = (nat, tuple(head[natural_len:]), (base - 1,))
        out.append(dual)
    return out


def make_encoding_word(parts, alphabet: AlphabetSpec):
    """Assemble per-component digit triples into a one-separator pair word."""
    nat_len = len(parts[0][0])
    fpre_len = max(len(p[1]) for p in parts)
    per_len = 1
    for p in parts:
        per_len = per_len * len(p[2]) // gcd(per_len, len(p[2]))
    comps = []
    for nat, fpre, fper in parts:
        pad = fpre + fper * (-(-(fpre_len - len(fpre)) // len(fper)) + 1)
        fpre_i = pad[:fpre_len]
        shift = (fpre_len - len(fpre)) % len(fper)
        rolled = fper[shift:] + fper[:shift]
        fper_i = (rolled * (per_len // len(rolled)))[:per_len]
        comps.append((nat, fpre_i, fper_i))
    prefix = tuple(
        tuple(c[0][j] for c in comps) for j in range(nat_len)
    ) + tuple(tuple(c[1][j] for c in comps) for j in range(fpre_len))
    period = tuple(tuple(c[2][j] for c in comps) for j in range(per_len))
    pw = PairWord(prefix, period, frozenset({nat_len}))
    if not alphabet.is_parallel:
        pw = sequentialize(pw)
    return pw


def alternative_encodings(pw: PairWord, alphabet: AlphabetSpec, max_natural_len=None):
    """Every encoding of ``value_real(pw)`` up to a natural-part length bound.

    The default bound is the least representable length plus the input's
    natural length plus two, which is enough to expose both zero-padding
    and dual-tail discrepancies.
    """
    if not alphabet.is_parallel:
        base_pw = parallelize(pw, alphabet.dim)
    else:
        base_pw = pw
    values = value_real(pw, alphabet)
    own_nat = base_pw.star_position
    floor_len = max(
        natural_length_lower_bound(v, alphabet.base) for v in values
    )
    if max_natural_len is None:
        max_natural_len = floor_len + own_nat + 2
    out = []
    for length in range(floor_len, max_natural_len + 1):
        per_comp = [
            encodings_of_rational(v, alphabet.base, length) for v in values
        ]
        if any(not options for options in per_comp):
            continue
        for combo in itertools.product(*per_comp):
            out.append(make_encoding_word(combo, alphabet))
    return out


def pair_to_lasso(pw: PairWord, alphabet: AlphabetSpec | None = None) -> LassoWord:
    """Present a pair word as a lasso of letters with ``*`` inlined."""
    if not pw.period:
        raise ValueError("finite words have no lasso form")
    digits_needed = max(
        [len(pw.prefix)] + [s - k for k, s in enumerate(sorted(pw.stars))]
    )
    combined_len = digits_needed + len(pw.stars)
    letters = []
    consumed = 0
    for i in range(combined_len):
        if i in pw.stars:
            letters.append(STAR)
        else:
            letters.append(pw.digit_at(consumed))
            consumed += 1
    shift = (consumed - len(pw.prefix)) % len(pw.period)
    period = pw.period[shift:] + pw.period[:shift]
    return LassoWord(tuple(letters), period)
