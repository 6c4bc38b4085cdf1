"""Exact arithmetic on base-b encodings of reals and their word forms.

Words are handled in pair form: the digit stream (an ultimately periodic
sequence, finite when the period is empty) is kept apart from the set of
positions at which the separator ``*`` occurs in the combined word.  A
valid encoding of a real vector carries exactly one separator, but pair
words with zero or several separators are representable since rejection
of such words has to be testable.

All values are exact: integers for natural parts, ``fractions.Fraction``
everywhere else.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .alphabet import AlphabetSpec, BLANK, STAR
from .record import Record, _set


class PairWord(Record):
    """An ultimately periodic word split into digits and separator slots.

    ``prefix`` and ``period`` hold the digit symbols only (scalars for
    sequential words, ``dim``-tuples for parallel ones); ``stars`` holds
    the positions of ``*`` in the combined word.  An empty period makes
    the word finite.
    """

    __slots__ = _fields = ("prefix", "period", "stars")

    def __init__(self, prefix, period, stars=frozenset()):
        prefix, period, stars = tuple(prefix), tuple(period), frozenset(stars)
        if any(s < 0 for s in stars):
            raise ValueError("separator positions must be non-negative")
        if not period:
            total = len(prefix) + len(stars)
            if any(s >= total for s in stars):
                raise ValueError("separator position beyond the end of a finite word")
        _set(self, "prefix", prefix)
        _set(self, "period", period)
        _set(self, "stars", stars)

    @property
    def star_position(self):
        if len(self.stars) != 1:
            raise ValueError("expected exactly one separator")
        return next(iter(self.stars))

    def digit_at(self, i):
        """Digit stream lookup (prefix followed by the unrolled period)."""
        if i < len(self.prefix):
            return self.prefix[i]
        if not self.period:
            raise IndexError("finite word exhausted")
        return self.period[(i - len(self.prefix)) % len(self.period)]


class LassoWord(Record):
    """An ultimately periodic word of letters, separators included."""

    __slots__ = _fields = ("prefix", "period")

    def __init__(self, prefix, period):
        prefix, period = tuple(prefix), tuple(period)
        if not period:
            raise ValueError("lasso period must be nonempty")
        _set(self, "prefix", prefix)
        _set(self, "period", period)


def value_natural(digits, base):
    """Value of a finite digit word read most significant digit first."""
    value = 0
    for d in digits:
        if not (0 <= d < base):
            raise ValueError(f"digit {d!r} out of range for base {base}")
        value = value * base + d
    return value


def value_fractional(prefix, period, base):
    """Exact value of the infinite digit word ``prefix period^w`` after the point.

    Closed form of the geometric sum, so periods like ``(b-1)`` evaluate
    to exactly 1.
    """
    prefix = tuple(prefix)
    period = tuple(period)
    if not period:
        raise ValueError("fractional part needs a nonempty period")
    cycle = base ** len(period) - 1
    head = value_natural(prefix, base) * cycle + value_natural(period, base)
    return Fraction(head, base ** len(prefix) * cycle)


def split_at_star(pw: PairWord):
    """Natural digits, fractional prefix and fractional period of a one-star word."""
    s = pw.star_position
    nat = tuple(pw.digit_at(i) for i in range(s))
    if s <= len(pw.prefix):
        fra_prefix = pw.prefix[s:]
        fra_period = pw.period
    else:
        if not pw.period:
            raise ValueError("separator beyond the digits of a finite word")
        shift = (s - len(pw.prefix)) % len(pw.period)
        fra_prefix = ()
        fra_period = pw.period[shift:] + pw.period[:shift]
    if not fra_period:
        raise ValueError("no fractional part after the separator")
    return nat, fra_prefix, fra_period


def _component(symbols, i):
    return tuple(sym[i] for sym in symbols)


class SignDigitError(ValueError):
    """A word read sign-extended that has no sign digit to open with."""


def value_real(pw: PairWord, alphabet: AlphabetSpec, signed=False):
    """The vector of exact rationals encoded by a one-separator pair word.

    With ``signed`` the natural part is read sign-extended
    (b-complement): component digits ``s w`` are worth
    ``value(s w) - b^len(s w)`` when the sign digit ``s`` is ``b-1``, and
    a first digit other than ``0`` or ``b-1`` raises ``SignDigitError``.
    """
    if not alphabet.is_parallel:
        pw = parallelize(pw, alphabet.dim)
    nat, fpre, fper = split_at_star(pw)
    if any(BLANK in vec for vec in nat + fpre + fper):
        raise ValueError("cannot evaluate a word with fixed components")
    if signed and not nat:
        raise SignDigitError("sign-extended word without a sign digit")
    b = alphabet.base
    values = []
    for i in range(alphabet.dim):
        digits = _component(nat, i)
        comp_nat = value_natural(digits, b)
        if signed:
            if digits[0] not in (0, b - 1):
                raise SignDigitError("sign-extended word opens with a non-sign digit")
            if digits[0] == b - 1:
                comp_nat -= b ** len(digits)
        comp_fra = value_fractional(_component(fpre, i), _component(fper, i), b)
        values.append(comp_nat + comp_fra)
    return tuple(values)


def _digit_counts_before_stars(stars):
    """Number of digit symbols preceding each separator, in order."""
    out = []
    for k, s in enumerate(sorted(stars)):
        out.append(s - k)
    return out


def parallelize(pw: PairWord, d):
    """Group a sequential word's digits into ``d``-vectors.

    Every separator must sit at a component boundary (its digit count is
    a multiple of ``d``); the digits themselves must tile into complete
    vectors.
    """
    if d == 1:
        return PairWord(
            tuple((x,) for x in pw.prefix), tuple((x,) for x in pw.period), pw.stars
        )
    for c in _digit_counts_before_stars(pw.stars):
        if c % d:
            raise ValueError("separator not aligned on a component boundary")
    prefix, period = pw.prefix, pw.period
    if period:
        if len(prefix) % d:
            take = d - len(prefix) % d
            reps = -(-take // len(period))
            rolled = (period * reps)[:take]
            shift = take % len(period)
            prefix = prefix + rolled
            period = period[shift:] + period[:shift]
        if len(period) % d:
            period = period * (d // gcd(len(period), d))
    elif len(prefix) % d:
        raise ValueError("finite digit word does not tile into vectors")
    vec_prefix = tuple(
        tuple(prefix[j * d : (j + 1) * d]) for j in range(len(prefix) // d)
    )
    vec_period = tuple(
        tuple(period[j * d : (j + 1) * d]) for j in range(len(period) // d)
    )
    stars = frozenset(
        c // d + k for k, c in enumerate(_digit_counts_before_stars(pw.stars))
    )
    return PairWord(vec_prefix, vec_period, stars)


def lasso_to_pair(word: LassoWord) -> PairWord:
    """Split a lasso's letters into digit stream plus separator positions.

    The period must be separator-free (a word with separators in its
    period has no pair form with finitely many separator positions).
    """
    if STAR in word.period:
        raise ValueError("separator inside the period has no pair form")
    digits = []
    stars = set()
    for i, a in enumerate(word.prefix):
        if a == STAR:
            stars.add(i)
        else:
            digits.append(a)
    return PairWord(tuple(digits), word.period, frozenset(stars))


def format_lasso(word: LassoWord, alphabet: AlphabetSpec) -> str:
    parts = [alphabet.format_letter(a) for a in word.prefix]
    parts.append("/")
    parts.extend(alphabet.format_letter(a) for a in word.period)
    return " ".join(parts)


def parse_lasso(text: str, alphabet: AlphabetSpec) -> LassoWord:
    """Parse the CLI word literal ``"<u letters> / <v letters>"``."""
    if "/" not in text:
        raise ValueError("word literal needs a '/' between prefix and period")
    head, _, tail = text.partition("/")
    prefix = tuple(alphabet.parse_letter(t) for t in head.split())
    period = tuple(alphabet.parse_letter(t) for t in tail.split())
    if not period:
        raise ValueError("lasso period must be nonempty")
    return LassoWord(prefix, period)

