"""Digit and digit-vector alphabets with a separator symbol.

An alphabet is determined by a base ``b``, a dimension ``d``, an encoding
kind, and an optional set of *fixed* vector components.  Parallel letters
are ``d``-vectors of digits, sequential letters are single digits; both
kinds additionally contain the separator ``*`` that splits the integer
part of an encoding from its fractional part.  A fixed component carries
the atomic placeholder ``#`` instead of a digit.

Letters are indices.  Non-separator letters are numbered in mixed-radix
order over the free components, component 0 most significant, and the
separator comes last.  Every letter set a check needs (the columns of a
fixing, the letters with a digit below ``b-1`` and their bumps, the sign
letters) is index arithmetic on that order, built from
:meth:`AlphabetSpec.digits`; a letter tuple is made only to report a
witness.
"""

from __future__ import annotations

import itertools

import numpy as np

from .record import Record, _set

STAR = "*"
BLANK = "#"

PARALLEL = "parallel"
SEQUENTIAL = "sequential"


class AlphabetSpec(Record):
    """Shape and indexing of the letters an automaton reads.

    ``fixed`` holds the component indices replaced by ``#``.  For
    sequential alphabets the dimension is word-structure metadata only
    (letters are single symbols); a fixed sequential alphabet may only
    fix component ``dim - 1`` and gains ``#`` as an extra letter.
    """

    _fields = ("base", "dim", "kind", "fixed")
    __slots__ = (*_fields, "_num_letters")

    def __init__(self, base, dim, kind=PARALLEL, fixed=frozenset()):
        if base < 2:
            raise ValueError("base must be at least 2")
        if dim < 1:
            raise ValueError("dim must be at least 1")
        if kind not in (PARALLEL, SEQUENTIAL):
            raise ValueError(f"unknown encoding kind {kind!r}")
        fixed = frozenset(fixed)
        if any(not (0 <= f < dim) for f in fixed):
            raise ValueError("fixed component index out of range")
        if kind == SEQUENTIAL and fixed and fixed != {dim - 1}:
            raise ValueError("sequential alphabets may only fix component dim-1")
        _set(self, "base", base)
        _set(self, "dim", dim)
        _set(self, "kind", kind)
        _set(self, "fixed", fixed)

    @property
    def is_parallel(self):
        return self.kind == PARALLEL

    @property
    def seq_dim(self):
        """Digits per vector: ``dim`` for sequential letters, 1 for parallel ones."""
        return 1 if self.is_parallel else self.dim

    @property
    def free_components(self):
        return [i for i in range(self.dim) if i not in self.fixed]

    @property
    def num_letters(self):
        """Total letter count, separator included.

        Counted on first read, not built: a parsed header may declare
        ``b^d`` too large to count, which ``aut_io`` refuses unread.
        """
        try:
            return self._num_letters
        except AttributeError:
            pass
        if self.is_parallel:
            count = self.base ** (self.dim - len(self.fixed)) + 1
        else:
            count = self.base + len(self.fixed) + 1
        _set(self, "_num_letters", count)
        return count

    @property
    def star_index(self):
        return self.num_letters - 1

    def digit_letters(self):
        """All non-separator letters, in index order."""
        if self.is_parallel:
            choices = [
                [BLANK] if i in self.fixed else range(self.base)
                for i in range(self.dim)
            ]
            for combo in itertools.product(*choices):
                yield tuple(combo)
        else:
            yield from range(self.base)
            if self.fixed:
                yield BLANK

    def letters(self):
        yield from self.digit_letters()
        yield STAR

    def digits(self, f):
        """Component ``f`` of every non-separator letter, by index, and its weight.

        Returns ``(digit, weight)``: ``digit[i]`` is component ``f`` of the
        letter with index ``i``, and adding ``weight`` to an index raises
        that component by one.  A sequential letter is one digit, so its
        digits are its indices and its weight is 1; its alphabet must be
        unfixed.
        """
        if not (0 <= f < self.dim) or f in self.fixed:
            raise ValueError(f"component {f} is not a free component")
        index = np.arange(self.num_letters - 1)
        if self.is_parallel:
            weight = self.base ** sum(1 for i in self.free_components if i > f)
            return index // weight % self.base, weight
        if self.fixed:
            raise ValueError("a fixed sequential alphabet has a placeholder, not digits")
        return index, 1

    def sign_mask(self):
        """Which non-separator letters are sign letters: every free
        component is ``0`` or ``b-1``."""
        mask = np.ones(self.num_letters - 1, dtype=bool)
        for f in self.free_components:
            digit = self.digits(f)[0]
            mask &= (digit == 0) | (digit == self.base - 1)
        return mask

    def zero_letter(self):
        """The all-zero digit letter (fixed components stay ``#``)."""
        if self.is_parallel:
            return tuple(BLANK if i in self.fixed else 0 for i in range(self.dim))
        return 0

    def letter_index(self, letter):
        """Bijection from letters onto ``range(num_letters)``.

        Non-separator letters are ordered by mixed-radix value with
        component 0 most significant; the separator is last.
        """
        if letter == STAR:
            return self.star_index
        if self.is_parallel:
            if not isinstance(letter, tuple) or len(letter) != self.dim:
                raise ValueError(f"letter {letter!r} does not fit a {self.dim}-vector alphabet")
            idx = 0
            for i, sym in enumerate(letter):
                if i in self.fixed:
                    if sym != BLANK:
                        raise ValueError(f"component {i} of {letter!r} must be {BLANK!r}")
                    continue
                if not isinstance(sym, int) or not (0 <= sym < self.base):
                    raise ValueError(f"digit {sym!r} out of range for base {self.base}")
                idx = idx * self.base + sym
            return idx
        if letter == BLANK:
            if not self.fixed:
                raise ValueError("blank letter in an unfixed sequential alphabet")
            return self.base
        if not isinstance(letter, int) or not (0 <= letter < self.base):
            raise ValueError(f"digit {letter!r} out of range for base {self.base}")
        return letter

    def letter_at(self, index):
        """Inverse of :meth:`letter_index`."""
        if not (0 <= index < self.num_letters):
            raise ValueError("letter index out of range")
        if index == self.star_index:
            return STAR
        if not self.is_parallel:
            return BLANK if index == self.base else index
        digits = []
        rem = index
        for _ in self.free_components:
            digits.append(rem % self.base)
            rem //= self.base
        digits.reverse()
        it = iter(digits)
        return tuple(
            BLANK if i in self.fixed else next(it) for i in range(self.dim)
        )

    def format_letter(self, letter):
        if letter == STAR:
            return STAR
        if self.is_parallel:
            return ",".join(str(s) for s in letter)
        return str(letter)

    def parse_letter(self, text):
        text = text.strip()
        if text == STAR:
            return STAR
        if self.is_parallel:
            parts = text.split(",")
            if len(parts) != self.dim:
                raise ValueError(
                    f"letter {text!r} has {len(parts)} components, expected {self.dim}"
                )
            letter = tuple(BLANK if p == BLANK else _parse_digit(p) for p in parts)
        else:
            letter = BLANK if text == BLANK else _parse_digit(text)
        self.letter_index(letter)  # validates ranges and fixed slots
        return letter


def _parse_digit(text):
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"bad digit {text!r}") from None
