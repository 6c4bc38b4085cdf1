"""Automaton transformations that pre-substitute one vector component.

Fixing component ``f`` to digit ``z`` replaces the component by the
placeholder ``#`` in the alphabet and bakes ``z`` into the transitions,
so a run over the reduced alphabet simulates the original automaton on
words whose component ``f`` is constantly ``z``.
"""

from __future__ import annotations

import numpy as np

from .alphabet import BLANK, AlphabetSpec, PARALLEL, SEQUENTIAL
from .automaton import Automaton, _memo
from .record import Record, _set


class FixedAutomaton(Record):
    """A fixing and the numbering of its source's states in it.

    A parallel fixing keeps the state set (``stride`` 1); a sequential
    one pairs each state with a digit class (``stride`` ``dim``), so
    source state ``q`` at digit class ``i`` is state ``q * stride + i``.
    """

    __slots__ = _fields = ("automaton", "stride")

    def __init__(self, automaton, stride=1):
        _set(self, "automaton", automaton)
        _set(self, "stride", stride)


def fix_parallel(aut: Automaton, f: int, z: int) -> FixedAutomaton:
    """Fix component ``f`` of a parallel automaton to the digit ``z``."""
    spec = aut.alphabet
    if spec.kind != PARALLEL:
        raise ValueError("parallel fixing needs a parallel alphabet")
    if f in spec.fixed or not (0 <= f < spec.dim):
        raise ValueError("component unavailable for fixing")
    if not (0 <= z < spec.base):
        raise ValueError("fixed digit out of range")
    new_spec = AlphabetSpec(spec.base, spec.dim, PARALLEL, spec.fixed | {f})
    # the letters with digit z at f, in index order, are the new letters
    columns = np.append(np.flatnonzero(spec.digits(f)[0] == z), spec.star_index)
    fixed = Automaton(new_spec, aut.n, aut.initial, aut.accepting, aut.table[:, columns])
    return FixedAutomaton(fixed)


def fix_sequential(aut: Automaton, z: int) -> FixedAutomaton:
    """Fix the last component of a sequential automaton to the digit ``z``.

    The result tracks the digit class alongside the state: digits are
    only enabled below class ``d-1``, the placeholder only at class
    ``d-1`` (where it simulates reading ``z``), the separator keeps the
    class, and everything else falls into a fresh dead sink, the last
    state.
    """
    spec = aut.alphabet
    if spec.kind != SEQUENTIAL or spec.fixed:
        raise ValueError("sequential fixing needs an unfixed sequential alphabet")
    if not (0 <= z < spec.base):
        raise ValueError("fixed digit out of range")
    d = spec.dim
    new_spec = AlphabetSpec(spec.base, d, SEQUENTIAL, frozenset({d - 1}))
    n, b = aut.n, spec.base
    sink = n * d
    src = aut.table
    table = np.full((n * d + 1, new_spec.num_letters), sink, dtype=np.int64)
    # rows q*d .. q*d+d-1 hold state q at digit classes 0 .. d-1
    classes = table[:sink].reshape(n, d, -1)
    classes[:, : d - 1, :b] = src[:, None, :b] * d + np.arange(1, d)[:, None]
    classes[:, d - 1, new_spec.letter_index(BLANK)] = src[:, z] * d
    classes[:, :, new_spec.star_index] = src[:, spec.star_index, None] * d + np.arange(d)
    accepting = frozenset(q * d + i for q in aut.accepting for i in range(d))
    fixed = Automaton(new_spec, n * d + 1, aut.initial * d, accepting, table)
    return FixedAutomaton(fixed, d)


def dual_fixings(aut: Automaton, f: int):
    """The fixings of component ``f`` to ``b-1`` and to ``0``, glued.

    Either encoding; a sequential automaton can only fix its last
    component, ``f == dim-1``.  Returns ``(union, offset, stride)``: the
    ``b-1`` fixing's states, then the ``0`` fixing's from ``offset`` on,
    rooted at the first one's initial state; source state ``q`` is state
    ``q * stride`` of the first and ``offset + q * stride`` of the second,
    built once per ``aut`` and ``f`` (:func:`rvacheck.automaton._memo`).
    """
    return _memo(aut, ("dual_fixings", f), _dual_fixings, f)


def _dual_fixings(aut: Automaton, f: int):
    spec = aut.alphabet
    b = spec.base
    if spec.kind == PARALLEL:
        hi, lo = fix_parallel(aut, f, b - 1), fix_parallel(aut, f, 0)
    elif f != spec.dim - 1:
        raise ValueError("sequential fixing needs the last component")
    else:
        hi, lo = fix_sequential(aut, b - 1), fix_sequential(aut, 0)
    top, bottom = hi.automaton, lo.automaton
    table = np.concatenate((top.table, bottom.table + top.n))
    table.setflags(write=False)
    accepting = top.accepting | {q + top.n for q in bottom.accepting}
    union = Automaton(top.alphabet, top.n + bottom.n, top.initial, accepting, table)
    return union, top.n, hi.stride
