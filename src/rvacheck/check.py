"""The saturation decision procedures.

A weak automaton recognizes a saturated language exactly when, after
minimization, (1) it only accepts encoding-shaped words, (2) the initial
state absorbs the all-zero letter, and (3) for every accessible state
the two residual languages obtained by bumping one component of a digit
and fixing the tails to ``b-1`` respectively ``0`` coincide.  Condition
(3) is decided through joint minimization of the two fixed automata,
by one dual-tail test for every mode: each component of a parallel
automaton, the last component of a sequential one (its digit class
rides in the fixing's states), and in the complement mode away from the
initial state.  The dimension-1 check is no separate procedure: it runs
the general check of its alphabet's encoding.

Checks run cheapest condition first and return a structured witness for
the first violated one.
"""

from __future__ import annotations

import numpy as np

from .alphabet import PARALLEL, SEQUENTIAL
from .automaton import Automaton, _memo
from .fixing import dual_fixings
from .minimize import minimal_form, refine_partition, weak_colors
from .shape import check_minimal_shape, dead_sink
from .verdict import (
    ComplementInitialLanguage,
    ComplementPrefix,
    NotWeak,
    PairMismatch,
    Verdict,
    ZeroLoopBroken,
)


def _first_mismatch(bad):
    """First ``(row, column)`` of a True entry, or None.

    Columns are scanned in order, then rows within the first column
    that has a True entry.
    """
    cols = bad.any(axis=0)
    k = int(cols.argmax())
    if not cols[k]:
        return None
    return int(bad[:, k].argmax()), k


def _language_blocks(union):  # blocks of the states, equal where their languages are
    block = refine_partition(union.table, weak_colors(union)[0])
    block.setflags(write=False)
    return block


def _dual_tails(m, f, skip=None):
    """Compare the dual tails of component ``f`` at every state but ``skip``.

    Jointly minimizes the fixings of ``f`` to ``b-1`` and to ``0`` by
    refining their union (:func:`dual_fixings`, once per ``m`` and ``f``),
    then checks, letter by letter, that each state's successor on a
    letter and on the letter with ``f`` bumped have the same residual
    language in the respective fixing.  The letters are those whose
    component ``f`` is below ``b-1`` (in a sequential automaton ``f`` is
    the last component and a letter is one digit).  Returns whether the
    initial state has one language in both fixings, and the first
    mismatch (by letter, then by state) or None.
    """
    spec = m.alphabet
    digit, weight = spec.digits(f)
    union, offset, stride = dual_fixings(m, f)
    block = _memo(union, "blocks", _language_blocks)
    letters = np.flatnonzero(digit != spec.base - 1)
    hi, lo = m.table[:, letters] * stride, offset + m.table[:, letters + weight] * stride
    bad = block[hi] != block[lo]
    if skip is not None:
        bad[skip] = False
    same_root = bool(block[m.initial * stride] == block[offset + m.initial * stride])
    first = _first_mismatch(bad)
    if first is None:
        return same_root, None
    q, i = first
    letter = int(letters[i])
    return same_root, PairMismatch(f, q, spec.letter_at(letter), spec.letter_at(letter + weight))


def _check(aut: Automaton, components) -> Verdict:
    """The check of either encoding: minimal form, shape, zero loop, dual tails."""
    morphism = minimal_form(aut)
    if morphism is None:
        return Verdict(False, NotWeak())
    m = morphism.target

    shape = check_minimal_shape(m, (m.initial,))
    if not shape:
        return shape

    q = m.initial
    for _ in range(m.alphabet.seq_dim):
        q = m.table[q, 0]  # the all-zero letter has index 0
    if q != m.initial:
        return Verdict(False, ZeroLoopBroken(m.initial), minimized=m)

    for f in components:
        _, mismatch = _dual_tails(m, f)
        if mismatch is not None:
            return Verdict(False, mismatch, minimized=m)
    return Verdict(True, minimized=m)


def check_rva_parallel(aut: Automaton) -> Verdict:
    """Is the parallel-alphabet automaton a real vector automaton?"""
    spec = aut.alphabet
    if spec.kind != PARALLEL or spec.fixed:
        raise ValueError("parallel check needs an unfixed parallel alphabet")
    return _check(aut, range(spec.dim))


def check_rva_sequential(aut: Automaton) -> Verdict:
    """Is the sequential-alphabet automaton a real vector automaton?"""
    spec = aut.alphabet
    if spec.kind != SEQUENTIAL or spec.fixed:
        raise ValueError("sequential check needs an unfixed sequential alphabet")
    return _check(aut, [spec.dim - 1])


def check_rva_dim1(aut: Automaton) -> Verdict:
    """Saturation check for dimension-1 automata.

    Runs the general check of the alphabet's encoding; in dimension 1
    its joint minimization compares the two single-digit fixings.
    """
    spec = aut.alphabet
    if spec.dim != 1 or spec.fixed:
        raise ValueError("dimension-1 check needs an unfixed 1-dimensional alphabet")
    if spec.kind == SEQUENTIAL:
        return check_rva_sequential(aut)
    return check_rva_parallel(aut)


def check_rva_complement_parallel(aut: Automaton) -> Verdict:
    """Saturation over sign-extended (b-complement) parallel encodings.

    Valid complement words open with letters from {0, b-1}^d.  The
    stages run in this order: the shape test, reading from the
    sign-letter successors of the initial state; repeated sign letters
    must be absorbed there; anything but a sign letter must lead
    nowhere from the initial state; dual-tail equality must hold away
    from the initial state, and the all-(b-1) and all-0 fixings must
    agree from the root so both sign paddings of zero are treated alike.
    """
    spec = aut.alphabet
    if spec.kind != PARALLEL or spec.fixed:
        raise ValueError("complement check needs an unfixed parallel alphabet")
    morphism = minimal_form(aut)
    if morphism is None:
        return Verdict(False, NotWeak())
    m = morphism.target
    is_sign = np.append(spec.sign_mask(), False)  # the separator is no sign letter
    signs = np.flatnonzero(is_sign)
    roots = m.table[m.initial, signs]
    sink = dead_sink(m)

    shape = check_minimal_shape(m, roots.tolist(), sink)
    if not shape:
        return shape

    broken = m.table[roots, signs] != roots
    if broken.any():
        return Verdict(False, ZeroLoopBroken(int(roots[broken.argmax()])), minimized=m)

    others = np.flatnonzero(~is_sign)
    live = m.table[m.initial, others] != sink
    if live.any():
        letter = spec.letter_at(int(others[live.argmax()]))
        return Verdict(False, ComplementPrefix(letter), minimized=m)

    for f in range(spec.dim):
        same_root, mismatch = _dual_tails(m, f, skip=m.initial)
        if mismatch is not None:
            return Verdict(False, mismatch, minimized=m)
        if not same_root:
            return Verdict(False, ComplementInitialLanguage(f), minimized=m)
    return Verdict(True, minimized=m)
