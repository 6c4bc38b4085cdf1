"""Encoding-shape decision on the minimal weak automaton.

An automaton reads valid encodings only when every accepted word carries
exactly one separator, placed after a number of digits divisible by the
sequential dimension.  The test runs on the minimal form ``m`` of the
automaton (the target of :func:`rvacheck.minimize.minimal_form`) and walks two
families of its states: the states reached while the digit counter is
``i`` modulo the digits per vector, and the states reachable after a
separator.

Two facts about ``m`` stand in for an SCC pass and an emptiness sweep:

* **The dead sink.**  The states of ``m`` with empty language share one
  language, so minimality makes them one state, and its successors have
  the empty language too.  It is therefore the one non-accepting state
  that loops on every letter, and a non-accepting state looping on
  every letter has the empty language.  A state of ``m`` is dead exactly
  when it is that sink; there is none when every state is live.
* **Accepting means on an accepting loop.**  A quotient of a weak
  automaton is weak (Löding, *Efficient minimization of deterministic
  weak omega-automata*, IPL 2001), and
  :func:`rvacheck.minimize.minimize_weak` marks accepting exactly the
  images of accepting-recurrent states.  The image of a loop through
  such a state is a loop of ``m`` through its image, so every accepting
  state of ``m`` lies on a loop, and by weakness that loop's component
  is accepting throughout.
"""

from __future__ import annotations

import numpy as np

from .automaton import Automaton
from .verdict import NotShape, Verdict


def dead_sink(m: Automaton) -> int:
    """The state of a minimal automaton with empty language, or -1 if none.

    It is the one non-accepting state whose every transition loops.
    """
    loops = np.flatnonzero((m.table == np.arange(m.n)[:, None]).all(axis=1))
    return next((int(q) for q in loops if q not in m.accepting), -1)


def mod_states(aut: Automaton, d_seq: int):
    """Least family with the initial state in class 0, digits advancing the class."""
    return _mod_states_counted(aut, d_seq, (aut.initial,))[0]


def _mod_states_counted(aut: Automaton, d_seq: int, roots):
    """:func:`mod_states` with class 0 seeded by ``roots``, plus its
    worklist pops, at most ``n * d_seq``."""
    if d_seq < 1:
        raise ValueError("d_seq must be positive")
    star = aut.alphabet.star_index
    members = [set() for _ in range(d_seq)]
    members[0].update(roots)
    todo = [(q, 0) for q in members[0]]
    visits = 0
    delta = aut.delta
    while todo:
        q, i = todo.pop()
        visits += 1
        j = (i + 1) % d_seq
        row = delta[q]
        for li in range(star):
            t = row[li]
            if t not in members[j]:
                members[j].add(t)
                todo.append((t, j))
    return [frozenset(s) for s in members], visits


def fra_states(aut: Automaton, mods) -> frozenset:
    """Least digit-closed set containing every separator successor of the mod states."""
    star = aut.alphabet.star_index
    delta = aut.delta
    seen = set()
    todo = []
    for part in mods:
        for q in part:
            t = delta[q][star]
            if t not in seen:
                seen.add(t)
                todo.append(t)
    while todo:
        q = todo.pop()
        row = delta[q]
        for li in range(star):
            t = row[li]
            if t not in seen:
                seen.add(t)
                todo.append(t)
    return frozenset(seen)


def check_minimal_shape(m: Automaton, roots) -> Verdict:
    """Does the minimal weak automaton ``m`` accept only encoding-shaped words?

    The words are read from the ``roots``, which start digit class 0:
    the initial state, or for sign-extended words the sign-letter
    successors of the initial state.  The digits per vector are
    ``m.alphabet.seq_dim``.

    Required: every separator successor of a fractional state or of a
    misaligned modular state is the dead sink, and no accepting state is
    reachable inside the digit-only region (otherwise some
    separator-free or infinitely-separated word would be accepted).  The
    failure witness is the smallest fractional or misaligned modular
    state whose separator successor is live, else the smallest accepting
    state of the first modular class that has one.
    """
    star = m.alphabet.star_index
    sink = dead_sink(m)
    mods = _mod_states_counted(m, m.alphabet.seq_dim, roots)[0]
    suspects = fra_states(m, mods).union(*mods[1:])
    delta = m.delta
    live = [q for q in suspects if delta[q][star] != sink]
    if live:
        return Verdict(False, NotShape(min(live)), minimized=m)
    for part in mods:
        looping = part & m.accepting
        if looping:
            return Verdict(False, NotShape(min(looping)), minimized=m)
    return Verdict(True, minimized=m)
