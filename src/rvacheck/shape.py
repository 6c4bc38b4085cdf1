"""Encoding-shape decision on the minimal weak automaton.

An automaton reads valid encodings only when every accepted word carries
exactly one separator, placed after a number of digits divisible by the
sequential dimension.  The test runs on the minimal form ``m`` of the
automaton (:func:`rvacheck.minimize.minimal_form`) and walks two
families of its states: the states reached while the digit counter is
``i`` modulo ``d_seq``, and the states reachable after a separator.

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

from .alphabet import SEQUENTIAL
from .automaton import Automaton
from .minimize import minimal_form
from .verdict import NotShape, NotWeak, Verdict


def dead_sink(m: Automaton) -> int:
    """The state of a minimal automaton with empty language, or -1 if none.

    It is the one non-accepting state whose every transition loops.
    """
    loops = np.flatnonzero((m.table == np.arange(m.n)[:, None]).all(axis=1))
    return next((int(q) for q in loops if q not in m.accepting), -1)


def mod_states(aut: Automaton, d_seq: int):
    """Least family with the initial state in class 0, digits advancing the class."""
    return _mod_states_counted(aut, d_seq)[0]


def _mod_states_counted(aut: Automaton, d_seq: int):
    """:func:`mod_states` plus its worklist pops, at most ``n * d_seq``."""
    if d_seq < 1:
        raise ValueError("d_seq must be positive")
    star = aut.alphabet.star_index
    members = [set() for _ in range(d_seq)]
    members[0].add(aut.initial)
    todo = [(aut.initial, 0)]
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


def check_minimal_shape(m: Automaton, d_par: int, d_seq: int) -> Verdict:
    """Does the minimal weak automaton ``m`` accept only encoding-shaped words?

    Required: every separator successor of a fractional state or of a
    misaligned modular state is the dead sink, and no accepting state is
    reachable inside the digit-only region (otherwise some
    separator-free or infinitely-separated word would be accepted).  The
    failure witness is the smallest fractional or misaligned modular
    state whose separator successor is live, else the smallest accepting
    state of the first modular class that has one.
    """
    spec = m.alphabet
    expected_dim = 1 if spec.kind == SEQUENTIAL else spec.dim
    if d_par != expected_dim:
        raise ValueError(
            f"automaton reads {expected_dim}-vector letters, asked to check {d_par}"
        )
    star = spec.star_index
    sink = dead_sink(m)
    mods = mod_states(m, d_seq)
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


def check_shape(aut: Automaton, d_par: int, d_seq: int) -> Verdict:
    """Shape test of any automaton, decided on its minimal form.

    Returns ``NotWeak`` when the reachable part is not weak.  Otherwise
    the verdict is :func:`check_minimal_shape`'s on the minimal form,
    which it carries as ``minimized``; a witness is a state of it.
    """
    m = minimal_form(aut)
    if m is None:
        return Verdict(False, NotWeak())
    return check_minimal_shape(m, d_par, d_seq)


def is_d_parallel(aut: Automaton) -> Verdict:
    """Shape test for one letter per vector position."""
    return check_shape(aut, aut.alphabet.dim, 1)


def is_d_sequential(aut: Automaton, d: int | None = None) -> Verdict:
    """Shape test for round-robin digit interleaving of ``d`` components."""
    return check_shape(aut, 1, d if d is not None else aut.alphabet.dim)
