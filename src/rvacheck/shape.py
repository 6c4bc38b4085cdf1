"""Encoding-shape decision on the minimal weak automaton.

An automaton reads valid encodings only when every accepted word carries
exactly one separator, placed after a number of digits divisible by the
sequential dimension.  The test runs on the minimal form ``m`` of the
automaton (the target of :func:`rvacheck.minimize.minimal_form`) and
finds two families of its states in one walk of a table of (state,
class) codes (:func:`shape_states`): the states reached while the digit
counter is ``i`` modulo the digits per vector, and the states reachable
after a separator.

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

from .automaton import Automaton, reachable
from .verdict import NotShape, Verdict


def dead_sink(m: Automaton) -> int:
    """The state of a minimal automaton with empty language, or -1 if none.

    It is the one non-accepting state whose every transition loops.
    """
    loops = np.flatnonzero((m.table == np.arange(m.n)[:, None]).all(axis=1))
    return next((int(q) for q in loops if q not in m.accepting), -1)


def shape_states(aut: Automaton, roots):
    """The modular classes and the fractional closure read from ``roots``.

    With ``d`` digits per vector (``aut.alphabet.seq_dim``), the code of
    state ``q`` in modular class ``i < d`` is ``i * n + q``, and its
    code as a fractional state is ``d * n + q``.  Class 0 holds the
    ``roots``, and a digit leads from class ``i`` to class
    ``(i + 1) % d``; the fractional states are the least digit-closed
    set holding every separator successor of a modular state.  Returns
    the codes that one :func:`reachable` walk over the table of codes
    reaches, each once.
    """
    spec, n = aut.alphabet, aut.n
    d, star = spec.seq_dim, spec.star_index
    offset = np.full((d + 1, 1, star + 1), d * n)  # the first code of the class a letter leads to
    for i in range(d):
        offset[i, 0, :star] = (i + 1) % d * n
    codes = offset + aut.table
    codes[d, :, star] = codes[d, :, 0]  # a separator after a fractional state is not followed
    return reachable(codes.reshape(-1, star + 1), roots)


def check_minimal_shape(m: Automaton, roots, sink=None) -> Verdict:
    """Does the minimal weak automaton ``m`` accept only encoding-shaped words?

    The words are read from the ``roots``, which start digit class 0:
    the initial state, or for sign-extended words the sign-letter
    successors of the initial state.  The digits per vector are
    ``m.alphabet.seq_dim``.  ``sink`` is :func:`dead_sink` of ``m``,
    computed here when not given.

    Required: every separator successor of a fractional state or of a
    misaligned modular state is the dead sink, and no accepting state is
    reachable inside the digit-only region (otherwise some
    separator-free or infinitely-separated word would be accepted).  The
    failure witness is the smallest fractional or misaligned modular
    state whose separator successor is live, else the smallest accepting
    state of the first modular class that has one: the smallest
    accepting modular code of :func:`shape_states`.
    """
    n, d = m.n, m.alphabet.seq_dim
    codes = shape_states(m, roots).tolist()
    sink = dead_sink(m) if sink is None else sink
    seps = m.table[:, m.alphabet.star_index].tolist()
    # misaligned modular and fractional states whose separator leads somewhere
    live = [c % n for c in codes if c >= n and seps[c % n] != sink]
    if live:
        return Verdict(False, NotShape(min(live)), minimized=m)
    looping = [c for c in codes if c < d * n and c % n in m.accepting]
    if looping:
        return Verdict(False, NotShape(min(looping) % n), minimized=m)
    return Verdict(True, minimized=m)
