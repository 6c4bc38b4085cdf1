import pathlib

import numpy as np
import pytest

from rvacheck.alphabet import SEQUENTIAL, AlphabetSpec
from rvacheck.aut_io import parse_automaton
from rvacheck.automaton import Automaton, sccs, trim_accessible
from rvacheck.minimize import (
    Morphism,
    minimize_weak,
    normalized_colors,
    refine_partition,
    weak_colors,
)
from rvacheck.shape import shape_states
from rvacheck.verdict import NotShape, Verdict

ROOT = pathlib.Path(__file__).resolve().parent.parent
FIG2_PATH = ROOT / "data" / "fig2.rva"


@pytest.fixture(scope="session")
def fig2():
    return parse_automaton(FIG2_PATH.read_text())


@pytest.fixture(scope="session")
def fig2_text():
    return FIG2_PATH.read_text()


def unary_counter(m):
    """A unary counter of ``m`` states: letter 0 steps ``r`` to ``r+1 mod
    m``, letter 1 leads from 0 to an accepting sink and from the other
    states to a dead one.  Refinement splits one state off per round, so
    states only differ after going round."""
    acc, dead = m, m + 1
    delta = [[(r + 1) % m, acc if r == 0 else dead, dead] for r in range(m)]
    delta += [[acc] * 3, [dead] * 3]
    return Automaton(AlphabetSpec(2, 1), m + 2, 0, frozenset({acc}), delta)


def glued(*automata):
    """The disjoint union of ``automata``, one alphabet, rooted at the
    first one's initial state; and each one's state offset in it."""
    offsets = np.cumsum([0] + [a.n for a in automata]).tolist()
    table = np.concatenate([a.table + off for a, off in zip(automata, offsets)])
    accepting = {q + off for a, off in zip(automata, offsets) for q in a.accepting}
    first = automata[0]
    union = Automaton(first.alphabet, offsets[-1], first.initial, accepting, table)
    return union, offsets[:-1]


def language_classes(*automata):
    """Per automaton, a class id for each state: two states of any of
    ``automata`` (weak, one alphabet) share an id exactly when they have
    one language.  The blocks of their refined union."""
    union, offsets = glued(*automata)
    block = refine_partition(union.table, weak_colors(union)[0])
    return [block[off : off + a.n] for a, off in zip(automata, offsets)]


def accepting_recurrent_states(aut):
    info = sccs(aut)
    return {q for q in range(aut.n) if info.accepting[info.scc_of[q]]}


def dead_states(aut):
    """States with empty language, by forward reachability.

    A state is dead iff no accepting-recurrent component is reachable
    from it.  Holds on any automaton, minimal or not.
    """
    acc = accepting_recurrent_states(aut)
    dead = set()
    for q in range(aut.n):
        reach = {q}
        todo = [q]
        while todo:
            s = todo.pop()
            for t in aut.delta[s]:
                if t not in reach:
                    reach.add(t)
                    todo.append(t)
        if not reach & acc:
            dead.add(q)
    return frozenset(dead)


def reference_shape_sets(aut, d_seq, roots):
    """The modular classes and the fractional closure, by worklists of sets.

    Class 0 holds the ``roots`` and a digit leads from class ``i`` to
    class ``(i + 1) % d_seq``; the fractional states are the least
    digit-closed set holding every separator successor of a modular
    state.  Returns the ``d_seq`` classes and the fractional set.
    """
    star = aut.alphabet.star_index
    mods = [set() for _ in range(d_seq)]
    todo = [(q, 0) for q in roots]
    while todo:
        q, i = todo.pop()
        if q not in mods[i]:
            mods[i].add(q)
            todo += [(t, (i + 1) % d_seq) for t in aut.delta[q][:star]]
    fra = set()
    todo = [aut.delta[q][star] for part in mods for q in part]
    while todo:
        q = todo.pop()
        if q not in fra:
            fra.add(q)
            todo += aut.delta[q][:star]
    return mods, fra


def as_sequential(aut, d):
    """``aut``'s table over the ``d``-sequential alphabet of its base.

    Takes an alphabet of single digits and the separator: a sequential
    one, or a parallel one of dimension 1.
    """
    spec = AlphabetSpec(aut.alphabet.base, d, SEQUENTIAL)
    return Automaton(spec, aut.n, aut.initial, aut.accepting, aut.table)


def shape_sets(aut, roots):
    """:func:`shape_states` decoded as :func:`reference_shape_sets` gives
    it, after checking that each (state, class) code is reached once."""
    d, n = aut.alphabet.seq_dim, aut.n
    codes = shape_states(aut, roots).tolist()
    assert len(set(codes)) == len(codes)
    mods = [{c % n for c in codes if c // n == i} for i in range(d)]
    return mods, {c % n for c in codes if c // n == d}


def reference_shape(aut, d_seq):
    """The shape test on any automaton, from SCC flags and :func:`dead_states`.

    A separator successor of a fractional or misaligned modular state
    must be dead, and no modular state may lie in an accepting-recurrent
    component.  The witness is the smallest suspect with a live
    separator successor, else the first modular state on an accepting
    loop, classes in order and states in order within each class.
    """
    info = sccs(aut)
    dead = dead_states(aut)
    star = aut.alphabet.star_index
    mods, fra = reference_shape_sets(aut, d_seq, (aut.initial,))
    suspects = fra.union(*mods[1:])
    for q in sorted(suspects):
        if aut.delta[q][star] not in dead:
            return Verdict(False, NotShape(q))
    for part in mods:
        for q in sorted(part):
            if info.accepting[info.scc_of[q]]:
                return Verdict(False, NotShape(q))
    return Verdict(True)


def reference_minimal_form(aut):
    """The minimal form without the merge of equal rows: trim, Tarjan and
    the color loop on every state, then :func:`minimize_weak`.  Returns
    the morphism from ``aut``, -1 on the states it does not reach, or
    None when the reachable part is not weak."""
    trimmed, new_id = trim_accessible(aut)
    info = sccs(trimmed)
    if not info.weak:
        return None
    colors = normalized_colors(trimmed, info), info.scc_of, info.recurrent, info.accepting
    morphism = minimize_weak(trimmed, colors)
    kept = range(aut.n) if new_id is None else new_id.tolist()
    mapping = [int(morphism.mapping[t]) if t >= 0 else -1 for t in kept]
    return Morphism(aut, morphism.target, np.array(mapping, dtype=np.int64))
