"""State sets and decision procedures for encoding-shaped languages.

An automaton reads valid encodings only when every accepted word carries
exactly one separator, placed after a number of digits divisible by the
sequential dimension.  The tests below work on three state sets: the
states with empty language, the states reached while the digit counter
is ``i`` modulo ``d_seq``, and the states reachable after a separator.
"""

from __future__ import annotations

from dataclasses import dataclass

from .alphabet import SEQUENTIAL
from .automaton import Automaton, SccInfo, predecessor_lists, sccs
from .verdict import NotShape, Verdict


@dataclass(frozen=True)
class ShapeSets:
    """The three families of states behind the shape decision.

    ``visits`` counts worklist pops of the modular sweep; it is bounded
    by ``n * d_seq`` and exposed so tests can hold the implementation to
    that budget.
    """

    empty_states: frozenset
    mod_states: tuple
    fra_states: frozenset
    visits: int = 0


def empty_states(aut: Automaton, info: SccInfo | None = None) -> frozenset:
    """States whose language is empty.

    Backward worklist sweep: seed with the accepting recurrent states,
    walk predecessor lists; whatever is never reached cannot bring a run
    to an accepting loop.
    """
    info = info or sccs(aut)
    preds = predecessor_lists(aut)
    alive = [False] * aut.n
    todo = []
    for cid, comp in enumerate(info.components):
        if info.accepting[cid]:
            for q in comp:
                alive[q] = True
                todo.append(q)
    while todo:
        q = todo.pop()
        for p in preds[q]:
            if not alive[p]:
                alive[p] = True
                todo.append(p)
    return frozenset(q for q in range(aut.n) if not alive[q])


def mod_states(aut: Automaton, d_seq: int):
    """Least family with the initial state in class 0, digits advancing the class."""
    return _mod_states_counted(aut, d_seq)[0]


def _mod_states_counted(aut: Automaton, d_seq: int):
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


def compute_shape_sets(aut: Automaton, d_seq: int, info: SccInfo | None = None) -> ShapeSets:
    info = info or sccs(aut)
    mods, visits = _mod_states_counted(aut, d_seq)
    return ShapeSets(
        empty_states=empty_states(aut, info),
        mod_states=tuple(mods),
        fra_states=fra_states(aut, mods),
        visits=visits,
    )


def check_shape(aut: Automaton, d_par: int, d_seq: int) -> Verdict:
    """Does the automaton accept only words shaped like valid encodings?

    Required: every separator successor of a fractional state or of a
    misaligned modular state is dead, and no accepting loop is reachable
    inside the digit-only region (otherwise some separator-free or
    infinitely-separated word would be accepted).  The failure witness
    is an offending state.
    """
    spec = aut.alphabet
    expected_dim = 1 if spec.kind == SEQUENTIAL else spec.dim
    if d_par != expected_dim:
        raise ValueError(
            f"automaton reads {expected_dim}-vector letters, asked to check {d_par}"
        )
    info = sccs(aut)
    sets = compute_shape_sets(aut, d_seq, info)
    star = spec.star_index

    suspects = set(sets.fra_states)
    for part in sets.mod_states[1:]:
        suspects |= part
    for q in sorted(suspects):
        if aut.delta[q][star] not in sets.empty_states:
            return Verdict(False, NotShape(q))
    for part in sets.mod_states:
        for q in sorted(part):
            cid = info.scc_of[q]
            if info.accepting[cid]:
                return Verdict(False, NotShape(q))
    return Verdict(True)


def is_d_parallel(aut: Automaton) -> Verdict:
    """Shape test for one letter per vector position."""
    return check_shape(aut, aut.alphabet.dim, 1)


def is_d_sequential(aut: Automaton, d: int | None = None) -> Verdict:
    """Shape test for round-robin digit interleaving of ``d`` components."""
    return check_shape(aut, 1, d if d is not None else aut.alphabet.dim)
