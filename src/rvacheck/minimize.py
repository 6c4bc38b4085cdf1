"""Minimization of weak deterministic Buchi automata.

The ultimately-periodic language of a state in a weak automaton depends
only on the acceptance of the component its runs settle in.  Each state
therefore gets a canonical color: recurrent components take the smallest
number of the right parity (even for accepting) dominating the colors of
their successors, transient states inherit the maximum successor color.
Refining the color partition with plain Moore/Hopcroft steps then yields
the minimal weak automaton together with its morphism.

Partition refinement runs as vectorized signature-splitting rounds over
numpy arrays; each round sorts the (block, successor blocks) rows, so
the engine is deterministic.  Worst-case round count is linear, but on
the automata handled here the refinement depth stays logarithmic; see
the empirical scaling test in the acceptance suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .automaton import Automaton, SccInfo, is_weak, sccs


def normalized_colors(aut: Automaton, info: SccInfo | None = None):
    """Canonical per-state color; parity of a recurrent color is acceptance."""
    info = info or sccs(aut)
    width = aut.alphabet.num_letters
    color = [0] * info.num_sccs
    # components arrive sinks-first, so successors are already colored
    for cid, comp in enumerate(info.components):
        succ_max = -1
        for q in comp:
            row = aut.delta[q]
            for i in range(width):
                t = info.scc_of[row[i]]
                if t != cid and color[t] > succ_max:
                    succ_max = color[t]
        if not info.recurrent[cid]:
            color[cid] = succ_max  # total automata: transient SCCs have successors
        elif info.accepting[cid]:
            color[cid] = max(succ_max + (succ_max % 2), 0)
        else:
            color[cid] = max(succ_max + 1 - (succ_max % 2), 1)
    return [color[info.scc_of[q]] for q in range(aut.n)]


def refine_partition(delta_array, labels):
    """Coarsest refinement of ``labels`` stable under every letter.

    ``delta_array`` is the dense ``n x letters`` successor table.  The
    result maps each state to a block id.  Signatures are folded one
    letter at a time into packed integer codes, so each round costs a
    few one-dimensional sorts; ids are deterministic.
    """
    n, width = delta_array.shape
    block = np.unique(np.asarray(labels, dtype=np.int64), return_inverse=True)[1]
    block = block.astype(np.int64, copy=False)
    num = int(block.max()) + 1 if n else 0
    while True:
        code = block
        distinct = num
        for i in range(width):
            packed = code * num + block[delta_array[:, i]]
            span = distinct * num
            if span <= 4 * n + 64:
                # dense re-ranking; same ids as np.unique at linear cost
                counts = np.bincount(packed, minlength=span)
                lookup = np.cumsum(counts > 0, dtype=np.int64) - 1
                code = lookup[packed]
            else:
                _, code = np.unique(packed, return_inverse=True)
                code = code.astype(np.int64, copy=False)
            distinct = int(code.max()) + 1 if n else 0
        if distinct == num:
            return block
        block = code
        num = distinct


@dataclass(frozen=True)
class Morphism:
    """Language-preserving surjection onto the minimal quotient."""

    source: Automaton
    target: Automaton
    mapping: tuple

    def __post_init__(self):
        if len(self.mapping) != self.source.n:
            raise ValueError("morphism must map every source state")


def minimize_weak(aut: Automaton, info: SccInfo | None = None) -> Morphism:
    """Minimal weak automaton plus the per-state morphism.

    When every state of the input is accessible the target is the
    minimal automaton of the language; in general it is the quotient by
    per-state language equality.  Target states are numbered in BFS
    discovery order from the image of the initial state.
    """
    info = info or sccs(aut)
    if not is_weak(aut, info):
        raise ValueError("minimization requires a weak automaton")
    colors = normalized_colors(aut, info)
    block = refine_partition(aut.delta_array, colors).tolist()
    # block ids are dense; walking the states backwards leaves each
    # block's smallest state as its representative
    rep = dict(zip(reversed(block), range(aut.n - 1, -1, -1)))

    new_id = [-1] * len(rep)
    order = []

    def visit(b):
        if new_id[b] < 0:
            new_id[b] = len(order)
            order.append(b)

    visit(block[aut.initial])
    head = 0
    while head < len(order):
        b = order[head]
        head += 1
        for t in aut.delta[rep[b]]:
            visit(block[t])
    for b in range(len(rep)):  # unreachable blocks keep deterministic ids too
        visit(b)

    delta = [[new_id[block[t]] for t in aut.delta[rep[b]]] for b in order]
    accepting = frozenset(new_id[block[q]] for q in info.accepting_recurrent_states())
    target = Automaton(
        aut.alphabet, len(order), new_id[block[aut.initial]], accepting, delta
    )
    mapping = tuple([new_id[b] for b in block])
    return Morphism(aut, target, mapping)


@dataclass(frozen=True)
class EquivalenceTable:
    """Constant-time cross-automaton state-language equality queries."""

    automata: tuple
    classes: tuple  # one tuple of block ids per automaton

    def same_language(self, i, q, j, p):
        return self.classes[i][q] == self.classes[j][p]


def joint_equivalence(automata) -> EquivalenceTable:
    """Jointly minimize several automata over one alphabet.

    The automata are glued into a disjoint union, rooted at the first
    one's initial state.  Colors and refinement cover every state of the
    union, reachable or not, so two states end up in the same class
    exactly when their languages agree.
    """
    automata = list(automata)
    if not automata:
        raise ValueError("need at least one automaton")
    spec = automata[0].alphabet
    if any(a.alphabet != spec for a in automata):
        raise ValueError("joint minimization needs a shared alphabet")
    width = spec.num_letters

    offsets = []
    total = 0
    for a in automata:
        offsets.append(total)
        total += a.n

    delta = []
    accepting = set()
    for off, a in zip(offsets, automata):
        for q in range(a.n):
            delta.append([a.delta[q][i] + off for i in range(width)])
        accepting.update(q + off for q in a.accepting)
    union = Automaton(spec, total, automata[0].initial, frozenset(accepting), delta)

    info = sccs(union)
    if not is_weak(union, info):
        raise ValueError("joint minimization requires weak automata")
    colors = normalized_colors(union, info)
    block = refine_partition(union.delta_array, colors).tolist()
    classes = tuple(
        tuple(block[off : off + a.n]) for off, a in zip(offsets, automata)
    )
    return EquivalenceTable(tuple(automata), classes)
