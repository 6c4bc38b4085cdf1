"""Total deterministic Buchi automata over digit alphabets.

States are dense integers; the transition table is a dense
``n x num_letters`` array of state ids, so a transition lookup is a
constant-time indexing operation.  Values are treated as immutable after
construction: every operation here is a pure read and results are fresh
objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .alphabet import AlphabetSpec


@dataclass(eq=False)
class Automaton:
    """A total deterministic Buchi automaton.

    ``delta[q][i]`` is the successor of state ``q`` on the letter with
    index ``i`` (see :meth:`AlphabetSpec.letter_index`).
    """

    alphabet: AlphabetSpec
    n: int
    initial: int
    accepting: frozenset
    delta: list

    def __post_init__(self):
        if not isinstance(self.accepting, frozenset):
            self.accepting = frozenset(self.accepting)
        if self.n < 1:
            raise ValueError("automaton needs at least one state")
        if not (0 <= self.initial < self.n):
            raise ValueError("initial state out of range")
        if any(not (0 <= q < self.n) for q in self.accepting):
            raise ValueError("accepting state out of range")
        width = self.alphabet.num_letters
        if len(self.delta) != self.n:
            raise ValueError("transition table must have one row per state")
        for q, row in enumerate(self.delta):
            if len(row) != width:
                raise ValueError(f"state {q}: expected {width} transitions, got {len(row)}")
        if any(not (0 <= t < self.n) for row in self.delta for t in row):
            raise ValueError("transition target out of range")

    @cached_property
    def delta_array(self):
        import numpy as np

        return np.asarray(self.delta, dtype=np.int64)

    def step(self, q, letter):
        return self.delta[q][self.alphabet.letter_index(letter)]

    def run_prefix(self, q, word):
        """Fold of :meth:`step` over a finite letter sequence."""
        for a in word:
            q = self.delta[q][self.alphabet.letter_index(a)]
        return q

    def accepts_lasso(self, prefix, period):
        """Acceptance of the ultimately periodic word ``prefix period^w``.

        Iterates the period from the state reached on the prefix until a
        state repeats, then tests whether the looping stretch of the run
        visits an accepting state.  Exact Buchi semantics; weakness is
        not assumed.
        """
        period = list(period)
        if not period:
            raise ValueError("period must be nonempty")
        period_idx = [self.alphabet.letter_index(a) for a in period]
        q = self.run_prefix(self.initial, prefix)
        seen = {}
        while q not in seen:
            seen[q] = True
            p = q
            for i in period_idx:
                p = self.delta[p][i]
            q = p
        # q now starts a cycle of whole-period hops; walk it once and
        # collect every intermediate state.
        visited = set()
        p = q
        while True:
            for i in period_idx:
                visited.add(p)
                p = self.delta[p][i]
            if p == q:
                break
        return bool(visited & self.accepting)

    def structurally_equal(self, other):
        return (
            self.alphabet == other.alphabet
            and self.n == other.n
            and self.initial == other.initial
            and self.accepting == other.accepting
            and all(list(a) == list(b) for a, b in zip(self.delta, other.delta))
        )


@dataclass
class SccInfo:
    """Strongly connected components with acceptance classification.

    ``components`` is in reverse topological order (sinks first).  A
    component is *recurrent* when it can reach itself (size > 1 or a
    self-loop) and *accepting-recurrent* when additionally it contains
    an accepting state.
    """

    scc_of: list
    components: list
    recurrent: list
    accepting: list

    @property
    def num_sccs(self):
        return len(self.components)

    def is_transient(self, scc_id):
        return not self.recurrent[scc_id]

    def is_accepting_recurrent(self, scc_id):
        return self.accepting[scc_id]

    def is_rejecting_recurrent(self, scc_id):
        return self.recurrent[scc_id] and not self.accepting[scc_id]

    def accepting_recurrent_states(self):
        return [
            q
            for cid, comp in enumerate(self.components)
            if self.accepting[cid]
            for q in comp
        ]


def sccs(aut: Automaton) -> SccInfo:
    """Tarjan's algorithm, iterative, over the dense transition table."""
    n = aut.n
    width = aut.alphabet.num_letters
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack = []
    scc_of = [-1] * n
    components = []
    counter = 0

    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            q, li = work[-1]
            if li == 0:
                index[q] = low[q] = counter
                counter += 1
                stack.append(q)
                on_stack[q] = True
            advanced = False
            while li < width:
                t = aut.delta[q][li]
                li += 1
                if index[t] == -1:
                    work[-1] = (q, li)
                    work.append((t, 0))
                    advanced = True
                    break
                if on_stack[t]:
                    low[q] = min(low[q], index[t])
            if advanced:
                continue
            work.pop()
            if low[q] == index[q]:
                comp = []
                while True:
                    t = stack.pop()
                    on_stack[t] = False
                    scc_of[t] = len(components)
                    comp.append(t)
                    if t == q:
                        break
                comp.reverse()
                components.append(comp)
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[q])

    recurrent = []
    accepting = []
    for comp in components:
        rec = len(comp) > 1 or any(
            aut.delta[comp[0]][i] == comp[0] for i in range(width)
        )
        recurrent.append(rec)
        accepting.append(rec and any(q in aut.accepting for q in comp))
    return SccInfo(scc_of, components, recurrent, accepting)


def is_weak(aut: Automaton, info: SccInfo | None = None) -> bool:
    """True iff the accepting set is a union of SCCs."""
    info = info or sccs(aut)
    for comp in info.components:
        inside = sum(1 for q in comp if q in aut.accepting)
        if inside not in (0, len(comp)):
            return False
    return True


def reachable_states(aut: Automaton):
    """States reachable from the initial state, in BFS discovery order."""
    width = aut.alphabet.num_letters
    order = [aut.initial]
    seen = {aut.initial}
    head = 0
    while head < len(order):
        q = order[head]
        head += 1
        row = aut.delta[q]
        for i in range(width):
            t = row[i]
            if t not in seen:
                seen.add(t)
                order.append(t)
    return order


def trim_accessible(aut: Automaton):
    """Restriction to the states reachable from the initial state.

    Returns the trimmed automaton plus the old-to-new state map (states
    are renumbered in BFS discovery order).  The language is preserved.
    """
    order = reachable_states(aut)
    if len(order) == aut.n:
        return aut, {q: q for q in range(aut.n)}
    order = sorted(order)  # keep relative numbering when dropping states
    remap = {old: new for new, old in enumerate(order)}
    width = aut.alphabet.num_letters
    delta = [[remap[aut.delta[old][i]] for i in range(width)] for old in order]
    accepting = frozenset(remap[q] for q in aut.accepting if q in remap)
    trimmed = Automaton(aut.alphabet, len(order), remap[aut.initial], accepting, delta)
    return trimmed, remap


def predecessor_lists(aut: Automaton):
    """``preds[q]`` lists the states with some transition into ``q``."""
    preds = [set() for _ in range(aut.n)]
    for q in range(aut.n):
        for t in aut.delta[q]:
            preds[t].add(q)
    return [sorted(s) for s in preds]
