"""Total deterministic Buchi automata over digit alphabets.

States are dense integers; the transition table is a list of ``n``
rows, each a list of ``num_letters`` state ids, so a transition lookup
is two constant-time list indexings.  Values are treated as immutable
after construction: every operation here is a pure read and results are
fresh objects.
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
    an accepting state.  ``weak`` says whether every component lies
    wholly inside or wholly outside the accepting set.
    """

    scc_of: list
    components: list
    recurrent: list
    accepting: list
    weak: bool

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


def strong_components(succ):
    """Tarjan's algorithm, iterative, over successor lists.

    ``succ[v]`` lists the successors of node ``v``.  Returns ``scc_of``
    and the components in reverse topological order (sinks first), each
    listing its members in discovery order.

    A node is numbered by its position on Tarjan's stack, not by its
    discovery time: low-links only ever compare nodes on the stack, and
    there the two orders agree.  A node visited but not yet assigned a
    component is exactly a node on the stack.
    """
    n = len(succ)
    index = [-1] * n  # stack position; -1 while unvisited
    low = [0] * n
    stack = []
    scc_of = [-1] * n
    components = []

    for root in range(n):
        if index[root] >= 0:
            continue
        index[root] = low[root] = 0  # the stack is empty between DFS trees
        stack.append(root)
        path = [root]  # the DFS path, with an iterator over each
        todo = [iter(succ[root])]  # node's unexplored successors
        while path:
            v = path[-1]
            lv = low[v]
            for w in todo[-1]:
                iw = index[w]
                if iw < 0:
                    break
                if iw < lv and scc_of[w] < 0:
                    lv = iw
            else:  # every successor explored: v is finished
                path.pop()
                todo.pop()
                start = index[v]
                if lv == start:
                    comp = stack[start:]
                    del stack[start:]
                    cid = len(components)
                    for u in comp:
                        scc_of[u] = cid
                    components.append(comp)
                if path and lv < low[path[-1]]:
                    low[path[-1]] = lv
                continue
            # descend into the unvisited successor w
            low[v] = lv
            index[w] = low[w] = len(stack)
            stack.append(w)
            path.append(w)
            todo.append(iter(succ[w]))
    return scc_of, components


def sccs(aut: Automaton) -> SccInfo:
    """Components of the transition graph, classified in one pass.

    Runs :func:`strong_components` on the transition table, marks each
    component recurrent or accepting-recurrent, and decides weakness
    from the components the accepting set meets.
    """
    delta = aut.delta
    acc = aut.accepting
    scc_of, components = strong_components(delta)
    recurrent = [len(comp) > 1 or comp[0] in delta[comp[0]] for comp in components]
    accepting = [False] * len(components)
    weak = True
    for cid in {scc_of[q] for q in acc}:  # the components acc meets
        accepting[cid] = recurrent[cid]
        weak = weak and acc.issuperset(components[cid])
    return SccInfo(scc_of, components, recurrent, accepting, weak)


def is_weak(aut: Automaton, info: SccInfo | None = None) -> bool:
    """True iff the accepting set is a union of SCCs."""
    return (info or sccs(aut)).weak


def reachable_states(aut: Automaton):
    """States reachable from the initial state, in BFS discovery order."""
    order = [aut.initial]
    seen = bytearray(aut.n)
    seen[aut.initial] = 1
    delta = aut.delta
    for q in order:
        for t in delta[q]:
            if not seen[t]:
                seen[t] = 1
                order.append(t)
    return order


def trim_accessible(aut: Automaton):
    """Restriction to the states reachable from the initial state.

    Returns the trimmed automaton plus the old-to-new state map, or
    ``(aut, None)`` when every state is reachable.  Kept states keep
    their relative order.  The language is preserved.
    """
    order = reachable_states(aut)
    if len(order) == aut.n:
        return aut, None
    order.sort()
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
