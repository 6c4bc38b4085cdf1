"""Total deterministic Buchi automata over digit alphabets.

States are dense integers.  The transition table has two read-only
forms.  ``table`` is one ``n x letters`` numpy int64 array, which every
stage of a check reads, the one reachability walk (:func:`reachable`)
included.  ``delta`` is the same table as a list of ``n`` rows, which
witness walks, the oracle, and the SCCs and colors of a table below
``SMALL_TABLE_CELLS`` index.  An automaton stores the form it was built
from and derives the other once, on first read: a generated automaton,
or a parsed one below ``SMALL_TABLE_CELLS``, keeps its rows and gets
its array when a stage first needs it; a larger parsed one, or one
built by a vectorized stage, keeps its array, and no stage of a check
builds its rows.  Values are treated as immutable after construction:
every operation here is a pure read and results are fresh objects, but
:func:`_memo` keeps a minimal form or dual fixings derived from a whole
automaton on it, shared, read-only and out of pickled and copied state.
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain, islice

import numpy as np

from .alphabet import AlphabetSpec

# Tables below this many cells are parsed line by line into rows and
# skip the merge of equal rows: there the fixed cost of the numpy calls
# exceeds the Python work they save.  A merge round costs 15-60% of the
# trim, SCCs and colours it could shrink on random weak automata of
# 8-2048 states, and 5-10% from 4096 cells on.  Every file of the
# corpus benchmark (at most 640 cells) is below it.  Tables below it are
# colored by Tarjan on every state, larger ones on a quotient
# (minimize.weak_colors): on the 1124 tables a 400-automaton corpus
# sweep colors (at most 450 cells), the quotient took 5.5x as long.
# :func:`reachable` walks them on Python rows: with gathers on every
# table, that sweep took 13% longer.
SMALL_TABLE_CELLS = 2048

# A walk of :func:`reachable` still going after this many levels of
# gathers finishes on Python rows: a level costs microseconds however
# few states it holds.  A unary counter of 16,000 states has 16,000
# levels, and its check took 1.18x as long with gathers alone.
DEEP_WALK_LEVELS = 64


class Automaton:
    """A total deterministic Buchi automaton.

    ``table[q, i]`` (and ``delta[q][i]``) is the successor of state
    ``q`` on the letter with index ``i`` (see
    :meth:`AlphabetSpec.letter_index`).  ``delta`` may be given as a
    list of rows or as an ``n x letters`` integer array; either is
    checked with whole-table reductions (row widths, smallest and
    largest target).
    """

    def __init__(self, alphabet: AlphabetSpec, n: int, initial: int, accepting, delta):
        self.alphabet = alphabet
        self.n = n
        self.initial = initial
        self.accepting = frozenset(accepting)
        if n < 1:
            raise ValueError("automaton needs at least one state")
        if not (0 <= initial < n):
            raise ValueError("initial state out of range")
        if self.accepting and not (0 <= min(self.accepting) and max(self.accepting) < n):
            raise ValueError("accepting state out of range")
        width = alphabet.num_letters
        if len(delta) != n:
            raise ValueError("transition table must have one row per state")
        if isinstance(delta, np.ndarray):
            table = delta.astype(np.int64, copy=False)
            if table.shape != (n, width):
                raise ValueError(f"transition table must be {n} x {width}")
            # one reduction: a negative target reads as a huge unsigned one
            if table.view(np.uint64).max() >= n:
                raise ValueError("transition target out of range")
            self.table = table
        else:
            if set(map(len, delta)) != {width}:
                q = next(q for q, row in enumerate(delta) if len(row) != width)
                raise ValueError(f"state {q}: expected {width} transitions, got {len(delta[q])}")
            if min(chain.from_iterable(delta)) < 0 or max(chain.from_iterable(delta)) >= n:
                raise ValueError("transition target out of range")
            self.delta = delta

    @cached_property
    def table(self):
        """The rows as one ``n x letters`` int64 array, for the vectorized stages."""
        cells = chain.from_iterable(self.delta)
        count = self.n * self.alphabet.num_letters
        return np.fromiter(cells, dtype=np.int64, count=count).reshape(self.n, -1)

    @cached_property
    def delta(self):
        """The table as Python rows of plain ints, for the Python walks."""
        return self.table.tolist()

    def step(self, q, letter):
        return self.delta[q][self.alphabet.letter_index(letter)]

    def run_prefix(self, q, word):
        """Fold of :meth:`step` over a finite letter sequence."""
        delta = self.delta
        for a in word:
            q = delta[q][self.alphabet.letter_index(a)]
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
        delta = self.delta
        q = self.run_prefix(self.initial, prefix)
        seen = {}
        while q not in seen:
            seen[q] = True
            p = q
            for i in period_idx:
                p = delta[p][i]
            q = p
        # q now starts a cycle of whole-period hops; walk it once and
        # collect every intermediate state.
        visited = set()
        p = q
        while True:
            for i in period_idx:
                visited.add(p)
                p = delta[p][i]
            if p == q:
                break
        return bool(visited & self.accepting)

    def __getstate__(self):  # the memo is no state
        return {k: v for k, v in self.__dict__.items() if k != "_memo"}

    def structurally_equal(self, other):
        return (
            self.alphabet == other.alphabet
            and self.n == other.n
            and self.initial == other.initial
            and self.accepting == other.accepting
            and np.array_equal(self.table, other.table)
        )


def _memo(aut: Automaton, key, build, *args):
    """``build(aut, *args)`` on the first call for ``aut`` and ``key``; its result after."""
    memo = aut.__dict__.setdefault("_memo", {})
    return memo[key] if key in memo else memo.setdefault(key, build(aut, *args))


class SccInfo:
    """Strongly connected components with acceptance classification.

    ``components`` is in reverse topological order (sinks first).  A
    component is *recurrent* when it can reach itself (size > 1 or a
    self-loop) and *accepting-recurrent* when additionally it contains
    an accepting state.  ``weak`` says whether every component lies
    wholly inside or wholly outside the accepting set.
    """

    __slots__ = ("scc_of", "components", "recurrent", "accepting", "weak")

    def __init__(self, scc_of, components, recurrent, accepting, weak):
        self.scc_of = scc_of
        self.components = components
        self.recurrent = recurrent
        self.accepting = accepting
        self.weak = weak


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


def reachable(table, roots):
    """The states of ``table`` reached from ``roots``, in breadth-first
    discovery order.

    Returns an int64 array: the roots in order of first occurrence, then
    each level in order of first occurrence over (parent, letter).  A
    table of ``SMALL_TABLE_CELLS`` cells or more is walked one level per
    round of gathers, a smaller one on its Python rows, and so is the
    rest of a walk still going after ``DEEP_WALK_LEVELS`` levels.
    """
    n = len(table)
    if table.size < SMALL_TABLE_CELLS:
        order, seen = [], bytearray(n)
        for q in roots:
            if not seen[q]:
                seen[q] = 1
                order.append(q)
        return _walk_rows(table, order, seen, 0)
    seen = np.zeros(n, dtype=bool)
    first = np.full(n, np.iinfo(np.int64).max)  # each state's slot in the level it enters

    def entering(fresh):
        slot = np.arange(len(fresh))
        np.minimum.at(first, fresh, slot)
        return fresh[first[fresh] == slot]

    levels = [entering(np.asarray(roots, dtype=np.int64))]
    while len(levels[-1]):
        seen[levels[-1]] = True
        if len(levels) == DEEP_WALK_LEVELS:
            order = np.concatenate(levels)
            return _walk_rows(table, order.tolist(), bytearray(seen), len(order) - len(levels[-1]))
        fresh = table[levels[-1]].ravel()
        levels.append(entering(fresh[~seen[fresh]]))
    return np.concatenate(levels)


def _walk_rows(table, order, seen, start):
    """:func:`reachable` on the Python rows of ``table``, resumed with the
    states of ``order`` from ``start`` on still to expand."""
    rows = table.tolist()
    for q in islice(order, start, None):
        for t in rows[q]:
            if not seen[t]:
                seen[t] = 1
                order.append(t)
    return np.array(order, dtype=np.int64)


def trim_accessible(aut: Automaton):
    """Restriction to the states reachable from the initial state.

    Returns the trimmed automaton plus the array that maps each state
    to its trimmed state, -1 where it is unreachable; or ``(aut, None)``
    when every state is reachable.  Kept states keep their relative
    order.  The language is preserved.
    """
    order = reachable(aut.table, (aut.initial,))
    if len(order) == aut.n:
        return aut, None
    kept = np.sort(order)
    new_id = np.full(aut.n, -1, dtype=np.int64)
    new_id[kept] = np.arange(len(kept))
    accepting = frozenset(new_id[list(aut.accepting)].tolist()) - {-1}
    trimmed = Automaton(
        aut.alphabet, len(kept), int(new_id[aut.initial]), accepting, new_id[aut.table[kept]]
    )
    return trimmed, new_id
