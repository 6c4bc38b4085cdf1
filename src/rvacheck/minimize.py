"""Minimization of weak deterministic Buchi automata.

The ultimately-periodic language of a state in a weak automaton depends
only on the acceptance of the component its runs settle in.  Each state
therefore gets a canonical color: recurrent components take the smallest
number of the right parity (even for accepting) dominating the colors of
their successors, transient states inherit the maximum successor color.
Refining the color partition with plain Moore/Hopcroft steps then yields
the minimal weak automaton together with its morphism.

Partition refinement runs Moore's rounds, vectorized over the
transition array.  Their count is linear in the worst case: a unary
counter of ``M`` states needs one round per state.  From the colors,
``gen_residue_rva(6911)`` takes 15 rounds and the 8207-state sequential
product of two residue automata 17.  A round ranks every state's
(block, successor blocks) signature until a large table slows down;
then it re-ranks only the predecessors of the states whose block id
changed, so the counter costs time linear in ``M``.

Before any of this, :func:`minimal_form` trims the input and merges
states with equal acceptance and equal rows on the array; merged states
are bisimilar, so the minimal form is the same.  Its docstring has the
measurements.

Quotients and partitions stay arrays: the minimal automaton's table is
one gather of block ids.  Two automata are minimized jointly as one,
their disjoint union (:func:`rvacheck.fixing.dual_fixings`): two states
share a language exactly when they share a block.

Colors and components come from :func:`weak_colors`: Tarjan
(:func:`sccs`) and the loop of :func:`normalized_colors`, which a table
of ``SMALL_TABLE_CELLS`` cells or more runs on a quotient.  There each
state follows its first column that leads neither to itself nor to an
all-loop state; pointer doubling finds the cycles of that function in
``ceil(log2 n)`` rounds of gathers, and each cycle, which lies inside
one component, becomes one node.  The 8207-state sequential product
of two residue automata contracts to 38 nodes in 18 components, and its
32738-state dual-tail union to 72 nodes in 36.  A random table keeps
about as many nodes as states, and costs about what the walks on it cost.

The rounds also hold short distinguishing words: two states first split
in round ``k`` have a letter whose successors are apart in round
``k-1``, and states of different colors are told apart by walking down
the color chain.  :func:`distinguishing_word` reads a lasso off them
for two states of one automaton, without building a product.
"""

from __future__ import annotations

import numpy as np

from .automaton import (
    SMALL_TABLE_CELLS,
    Automaton,
    SccInfo,
    _memo,
    reachable,
    sccs,
    strong_components,
    trim_accessible,
)
from .record import Record, _set


def normalized_colors(aut: Automaton, info: SccInfo | None = None):
    """Canonical per-state color; parity of a recurrent color is acceptance."""
    info = info or sccs(aut)
    color = _component_colors(aut.delta, info)
    return [color[c] for c in info.scc_of]


def _component_colors(succ, info: SccInfo):
    """The color of each component of ``info``, the components of ``succ``."""
    scc_of = info.scc_of
    color = [0] * len(info.components)
    # components arrive sinks-first, so successors are already colored
    for cid, comp in enumerate(info.components):
        succ_max = -1
        for v in comp:
            for t in succ[v]:
                t = scc_of[t]
                if t != cid and color[t] > succ_max:
                    succ_max = color[t]
        if not info.recurrent[cid]:
            color[cid] = succ_max  # total automata: transient SCCs have successors
        elif info.accepting[cid]:
            color[cid] = max(succ_max + (succ_max % 2), 0)
        else:
            color[cid] = max(succ_max + 1 - (succ_max % 2), 1)
    return color


def weak_colors(aut: Automaton):
    """Colors and components of a weak automaton; None if it is not weak.

    Returns per state the color of :func:`normalized_colors` and a
    component id, and per component id whether it is recurrent and
    whether it is accepting.  A table of ``SMALL_TABLE_CELLS`` cells or
    more is colored on the quotient by the cycles of one successor
    function (module docstring); both paths give the same result.
    """
    if aut.n * aut.alphabet.num_letters < SMALL_TABLE_CELLS:
        info = sccs(aut)
        if not info.weak:
            return None
        return normalized_colors(aut, info), info.scc_of, info.recurrent, info.accepting
    table = aut.table
    n = len(table)
    states = np.arange(n)
    loops = table == states[:, None]
    leads = ~(loops | loops.all(axis=1)[table])  # to another state, not an all-loop one
    first = leads.argmax(axis=1)
    g = np.where(leads[states, first], table[states, first], states)
    jump, low = g, states  # g to the powers 1, 2, 4, ..., 2^k >= n
    for _ in range(max(1, (n - 1).bit_length())):
        low = np.minimum(low, low[jump])  # on a cycle: its smallest state
        jump = jump[jump]
    cyclic = np.zeros(n, dtype=bool)
    cyclic[jump] = True  # g^(2^k) maps onto the cycles
    node = np.where(cyclic, low, states)
    used = np.zeros(n, dtype=bool)
    used[node] = True
    rep = np.flatnonzero(used)  # a state of each node: a cycle's smallest
    node = (np.cumsum(used) - 1)[node]

    target = node[table]
    cross = target != node[:, None]
    succ = target[rep].tolist()  # a single state's node: its row
    # a cycle's node: the edges that leave it from any of its states
    spread = np.flatnonzero(cyclic & (g != states))
    codes = np.sort((node[spread, None] * len(rep) + target[spread])[cross[spread]])
    heads, tails = np.divmod(codes[np.diff(codes, prepend=-1) != 0], len(rep))
    starts = np.flatnonzero(np.diff(heads, prepend=-1)).tolist()
    tails = tails.tolist()
    for v, i, j in zip(heads[starts].tolist(), starts, [*starts[1:], len(tails)]):
        succ[v] = tails[i:j]
    scc_of, components = strong_components(succ)

    k = len(components)
    comp = np.array(scc_of)[node]
    recurrent = np.bincount(comp[rep], minlength=k) > 1  # two nodes: edges between
    recurrent[comp[~cross.all(axis=1)]] = True  # an edge inside a node
    meets = np.bincount(comp[list(aut.accepting)], minlength=k)
    if ((meets > 0) & (meets < np.bincount(comp, minlength=k))).any():
        return None
    accepting = recurrent & (meets > 0)
    info = SccInfo(scc_of, components, recurrent.tolist(), accepting.tolist(), True)
    return np.array(_component_colors(succ, info))[comp], comp, recurrent, accepting


_PACK_LIMIT = 1 << 62  # packed signature codes stay below this


def _rank(codes, span):
    """Dense ranks of non-negative ``codes`` below ``span``, in code order.

    Linear (a bincount over the range) while ``span`` is within
    ``2n + 64`` of the ``n`` codes, a sort beyond it; same ids either
    way.  The bound keeps the bincount's arrays near the size of the
    codes.
    """
    if span <= 2 * len(codes) + 64:
        lookup = np.cumsum(np.bincount(codes, minlength=span) > 0, dtype=np.int64)
        lookup -= 1
        return lookup[codes]
    return np.unique(codes, return_inverse=True)[1].astype(np.int64, copy=False)


def _signature_ranks(code, distinct, num, cols):
    """Dense ranks of the signatures ``(code, *row)`` of ``cols``' rows.

    ``code`` holds ``distinct`` values and the ``m x k`` int64 array
    ``cols`` values below ``num``.  The signature is folded into integer
    codes a few columns at a time, as mixed-radix numbers, and the codes
    are re-ranked after each fold, so ranks keep the lexicographic order
    of the signatures and are grouped by ``code``.  A fold takes as many
    columns as keep the codes in the range :func:`_rank` handles in
    linear time; once ``num`` alone exceeds that range, it takes as many
    as fit in 62 bits, for one sort.  Returns the ranks and their count.
    """
    dense = 2 * len(code) + 64  # the range _rank ranks in linear time
    width = cols.shape[1]
    i = 0
    while i < width:
        # fold columns i..j-1: as many as keep the codes in a range
        # that bincount can rank, else as many as fit a sort key
        cap = dense if distinct * num <= dense else _PACK_LIMIT
        span, j = distinct * num, i + 1
        while j < width and span * num <= cap:
            span *= num
            j += 1
        packed = code
        for letter in range(i, j):
            packed = packed * num + cols[:, letter]
        code = _rank(packed, span)
        distinct = int(code.max()) + 1
        i = j
    return code, distinct


_FEW = 3


def _refinement_rounds(table, labels):
    """Moore refinement of ``labels``, one partition per round.

    ``table`` is the dense ``n x letters`` successor array.  Round 0
    ranks the labels; each later round splits the blocks of the round
    before by the blocks of every letter's successor, so two states
    share a round-``k`` block exactly when no word of length at most
    ``k`` leads them to different labels.  The last partition yielded is
    stable.

    Yields ``(block, states, previous)``: the round's dense block ids,
    live, and the ids that ``states`` had one round before.  A round
    ranks every state's (block, successor blocks) signature (``states``
    is every state) until, on a table of ``SMALL_TABLE_CELLS`` cells or
    more, the last two rounds add at most ``1/_FEW`` as many blocks as
    there were before them and as there are states without a block of
    their own; :func:`rvacheck.incremental.incremental_rounds` goes on.
    """
    n = len(table)
    labels = np.asarray(labels, dtype=np.int64)
    low = labels.min()
    block = _rank(labels - low, int(labels.max() - low) + 1)
    num = int(block.max()) + 1
    every, previous, prior = slice(None), block, num  # round 0 changes no id
    while True:
        yield block, every, previous
        code, distinct = _signature_ranks(block, num, num, block[table])
        if distinct == num:
            return
        slow = (distinct - prior) * _FEW <= min(prior, n - distinct)
        if slow and table.size >= SMALL_TABLE_CELLS:
            break
        block, num, prior, previous = code, distinct, num, block
    from .incremental import incremental_rounds  # only a switching table compiles it

    yield from incremental_rounds(table, block.copy(), num, code)


def refine_partition(table, labels):
    """Coarsest refinement of ``labels`` stable under every letter.

    The result maps each state to a block id, dense and meaning only
    equality: the last round of :func:`_refinement_rounds`.  Before the
    switch a round gathers the ``n x k`` successor blocks and ranks them
    in folds; a fold whose codes span more than ``2n + 64`` values sorts,
    in ``O(n log n)``, and on a table that does not collapse every fold
    does.  After the switch a round costs ``O(m log m)`` for the ``m``
    predecessors of the states whose id changed.
    """
    for block, _, _ in _refinement_rounds(table, labels):
        pass
    return block


class Morphism(Record):
    """Language-preserving map onto the minimal quotient: ``mapping``
    is an int64 array, -1 where :func:`minimal_form` finds a state
    unreachable."""

    __slots__ = _fields = ("source", "target", "mapping")

    def __init__(self, source, target, mapping):
        if len(mapping) != source.n:
            raise ValueError("morphism must map every source state")
        _set(self, "source", source)
        _set(self, "target", target)
        _set(self, "mapping", mapping)


def minimize_weak(aut: Automaton, colors=None) -> Morphism:
    """Minimal weak automaton plus the per-state morphism.

    When every state of the input is accessible the target is the
    minimal automaton of the language; in general it is the quotient by
    per-state language equality.  Target states are numbered in BFS
    discovery order from the image of the initial state, unreachable
    ones last.  ``colors`` is :func:`weak_colors` of ``aut``, computed
    here when not given.
    """
    colors = colors or weak_colors(aut)
    if colors is None:
        raise ValueError("minimization requires a weak automaton")
    color, comp, _, accepting = colors
    block = refine_partition(aut.table, color)
    num = int(block.max()) + 1
    _, succ = _quotient(aut.table, block, num)
    order = reachable(succ, (int(block[aut.initial]),))
    if len(order) < num:  # unreachable blocks: by their smallest state
        least = np.unique(block, return_index=True)[1]
        rest = np.setdiff1d(np.arange(num), order)
        order = np.concatenate((order, rest[np.argsort(least[rest])]))
    ids = np.empty(num, dtype=np.int64)
    ids[order] = np.arange(num)

    state_of = ids[block]  # source state -> target state
    accepting = state_of[np.flatnonzero(np.asarray(accepting)[comp])]
    target = Automaton(
        aut.alphabet,
        num,
        int(state_of[aut.initial]),
        frozenset(accepting.tolist()),
        ids[succ[order]],
    )
    return Morphism(aut, target, state_of)


def _quotient(table, block, num):
    """One member of each of the ``num`` blocks, and the blocks' table.

    The partition ``block`` must be stable, so any member's row gives
    its block's row.
    """
    rep = np.empty(num, dtype=np.int64)
    rep[block] = np.arange(len(block))
    return rep, block[table[rep]]


def _merge_equal_rows(aut: Automaton):
    """Quotient by states with equal acceptance and equal rows.

    Each round ranks every state's (acceptance, row) signature and
    merges the states that share one; merged states are bisimilar, so
    the language of each state is kept, and so are weakness and the
    minimal form of the reachable part.  A merge can make rows above it
    equal, so the rounds repeat, but a round's merge is taken only when
    it removes at least a quarter of the states: together the rounds
    then cost at most four first rounds.  Repeating them until no two
    rows are equal would be quadratic, as two chains into one sink merge
    one level per round.  Returns the quotient and the array that maps
    each state of ``aut`` to its state there, or ``(aut, None)`` when no
    merge is taken.
    """
    table = aut.table
    label = np.zeros(aut.n, dtype=np.int64)
    label[list(aut.accepting)] = 1
    state_of = np.arange(aut.n)
    while True:
        n = len(table)
        block, num = _signature_ranks(label, 2, n, table)
        if 4 * num > 3 * n:
            break
        rep, table = _quotient(table, block, num)
        label = label[rep]
        state_of = block[state_of]
    if len(table) == aut.n:
        return aut, None
    accepting = frozenset(np.flatnonzero(label).tolist())
    quotient = Automaton(aut.alphabet, len(table), int(state_of[aut.initial]), accepting, table)
    return quotient, state_of


def minimal_form(aut: Automaton):
    """Trim, merge equal rows, colour and quotient: the morphism from
    ``aut`` onto its minimal weak automaton; None when the reachable
    part is not weak.

    The target is the minimal weak automaton of the language, with the
    numbering of :func:`minimize_weak`; the mapping composes the maps of
    the trim, the merge and the quotient, with -1 on every state that
    ``aut`` does not reach.  The trim walks the table array
    (:func:`reachable`), so a merged class never holds a state that
    ``aut`` does not reach.  The merge rounds of
    :func:`_merge_equal_rows` run on the array before any Python walk,
    so an input that collapses reaches SCCs and colours at a fraction of
    its size: ``gen_interval_rva(25086)`` takes 11 rounds, 10 of them
    taken, from 25086 states to 48.  The residue and product inputs take
    1 round and merge nothing.  Tables below ``SMALL_TABLE_CELLS`` cells
    skip the merge.  Built once per ``aut`` (:func:`rvacheck.automaton._memo`).
    """
    return _memo(aut, "minimal_form", _minimal_form)


def _minimal_form(aut: Automaton):
    trimmed, trim_map = trim_accessible(aut)
    merged, merge_map = trimmed, None
    if trimmed.n * aut.alphabet.num_letters >= SMALL_TABLE_CELLS:
        merged, merge_map = _merge_equal_rows(trimmed)
    colors = weak_colors(merged)
    if colors is None:
        return None
    morphism = minimize_weak(merged, colors)
    mapping = morphism.mapping
    if merge_map is not None:
        mapping = mapping[merge_map]
    if trim_map is not None:
        mapping = np.append(mapping, -1)[trim_map]  # -1 picks the appended -1
    mapping.setflags(write=False)
    morphism.target.table.setflags(write=False)
    return Morphism(aut, morphism.target, mapping)


def _shortest_path(succ, start, allowed, goal):
    """Labels of a shortest path from ``start`` to a ``goal`` node.

    ``succ(s)`` yields the ``(label, successor)`` edges of ``s`` in
    search order.  Only ``allowed`` nodes are entered after ``start``.
    Returns the labels and the node reached; the first goal node in
    breadth-first order wins.
    """
    parent = {start: None}
    queue = [start]
    for s in queue:
        if goal(s):
            path = []
            end = s
            while parent[s] is not None:
                s, i = parent[s]
                path.append(i)
            return path[::-1], end
        for i, t in succ(s):
            if t not in parent and allowed(t):
                parent[t] = (s, i)
                queue.append(t)
    raise RuntimeError("no path to the goal")


def distinguishing_word(aut: Automaton, q: int, p: int):
    """A lasso accepted from exactly one of the states ``q`` and ``p``.

    Returns ``(prefix, period)`` letter tuples, or None when the two
    states have the same language; the contract of
    :func:`rvacheck.oracle.distinguishing_lasso` on ``(aut, q, aut, p)``,
    read off the minimizer's refinement instead of a product.  States
    of two automata are compared in their union (module docstring).

    1. Color ``aut`` (:func:`weak_colors`); refine until ``q``, ``p`` split.
    2. Descend the rounds: a pair first split in round ``k`` has a
       letter whose successors are apart in round ``k-1``.  After at
       most ``rounds`` letters the two sides differ in color.
    3. Walk the color chain.  The side ``x`` with the higher color
       moves to a recurrent state of its color and loops a shortest
       cycle there until the other side repeats at the period boundary.
       If the two loops differ in acceptance, that is the lasso.
       Otherwise the other side settled in a component of the same
       acceptance, so of a color at least two lower: ``x`` walks to the
       nearest recurrent state one color lower while the other side
       stays strictly below (colors never rise along a transition).
       This ends after at most ``color(x)`` steps.

    The refinement costs what :func:`refine_partition` costs.  The
    descent rolls one block array back through each round's changed
    ids: ``n`` per round that ranks all ``n`` states, and ``O(n log n)``
    over the others.  Each color step adds two breadth-first searches
    and at most one pass of the cycle per state of the other side.  The
    lasso is short but not always the shortest.
    """
    colors = weak_colors(aut)
    if colors is None:
        raise ValueError("automaton must be weak")
    color, scc_of, recurrent, accepting = (np.asarray(x).tolist() for x in colors)
    x, y = q, p
    changes = []  # up to the round that splits q and p
    for block, states, previous in _refinement_rounds(aut.table, color):
        changes.append((states, previous))
        if block[x] != block[y]:
            break
    else:
        return None

    delta = aut.delta
    word = []
    for states, previous in reversed(changes[1:]):
        block[states] = previous  # one round back: x and y are apart one round later
        if block[x] == block[y]:
            rx, ry = delta[x], delta[y]
            i = next(i for i, t in enumerate(rx) if block[t] != block[ry[i]])
            word.append(i)
            x, y = rx[i], ry[i]

    if color[x] < color[y]:
        x, y = y, x
    c = color[x]
    edges = lambda s: enumerate(delta[s])
    while True:
        path, x = _shortest_path(
            edges,
            x,
            lambda s: color[s] >= c,
            lambda s: color[s] == c and recurrent[scc_of[s]],
        )
        for i in path:
            y = delta[y][i]
        home = scc_of[x]
        head, last = _shortest_path(
            edges, x, lambda s: scc_of[s] == home, lambda s: x in delta[s]
        )
        cycle = head + [delta[last].index(x)]
        seen = {}
        while y not in seen:  # x is back at x after every pass
            seen[y] = len(seen)
            for i in cycle:
                y = delta[y][i]
        word += path + cycle * seen[y]
        if accepting[home] != accepting[scc_of[y]]:
            period = cycle * (len(seen) - seen[y])
            letter = aut.alphabet.letter_at
            return tuple(map(letter, word)), tuple(map(letter, period))
        c -= 1
