"""Moore rounds that re-rank only the states with a successor whose
block id changed: the rest of a block keeps its signature, and a changed
id sets those states apart from it, so the rest is one piece.  The
largest piece keeps the block's id (Hopcroft's rule), so no id changes
more than ``log2 n`` times.  Blocks are segments of one permutation of
the states, so moving the rest costs its size, below the largest piece's.
"""

import numpy as np

from .minimize import _signature_ranks


def _ranges(starts, ends):
    """The ranges ``starts[i] .. ends[i] - 1``, concatenated."""
    lengths = ends - starts
    return np.repeat(starts - np.cumsum(lengths) + lengths, lengths) + np.arange(lengths.sum())


def incremental_rounds(table, block, num, code):
    """The rounds of :func:`rvacheck.minimize._refinement_rounds` from the
    one that ranked ``code`` on, given ``block``, the ``num`` blocks of
    the round before."""
    n = len(table)
    # transitions as target * n + source: arcs[into[t]:into[t+1]] % n lead into t
    arcs = np.sort((table * n + np.arange(n)[:, None]).ravel())
    into = np.concatenate(([0], np.cumsum(np.bincount(table.ravel(), minlength=n))))
    order = np.argsort(code, kind="stable")  # block b: order[lo[b]:hi[b]]
    touched, rank, pos = order.copy(), code[order], np.empty(n, dtype=np.int64)
    pos[order] = np.arange(n)
    lo, hi = np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.int64)
    hi[:num] = np.cumsum(np.bincount(block, minlength=num))
    lo[1:num] = hi[: num - 1]
    mark, slot, arranged = np.zeros(n, dtype=bool), np.empty(n, dtype=np.int64), True
    while True:
        # pieces: the touched states of one block with one signature
        size = np.bincount(rank)
        first = np.cumsum(size) - size
        owner = block[touched[first]]
        opens = np.concatenate(([True], owner[1:] != owner[:-1]))
        group = np.flatnonzero(opens)  # a block's first piece
        of = np.cumsum(opens) - 1
        b, start, count = owner[group], first[group], np.add.reduceat(size, group)
        rest = hi[b] - lo[b] - count  # its untouched states, one piece
        pieces = len(size)
        key = np.maximum.reduceat(size * pieces + np.arange(pieces - 1, -1, -1), group)
        big, keeper = key // pieces, pieces - 1 - key % pieces  # the first largest piece
        split = np.bincount(of) + (rest > 0) > 1
        moves = split & (big > rest)  # a touched piece keeps the id, the rest moves
        gone = moves & (rest > 0)
        fresh = split[of]
        fresh[keeper[moves]] = False

        # each block's touched states to the front of its segment, by piece
        target = np.repeat(lo[b] - start, count) + np.arange(len(touched))
        if arranged:  # the first round's segments are already in this order
            arranged = False
        else:
            at, occupant = pos[touched], order[target]
            mark[touched] = True
            out = occupant[~mark[occupant]]
            mark[touched] = False
            vacated = at[at >= np.repeat(lo[b] + count, count)]
            order[vacated], pos[out] = out, vacated
            order[target], pos[touched] = touched, target

        rest_lo, rest_hi = lo[b] + count, hi[b]
        ident = np.where(fresh, num + np.cumsum(fresh) - 1, owner)
        new = num + np.count_nonzero(fresh) + np.arange(np.count_nonzero(gone))
        num += int(np.count_nonzero(fresh) + len(new))
        lo[ident], hi[ident] = target[first], target[first] + size
        lo[b[split & ~moves]] = rest_lo[split & ~moves]
        lo[new], hi[new] = rest_lo[gone], rest_hi[gone]

        states, ids = touched[fresh[rank]], ident[rank[fresh[rank]]]
        if len(new):
            states = np.concatenate((states, order[_ranges(rest_lo[gone], rest_hi[gone])]))
            ids = np.concatenate((ids, np.repeat(new, rest_hi[gone] - rest_lo[gone])))
        if not len(states):
            return
        previous = block[states]
        block[states] = ids
        yield block, states, previous

        # the next round re-ranks the states with a successor that moved
        led = arcs[_ranges(into[states], into[states + 1])] % n
        slot[led] = np.arange(len(led))
        touched = led[slot[led] == np.arange(len(led))]
        if not len(touched):
            return
        rank, _ = _signature_ranks(block[touched], num, num, block[table[touched]])
        sort = np.argsort(rank)
        touched, rank = touched[sort], rank[sort]
