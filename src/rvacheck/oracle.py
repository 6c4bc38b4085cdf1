"""Independent ground truth: product-graph equivalence, bounded saturation
search, witness expansion, and corpus generators.

The searches here know nothing about minimization or component fixing.
They look for lassos in products of automaton runs: two runs on the
same word for padding discrepancies, two runs on words differing in one
component with dual tails for rounding discrepancies, one run against a
small separator monitor for shape violations, and two runs from two
states for :func:`distinguishing_lasso`.  Every "no" answer is returned
as a concrete word or pair of words and re-verified against the plain
acceptance semantics before being reported.

One engine, :func:`_bad_lasso`, serves all four searches.  A product
node is the integer ``(x*n_b + y)*C + c``: the states ``x`` and ``y``
of the two runs (the shape search pairs its run with a one-state run
that never accepts) and the state ``c`` of a control automaton.  Each
search builds its control as a move table, ``moves[c] = [(i, j, c2),
...]`` in search order: the first run reads letter ``i``, the second
letter ``j``, and control goes to ``c2``.  The control is the separator
monitor (separators read, digits read mod ``d``), plus the phase before
or after the flip in the dual-tail search, and each control state has
one flag: a cycle there reads valid encodings (for the shape search,
invalid ones).  A node is bad when its control flag holds and its two
states differ in acceptance.

A lasso refutes the property exactly when its cycle lies in a bad
recurrent component of the product, and badness is constant on every
product component.  Along a product cycle each run stays inside one
component of its automaton, whose states all share one acceptance when
the automaton is weak; and neither the monitor's separator count nor
the dual phase ever decreases, so the control flag does not change
either.  Tarjan's algorithm therefore runs only on the subgraph the bad
nodes induce, and acceptance is read off states, which needs the
reachable part of each automaton to be weak: :func:`saturation_oracle`
checks that first, on the trimmed input.  The breadth-first search that
numbers the nodes keeps each node's parent and move, which gives a
shortest path to the first bad recurrent node in discovery order.

That search does not expand a node once its two runs can no longer
disagree: every state either run can still reach has one acceptance,
the same for both.  A state's fate (:func:`_fates`) says whether an
accepting and whether a rejecting state is reachable from it, on every
letter while the control lets the run read the separator, else on the
digits.  No result changes: a bad node is never skipped, since its two
acceptances differ; the skipped nodes are closed under successors, so
no kept node is found through one; so discovery order, parents,
breadth-first levels (hence ``depth_cap``) and the first bad recurrent
node stay the same.  :func:`saturation_oracle` computes the fates once
for its searches; a search called alone computes them itself.

Witness expansion is not part of that independent ground truth.  Every
lasso inside a pair, and the one behind a complement prefix, is read
off the refinement of one automaton
(:func:`rvacheck.minimize.distinguishing_word`), so expansion costs
about as much as the check that produced the witness.  Zero-loop and
sign-absorption pairs compare the states of the minimal form reached
with and without the padding; dual-tail and complement root pairs
compare the ``b-1`` and ``0`` fixings of one component in the union the
check kept (:func:`rvacheck.fixing.dual_fixings`); a complement prefix's
state is compared with a dead sink appended to the minimal form.  Only
a not-shape word comes from a product search.  The searches here read
nothing a check kept, and :func:`distinguishing_lasso` stays as the
product-graph reference for :func:`distinguishing_word`.
"""

from __future__ import annotations

import random

import numpy as np

from .alphabet import AlphabetSpec, BLANK, PARALLEL, SEQUENTIAL
from .aut_io import MAX_TABLE_CELLS, check_table_budget
from .automaton import Automaton, sccs, strong_components, trim_accessible
from .fixing import dual_fixings
from .minimize import _shortest_path, distinguishing_word
from .record import Record
from .verdict import NotWeak, Verdict
from .words import (
    LassoWord,
    SignDigitError,
    format_lasso,
    lasso_to_pair,
    value_real,
)


# ---------------------------------------------------------------------------
# the product engine


def _fates(aut: Automaton, letters):
    """Two bits per state: 1 if an accepting state is reachable on
    ``letters`` (the empty word counts), 2 if a rejecting one is."""
    pred = [[] for _ in range(aut.n)]
    for q, row in enumerate(aut.delta):
        for i in letters:
            pred[row[i]].append(q)
    fate = [1 if q in aut.accepting else 2 for q in range(aut.n)]
    for bit in (1, 2):  # until the round for bit 2, only rejecting states have it
        todo = [q for q, f in enumerate(fate) if f & bit]
        for q in todo:  # grows while it is read
            for p in pred[q]:
                if not fate[p] & bit:
                    fate[p] |= bit
                    todo.append(p)
    return fate


def _every_and_digits(aut: Automaton):
    """The fates of ``aut`` on every letter and on the digit letters alone."""
    width = aut.alphabet.num_letters
    return _fates(aut, range(width)), _fates(aut, range(width - 1))


def _control_fates(a: Automaton, b: Automaton, moves, fates):
    """Per run and control state, the run's every-letter fates while it
    can still read the separator, else its digit fates.  ``fates`` is
    :func:`_every_and_digits` of ``a``, or None; ``b`` shares it if ``b is a``."""
    star = a.alphabet.star_index
    cols = [tuple(zip(*row)) or ((), (), ()) for row in moves]
    reads = [(star in i) | (star in j) << 1 for i, j, _ in cols]  # bit 1: run a, 2: run b
    succ = [set(after) for _, _, after in cols]
    old = None
    while reads != old:  # a control state reads what its successors read
        old = reads[:]
        for c, after in enumerate(succ):
            for c2 in after:
                reads[c] |= reads[c2]
    pairs = [fates or _every_and_digits(a)]
    pairs.append(pairs[0] if b is a else _every_and_digits(b))
    return [[every if r >> side & 1 else digits for r in reads]
            for side, (every, digits) in enumerate(pairs)]


def _bad_lasso(a: Automaton, b: Automaton, start, moves, bad, depth_cap=None, fates=None):
    """The moves of a shortest path to the first bad recurrent node in
    discovery order and of a shortest cycle back to it; None when no
    bad component is recurrent.

    ``start`` is the node ``(x, y, c)``, and ``moves`` and ``bad`` are
    the control's move table and flags, ``fates`` as in
    :func:`_control_fates`.  Only nodes at breadth-first depth below
    ``depth_cap`` are searched, and no node ``(x, y, c)`` with
    ``fate_a[c][x] | fate_b[c][y] != 3`` is expanded: its two runs can
    no longer disagree, and results stay the same (see the module
    docstring).
    """
    fate_a, fate_b = _control_fates(a, b, moves, fates)
    n_b, size = b.n, len(moves)
    delta_a, delta_b = a.delta, b.delta
    acc_a, acc_b = a.accepting, b.accepting
    x, y, c = start
    code = (x * n_b + y) * size + c
    ids = {code: 0}
    order = [code]
    parent = [0]
    via = [None]
    bad_codes = []
    depth, level_end = 0, 1
    for v, code in enumerate(order):
        if v == level_end:
            depth += 1
            level_end = len(order)
        if depth == depth_cap:
            break
        xy, c = divmod(code, size)
        x, y = divmod(xy, n_b)
        if fate_a[c][x] | fate_b[c][y] != 3:
            continue
        if bad[c] and (x in acc_a) != (y in acc_b):
            bad_codes.append(code)
        ra, rb = delta_a[x], delta_b[y]
        for move in moves[c]:
            t = (ra[move[0]] * n_b + rb[move[1]]) * size + move[2]
            if t not in ids:
                ids[t] = len(order)
                order.append(t)
                parent.append(v)
                via.append(move)
    if not bad_codes:
        return None

    dense = {code: k for k, code in enumerate(bad_codes)}  # in discovery order
    edges = []
    for code in bad_codes:
        xy, c = divmod(code, size)
        x, y = divmod(xy, n_b)
        ra, rb = delta_a[x], delta_b[y]
        row = []
        for move in moves[c]:
            k = dense.get((ra[move[0]] * n_b + rb[move[1]]) * size + move[2])
            if k is not None:
                row.append((move, k))
        edges.append(row)
    succ = [[k for _, k in row] for row in edges]
    scc_of, comps = strong_components(succ)
    recurrent = [len(comp) > 1 or comp[0] in succ[comp[0]] for comp in comps]
    entry = next((k for k in range(len(succ)) if recurrent[scc_of[k]]), None)
    if entry is None:
        return None

    prefix = []
    v = ids[bad_codes[entry]]
    while v:
        prefix.append(via[v])
        v = parent[v]
    home = scc_of[entry]
    head, last = _shortest_path(
        edges.__getitem__, entry, lambda k: scc_of[k] == home, lambda k: entry in succ[k]
    )
    return prefix[::-1], head + [next(move for move, k in edges[last] if k == entry)]


def _separator_monitor(spec: AlphabetSpec):
    """The separator monitor's successor of each state on each letter.

    State ``stars * d + k`` has read ``stars`` separators and ``k``
    digits mod ``d``, the digits per vector; it starts at 0.  State
    ``2d``, after a misaligned or second separator, means the word is no
    valid encoding any more.
    """
    d, star = spec.seq_dim, spec.star_index
    rows = []
    for c in range(2 * d + 1):
        stars, k = divmod(c, d)
        on_digit = stars * d + (k + 1) % d if stars < 2 else c
        on_star = d if c == 0 else 2 * d
        rows.append([on_star if i == star else on_digit for i in range(spec.num_letters)])
    return rows


def _letters(spec: AlphabetSpec, moves, side):
    return tuple(spec.letter_at(move[side]) for move in moves)


# ---------------------------------------------------------------------------
# state-language equivalence


def distinguishing_lasso(a: Automaton, q: int, b: Automaton, p: int):
    """A lasso accepted from exactly one of two states, or None.

    Two weak automata disagree from (q, p) exactly when some reachable
    pair sits on a product cycle whose two sides have different
    acceptance, so the search covers the product of the two automata.
    """
    if a.alphabet != b.alphabet:
        raise ValueError("states must share an alphabet")
    moves = [[(i, i, 0) for i in range(a.alphabet.num_letters)]]
    found = _bad_lasso(a, b, (q, p, 0), moves, [True])
    if found is None:
        return None
    u, v = found
    return _letters(a.alphabet, u, 0), _letters(a.alphabet, v, 0)


# ---------------------------------------------------------------------------
# the saturation oracle


class BadShapeWord(Record):
    """An accepted word whose separator pattern is not a valid encoding."""

    __slots__ = _fields = ("word", "alphabet")
    kind = "shape-violation"

    def to_dict(self):
        return {"kind": self.kind, "word": format_lasso(self.word, self.alphabet)}


class CounterexamplePair(Record):
    """Two encodings of the same vector with different acceptance.

    ``signed`` reads both words as sign-extended (b-complement)
    encodings, the semantics of the complement check.
    """

    __slots__ = _fields = ("accepted", "rejected", "alphabet", "signed")
    kind = "equal-value-pair"

    def __init__(self, accepted, rejected, alphabet, signed=False):
        super().__init__(accepted, rejected, alphabet, signed)

    def values(self):
        return value_real(lasso_to_pair(self.accepted), self.alphabet, self.signed)

    def verify(self, aut: Automaton):
        """Both words re-checked against plain acceptance and exact values.

        False when a word read sign-extended has no sign digit.
        """
        if not aut.accepts_lasso(self.accepted.prefix, self.accepted.period):
            return False
        if aut.accepts_lasso(self.rejected.prefix, self.rejected.period):
            return False
        try:
            va = self.values()
            vb = value_real(lasso_to_pair(self.rejected), self.alphabet, self.signed)
        except SignDigitError:
            return False
        return va == vb

    def to_dict(self):
        return {
            "kind": self.kind,
            "accepted": format_lasso(self.accepted, self.alphabet),
            "rejected": format_lasso(self.rejected, self.alphabet),
            "value": [str(v) for v in self.values()],
        }


def shape_violation_word(aut: Automaton, depth_cap=None, fates=None):
    """An accepted lasso whose separators do not form a valid encoding."""
    spec = aut.alphabet
    monitor = _separator_monitor(spec)
    moves = [[(i, 0, t) for i, t in enumerate(row)] for row in monitor]
    # a cycle whose monitor never rests in the single-separator state
    # repeats an invalid pattern (no separator yet, or too many)
    bad = [c // spec.seq_dim != 1 for c in range(len(monitor))]
    nowhere = Automaton(spec, 1, 0, (), [[0] * spec.num_letters])  # never accepts
    found = _bad_lasso(aut, nowhere, (aut.initial, 0, 0), moves, bad, depth_cap, fates)
    if found is None:
        return None
    u, v = found
    word = LassoWord(_letters(spec, u, 0), _letters(spec, v, 0))
    if not aut.accepts_lasso(word.prefix, word.period):
        raise RuntimeError("shape search produced a word the automaton rejects")
    return word


def pad_violation(aut: Automaton, depth_cap=None, fates=None):
    """A valid encoding whose zero-padded variant is classified differently."""
    spec = aut.alphabet
    d_seq = spec.seq_dim
    pad = (spec.zero_letter(),) * d_seq
    padded_start = aut.run_prefix(aut.initial, pad)
    if padded_start == aut.initial:
        return None
    monitor = _separator_monitor(spec)
    # a move into the invalid state would end the encoding: none is kept
    moves = [[(i, i, t) for i, t in enumerate(row) if t < 2 * d_seq] for row in monitor]
    bad = [c // d_seq == 1 for c in range(len(monitor))]
    found = _bad_lasso(aut, aut, (aut.initial, padded_start, 0), moves, bad, depth_cap, fates)
    if found is None:
        return None
    u, v = found
    plain = LassoWord(_letters(spec, u, 0), _letters(spec, v, 0))
    padded = LassoWord(pad + plain.prefix, plain.period)
    if aut.accepts_lasso(plain.prefix, plain.period):
        return CounterexamplePair(plain, padded, spec)
    return CounterexamplePair(padded, plain, spec)


def _dual_pairs(spec: AlphabetSpec, f: int):
    """Letter-pair tables for the one-component dual-tail product.

    Returns (flip, forced): ``flip`` maps a letter index to the index of
    the letter with component ``f`` incremented (when possible), and
    ``forced`` lists the (hi, lo) index pairs read after the flip, where
    the hi side carries ``b-1`` and the lo side ``0`` in component ``f``
    and the remaining components agree.
    """
    top = spec.base - 1
    digit, weight = spec.digits(f)
    below = np.flatnonzero(digit < top)
    at_top = np.flatnonzero(digit == top)
    flip = dict(zip(below.tolist(), (below + weight).tolist()))
    forced = list(zip(at_top.tolist(), (at_top - top * weight).tolist()))
    return flip, forced


def dual_violation(aut: Automaton, f: int, depth_cap=None, fates=None):
    """An accepted encoding whose dual tail flip at component ``f`` is rejected.

    Tracks two runs: both read the same letters until the flip, where
    the second run reads the component-``f``-incremented letter; from
    then on the first run reads ``b-1`` and the second ``0`` in that
    component.  By the dual-encoding identity the two words always have
    equal value, so any acceptance difference on a valid pair refutes
    saturation.
    """
    spec = aut.alphabet
    d_seq, star = spec.seq_dim, spec.star_index
    flip, forced = _dual_pairs(spec, f)
    sequential = spec.kind == SEQUENTIAL
    monitor = _separator_monitor(spec)
    flipped = len(monitor)  # control state: phase * flipped + monitor state
    moves = []
    for phase in (0, 1):
        for c, after in enumerate(monitor):
            at_f = not sequential or c % d_seq == f  # this digit is component f's
            row = []
            for i, t in enumerate(after):
                if t == 2 * d_seq:
                    continue  # the word would stop being a valid encoding
                if i == star:
                    row.append((i, i, phase * flipped + t))
                elif phase == 0:
                    row.append((i, i, t))
                    if i in flip and at_f:
                        row.append((i, flip[i], flipped + t))
                elif not at_f:
                    row.append((i, i, flipped + t))
            if phase == 1 and at_f:
                # after[0]: the monitor's successor on any digit
                row += [(i, j, flipped + after[0]) for i, j in forced]
            moves.append(row)
    bad = [phase == 1 and c // d_seq == 1 for phase in (0, 1) for c in range(flipped)]
    found = _bad_lasso(aut, aut, (aut.initial, aut.initial, 0), moves, bad, depth_cap, fates)
    if found is None:
        return None
    u, v = found
    hi = LassoWord(_letters(spec, u, 0), _letters(spec, v, 0))
    lo = LassoWord(_letters(spec, u, 1), _letters(spec, v, 1))
    if aut.accepts_lasso(hi.prefix, hi.period):
        return CounterexamplePair(hi, lo, spec)
    return CounterexamplePair(lo, hi, spec)


def saturation_oracle(aut: Automaton, sample_bound=None) -> Verdict:
    """Word-level saturation search with verified counterexamples.

    Searches, in a fixed deterministic order, for an accepted word with
    an invalid separator pattern, a zero-padding discrepancy, and a
    dual-tail discrepancy per component.  A ``sample_bound`` of ``k >= 0``
    searches only the product nodes at breadth-first depth below ``k``;
    with the default (None) the search is exhaustive over the product
    graphs, so a "yes" means no counterexample of any prefix length
    exists in these families.  Weakness, which the searches rely on, is
    decided on the reachable part, as the checks decide it.
    """
    if sample_bound is not None and sample_bound < 0:
        raise ValueError(f"the search bound must not be negative, got {sample_bound}")
    spec = aut.alphabet
    if spec.fixed:
        raise ValueError("the saturation oracle reads unfixed alphabets")
    aut, _ = trim_accessible(aut)
    if not sccs(aut).weak:
        return Verdict(False, NotWeak())

    fates = _every_and_digits(aut)
    word = shape_violation_word(aut, sample_bound, fates)
    if word is not None:
        return Verdict(False, BadShapeWord(word, spec))

    pair = pad_violation(aut, sample_bound, fates)
    if pair is None:
        dim = spec.dim
        for f in range(dim):
            pair = dual_violation(aut, f, sample_bound, fates)
            if pair is not None:
                break
    if pair is not None:
        if not pair.verify(aut):
            raise AssertionError("oracle produced an unverifiable counterexample")
        return Verdict(False, pair)
    detail = (
        "no counterexample"
        if sample_bound is None
        else f"no counterexample among product nodes at search depth below {sample_bound}"
    )
    return Verdict(True, detail=detail)


# ---------------------------------------------------------------------------
# expansion of structural witnesses into words


def _fill_blanks(word, z):
    """Replace the placeholder ``#`` of a fixed-alphabet word by the digit ``z``."""
    def fill(letter):
        if isinstance(letter, tuple):
            return tuple(z if sym == BLANK else sym for sym in letter)
        return z if letter == BLANK else letter

    return tuple(fill(a) for a in word)


def _verified_pair(m: Automaton, one: LassoWord, other: LassoWord, signed: bool):
    """The two words as an accepted/rejected pair, or None unless it verifies."""
    if not m.accepts_lasso(one.prefix, one.period):
        one, other = other, one
    pair = CounterexamplePair(one, other, m.alphabet, signed)
    return pair if pair.verify(m) else None


def _padding_pair(m: Automaton, head, pad, signed):
    """``head u v^w`` against ``head pad u v^w``, for a lasso ``u v^w``
    accepted after exactly one of ``head`` and ``head pad``."""
    x = m.run_prefix(m.initial, head)
    lasso = distinguishing_word(m, x, m.run_prefix(x, pad))
    if lasso is None:
        return None
    u, v = lasso
    return _verified_pair(m, LassoWord(head + u, v), LassoWord(head + pad + u, v), signed)


def _dual_pair(m: Automaton, f, hi_head, lo_head, signed):
    """``hi_head`` and ``lo_head`` continued by one lasso, with component
    ``f`` filled by ``b-1`` after the first and by ``0`` after the second,
    accepted after exactly one of them."""
    b = m.alphabet.base
    union, offset, stride = dual_fixings(m, f)
    x = m.run_prefix(m.initial, hi_head) * stride
    y = offset + m.run_prefix(m.initial, lo_head) * stride
    lasso = distinguishing_word(union, x, y)
    if lasso is None:
        return None
    u, v = lasso
    hi_word = LassoWord(hi_head + _fill_blanks(u, b - 1), _fill_blanks(v, b - 1))
    lo_word = LassoWord(lo_head + _fill_blanks(u, 0), _fill_blanks(v, 0))
    return _verified_pair(m, hi_word, lo_word, signed)


def expand_witness(verdict: Verdict, mode: str):
    """Turn a structural "no" witness into a concrete word-level one.

    ``mode`` names the check that produced the verdict (parallel,
    sequential, dim1 or complement).  Returns a ``CounterexamplePair``,
    a ``BadShapeWord``, or None when the witness has no word form (a
    non-weak automaton) or its pair does not verify.  Complement pairs
    carry the sign-extended semantics.

    Every lasso inside a pair or behind a complement prefix comes from
    :func:`distinguishing_word`, which reads it off the refinement of
    one automaton: the cost is linear-size (rounds times states), not
    the size of a product, and the lasso is short but not always the
    shortest.  A zero-loop pair tells the states of ``m`` after a head
    with and without a zero (or sign) padding apart; a dual-tail pair
    tells the two fixings of one component apart in the union the check
    kept on ``m``.  Only a not-shape word is searched in a product, of
    ``m`` and the separator monitor.  Every pair is re-checked by
    acceptance and exact value before it is returned.
    """
    if verdict.answer or verdict.minimized is None:
        return None
    m = verdict.minimized
    spec = m.alphabet
    w = verdict.witness
    kind = w.kind
    signed = mode == "complement"

    if kind == "not-shape":
        word = shape_violation_word(m)
        return BadShapeWord(word, spec) if word is not None else None

    if kind == "zero-loop-broken" and not signed:
        return _padding_pair(m, (), (spec.zero_letter(),) * spec.seq_dim, signed)

    if kind == "zero-loop-broken":  # complement: sign absorption failed
        signs = np.flatnonzero(spec.sign_mask())
        once = m.table[m.initial, signs]
        broken = np.flatnonzero(m.table[once, signs] != once)
        if not broken.size:
            return None
        letter = spec.letter_at(int(signs[broken[0]]))
        return _padding_pair(m, (letter,), (letter,), signed)

    if kind == "complement-prefix":
        sink = np.full((1, spec.num_letters), m.n)  # a state of empty language
        padded = Automaton(spec, m.n + 1, m.initial, m.accepting, np.vstack((m.table, sink)))
        lasso = distinguishing_word(padded, m.step(m.initial, w.letter), m.n)
        if lasso is None:
            return None
        u, v = lasso
        return BadShapeWord(LassoWord((w.letter,) + u, v), spec)

    if kind == "complement-initial-language":
        return _dual_pair(m, w.component, (), (), signed)

    if kind == "pair-mismatch":
        path, _ = _shortest_path(
            lambda s: enumerate(m.delta[s]), m.initial, lambda s: True, lambda s: s == w.state
        )
        access = tuple(map(spec.letter_at, path))
        return _dual_pair(
            m, w.component, access + (w.letter,), access + (w.bumped_letter,), signed
        )

    return None


# ---------------------------------------------------------------------------
# corpus generators


def parallelize_automaton(aut: Automaton) -> Automaton:
    """Read a sequential automaton one whole vector letter at a time.

    Same state set; a vector letter follows the chain of its component
    digits, the separator is unchanged.  Acceptance of encodings is
    preserved for weak automata since the sampled run settles in the
    same component as the original run.
    """
    spec = aut.alphabet
    if spec.kind != SEQUENTIAL or spec.fixed:
        raise ValueError("can only parallelize an unfixed sequential automaton")
    new_spec = AlphabetSpec(spec.base, spec.dim, PARALLEL)
    table = aut.table
    walk = np.arange(aut.n)[:, None]
    for f in range(spec.dim):  # read component f of every vector letter
        walk = table[walk, new_spec.digits(f)[0]]
    walk = np.column_stack([walk, table[:, spec.star_index]])
    return Automaton(new_spec, aut.n, aut.initial, aut.accepting, walk)


def _known_digit_loops(spec: AlphabetSpec, letters):
    """Digit classes ``0..k-1`` before the separator (``k`` digits per
    vector) and the accepting tail after it, all reading only
    ``letters``; the rest leads to the dead state."""
    k = spec.seq_dim
    tail, dead = k, k + 1
    table = np.full((k + 2, spec.num_letters), dead, dtype=np.int64)
    table[:k, letters] = (np.arange(1, k + 1) % k)[:, None]
    table[0, -1] = tail
    table[tail, letters] = tail
    return Automaton(spec, k + 2, 0, frozenset({tail}), table)


def _known_unit_box(spec: AlphabetSpec):
    """Componentwise values in [0, 1], with both encodings of 1 accepted.

    A state is a subset mask ``S`` of the components: before the
    separator, those that read their one leading 1 (a component holding
    1 cannot extend); after it, those pinned to zero tails.  A parallel
    state is ``S`` before and ``2^d + S`` after the separator.  A
    sequential state also carries the digit class ``i``: ``i*2^d + S``
    before and ``(d+i)*2^d + S`` after.  The last state is dead.
    """
    b, d = spec.base, spec.dim
    subsets = 1 << d
    phase = subsets * spec.seq_dim  # states before the separator
    dead = 2 * phase
    table = np.full((dead + 1, spec.num_letters), dead, dtype=np.int64)
    pre, post = table[:phase], table[phase:dead]
    codes = np.arange(phase)
    if spec.is_parallel:
        nonzero = np.zeros(spec.num_letters - 1, dtype=np.int64)
        small = np.ones(spec.num_letters - 1, dtype=bool)
        for f in range(d):
            digit = spec.digits(f)[0]
            nonzero |= (digit != 0).astype(np.int64) << f
            small &= digit <= 1
        pre[0, :-1] = np.where(small, nonzero, dead)
        pre[:, -1] = phase + codes
        post[:, :-1] = np.where(codes[:, None] & nonzero == 0, phase + codes[:, None], dead)
    else:
        i, mask = codes >> d, codes & (subsets - 1)
        nxt = (i + 1) % d << d | mask  # next class, same subset
        holds = (mask >> i & 1).astype(bool)  # component i is in the subset
        pre[:, 0] = np.where(holds, dead, nxt)
        pre[:, 1] = np.where(holds, dead, nxt | 1 << i)
        pre[:subsets, b] = phase + codes[:subsets]  # separator at class 0
        post[:, 0] = phase + nxt
        post[~holds, 1:b] = phase + nxt[~holds, None]
    return Automaton(spec, dead + 1, 0, range(phase, dead), table)


def _known_complement_full(spec: AlphabetSpec):
    root, top, tail, dead = 0, 1, 2, 3
    table = np.full((4, spec.num_letters), dead, dtype=np.int64)
    table[root, np.flatnonzero(spec.sign_mask())] = top
    table[top, :-1] = top
    table[top, -1] = tail
    table[tail, :-1] = tail
    return Automaton(spec, 4, root, frozenset({tail}), table)


def gen_known_rva(kind, base, dim, encoding=PARALLEL) -> Automaton:
    """Hand-built saturated automata used as positive fixtures.

    ``full-space`` accepts every encoding of every vector, ``zero-only``
    exactly the encodings of the origin, ``unit-box`` the encodings of
    [0,1]^d, and ``complement-full`` every sign-extended encoding (it is
    parallel-only).  Raises ValueError before building a family whose
    table would exceed ``MAX_TABLE_CELLS``.
    """
    spec = AlphabetSpec(base, dim, encoding)
    # before and after the separator, at most one state per digit
    # position (unit-box: per position and subset of components), plus 2
    subsets = 1 << min(dim, MAX_TABLE_CELLS.bit_length()) if kind == "unit-box" else 1
    check_table_budget(spec, 2 * spec.seq_dim * subsets + 2)
    if kind == "full-space":
        return _known_digit_loops(spec, slice(-1))  # every digit letter
    if kind == "zero-only":
        return _known_digit_loops(spec, [0])  # the zero letter has index 0
    if kind == "unit-box":
        return _known_unit_box(spec)
    if kind == "complement-full":
        if encoding != PARALLEL:
            raise ValueError("the sign-extended family is parallel-only")
        return _known_complement_full(spec)
    raise ValueError(f"unknown family {kind!r}")


def gen_random_weak(n, base, dim, encoding=PARALLEL, seed=0) -> Automaton:
    """Seeded random total automaton, acceptance assigned per component.

    Identical seeds give identical automata; weakness holds by
    construction since whole components are flagged accepting.
    """
    spec = AlphabetSpec(base, dim, encoding)
    rng = random.Random(f"{seed}:{n}:{base}:{dim}:{encoding}")
    width = spec.num_letters
    delta = [[rng.randrange(n) for _ in range(width)] for _ in range(n)]
    aut = Automaton(spec, n, 0, frozenset(), delta)
    info = sccs(aut)
    accepting = set()
    for comp in info.components:
        if rng.random() < 0.5:
            accepting.update(comp)
    return Automaton(spec, n, 0, frozenset(accepting), delta)


def gen_random_sequential_shaped(n, base, dim, seed=0) -> Automaton:
    """Random weak sequential automaton that only accepts valid encodings.

    States are layered by digit class with a separator region behind
    them, so every accepted word has exactly one separator on a
    component boundary.  Used for cross-encoding comparisons, where
    misalignment-only defects would be invisible after parallelization.
    """
    spec = AlphabetSpec(base, dim, SEQUENTIAL)
    rng = random.Random(f"{seed}:{n}:{base}:{dim}:shaped")
    per_class = max(1, (n - 2) // (2 * dim))
    fra = max(1, n - dim * per_class - 1)

    def mod_state(i, k):
        return i * per_class + k

    fra_off = dim * per_class
    dead = fra_off + fra
    total = dead + 1
    width = spec.num_letters
    delta = []
    for i in range(dim):
        for _ in range(per_class):
            row = [
                mod_state((i + 1) % dim, rng.randrange(per_class))
                for _ in range(base)
            ]
            if i == 0 and rng.random() < 0.85:
                row.append(fra_off + rng.randrange(fra))
            else:
                row.append(dead)
            delta.append(row)
    for _ in range(fra):
        row = [fra_off + rng.randrange(fra) for _ in range(base)]
        row.append(dead)
        delta.append(row)
    delta.append([dead] * width)
    aut = Automaton(spec, total, 0, frozenset(), delta)
    info = sccs(aut)
    accepting = set()
    for comp in info.components:
        if all(fra_off <= q < dead for q in comp) and rng.random() < 0.6:
            accepting.update(comp)
    return Automaton(spec, total, 0, frozenset(accepting), delta)


def gen_residue_rva(n_states, base=2) -> Automaton:
    """Saturated residue automaton with an (almost) incompressible core.

    Accepts the encodings of ``{x : floor(x) mod M == 0}`` where ``M``
    is the largest odd number fitting the state budget.  A residue
    counter reads the natural part; behind the separator, an all-high
    tail from residue 0 must stay rejected (it would round the value up)
    while one from residue M-1 must be accepted.  With M odd the M
    counter states are pairwise inequivalent, so minimization keeps the
    automaton at full size.  Meant for small adversarial fixtures: the
    single-digit orbits of its component fixings are one long cycle, so
    refining their languages takes refinement depth close to M.
    """
    if n_states < 7:
        raise ValueError("need at least 7 states")
    m = n_states - 4
    spare = 0
    if m % 2 == 0:  # odd modulus keeps the digit action invertible
        m -= 1
        spare = 1
    spec = AlphabetSpec(base, 1, PARALLEL)
    nine_zero = m + spare      # read "= 0 mod M", fractional all high so far
    nine_last = nine_zero + 1  # read "= M-1 mod M", fractional all high so far
    acc_all = nine_zero + 2
    dead = nine_zero + 3
    width = spec.num_letters
    delta = []
    for r in range(m):
        row = [(r * base + a) % m for a in range(base)]
        if r == 0:
            row.append(nine_zero)
        elif r == m - 1:
            row.append(nine_last)
        else:
            row.append(dead)
        delta.append(row)
    if spare:  # one filler state so the requested size is exact
        delta.append([0] * base + [dead])
    delta.append([acc_all] * (base - 1) + [nine_zero, dead])
    delta.append([dead] * (base - 1) + [nine_last, dead])
    delta.append([acc_all] * base + [dead])
    delta.append([dead] * width)
    accepting = frozenset({nine_last, acc_all})
    return Automaton(spec, n_states, 0, accepting, delta)


def gen_interval_rva(n_states, base=2) -> Automaton:
    """Saturated interval automaton for [0, c] with a capped value counter.

    The value states largely collapse under minimization (capped sums
    saturate quickly), so this family exercises the pipeline on heavily
    reducible input; see :func:`gen_residue_rva` for the incompressible
    counterpart.
    """
    if n_states < 5:
        raise ValueError("need at least 5 states")
    c = n_states - 4
    spec = AlphabetSpec(base, 1, PARALLEL)
    zu = c + 1
    z0 = c + 2
    dead = c + 3
    width = spec.num_letters
    delta = []
    for v in range(c + 1):
        row = []
        for a in range(base):
            w = v * base + a
            row.append(w if w <= c else dead)
        row.append(zu if v < c else z0)
        delta.append(row)
    delta.append([zu] * base + [dead])
    delta.append([z0] + [dead] * (base - 1) + [dead])
    delta.append([dead] * width)
    return Automaton(spec, n_states, 0, frozenset({zu, z0}), delta)

