"""Independent ground truth: product-graph equivalence, bounded saturation
search, witness expansion, and corpus generators.

The searches here know nothing about minimization or component fixing.
They work on product graphs of automaton runs: two runs on the same word
for padding discrepancies, two runs on words differing in one component
with dual tails for rounding discrepancies, and one run against a small
separator monitor for shape violations.  Every "no" answer is returned
as a concrete word or pair of words and re-verified against the plain
acceptance semantics before being reported.

Witness expansion is not part of that independent ground truth.  Every
lasso inside a pair, and the one behind a complement prefix, is read
off the minimizer's refinement
(:func:`rvacheck.minimize.distinguishing_word`), so expansion costs
about as much as the check that produced the witness: zero-loop and
sign-absorption pairs compare the states reached with and without the
padding, dual-tail pairs of both encodings and complement root pairs
compare the ``b-1`` and ``0`` fixings of one component, and a
complement prefix is compared with an empty automaton.  Only a
not-shape word comes from a product search, of the minimal form and the
separator monitor (at most ``3d`` states).  :func:`distinguishing_lasso`
stays as the product-graph reference for :func:`distinguishing_word`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .alphabet import AlphabetSpec, BLANK, PARALLEL, SEQUENTIAL
from .aut_io import MAX_TABLE_CELLS, check_table_budget
from .automaton import Automaton, is_weak, sccs, strong_components, trim_accessible
from .fixing import dual_fixings
from .minimize import _shortest_path, distinguishing_word
from .verdict import NotWeak, Verdict
from .words import (
    LassoWord,
    PairWord,
    SignDigitError,
    alternative_encodings,
    format_lasso,
    lasso_to_pair,
    pair_to_lasso,
    value_real,
)


# ---------------------------------------------------------------------------
# generic product-graph machinery


def _explore(start, succ_fn, depth_cap=None):
    """BFS closure of a labelled successor relation.

    Returns discovery-ordered nodes and per-node labelled edge lists
    (successors as discovery indices).  ``depth_cap`` stops expanding
    nodes that sit deeper than the cap (their edge lists stay empty).
    """
    ids = {start: 0}
    order = [start]
    depth = [0]
    edges = []
    head = 0
    while head < len(order):
        node = order[head]
        d = depth[head]
        head += 1
        row = []
        if depth_cap is None or d < depth_cap:
            for label, t in succ_fn(node):
                tid = ids.get(t)
                if tid is None:
                    tid = len(order)
                    ids[t] = tid
                    order.append(t)
                    depth.append(d + 1)
                row.append((label, tid))
        edges.append(row)
    return order, edges


def _find_bad_lasso(order, edges, is_bad_component):
    """Shortest path to a repeating bad component, plus a cycle inside it.

    Returns ``(prefix_labels, cycle_labels)`` or None.  Deterministic:
    BFS in discovery order, first qualifying component wins.
    """
    succ = [[t for _, t in row] for row in edges]
    scc_of, comps = strong_components(succ)
    bad = set()
    for cid, comp in enumerate(comps):
        recurrent = len(comp) > 1 or comp[0] in succ[comp[0]]
        if recurrent and is_bad_component(order, comp):
            bad.add(cid)
    if not bad:
        return None

    edges_of = edges.__getitem__
    prefix, entry = _shortest_path(edges_of, 0, lambda t: True, lambda v: scc_of[v] in bad)
    home = scc_of[entry]
    head, last = _shortest_path(
        edges_of, entry, lambda t: scc_of[t] == home, lambda v: entry in succ[v]
    )
    return prefix, head + [next(label for label, t in edges[last] if t == entry)]


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
    width = a.alphabet.num_letters
    info_a = sccs(a)
    info_b = sccs(b)
    delta_a, delta_b = a.delta, b.delta

    def succ(node):
        x, y = node
        return [
            (i, (delta_a[x][i], delta_b[y][i])) for i in range(width)
        ]

    def bad(order, comp):
        x, y = order[comp[0]]
        return info_a.accepting[info_a.scc_of[x]] != info_b.accepting[info_b.scc_of[y]]

    order, edges = _explore((q, p), succ)
    found = _find_bad_lasso(order, edges, bad)
    if found is None:
        return None
    u, v = found
    letters = [a.alphabet.letter_at(i) for i in range(width)]
    return (
        tuple(letters[i] for i in u),
        tuple(letters[i] for i in v),
    )


# ---------------------------------------------------------------------------
# the saturation oracle


@dataclass(frozen=True)
class BadShapeWord:
    """An accepted word whose separator pattern is not a valid encoding."""

    word: LassoWord
    alphabet: AlphabetSpec
    kind = "shape-violation"

    def to_dict(self):
        return {"kind": self.kind, "word": format_lasso(self.word, self.alphabet)}


@dataclass(frozen=True)
class CounterexamplePair:
    """Two encodings of the same vector with different acceptance.

    ``signed`` reads both words as sign-extended (b-complement)
    encodings, the semantics of the complement check.
    """

    accepted: LassoWord
    rejected: LassoWord
    alphabet: AlphabetSpec
    signed: bool = False
    kind = "equal-value-pair"

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


def _monitor_start():
    return (0, 0)  # (separators seen: 0/1/2, digit count mod d_seq)


def _monitor_step(state, is_star, d_seq):
    stars, cls = state
    if is_star:
        if stars == 0 and cls == 0:
            return (1, 0)
        return (2, 0)  # misaligned or repeated separator: invalid for good
    if stars >= 2:
        return (2, 0)
    return (stars, (cls + 1) % d_seq)


def shape_violation_word(aut: Automaton, depth_cap=None):
    """An accepted lasso whose separators do not form a valid encoding."""
    spec = aut.alphabet
    d_seq = spec.seq_dim
    width = spec.num_letters
    star = spec.star_index
    info = sccs(aut)
    delta = aut.delta

    def succ(node):
        q, mon = node
        out = []
        for i in range(width):
            out.append((i, (delta[q][i], _monitor_step(mon, i == star, d_seq))))
        return out

    def bad(order, comp):
        q, mon = order[comp[0]]
        if not info.accepting[info.scc_of[q]]:
            return False
        # a cycle whose monitor never rests in the single-separator state
        # repeats an invalid pattern (no separator yet, or too many)
        return mon[0] != 1

    order, edges = _explore((aut.initial, _monitor_start()), succ, depth_cap)
    found = _find_bad_lasso(order, edges, bad)
    if found is None:
        return None
    u, v = found
    letters = [spec.letter_at(i) for i in range(width)]
    word = LassoWord(
        tuple(letters[i] for i in u), tuple(letters[i] for i in v)
    )
    if not aut.accepts_lasso(word.prefix, word.period):
        raise RuntimeError("shape search produced a word the automaton rejects")
    return word


def pad_violation(aut: Automaton, depth_cap=None):
    """A valid encoding whose zero-padded variant is classified differently."""
    spec = aut.alphabet
    d_seq = spec.seq_dim
    width = spec.num_letters
    star = spec.star_index
    info = sccs(aut)
    delta = aut.delta
    pad = (spec.zero_letter(),) * d_seq
    padded_start = aut.run_prefix(aut.initial, pad)
    if padded_start == aut.initial:
        return None

    def succ(node):
        x, y, mon = node
        out = []
        for i in range(width):
            nmon = _monitor_step(mon, i == star, d_seq)
            if nmon[0] == 2:
                continue  # word would stop being a valid encoding
            out.append((i, (delta[x][i], delta[y][i], nmon)))
        return out

    def bad(order, comp):
        x, y, mon = order[comp[0]]
        if mon[0] != 1:
            return False
        ax = info.accepting[info.scc_of[x]]
        ay = info.accepting[info.scc_of[y]]
        return ax != ay

    order, edges = _explore((aut.initial, padded_start, _monitor_start()), succ, depth_cap)
    found = _find_bad_lasso(order, edges, bad)
    if found is None:
        return None
    u, v = found
    letters = [spec.letter_at(i) for i in range(width)]
    plain = LassoWord(tuple(letters[i] for i in u), tuple(letters[i] for i in v))
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
    b = spec.base
    flip = {}
    forced = []
    if spec.kind == PARALLEL:
        for letter in spec.digit_letters():
            li = spec.letter_index(letter)
            if letter[f] < b - 1:
                bumped = letter[:f] + (letter[f] + 1,) + letter[f + 1 :]
                flip[li] = spec.letter_index(bumped)
            if letter[f] == b - 1:
                low = letter[:f] + (0,) + letter[f + 1 :]
                forced.append((li, spec.letter_index(low)))
    else:
        for a in range(b - 1):
            flip[a] = a + 1
        forced.append((b - 1, 0))
    return flip, forced


def dual_violation(aut: Automaton, f: int, depth_cap=None):
    """An accepted encoding whose dual tail flip at component ``f`` is rejected.

    Tracks two runs: both read the same letters until the flip, where
    the second run reads the component-``f``-incremented letter; from
    then on the first run reads ``b-1`` and the second ``0`` in that
    component.  By the dual-encoding identity the two words always have
    equal value, so any acceptance difference on a valid pair refutes
    saturation.
    """
    spec = aut.alphabet
    d_seq = spec.seq_dim
    width = spec.num_letters
    star = spec.star_index
    info = sccs(aut)
    flip, forced = _dual_pairs(spec, f)
    sequential = spec.kind == SEQUENTIAL
    delta = aut.delta

    def succ(node):
        x, y, phase, mon = node
        out = []
        for i in range(width):
            nmon = _monitor_step(mon, i == star, d_seq)
            if nmon[0] == 2:
                continue
            if i == star:
                out.append(((i, i), (delta[x][star], delta[y][star], phase, nmon)))
                continue
            if phase == 0:
                out.append(((i, i), (delta[x][i], delta[y][i], 0, nmon)))
                j = flip.get(i)
                if j is not None and (not sequential or mon[1] == f):
                    out.append(((i, j), (delta[x][i], delta[y][j], 1, nmon)))
            else:
                if sequential and mon[1] != f:
                    out.append(((i, i), (delta[x][i], delta[y][i], 1, nmon)))
        if phase == 1:
            stars_seen, cls = mon
            for i, j in forced:
                if sequential and cls != f:
                    continue
                nmon = _monitor_step(mon, False, d_seq)
                out.append(((i, j), (delta[x][i], delta[y][j], 1, nmon)))
        return out

    def bad(order, comp):
        x, y, phase, mon = order[comp[0]]
        if phase != 1 or mon[0] != 1:
            return False
        ax = info.accepting[info.scc_of[x]]
        ay = info.accepting[info.scc_of[y]]
        return ax != ay

    start = (aut.initial, aut.initial, 0, _monitor_start())
    order, edges = _explore(start, succ, depth_cap)
    found = _find_bad_lasso(order, edges, bad)
    if found is None:
        return None
    u, v = found
    letters = [spec.letter_at(i) for i in range(width)]
    hi = LassoWord(
        tuple(letters[i] for i, _ in u), tuple(letters[i] for i, _ in v)
    )
    lo = LassoWord(
        tuple(letters[j] for _, j in u), tuple(letters[j] for _, j in v)
    )
    if aut.accepts_lasso(hi.prefix, hi.period):
        return CounterexamplePair(hi, lo, spec)
    return CounterexamplePair(lo, hi, spec)


def saturation_oracle(aut: Automaton, sample_bound=None) -> Verdict:
    """Word-level saturation search with verified counterexamples.

    Searches, in a fixed deterministic order, for an accepted word with
    an invalid separator pattern, a zero-padding discrepancy, and a
    dual-tail discrepancy per component.  ``sample_bound`` caps the
    length of counterexample prefixes considered; with the default
    (None) the search is exhaustive over the product graphs, so a "yes"
    means no counterexample of any prefix length exists in these
    families.
    """
    spec = aut.alphabet
    if spec.fixed:
        raise ValueError("the saturation oracle reads unfixed alphabets")
    if not is_weak(aut):
        return Verdict(False, NotWeak())
    aut, _ = trim_accessible(aut)

    word = shape_violation_word(aut, sample_bound)
    if word is not None:
        return Verdict(False, BadShapeWord(word, spec))

    pair = pad_violation(aut, sample_bound)
    if pair is None:
        dim = spec.dim
        for f in range(dim):
            pair = dual_violation(aut, f, sample_bound)
            if pair is not None:
                break
    if pair is not None:
        if not pair.verify(aut):
            raise AssertionError("oracle produced an unverifiable counterexample")
        return Verdict(False, pair)
    detail = (
        "no counterexample"
        if sample_bound is None
        else f"no counterexample with prefix length <= {sample_bound}"
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
    lasso = distinguishing_word(m, x, m, m.run_prefix(x, pad))
    if lasso is None:
        return None
    u, v = lasso
    return _verified_pair(m, LassoWord(head + u, v), LassoWord(head + pad + u, v), signed)


def _dual_pair(m: Automaton, f, hi_head, lo_head, signed):
    """``hi_head`` and ``lo_head`` continued by one lasso, with component
    ``f`` filled by ``b-1`` after the first and by ``0`` after the second,
    accepted after exactly one of them."""
    b = m.alphabet.base
    hi, lo = dual_fixings(m, f)
    x = hi.state(m.run_prefix(m.initial, hi_head))
    y = lo.state(m.run_prefix(m.initial, lo_head))
    lasso = distinguishing_word(hi.automaton, x, lo.automaton, y)
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
    the two automata involved: the cost is linear-size (rounds times
    states), not the size of their product, and the lasso is short but
    not always the shortest.  A zero-loop pair tells the states after a
    head with and without a zero (or sign) padding apart; a dual-tail
    pair tells the two fixings of one component apart.  Only a not-shape
    word is searched in a product, of ``m`` and the separator monitor.
    Every pair is re-checked by acceptance and exact value before it is
    returned.
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
        sign_digits = (0, spec.base - 1)
        for letter in spec.digit_letters():
            if any(sym not in sign_digits for sym in letter):
                continue
            once = m.step(m.initial, letter)
            if m.step(once, letter) != once:
                return _padding_pair(m, (letter,), (letter,), signed)
        return None

    if kind == "complement-prefix":
        empty = Automaton(spec, 1, 0, frozenset(), [[0] * spec.num_letters])
        lasso = distinguishing_word(m, m.step(m.initial, w.letter), empty, 0)
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
# literal enumeration (cross-validation of the product searches)


def enumerate_encoding_words(spec: AlphabetSpec, max_natural, max_period):
    """Every one-separator pair word within small natural/period bounds."""
    import itertools

    digits = list(spec.digit_letters())
    for nat_len in range(max_natural + 1):
        for per_len in range(1, max_period + 1):
            for nat in itertools.product(digits, repeat=nat_len):
                for per in itertools.product(digits, repeat=per_len):
                    yield PairWord(nat, per, frozenset({nat_len}))


def saturation_oracle_enumerative(aut: Automaton, max_natural=3, max_period=2):
    """Literal bounded enumeration: accepted encodings must keep all their
    alternative encodings accepted.  Exponential; only for tiny automata."""
    spec = aut.alphabet
    for pw in enumerate_encoding_words(spec, max_natural, max_period):
        word = pair_to_lasso(pw)
        if not aut.accepts_lasso(word.prefix, word.period):
            continue
        for alt in alternative_encodings(pw, spec):
            other = pair_to_lasso(alt)
            if not aut.accepts_lasso(other.prefix, other.period):
                return CounterexamplePair(word, other, spec)
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
    star_old = spec.star_index
    src = aut.delta
    delta = []
    for q in range(aut.n):
        row = []
        for letter in new_spec.digit_letters():
            t = q
            for a in letter:
                t = src[t][a]
            row.append(t)
        row.append(src[q][star_old])
        delta.append(row)
    return Automaton(new_spec, aut.n, aut.initial, aut.accepting, delta)


def _known_full_space(spec: AlphabetSpec):
    if spec.is_parallel:
        width = spec.num_letters
        top, tail, dead = 0, 1, 2
        delta = [[top] * (width - 1) + [tail],
                 [tail] * (width - 1) + [dead],
                 [dead] * width]
        return Automaton(spec, 3, top, frozenset({tail}), delta)
    d = spec.dim
    b = spec.base
    tail, dead = d, d + 1
    delta = []
    for i in range(d):
        row = [(i + 1) % d] * b + [tail if i == 0 else dead]
        delta.append(row)
    delta.append([tail] * b + [dead])
    delta.append([dead] * (b + 1))
    return Automaton(spec, d + 2, 0, frozenset({tail}), delta)


def _known_zero_only(spec: AlphabetSpec):
    b = spec.base
    if spec.is_parallel:
        width = spec.num_letters
        zero = spec.letter_index(spec.zero_letter())
        pre, post, dead = 0, 1, 2
        pre_row = [dead] * width
        pre_row[zero] = pre
        pre_row[spec.star_index] = post
        post_row = [dead] * width
        post_row[zero] = post
        return Automaton(spec, 3, pre, frozenset({post}),
                         [pre_row, post_row, [dead] * width])
    d = spec.dim
    tail, dead = d, d + 1
    delta = []
    for i in range(d):
        row = [dead] * (b + 1)
        row[0] = (i + 1) % d
        row[spec.star_index] = tail if i == 0 else dead
        delta.append(row)
    tail_row = [dead] * (b + 1)
    tail_row[0] = tail
    delta.append(tail_row)
    delta.append([dead] * (b + 1))
    return Automaton(spec, d + 2, 0, frozenset({tail}), delta)


def _known_unit_box(spec: AlphabetSpec):
    """Componentwise values in [0, 1], with both encodings of 1 accepted."""
    b = spec.base
    d = spec.dim
    if spec.is_parallel:
        pre = {}   # frozenset of components that consumed their leading 1
        post = {}  # frozenset of components pinned to zero tails
        states = []

        def intern(table, key):
            if key not in table:
                table[key] = len(states)
                states.append(None)
            return table[key]

        start = intern(pre, frozenset())
        for r in range(2**d):
            intern(pre, frozenset(i for i in range(d) if (r >> i) & 1))
        for r in range(2**d):
            intern(post, frozenset(i for i in range(d) if (r >> i) & 1))
        dead = len(states)
        width = spec.num_letters
        delta = [[dead] * width for _ in range(len(states) + 1)]
        for done, sid in pre.items():
            for letter in spec.digit_letters():
                li = spec.letter_index(letter)
                if done or any(a > 1 for a in letter):
                    continue  # a component already holding 1 cannot extend
                target = frozenset(i for i in range(d) if letter[i] == 1)
                delta[sid][li] = pre[target]
            delta[sid][spec.star_index] = post[done]
        for pinned, sid in post.items():
            for letter in spec.digit_letters():
                li = spec.letter_index(letter)
                if all(letter[i] == 0 for i in pinned):
                    delta[sid][li] = sid
        accepting = frozenset(post.values())
        return Automaton(spec, len(states) + 1, start, accepting, delta)

    ids = {}
    rows = []

    def intern(key):
        if key not in ids:
            ids[key] = len(rows)
            rows.append(None)
        return ids[key]

    width = spec.num_letters
    start = intern(("pre", 0, frozenset()))
    todo = [("pre", 0, frozenset())]
    dead_key = ("dead",)
    dead = intern(dead_key)
    rows[dead] = [dead] * width
    head = 0
    seenq = {("pre", 0, frozenset()), dead_key}
    while head < len(todo):
        key = todo[head]
        head += 1
        tag = key[0]
        row = [dead] * width
        if tag == "pre":
            _, i, done = key
            for a in range(b):
                if i in done or a > 1:
                    continue
                ndone = done | {i} if a == 1 else done
                tkey = ("pre", (i + 1) % d, ndone)
                row[a] = intern(tkey)
                if tkey not in seenq:
                    seenq.add(tkey)
                    todo.append(tkey)
            if i == 0:
                tkey = ("post", 0, done)
                row[spec.star_index] = intern(tkey)
                if tkey not in seenq:
                    seenq.add(tkey)
                    todo.append(tkey)
        else:
            _, i, pinned = key
            for a in range(b):
                if i in pinned and a != 0:
                    continue
                tkey = ("post", (i + 1) % d, pinned)
                row[a] = intern(tkey)
                if tkey not in seenq:
                    seenq.add(tkey)
                    todo.append(tkey)
        rows[ids[key]] = row
    accepting = frozenset(v for k, v in ids.items() if k[0] == "post")
    return Automaton(spec, len(rows), start, accepting, rows)


def _known_complement_full(spec: AlphabetSpec):
    b = spec.base
    width = spec.num_letters
    root, top, tail, dead = 0, 1, 2, 3
    sign = {0, b - 1}
    root_row = [dead] * width
    for letter in spec.digit_letters():
        if all(a in sign for a in letter):
            root_row[spec.letter_index(letter)] = top
    top_row = [top] * (width - 1) + [tail]
    tail_row = [tail] * (width - 1) + [dead]
    return Automaton(spec, 4, root, frozenset({tail}),
                     [root_row, top_row, tail_row, [dead] * width])


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
        return _known_full_space(spec)
    if kind == "zero-only":
        return _known_zero_only(spec)
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

