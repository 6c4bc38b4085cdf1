"""Seeded benchmark inputs, their reference answers, and witness checks.

Every reference answer here follows from how the input is built, never
from the checks under test:

* ``gen_residue_rva(n)`` accepts the encodings of ``{x : floor(x) mod M
  == 0}``, a saturated set, so ``parallel`` and ``dim1`` must say yes.
* Its *mutant* drops the accepting flag of the ``nine_last`` state, so
  ``(M-1) * 1^w`` is rejected while ``M * 0^w`` (the same value M) is
  still accepted: every check must say no.
* The synchronous product of two residue automata accepts the product
  of two saturated sets, which is saturated; so is its round-robin
  (sequential) re-encoding.
* ``gen_interval_rva`` accepts the encodings of ``[0, c]``: saturated
  in ``parallel``, ``dim1`` and, read with a one-component sequential
  alphabet, ``sequential``.
* Read as sign-extended (b-complement) words, both families are not
  saturated: the automata read the sign digit as a value digit, so
  repeating a leading ``b-1`` changes acceptance while the encoded
  negative value stays the same.

The benchmark's self-check confirms the product, sequential and mutant
constructions against ``saturation_oracle`` at small sizes.
"""

from __future__ import annotations

import itertools
import random

from rvacheck.alphabet import PARALLEL, SEQUENTIAL, AlphabetSpec
from rvacheck.automaton import Automaton
from rvacheck.oracle import (
    BadShapeWord,
    CounterexamplePair,
    gen_random_sequential_shaped,
    gen_random_weak,
    parallelize_automaton,
)
from rvacheck.words import (
    lasso_to_pair,
    parse_lasso,
    split_at_star,
    value_fractional,
    value_natural,
    value_real,
)

# ---------------------------------------------------------------------------
# residue sizes whose digit orbit spans the whole modulus


def _is_prime(m):
    if m < 2:
        return False
    k = 2
    while k * k <= m:
        if m % k == 0:
            return False
        k += 1
    return True


def _prime_factors(m):
    out, k = set(), 2
    while k * k <= m:
        while m % k == 0:
            out.add(k)
            m //= k
        k += 1
    if m > 1:
        out.add(m)
    return out


def full_orbit(n_states):
    """True when ``gen_residue_rva(n_states)`` has a full-length digit orbit.

    The counter modulus is ``M = n_states - 4``; the doubling map visits
    every non-zero residue exactly when ``M`` is prime and 2 is a
    primitive root mod ``M``.  Dim1 cost follows the orbit length, so
    only such sizes make the residue family adversarial.
    """
    m = n_states - 4
    if m % 2 == 0 or not _is_prime(m):
        return False
    return all(pow(2, (m - 1) // p, m) != 1 for p in _prime_factors(m - 1))


def pick_full_orbit(rng, low, high):
    """A seeded full-orbit residue size from ``[low, high)``."""
    sizes = [n for n in range(low, high) if full_orbit(n)]
    if not sizes:
        raise ValueError(f"no full-orbit residue size in [{low}, {high})")
    return rng.choice(sizes)


def pick_product_pair(rng, target):
    """Two full-orbit residue sizes, in seeded order, within a factor 1.5
    of each other and with a product within 2% of ``target``, so the
    product automaton's size and shape barely depend on the seed."""
    sizes = [n for n in range(7, 2 * int(target ** 0.5)) if full_orbit(n)]
    pairs = [(a, b) for a in sizes for b in sizes
             if a <= b <= 1.5 * a and abs(a * b - target) <= 0.02 * target]
    if not pairs:
        raise ValueError(f"no full-orbit residue pair with product near {target}")
    pair = list(rng.choice(pairs))
    rng.shuffle(pair)
    return pair


# ---------------------------------------------------------------------------
# constructions


def residue_mutant(aut: Automaton) -> Automaton:
    """Drop the accepting flag of ``nine_last`` (state ``n-3``)."""
    return Automaton(aut.alphabet, aut.n, aut.initial, aut.accepting - {aut.n - 3}, aut.delta)


def interval_mutant(aut: Automaton) -> Automaton:
    """Drop the accepting flag of ``z0`` (state ``n-2``), the state reached
    after the separator from the top value ``c``: ``c * 0^w`` is then
    rejected while ``(c-1) * 1^w`` (the same value) stays accepted."""
    return Automaton(aut.alphabet, aut.n, aut.initial, aut.accepting - {aut.n - 2}, aut.delta)


def as_sequential(aut: Automaton) -> Automaton:
    """A one-component parallel automaton read with the sequential alphabet.

    For ``dim == 1`` both alphabets are ``0..b-1`` plus ``*`` in the same
    letter order, so the table carries over unchanged.
    """
    spec = aut.alphabet
    if spec.dim != 1 or spec.kind != PARALLEL:
        raise ValueError("needs a one-component parallel automaton")
    return Automaton(AlphabetSpec(spec.base, 1, SEQUENTIAL), aut.n, aut.initial,
                     aut.accepting, aut.delta)


def _bfs_build(start, successors, accepting):
    """Number the states reachable from ``start`` densely, in BFS order."""
    ids = {start: 0}
    order = [start]
    delta = []
    head = 0
    while head < len(order):
        row = []
        for t in successors(order[head]):
            if t not in ids:
                ids[t] = len(order)
                order.append(t)
            row.append(ids[t])
        delta.append(row)
        head += 1
    return len(order), frozenset(i for i, s in enumerate(order) if accepting(s)), delta


def product_rva(a: Automaton, b: Automaton) -> Automaton:
    """Synchronous product of two one-component automata over 2-vector letters.

    Accepts ``(x, y)`` exactly when ``a`` accepts ``x`` and ``b`` accepts
    ``y``.  Conjunctive acceptance keeps the product weak, since every
    product component projects into one component of each factor.
    """
    base = a.alphabet.base
    spec = AlphabetSpec(base, 2, PARALLEL)
    letters = [(spec.letter_index(letter), letter) for letter in spec.digit_letters()]
    letters.sort()
    star_a, star_b = a.alphabet.star_index, b.alphabet.star_index

    def successors(state):
        p, q = state
        row_a, row_b = a.delta[p], b.delta[q]
        out = [(row_a[x], row_b[y]) for _, (x, y) in letters]
        out.append((row_a[star_a], row_b[star_b]))
        return out

    def accepting(state):
        return state[0] in a.accepting and state[1] in b.accepting

    n, acc, delta = _bfs_build((a.initial, b.initial), successors, accepting)
    return Automaton(spec, n, 0, acc, delta)


def sequential_product_rva(a: Automaton, b: Automaton) -> Automaton:
    """The language of :func:`product_rva`, read with interleaved digits.

    States are ``(p, q, turn)``: on turn 0 a digit advances ``a``, on
    turn 1 it advances ``b``; the separator is only allowed on turn 0 and
    advances both factors.  A misplaced separator falls into a dead sink.
    """
    base = a.alphabet.base
    spec = AlphabetSpec(base, 2, SEQUENTIAL)
    star_a, star_b = a.alphabet.star_index, b.alphabet.star_index
    dead = ("dead",)

    def successors(state):
        if state == dead:
            return [dead] * (base + 1)
        p, q, turn = state
        if turn == 0:
            out = [(a.delta[p][x], q, 1) for x in range(base)]
            out.append((a.delta[p][star_a], b.delta[q][star_b], 0))
        else:
            out = [(p, b.delta[q][y], 0) for y in range(base)]
            out.append(dead)
        return out

    def accepting(state):
        return state != dead and state[0] in a.accepting and state[1] in b.accepting

    n, acc, delta = _bfs_build((a.initial, b.initial, 0), successors, accepting)
    return Automaton(spec, n, 0, acc, delta)


# ---------------------------------------------------------------------------
# the library corpus


def corpus_stream(seed):
    """Endless seeded draw of small automata for the library sweep.

    Draws alternate between ``gen_random_weak`` with 1-8 states (the
    oracle-agreement generator; most fail the shape stage) and
    ``gen_random_sequential_shaped`` with 8-64 states, used both as drawn
    and through ``parallelize_automaton`` so the dual-tail stages run too.
    Sizes, bases, dimensions and encodings cycle in a fixed order, so
    every seed gets the same mix; the seed draws the transitions and
    acceptance.  Yields ``(label, automaton)``.
    """
    rng = random.Random(f"corpus:{seed}")
    for k in itertools.count():
        s = rng.randrange(1 << 30)
        if k % 2 == 0:
            i = k // 2
            n, base = 1 + i % 8, (2, 3)[i // 8 % 2]
            dim, enc = (1, 2)[i // 16 % 2], (PARALLEL, SEQUENTIAL)[i // 32 % 2]
            label = f"weak n={n} b={base} d={dim} {enc} seed={s}"
            yield label, gen_random_weak(n, base, dim, enc, s)
        else:
            i = k // 2
            n, base, dim = 8 + i * 23 % 57, (2, 3)[i % 2], (1, 2)[i // 2 % 2]
            shaped = gen_random_sequential_shaped(n, base, dim, s)
            label = f"shaped n={n} b={base} d={dim} seed={s}"
            yield label + " sequential", shaped
            yield label + " parallelized", parallelize_automaton(shaped)


def modes_for(aut: Automaton):
    """Every check mode that applies to the automaton's alphabet."""
    spec = aut.alphabet
    if spec.kind == SEQUENTIAL:
        return ["sequential"]
    modes = ["parallel", "complement"]
    if spec.dim == 1:
        modes.append("dim1")
    return modes


# ---------------------------------------------------------------------------
# witness checks, independent of CounterexamplePair.verify


def encoding_value(word, spec: AlphabetSpec, complement: bool):
    """Exact value of a lasso word read as a valid encoding.

    Raises ``ValueError`` when the word is not a valid encoding: a
    separator inside the period, not exactly one separator, a
    misaligned sequential separator, or (sign-extended reading) a
    natural part that does not open with a sign digit ``0`` or ``b-1``
    in every component.  The sign-extended value of component digits
    ``s w`` is ``value(s w) - b^len(s w)`` when ``s = b-1``.
    """
    pw = lasso_to_pair(word)
    if not complement:
        return value_real(pw, spec)
    if spec.kind != PARALLEL:
        raise ValueError("sign-extended words are parallel-only")
    nat, fra_prefix, fra_period = split_at_star(pw)
    if not nat:
        raise ValueError("sign-extended word without a sign digit")
    b = spec.base
    values = []
    for i in range(spec.dim):
        digits = tuple(letter[i] for letter in nat)
        if digits[0] not in (0, b - 1):
            raise ValueError("sign-extended word opens with a non-sign digit")
        natural = value_natural(digits, b)
        if digits[0] == b - 1:
            natural -= b ** len(digits)
        frac = value_fractional(tuple(x[i] for x in fra_prefix),
                                tuple(x[i] for x in fra_period), b)
        values.append(natural + frac)
    return tuple(values)


def check_pair(aut: Automaton, accepted, rejected, complement: bool):
    """Reason a counterexample pair is not genuine, or None when it is."""
    if not aut.accepts_lasso(accepted.prefix, accepted.period):
        return "accepted word is rejected"
    if aut.accepts_lasso(rejected.prefix, rejected.period):
        return "rejected word is accepted"
    try:
        same = encoding_value(accepted, aut.alphabet, complement) == encoding_value(
            rejected, aut.alphabet, complement)
    except ValueError as exc:
        return f"not a valid encoding: {exc}"
    return None if same else "values differ"


def check_shape_word(aut: Automaton, word, complement: bool):
    """Reason a shape witness is not genuine, or None when it is."""
    if not aut.accepts_lasso(word.prefix, word.period):
        return "shape word is rejected"
    try:
        encoding_value(word, aut.alphabet, complement)
    except ValueError:
        return None
    return "shape word is a valid encoding"


def check_expansion(aut: Automaton, expansion, mode: str):
    """Reason an ``expand_witness`` result is not genuine, or None."""
    complement = mode == "complement"
    if expansion is None:
        return "missing witness"
    if isinstance(expansion, CounterexamplePair):
        return check_pair(aut, expansion.accepted, expansion.rejected, complement)
    if isinstance(expansion, BadShapeWord):
        return check_shape_word(aut, expansion.word, complement)
    return f"unknown witness {type(expansion).__name__}"


def check_cli_witness(aut: Automaton, witness: dict, mode: str):
    """Reason a witness printed by ``rvacheck --json`` is not genuine, or None.

    ``mode`` is a check mode, or ``"oracle"`` for the word-level search,
    whose witness sits at the top level instead of under ``expansion``.
    """
    data = witness if mode == "oracle" else (witness or {}).get("expansion")
    if not data:
        return "missing witness"
    complement = mode == "complement"
    spec = aut.alphabet
    try:
        if data.get("kind") == "equal-value-pair":
            return check_pair(aut, parse_lasso(data["accepted"], spec),
                              parse_lasso(data["rejected"], spec), complement)
        if data.get("kind") == "shape-violation":
            return check_shape_word(aut, parse_lasso(data["word"], spec), complement)
    except (KeyError, ValueError) as exc:
        return f"unreadable witness: {exc}"
    return f"unknown witness kind {data.get('kind')!r}"

