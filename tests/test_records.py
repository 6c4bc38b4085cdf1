"""Record semantics: equality, hashing, immutability, argument checks,
witness dicts, copying and pickling, and a start-up that generates no
code."""

import copy
import pickle
import subprocess
import sys

import numpy as np
import pytest

from rvacheck.alphabet import AlphabetSpec
from rvacheck.alphabet import SEQUENTIAL
from rvacheck.aut_io import parse_automaton, serialize_automaton
from rvacheck.check import check_rva_parallel
from rvacheck.cli import CHECKS
from rvacheck.fixing import FixedAutomaton
from rvacheck.minimize import Morphism
from rvacheck.oracle import (
    BadShapeWord,
    CounterexamplePair,
    expand_witness,
    gen_known_rva,
    gen_residue_rva,
)
from rvacheck.verdict import (
    ComplementInitialLanguage,
    ComplementPrefix,
    NotShape,
    NotWeak,
    PairMismatch,
    Verdict,
    ZeroLoopBroken,
)
from rvacheck.words import LassoWord, PairWord
from tests.conftest import ROOT

SPEC = AlphabetSpec(2, 2)
LASSO = LassoWord(((0, 1), "*"), ((1, 1),))
WITNESSES = [
    (NotWeak(), {"kind": "not-weak"}),
    (NotShape(3), {"kind": "not-shape", "state": 3}),
    (ZeroLoopBroken(3), {"kind": "zero-loop-broken", "state": 3}),
    (
        PairMismatch(1, 2, (0, 0), (0, 1)),
        {"kind": "pair-mismatch", "component": 1, "state": 2,
         "letter": (0, 0), "bumped_letter": (0, 1)},
    ),
    (ComplementPrefix((0, 1)), {"kind": "complement-prefix", "letter": (0, 1)}),
    (ComplementInitialLanguage(1), {"kind": "complement-initial-language", "component": 1}),
]


def records():
    """One record of each class that compares, built twice over."""
    def build():
        return [
            AlphabetSpec(3, 2, "parallel", [1]),
            PairWord([(0, 1)], [(1, 1)], [1]),
            LassoWord([(0, 1), "*"], [(1, 1)]),
            *(w for w, _ in WITNESSES),
            Verdict(False, PairMismatch(1, 2, (0, 0), (0, 1)), "detail"),
            Verdict(True),
            BadShapeWord(LASSO, SPEC),
            CounterexamplePair(LASSO, LassoWord(((0, 1), "*"), ((1, 0),)), SPEC, True),
        ]
    return build(), build()


def test_equal_records_hash_equal_and_compare_within_their_class():
    for a, b in zip(*records()):
        assert a == b and not a != b and hash(a) == hash(b)
    assert NotShape(3) != ZeroLoopBroken(3)
    assert NotShape(3) != NotShape(4)
    assert SPEC != AlphabetSpec(2, 2, "sequential")


def test_verdict_equality_and_repr_ignore_the_minimal_form(fig2):
    bare = Verdict(False, NotShape(2))
    held = Verdict(False, NotShape(2), minimized=fig2)
    assert bare == held and hash(bare) == hash(held)
    assert repr(held) == repr(bare) == (
        "Verdict(answer=False, witness=NotShape(state=2), detail=None)"
    )
    assert Verdict(False, NotShape(2), "why") != bare


def test_fields_cannot_be_assigned_or_deleted(fig2):
    morphism = Morphism(fig2, fig2, np.arange(fig2.n))
    others = [morphism, FixedAutomaton(fig2)]
    for record in records()[0] + others:
        for name in type(record)._fields:
            with pytest.raises(AttributeError):
                setattr(record, name, None)
            with pytest.raises(AttributeError):
                delattr(record, name)
    with pytest.raises(AttributeError):
        Verdict(True).minimized = fig2


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: AlphabetSpec(1, 1), "base must be at least 2"),
        (lambda: AlphabetSpec(2, 0), "dim must be at least 1"),
        (lambda: AlphabetSpec(2, 1, "mixed"), "unknown encoding kind 'mixed'"),
        (lambda: AlphabetSpec(2, 2, fixed={2}), "fixed component index out of range"),
        (lambda: AlphabetSpec(2, 3, "sequential", {0}),
         "sequential alphabets may only fix component dim-1"),
        (lambda: PairWord([], [(0,)], [-1]), "separator positions must be non-negative"),
        (lambda: PairWord([(0,)], [], [2]),
         "separator position beyond the end of a finite word"),
        (lambda: LassoWord([(0,)], []), "lasso period must be nonempty"),
        (lambda: Verdict(True, NotWeak()), "positive verdicts carry no witness"),
        (lambda: Verdict(False), "negative verdicts need a witness"),
    ],
)
def test_bad_arguments_are_refused(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message


def test_a_morphism_maps_every_source_state(fig2):
    with pytest.raises(ValueError, match="morphism must map every source state"):
        Morphism(fig2, fig2, np.arange(fig2.n - 1))


def test_fields_are_normalized():
    spec = AlphabetSpec(3, 2, "parallel", [1])
    assert spec.fixed == frozenset({1}) and isinstance(spec.fixed, frozenset)
    word = PairWord([(0, 1)], [(1, 1)], [1])
    assert (word.prefix, word.period, word.stars) == (((0, 1),), ((1, 1),), frozenset({1}))
    assert LassoWord([0], [1]).prefix == (0,)
    assert spec.num_letters == spec.num_letters == 4


@pytest.mark.parametrize("witness, expected", WITNESSES)
def test_witness_dict_puts_kind_first_then_the_fields_in_order(witness, expected):
    data = witness.to_dict()
    assert data == expected and list(data) == list(expected)


def test_copy_and_pickle_round_trip(fig2, fig2_text):
    verdict = Verdict(False, PairMismatch(1, 2, (0, 0), (0, 1)), "detail", minimized=fig2)
    for clone in (copy.copy(verdict), copy.deepcopy(verdict), pickle.loads(pickle.dumps(verdict))):
        assert clone == verdict and clone.witness == verdict.witness
        assert clone.minimized.structurally_equal(fig2)
    pair = expand_witness(check_rva_parallel(fig2), "parallel")
    assert isinstance(pair, CounterexamplePair)
    for clone in (copy.copy(pair), pickle.loads(pickle.dumps(pair))):
        assert clone == pair and clone.verify(fig2)
        assert clone.to_dict() == pair.to_dict()
    # a check keeps the minimal form, the dual fixings and their blocks
    # on the automata it reads; pickling and copying leave them out, so a
    # clone is checked from scratch, to the same verdict
    sequential = gen_known_rva("unit-box", 2, 2, SEQUENTIAL)
    for aut, modes in (
        (parse_automaton(fig2_text), ("parallel", "dim1", "complement")),
        (sequential, ("sequential",)),
    ):
        verdicts = {mode: CHECKS[mode](aut) for mode in modes}
        assert "_memo" in vars(aut)
        for clone in (copy.copy(aut), copy.deepcopy(aut), pickle.loads(pickle.dumps(aut))):
            assert "_memo" not in vars(clone) and clone.structurally_equal(aut)
            for mode, verdict in verdicts.items():
                again = CHECKS[mode](clone)
                assert again == verdict and again.minimized is not verdict.minimized
                assert again.minimized.structurally_equal(verdict.minimized)


def test_cli_start_up_generates_no_code():
    # dataclasses generates and compiles each class's methods at import,
    # and the incremental refinement loads only when a table switches
    probe = (
        "import sys, rvacheck.cli, rvacheck.oracle\n"
        "print([m for m in ('dataclasses', 'rvacheck.incremental') if m in sys.modules])\n"
    )
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, cwd=ROOT)
    assert proc.stdout.splitlines()[-1] == "[]", proc.stderr


def test_a_yes_check_loads_no_witness_code(tmp_path):
    # aut_io, the writer included, is on every check's import path; a
    # "yes" needs no witness, so neither the oracle and the word layer
    # nor exact values, and this table never switches to incremental rounds
    path = tmp_path / "residue.rva"
    path.write_text(serialize_automaton(gen_residue_rva(2003)))
    unwanted = ("rvacheck.oracle", "rvacheck.words", "fractions", "rvacheck.incremental")
    probe = (
        "import sys\n"
        "from rvacheck.cli import main\n"
        f"codes = [main(['check', {str(path)!r}, '--mode', m]) for m in ('parallel', 'dim1')]\n"
        f"print(codes, [m for m in {unwanted!r} if m in sys.modules])\n"
    )
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, cwd=ROOT)
    assert proc.stdout.splitlines()[-1] == "[0, 0] []", proc.stderr
