import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rvacheck.alphabet import AlphabetSpec
from rvacheck.automaton import Automaton
from rvacheck.check import (
    check_rva_complement_parallel,
    check_rva_dim1,
    check_rva_parallel,
    check_rva_sequential,
)
from rvacheck.minimize import minimal_form, minimize_weak
from rvacheck.oracle import (
    gen_known_rva,
    gen_random_sequential_shaped,
    gen_random_weak,
    parallelize_automaton,
)
from rvacheck.shape import check_minimal_shape, dead_sink
from tests.conftest import (
    accepting_recurrent_states,
    as_sequential,
    dead_states,
    reference_shape,
    reference_shape_sets,
    shape_sets,
)


@pytest.fixture(scope="module")
def full_par_d2():
    return gen_known_rva("full-space", 2, 2, "parallel")


@pytest.fixture(scope="module")
def full_seq_d2():
    return gen_known_rva("full-space", 2, 2, "sequential")


def random_corpus(count, seed):
    """Random weak, sequential-shaped and parallelized-shaped automata, b 2-3, d 1-2."""
    rng = random.Random(seed)
    for i in range(count):
        b, d, s = rng.choice((2, 3)), rng.choice((1, 2)), rng.randrange(1 << 30)
        kind = i % 3
        if kind == 0:
            enc = rng.choice(("parallel", "sequential"))
            yield gen_random_weak(1 + rng.randrange(8), b, d, enc, s)
        else:
            aut = gen_random_sequential_shaped(2 + rng.randrange(24), b, d, s)
            yield aut if kind == 1 else parallelize_automaton(aut)


def minimal_shape(aut):
    """The shape stage on the minimal form of ``aut``, or None when it is not weak."""
    m = minimal_form(aut)
    return None if m is None else check_minimal_shape(m.target, (m.target.initial,))


def renumbered(aut, perm):
    """The same automaton with state ``q`` renamed ``perm[q]``."""
    delta = [None] * aut.n
    for q, row in enumerate(aut.delta):
        delta[perm[q]] = [perm[t] for t in row]
    accepting = frozenset(perm[q] for q in aut.accepting)
    return Automaton(aut.alphabet, aut.n, perm[aut.initial], accepting, delta)


class TestEmptyStates:
    def test_full_space_only_sink_dead(self, full_par_d2):
        assert dead_states(full_par_d2) == frozenset({2})
        assert dead_sink(minimal_form(full_par_d2).target) == 2

    def test_no_accepting_everything_dead(self):
        spec = AlphabetSpec(2, 1)
        aut = Automaton(spec, 2, 0, frozenset(), [[1, 1, 1], [0, 0, 0]])
        assert dead_states(aut) == frozenset({0, 1})
        m = minimal_form(aut).target
        assert m.n == 1 and dead_sink(m) == 0

    def test_all_accepting_strongly_connected_nothing_dead(self):
        spec = AlphabetSpec(2, 1)
        aut = Automaton(spec, 2, 0, frozenset({0, 1}), [[1, 1, 1], [0, 0, 0]])
        assert dead_states(aut) == frozenset()
        assert dead_sink(minimal_form(aut).target) == -1

    def test_agrees_with_reachability_semantics(self):
        # a state is dead iff its image in the quotient is the dead sink
        for seed in range(40):
            aut = gen_random_weak(1 + seed % 7, 2, 1, "parallel", seed)
            morphism = minimize_weak(aut)
            sink = dead_sink(morphism.target)
            dead = dead_states(aut)
            for q in range(aut.n):
                assert (q in dead) == (morphism.mapping[q] == sink)


class TestMinimalFormFacts:
    def test_sink_and_accepting_loops_on_minimal_forms(self):
        for aut in random_corpus(1080, 20261018):
            m = minimal_form(aut).target
            dead = dead_states(m)
            assert dead == ({dead_sink(m)} - {-1})
            assert m.accepting == accepting_recurrent_states(m)
            spec = m.alphabet
            expected = reference_shape(m, spec.seq_dim)
            assert check_minimal_shape(m, (m.initial,)) == expected
            if spec.num_letters == spec.base + 1:  # single digits
                for d_seq in (1, 2, 3):
                    expected = reference_shape(m, d_seq)
                    assert check_minimal_shape(as_sequential(m, d_seq), (m.initial,)) == expected


class TestModFraSets:
    def test_sequential_full_space_layers(self, full_seq_d2):
        mods, fra = shape_sets(full_seq_d2, (full_seq_d2.initial,))
        assert mods[0] == {0}
        assert mods[1] == {1}
        tail, dead = 2, 3
        assert fra == {tail, dead}

    def test_parallel_full_space_sets(self, full_par_d2):
        mods, fra = shape_sets(full_par_d2, (full_par_d2.initial,))
        assert mods[0] == {0}
        assert fra == {1}

    def test_single_class_is_digit_closure(self, fig2):
        mods, _ = shape_sets(fig2, (fig2.initial,))
        assert mods[0] == {0, 1, 2, 3, 4, 6}

    def test_star_to_sink_fra_subset_of_dead(self):
        spec = AlphabetSpec(2, 1)
        # digit loop on the initial state, separator falls into the sink
        aut = Automaton(spec, 2, 0, frozenset(), [[0, 0, 1], [1, 1, 1]])
        _, fra = shape_sets(aut, (aut.initial,))
        assert fra <= dead_states(aut)

    def test_fixpoint_recheck(self):
        for seed in range(30):
            for d_seq in (1, 2, 3):
                aut = as_sequential(gen_random_weak(1 + seed % 6, 2, 1, "parallel", seed), d_seq)
                mods, fra = shape_sets(aut, (aut.initial,))
                star = aut.alphabet.star_index
                assert aut.initial in mods[0]
                for i, part in enumerate(mods):
                    for q in part:
                        for li in range(star):
                            assert aut.delta[q][li] in mods[(i + 1) % d_seq]
                union = set().union(*mods)
                for q in union:
                    assert aut.delta[q][star] in fra
                for q in fra:
                    for li in range(star):
                        assert aut.delta[q][li] in fra
                assert (mods, fra) == reference_shape_sets(aut, d_seq, (aut.initial,))


class TestShapeChecks:
    def test_full_space_parallel_yes(self, full_par_d2):
        assert minimal_shape(full_par_d2).answer

    def test_full_space_sequential_yes(self, full_seq_d2):
        assert minimal_shape(full_seq_d2).answer

    def test_sequential_probed_with_wrong_dim_no(self, full_seq_d2):
        verdict = minimal_shape(as_sequential(full_seq_d2, 3))
        assert not verdict.answer
        assert verdict.witness.kind == "not-shape"

    def test_fig2_is_1_sequential(self, fig2):
        assert minimal_shape(as_sequential(fig2, 1)).answer

    def test_no_separator_acceptance_rejected(self):
        spec = AlphabetSpec(2, 1)
        aut = Automaton(spec, 1, 0, frozenset({0}), [[0, 0, 0]])
        verdict = minimal_shape(aut)
        assert not verdict.answer and verdict.witness.kind == "not-shape"

    def test_separator_free_loop_rejected(self):
        spec = AlphabetSpec(2, 1)
        # 0^w is accepted; every separator falls into the dead sink, so
        # only the accepting-loop test can catch it
        aut = Automaton(spec, 2, 0, frozenset({0}), [[0, 0, 1], [1, 1, 1]])
        verdict = minimal_shape(aut)
        assert verdict == reference_shape(aut, 1)
        assert not verdict.answer and verdict.witness.state == 0

    def test_two_separator_acceptance_rejected(self):
        spec = AlphabetSpec(2, 1)
        # needs two separators before looping in the accepting state
        delta = [[0, 0, 1], [1, 1, 2], [2, 2, 2], [3, 3, 3]]
        aut = Automaton(spec, 4, 0, frozenset({2}), delta)
        verdict = minimal_shape(aut)
        assert not verdict.answer
        bad = verdict.witness.state
        assert bad in (1, 2)

    def test_non_weak_input_not_weak(self):
        spec = AlphabetSpec(2, 1)
        # one component {0, 1}, only half of it accepting
        aut = Automaton(spec, 2, 0, frozenset({0}), [[1, 1, 1], [0, 0, 0]])
        assert minimal_form(aut) is None
        for verdict in (check_rva_parallel(aut), check_rva_complement_parallel(aut)):
            assert not verdict.answer and verdict.witness.kind == "not-weak"

    def test_witness_is_a_state_of_the_minimal_form(self):
        spec = AlphabetSpec(2, 1)
        # state 0 is unreachable; 1 and 2 both accept every word
        delta = [[0, 0, 0], [2, 2, 2], [1, 1, 1]]
        aut = Automaton(spec, 3, 1, frozenset({1, 2}), delta)
        verdict = check_rva_parallel(aut)
        assert verdict.minimized.n == 1
        assert verdict.witness.state == 0 == verdict.minimized.initial


def applicable_checks(aut):
    """Every check mode that takes the automaton's alphabet, and its shape test."""
    spec = aut.alphabet
    if spec.is_parallel:
        checks = [check_rva_parallel, check_rva_complement_parallel]
    else:
        checks = [check_rva_sequential]
    return checks + [minimal_shape] + [check_rva_dim1] * (spec.dim == 1)


@st.composite
def automata_and_renumbering(draw):
    b, d = draw(st.sampled_from((2, 3))), draw(st.sampled_from((1, 2)))
    seed = draw(st.integers(0, 2**31 - 1))
    kind = draw(st.sampled_from(("weak-par", "weak-seq", "shaped-seq", "shaped-par")))
    if kind.startswith("weak"):
        enc = "parallel" if kind == "weak-par" else "sequential"
        aut = gen_random_weak(draw(st.integers(1, 8)), b, d, enc, seed)
    else:
        aut = gen_random_sequential_shaped(draw(st.integers(2, 24)), b, d, seed)
        if kind == "shaped-par":
            aut = parallelize_automaton(aut)
    return aut, draw(st.permutations(range(aut.n)))


class TestRenumbering:
    @settings(max_examples=300, deadline=None)
    @given(automata_and_renumbering())
    def test_verdicts_invariant_under_renumbering(self, case):
        aut, perm = case
        other = renumbered(aut, perm)
        for check in applicable_checks(aut):
            assert check(other) == check(aut)
