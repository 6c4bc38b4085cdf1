import collections
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rvacheck import check, fixing, minimize, oracle
from rvacheck.alphabet import AlphabetSpec
from rvacheck.aut_io import parse_automaton
from rvacheck.automaton import Automaton, trim_accessible
from rvacheck.check import (
    check_rva_complement_parallel,
    check_rva_dim1,
    check_rva_parallel,
    check_rva_sequential,
)
from rvacheck.fixing import dual_fixings
from rvacheck.minimize import minimal_form, minimize_weak
from rvacheck.oracle import (
    expand_witness,
    gen_known_rva,
    gen_random_sequential_shaped,
    gen_random_weak,
    parallelize_automaton,
    saturation_oracle,
)
from rvacheck.words import lasso_to_pair, value_real


def single_value_automaton():
    """Accepts 0^*1*0^w (the value 1) but not the dual 0^**1^w."""
    spec = AlphabetSpec(2, 1)
    delta = [[0, 1, 3], [3, 3, 2], [2, 3, 3], [3, 3, 3]]
    return Automaton(spec, 4, 0, frozenset({2}), delta)


def dim1_gap_automaton():
    """Weak, minimal, shape-valid, zero-looped; accepts one encoding of 6
    while rejecting the dual.  The two fixed-digit languages that differ
    are both nonempty, so a dead-state comparison alone cannot see it."""
    spec = AlphabetSpec(2, 1)
    q0, p, x, y, z, x1, y0, d = range(8)
    delta = [
        [q0, p, d],
        [x, y, d],
        [d, d, x1],
        [z, d, y0],
        [d, d, y0],
        [d, x1, d],
        [y0, d, d],
        [d, d, d],
    ]
    return Automaton(spec, 8, q0, frozenset({x1, y0}), delta)


class TestParallelCheck:
    def test_seven_state_example_rejected(self, fig2):
        verdict = check_rva_parallel(fig2)
        assert not verdict.answer
        assert verdict.witness.kind == "zero-loop-broken"
        pair = expand_witness(verdict, "parallel")
        assert pair.verify(verdict.minimized)
        assert value_real(lasso_to_pair(pair.accepted), fig2.alphabet) == (
            value_real(lasso_to_pair(pair.rejected), fig2.alphabet)
        )

    def test_full_space_families_accepted(self):
        for b in (2, 3):
            for d in (1, 2, 3):
                assert check_rva_parallel(gen_known_rva("full-space", b, d)).answer

    def test_pair_mismatch_witness(self):
        verdict = check_rva_parallel(single_value_automaton())
        assert not verdict.answer
        assert verdict.witness.kind == "pair-mismatch"
        pair = expand_witness(verdict, "parallel")
        assert pair is not None and pair.verify(verdict.minimized)

    def test_not_weak_witness(self):
        spec = AlphabetSpec(2, 1)
        aut = Automaton(spec, 2, 0, frozenset({0}), [[1, 1, 1], [0, 0, 0]])
        verdict = check_rva_parallel(aut)
        assert not verdict.answer and verdict.witness.kind == "not-weak"

    def test_shape_witness(self):
        spec = AlphabetSpec(2, 1)
        aut = Automaton(spec, 1, 0, frozenset({0}), [[0, 0, 0]])
        verdict = check_rva_parallel(aut)
        assert not verdict.answer and verdict.witness.kind == "not-shape"

    def test_rejects_wrong_alphabet(self):
        seq = gen_known_rva("full-space", 2, 2, "sequential")
        with pytest.raises(ValueError):
            check_rva_parallel(seq)

    def test_minimality_insensitive(self, fig2):
        trimmed, _ = trim_accessible(fig2)
        minimal = minimize_weak(trimmed).target
        assert check_rva_parallel(fig2).answer == check_rva_parallel(minimal).answer
        box = gen_known_rva("unit-box", 2, 2)
        small = minimize_weak(box).target
        assert check_rva_parallel(box).answer == check_rva_parallel(small).answer

    def test_deterministic(self, fig2):
        a = check_rva_parallel(fig2)
        b = check_rva_parallel(fig2)
        assert a.to_dict() == b.to_dict()


class TestSequentialCheck:
    def test_full_space_families_accepted(self):
        for b in (2, 3):
            for d in (1, 2, 3):
                aut = gen_known_rva("full-space", b, d, "sequential")
                assert check_rva_sequential(aut).answer

    def test_first_digit_mutant_rejected(self):
        for d in (1, 2):
            aut = gen_known_rva("full-space", 2, d, "sequential")
            delta = [list(row) for row in aut.delta]
            delta[0][1] = aut.n - 1  # digit 1 from the initial state dies
            mutant = Automaton(aut.alphabet, aut.n, 0, aut.accepting, delta)
            verdict = check_rva_sequential(mutant)
            assert not verdict.answer
            oracle = saturation_oracle(mutant)
            assert not oracle.answer
            assert oracle.witness.verify(mutant)

    def test_agrees_with_parallel_in_dimension_one(self):
        spec_pairs = 0
        for seed in range(60):
            n = 1 + seed % 8
            seq = gen_random_weak(n, 2, 1, "sequential", seed)
            par = Automaton(
                AlphabetSpec(2, 1, "parallel"),
                seq.n,
                seq.initial,
                seq.accepting,
                seq.delta,
            )
            assert check_rva_sequential(seq).answer == check_rva_parallel(par).answer
            spec_pairs += 1
        assert spec_pairs == 60

    def test_zero_loop_checked_over_whole_block(self):
        # accepts encodings shifted by one digit: 0^d loop broken
        aut = gen_known_rva("full-space", 2, 2, "sequential")
        delta = [list(row) for row in aut.delta]
        delta[1][0] = 1  # second zero sticks instead of returning
        mutant = Automaton(aut.alphabet, aut.n, 0, aut.accepting, delta)
        verdict = check_rva_sequential(mutant)
        assert not verdict.answer


class TestDim1Check:
    def test_matches_parallel_on_corpus(self):
        for b in (2, 3):
            for seed in range(60):
                aut = gen_random_weak(1 + seed % 8, b, 1, "parallel", seed)
                assert check_rva_dim1(aut).answer == check_rva_parallel(aut).answer

    def test_catches_nonempty_language_mismatch(self):
        aut = dim1_gap_automaton()
        assert minimize_weak(aut).target.n == aut.n  # already minimal
        verdict = check_rva_dim1(aut)
        assert not verdict.answer and verdict.witness.kind == "pair-mismatch"
        assert not check_rva_parallel(aut).answer
        oracle = saturation_oracle(aut)
        assert not oracle.answer and oracle.witness.verify(aut)

    def test_emptiness_comparison_alone_would_miss_it(self):
        from rvacheck.fixing import fix_parallel
        from tests.conftest import dead_states

        aut = dim1_gap_automaton()
        hi = fix_parallel(aut, 0, 1).automaton
        lo = fix_parallel(aut, 0, 0).automaton
        dead_hi, dead_lo = dead_states(hi), dead_states(lo)
        assert all(
            (aut.delta[q][0] in dead_hi) == (aut.delta[q][1] in dead_lo)
            for q in range(aut.n)
        )

    def test_single_state_accept_all_rejected(self):
        spec = AlphabetSpec(2, 1)
        aut = Automaton(spec, 1, 0, frozenset({0}), [[0, 0, 0]])
        verdict = check_rva_dim1(aut)
        assert not verdict.answer and verdict.witness.kind == "not-shape"

    def test_works_on_sequential_alphabet(self):
        aut = gen_known_rva("zero-only", 3, 1, "sequential")
        assert check_rva_dim1(aut).answer

    def test_dimension_guard(self):
        aut = gen_known_rva("full-space", 2, 2)
        with pytest.raises(ValueError):
            check_rva_dim1(aut)

    def test_saturated_shaped_base3_accepted(self):
        aut = parallelize_automaton(gen_random_sequential_shaped(30, 3, 1, 577065013))
        assert saturation_oracle(aut).answer and check_rva_parallel(aut).answer
        assert check_rva_dim1(aut).answer

    def test_pair_mismatch_expands_to_verified_pair(self):
        aut = parallelize_automaton(gen_random_sequential_shaped(16, 2, 1, 768400880))
        verdict = check_rva_dim1(aut)
        assert not verdict.answer and verdict.witness.kind == "pair-mismatch"
        expansion = expand_witness(verdict, "dim1")
        assert expansion is not None and expansion.verify(aut)


class TestComplementCheck:
    def test_full_family_accepted(self):
        for b in (2, 3):
            for d in (1, 2, 3):
                aut = gen_known_rva("complement-full", b, d)
                assert check_rva_complement_parallel(aut).answer

    def test_non_sign_prefix_rejected(self):
        aut = gen_known_rva("complement-full", 3, 1)
        delta = [list(row) for row in aut.delta]
        delta[0][1] = 1  # middle digit 1 suddenly allowed up front
        mutant = Automaton(aut.alphabet, aut.n, 0, aut.accepting, delta)
        verdict = check_rva_complement_parallel(mutant)
        assert not verdict.answer
        assert verdict.witness.kind == "complement-prefix"
        bad = expand_witness(verdict, "complement")
        assert bad is not None and bad.kind == "shape-violation"
        word = bad.word
        assert verdict.minimized.accepts_lasso(word.prefix, word.period)

    def test_sign_absorption_mutant(self):
        # a single sign digit reaches a live state but a repeated one dies,
        # so the sign extensions of one real are classified differently
        spec = AlphabetSpec(2, 1)
        root, s1, s2, tail, dead = range(5)
        delta = [
            [s1, dead, dead],
            [s2, dead, tail],
            [s2, s2, dead],
            [tail, tail, dead],
            [dead, dead, dead],
        ]
        aut = Automaton(spec, 5, root, frozenset({tail}), delta)
        verdict = check_rva_complement_parallel(aut)
        assert not verdict.answer
        assert verdict.witness.kind == "zero-loop-broken"
        pair = expand_witness(verdict, "complement")
        assert pair is not None and pair.kind == "equal-value-pair"
        m = verdict.minimized
        assert m.accepts_lasso(pair.accepted.prefix, pair.accepted.period)
        assert not m.accepts_lasso(pair.rejected.prefix, pair.rejected.period)

    def test_zero_sign_padding_mutant(self):
        # 0 encoded only through the all-zero sign: condition on the two
        # all-sign fixings from the root must fail
        spec = AlphabetSpec(2, 1)
        root, zeros, nines, tail, dead = range(5)
        delta = [
            [zeros, nines, dead],
            [zeros, dead, tail],   # 0-signed words: fractional free
            [nines, dead, dead],   # 1-signed words never accept
            [tail, tail, dead],
            [dead, dead, dead],
        ]
        aut = Automaton(spec, 5, root, frozenset({tail}), delta)
        verdict = check_rva_complement_parallel(aut)
        assert not verdict.answer
        assert verdict.witness.kind in (
            "complement-initial-language",
            "pair-mismatch",
        )

    def test_alphabet_guard(self):
        seq = gen_known_rva("full-space", 2, 2, "sequential")
        with pytest.raises(ValueError):
            check_rva_complement_parallel(seq)

    def test_shape_mutants(self):
        # with state 1 accepting the family accepts 0^w, with a separator
        # loop on state 2 it accepts 0 * *^w: the shape stage, read from
        # the sign-letter successors of the root, rejects both
        for b, d in itertools.product((2, 3), (1, 2)):
            aut = gen_known_rva("complement-full", b, d)
            rows = [list(row) for row in aut.delta]
            rows[2][aut.alphabet.star_index] = 2
            zero = ",".join(["0"] * d)
            mutants = {
                f"{zero} / {zero}": Automaton(aut.alphabet, 4, 0, aut.accepting | {1}, aut.delta),
                f"{zero} * * / {zero}": Automaton(aut.alphabet, 4, 0, aut.accepting, rows),
            }
            for word, mutant in mutants.items():
                verdict = check_rva_complement_parallel(mutant)
                assert not verdict.answer and verdict.witness.kind == "not-shape", (b, d)
                assert expand_witness(verdict, "complement").to_dict()["word"] == word

    def test_seeded_sweep_expands_every_no(self):
        # without a shape stage some of these failed a later stage on an
        # automaton that accepts a word with its separator in the period,
        # and the expansion of that "no" raised
        for seed, (b, d) in itertools.product(range(200), itertools.product((2, 3), (1, 2))):
            aut = gen_random_weak(1 + seed % 8, b, d, "parallel", seed)
            verdict = check_rva_complement_parallel(aut)
            if verdict.answer or verdict.witness.kind == "not-weak":
                continue
            expansion = expand_witness(verdict, "complement")
            assert expansion is not None, (seed, b, d)
            if expansion.kind == "shape-violation":
                assert aut.accepts_lasso(expansion.word.prefix, expansion.word.period)
            else:
                assert expansion.verify(aut), (seed, b, d)


def complement_root_automaton():
    """Accepts the zero-signed encodings of 0 alone: the two all-sign
    fixings part at the root and nowhere else."""
    spec = AlphabetSpec(2, 1)
    root, zeros, fraction, dead = range(4)
    delta = [[zeros, dead, dead], [zeros, dead, fraction], [fraction, dead, dead], [dead] * 3]
    return Automaton(spec, 4, root, frozenset({fraction}), delta)


class TestSharedDerivedStructures:
    """Every check mode and the witness expansion share one minimal form
    per automaton, and one union of dual fixings with its refinement per
    minimal form and component."""

    @pytest.fixture
    def builds(self, monkeypatch):
        count = collections.Counter()

        def spy(module, name, key):
            build = getattr(module, name)

            def counted(*args):
                count[name, key(*args)] += 1
                return build(*args)

            monkeypatch.setattr(module, name, counted)

        spy(minimize, "_minimal_form", id)
        spy(fixing, "_dual_fixings", lambda m, f: (id(m), f))
        spy(check, "refine_partition", lambda table, labels: id(table))
        for module in (check, oracle):  # every request
            spy(module, "dual_fixings", lambda m, f: (id(m), f))
        return count

    def test_one_build_per_automaton_and_component(self, builds, fig2_text):
        spec = AlphabetSpec(2, 1)
        full = gen_known_rva("complement-full", 3, 1)
        delta = [list(row) for row in full.delta]
        delta[0][1] = 1  # as in TestComplementCheck: a complement prefix
        automata = [
            Automaton(spec, 2, 0, frozenset({0}), [[1, 1, 1], [0, 0, 0]]),  # not weak
            Automaton(spec, 1, 0, frozenset({0}), [[0, 0, 0]]),  # not shaped
            parse_automaton(fig2_text),  # a broken zero loop
            single_value_automaton(),  # a pair mismatch
            Automaton(full.alphabet, full.n, 0, full.accepting, delta),
            complement_root_automaton(),
            gen_known_rva("full-space", 2, 1),  # saturated
        ]
        kinds = set()
        for aut in automata:
            for mode, run in (
                ("parallel", check_rva_parallel),
                ("dim1", check_rva_dim1),
                ("complement", check_rva_complement_parallel),
            ):
                verdict = run(aut)
                kinds.add(verdict.answer or verdict.witness.kind)
                if not verdict.answer:
                    expand_witness(verdict, mode)
            assert minimal_form(aut) is minimal_form(aut)
        assert kinds == {
            True, "not-weak", "not-shape", "zero-loop-broken", "pair-mismatch",
            "complement-prefix", "complement-initial-language",
        }
        minimal_builds = {k: v for k, v in builds.items() if k[0] == "_minimal_form"}
        assert minimal_builds == {("_minimal_form", id(aut)): 1 for aut in automata}
        unions = {k[1]: v for k, v in builds.items() if k[0] == "_dual_fixings"}
        assert unions and set(unions.values()) == {1}
        requests = sum(v for k, v in builds.items() if k[0] == "dual_fixings")
        assert requests >= 2 * len(unions)  # parallel and dim1 at least: shared
        refinements = [v for k, v in builds.items() if k[0] == "refine_partition"]
        assert len(refinements) == len(unions) and set(refinements) == {1}

        for aut in automata[1:]:
            morphism = minimal_form(aut)
            assert not morphism.mapping.flags.writeable
            assert not morphism.target.table.flags.writeable
        m = minimal_form(single_value_automaton()).target
        union = dual_fixings(m, 0)[0]
        assert not union.table.flags.writeable
        assert not check._memo(union, "blocks", check._language_blocks).flags.writeable

    def test_equal_automata_share_nothing(self, builds):
        one, other = single_value_automaton(), single_value_automaton()
        assert one.structurally_equal(other)
        for aut in (one, other, one, other):
            check_rva_parallel(aut)
        assert minimal_form(one) is not minimal_form(other)
        assert builds["_minimal_form", id(one)] == builds["_minimal_form", id(other)] == 1
        unions = [k for k in builds if k[0] == "_dual_fixings"]
        assert len(unions) == 2


class TestCrossValidation:
    def test_checks_agree_with_oracle_sample(self):
        for b, d, enc in ((2, 1, "parallel"), (2, 2, "parallel"), (3, 1, "sequential"), (2, 2, "sequential")):
            check = check_rva_parallel if enc == "parallel" else check_rva_sequential
            for seed in range(40):
                aut = gen_random_weak(1 + seed % 8, b, d, enc, seed)
                verdict = check(aut)
                if verdict.answer:
                    assert saturation_oracle(aut).answer, (b, d, enc, seed)
                elif verdict.witness.kind != "not-weak":
                    expansion = expand_witness(verdict, enc)
                    assert expansion is not None, (b, d, enc, seed)
                    if expansion.kind == "equal-value-pair":
                        assert expansion.verify(verdict.minimized), (b, d, enc, seed)
                        assert expansion.verify(aut), (b, d, enc, seed)


@given(
    st.integers(0, 10**6), st.sampled_from([2, 3]), st.sampled_from([1, 2, 3]), st.integers(4, 24)
)
@settings(max_examples=80, deadline=None)
def test_parallelized_check_equals_the_sequential_check(seed, base, dim, n):
    seq = gen_random_sequential_shaped(n, base, dim, seed)
    vs = check_rva_sequential(seq)
    vp = check_rva_parallel(parallelize_automaton(seq))
    assert vs.answer == vp.answer, (vs.witness, vp.witness)
