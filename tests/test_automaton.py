import itertools
from collections import deque

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rvacheck.alphabet import BLANK, STAR, AlphabetSpec
from rvacheck.automaton import (
    DEEP_WALK_LEVELS,
    SMALL_TABLE_CELLS,
    Automaton,
    is_weak,
    reachable,
    sccs,
    strong_components,
    trim_accessible,
)
from rvacheck.oracle import gen_random_weak


def _tarjan_reference(succ):
    """Recursive Tarjan: the component and member order sccs must keep."""
    index, low, stack, scc_of, comps = {}, {}, [], [-1] * len(succ), []

    def visit(v):
        index[v] = low[v] = len(index)
        stack.append(v)
        for w in succ[v]:
            if w not in index:
                visit(w)
                low[v] = min(low[v], low[w])
            elif scc_of[w] < 0:
                low[v] = min(low[v], index[w])
        if low[v] == index[v]:
            comp = stack[stack.index(v):]
            del stack[stack.index(v):]
            for w in comp:
                scc_of[w] = len(comps)
            comps.append(comp)

    for v in range(len(succ)):
        if v not in index:
            visit(v)
    return scc_of, comps


def _assert_components(succ, scc_of, components):
    graph = nx.DiGraph()
    graph.add_nodes_from(range(len(succ)))
    graph.add_edges_from((v, w) for v, row in enumerate(succ) for w in row)
    expected = {frozenset(c) for c in nx.strongly_connected_components(graph)}
    assert {frozenset(c) for c in components} == expected
    # reverse topological: every edge leaving a component goes to an
    # earlier-emitted component
    for cid, comp in enumerate(components):
        for v in comp:
            for w in succ[v]:
                assert scc_of[w] <= cid
    assert (scc_of, components) == _tarjan_reference(succ)


class TestAlphabet:
    def test_star_is_last(self):
        spec = AlphabetSpec(2, 1)
        assert spec.letter_index(STAR) == 2
        assert list(spec.letters()) == [(0,), (1,), STAR]

    def test_component_zero_major_order(self):
        spec = AlphabetSpec(2, 2)
        assert spec.letter_index((1, 0)) == 2
        assert spec.letter_index((0, 1)) == 1

    def test_fixed_component_indexing(self):
        spec = AlphabetSpec(2, 2, fixed=frozenset({0}))
        assert spec.num_letters == 3
        assert spec.letter_index((BLANK, 1)) in (0, 1)
        with pytest.raises(ValueError):
            spec.letter_index((1, 1))

    @pytest.mark.parametrize(
        "spec",
        [
            AlphabetSpec(2, 1),
            AlphabetSpec(3, 2),
            AlphabetSpec(2, 3, fixed=frozenset({1})),
            AlphabetSpec(3, 2, "sequential"),
            AlphabetSpec(2, 2, "sequential", frozenset({1})),
        ],
    )
    def test_index_bijection(self, spec):
        seen = [spec.letter_index(a) for a in spec.letters()]
        assert sorted(seen) == list(range(spec.num_letters))
        for i in range(spec.num_letters):
            assert spec.letter_index(spec.letter_at(i)) == i

    def test_letter_counts(self):
        assert AlphabetSpec(3, 2).num_letters == 10
        assert AlphabetSpec(3, 2, "sequential").num_letters == 4
        assert AlphabetSpec(2, 3, fixed=frozenset({2})).num_letters == 5

    def test_parse_format_round_trip(self):
        spec = AlphabetSpec(3, 2)
        for letter in spec.letters():
            assert spec.parse_letter(spec.format_letter(letter)) == letter

    def test_bad_specs(self):
        with pytest.raises(ValueError):
            AlphabetSpec(1, 1)
        with pytest.raises(ValueError):
            AlphabetSpec(2, 0)
        with pytest.raises(ValueError):
            AlphabetSpec(2, 2, fixed=frozenset({5}))
        with pytest.raises(ValueError):
            AlphabetSpec(2, 3, "sequential", frozenset({0}))


class TestSteps:
    def test_fig2_single_steps(self, fig2):
        assert fig2.step(0, (2,)) == 3
        assert fig2.step(0, (0,)) == 1

    def test_fig2_run_prefix(self, fig2):
        assert fig2.run_prefix(0, [(0,), (1,)]) == 3
        assert fig2.run_prefix(4, []) == 4

    def test_run_prefix_fold_law(self, fig2):
        letters = list(fig2.alphabet.letters())
        for u, v in itertools.product(
            itertools.product(letters, repeat=2), itertools.product(letters, repeat=1)
        ):
            assert fig2.run_prefix(0, u + v) == fig2.run_prefix(fig2.run_prefix(0, u), v)

    def test_sink_stays_put(self, fig2):
        for letter in fig2.alphabet.letters():
            assert fig2.step(6, letter) == 6

    def test_totality_validated(self):
        spec = AlphabetSpec(2, 1)
        with pytest.raises(ValueError):
            Automaton(spec, 2, 0, frozenset(), [[0, 1, 5], [0, 0, 0]])
        with pytest.raises(ValueError):
            Automaton(spec, 2, 0, frozenset(), [[0, 1], [0, 0, 0]])


class TestSccs:
    def test_fig2_classification(self, fig2):
        info = sccs(fig2)
        groups = {frozenset(c) for c in info.components}
        assert groups == {
            frozenset({0}),
            frozenset({1, 2}),
            frozenset({3, 4}),
            frozenset({5}),
            frozenset({6}),
        }
        by_state = {q: info.scc_of[q] for q in range(7)}
        assert not info.recurrent[by_state[0]]
        for q in (1, 3, 6):  # rejecting recurrent
            assert info.recurrent[by_state[q]] and not info.accepting[by_state[q]]
        assert info.accepting[by_state[5]]

    def test_single_accepting_loop(self):
        spec = AlphabetSpec(2, 1)
        aut = Automaton(spec, 1, 0, frozenset({0}), [[0, 0, 0]])
        info = sccs(aut)
        assert len(info.components) == 1 and info.accepting[0]

    def test_dag_automaton_all_transient_but_sink(self):
        spec = AlphabetSpec(2, 1)
        delta = [[1, 1, 1], [2, 2, 2], [2, 2, 2]]
        info = sccs(Automaton(spec, 3, 0, frozenset(), delta))
        flags = [not info.recurrent[info.scc_of[q]] for q in range(3)]
        assert flags == [True, True, False]

    @given(
        st.integers(0, 500),
        st.integers(1, 10),
        st.sampled_from([2, 3]),
        st.sampled_from([1, 2]),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_networkx(self, seed, n, base, dim):
        # d=2 rows have width 5 (base 2) or 10 (base 3)
        aut = gen_random_weak(n, base, dim, "parallel", seed)
        info = sccs(aut)
        _assert_components(aut.delta, info.scc_of, info.components)

    @given(st.integers(0, 500), st.integers(1, 8), st.sampled_from([1, 2]))
    @settings(max_examples=40, deadline=None)
    def test_product_graph_matches_networkx(self, seed, n, dim):
        # a two-run product graph, like those the oracle's lasso search walks
        a = gen_random_weak(n, 2, dim, "parallel", seed)
        b = gen_random_weak(1 + seed % 7, 2, dim, "parallel", seed + 1)
        order = [(a.initial, b.initial)]
        ids = {order[0]: 0}
        succ = []
        for x, y in order:
            row = []
            for t in zip(a.delta[x], b.delta[y]):
                if t not in ids:
                    ids[t] = len(order)
                    order.append(t)
                row.append(ids[t])
            succ.append(row)
        _assert_components(succ, *strong_components(succ))


class TestWeakness:
    def test_fig2_weak(self, fig2):
        assert is_weak(fig2)

    def test_mixed_scc_not_weak(self):
        spec = AlphabetSpec(2, 1)
        delta = [[1, 1, 1], [0, 0, 0]]
        aut = Automaton(spec, 2, 0, frozenset({0}), delta)
        assert not is_weak(aut)

    def test_empty_accepting_weak(self):
        spec = AlphabetSpec(2, 1)
        aut = Automaton(spec, 1, 0, frozenset(), [[0, 0, 0]])
        assert is_weak(aut)

    @given(st.integers(0, 300), st.integers(1, 8))
    @settings(max_examples=40, deadline=None)
    def test_generated_always_weak(self, seed, n):
        assert is_weak(gen_random_weak(n, 2, 1, "parallel", seed))

    @given(st.integers(0, 300), st.integers(1, 8), st.data())
    @settings(max_examples=60, deadline=None)
    def test_flag_matches_definition(self, seed, n, data):
        base = gen_random_weak(n, 2, 1, "parallel", seed)
        accepting = data.draw(st.frozensets(st.integers(0, n - 1)))
        aut = Automaton(base.alphabet, n, 0, accepting, base.delta)
        info = sccs(aut)
        expected = all(
            accepting.isdisjoint(comp) or accepting.issuperset(comp)
            for comp in info.components
        )
        assert info.weak == is_weak(aut, info) == expected


class TestLassoAcceptance:
    def test_fig2_paper_words(self, fig2):
        assert fig2.accepts_lasso([(2,), STAR], [(1,)])
        assert not fig2.accepts_lasso([(0,)], [(1,)])
        assert not fig2.accepts_lasso([], [(0,), (1,)])

    def test_period_must_be_nonempty(self, fig2):
        with pytest.raises(ValueError):
            fig2.accepts_lasso([(0,)], [])

    @given(st.integers(0, 200), st.data())
    @settings(max_examples=60, deadline=None)
    def test_rotation_and_unrolling_invariance(self, seed, data):
        aut = gen_random_weak(data.draw(st.integers(1, 6)), 2, 1, "parallel", seed)
        letters = list(aut.alphabet.letters())
        u = data.draw(st.lists(st.sampled_from(letters), max_size=4))
        v = data.draw(st.lists(st.sampled_from(letters), min_size=1, max_size=3))
        base = aut.accepts_lasso(u, v)
        assert aut.accepts_lasso(u + v, v) == base
        assert aut.accepts_lasso(u, v + v) == base
        assert aut.accepts_lasso(u + v[:1], v[1:] + v[:1]) == base


class TestTrim:
    def test_identity_when_all_reachable(self, fig2):
        trimmed, mapping = trim_accessible(fig2)
        assert trimmed is fig2
        assert mapping is None

    def test_drops_unreachable(self):
        spec = AlphabetSpec(2, 1)
        delta = [[0, 0, 1], [1, 1, 1], [0, 1, 2]]  # state 2 unreachable
        aut = Automaton(spec, 3, 0, frozenset({1}), delta)
        trimmed, mapping = trim_accessible(aut)
        assert trimmed.n == 2
        assert mapping.tolist() == [0, 1, -1]
        letters = list(spec.letters())
        for u in itertools.product(letters, repeat=2):
            for v in itertools.product(letters, repeat=2):
                assert aut.accepts_lasso(u, v) == trimmed.accepts_lasso(u, v)

    def test_keeps_relative_order(self):
        spec = AlphabetSpec(2, 1)
        # from 3, BFS finds 1 before 0; state 2 is unreachable
        delta = [[0, 0, 0], [1, 1, 1], [2, 2, 2], [1, 0, 3]]
        aut = Automaton(spec, 4, 3, frozenset({0}), delta)
        trimmed, mapping = trim_accessible(aut)
        assert mapping.tolist() == [0, 1, -1, 2]
        assert trimmed.initial == 2
        assert trimmed.delta == [[0, 0, 0], [1, 1, 1], [1, 0, 2]]


def fifo_search(rows, roots):
    """Plain breadth-first search with a first-in first-out queue."""
    order = list(dict.fromkeys(roots))
    seen, queue = set(order), deque(order)
    while queue:
        for t in rows[queue.popleft()]:
            if t not in seen:
                seen.add(t)
                order.append(t)
                queue.append(t)
    return order


class TestReachable:
    def assert_fifo(self, rows, roots):
        got = reachable(np.array(rows, dtype=np.int64), roots)
        assert got.dtype == np.int64
        assert got.tolist() == fifo_search(rows, roots)

    def test_random_tables_on_both_sides_of_the_gate(self):
        rng = np.random.default_rng(7)
        for width in (1, 2, 3, 5):
            small, large = SMALL_TABLE_CELLS // width - 1, SMALL_TABLE_CELLS // width + 1
            for n in (1, 2, 9, 60, small, large, 5000):
                rows = rng.integers(0, n, size=(n, width)).tolist()
                roots = rng.integers(0, n, size=4).tolist()
                self.assert_fifo(rows, roots[:1])
                self.assert_fifo(rows, roots + roots[::-1])  # duplicate roots

    def test_first_occurrence_within_a_level(self):
        # level 1 is [1, 2]; 3 is reached from 1 on letter 0 and from 2 on
        # letter 1, so it comes before 5 and 4
        head = [[1, 2], [3, 5], [4, 3], [3, 3], [4, 4], [5, 5]]
        for pad in (0, SMALL_TABLE_CELLS):  # unreached self-loops cross the gate
            rows = head + [[q, q] for q in range(len(head), len(head) + pad)]
            assert reachable(np.array(rows), (0,)).tolist() == [0, 1, 2, 3, 5, 4]
            self.assert_fifo(rows, (2, 0, 2, 1))

    def test_deep_walks_finish_on_rows(self):
        rng = np.random.default_rng(3)
        for n in (DEEP_WALK_LEVELS + 1, 3 * DEEP_WALK_LEVELS, SMALL_TABLE_CELLS, 20000):
            # letter 0 walks down a chain, letter 1 leads back up it
            rows = [[min(q + 1, n - 1), int(rng.integers(0, q + 1))] for q in range(n)]
            self.assert_fifo(rows, (0,))
            self.assert_fifo(rows, (n // 2, 0, n // 2))
