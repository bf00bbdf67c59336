"""Tests for the ARW local search and its data structures."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import is_independent_set
from repro.baselines import du
from repro.errors import NotASolutionError
from repro.exact import brute_force_alpha
from repro.graphs import (
    Graph,
    complete_bipartite_graph,
    cycle_graph,
    gnm_random_graph,
    path_graph,
    petersen_graph,
    star_graph,
)
from repro.localsearch import ConvergenceRecorder, LocalSearchState, arw
from repro.localsearch.arw import _random_block, _smallest_keys


class TestLocalSearchState:
    def test_tightness_tracking(self):
        g = star_graph(3)
        state = LocalSearchState(g, [0])
        assert state.tightness[1] == 1
        state.remove(0)
        assert state.tightness[1] == 0

    def test_insert_rejects_blocked_vertex(self):
        g = path_graph(2)
        state = LocalSearchState(g, [0])
        with pytest.raises(NotASolutionError):
            state.insert(1)

    def test_force_insert_evicts_neighbours(self):
        g = star_graph(3)
        state = LocalSearchState(g, [1, 2, 3])
        state.force_insert(0)
        assert state.solution() == {0}

    def test_double_insert_is_noop(self):
        g = path_graph(3)
        state = LocalSearchState(g, [0])
        state.insert(0)
        assert state.size == 1

    def test_one_tight_neighbors(self):
        # 0 in solution; 1 and 2 are its only blocked neighbours.
        g = Graph.from_edges(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
        state = LocalSearchState(g, [0])
        assert sorted(state.one_tight_neighbors(0)) == [1, 2]

    def test_find_one_two_swap(self):
        g = Graph.from_edges(3, [(0, 1), (0, 2)])
        state = LocalSearchState(g, [0])
        swap = state.find_one_two_swap(0)
        assert swap is not None
        state.apply_one_two_swap(0, *swap)
        assert state.solution() == {1, 2}

    def test_swap_requires_nonadjacent_candidates(self):
        g = Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
        state = LocalSearchState(g, [0])
        assert state.find_one_two_swap(0) is None

    def test_local_search_reaches_star_optimum(self):
        g = star_graph(5)
        state = LocalSearchState(g, [0])
        gained = state.local_search()
        assert state.size == 5
        assert gained == 4


class TestARW:
    def test_improves_du_on_bipartite(self):
        # DU may pick greedily into the small side; ARW recovers max(a,b).
        g = complete_bipartite_graph(4, 9)
        initial = du(g).independent_set
        best, recorder = arw(g, initial, time_budget=0.1, seed=1, max_iterations=20)
        assert len(best) == 9
        assert recorder.best_size == 9

    def test_solution_always_valid(self):
        for seed in range(6):
            g = gnm_random_graph(40, 120, seed=seed)
            best, _ = arw(g, du(g).independent_set, time_budget=0.05, seed=seed, max_iterations=10)
            assert is_independent_set(g, best)
            assert len(best) <= brute_force_alpha(g) if g.n <= 40 else True

    def test_never_worse_than_initial(self):
        g = petersen_graph()
        initial = {0}
        best, _ = arw(g, initial, time_budget=0.05, seed=2, max_iterations=10)
        assert len(best) >= 1

    def test_finds_cycle_optimum(self):
        g = cycle_graph(9)
        best, _ = arw(g, [0], time_budget=0.2, seed=3, max_iterations=50)
        assert len(best) == 4

    def test_recorder_events_are_monotone(self):
        g = gnm_random_graph(60, 150, seed=9)
        _, recorder = arw(g, [], time_budget=0.1, seed=4, max_iterations=30)
        sizes = [size for _, size in recorder.events]
        assert sizes == sorted(sizes)
        assert len(set(sizes)) == len(sizes)


class TestConvergenceRecorder:
    def test_records_only_improvements(self):
        recorder = ConvergenceRecorder()
        recorder.record(5)
        recorder.record(5)
        recorder.record(7)
        assert [size for _, size in recorder.events] == [5, 7]

    def test_size_at_budget(self):
        recorder = ConvergenceRecorder()
        recorder.events = [(0.1, 5), (0.5, 8), (2.0, 9)]
        assert recorder.size_at(1.0) == 8
        assert recorder.size_at(0.05) == 0

    def test_time_to_reach(self):
        recorder = ConvergenceRecorder()
        recorder.events = [(0.1, 5), (0.5, 8)]
        assert recorder.time_to_reach(6) == 0.5
        assert recorder.time_to_reach(9) is None

    def test_first_event_and_best(self):
        recorder = ConvergenceRecorder()
        assert recorder.first_event is None
        assert recorder.best_size == 0
        recorder.record(3)
        assert recorder.first_event[1] == 3


class TestPerturbationSelection:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_smallest_keys_is_the_lexsort_prefix(self, data):
        # Heavy ties on both keys, and k anywhere from 1 past the size.
        size = data.draw(st.integers(min_value=1, max_value=80))
        ages = data.draw(
            st.lists(st.integers(0, 3), min_size=size, max_size=size)
        )
        draws = data.draw(
            st.lists(st.sampled_from((0.0, 0.25, 0.5, 0.75)),
                     min_size=size, max_size=size)
        )
        k = data.draw(st.integers(min_value=1, max_value=size + 5))
        ages = np.array(ages, dtype=np.int64)
        draws = np.array(draws, dtype=np.float64)
        expected = np.lexsort((draws, ages))[:k]
        assert _smallest_keys(ages, draws, k).tolist() == expected.tolist()

    # Around MT19937's 624-word regeneration: a fresh generator sits at
    # position 624 and each value takes two words.
    DRAW_COUNTS = (0, 1, 311, 312, 313, 623, 624, 625, 14_500)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**64))
    def test_random_block_is_the_random_loop(self, seed):
        # Same values and same generator state afterwards as one
        # rng.random() call per value: from a fresh seed, and chained after
        # a gauss() call (which leaves gauss_next set) so every block
        # starts mid-buffer.
        mirror = np.random.RandomState(0)
        chained = random.Random(seed)
        chained_reference = random.Random(seed)
        chained.gauss(0.0, 1.0)
        chained_reference.gauss(0.0, 1.0)
        assert chained.getstate()[2] is not None
        for count in self.DRAW_COUNTS:
            for rng, reference in (
                (random.Random(seed), random.Random(seed)),
                (chained, chained_reference),
            ):
                expected = [reference.random() for _ in range(count)]
                assert _random_block(rng, mirror, count).tolist() == expected
                assert rng.getstate() == reference.getstate()
