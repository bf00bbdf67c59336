"""Differential tests: FlatLocalSearchState vs. the legacy oracle.

:class:`~repro.localsearch.flat_state.FlatLocalSearchState` (the CSR /
incremental-1-tight-index backend ARW runs on by default) must make the
*identical move sequence* as the legacy
:class:`~repro.localsearch.arw.LocalSearchState` — same swaps in the same
order, so under a shared RNG seed the two ARW runs consume the same random
stream and land on the same solutions.  These tests assert that on 20+
seeded generator graphs, at every level: elementary moves, the (1,2)-swap
scan, one local-search exhaust, and full ``arw`` / ``arw_lt`` / ``arw_nl``
trajectories.  They also check the flat state's dirty-vertex worklist is
sound (every exhaust leaves nothing for a full-scan oracle to find),
that the whole-array state build equals one insert() per initial vertex,
and that the whole-array perturbation picks what sorting by
``(age, rng.random())`` picks.
"""

import random
from array import array

import numpy as np
import pytest

from repro.analysis import assert_valid_solution
from repro.errors import NotASolutionError
from repro.graphs.generators import (
    gnm_random_graph,
    power_law_graph,
    web_like_graph,
)
from repro.localsearch import FlatLocalSearchState, arw, arw_lt, arw_nl
from repro.localsearch.arw import LocalSearchState, _perturb


def _corpus():
    """20+ small seeded graphs spanning the generator families."""
    graphs = []
    for seed in range(8):
        graphs.append(gnm_random_graph(60 + 5 * seed, 150 + 12 * seed, seed=seed))
    for seed in range(8):
        graphs.append(
            power_law_graph(70 + 5 * seed, beta=2.1 + (seed % 4) * 0.2,
                            average_degree=3.5 + (seed % 3), seed=seed)
        )
    for seed in range(6):
        graphs.append(web_like_graph(65 + 5 * seed, attach=2 + seed % 3, seed=seed))
    return graphs


CORPUS = _corpus()


def _greedy_maximal(graph):
    """Deterministic id-order greedy maximal independent set."""
    taken = bytearray(graph.n)
    solution = []
    for v in range(graph.n):
        if not taken[v]:
            solution.append(v)
            taken[v] = 1
            for w in graph.neighbors(v):
                taken[w] = 1
    return solution


def _assert_states_equal(flat, oracle, context):
    assert flat.size == oracle.size, context
    assert flat.in_solution == oracle.in_solution, context
    assert flat.tightness == oracle.tightness, context
    assert flat._last_outside == oracle._last_outside, context


def test_corpus_is_large_enough():
    assert len(CORPUS) >= 20


def _insert_loop_build(graph, initial):
    """The per-vertex construction the whole-array build replaced: empty
    bookkeeping, every vertex marked, then one insert() per initial vertex."""
    n = graph.n
    state = FlatLocalSearchState.__new__(FlatLocalSearchState)
    state.graph = graph
    state.xadj, state.adj = graph.flat_csr()
    state.in_solution = bytearray(n)
    state.tightness = [0] * n
    state.size = 0
    state._last_outside = array("q", bytes(8 * n))
    state._one_tight_count = [0] * n
    state._one_holder = [0] * n
    state._stamp = [0] * n
    state._clock = 0
    state._free_marks = list(range(n))
    state._swap_marks = state._free_marks[:]
    state._queued = bytearray(b"\x01") * n
    for v in initial:
        state.insert(v)
    return state


def test_whole_array_build_equals_the_insert_loop():
    # Maximal, non-maximal (free vertices left) and shuffled initial sets,
    # with repeated ids; the 1-tight holder is only defined, and only
    # read, for 1-tight vertices.
    for graph in CORPUS:
        rng = random.Random(graph.n)
        greedy = _greedy_maximal(graph)
        shuffled = rng.sample(greedy, len(greedy))
        partial = greedy[::2]
        for initial in (greedy, shuffled, partial + partial[::3], []):
            built = FlatLocalSearchState(graph, initial)
            reference = _insert_loop_build(graph, initial)
            context = (graph.name, len(initial))
            assert built.in_solution == reference.in_solution, context
            assert built.tightness == reference.tightness, context
            assert built.size == reference.size, context
            assert built._last_outside == reference._last_outside, context
            assert built._one_tight_count == reference._one_tight_count, context
            for w in range(graph.n):
                if built.tightness[w] == 1:
                    assert built._one_holder[w] == reference._one_holder[w], (
                        context, w,
                    )
            assert built._free_marks == reference._free_marks, context
            assert built._swap_marks == reference._swap_marks, context
            assert built._queued == reference._queued, context
            assert built.solution() == reference.solution() == set(initial)


def test_non_independent_initial_is_rejected():
    for graph in CORPUS[::4]:
        u = next(v for v in range(graph.n) if graph.degree(v))
        clashing = _greedy_maximal(graph) + [graph.neighbors(u)[0], u]
        with pytest.raises(NotASolutionError):
            _insert_loop_build(graph, clashing)
        with pytest.raises(NotASolutionError, match="not independent"):
            FlatLocalSearchState(graph, clashing)


def test_elementary_moves_agree():
    # Drive both states through the same scripted insert/remove/force_insert
    # sequence and compare the full bookkeeping after every move.
    for graph in CORPUS[::4]:
        seed_solution = _greedy_maximal(graph)
        flat = FlatLocalSearchState(graph, seed_solution)
        oracle = LocalSearchState(graph, seed_solution)
        _assert_states_equal(flat, oracle, graph.name)
        rng = random.Random(17)
        for step in range(60):
            v = rng.randrange(graph.n)
            if oracle.in_solution[v]:
                flat.remove(v, clock=step)
                oracle.remove(v, clock=step)
            else:
                flat.force_insert(v, clock=step)
                oracle.force_insert(v, clock=step)
            _assert_states_equal(flat, oracle, (graph.name, step, v))
        assert flat.solution() == oracle.solution()


def test_insert_rejects_non_solution_vertex():
    graph = gnm_random_graph(30, 60, seed=3)
    seed_solution = _greedy_maximal(graph)
    flat = FlatLocalSearchState(graph, seed_solution)
    blocked = next(v for v in range(graph.n) if flat.tightness[v] > 0)
    with pytest.raises(NotASolutionError):
        flat.insert(blocked)


def test_swap_scan_returns_identical_pairs():
    # The incremental index plus stamp array must pick the exact pair the
    # oracle's set-based scan picks (first u in adjacency order with a
    # partner, first such partner) — or agree there is none.
    for graph in CORPUS[::3]:
        seed_solution = _greedy_maximal(graph)
        flat = FlatLocalSearchState(graph, seed_solution)
        oracle = LocalSearchState(graph, seed_solution)
        for x in range(graph.n):
            if not oracle.in_solution[x]:
                continue
            assert flat.one_tight_neighbors(x) == oracle.one_tight_neighbors(x)
            assert flat.find_one_two_swap(x) == oracle.find_one_two_swap(x), (
                graph.name,
                x,
            )


def test_local_search_exhaust_agrees():
    for graph in CORPUS:
        seed_solution = _greedy_maximal(graph)
        flat = FlatLocalSearchState(graph, seed_solution)
        oracle = LocalSearchState(graph, seed_solution)
        gained_flat = flat.local_search()
        gained_oracle = oracle.local_search()
        assert gained_flat == gained_oracle, graph.name
        _assert_states_equal(flat, oracle, graph.name)
        assert_valid_solution(graph, flat.solution())


def _recording_factory(base):
    """A ``state_factory`` over ``base`` that logs every construction and
    every forced pick as ``(clock, vertex)``."""
    log = []

    class Recording(base):
        __slots__ = ()

        def force_insert(self, v, clock=0):
            log.append((clock, v))
            base.force_insert(self, v, clock)

    def factory(graph, initial):
        log.append("construct")
        return Recording(graph, initial)

    return factory, log


def test_arw_trajectories_identical_under_fixed_seed():
    # The headline claim: same RNG seed => the same forced pick in every
    # perturbation, the same improvement sizes, the same best set and the
    # same final RNG state, on every graph, over hundreds of iterations.
    restarts = 0
    for graph in CORPUS:
        initial = _greedy_maximal(graph)
        runs = []
        for base in (FlatLocalSearchState, LocalSearchState):
            factory, log = _recording_factory(base)
            rng = random.Random(11)
            best, recorder = arw(
                graph,
                initial,
                time_budget=3600.0,
                max_iterations=200,
                state_factory=factory,
                rng=rng,
            )
            sizes = [size for _, size in recorder.events]
            runs.append((log, best, sizes, rng.getstate()))
        flat_run, oracle_run = runs
        assert flat_run == oracle_run, graph.name
        log, best, _, _ = flat_run
        # Every one of the 200 iterations perturbed.
        clocks = {entry[0] for entry in log if entry != "construct"}
        assert clocks == set(range(1, 201)), graph.name
        assert_valid_solution(graph, best)
        restarts += log.count("construct") - 1
    # The restart-from-best branch (state_factory(graph, best)) is covered.
    assert restarts >= 1


def test_perturbation_picks_as_sorting_by_age_then_draw():
    # _perturb must pick what sorting the outside vertices by
    # (age, rng.random()) picks, drawing in index order, and leave the RNG
    # in the same state — with heavy age ties, on both state classes.
    for graph in CORPUS[::3]:
        for base in (FlatLocalSearchState, LocalSearchState):
            factory, log = _recording_factory(base)
            state = factory(graph, _greedy_maximal(graph))
            ages = random.Random(graph.n)
            for v in range(graph.n):
                state._last_outside[v] = ages.randrange(3)
            for clock, strength in enumerate((1, 2, 3, 5, 1, 4), start=1):
                outside = [v for v in range(graph.n) if not state.in_solution[v]]
                reference = random.Random(clock)
                outside.sort(
                    key=lambda v: (state._last_outside[v], reference.random())
                )
                expected = [(clock, v) for v in outside[:strength]]
                rng = random.Random(clock)
                del log[:]
                mirror = np.random.RandomState(0)
                assert _perturb(state, strength, rng, mirror, clock)
                assert log == expected, (graph.name, clock)
                assert rng.getstate() == reference.getstate()


def test_arw_result_is_pinned():
    # Pinned from the implementation that sorted every outside vertex by
    # (age, rng.random()) and rescanned all vertices per exhaust.
    graph = gnm_random_graph(120, 300, seed=5)
    rng = random.Random(9)
    best, recorder = arw(
        graph,
        _greedy_maximal(graph),
        time_budget=3600.0,
        max_iterations=200,
        rng=rng,
    )
    assert sorted(best) == [
        1, 3, 5, 7, 9, 11, 12, 13, 16, 17, 22, 24, 27, 28, 29, 30, 33, 36,
        40, 41, 42, 45, 47, 50, 51, 55, 56, 59, 65, 66, 70, 71, 73, 76, 81,
        82, 83, 84, 86, 89, 91, 92, 95, 96, 98, 101, 103, 111, 112, 113,
        116, 119,
    ]
    assert [size for _, size in recorder.events] == [50, 51, 52]
    assert rng.random() == 0.9945352859422412


def test_flat_local_search_is_sound_after_every_perturbation():
    # After every flat exhaust in a perturbed run, a fresh full-scan oracle
    # from the same solution finds nothing, the 1-tight index matches a
    # recount from scratch, and the worklist is drained.
    class Checked(FlatLocalSearchState):
        __slots__ = ()

        def local_search(self):
            gained = FlatLocalSearchState.local_search(self)
            graph = self.graph
            solution = self.solution()
            assert LocalSearchState(graph, solution).local_search() == 0
            for x in solution:
                one_tight = [
                    w for w in graph.neighbors(x) if self.tightness[w] == 1
                ]
                assert self._one_tight_count[x] == len(one_tight), x
                for w in one_tight:
                    assert self._one_holder[w] == x, (x, w)
            assert not self._free_marks and not self._swap_marks
            assert not any(self._queued)
            return gained

    for graph in CORPUS[::2]:
        best, _ = arw(
            graph,
            _greedy_maximal(graph),
            time_budget=3600.0,
            max_iterations=40,
            state_factory=Checked,
            rng=random.Random(3),
        )
        assert_valid_solution(graph, best)


def test_scripted_moves_then_exhaust_agree():
    # Plain remove()/force_insert() outside ARW's compound moves (a removed
    # vertex is left free) must still be picked up by the next exhaust.
    for graph in CORPUS[1::4]:
        seed_solution = _greedy_maximal(graph)
        flat = FlatLocalSearchState(graph, seed_solution)
        oracle = LocalSearchState(graph, seed_solution)
        assert flat.local_search() == oracle.local_search()
        rng = random.Random(23)
        for step in range(40):
            v = rng.randrange(graph.n)
            if oracle.in_solution[v]:
                flat.remove(v, clock=step)
                oracle.remove(v, clock=step)
            else:
                flat.force_insert(v, clock=step)
                oracle.force_insert(v, clock=step)
            if step % 8 == 7:
                assert flat.local_search() == oracle.local_search()
            _assert_states_equal(flat, oracle, (graph.name, step, v))


def test_boosted_variants_agree_across_state_factories():
    for graph in CORPUS[::5]:
        for variant in (arw_lt, arw_nl):
            flat = variant(
                graph,
                time_budget=3600.0,
                max_iterations=15,
                rng=random.Random(5),
            )
            oracle = variant(
                graph,
                time_budget=3600.0,
                max_iterations=15,
                state_factory=LocalSearchState,
                rng=random.Random(5),
            )
            context = (graph.name, variant.__name__)
            assert flat.independent_set == oracle.independent_set, context
            sizes_flat = [size for _, size in flat.recorder.events]
            sizes_oracle = [size for _, size in oracle.recorder.events]
            assert sizes_flat == sizes_oracle, context
            assert_valid_solution(graph, flat.independent_set)
