"""Tests for the kernel-boosted ARW variants (ARW-LT / ARW-NL)."""

import random

import pytest

from repro.analysis import is_independent_set
from repro.exact import brute_force_alpha
from repro.graphs import gnm_random_graph, path_graph, power_law_graph
from repro.localsearch import arw_lt, arw_nl, boosted_arw


@pytest.mark.parametrize("boost", [arw_lt, arw_nl])
class TestBoostedVariants:
    def test_solved_kernel_short_circuits(self, boost):
        g = path_graph(60)
        result = boost(g, time_budget=0.05, seed=1, max_iterations=2)
        assert result.size == 30
        assert result.kernel_result.is_solved
        # The first (and only) event is the full reduction's solution.
        assert result.recorder.events[0][1] == 30

    def test_valid_on_irreducible(self, boost):
        g = gnm_random_graph(50, 220, seed=5)
        result = boost(g, time_budget=0.1, seed=2, max_iterations=10)
        assert is_independent_set(g, result.independent_set)

    @pytest.mark.parametrize("seed", range(6))
    def test_never_exceeds_alpha(self, boost, seed):
        g = gnm_random_graph(14, 26, seed=seed)
        result = boost(g, time_budget=0.02, seed=seed, max_iterations=5)
        assert result.size <= brute_force_alpha(g)

    def test_first_solution_is_strong(self, boost):
        # On a mostly-reducible graph the boosted first solution should be
        # at least as large as the kernelization's own lift.
        g = power_law_graph(1500, 2.2, average_degree=7, seed=7)
        result = boost(g, time_budget=0.1, seed=3, max_iterations=5)
        assert result.recorder.first_event is not None
        first_size = result.recorder.first_event[1]
        assert result.size >= first_size


class TestBoostedDispatch:
    def test_method_names(self):
        g = path_graph(10)
        for method in ("linear_time", "near_linear"):
            result = boosted_arw(g, method, time_budget=0.02, max_iterations=2)
            assert result.kernel_result.method == method

    def test_events_lifted_to_full_graph_scale(self):
        # Events must be in full-graph sizes: monotone, ending at .size.
        g = gnm_random_graph(80, 200, seed=11)
        result = arw_nl(g, time_budget=0.1, seed=5, max_iterations=20)
        sizes = [s for _, s in result.recorder.events]
        assert sizes == sorted(sizes)
        assert sizes[-1] <= result.size + 1
        # And on one shared clock: timestamps never go backwards.
        times = [t for t, _ in result.recorder.events]
        assert times == sorted(times)


class TestSolvedKernelSkipsSecondRun:
    """A solved kernel is lifted instead of re-running the full algorithm."""

    @pytest.mark.parametrize(
        "boost, full",
        [(arw_lt, "linear_time"), (arw_nl, "near_linear")],
    )
    def test_solved_graph_answer_and_events_unchanged(self, boost, full):
        import repro.core as core

        g = power_law_graph(3000, 2.2, average_degree=4, seed=7)
        result = boost(g, time_budget=3600.0, max_iterations=20, rng=random.Random(3))
        assert result.kernel_result.is_solved
        expected = getattr(core, full)(g)
        assert result.independent_set == expected.independent_set
        assert [size for _, size in result.recorder.events] == [expected.size]

    def test_solved_graph_runs_no_full_solve(self, monkeypatch):
        from repro.localsearch import boosted

        def forbidden(*args, **kwargs):
            raise AssertionError("full algorithm re-run on a solved kernel")

        monkeypatch.setattr(boosted, "linear_time", forbidden)
        monkeypatch.setattr(boosted, "near_linear", forbidden)
        g = path_graph(60)
        for boost in (arw_lt, arw_nl):
            assert boost(g, time_budget=0.05, max_iterations=2).size == 30

    @pytest.mark.parametrize(
        "boost, expected",
        [
            (
                arw_lt,
                [0, 6, 7, 12, 15, 19, 20, 21, 23, 28, 30, 31, 33, 36, 37, 38, 40,
                 44, 45, 46, 51, 53, 54, 55, 58, 61, 62, 65, 67, 68, 69, 72, 73, 79],
            ),
            (
                arw_nl,
                [0, 6, 7, 12, 15, 19, 20, 21, 23, 28, 30, 31, 33, 36, 37, 38, 40,
                 44, 45, 46, 51, 53, 54, 55, 58, 61, 65, 67, 68, 69, 72, 73, 76, 79],
            ),
        ],
    )
    def test_unsolved_graph_answer_and_events_unchanged(self, boost, expected):
        # Pinned from the implementation that always re-ran the full solve.
        g = gnm_random_graph(80, 200, seed=11)
        result = boost(g, time_budget=3600.0, max_iterations=20, rng=random.Random(3))
        assert not result.kernel_result.is_solved
        assert sorted(result.independent_set) == expected
        assert [size for _, size in result.recorder.events] == [34]
