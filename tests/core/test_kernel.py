"""Tests for the kernelization API and solution lifting."""

import pytest

from repro.analysis import is_independent_set, is_maximal_independent_set
from repro.core import kernelize
from repro.errors import ReproError
from repro.exact import brute_force_alpha, brute_force_mis
from repro.graphs import (
    cycle_graph,
    gnm_random_graph,
    paper_figure1,
    petersen_graph,
    power_law_graph,
    random_tree,
)

METHODS = ["degree_one", "linear_time", "near_linear"]


class TestKernelBasics:
    def test_unknown_method_raises(self):
        # The retired vectorized rule sets are as unknown as any other
        # name; the error lists the three that remain.
        for method in ("quantum", "linear_time_vec", "near_linear_vec"):
            with pytest.raises(
                ReproError,
                match=r"choose from \['degree_one', 'linear_time', 'near_linear'\]",
            ):
                kernelize(cycle_graph(5), method=method)

    @pytest.mark.parametrize("method", METHODS)
    def test_tree_kernels_are_empty(self, method):
        kr = kernelize(random_tree(50, seed=2), method=method)
        assert kr.is_solved
        assert kr.kernel_size == 0

    def test_petersen_kernel_is_whole_graph_for_weak_rules(self):
        kr = kernelize(petersen_graph(), method="degree_one")
        assert kr.kernel_size == 10

    def test_rule_strength_ordering(self):
        # Stronger rule sets never leave a larger kernel on these graphs.
        for seed in range(5):
            g = power_law_graph(800, 2.3, average_degree=7, seed=seed)
            sizes = [kernelize(g, method=m).kernel_size for m in METHODS]
            assert sizes[0] >= sizes[1] >= sizes[2]


class TestLifting:
    @pytest.mark.parametrize("method", METHODS)
    def test_lift_of_exact_kernel_solution_is_maximum(self, method):
        for seed in range(15):
            g = gnm_random_graph(14, 21, seed=seed)
            kr = kernelize(g, method=method)
            if kr.kernel.n > 24:
                continue
            kernel_best = brute_force_mis(kr.kernel)
            lifted = kr.lift(kernel_best)
            assert is_independent_set(g, lifted)
            assert len(lifted) == brute_force_alpha(g)

    @pytest.mark.parametrize("method", METHODS)
    def test_lift_of_empty_solution_is_valid_and_maximal(self, method):
        g = paper_figure1()
        kr = kernelize(g, method=method)
        lifted = kr.lift(())
        assert is_maximal_independent_set(g, lifted)

    def test_solved_kernel_lift_is_maximum(self):
        from repro.exact import forest_alpha

        g = random_tree(80, seed=9)
        kr = kernelize(g, method="near_linear")
        assert kr.is_solved
        assert len(kr.lift(())) == forest_alpha(g, list(range(g.n)))

    def test_lift_does_not_mutate_log(self):
        g = cycle_graph(12)
        kr = kernelize(g, method="degree_one")
        before = len(kr.log)
        kr.lift(range(min(1, kr.kernel.n)))
        assert len(kr.log) == before

    def test_lift_rejects_dependent_input(self):
        from repro.errors import NotASolutionError

        g = petersen_graph()
        kr = kernelize(g, method="degree_one")  # kernel == Petersen
        u, v = next(iter(kr.kernel.edges()))
        with pytest.raises(NotASolutionError):
            kr.lift({u, v})

    def test_lift_accepts_non_maximal_input(self):
        g = petersen_graph()
        kr = kernelize(g, method="degree_one")
        lifted = kr.lift({0})
        from repro.analysis import is_maximal_independent_set

        assert is_maximal_independent_set(g, lifted)  # extension fills in
