"""Tests for the kernel-boosted ARW variants (ARW-LT / ARW-NL)."""

import hashlib
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
    """A solved kernel is lifted; an unsolved one resumes the same run."""

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

    def test_every_op_builds_one_reduction_workspace(self, monkeypatch):
        # One run gives both the kernel and, resumed, the seed: each op,
        # solved or not, constructs exactly one reduction workspace.
        from repro.core.dominance import TriangleWorkspace
        from repro.core.flat_dominance import FlatTriangleWorkspace
        from repro.core.workspace import ArrayWorkspace, FlatWorkspace

        built = []

        def counting(cls):
            init = cls.__init__

            def counted(self, *args, **kwargs):
                built.append(cls.__name__)
                init(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counted)

        for cls in (ArrayWorkspace, FlatWorkspace, TriangleWorkspace,
                    FlatTriangleWorkspace):
            counting(cls)
        graphs = [
            (path_graph(60), True),
            (power_law_graph(3000, 2.2, average_degree=4, seed=7), True),
            (gnm_random_graph(80, 200, seed=11), False),
        ]
        for boost, workspace in ((arw_lt, "FlatWorkspace"),
                                 (arw_nl, "FlatTriangleWorkspace")):
            for g, solved in graphs:
                del built[:]
                result = boost(g, time_budget=3600.0, max_iterations=5,
                               rng=random.Random(3))
                assert result.kernel_result.is_solved == solved
                assert built == [workspace], (boost.__name__, g.name)

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


@pytest.mark.parametrize("boost", [arw_lt, arw_nl])
def test_gnm_25k_run_is_pinned(boost):
    # Pinned from the implementation that ran kernelize and then the full
    # algorithm, exported kernels through np.lexsort and sorted every
    # outside vertex per perturbation (gnm-file's shape).
    g = gnm_random_graph(25000, 75000, seed=1)
    rng = random.Random(1)
    result = boost(g, time_budget=3600.0, max_iterations=30, rng=rng)
    assert result.kernel_result.kernel.n == 24100
    best = repr(sorted(result.independent_set)).encode()
    assert hashlib.sha256(best).hexdigest() == (
        "260afb9c1b82cdd72519aa53bffc6abd6ffa572de165e538a30bc42d4a2e0ae1"
    )
    assert [size for _, size in result.recorder.events] == [
        9900, 9918, 9919, 9920, 9921,
    ]
    assert hashlib.sha256(repr(rng.getstate()).encode()).hexdigest() == (
        "9c848952eaca8914322caccccb81ecad98a9543482b68daa7f46790bcaf1d4ae"
    )


@pytest.mark.parametrize("boost", [arw_lt, arw_nl])
def test_telemetry_leaves_results_unchanged(boost):
    # A traced run takes the same driver and samples its peeling profile
    # at setup, the stall and the resume; the answer must not change.
    from repro.obs.telemetry import get_telemetry, telemetry_session

    g = gnm_random_graph(3000, 9000, seed=3)
    plain_rng = random.Random(5)
    plain = boost(g, time_budget=3600.0, max_iterations=30, rng=plain_rng)
    traced_rng = random.Random(5)
    with telemetry_session("boosted") as telemetry:
        traced = boost(g, time_budget=3600.0, max_iterations=30, rng=traced_rng)
    assert get_telemetry() is None
    assert traced.independent_set == plain.independent_set
    assert [s for _, s in traced.recorder.events] == [
        s for _, s in plain.recorder.events
    ]
    assert traced_rng.getstate() == plain_rng.getstate()
    names = [span.name for span in telemetry.spans]
    assert names.count("kernelize") == names.count("resume") == 1
    assert [len(p["samples"]) for p in telemetry.profiles] == [3]


def _induce_by_loops(kernel, old_ids, full_solution):
    """The per-vertex projection the whole-array one replaced."""
    from repro.localsearch import LocalSearchState

    selected = set(full_solution)
    seed = {new for new, old in enumerate(old_ids) if old in selected}
    for v in sorted(seed):
        if v in seed and any(w in seed for w in kernel.neighbors(v)):
            seed.discard(v)
    state = LocalSearchState(kernel, seed)
    for v in range(kernel.n):
        if not state.in_solution[v] and state.tightness[v] == 0:
            state.insert(v)
    return state.solution()


@pytest.mark.parametrize("method", ["linear_time", "near_linear"])
def test_seed_projection_matches_the_loop_reference(method):
    # Random vertex sets (independent or not) clash on original and on
    # rewired kernel edges alike, so the discard pass does real work.
    from repro.core import kernelize
    from repro.localsearch.boosted import _induce_on_kernel

    clashes = 0
    for seed in range(12):
        g = gnm_random_graph(120, 300 + 20 * seed, seed=seed)
        kernel_result = kernelize(g, method)
        if kernel_result.is_solved:
            continue
        rng = random.Random(seed)
        for density in (0.1, 0.4, 0.8):
            chosen = {v for v in range(g.n) if rng.random() < density}
            expected = _induce_by_loops(
                kernel_result.kernel, kernel_result.old_ids, chosen
            )
            in_set = [v in chosen for v in range(g.n)]
            assert _induce_on_kernel(kernel_result, in_set) == expected
            seeded = {
                new for new, old in enumerate(kernel_result.old_ids) if old in chosen
            }
            clashes += any(
                w in seeded for v in seeded for w in kernel_result.kernel.neighbors(v)
            )
    assert clashes > 0
