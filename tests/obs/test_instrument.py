"""Traced runs: profiles, span accounting, and result invariance."""

import pytest

from repro.core.bdone import _run_flat, bdone
from repro.core.bdtwo import bdtwo
from repro.core.dominance import TriangleWorkspace
from repro.core.flat_dominance import FlatTriangleWorkspace
from repro.core.linear_time import linear_time, linear_time_checkpoint
from repro.core.near_linear import near_linear, near_linear_checkpoint
from repro.core.result import STAT_LP_INCLUDED
from repro.core.trace import INCLUDE
from repro.core.workspace import ArrayWorkspace, FlatWorkspace
from repro.graphs.generators import gnm_random_graph, power_law_graph
from repro.obs.report import profile_is_monotone, summarize
from repro.obs.telemetry import disable, telemetry_session

ALGORITHMS = [bdone, bdtwo, linear_time, near_linear]
PROFILED = [bdone, linear_time, near_linear]  # BDTwo has no live counters


@pytest.fixture(autouse=True)
def _clean_flag():
    disable()
    yield
    disable()


@pytest.fixture(scope="module")
def graph():
    return power_law_graph(1_500, beta=2.2, average_degree=6.0, seed=11)


@pytest.fixture(scope="module")
def batching_graph():
    # Wide enough degree-one frontiers that the flat BDOne/LinearTime
    # drivers resolve some of them in whole-array rounds.
    return power_law_graph(5_000, beta=2.1, average_degree=4.0, seed=1)


@pytest.fixture(scope="module")
def kernel_graph():
    # Sparse G(n, m): the exact rules stall early, so a checkpoint pauses
    # with most of the graph still live.
    return gnm_random_graph(1_500, 4_500, seed=1)


class TestResultInvariance:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_telemetry_never_changes_the_result(self, graph, batching_graph, algorithm):
        for g in (graph, batching_graph):
            plain = algorithm(g)
            with telemetry_session():
                traced = algorithm(g)
            assert traced.independent_set == plain.independent_set, g.name
            assert traced.upper_bound == plain.upper_bound, g.name
            assert traced.stats == plain.stats, g.name

    def test_batching_graph_reaches_batched_rounds(self, batching_graph):
        workspace = FlatWorkspace(batching_graph, track_degree_two=False)
        _run_flat(workspace)
        assert workspace._rounds > 0


class TestPhaseSpans:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_run_emits_the_phase_spans(self, graph, algorithm):
        with telemetry_session() as tele:
            algorithm(graph)
        names = {span.name for span in tele.spans}
        assert {"setup", "reduce", "replay", "extend"} <= names

    def test_reduce_span_snapshots_rule_counters(self, graph):
        with telemetry_session() as tele:
            result = linear_time(graph)
        reduce_span = next(s for s in tele.spans if s.name == "reduce")
        assert reduce_span.meta["counters"] == result.stats

    def test_span_total_close_to_result_elapsed(self, graph):
        with telemetry_session() as tele:
            result = linear_time(graph)
        total = tele.span_total(depth=0)
        # The spans cover everything but dispatch and result
        # materialisation; generous bound here, the bench harness checks
        # the 10% acceptance figure on plr-50k.
        assert total <= result.elapsed
        assert total >= 0.5 * result.elapsed

    def test_counters_match_result_stats(self, graph):
        with telemetry_session() as tele:
            result = near_linear(graph)
        assert tele.counters == result.stats


class TestPeelingProfiles:
    @pytest.mark.parametrize("algorithm", PROFILED)
    def test_profile_shape_and_monotonicity(self, graph, algorithm):
        with telemetry_session() as tele:
            algorithm(graph)
        assert len(tele.profiles) == 1
        profile = tele.profiles[0]
        samples = profile["samples"]
        assert len(samples) >= 2  # the t=0 point and the final sample
        assert profile_is_monotone(profile)
        # Final sample: the graph is fully consumed.
        events, live, live_edges, bound = samples[-1]
        assert live == 0 and live_edges == 0
        # The final bound equals the number of includes in the log, which
        # can only undercount the final |I| (extension adds vertices).
        assert bound >= 0

    def test_bound_column_never_increases(self, graph):
        with telemetry_session() as tele:
            linear_time(graph)
        bounds = [s[3] for s in tele.profiles[0]["samples"]]
        assert all(a >= b for a, b in zip(bounds, bounds[1:]))

    def test_first_sample_covers_the_post_setup_graph(self, graph):
        # Setup may already retire isolated vertices, so the t=0 point is
        # bounded by — not equal to — the input sizes.
        with telemetry_session() as tele:
            bdone(graph)
        _, live, live_edges, bound = tele.profiles[0]["samples"][0]
        assert 0 < live <= graph.n
        assert 0 < live_edges <= graph.m
        assert bound <= graph.n

    @pytest.mark.parametrize(
        "algorithm, oracle",
        [
            (bdone, ArrayWorkspace),
            (linear_time, ArrayWorkspace),
            (near_linear, TriangleWorkspace),
        ],
    )
    def test_flat_samples_match_the_oracle(self, graph, algorithm, oracle):
        profiles = []
        for factory in (None, oracle):
            with telemetry_session() as tele:
                algorithm(graph, workspace_factory=factory)
            profiles.append(tele.profiles[0]["samples"])
        assert profiles[0] == profiles[1]

    @pytest.mark.parametrize(
        "checkpoint, oracle",
        [
            (linear_time_checkpoint, ArrayWorkspace),
            (near_linear_checkpoint, TriangleWorkspace),
        ],
    )
    def test_checkpoint_samples_match_the_oracle(
        self, graph, kernel_graph, checkpoint, oracle
    ):
        for g in (graph, kernel_graph):
            runs = []
            for factory in (None, oracle):
                with telemetry_session() as tele:
                    paused = checkpoint(g, workspace_factory=factory)
                    at_stall = list(tele.profiles[0]["samples"])
                paused.resume()
                runs.append((at_stall, tele.profiles[0]["samples"]))
            (flat_stall, flat_done), (oracle_stall, oracle_done) = runs
            assert flat_stall == oracle_stall, g.name
            assert flat_done == oracle_done, g.name
            # setup, stall, resumed; the stall is where the kernel was taken
            assert len(flat_done) == 3
            assert flat_stall[-1][1] == paused.kernel.n
            assert flat_done[-1][1] == flat_done[-1][2] == 0
        assert flat_stall[-1][1] > 0  # the sparse graph stalls with a kernel

    def test_wrapped_near_linear_factory_takes_the_same_path(self, graph, kernel_graph):
        # A profiler times the set-up by wrapping the default workspace
        # class; NearLinear calls every factory as factory(graph, keep), so
        # the wrapped run builds the same masked workspace and takes the
        # same fused loop (a workspace of the exact class).
        built = []

        def timed(g, keep):
            built.append(FlatTriangleWorkspace(g, keep))
            return built[-1]

        for g in (graph, kernel_graph):
            runs = []
            for factory in (None, timed):
                with telemetry_session() as tele:
                    result = near_linear(g, workspace_factory=factory)
                runs.append((tele.profiles[0]["samples"], result.independent_set))
            assert runs[0] == runs[1], g.name
            assert built[-1].n == g.n  # the input's id space
        assert len(built) == 2

    @pytest.mark.parametrize("factory", [None, TriangleWorkspace])
    def test_near_linear_bound_counts_the_lp_includes(
        self, graph, kernel_graph, factory
    ):
        # The LP includes vertices before the main loop's workspace exists;
        # the bound must count them, so the final sample's bound is the
        # whole-graph log's include count and the first bounds the graph.
        for g in (graph, kernel_graph):
            with telemetry_session() as tele:
                log = near_linear_checkpoint(g, workspace_factory=factory).resume()
            assert log.stats[STAT_LP_INCLUDED] > 0, g.name
            samples = tele.profiles[0]["samples"]
            includes = [kind for kind, _ in log.entries].count(INCLUDE)
            assert samples[-1][1] == 0
            assert samples[-1][3] == includes, g.name
            assert samples[0][3] <= g.n

    def test_summarize_reports_the_profile(self, graph):
        with telemetry_session() as tele:
            linear_time(graph)
        summary = summarize(tele.to_records())
        assert len(summary["profiles"]) == 1
