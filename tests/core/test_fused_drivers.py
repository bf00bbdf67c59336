"""Lockstep tests: each fused flat driver against its generic loop.

``near_linear._main_loop_flat`` and ``linear_time._reduce_flat`` inline
the worklist pops, the deletions and every Lemma 4.1 case that the
generic loops reach through workspace methods and the shared path
driver.  Here both drivers of a pair run on two copies of the *same*
flat workspace and must leave it in the same state: decision entries,
rule counters, worklists, live flags, triangle sums and the exported
kernel.  NearLinear runs with ``preprocess=False`` shapes (the workspace
is built on the raw graph), so the loop itself meets the triangle
deletions, the dominance pops and the even-path ``settle_new_edge``
calls that phases 1–2 would otherwise settle.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.dominance import TriangleWorkspace
from repro.core.flat_dominance import FlatTriangleWorkspace
from repro.core.linear_time import (
    _reduce,
    _reduce_flat,
    linear_time,
    linear_time_checkpoint,
    linear_time_reduce,
)
from repro.core.near_linear import (
    _main_loop,
    _main_loop_flat,
    near_linear,
    near_linear_checkpoint,
    near_linear_reduce,
)
from repro.core.result import KNOWN_STAT_KEYS, STAT_DOMINANCE, STAT_PATH_EVEN_NO_EDGE
from repro.core.trace import EXCLUDE, INCLUDE
from repro.core.workspace import ArrayWorkspace, FlatWorkspace
from repro.graphs import (
    Graph,
    GraphBuilder,
    cycle_graph,
    gnm_random_graph,
    path_graph,
    power_law_graph,
    star_graph,
)

SETTINGS = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

FAMILIES = ["cliques", "powerlaw", "gnm"]


def _cliques_joined_by_paths(rng: random.Random):
    """Cliques of 3–6 vertices in a ring, consecutive ones joined by paths
    of 0–4 interior vertices, plus paths that leave and re-enter one clique
    (a one-vertex such path is a degree-two vertex on a triangle)."""
    sizes = [rng.randrange(3, 7) for _ in range(rng.randrange(2, 6))]
    builder = GraphBuilder(sum(sizes), name="cliques-joined-by-paths")
    starts = []
    base = 0
    for size in sizes:
        for a in range(base, base + size):
            for b in range(a + 1, base + size):
                builder.add_edge(a, b)
        starts.append(base)
        base += size
    joins = [(i, (i + 1) % len(sizes)) for i in range(len(sizes))]
    joins += [(i, i) for i in range(len(sizes)) if rng.random() < 0.5]
    for i, j in joins:
        a = starts[i] + rng.randrange(sizes[i])
        b = starts[j] + rng.randrange(sizes[j])
        prev = a
        for _ in range(rng.randrange(1 if i == j else 0, 5)):
            w = builder.add_vertex()
            builder.add_edge(prev, w)
            prev = w
        if prev != b:
            builder.add_edge(prev, b)
    return builder.build()


def _graph(family: str, seed: int):
    rng = random.Random(seed)
    if family == "cliques":
        return _cliques_joined_by_paths(rng)
    n = rng.randrange(20, 90)
    average_degree = rng.uniform(2.0, 12.0)
    if family == "powerlaw":
        return power_law_graph(
            n, beta=rng.choice((2.1, 2.4, 2.7)), average_degree=average_degree,
            seed=seed,
        )
    return gnm_random_graph(n, int(n * average_degree / 2), seed=seed)


# The six Lemma 4.1 case counters.
PATH_RULES = sorted(key for key in KNOWN_STAT_KEYS if key.startswith("path:"))


def _near_linear_state(workspace: FlatTriangleWorkspace):
    return (
        list(workspace.log.entries),
        dict(workspace.log.stats),
        list(workspace.dominated),
        bytes(workspace.alive),
        list(workspace._tsum),
        workspace.export_kernel(),
    )


def _linear_time_state(workspace: FlatWorkspace):
    return (
        list(workspace.log.entries),
        dict(workspace.log.stats),
        bytes(workspace.alive),
        workspace.export_kernel(),
    )


class TestNearLinearFusedLoop:
    @SETTINGS
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        family=st.sampled_from(FAMILIES),
        stop_before_peel=st.booleans(),
    )
    def test_lockstep_with_generic_loop(self, seed, family, stop_before_peel):
        graph = _graph(family, seed)
        generic = FlatTriangleWorkspace(graph)
        fused = FlatTriangleWorkspace(graph)
        assert _main_loop(generic, stop_before_peel) == _main_loop_flat(
            fused, stop_before_peel
        )
        assert _near_linear_state(fused) == _near_linear_state(generic)

    def test_families_reach_every_inlined_branch(self):
        # The generic loop reaches the same events the fused one inlines;
        # count them on a subclass (which the fused loop never sees).
        counts = {
            "triangle_deletions": 0,
            "settle_new_edge": 0,
            "settle_shared": 0,
            "zero_after_triangle_deletion": 0,
            "zero_after_plain_deletion": 0,
        }

        class Counting(FlatTriangleWorkspace):
            __slots__ = ()

            def delete_vertex(self, u, reason="exclude"):
                # A live neighbour of degree one reaches degree 0 here.
                zeros = sum(self.deg[v] == 1 for v in self.live_neighbors(u))
                if self._tsum[u]:
                    counts["triangle_deletions"] += 1
                    counts["zero_after_triangle_deletion"] += zeros
                else:
                    counts["zero_after_plain_deletion"] += zeros
                super().delete_vertex(u, reason)

            def settle_new_edge(self, a, b):
                counts["settle_new_edge"] += 1
                super().settle_new_edge(a, b)

            def _settle_shared(self, a, b):
                counts["settle_shared"] += 1
                super()._settle_shared(a, b)

        stats = {}
        for family in FAMILIES:
            for seed in range(20):
                workspace = Counting(_graph(family, seed))
                _main_loop(workspace, False)
                for rule, count in workspace.log.stats.items():
                    stats[rule] = stats.get(rule, 0) + count
        assert counts["triangle_deletions"] > 0
        # Both settle paths: a new edge closing no triangle (δ = 0) and one
        # whose ends share a neighbour.
        assert counts["settle_shared"] > 0
        assert counts["settle_new_edge"] > counts["settle_shared"]
        # Both deletion branches leave a neighbour at degree 0.
        assert counts["zero_after_triangle_deletion"] > 0
        assert counts["zero_after_plain_deletion"] > 0
        assert stats.get(STAT_DOMINANCE, 0) > 0
        assert stats.get(STAT_PATH_EVEN_NO_EDGE, 0) > 0
        # Each fused driver applies every Lemma 4.1 case itself, and takes
        # the irreducible skip: a stalled run pops every vertex of V₌₂, so
        # a degree-two vertex left in its kernel was last popped and
        # skipped as an irreducible length-1 path.
        for run, factory in FUSED:
            stats = {}
            irreducible = 0
            for family in FAMILIES:
                for seed in range(20):
                    workspace = factory(_graph(family, seed))
                    run(workspace, False)
                    for rule, count in workspace.log.stats.items():
                        stats[rule] = stats.get(rule, 0) + count
                    workspace = factory(_graph(family, seed))
                    run(workspace, True)
                    irreducible += any(
                        workspace.alive[v] and workspace.deg[v] == 2
                        for v in range(workspace.n)
                    )
            for rule in PATH_RULES:
                assert stats.get(rule, 0) > 0, (run.__name__, rule)
            assert irreducible > 0, run.__name__

    def test_degree_zero_neighbours_skip_their_row(self):
        # The fused deletion includes a neighbour that reached degree 0
        # without compacting its row (no slot of it is live), where the
        # generic loop's delete_vertex compacts it; the states a reader
        # sees are equal (test_lockstep_with_generic_loop).
        skipped = 0
        for family in FAMILIES:
            for seed in range(20):
                graph = _graph(family, seed)
                generic = FlatTriangleWorkspace(graph)
                fused = FlatTriangleWorkspace(graph)
                _main_loop(generic, False)
                _main_loop_flat(fused, False)
                for kind, data in fused.log.entries:
                    v = data[0]
                    if kind == INCLUDE and generic._rend[v] == generic.xadj[v]:
                        skipped += fused._rend[v] > fused.xadj[v]
        assert skipped > 0

    @pytest.mark.parametrize(
        "graph, preprocess",
        [
            (path_graph(60), False),
            (cycle_graph(11), False),
            (star_graph(20), False),
            (power_law_graph(2000, 2.1, average_degree=3.0, seed=4), True),
        ],
        ids=["path", "cycle", "star", "powerlaw"],
    )
    def test_consumed_graph_builds_no_selector(self, graph, preprocess):
        # The main loop empties these graphs with exact rules; the peel
        # step then finds nothing live and must not build the O(n)
        # max-degree buckets.
        seen = []

        def build(g, keep):
            seen.append(FlatTriangleWorkspace(g, keep))
            return seen[-1]

        result = near_linear(graph, preprocess=preprocess, workspace_factory=build)
        assert result.peeled == 0 and result.is_exact
        assert seen[0].log.entries  # the main loop did work
        assert seen[0]._selector is None


class TestLinearTimeFusedLoop:
    @SETTINGS
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        family=st.sampled_from(FAMILIES),
        stop_before_peel=st.booleans(),
    )
    def test_lockstep_with_generic_loop(self, seed, family, stop_before_peel):
        graph = _graph(family, seed)
        generic = FlatWorkspace(graph, track_degree_two=True)
        fused = FlatWorkspace(graph, track_degree_two=True)
        assert _reduce(generic, stop_before_peel) == _reduce_flat(
            fused, stop_before_peel
        )
        # Below BATCH_MIN_FRONTIER the degree-one rounds never batch, which
        # is what makes the logs entry-identical.
        assert fused._rounds == 0
        assert _linear_time_state(fused) == _linear_time_state(generic)


class TestAnchorOrder:
    def test_adjacent_anchors_are_excluded_in_row_order(self):
        # Degree-two vertex 0 between the adjacent anchors 1 (degree 5) and
        # 2 (degree 3), which hang off the K₄ on 3–6.  The irreducibility
        # probe scans the row of the lower-degree anchor, 2; Lemma 4.1's
        # odd-edge case still excludes the anchors in 0's row order, 1
        # then 2, as the oracle drivers do.
        edges = [(0, 1), (0, 2), (1, 2), (1, 3), (1, 4), (1, 5), (2, 6)]
        edges += [(a, b) for a in range(3, 7) for b in range(a + 1, 7)]
        graph = Graph.from_edges(7, edges)
        logs = {}
        for name, run, factory in DRIVERS:
            workspace = factory(graph)
            run(workspace, False)
            assert workspace.log.entries[:3] == [
                (EXCLUDE, (1,)),
                (EXCLUDE, (2,)),
                (INCLUDE, (0,)),
            ], name
            logs[name] = _log_state(workspace)
        assert logs["linear_time._reduce_flat"] == logs["linear_time._reduce"]
        assert logs["near_linear._main_loop_flat"] == logs["near_linear._main_loop"]


# Every driver with the workspace it runs on in production or as oracle.
DRIVERS = [
    ("linear_time._reduce", _reduce, lambda g: ArrayWorkspace(g, track_degree_two=True)),
    ("linear_time._reduce_flat", _reduce_flat, lambda g: FlatWorkspace(g, track_degree_two=True)),
    ("near_linear._main_loop", _main_loop, TriangleWorkspace),
    ("near_linear._main_loop_flat", _main_loop_flat, FlatTriangleWorkspace),
]


# The fused drivers with the workspace each one runs on.
FUSED = [(run, factory) for name, run, factory in DRIVERS if name.endswith("_flat")]


def _log_state(workspace):
    return list(workspace.log.entries), dict(workspace.log.stats)


class TestStallAndResume:
    """A stop at the first stall pops nothing, so resuming the same
    workspace writes the log and counters of an uninterrupted run."""

    @SETTINGS
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        family=st.sampled_from(FAMILIES),
        driver=st.sampled_from(DRIVERS),
    )
    def test_stop_then_resume_equals_one_run(self, seed, family, driver):
        _, run, factory = driver
        graph = _graph(family, seed)
        paused = factory(graph)
        stalled = not run(paused, True)
        at_stall = _log_state(paused)
        kernel = paused.export_kernel()
        assert run(paused, False)
        whole = factory(graph)
        assert run(whole, False)
        assert _log_state(paused) == _log_state(whole)
        if stalled:
            # Nothing was popped at the stall: the kernel is every live vertex.
            assert kernel[0].n == len(kernel[1]) > 0
        else:
            assert at_stall == _log_state(whole)

    def test_families_stall(self):
        # The hypothesis families do reach a stall under every driver.
        for name, run, factory in DRIVERS:
            stalls = sum(
                not run(factory(_graph(family, seed)), True)
                for family in FAMILIES
                for seed in range(10)
            )
            assert stalls >= 10, name

    @SETTINGS
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        family=st.sampled_from(FAMILIES),
    )
    def test_checkpoints_match_reduce_and_full_runs(self, seed, family):
        graph = _graph(family, seed)
        runs = [
            (linear_time_checkpoint, linear_time_reduce, linear_time,
             (FlatWorkspace, ArrayWorkspace)),
            (near_linear_checkpoint, near_linear_reduce, near_linear,
             (FlatTriangleWorkspace, TriangleWorkspace)),
        ]
        for checkpoint, reduce, full, factories in runs:
            for factory in factories:
                kernel, old_ids, log, resume = checkpoint(
                    graph, workspace_factory=factory
                )
                r_kernel, r_ids, r_log = reduce(graph, workspace_factory=factory)
                assert kernel.flat_csr() == r_kernel.flat_csr()
                assert old_ids == r_ids
                stall = (list(log.entries), dict(log.stats))
                assert stall == (list(r_log.entries), dict(r_log.stats))
                whole = resume()
                # The stall log is left as it was.
                assert (list(log.entries), dict(log.stats)) == stall
                result = full(graph, workspace_factory=factory)
                assert whole.stats == result.stats
                outcome = whole.replay(graph)
                assert outcome.vertices == result.independent_set
                assert outcome.upper_bound == result.upper_bound


class TestTriangleExport:
    @SETTINGS
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        family=st.sampled_from(FAMILIES),
        stop_before_peel=st.booleans(),
    )
    def test_flat_export_equals_oracle_export(self, seed, family, stop_before_peel):
        # The whole-array export over compacted and rewired rows gives the
        # oracle's kernel and id map.
        graph = _graph(family, seed)
        flat = FlatTriangleWorkspace(graph)
        oracle = TriangleWorkspace(graph)
        _main_loop_flat(flat, stop_before_peel)
        _main_loop(oracle, stop_before_peel)
        kernel, old_ids = flat.export_kernel()
        o_kernel, o_ids = oracle.export_kernel()
        assert kernel.flat_csr() == o_kernel.flat_csr()
        assert old_ids == o_ids

    def test_families_rewire_before_export(self):
        # The export test sees rewired rows: path reductions retarget slots.
        rewires = 0

        class Counting(FlatTriangleWorkspace):
            __slots__ = ()

            def rewire(self, v, old, new):
                nonlocal rewires
                rewires += 1
                super().rewire(v, old, new)

        for seed in range(10):
            _main_loop(Counting(_graph("cliques", seed)), True)
        assert rewires > 0
