"""Lockstep tests: each fused flat driver against its generic loop.

``near_linear._main_loop_flat`` and ``linear_time._reduce_flat`` inline
the worklist pops, the deletions and the Lemma 4.1 irreducible exit that
the generic loops reach through workspace methods.  Here both drivers of
a pair run on two copies of the *same* flat workspace and must leave it in
the same state: decision entries, rule counters, worklists, live flags,
triangle sums and the exported kernel.  NearLinear runs with
``preprocess=False`` shapes (the workspace is built on the raw graph), so
the loop itself meets the triangle deletions, the dominance pops and the
even-path ``settle_new_edge`` calls that phases 1–2 would otherwise settle.
"""

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.flat_dominance import FlatTriangleWorkspace
from repro.core.linear_time import _reduce, _reduce_flat
from repro.core.near_linear import _main_loop, _main_loop_flat
from repro.core.result import STAT_DOMINANCE, STAT_PATH_EVEN_NO_EDGE
from repro.core.workspace import FlatWorkspace
from repro.graphs import GraphBuilder, gnm_random_graph, power_law_graph

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
        counts = {"triangle_deletions": 0, "settle_new_edge": 0}

        class Counting(FlatTriangleWorkspace):
            __slots__ = ()

            def delete_vertex(self, u, reason="exclude"):
                if self._tsum[u]:
                    counts["triangle_deletions"] += 1
                super().delete_vertex(u, reason)

            def settle_new_edge(self, a, b):
                counts["settle_new_edge"] += 1
                super().settle_new_edge(a, b)

        stats = {}
        for family in FAMILIES:
            for seed in range(20):
                workspace = Counting(_graph(family, seed))
                _main_loop(workspace, False)
                for rule, count in workspace.log.stats.items():
                    stats[rule] = stats.get(rule, 0) + count
        assert counts["triangle_deletions"] > 0
        assert counts["settle_new_edge"] > 0
        assert stats.get(STAT_DOMINANCE, 0) > 0
        assert stats.get(STAT_PATH_EVEN_NO_EDGE, 0) > 0


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

