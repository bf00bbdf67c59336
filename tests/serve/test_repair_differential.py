"""The whole-array repair against the per-vertex oracle it replaced.

``repair_solution`` must return exactly what the oracle in
:mod:`tests.serve.repair_oracle` returns — the same flags, region, free and
blocked counts, and the same components solved in the same order — on the
differential corpus and on arbitrary small graphs, after edge writes and
vertex births and deaths, at radius 0 to 3.  Its restricted extension must
equal the greedy extension over the whole graph whenever the vertices it
skips are already covered.
"""

import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.components import affected_region
from repro.core.trace import extend_to_maximal
from repro.graphs import Graph
from repro.graphs.properties import connected_components
from repro.serve import DynamicGraph, Mutation, cold_solve, repair_solution
from repro.serve import repair as repair_module
from repro.serve.repair import extend_within

from ..core.test_differential_backends import CORPUS
from ..test_properties import graphs
from . import repair_oracle

SETTINGS = settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def _mutate(graph: Graph, rng: random.Random, writes: int, churn: bool):
    """A cold answer on ``graph``, then ``writes`` random mutations.

    Returns the snapshot, the answer as flags over its ids and the dirty
    seeds, the way the service hands them to a repair.
    """
    dynamic = DynamicGraph(graph)
    answer = set(cold_solve(graph, "linear_time").independent_set)
    dirty = set()
    for _ in range(writes):
        live = list(dynamic.live_vertices())
        roll = rng.random()
        if churn and roll < 0.15:
            mutation = Mutation("add_vertex")
        elif churn and roll < 0.3 and len(live) > 2:
            mutation = Mutation("remove_vertex", rng.choice(live))
        elif len(live) >= 2:
            u, v = rng.sample(live, 2)
            kind = "remove_edge" if dynamic.has_edge(u, v) else "add_edge"
            mutation = Mutation(kind, u, v)
        else:
            mutation = Mutation("add_vertex")
        dirty = {v for v in dirty | dynamic.apply([mutation]) if dynamic.is_live(v)}
    snapshot, old_ids = dynamic.snapshot()
    in_set = [v in answer for v in old_ids]
    compact = {old: new for new, old in enumerate(old_ids)}
    return snapshot, in_set, sorted(compact[v] for v in dirty)


def _assert_matches_oracle(graph, in_set, seeds, radius, algorithm="linear_time"):
    before = list(in_set)
    expected = repair_oracle.repair(graph, in_set, seeds, algorithm, radius)
    pieces = []

    def recording(piece, name):
        pieces.append(piece)
        return cold_solve(piece, name)

    with mock.patch.object(repair_module, "cold_solve", recording):
        outcome = repair_solution(graph, in_set, seeds, algorithm, radius=radius)
    assert outcome.in_set.astype(bool).tolist() == expected.in_set
    assert outcome.scope() == {
        "region": len(expected.region),
        "free": len(expected.free),
        "blocked": len(expected.blocked),
        "components": len(expected.parts),
    }
    assert affected_region(graph, seeds, radius) == expected.region
    # Every component is solved as the same graph, in the same order.
    assert pieces == [graph.subgraph(part)[0] for part in expected.parts]
    assert list(in_set) == before


@pytest.mark.parametrize("radius", [0, 1, 2, 3])
@pytest.mark.parametrize("churn", [False, True], ids=["edges", "vertices"])
def test_matches_oracle_on_corpus(radius, churn):
    rng = random.Random(radius * 2 + churn)
    for graph in CORPUS[radius::3]:
        snapshot, in_set, seeds = _mutate(graph, rng, rng.randint(1, 6), churn)
        _assert_matches_oracle(snapshot, in_set, seeds, radius)


def test_matches_oracle_with_near_linear():
    rng = random.Random(11)
    for graph in CORPUS[::9]:
        snapshot, in_set, seeds = _mutate(graph, rng, 4, True)
        _assert_matches_oracle(snapshot, in_set, seeds, 2, algorithm="near_linear")


@SETTINGS
@given(
    graph=graphs(max_vertices=24),
    seed=st.integers(0, 2**16),
    writes=st.integers(0, 6),
    radius=st.integers(0, 3),
    churn=st.booleans(),
)
def test_matches_oracle_on_arbitrary_graphs(graph, seed, writes, radius, churn):
    snapshot, in_set, seeds = _mutate(graph, random.Random(seed), writes, churn)
    _assert_matches_oracle(snapshot, in_set, seeds, radius)


def test_connected_components_matches_oracle():
    for graph in CORPUS:
        for keep in (range(0, graph.n, 2), range(0, graph.n, 3)):
            subgraph, _ = graph.subgraph(keep)
            assert connected_components(subgraph) == repair_oracle.connected_components(
                subgraph
            )


@SETTINGS
@given(graph=graphs(max_vertices=30))
def test_connected_components_matches_oracle_on_arbitrary_graphs(graph):
    assert connected_components(graph) == repair_oracle.connected_components(graph)


@SETTINGS
@given(graph=graphs(max_vertices=30), seed=st.integers(0, 2**16), radius=st.integers(0, 3))
def test_extend_within_matches_full_extension(graph, seed, radius):
    # A maximal set with a region re-decided at random: every vertex
    # outside the region and its neighbours stays covered.
    rng = random.Random(seed)
    flags = [False] * graph.n
    extend_to_maximal(flags, graph)
    seeds = [v for v in range(graph.n) if rng.random() < 0.2]
    region = affected_region(graph, seeds, radius)
    for v in region:
        flags[v] = False
    for v in region:
        if rng.random() < 0.5 and not any(flags[w] for w in graph.neighbors(v)):
            flags[v] = True
    near = set(region).union(*(graph.neighbors(v) for v in region))
    restricted = np.array(flags, dtype=np.uint8)
    extend_within(graph, restricted, np.array(sorted(near), dtype=np.int64))
    extend_to_maximal(flags, graph)
    assert restricted.astype(bool).tolist() == flags
