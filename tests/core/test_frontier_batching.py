"""Per-round batching inside the default flat LinearTime/BDOne drivers.

:class:`~repro.core.workspace.FlatWorkspace` keeps its buffers in numpy
arrays with ``memoryview`` aliases for the scalar loops.  The fused drivers
hand a degree-one round to
:func:`~repro.core.workspace._degree_one_rounds` once the worklist holds
:data:`~repro.core.workspace.BATCH_MIN_FRONTIER` vertices, and return to
the scalar LIFO loop when a round's frontier is narrower.  Below the
constant the decision logs stay entry-identical to the
:class:`~repro.core.workspace.ArrayWorkspace` oracle; above it the answer
stays valid, the exact-rule kernel keeps the oracle's size, and exact
answers keep the oracle's size and bound.
"""

import random

import numpy as np
import pytest

from repro.analysis import assert_valid_solution
from repro.core.bdone import bdone
from repro.core.flat_dominance import flat_one_pass_dominance
from repro.core.linear_time import linear_time, linear_time_reduce
from repro.core.workspace import (
    BATCH_MIN_FRONTIER,
    ArrayWorkspace,
    FlatWorkspace,
    _degree_one_rounds,
)
from repro.graphs.generators import (
    disjoint_union,
    gnm_random_graph,
    power_law_graph,
    web_like_graph,
)
from repro.graphs.static_graph import Graph

from .test_differential_backends import CORPUS


def _recording_factory(made):
    def factory(graph, **kwargs):
        workspace = FlatWorkspace(graph, **kwargs)
        made.append(workspace)
        return workspace

    return factory


def _chung_lu_20k():
    return power_law_graph(20000, beta=2.2, average_degree=6.0, seed=3)


# ----------------------------------------------------------------------
# The numpy buffers and their scalar aliases
# ----------------------------------------------------------------------
def test_buffers_are_numpy_with_memoryview_aliases():
    graph = gnm_random_graph(300, 700, seed=2)
    ws = FlatWorkspace(graph, track_degree_two=True)
    adj, xadj, deg, alive = ws.arrays
    assert (adj.dtype, xadj.dtype, deg.dtype, alive.dtype) == (
        np.int32,
        np.int64,
        np.int32,
        np.uint8,
    )
    assert isinstance(ws.deg, memoryview) and isinstance(ws.adj, memoryview)
    assert type(ws.deg[0]) is int
    victim = next(v for v in range(graph.n) if ws.deg[v] > 0)
    ws.delete_vertex(victim, "exclude")
    # Scalar writes through the aliases are the numpy arrays' writes.
    assert alive[victim] == 0 == ws.alive[victim]
    assert deg.tolist() == list(ws.deg)


def test_setup_and_export_identical_to_oracle():
    # The whole-array setup files the worklists and the isolated-vertex
    # inclusions as the oracle's scalar loop does, and after the same
    # peels the whole-array kernel export equals the oracle's.
    graphs = CORPUS[::9] + [gnm_random_graph(2000, 5000, seed=8)]
    for graph in graphs:
        flat = FlatWorkspace(graph, track_degree_two=True)
        oracle = ArrayWorkspace(graph, track_degree_two=True)
        assert flat.v1 == oracle.v1, graph.name
        assert flat.v2 == oracle.v2, graph.name
        assert flat.log.entries == oracle.log.entries, graph.name
        assert list(flat.alive) == list(oracle.alive), graph.name
        assert flat.live_vertex_count == oracle.live_vertex_count
        for v in range(0, graph.n, 5):
            if oracle.alive[v]:
                flat.delete_vertex(v, "peel")
                oracle.delete_vertex(v, "peel")
        assert flat.log.entries == oracle.log.entries, graph.name
        kernel, ids = flat.export_kernel()
        oracle_kernel, oracle_ids = oracle.export_kernel()
        assert ids == oracle_ids, graph.name
        assert kernel == oracle_kernel, graph.name


# ----------------------------------------------------------------------
# Below the constant: entry-identical to the oracle
# ----------------------------------------------------------------------
def test_narrow_frontier_log_identical_to_oracle():
    graph = gnm_random_graph(3000, 9000, seed=21)
    assert len(FlatWorkspace(graph).v1) < BATCH_MIN_FRONTIER
    made = []
    flat = linear_time(graph, workspace_factory=_recording_factory(made))
    oracle = linear_time(graph, workspace_factory=ArrayWorkspace)
    assert made[0]._rounds == 0
    assert flat.independent_set == oracle.independent_set
    assert flat.stats == oracle.stats
    _, ids_flat, log_flat = linear_time_reduce(graph)
    _, ids_oracle, log_oracle = linear_time_reduce(
        graph, workspace_factory=ArrayWorkspace
    )
    assert log_flat.entries == log_oracle.entries
    assert ids_flat == ids_oracle
    made.clear()
    flat_bd = bdone(graph, workspace_factory=_recording_factory(made))
    assert made[0]._rounds == 0
    assert flat_bd.independent_set == bdone(
        graph, workspace_factory=ArrayWorkspace
    ).independent_set


# ----------------------------------------------------------------------
# Above the constant: the batch branch runs and keeps the exact answers
# ----------------------------------------------------------------------
@pytest.mark.parametrize("algorithm", [linear_time, bdone])
def test_wide_frontier_batches_and_matches_oracle(algorithm):
    graph = _chung_lu_20k()
    assert len(FlatWorkspace(graph).v1) >= BATCH_MIN_FRONTIER
    made = []
    flat = algorithm(graph, workspace_factory=_recording_factory(made))
    oracle = algorithm(graph, workspace_factory=ArrayWorkspace)
    assert_valid_solution(graph, flat.independent_set)
    assert made[0]._rounds > 0
    if flat.is_exact and oracle.is_exact:
        assert flat.size == oracle.size
        assert flat.upper_bound == oracle.upper_bound


def test_wide_frontier_kernel_matches_oracle():
    # A Chung–Lu part (wide frontier, solved by the rules) next to a G(n,m)
    # part (a non-empty kernel), so the batch rounds and the kernel meet.
    for graph in (
        _chung_lu_20k(),
        disjoint_union([_chung_lu_20k(), gnm_random_graph(3000, 9000, seed=4)]),
    ):
        kernel, ids, log = linear_time_reduce(graph)
        oracle_kernel, oracle_ids, _ = linear_time_reduce(
            graph, workspace_factory=ArrayWorkspace
        )
        assert (kernel.n, kernel.m) == (oracle_kernel.n, oracle_kernel.m)
        assert len(ids) == len(oracle_ids)
        outcome = log.replay(graph)
        assert outcome.peeled == 0
        assert_valid_solution(graph, outcome.vertices)


# ----------------------------------------------------------------------
# The hand-back below the constant
# ----------------------------------------------------------------------
def test_narrow_validated_frontier_is_handed_back():
    graph = web_like_graph(400, attach=2, seed=3)
    ws = FlatWorkspace(graph, track_degree_two=True)
    valid = sorted(set(ws.v1))
    assert valid
    ws.v1.extend(ws.v1 * 3)  # stale duplicates widen the raw worklist
    before = list(ws.log.entries)
    adj, xadj, deg, alive = ws.arrays
    counts = _degree_one_rounds(
        adj, xadj, deg, alive, ws.v1, ws.v2, True, ws.log.entries,
        len(valid) + 1,
    )
    assert counts == (0, 0, 0, 0)
    assert ws.v1 == valid
    assert ws.log.entries == before


# ----------------------------------------------------------------------
# Round algebra on the workspace buffers
# ----------------------------------------------------------------------
def _irreducible_graph():
    """A 3-regular graph (K4): no degree-one vertices, nothing to sweep."""
    offsets = [0, 3, 6, 9, 12]
    targets = [1, 2, 3, 0, 2, 3, 0, 1, 3, 0, 1, 2]
    return Graph(offsets, targets, name="K4")


def _rounds(ws, min_width=1):
    """:func:`_degree_one_rounds` over ``ws``'s buffers, counters applied."""
    adj, xadj, deg, alive = ws.arrays
    excluded, rounds, nlive_drop, deg_sum_drop = _degree_one_rounds(
        adj, xadj, deg, alive, ws.v1, ws.v2, True, ws.log.entries, min_width
    )
    ws._nlive -= nlive_drop
    ws._live_deg_sum -= deg_sum_drop
    return excluded, rounds


def test_empty_frontier_sweep_is_noop():
    ws = FlatWorkspace(_irreducible_graph(), track_degree_two=True)
    assert ws.v1 == []
    before_entries = list(ws.log.entries)
    before_alive = list(ws.alive)
    before_deg = list(ws.deg)
    assert _rounds(ws) == (0, 0)
    assert ws.log.entries == before_entries
    assert list(ws.alive) == before_alive
    assert list(ws.deg) == before_deg
    assert ws.live_vertex_count == 4
    assert ws.live_edge_count() == 6


def test_stale_worklist_sweep_terminates():
    """Stale v1 entries (dead or no-longer-degree-one) must not loop."""
    ws = FlatWorkspace(_irreducible_graph(), track_degree_two=True)
    ws.v1.extend([0, 0, 2])  # all invalid: degree 3, alive
    assert _rounds(ws) == (0, 0)
    assert ws.v1 == []
    assert ws.live_vertex_count == 4


def _k2_graph(pairs, seed):
    """``pairs`` disjoint edges over shuffled ids, and the larger ends."""
    rng = random.Random(seed)
    n = 2 * pairs
    ids = list(range(n))
    rng.shuffle(ids)
    edges = [(ids[2 * i], ids[2 * i + 1]) for i in range(pairs)]
    graph = Graph.from_edges(n, edges, name=f"k2-{seed}")
    return graph, frozenset(max(a, b) for a, b in edges)


def test_k2_pairs_keep_larger_id_like_flat_lifo():
    """A batched round splits mutual degree-one pairs the way the scalar
    LIFO pop does: the larger id of each K₂ enters the solution."""
    for seed in range(12):
        graph, expected = _k2_graph(15 + seed, seed)
        ws = FlatWorkspace(graph, track_degree_two=True)
        assert _rounds(ws) == (graph.m, 1)
        assert ws.live_vertex_count == 0 and ws.live_edge_count() == 0
        assert ws.log.replay(graph).vertices == expected, seed
        assert linear_time(graph).independent_set == expected, seed
    # Wide enough to batch inside the default drivers.
    graph, expected = _k2_graph(BATCH_MIN_FRONTIER, 99)
    for algorithm in (linear_time, bdone):
        made = []
        result = algorithm(graph, workspace_factory=_recording_factory(made))
        assert made[0]._rounds == 1
        assert result.independent_set == expected


def test_hot_loop_markers_present():
    """The sweep kernels must stay under RL001's hot-loop contract."""
    assert getattr(_degree_one_rounds, "__hot_loop__", False)
    assert getattr(flat_one_pass_dominance, "__hot_loop__", False)
