"""BDOne — the efficient baseline (paper Algorithm 2, Section 3.2).

Reducing-Peeling with the degree-one reduction as the only exact rule:

* while a degree-one vertex ``u`` exists, delete its unique neighbour
  (Lemma 2.1 — some maximum independent set contains ``u``);
* otherwise peel the highest-degree vertex (inexact reduction).

Runs in O(m) time and 2m + O(n) space thanks to mark-deleted adjacency
arrays and the lazy max-degree bucket queue.

Two execution paths share the decision semantics: a generic loop that
drives any workspace through its public mutation protocol (used with
:class:`~repro.core.workspace.ArrayWorkspace`, the correctness oracle), and
a specialized loop for :class:`~repro.core.workspace.FlatWorkspace` that
binds the flat buffers to locals once and appends decision-log entries
directly, eliminating the per-reduction attribute lookups and method calls
that otherwise dominate the constant factor.  Both paths produce identical
decision logs — the differential tests assert this entry-for-entry — while
the degree-one worklist stays narrower than
:data:`~repro.core.workspace.BATCH_MIN_FRONTIER`; the flat loop resolves
a wider frontier in whole-array rounds
(:func:`~repro.core.workspace._degree_one_rounds`).
"""

from __future__ import annotations

import time
from typing import Any, Callable, Optional

from ..graphs.static_graph import Graph
from ..hotpath import hot_loop
from .result import STAT_DEGREE_ONE, STAT_PEEL, MISResult
from .trace import EXCLUDE, INCLUDE, PEEL
from .workspace import BATCH_MIN_FRONTIER, FlatWorkspace, _degree_one_rounds
from ..obs.instrument import profile_sample, traced_replay
from ..obs.telemetry import get_telemetry, phase

__all__ = ["bdone"]


def _run_generic(workspace: Any) -> None:
    """Drive any workspace through BDOne via the public protocol."""
    log = workspace.log
    pop_degree_one = workspace.pop_degree_one
    pop_max_degree = workspace.pop_max_degree
    delete_vertex = workspace.delete_vertex
    iter_live_neighbors = workspace.iter_live_neighbors
    bump = log.bump
    while True:
        u = pop_degree_one()
        if u is not None:
            for v in iter_live_neighbors(u):
                delete_vertex(v, "exclude")
                break
            bump(STAT_DEGREE_ONE)
            continue
        u = pop_max_degree()
        if u is None:
            break
        delete_vertex(u, "peel")
        bump(STAT_PEEL)


@hot_loop
def _run_flat(workspace: FlatWorkspace) -> None:
    """BDOne specialized to the flat CSR buffers.

    Identical decision sequence to :func:`_run_generic` below the batching
    width; the degree-one cascade and the deletions are fused into one loop
    over locals, and a frontier of at least :data:`BATCH_MIN_FRONTIER`
    vertices runs in batched rounds (as in the LinearTime driver).
    """
    log = workspace.log
    entries = log.entries
    append_entry = entries.append
    batch_min = BATCH_MIN_FRONTIER
    np_adj, np_xadj, np_deg, np_alive = workspace.arrays
    adj = workspace.adj
    xadj = workspace.xadj
    deg = workspace.deg
    alive = workspace.alive
    v1 = workspace.v1
    v2 = workspace.v2
    v1_pop = v1.pop
    v1_append = v1.append
    pop_max_degree = workspace.pop_max_degree
    dead = 0
    deg_sum_drop = 0
    degree_one_count = 0
    peel_count = 0
    batch_rounds = 0
    while True:
        # --- wide degree-one frontier: whole-array rounds --------------
        if len(v1) >= batch_min:
            excluded, rounds, nlive_drop, deg_drop = _degree_one_rounds(
                np_adj, np_xadj, np_deg, np_alive, v1, v2, False, entries,
                batch_min,
            )
            degree_one_count += excluded
            batch_rounds += rounds
            dead += nlive_drop
            deg_sum_drop += deg_drop
        # --- degree-one rule: delete the sole live neighbour of u ------
        u = -1
        while v1:
            x = v1_pop()
            if alive[x] and deg[x] == 1:
                u = x
                break
        if u >= 0:
            for v in adj[xadj[u] : xadj[u + 1]]:
                if alive[v]:
                    break
            alive[v] = 0
            dead += 1
            deg_sum_drop += 2 * deg[v]
            append_entry((EXCLUDE, (v,)))
            for w in adj[xadj[v] : xadj[v + 1]]:
                if alive[w]:
                    d = deg[w] - 1
                    deg[w] = d
                    if d == 1:
                        v1_append(w)
                    elif d == 0:
                        alive[w] = 0
                        dead += 1
                        append_entry((INCLUDE, (w,)))
            degree_one_count += 1
            continue
        # --- peel the maximum-degree vertex ----------------------------
        # The selector skips its O(n) build once nothing is live, which
        # it reads off the workspace counter: flush the local count.
        workspace._nlive -= dead
        dead = 0
        u = pop_max_degree()
        if u is None:
            break
        alive[u] = 0
        dead += 1
        deg_sum_drop += 2 * deg[u]
        append_entry((PEEL, (u,)))
        for w in adj[xadj[u] : xadj[u + 1]]:
            if alive[w]:
                d = deg[w] - 1
                deg[w] = d
                if d == 1:
                    v1_append(w)
                elif d == 0:
                    alive[w] = 0
                    dead += 1
                    append_entry((INCLUDE, (w,)))
        peel_count += 1
    workspace._nlive -= dead
    workspace._live_deg_sum -= deg_sum_drop
    workspace._rounds += batch_rounds
    if degree_one_count:
        log.bump(STAT_DEGREE_ONE, degree_one_count)
    if peel_count:
        log.bump(STAT_PEEL, peel_count)


def bdone(
    graph: Graph,
    workspace_factory: Optional[Callable[..., object]] = None,
) -> MISResult:
    """Compute a maximal independent set of ``graph`` with BDOne.

    ``workspace_factory`` selects the mutable-state backend (default
    :class:`~repro.core.workspace.FlatWorkspace`; pass
    :class:`~repro.core.workspace.ArrayWorkspace` for the list-of-lists
    oracle).  Returns an :class:`~repro.core.result.MISResult`; the result
    carries the Theorem-6.1 upper bound and is flagged exact when no peeled
    vertex stayed outside the final solution.
    """
    start = time.perf_counter()
    telemetry = get_telemetry()  # one global check per run
    factory = FlatWorkspace if workspace_factory is None else workspace_factory
    samples = None if telemetry is None else telemetry.profile("BDOne", graph.name)
    with phase(telemetry, "setup", algorithm="BDOne", graph=graph.name):
        workspace = factory(graph, track_degree_two=False)
    profile_sample(samples, workspace)
    with phase(telemetry, "reduce", algorithm="BDOne", graph=graph.name) as span:
        if type(workspace) is FlatWorkspace:
            _run_flat(workspace)
        else:
            _run_generic(workspace)
        span.meta["counters"] = dict(workspace.log.stats)
    profile_sample(samples, workspace)
    log = workspace.log
    if telemetry is not None:
        telemetry.add_counters(log.stats)
    outcome = traced_replay(log, graph, telemetry, "BDOne")
    return MISResult(
        algorithm="BDOne",
        graph_name=graph.name,
        independent_set=outcome.vertices,
        upper_bound=outcome.upper_bound,
        peeled=outcome.peeled,
        surviving_peels=outcome.surviving_peels,
        is_exact=outcome.is_exact,
        stats=dict(log.stats),
        elapsed=time.perf_counter() - start,
    )
