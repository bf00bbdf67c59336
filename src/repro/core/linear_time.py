"""LinearTime — the effective linear-time algorithm (paper Algorithm 4).

Reducing-Peeling with two exact rules:

* the degree-one reduction (Lemma 2.1), drained with top priority, and
* the degree-two **path** reductions (Lemma 4.1), which process an entire
  maximal degree-two path in one shot and defer the alternating in/out
  decisions to a reconstruction stack.

Because paths are consumed wholesale, the total work over all path
reductions is bounded by the number of removed directed edges, keeping the
whole algorithm at O(m) time and 2m + O(n) space — the same budget as BDOne
but with solution quality close to BDTwo.

As in :mod:`repro.core.bdone`, two execution paths share the decision
semantics: :func:`_reduce` drives any workspace through the public mutation
protocol, while :func:`_reduce_flat` binds the
:class:`~repro.core.workspace.FlatWorkspace` buffers to locals and fuses
the degree-one cascade, deletions and log appends (the degree-two path
reductions stay in the shared Lemma 4.1 driver).  The decision logs are
identical either way while the degree-one worklist stays narrower than
:data:`~repro.core.workspace.BATCH_MIN_FRONTIER`; a wider frontier is
resolved in whole-array rounds
(:func:`~repro.core.workspace._degree_one_rounds`), which may pick a
different, equally valid set of exclusions.
"""

from __future__ import annotations

import time
from sys import maxsize
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..graphs.static_graph import Graph
from .hotpath import hot_loop
from .degree_two_paths import RULE_IRREDUCIBLE, apply_degree_two_path_reduction
from .result import STAT_DEGREE_ONE, STAT_PEEL, MISResult
from .trace import EXCLUDE, INCLUDE, PEEL, DecisionLog
from .workspace import BATCH_MIN_FRONTIER, FlatWorkspace, _degree_one_rounds
from ..obs.instrument import finish_profile, instrumented_factory, traced_replay
from ..obs.telemetry import get_telemetry, phase

__all__ = ["linear_time", "linear_time_reduce"]


def _reduce(workspace: Any, stop_before_peel: bool) -> bool:
    """Run the LinearTime reduction loop on any workspace backend.

    Returns ``True`` when the graph was fully consumed, ``False`` when the
    loop stopped at the first would-be peel (``stop_before_peel``).
    """
    log = workspace.log
    pop_degree_one = workspace.pop_degree_one
    pop_degree_two = workspace.pop_degree_two
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
        u = pop_degree_two()
        if u is not None:
            rule = apply_degree_two_path_reduction(workspace, u)
            if rule != RULE_IRREDUCIBLE:
                bump(rule)
            continue
        u = pop_max_degree()
        if u is None:
            return True
        if stop_before_peel:
            # Put the vertex back conceptually: the kernel snapshot below
            # still contains it, so nothing further is needed.
            return False
        delete_vertex(u, "peel")
        bump(STAT_PEEL)


@hot_loop
def _reduce_flat(workspace: FlatWorkspace, stop_before_peel: bool) -> bool:
    """The same loop specialized to the flat CSR buffers.

    The degree-one rule, the deletions and the peels operate on locals
    (``adj``/``deg``/``alive``/worklists) and append decision entries
    directly; rule counters are accumulated locally and committed to the
    log in one batch when the loop exits.  While the degree-one worklist
    holds at least :data:`BATCH_MIN_FRONTIER` vertices (and the workspace
    has numpy buffers), its rounds run batched instead.
    """
    log = workspace.log
    entries = log.entries
    append_entry = entries.append
    arrays = workspace.arrays
    batch_min = maxsize if arrays is None else BATCH_MIN_FRONTIER
    np_adj, np_xadj, np_deg, np_alive = arrays or (None, None, None, None)
    adj = workspace.adj
    xadj = workspace.xadj
    deg = workspace.deg
    alive = workspace.alive
    v1 = workspace.v1
    v2 = workspace.v2
    v1_pop = v1.pop
    v2_pop = v2.pop
    v1_append = v1.append
    v2_append = v2.append
    pop_max_degree = workspace.pop_max_degree
    dead = 0
    deg_sum_drop = 0
    degree_one_count = 0
    peel_count = 0
    batch_rounds = 0
    rule_counts: Dict[str, int] = {}
    consumed = True
    while True:
        # --- wide degree-one frontier: whole-array rounds --------------
        if len(v1) >= batch_min:
            excluded, rounds, nlive_drop, deg_drop = _degree_one_rounds(
                np_adj, np_xadj, np_deg, np_alive, v1, v2, True, entries,
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
                    elif d == 2:
                        v2_append(w)
                    elif d == 0:
                        alive[w] = 0
                        dead += 1
                        append_entry((INCLUDE, (w,)))
            degree_one_count += 1
            continue
        # --- degree-two path reductions (shared Lemma 4.1 driver) ------
        u = -1
        while v2:
            x = v2_pop()
            if alive[x] and deg[x] == 2:
                u = x
                break
        if u >= 0:
            # The shared driver mutates through workspace methods, which
            # maintain the live counters themselves — flush the local
            # deltas first so the workspace state it sees is consistent.
            workspace._nlive -= dead
            workspace._live_deg_sum -= deg_sum_drop
            dead = 0
            deg_sum_drop = 0
            rule = apply_degree_two_path_reduction(workspace, u)
            if rule != RULE_IRREDUCIBLE:
                rule_counts[rule] = rule_counts.get(rule, 0) + 1
            continue
        # --- peel the maximum-degree vertex ----------------------------
        # The selector skips its O(n) build once nothing is live, which
        # it reads off the workspace counter: flush the local count.
        workspace._nlive -= dead
        dead = 0
        u = pop_max_degree()
        if u is None:
            break
        if stop_before_peel:
            # Put the vertex back conceptually: the kernel snapshot below
            # still contains it, so nothing further is needed.
            consumed = False
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
                elif d == 2:
                    v2_append(w)
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
    for rule, count in rule_counts.items():
        log.bump(rule, count)
    if peel_count:
        log.bump(STAT_PEEL, peel_count)
    return consumed


def _run(workspace: Any, stop_before_peel: bool) -> bool:
    """Dispatch to the specialized or the generic reduction loop."""
    if type(workspace) is FlatWorkspace:
        return _reduce_flat(workspace, stop_before_peel)
    return _reduce(workspace, stop_before_peel)


def linear_time(
    graph: Graph,
    workspace_factory: Optional[Callable[..., object]] = None,
) -> MISResult:
    """Compute a maximal independent set of ``graph`` with LinearTime.

    ``workspace_factory`` selects the mutable-state backend (default
    :class:`~repro.core.workspace.FlatWorkspace`; pass
    :class:`~repro.core.workspace.ArrayWorkspace` for the list-of-lists
    oracle — both yield identical decision logs while the degree-one
    worklist stays below :data:`~repro.core.workspace.BATCH_MIN_FRONTIER`).
    """
    start = time.perf_counter()
    telemetry = get_telemetry()  # one global check per run
    factory = FlatWorkspace if workspace_factory is None else workspace_factory
    if telemetry is not None:
        factory = instrumented_factory(factory, telemetry, "LinearTime", graph.name)
    with phase(telemetry, "setup", algorithm="LinearTime", graph=graph.name):
        workspace = factory(graph, track_degree_two=True)
    with phase(telemetry, "reduce", algorithm="LinearTime", graph=graph.name) as span:
        _run(workspace, stop_before_peel=False)
        span.meta["counters"] = dict(workspace.log.stats)
    if telemetry is not None:
        finish_profile(workspace)
        telemetry.add_counters(workspace.log.stats)
        outcome = traced_replay(workspace.log, graph, telemetry, "LinearTime")
    else:
        outcome = workspace.log.replay(graph)
    return MISResult(
        algorithm="LinearTime",
        graph_name=graph.name,
        independent_set=outcome.vertices,
        upper_bound=outcome.upper_bound,
        peeled=outcome.peeled,
        surviving_peels=outcome.surviving_peels,
        is_exact=outcome.is_exact,
        stats=dict(workspace.log.stats),
        elapsed=time.perf_counter() - start,
    )


def linear_time_reduce(
    graph: Graph,
    workspace_factory: Optional[Callable[..., object]] = None,
) -> Tuple[Graph, List[int], DecisionLog]:
    """Kernelize ``graph`` with LinearTime's exact rules only (no peeling).

    Returns ``(kernel, old_ids, log)``: the compacted residual graph, the
    map from kernel ids to original ids, and the decision log to replay once
    a solution for the kernel is known.  Used by ARW-LT (Section 6) and the
    Eval-III kernel comparison.
    """
    telemetry = get_telemetry()
    factory = FlatWorkspace if workspace_factory is None else workspace_factory
    if telemetry is not None:
        factory = instrumented_factory(
            factory, telemetry, "LinearTime-reduce", graph.name
        )
    with phase(telemetry, "setup", algorithm="LinearTime-reduce", graph=graph.name):
        workspace = factory(graph, track_degree_two=True)
    with phase(
        telemetry, "reduce", algorithm="LinearTime-reduce", graph=graph.name
    ) as span:
        _run(workspace, stop_before_peel=True)
        span.meta["counters"] = dict(workspace.log.stats)
    if telemetry is not None:
        finish_profile(workspace)
    with phase(telemetry, "kernel-export", algorithm="LinearTime-reduce", graph=graph.name):
        kernel, old_ids = workspace.export_kernel()
    return kernel, old_ids, workspace.log
