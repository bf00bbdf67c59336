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
protocol and the shared Lemma 4.1 driver
(:func:`~repro.core.degree_two_paths.apply_degree_two_path_reduction`),
while :func:`_reduce_flat` binds the
:class:`~repro.core.workspace.FlatWorkspace` buffers to locals and fuses
the degree-one cascade, the degree-two path reductions, deletions and log
appends (its path walk and case choice are the flat helpers of
:mod:`repro.core.degree_two_paths`, which NearLinear's fused loop calls
too).  The decision logs are identical either way while the degree-one
worklist stays narrower than
:data:`~repro.core.workspace.BATCH_MIN_FRONTIER`; a wider frontier is
resolved in whole-array rounds
(:func:`~repro.core.workspace._degree_one_rounds`), which may pick a
different, equally valid set of exclusions.
"""

from __future__ import annotations

import time
from typing import Any, Callable, List, Optional, Tuple

from ..graphs.static_graph import Graph
from ..hotpath import hot_loop
from .degree_two_paths import (
    RULE_ANCHOR_SHARED,
    RULE_CYCLE,
    RULE_EVEN_EDGE,
    RULE_IRREDUCIBLE,
    RULE_ODD_EDGE,
    RULE_ODD_NO_EDGE,
    apply_degree_two_path_reduction,
    bump_path_counts,
    classify_flat_path,
    retire_flat_path,
)
from .result import STAT_DEGREE_ONE, STAT_PEEL, MISResult
from .trace import EXCLUDE, INCLUDE, PEEL, Checkpoint, DecisionLog
from .workspace import BATCH_MIN_FRONTIER, FlatWorkspace, _degree_one_rounds
from ..obs.instrument import profile_sample, traced_replay
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
        if stop_before_peel and workspace.live_vertex_count:
            # Stall: pop nothing, so a later run resumes right here.
            return False
        u = pop_max_degree()
        if u is None:
            return True
        delete_vertex(u, "peel")
        bump(STAT_PEEL)


@hot_loop
def _reduce_flat(workspace: FlatWorkspace, stop_before_peel: bool) -> bool:
    """The same loop specialized to the flat CSR buffers.

    The degree-one rule, the Lemma 4.1 path reductions, the deletions and
    the peels operate on locals (``adj``/``deg``/``alive``/worklists) and
    append decision entries directly; rule counters are accumulated
    locally and committed to the log in one batch when the loop exits.
    :func:`~repro.core.degree_two_paths.classify_flat_path` walks and
    classifies a path on the buffers;
    :func:`~repro.core.degree_two_paths.retire_flat_path` applies cases
    3–5 (rewiring through the ``_hint`` slots and appending the ``PATH``
    entries), and the anchors of cases 1 and 2 (or a cycle vertex) go
    through the driver's own deletion.  A popped degree-two vertex whose
    live neighbours both have degree ≠ 2 and are not adjacent is the
    irreducible case and is skipped before any walk.  While the
    degree-one worklist holds at least :data:`BATCH_MIN_FRONTIER`
    vertices, its rounds run batched instead.
    """
    log = workspace.log
    entries = log.entries
    append_entry = entries.append
    batch_min = BATCH_MIN_FRONTIER
    np_adj, np_xadj, np_deg, np_alive = workspace.arrays
    adj = workspace.adj
    xadj = workspace.xadj
    ends = memoryview(xadj)[1:]  # row v ends where row v + 1 starts
    deg = workspace.deg
    alive = workspace.alive
    hint = workspace._hint
    v1 = workspace.v1
    v2 = workspace.v2
    v1_pop = v1.pop
    v2_pop = v2.pop
    v1_append = v1.append
    v2_append = v2.append
    pop_max_degree = workspace.pop_max_degree
    decrement_degree = workspace.decrement_degree
    chain: List[int] = []
    follow = -1
    dead = 0
    deg_sum_drop = 0
    degree_one_count = 0
    peel_count = 0
    batch_rounds = 0
    cycles = anchor_shared = odd_edge = odd_no_edge = even_edge = even_no_edge = 0
    consumed = True
    while True:
        # An odd path whose anchors are adjacent excludes both, the second
        # right after the first.
        u = follow
        follow = -1
        kind = EXCLUDE
        if u < 0:
            # --- wide degree-one frontier: whole-array rounds ----------
            if len(v1) >= batch_min:
                excluded, rounds, nlive_drop, deg_drop = _degree_one_rounds(
                    np_adj, np_xadj, np_deg, np_alive, v1, v2, True, entries,
                    batch_min,
                )
                degree_one_count += excluded
                batch_rounds += rounds
                dead += nlive_drop
                deg_sum_drop += deg_drop
            # --- degree-one rule: exclude the sole live neighbour of x --
            while v1:
                x = v1_pop()
                if alive[x] and deg[x] == 1:
                    for u in adj[xadj[x] : xadj[x + 1]]:
                        if alive[u]:
                            break
                    degree_one_count += 1
                    break
        if u < 0:
            # --- degree-two path reductions (Lemma 4.1) ----------------
            while v2:
                x = v2_pop()
                if alive[x] and deg[x] == 2:
                    u = x
                    break
            if u >= 0:
                first = second = -1
                for x in adj[xadj[u] : xadj[u + 1]]:
                    if alive[x]:
                        if first < 0:
                            first = x
                        else:
                            second = x
                            break
                if deg[first] != 2 and deg[second] != 2:
                    # A length-1 path; irreducible unless its anchors are
                    # adjacent (scan the shorter row).
                    a = first
                    b = second
                    if deg[a] > deg[b]:
                        a = second
                        b = first
                    if b not in adj[xadj[a] : xadj[a + 1]]:
                        continue
                rule = classify_flat_path(
                    adj, xadj, ends, deg, alive, u, first, second, chain
                )
                if rule == RULE_CYCLE:
                    cycles += 1
                elif rule == RULE_ANCHOR_SHARED:
                    anchor_shared += 1
                    u = chain[0]
                elif rule == RULE_ODD_EDGE:
                    odd_edge += 1
                    u = chain[0]
                    follow = chain[-1]
                else:
                    retired = retire_flat_path(
                        adj, xadj, ends, hint, alive, append_entry, chain, rule
                    )
                    dead += retired
                    deg_sum_drop += 2 * retired
                    if rule == RULE_ODD_NO_EDGE:
                        # v₁ keeps degree two between non-adjacent anchors:
                        # irreducible, so it is not re-filed (nor is it by
                        # the shared driver).
                        odd_no_edge += 1
                    elif rule == RULE_EVEN_EDGE:
                        even_edge += 1
                        decrement_degree(chain[0])
                        decrement_degree(chain[-1])
                    else:
                        even_no_edge += 1
                    continue
        if u < 0:
            # --- peel the maximum-degree vertex ------------------------
            # The selector skips its O(n) build once nothing is live,
            # which it reads off the workspace counter: flush the count.
            workspace._nlive -= dead
            dead = 0
            if stop_before_peel and workspace._nlive:
                # Stall: pop nothing, so a later run resumes right here.
                consumed = False
                break
            top = pop_max_degree()
            if top is None:
                break
            u = top
            kind = PEEL
            peel_count += 1
        # --- delete u ----------------------------------------------------
        alive[u] = 0
        dead += 1
        deg_sum_drop += 2 * deg[u]
        append_entry((kind, (u,)))
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
    workspace._nlive -= dead
    workspace._live_deg_sum -= deg_sum_drop
    workspace._rounds += batch_rounds
    if degree_one_count:
        log.bump(STAT_DEGREE_ONE, degree_one_count)
    bump_path_counts(
        log, cycles, anchor_shared, odd_edge, odd_no_edge, even_edge, even_no_edge
    )
    if peel_count:
        log.bump(STAT_PEEL, peel_count)
    return consumed


def _run(workspace: Any, stop_before_peel: bool) -> bool:
    """Dispatch to the specialized or the generic reduction loop."""
    if type(workspace) is FlatWorkspace:
        return _reduce_flat(workspace, stop_before_peel)
    return _reduce(workspace, stop_before_peel)


def _set_up_and_run(
    graph: Graph,
    workspace_factory: Optional[Callable[..., object]],
    telemetry: Any,
    algorithm: str,
    stop_before_peel: bool,
) -> Tuple[Any, Optional[List[tuple]]]:
    """Build the workspace and run the loop under ``setup``/``reduce``
    spans labelled ``algorithm``, sampling the peeling profile after each.

    Returns ``(workspace, samples)``; ``samples`` is ``None`` when
    telemetry is off.
    """
    factory = FlatWorkspace if workspace_factory is None else workspace_factory
    samples = None if telemetry is None else telemetry.profile(algorithm, graph.name)
    with phase(telemetry, "setup", algorithm=algorithm, graph=graph.name):
        workspace = factory(graph, track_degree_two=True)
    profile_sample(samples, workspace)
    with phase(telemetry, "reduce", algorithm=algorithm, graph=graph.name) as span:
        _run(workspace, stop_before_peel)
        span.meta["counters"] = dict(workspace.log.stats)
    profile_sample(samples, workspace)
    return workspace, samples


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
    workspace, _ = _set_up_and_run(graph, workspace_factory, telemetry, "LinearTime", False)
    if telemetry is not None:
        telemetry.add_counters(workspace.log.stats)
    outcome = traced_replay(workspace.log, graph, telemetry, "LinearTime")
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


def linear_time_checkpoint(
    graph: Graph,
    workspace_factory: Optional[Callable[..., object]] = None,
) -> Checkpoint:
    """Set up LinearTime and run it to its first stall, kernel exported.

    The run pauses before it pops its first peel, so
    :meth:`~repro.core.trace.Checkpoint.resume` continues on the same
    workspace and ends with the log an uninterrupted :func:`linear_time`
    run writes.  :func:`linear_time_reduce` is this checkpoint without the
    resume; ARW-LT (Section 6) takes both.
    """
    telemetry = get_telemetry()
    workspace, samples = _set_up_and_run(
        graph, workspace_factory, telemetry, "LinearTime-reduce", True
    )
    with phase(telemetry, "kernel-export", algorithm="LinearTime-reduce", graph=graph.name):
        kernel, old_ids = workspace.export_kernel()
    stall_log = workspace.log

    def resume() -> DecisionLog:
        # The stall log is handed out as it is; the rest of the run
        # appends to a copy of it.
        workspace.log = stall_log.copy()
        _run(workspace, stop_before_peel=False)
        profile_sample(samples, workspace)
        return workspace.log

    return Checkpoint(kernel, old_ids, stall_log, resume)


def linear_time_reduce(
    graph: Graph,
    workspace_factory: Optional[Callable[..., object]] = None,
) -> Tuple[Graph, List[int], DecisionLog]:
    """Kernelize ``graph`` with LinearTime's exact rules only (no peeling).

    Returns ``(kernel, old_ids, log)``: the compacted residual graph, the
    map from kernel ids to original ids, and the decision log to replay once
    a solution for the kernel is known.  Used by the Eval-III kernel
    comparison; ARW-LT takes the same run through
    :func:`linear_time_checkpoint`.
    """
    kernel, old_ids, log, _ = linear_time_checkpoint(graph, workspace_factory)
    return kernel, old_ids, log
