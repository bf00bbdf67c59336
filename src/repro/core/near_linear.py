"""NearLinear — the near-linear-time algorithm (paper Algorithm 5).

Three phases, matching the paper's implementation notes in Section 5:

1. **one-pass dominance** in degree-decreasing order — shrinks Δ cheaply
   because high-degree vertices tend to be dominated by low-degree ones;
2. **LP (Nemhauser–Trotter) reduction**, run once;
3. the **main loop**: degree-two path reductions and the incrementally
   maintained dominance reduction (via per-edge triangle counts,
   Lemma 5.2), peeling the maximum-degree vertex only when neither exact
   rule applies.

The degree-one reduction is subsumed by dominance (a degree-one vertex
dominates its neighbour); it is still drained with top priority so that
maximal degree-two paths always terminate at degree-≥3 anchors.

Worst-case time O(m·Δ); in practice near-linear because phase 1 collapses Δ.

As in :mod:`repro.core.linear_time`, two drivers share the decision
semantics: :func:`_main_loop` drives any workspace through the dominance
protocol (the :class:`~repro.core.dominance.TriangleWorkspace` oracle),
while :func:`_main_loop_flat` binds the
:class:`~repro.core.flat_dominance.FlatTriangleWorkspace` buffers to
locals and fuses the pops, the Lemma 4.1 path reductions, the Lemma 5.2
re-check and the deletions.  Their decision logs are identical.
Telemetry runs the same driver: it reads the live counters and the log
at the phase boundaries only.
"""

from __future__ import annotations

import time
from itertools import repeat as _repeat
from typing import Any, Callable, List, Optional, Tuple

import numpy as _np

from ..graphs.static_graph import Graph
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
from .dominance import TriangleWorkspace, one_pass_dominance
from .flat_dominance import FlatTriangleWorkspace, flat_one_pass_dominance
from ..hotpath import hot_loop
from .lp_reduction import LPReductionResult, lp_reduction
from .result import (
    STAT_DEGREE_ONE,
    STAT_DOMINANCE,
    STAT_LP_EXCLUDED,
    STAT_LP_INCLUDED,
    STAT_ONE_PASS_DOMINANCE,
    STAT_PEEL,
    MISResult,
)
from .trace import EXCLUDE, INCLUDE, PEEL, Checkpoint, DecisionLog
from .workspace import push_entries
from ..obs.instrument import profile_sample, traced_replay
from ..obs.telemetry import get_telemetry, phase

__all__ = ["near_linear", "near_linear_reduce"]


@hot_loop
def _bump_path_rule(log: DecisionLog, rule: str) -> None:
    """Count the Lemma 4.1 case ``rule`` (the irreducible skip is none)."""
    if rule != RULE_IRREDUCIBLE:
        log.bump(rule)


@hot_loop
def _main_loop(workspace: Any, stop_before_peel: bool) -> bool:
    """Run Algorithm 5's reduction loop.

    Worklist pops, deletions and counter bumps are bound to locals at loop
    entry — the loop body runs once per reduction, so the attribute lookups
    would otherwise be paid O(n) times.

    Returns ``True`` when the graph was fully consumed, ``False`` when the
    loop stopped at the first would-be peel.
    """
    log = workspace.log
    pop_degree_one = workspace.pop_degree_one
    pop_degree_two = workspace.pop_degree_two
    pop_dominated = workspace.pop_dominated
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
            _bump_path_rule(log, apply_degree_two_path_reduction(workspace, u))
            continue
        u = pop_dominated()
        if u is not None:
            delete_vertex(u, "exclude")
            bump(STAT_DOMINANCE)
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
def _main_loop_flat(workspace: FlatTriangleWorkspace, stop_before_peel: bool) -> bool:
    """The same loop specialized to the flat triangle-count buffers.

    The validated pops, the Lemma 4.1 path reductions, the Lemma 5.2
    re-check, the degree-one neighbour lookup, the peels and the deletion
    body of :meth:`~repro.core.flat_dominance.FlatTriangleWorkspace.delete_vertex`
    run on locals; entries are appended directly, and the rule counters
    are committed to the log in one batch when the loop exits.

    A path is walked and classified by
    :func:`~repro.core.degree_two_paths.classify_flat_path`.  The anchors
    of cases 1 and 2 (or a cycle vertex) go through the fused deletion,
    which keeps the triangle counts exact;
    :func:`~repro.core.degree_two_paths.retire_flat_path` applies cases
    3–5, whose rewired slots lie on no triangle (δ stays 0, so ``_tsum``
    stays in step).  Case 4 then calls ``decrement_degree`` on its
    anchors, and case 5 settles its new edge with ``settle_new_edge``.
    A popped degree-two vertex whose live neighbours both have degree ≠ 2
    and are not adjacent is the irreducible case and is skipped before
    any walk.

    A deletion of ``u`` with ``_tsum[u] == 0`` skips the clock bump, the
    stamping and the δ bookkeeping: δ(u, ·) = 0 means no two neighbours of
    ``u`` are adjacent, so no scanned row can hold a stamped slot.  It
    still decrements the neighbour degrees, skips the rows that
    ``_tsum[v] < d(v) − 1`` rules out, compacts the rest and re-files.
    In both deletion branches a neighbour whose degree reaches 0 is
    included at once, without compacting its row: its only live neighbour
    was ``u``, so its target is −1 and no slot could surface a candidate,
    ``_tsum`` is already updated, and a dead row is never read again.
    The decision log, the worklists and every buffer a reader sees end up
    exactly as :func:`_main_loop` leaves them on the same workspace.
    """
    log = workspace.log
    append_entry = log.entries.append
    adj = workspace.adj
    xadj = workspace.xadj
    tri = workspace.tri
    deg = workspace.deg
    alive = workspace.alive
    rend = workspace._rend
    hint = workspace._hint
    stamp = workspace._stamp
    tsum = workspace._tsum
    v1 = workspace.v1
    v2 = workspace.v2
    dominated = workspace.dominated
    v1_pop = v1.pop
    v2_pop = v2.pop
    dominated_pop = dominated.pop
    v1_append = v1.append
    v2_append = v2.append
    dominated_append = dominated.append
    pop_max_degree = workspace.pop_max_degree
    decrement_degree = workspace.decrement_degree
    settle_new_edge = workspace.settle_new_edge
    chain: List[int] = []
    neighbours: List[int] = []
    shared: List[int] = []
    neighbours_append = neighbours.append
    shared_append = shared.append
    clock = workspace._clock
    follow = -1
    dead = 0
    deg_sum_drop = 0
    degree_one_count = 0
    dominance_count = 0
    peel_count = 0
    cycles = anchor_shared = odd_edge = odd_no_edge = even_edge = even_no_edge = 0
    consumed = True
    while True:
        # An odd path whose anchors are adjacent excludes both, the second
        # right after the first.
        u = follow
        follow = -1
        kind = EXCLUDE
        if u < 0:
            # --- degree-one rule: exclude the sole live neighbour of x --
            while v1:
                x = v1_pop()
                if alive[x] and deg[x] == 1:
                    for u in adj[xadj[x] : rend[x]]:
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
                for x in adj[xadj[u] : rend[u]]:
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
                    if b not in adj[xadj[a] : rend[a]]:
                        continue
                rule = classify_flat_path(
                    adj, xadj, rend, deg, alive, u, first, second, chain
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
                        adj, xadj, rend, hint, alive, append_entry, chain, rule
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
                        # The settle stamps rows on the workspace clock.
                        workspace._clock = clock
                        settle_new_edge(chain[0], chain[-1])
                        clock = workspace._clock
                    continue
        if u < 0:
            # --- dominance: re-check each candidate by Lemma 5.2 -------
            while dominated:
                x = dominated_pop()
                if alive[x]:
                    lo = xadj[x]
                    hi = rend[x]
                    for v, t in zip(adj[lo:hi], tri[lo:hi]):
                        if alive[v] and t == deg[v] - 1:
                            u = x
                            break
                    if u >= 0:
                        dominance_count += 1
                        break
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
        # --- delete u (FlatTriangleWorkspace.delete_vertex, fused) -----
        alive[u] = 0
        dead += 1
        deg_sum_drop += 2 * deg[u]
        append_entry((kind, (u,)))
        lo = xadj[u]
        hi = rend[u]
        if tsum[u]:
            clock += 1
            neighbours.clear()
            shared.clear()
            for w, t in zip(adj[lo:hi], tri[lo:hi]):
                if alive[w]:
                    stamp[w] = clock
                    neighbours_append(w)
                    shared_append(t)
                    deg[w] -= 1
                    tsum[w] -= t + t
            for v, common in zip(neighbours, shared):
                d = deg[v]
                if not d:
                    # u was v's last live neighbour: no row slot is live.
                    alive[v] = 0
                    dead += 1
                    append_entry((INCLUDE, (v,)))
                    continue
                target = d - 1
                if common or tsum[v] >= target:
                    k = lo = xadj[v]
                    hi = rend[v]
                    for x, t in zip(adj[lo:hi], tri[lo:hi]):
                        if alive[x]:
                            if stamp[x] == clock:
                                t -= 1
                            adj[k] = x
                            tri[k] = t
                            if t == target:
                                dominated_append(x)
                            k += 1
                    rend[v] = k
                if d == 1:
                    v1_append(v)
                elif d == 2:
                    v2_append(v)
        else:
            # No triangle through u: nothing to stamp, no δ or sum changes.
            for v in adj[lo:hi]:
                if alive[v]:
                    d = deg[v] - 1
                    deg[v] = d
                    if not d:
                        alive[v] = 0
                        dead += 1
                        append_entry((INCLUDE, (v,)))
                        continue
                    target = d - 1
                    if tsum[v] >= target:
                        k = lo = xadj[v]
                        hi = rend[v]
                        for x, t in zip(adj[lo:hi], tri[lo:hi]):
                            if alive[x]:
                                adj[k] = x
                                tri[k] = t
                                if t == target:
                                    dominated_append(x)
                                k += 1
                        rend[v] = k
                    if d == 1:
                        v1_append(v)
                    elif d == 2:
                        v2_append(v)
    workspace._clock = clock
    workspace._nlive -= dead
    workspace._live_deg_sum -= deg_sum_drop
    bump_path_counts(
        log, cycles, anchor_shared, odd_edge, odd_no_edge, even_edge, even_no_edge
    )
    bump = log.bump
    if degree_one_count:
        bump(STAT_DEGREE_ONE, degree_one_count)
    if dominance_count:
        bump(STAT_DOMINANCE, dominance_count)
    if peel_count:
        bump(STAT_PEEL, peel_count)
    return consumed


def _run(workspace: Any, stop_before_peel: bool) -> bool:
    """Dispatch to the specialized or the generic main loop."""
    if type(workspace) is FlatTriangleWorkspace:
        return _main_loop_flat(workspace, stop_before_peel)
    return _main_loop(workspace, stop_before_peel)


def _preprocess(
    graph: Graph,
    log: DecisionLog,
    preprocess: bool,
    flat: bool = True,
    telemetry: Any = None,
    sweep: Optional[Callable[[Graph], List[int]]] = None,
    lp: Optional[Callable[[Graph], LPReductionResult]] = None,
) -> Optional[_np.ndarray]:
    """Phases 1–2: one-pass dominance, then the LP reduction.

    Decisions land in ``log`` (input ids); returns the boolean mask of the
    vertices they left, or ``None`` when ``preprocess`` is off.  ``flat``
    picks the flat CSR sweep over the set-based oracle — both produce the
    identical removed list (the differential suite asserts it), so this
    only changes the constant.  The LP runs on the sweep's residual,
    relabelled compactly; its includes and excludes map back through the
    survivor ids.  ``sweep`` and ``lp`` override the phase-1 sweep and the
    phase-2 LP solver (a profiler passes timed wrappers of
    :func:`~repro.core.flat_dominance.flat_one_pass_dominance` and
    :func:`~repro.core.lp_reduction.lp_reduction` to split the solve
    into layers).  ``telemetry`` wraps the two phases in
    ``dominance-sweep`` / ``lp-kernel`` spans when a sink is active.
    """
    if not preprocess:
        return None
    with phase(
        telemetry, "dominance-sweep", algorithm="NearLinear", graph=graph.name
    ) as span:
        if sweep is None:
            sweep = flat_one_pass_dominance if flat else one_pass_dominance
        dominated = sweep(graph)
        # Bulk-append the phase decisions (one entry per vertex; phases
        # 1–2 settle most vertices, so the tuples are built in C via the
        # zip/repeat pairing instead of an interpreted genexp).
        entries = log.entries
        entries.extend(zip(_repeat(EXCLUDE), zip(dominated)))
        log.bump(STAT_ONE_PASS_DOMINANCE, len(dominated))
        span.meta["removed"] = len(dominated)
    with phase(
        telemetry, "lp-kernel", algorithm="NearLinear", graph=graph.name
    ) as span:
        keep = _np.ones(graph.n, dtype=bool)
        keep[dominated] = False
        survivors = _np.flatnonzero(keep)
        solve_lp = lp_reduction if lp is None else lp
        result = solve_lp(graph._induced(survivors, ""))
        included = survivors[_np.asarray(result.included, dtype=_np.int64)]
        excluded = survivors[_np.asarray(result.excluded, dtype=_np.int64)]
        push_entries(entries, INCLUDE, included)
        push_entries(entries, EXCLUDE, excluded)
        keep[included] = False
        keep[excluded] = False
        log.bump(STAT_LP_INCLUDED, len(included))
        log.bump(STAT_LP_EXCLUDED, len(excluded))
        span.meta["included"] = len(included)
        span.meta["excluded"] = len(excluded)
    return keep


def _set_up_and_run(
    graph: Graph,
    preprocess: bool,
    workspace_factory: Optional[Callable[..., object]],
    sweep: Optional[Callable[[Graph], List[int]]],
    lp: Optional[Callable[[Graph], LPReductionResult]],
    telemetry: Any,
    algorithm: str,
    stop_before_peel: bool,
) -> Tuple[DecisionLog, Any, Optional[List[tuple]]]:
    """Phases 1–2, then the main loop on a workspace over the input graph
    masked to their survivors (``workspace_factory(graph, keep)``), under
    ``setup``/``reduce`` spans labelled ``algorithm``, sampling the
    peeling profile after each.  A sample's events count the main loop's
    log; its bound also counts the phase 1–2 includes, so it bounds the
    whole graph's solution like LinearTime's does.

    Returns ``(log, workspace, samples)``: the phase 1–2 decisions, the
    workspace (its log holds the main loop's, in the same input ids) and
    the profile samples (``None`` when telemetry is off).
    """
    log = DecisionLog()
    factory = FlatTriangleWorkspace if workspace_factory is None else workspace_factory
    keep = _preprocess(
        graph, log, preprocess, flat=factory is not TriangleWorkspace,
        telemetry=telemetry, sweep=sweep, lp=lp,
    )
    samples = None if telemetry is None else telemetry.profile(algorithm, graph.name)
    with phase(telemetry, "setup", algorithm=algorithm, graph=graph.name):
        workspace = factory(graph, keep)
    profile_sample(samples, workspace)
    if samples:
        # The LP's includes sit in the phase 1–2 log, not the workspace's
        # (the sweep only excludes); later samples inherit them through
        # this sample's bound.
        events, live, live_edges, bound = samples[0]
        samples[0] = (
            events, live, live_edges, bound + log.stats.get(STAT_LP_INCLUDED, 0)
        )
    with phase(telemetry, "reduce", algorithm=algorithm, graph=graph.name) as span:
        _run(workspace, stop_before_peel)
        span.meta["counters"] = dict(workspace.log.stats)
    profile_sample(samples, workspace)
    return log, workspace, samples


def near_linear(
    graph: Graph,
    preprocess: bool = True,
    workspace_factory: Optional[Callable[..., object]] = None,
    sweep: Optional[Callable[[Graph], List[int]]] = None,
    lp: Optional[Callable[[Graph], LPReductionResult]] = None,
) -> MISResult:
    """Compute a maximal independent set of ``graph`` with NearLinear.

    ``preprocess=False`` skips the one-pass dominance and LP phases (used
    by ablation benchmarks; the paper's algorithm runs both).
    ``workspace_factory`` overrides the main-loop workspace constructor,
    called as ``workspace_factory(graph, keep)`` with the boolean mask of
    the phase 1–2 survivors (``None`` when ``preprocess`` is off); the
    default is :class:`~repro.core.flat_dominance.FlatTriangleWorkspace`,
    and the replacement must implement the dominance protocol — pass
    :class:`~repro.core.dominance.TriangleWorkspace` to pin the
    list-of-dicts oracle, as the differential tests do.  Both backends
    produce byte-identical decision logs.  ``sweep`` and ``lp`` override
    the phase-1 dominance sweep and the phase-2 LP solver (see
    :func:`_preprocess`).
    """
    start = time.perf_counter()
    telemetry = get_telemetry()  # one global check per run
    log, workspace, _ = _set_up_and_run(
        graph, preprocess, workspace_factory, sweep, lp, telemetry, "NearLinear", False
    )
    log.extend(workspace.log)
    if telemetry is not None:
        telemetry.add_counters(log.stats)
    outcome = traced_replay(log, graph, telemetry, "NearLinear")
    return MISResult(
        algorithm="NearLinear",
        graph_name=graph.name,
        independent_set=outcome.vertices,
        upper_bound=outcome.upper_bound,
        peeled=outcome.peeled,
        surviving_peels=outcome.surviving_peels,
        is_exact=outcome.is_exact,
        stats=dict(log.stats),
        elapsed=time.perf_counter() - start,
    )


def near_linear_checkpoint(
    graph: Graph,
    preprocess: bool = True,
    workspace_factory: Optional[Callable[..., object]] = None,
    sweep: Optional[Callable[[Graph], List[int]]] = None,
    lp: Optional[Callable[[Graph], LPReductionResult]] = None,
) -> Checkpoint:
    """Run NearLinear's phases 1–2 and its main loop to the first stall.

    The main loop pauses before it pops its first peel, so
    :meth:`~repro.core.trace.Checkpoint.resume` continues on the same
    workspace and ends with the log an uninterrupted :func:`near_linear`
    run writes.  :func:`near_linear_reduce` is this checkpoint without the
    resume; ARW-NL (Section 6) takes both.  The arguments are
    :func:`near_linear`'s.
    """
    telemetry = get_telemetry()
    log, workspace, samples = _set_up_and_run(
        graph, preprocess, workspace_factory, sweep, lp, telemetry,
        "NearLinear-reduce", True,
    )
    preprocess_log = log.copy()
    log.extend(workspace.log)
    with phase(
        telemetry, "kernel-export", algorithm="NearLinear-reduce", graph=graph.name
    ):
        kernel, old_ids = workspace.export_kernel()

    def resume() -> DecisionLog:
        _run(workspace, stop_before_peel=False)
        profile_sample(samples, workspace)
        preprocess_log.extend(workspace.log)
        return preprocess_log

    return Checkpoint(kernel, old_ids, log, resume)


def near_linear_reduce(
    graph: Graph,
    preprocess: bool = True,
    workspace_factory: Optional[Callable[..., object]] = None,
    sweep: Optional[Callable[[Graph], List[int]]] = None,
    lp: Optional[Callable[[Graph], LPReductionResult]] = None,
) -> Tuple[Graph, List[int], DecisionLog]:
    """Kernelize ``graph`` with NearLinear's exact rules only (no peeling).

    Returns ``(kernel, old_ids, log)`` exactly like
    :func:`repro.core.linear_time.linear_time_reduce`; used by the Eval-III
    kernel comparison, and to report the paper's "kernel graph size by
    NearLinear" column of Table 3 (ARW-NL takes the same run through
    :func:`near_linear_checkpoint`).  ``sweep`` and ``lp`` override the
    phase-1 sweep and phase-2 LP solver (see :func:`_preprocess`).
    """
    kernel, old_ids, log, _ = near_linear_checkpoint(
        graph, preprocess, workspace_factory, sweep, lp
    )
    return kernel, old_ids, log
