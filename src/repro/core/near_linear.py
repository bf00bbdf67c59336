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
"""

from __future__ import annotations

import time
from itertools import repeat as _repeat
from typing import Any, Callable, List, Optional, Tuple

import numpy as _np

from ..graphs.static_graph import Graph
from .degree_two_paths import RULE_IRREDUCIBLE, apply_degree_two_path_reduction
from .dominance import TriangleWorkspace, one_pass_dominance
from .flat_dominance import FlatTriangleWorkspace, flat_one_pass_dominance
from .hotpath import hot_loop
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
from .trace import EXCLUDE, INCLUDE, DecisionLog
from ..obs.instrument import finish_profile, instrumented_factory, traced_replay
from ..obs.telemetry import get_telemetry, phase

__all__ = ["near_linear", "near_linear_reduce"]


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
            rule = apply_degree_two_path_reduction(workspace, u)
            if rule != RULE_IRREDUCIBLE:
                bump(rule)
            continue
        u = pop_dominated()
        if u is not None:
            delete_vertex(u, "exclude")
            bump(STAT_DOMINANCE)
            continue
        u = pop_max_degree()
        if u is None:
            return True
        if stop_before_peel:
            return False
        delete_vertex(u, "peel")
        bump(STAT_PEEL)


def _preprocess(
    graph: Graph,
    log: DecisionLog,
    preprocess: bool,
    flat: bool = True,
    telemetry: Any = None,
    sweep: Optional[Callable[[Graph], List[int]]] = None,
    lp: Optional[Callable[[Graph], LPReductionResult]] = None,
) -> Tuple[Graph, List[int]]:
    """Phases 1–2: one-pass dominance, then the LP reduction.

    Decisions land in ``log`` (original ids); returns the residual graph
    and its id map.  ``flat`` picks the flat CSR sweep over the
    set-based oracle — both produce the identical removed list (the
    differential suite asserts it), so this only changes the constant.
    ``sweep`` and ``lp`` override the phase-1 sweep and the phase-2 LP
    solver (a profiler passes timed wrappers of
    :func:`~repro.core.flat_dominance.flat_one_pass_dominance` and
    :func:`~repro.core.lp_reduction.lp_reduction` to split the solve
    into layers).  ``telemetry`` wraps the two phases in
    ``dominance-sweep`` / ``lp-kernel`` spans when a sink is active.
    """
    if not preprocess:
        return graph, list(range(graph.n))
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
        if graph.n >= 2048:
            mask = _np.ones(graph.n, dtype=bool)
            if dominated:
                mask[dominated] = False
            survivors = _np.flatnonzero(mask).tolist()
        else:
            keep = bytearray([1]) * graph.n if graph.n else bytearray()
            for u in dominated:
                keep[u] = 0
            survivors = [v for v in range(graph.n) if keep[v]]
        residual, ids = graph.subgraph(survivors)
        solve_lp = lp_reduction if lp is None else lp
        result = solve_lp(residual)
        entries.extend(
            zip(_repeat(INCLUDE), zip(map(ids.__getitem__, result.included)))
        )
        entries.extend(
            zip(_repeat(EXCLUDE), zip(map(ids.__getitem__, result.excluded)))
        )
        log.bump(STAT_LP_INCLUDED, len(result.included))
        log.bump(STAT_LP_EXCLUDED, len(result.excluded))
        span.meta["included"] = len(result.included)
        span.meta["excluded"] = len(result.excluded)
    half, half_ids = residual.subgraph(result.remaining)
    return half, [ids[v] for v in half_ids]


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
    ``workspace_factory`` overrides the main-loop workspace constructor
    (default :class:`~repro.core.flat_dominance.FlatTriangleWorkspace`;
    the replacement must implement the dominance protocol — pass
    :class:`~repro.core.dominance.TriangleWorkspace` to pin the
    list-of-dicts oracle, as the differential tests do).  Both backends
    produce byte-identical decision logs.  ``sweep`` and ``lp`` override
    the phase-1 dominance sweep and the phase-2 LP solver (see
    :func:`_preprocess`).
    """
    start = time.perf_counter()
    telemetry = get_telemetry()  # one global check per run
    log = DecisionLog()
    factory = FlatTriangleWorkspace if workspace_factory is None else workspace_factory
    residual, ids = _preprocess(
        graph, log, preprocess, flat=factory is not TriangleWorkspace,
        telemetry=telemetry, sweep=sweep, lp=lp,
    )
    if telemetry is not None:
        factory = instrumented_factory(factory, telemetry, "NearLinear", graph.name)
    with phase(telemetry, "setup", algorithm="NearLinear", graph=graph.name):
        workspace = factory(residual)
    with phase(telemetry, "reduce", algorithm="NearLinear", graph=graph.name) as span:
        _main_loop(workspace, stop_before_peel=False)
        span.meta["counters"] = dict(workspace.log.stats)
    log.extend_mapped(workspace.log, ids)
    if telemetry is not None:
        finish_profile(workspace)
        telemetry.add_counters(log.stats)
        outcome = traced_replay(log, graph, telemetry, "NearLinear")
    else:
        outcome = log.replay(graph)
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


def near_linear_reduce(
    graph: Graph,
    preprocess: bool = True,
    workspace_factory: Optional[Callable[..., object]] = None,
    sweep: Optional[Callable[[Graph], List[int]]] = None,
    lp: Optional[Callable[[Graph], LPReductionResult]] = None,
) -> Tuple[Graph, List[int], DecisionLog]:
    """Kernelize ``graph`` with NearLinear's exact rules only (no peeling).

    Returns ``(kernel, old_ids, log)`` exactly like
    :func:`repro.core.linear_time.linear_time_reduce`; used by ARW-NL and
    the Eval-III kernel comparison, and to report the paper's
    "kernel graph size by NearLinear" column of Table 3.  ``sweep`` and
    ``lp`` override the phase-1 sweep and phase-2 LP solver (see
    :func:`_preprocess`).
    """
    telemetry = get_telemetry()
    log = DecisionLog()
    factory = FlatTriangleWorkspace if workspace_factory is None else workspace_factory
    residual, ids = _preprocess(
        graph, log, preprocess, flat=factory is not TriangleWorkspace,
        telemetry=telemetry, sweep=sweep, lp=lp,
    )
    if telemetry is not None:
        factory = instrumented_factory(
            factory, telemetry, "NearLinear-reduce", graph.name
        )
    with phase(telemetry, "setup", algorithm="NearLinear-reduce", graph=graph.name):
        workspace = factory(residual)
    with phase(
        telemetry, "reduce", algorithm="NearLinear-reduce", graph=graph.name
    ) as span:
        _main_loop(workspace, stop_before_peel=True)
        span.meta["counters"] = dict(workspace.log.stats)
    if telemetry is not None:
        finish_profile(workspace)
    log.extend_mapped(workspace.log, ids)
    with phase(
        telemetry, "kernel-export", algorithm="NearLinear-reduce", graph=graph.name
    ):
        kernel, kernel_ids = workspace.export_kernel()
    return kernel, [ids[v] for v in kernel_ids], log
