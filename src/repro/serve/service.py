"""The long-lived incremental solving service.

:class:`SolverService` turns the library's one-shot solvers into something
a request loop can sit on top of:

* :meth:`~SolverService.register` admits a graph (no solver runs until
  the first query);
* :meth:`~SolverService.solve` / :meth:`~SolverService.upper_bound` answer
  repeated queries from a bounded LRU cache keyed by the snapshot's
  structural fingerprint — an unchanged graph never pays a second solve;
* the mutation API (:meth:`~SolverService.add_edge`,
  :meth:`~SolverService.remove_edge`, :meth:`~SolverService.add_vertex`,
  :meth:`~SolverService.remove_vertex`, batched
  :meth:`~SolverService.apply`) accumulates dirty seeds and the next query
  performs **localized repair** (:mod:`repro.serve.repair`), falling back
  to a full cold solve once the dirty fraction passes
  ``ServiceConfig.dirty_threshold``;
* a per-request timeout degrades gracefully: when the budget is exhausted
  before the repair can run, the service returns the last-known-good
  solution patched to feasibility, flagged ``stale=True``;
* :meth:`~SolverService.snapshot_payload` / :meth:`SolverService.restore`
  round-trip the whole service state (graphs, solutions, cache)
  through JSON for disk persistence.

Observability: every public entry point opens a phase span (``serve:*``),
stamped with the request's :class:`~repro.serve.context.RequestContext`
(request id, tenant) so a query's solver phases — including the
per-component spans of a repair — merge into one request span tree.
Request latency, cache traffic, repair-vs-fresh and timeout-degradation
counts publish into a :class:`~repro.obs.metrics.MetricsRegistry`; the
:meth:`SolverService.counters` dict is read from it, so the headless stats
and a Prometheus scrape can never drift apart.
"""

from __future__ import annotations

import dataclasses
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple, Union

import numpy as _np

from ..analysis.verify import _mark
from ..core.framework import ALGORITHM_BY_NAME
from ..core.result import (
    STAT_SERVE_CACHE_HIT,
    STAT_SERVE_CACHE_MISS,
    STAT_SERVE_FULL_RESOLVE,
    STAT_SERVE_MUTATIONS,
    STAT_SERVE_REPAIR,
    STAT_SERVE_REPAIR_COMPONENTS,
    STAT_SERVE_REPAIR_VERTICES,
    STAT_SERVE_STALE_RETURN,
)
from ..errors import ReproError
from ..graphs.static_graph import Graph
from ..obs.metrics import (
    METRIC_SERVE_CACHE_EVICTIONS,
    METRIC_SERVE_CACHE_HITS,
    METRIC_SERVE_CACHE_MISSES,
    METRIC_SERVE_FULL_RESOLVES,
    METRIC_SERVE_GRAPHS,
    METRIC_SERVE_MUTATIONS,
    METRIC_SERVE_REPAIR_COMPONENTS,
    METRIC_SERVE_REPAIR_VERTICES,
    METRIC_SERVE_REPAIRS,
    METRIC_SERVE_REQUEST_SECONDS,
    METRIC_SERVE_REQUESTS,
    METRIC_SERVE_SOLVER_SECONDS,
    METRIC_SERVE_STALE_RETURNS,
    MetricsRegistry,
    get_metrics,
)
from ..obs.telemetry import get_telemetry, phase
from .cache import CacheEntry, KernelCache
from .context import RequestContext
from .dynamic_graph import DynamicGraph, Mutation
from .repair import cold_solve, patch_solution, repair_solution

__all__ = ["ServeResult", "ServiceConfig", "SolverService", "SNAPSHOT_VERSION"]

#: ``serve:*`` event keys (telemetry counters, and the ``events`` dict of
#: :meth:`SolverService.counters`) mapped to their registry series.
_EVENT_METRICS: Dict[str, str] = {
    STAT_SERVE_CACHE_HIT: METRIC_SERVE_CACHE_HITS,
    STAT_SERVE_CACHE_MISS: METRIC_SERVE_CACHE_MISSES,
    STAT_SERVE_REPAIR: METRIC_SERVE_REPAIRS,
    STAT_SERVE_REPAIR_VERTICES: METRIC_SERVE_REPAIR_VERTICES,
    STAT_SERVE_REPAIR_COMPONENTS: METRIC_SERVE_REPAIR_COMPONENTS,
    STAT_SERVE_FULL_RESOLVE: METRIC_SERVE_FULL_RESOLVES,
    STAT_SERVE_STALE_RETURN: METRIC_SERVE_STALE_RETURNS,
    STAT_SERVE_MUTATIONS: METRIC_SERVE_MUTATIONS,
}

#: Events whose registry series the shared :class:`KernelCache` already
#: increments — ``_bump`` must not count them a second time.
_CACHE_COUNTED = frozenset({STAT_SERVE_CACHE_HIT, STAT_SERVE_CACHE_MISS})


SNAPSHOT_VERSION = 1

#: The mutation kinds that can raise α (by at most one each); adding an
#: edge or removing a vertex never does.
_RAISING_KINDS = frozenset({"remove_edge", "add_vertex"})


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables of a :class:`SolverService`.

    Attributes
    ----------
    algorithm:
        :data:`~repro.core.framework.ALGORITHM_BY_NAME` registry name used
        for cold solves and repairs (must be a name, not a callable, so
        snapshots and shard configs can serialise it).
    cache_capacity:
        LRU bound of the kernel cache (entries, not bytes).
    dirty_threshold:
        When ``|dirty region seeds| / live vertices`` exceeds this, repair
        is abandoned in favour of a full cold solve.
    repair_radius:
        Hop radius around dirty seeds that repair re-decides.
    default_timeout:
        Per-request budget in seconds applied when the call site passes
        none (``None`` = unbounded).
    """

    algorithm: str = "linear_time"
    cache_capacity: int = 64
    dirty_threshold: float = 0.25
    repair_radius: int = 2
    default_timeout: Optional[float] = None


@dataclass(frozen=True)
class ServeResult:
    """One query answer, in the registered graph's dynamic-id space.

    ``source`` says how the answer was produced: ``"cache"`` (fingerprint
    hit), ``"cold"`` (fresh solve, also the full-solve fallback),
    ``"repair"`` (localized repair) or ``"stale"`` (budget exhausted — the
    patched last-known-good solution; ``stale`` is True only here).
    ``exact_bound`` marks ``upper_bound`` as a freshly certified
    Theorem-6.1 bound; repaired and stale answers (and cache hits on
    repaired entries) carry ``min(n, B + k)`` instead, where B is the last
    certified bound and k counts the ``remove_edge`` / ``add_vertex``
    writes since — each raises α by at most one, and no other write
    raises it, so the carried bound is sound.  ``backend`` attributes the
    answer to the backend that solved it: ``"flat"`` (the production
    drivers), or ``"none"`` for stale returns, where no solver ran.
    """

    graph_id: str
    algorithm: str
    independent_set: frozenset
    upper_bound: int
    is_exact: bool
    exact_bound: bool
    source: str
    backend: str = ""
    stale: bool = False
    elapsed: float = 0.0
    repair_scope: Dict[str, int] = field(default_factory=dict)

    @property
    def size(self) -> int:
        """Number of vertices in the independent set."""
        return len(self.independent_set)

    def __repr__(self) -> str:
        flag = " stale" if self.stale else ""
        return (
            f"<ServeResult {self.graph_id} |I|={self.size} "
            f"source={self.source}{flag}>"
        )


class _GraphState:
    """Per-registered-graph mutable state (internal)."""

    __slots__ = ("graph_id", "dynamic", "dirty", "flags", "stale", "bound", "raises")

    def __init__(self, graph_id: str, dynamic: DynamicGraph) -> None:
        self.graph_id = graph_id
        self.dynamic = dynamic
        #: Dynamic ids whose neighbourhood changed since the last
        #: successful solve (cleared on cold solve and repair, kept on a
        #: stale return so the next query retries the repair).
        self.dirty: Set[int] = set()
        #: Last returned solution as a ``uint8`` flag buffer over dynamic
        #: ids (ids born since read as 0); None before the first solve.
        self.flags: Optional["_np.ndarray"] = None
        self.stale = False
        #: The carried bound: ``bound`` is the last certified bound B, and
        #: ``raises`` counts the writes since it was set that can raise α
        #: (each ``remove_edge`` / ``add_vertex`` by at most one).
        self.bound = dynamic.n
        self.raises = 0

    def carried_bound(self, n: int) -> int:
        """min(n, B + k): α of the current graph is at most this."""
        return min(n, self.bound + self.raises)

    def certify(self, bound: int) -> None:
        """A certified bound of the current graph: B = ``bound``, k = 0."""
        self.bound = bound
        self.raises = 0

    def previous(self, ids: Optional["_np.ndarray"], n: int) -> "_np.ndarray":
        """The last solution as flags over the snapshot's ``n`` compact
        ids; ``ids`` maps compact to dynamic ids (None: the same ids)."""
        flags = self.flags
        span = self.dynamic.n_allocated
        if len(flags) < span:  # type: ignore[arg-type]
            flags = _np.concatenate((flags, _np.zeros(span - len(flags), dtype=_np.uint8)))
        return flags[:n] if ids is None else flags[ids]

    def answer(self, solution: Tuple[int, ...], ids: Optional["_np.ndarray"]) -> frozenset:
        """Record the ascending compact ids ``solution`` as the last
        solution; returns it as dynamic ids."""
        chosen = _np.fromiter(solution, dtype=_np.int64, count=len(solution))
        flags = _np.zeros(self.dynamic.n_allocated, dtype=_np.uint8)
        if ids is None:
            flags[chosen] = 1
            self.flags = flags
            return frozenset(solution)
        members = ids[chosen]
        flags[members] = 1
        self.flags = flags
        return frozenset(members.tolist())

    def solution(self) -> Optional[List[int]]:
        """The last solution's dynamic ids, ascending (None before one)."""
        return None if self.flags is None else _np.flatnonzero(self.flags).tolist()


def _ids_array(values: Iterable[int]) -> "_np.ndarray":
    return _np.fromiter(values, dtype=_np.int64)


def _restored_flags(graph_id: str, state: _GraphState, solution: Iterable[int]) -> "_np.ndarray":
    """The flag buffer of a snapshot's stored solution, checked as a
    repair needs it: independent outside the dirty vertices and maximal
    outside their closed neighbourhood.  Raises :class:`ReproError`
    otherwise."""
    np = _np
    dynamic = state.dynamic
    members = _ids_array(int(v) for v in solution)
    if len(members) and (members.min() < 0 or members.max() >= dynamic.n_allocated):
        raise ReproError(f"snapshot solution for graph {graph_id!r} names unknown ids")
    flags = np.zeros(dynamic.n_allocated, dtype=np.uint8)
    flags[members] = 1
    snapshot, ids = dynamic._compact()
    seeds = _ids_array(sorted(state.dirty))
    if ids is not None:
        seeds = np.searchsorted(ids, seeds)
    kept = flags[:snapshot.n].copy() if ids is None else flags[ids]
    kept[seeds] = 0
    chosen, covered = _mark(snapshot, np.flatnonzero(kept))
    dirty, near = _mark(snapshot, seeds)
    if (chosen & covered).any() or not (chosen | covered | dirty | near).all():
        raise ReproError(
            f"snapshot solution for graph {graph_id!r} is not an independent "
            "set maximal outside its dirty vertices; the payload is corrupted"
        )
    return flags


def _check_carried_bound(graph_id: str, state: _GraphState) -> None:
    """Refuse a restored B or k that cannot be sound: both are counts, and
    B + k bounds α of every graph since B was set, so it is at least the
    size of the last answer.  (B may exceed n: a removed vertex lowers n
    and leaves B as it was.)"""
    stored = 0
    if state.flags is not None:
        snapshot, ids = state.dynamic._compact()
        stored = int(_np.count_nonzero(state.previous(ids, snapshot.n)))
    if state.bound < 0 or state.raises < 0 or state.bound + state.raises < stored:
        raise ReproError(
            f"snapshot bound {state.bound} + {state.raises} for graph {graph_id!r} "
            f"cannot bound its {stored}-vertex solution; the payload is corrupted"
        )


class SolverService:
    """A long-lived, mutation-aware independent-set solving service."""

    def __init__(
        self,
        config: Optional[ServiceConfig] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.config = config or ServiceConfig()
        if self.config.algorithm not in ALGORITHM_BY_NAME:
            raise ReproError(
                f"unknown algorithm name {self.config.algorithm!r}; "
                f"registered: {sorted(ALGORITHM_BY_NAME)}"
            )
        #: One registry shared by the service, its cache, and — when the
        #: process enabled metrics globally — the exposition endpoints.
        #: Sharing is load-bearing: it is what keeps :meth:`counters` and a
        #: Prometheus scrape reading the same numbers.
        # Shard workers (router._shard_worker_main) always pass an explicit
        # per-child registry, so the global fallthrough never runs forked.
        self.metrics = (
            metrics or get_metrics() or MetricsRegistry(label="serve")  # reprolint: disable=RL007
        )
        self.cache = KernelCache(self.config.cache_capacity, metrics=self.metrics)
        self._graphs: Dict[str, _GraphState] = {}
        self._counter = 0

    # ------------------------------------------------------------------
    # Registration and mutation
    # ------------------------------------------------------------------
    def register(
        self,
        graph: Union[Graph, DynamicGraph],
        graph_id: Optional[str] = None,
        context: Optional[RequestContext] = None,
    ) -> str:
        """Admit a graph; returns its handle.

        No solver runs here: the first query solves cold, later ones run
        against the cache/repair machinery.  Passing a
        :class:`DynamicGraph` adopts it (no copy); passing a
        :class:`Graph` wraps it.
        """
        telemetry = get_telemetry()
        if graph_id is None:
            self._counter += 1
            graph_id = f"g{self._counter}"
        if graph_id in self._graphs:
            raise ReproError(f"graph id {graph_id!r} already registered")
        with self._request_scope(telemetry, context):
            with phase(telemetry, "serve:register", graph=graph_id):
                dynamic = (
                    graph if isinstance(graph, DynamicGraph) else DynamicGraph(graph)
                )
        self._graphs[graph_id] = _GraphState(graph_id, dynamic)
        self.metrics.set_gauge(METRIC_SERVE_GRAPHS, len(self._graphs))
        return graph_id

    def unregister(
        self, graph_id: str, context: Optional[RequestContext] = None
    ) -> None:
        """Forget a handle (cache entries persist until evicted)."""
        telemetry = get_telemetry()
        self._state(graph_id)
        with self._request_scope(telemetry, context):
            with phase(telemetry, "serve:unregister", graph=graph_id):
                del self._graphs[graph_id]
        self.metrics.set_gauge(METRIC_SERVE_GRAPHS, len(self._graphs))

    def graph_ids(self) -> List[str]:
        """The registered handles, in registration order."""
        return list(self._graphs)

    def dynamic_graph(self, graph_id: str) -> DynamicGraph:
        """The mutable graph behind a handle (shared, not a copy)."""
        return self._state(graph_id).dynamic

    def add_edge(
        self,
        graph_id: str,
        u: int,
        v: int,
        context: Optional[RequestContext] = None,
    ) -> None:
        """Insert edge ``(u, v)`` (dynamic ids); marks the endpoints dirty."""
        self._mutate(graph_id, [Mutation("add_edge", u, v)], context)

    def remove_edge(
        self,
        graph_id: str,
        u: int,
        v: int,
        context: Optional[RequestContext] = None,
    ) -> None:
        """Delete edge ``(u, v)``; marks the endpoints dirty."""
        self._mutate(graph_id, [Mutation("remove_edge", u, v)], context)

    def add_vertex(
        self, graph_id: str, context: Optional[RequestContext] = None
    ) -> int:
        """Allocate a fresh isolated vertex; returns its dynamic id."""
        state = self._state(graph_id)
        before = state.dynamic.n_allocated
        self._mutate(graph_id, [Mutation("add_vertex")], context)
        return before

    def remove_vertex(
        self, graph_id: str, v: int, context: Optional[RequestContext] = None
    ) -> None:
        """Delete vertex ``v``; marks its former neighbours dirty."""
        self._mutate(graph_id, [Mutation("remove_vertex", v)], context)

    def apply(
        self,
        graph_id: str,
        mutations: Iterable[Mutation],
        context: Optional[RequestContext] = None,
    ) -> int:
        """Apply a mutation batch; returns the number of dirty seeds added."""
        return self._mutate(graph_id, list(mutations), context)

    def _mutate(
        self,
        graph_id: str,
        mutations: List[Mutation],
        context: Optional[RequestContext] = None,
    ) -> int:
        start = time.perf_counter()
        telemetry = get_telemetry()
        state = self._state(graph_id)
        with self._request_scope(telemetry, context):
            with phase(
                telemetry, "serve:mutate", graph=graph_id, mutations=len(mutations)
            ) as span:
                # Only these can raise α, each by at most one; counted
                # first, so a batch that fails part-way still counts.
                state.raises += sum(
                    mutation.kind in _RAISING_KINDS for mutation in mutations
                )
                try:
                    dirty = state.dynamic.apply(mutations)
                except ReproError:
                    # The writes before the failing one landed with no
                    # dirty seeds recorded, so the next query solves cold.
                    state.flags = None
                    raise
                # Seeds that died inside the batch were already folded into
                # their neighbours' dirtiness by DynamicGraph.apply; stale
                # survivors from previous batches are re-validated here.
                state.dirty = {
                    v for v in (state.dirty | dirty) if state.dynamic.is_live(v)
                }
                span.meta["dirty"] = len(state.dirty)
        self._bump(STAT_SERVE_MUTATIONS, len(mutations), telemetry)
        self.metrics.inc(METRIC_SERVE_REQUESTS, op="mutate")
        self.metrics.observe(
            METRIC_SERVE_REQUEST_SECONDS, time.perf_counter() - start, op="mutate"
        )
        return len(dirty)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def solve(
        self,
        graph_id: str,
        timeout: Optional[float] = None,
        context: Optional[RequestContext] = None,
    ) -> ServeResult:
        """Answer an independent-set query for the handle's current graph.

        Resolution order: fingerprint cache hit → localized repair (when
        only a bounded region is dirty) → full cold solve.
        ``timeout`` (seconds, default ``config.default_timeout``) bounds
        the work.  On exhaustion the last-known-good solution is patched
        to feasibility and returned with ``stale=True``.
        """
        start = time.perf_counter()
        telemetry = get_telemetry()
        state = self._state(graph_id)
        if timeout is None:
            timeout = self.config.default_timeout
        deadline = None if timeout is None else start + timeout
        with self._request_scope(telemetry, context):
            with phase(telemetry, "serve:solve", graph=graph_id) as span:
                result = self._solve_locked(state, deadline, telemetry, start)
                span.meta["source"] = result.source
                span.meta["size"] = result.size
                span.meta["backend"] = result.backend
        self.metrics.inc(METRIC_SERVE_REQUESTS, op="solve", source=result.source)
        self.metrics.observe(
            METRIC_SERVE_REQUEST_SECONDS, result.elapsed, op="solve"
        )
        return result

    def upper_bound(
        self,
        graph_id: str,
        timeout: Optional[float] = None,
        context: Optional[RequestContext] = None,
    ) -> int:
        """A certified Theorem-6.1 upper bound for the current graph.

        Served from the cache when the cached entry carries a certificate;
        otherwise (a repaired or stale answer, which carries a sound but
        uncertified bound) forces a cold solve, whatever the timeout.
        """
        result = self.solve(graph_id, timeout=timeout, context=context)
        if result.exact_bound:
            return result.upper_bound
        state = self._state(graph_id)
        telemetry = get_telemetry()
        with self._request_scope(telemetry, context):
            with phase(telemetry, "serve:upper-bound", graph=graph_id):
                entry = self._cold_entry(state, telemetry)
        _, ids = state.dynamic._compact()
        state.answer(entry.solution, ids)
        state.certify(entry.upper_bound)
        state.stale = False
        state.dirty.clear()
        return entry.upper_bound

    # ------------------------------------------------------------------
    # Solve internals
    # ------------------------------------------------------------------
    def _solve_locked(
        self,
        state: _GraphState,
        deadline: Optional[float],
        telemetry,
        start: float,
    ) -> ServeResult:
        dynamic = state.dynamic
        algorithm = self.config.algorithm
        fingerprint = dynamic.fingerprint()
        entry = self.cache.get(fingerprint, algorithm)
        snapshot, ids = dynamic._compact()
        if entry is not None:
            self._bump(STAT_SERVE_CACHE_HIT, 1, telemetry)
            solution = state.answer(entry.solution, ids)
            if entry.exact_bound:
                state.certify(entry.upper_bound)
            state.stale = False
            state.dirty.clear()
            return ServeResult(
                graph_id=state.graph_id,
                algorithm=algorithm,
                independent_set=solution,
                upper_bound=entry.upper_bound,
                is_exact=entry.is_exact,
                exact_bound=entry.exact_bound,
                source="cache",
                backend="flat",
                elapsed=time.perf_counter() - start,
            )
        self._bump(STAT_SERVE_CACHE_MISS, 1, telemetry)

        can_repair = (
            state.flags is not None
            and state.dirty
            and snapshot.n > 0
            and len(state.dirty) <= self.config.dirty_threshold * snapshot.n
        )
        if can_repair and (deadline is None or time.perf_counter() < deadline):
            return self._repair(state, snapshot, ids, fingerprint, telemetry, start)
        if (
            deadline is not None
            and state.flags is not None
            and time.perf_counter() >= deadline
        ):
            return self._stale_return(state, snapshot, ids, telemetry, start)
        return self._full_solve(state, snapshot, ids, fingerprint, telemetry, start)

    def _repair(
        self,
        state: _GraphState,
        snapshot: Graph,
        ids: Optional["_np.ndarray"],
        fingerprint: str,
        telemetry,
        start: float,
    ) -> ServeResult:
        dirty = _ids_array(sorted(state.dirty))
        seeds = dirty if ids is None else _np.searchsorted(ids, dirty)
        # A repair that overruns the budget is still returned: it is the
        # best answer available (only a pre-repair overrun goes stale).
        outcome = repair_solution(
            snapshot,
            state.previous(ids, snapshot.n),
            seeds,
            algorithm=self.config.algorithm,
            radius=self.config.repair_radius,
        )
        chosen = tuple(_np.flatnonzero(outcome.in_set).tolist())
        solution = state.answer(chosen, ids)
        state.stale = False
        state.dirty.clear()
        bound = state.carried_bound(snapshot.n)
        entry = CacheEntry(
            fingerprint=fingerprint,
            algorithm=self.config.algorithm,
            solution=chosen,
            upper_bound=bound,
            is_exact=False,
            exact_bound=False,
            solver_elapsed=outcome.solver_elapsed,
        )
        self.cache.put(entry)
        self._bump(STAT_SERVE_REPAIR, 1, telemetry)
        self._bump(STAT_SERVE_REPAIR_VERTICES, outcome.region_size, telemetry)
        self._bump(STAT_SERVE_REPAIR_COMPONENTS, outcome.components, telemetry)
        self.metrics.observe(
            METRIC_SERVE_SOLVER_SECONDS,
            outcome.solver_elapsed,
            mode="repair",
            backend="flat",
        )
        return ServeResult(
            graph_id=state.graph_id,
            algorithm=self.config.algorithm,
            independent_set=solution,
            upper_bound=bound,
            is_exact=False,
            exact_bound=False,
            source="repair",
            backend="flat",
            elapsed=time.perf_counter() - start,
            repair_scope=outcome.scope(),
        )

    def _stale_return(
        self,
        state: _GraphState,
        snapshot: Graph,
        ids: Optional["_np.ndarray"],
        telemetry,
        start: float,
    ) -> ServeResult:
        patched = patch_solution(snapshot, state.previous(ids, snapshot.n))
        solution = state.answer(tuple(_np.flatnonzero(patched).tolist()), ids)
        # Keep the dirty set: the next query (with budget) retries repair.
        state.stale = True
        self._bump(STAT_SERVE_STALE_RETURN, 1, telemetry)
        return ServeResult(
            graph_id=state.graph_id,
            algorithm=self.config.algorithm,
            independent_set=solution,
            upper_bound=state.carried_bound(snapshot.n),
            is_exact=False,
            exact_bound=False,
            source="stale",
            backend="none",
            stale=True,
            elapsed=time.perf_counter() - start,
        )

    def _full_solve(
        self,
        state: _GraphState,
        snapshot: Graph,
        ids: Optional["_np.ndarray"],
        fingerprint: str,
        telemetry,
        start: float,
    ) -> ServeResult:
        entry = self._cold_entry(state, telemetry, snapshot, fingerprint)
        solution = state.answer(entry.solution, ids)
        state.certify(entry.upper_bound)
        state.stale = False
        state.dirty.clear()
        return ServeResult(
            graph_id=state.graph_id,
            algorithm=self.config.algorithm,
            independent_set=solution,
            upper_bound=entry.upper_bound,
            is_exact=entry.is_exact,
            exact_bound=True,
            source="cold",
            backend="flat",
            elapsed=time.perf_counter() - start,
        )

    def _cold_entry(
        self,
        state: _GraphState,
        telemetry,
        snapshot: Optional[Graph] = None,
        fingerprint: Optional[str] = None,
    ) -> CacheEntry:
        """Cold solve the current snapshot and cache it."""
        if snapshot is None:
            snapshot, _ = state.dynamic._compact()
        if fingerprint is None:
            fingerprint = state.dynamic.fingerprint()
        with phase(telemetry, "serve:full-solve", graph=state.graph_id):
            result = cold_solve(snapshot, self.config.algorithm)
        self._bump(STAT_SERVE_FULL_RESOLVE, 1, telemetry)
        self.metrics.observe(
            METRIC_SERVE_SOLVER_SECONDS,
            result.elapsed,
            mode="cold",
            backend="flat",
        )
        entry = CacheEntry(
            fingerprint=fingerprint,
            algorithm=self.config.algorithm,
            solution=tuple(sorted(result.independent_set)),
            upper_bound=result.upper_bound,
            is_exact=result.is_exact,
            exact_bound=True,
            rule_counts=dict(result.stats),
            solver_elapsed=result.elapsed,
        )
        self.cache.put(entry)
        return entry

    # ------------------------------------------------------------------
    # Introspection and persistence
    # ------------------------------------------------------------------
    def counters(self) -> Dict[str, object]:
        """Service + cache counters, read from the registry, as a
        JSON-serialisable dict.

        ``events`` holds only the ``serve:*`` events that fired; the cache
        hit/miss events are the cache's own registry series.
        """
        value = self.metrics.value
        hits = int(value(METRIC_SERVE_CACHE_HITS))
        misses = int(value(METRIC_SERVE_CACHE_MISSES))
        events = {
            key: int(self.metrics.total(metric))
            for key, metric in _EVENT_METRICS.items()
        }
        return {
            "graphs": len(self._graphs),
            "events": {key: count for key, count in events.items() if count},
            "cache": {
                "capacity": self.cache.capacity,
                "entries": len(self.cache),
                "hits": hits,
                "misses": misses,
                "evictions": int(value(METRIC_SERVE_CACHE_EVICTIONS)),
                "hit_rate": hits / (hits + misses) if hits + misses else 0.0,
            },
        }

    def snapshot_payload(self) -> Dict[str, object]:
        """The whole service state as a JSON-serialisable payload."""
        graphs: Dict[str, object] = {}
        for graph_id, state in self._graphs.items():
            graphs[graph_id] = {
                "dynamic": state.dynamic.to_payload(),
                "solution": state.solution(),
                "stale": state.stale,
                "bound": state.bound,
                "raises": state.raises,
                "dirty": sorted(state.dirty),
                "fingerprint": state.dynamic.fingerprint(),
            }
        return {
            "version": SNAPSHOT_VERSION,
            "config": dataclasses.asdict(self.config),
            "counter": self._counter,
            "graphs": graphs,
            "cache": [entry.to_payload() for entry in self.cache.entries()],
        }

    def save(self, path: str) -> None:
        """Write :meth:`snapshot_payload` to ``path`` as JSON."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.snapshot_payload(), handle, indent=2, sort_keys=True)
            handle.write("\n")

    @classmethod
    def restore(cls, payload: Dict[str, object]) -> "SolverService":
        """Rebuild a service from a :meth:`snapshot_payload` dump.

        Fingerprints are recomputed and verified against the recorded
        ones, and each stored solution must be independent outside its
        dirty seeds and maximal outside their closed neighbourhood (the
        next repair extends it only there), so a corrupted or hand-edited
        snapshot fails loudly instead of serving wrong answers.  Keys this
        build no longer writes (older snapshots carry a per-graph kernel
        record, three retired config fields and cache-entry kernel sizes)
        are ignored, so those snapshots still load.
        """
        version = payload.get("version")
        if version != SNAPSHOT_VERSION:
            raise ReproError(
                f"unsupported snapshot version {version!r} "
                f"(this build reads {SNAPSHOT_VERSION})"
            )
        raw_config = dict(payload.get("config", {}))  # type: ignore[arg-type]
        config = ServiceConfig(
            algorithm=str(raw_config.get("algorithm", "linear_time")),
            cache_capacity=int(raw_config.get("cache_capacity", 64)),
            dirty_threshold=float(raw_config.get("dirty_threshold", 0.25)),
            repair_radius=int(raw_config.get("repair_radius", 2)),
            default_timeout=(
                None
                if raw_config.get("default_timeout") is None
                else float(raw_config["default_timeout"])  # type: ignore[arg-type]
            ),
        )
        service = cls(config)
        service._counter = int(payload.get("counter", 0))  # type: ignore[arg-type]
        for graph_id, record in dict(payload.get("graphs", {})).items():  # type: ignore[arg-type]
            dynamic = DynamicGraph.from_payload(record["dynamic"])
            recorded = record.get("fingerprint")
            if recorded is not None and dynamic.fingerprint() != recorded:
                raise ReproError(
                    f"snapshot fingerprint mismatch for graph {graph_id!r}; "
                    "the payload is corrupted"
                )
            state = _GraphState(str(graph_id), dynamic)
            state.stale = bool(record.get("stale", False))
            state.dirty = {
                int(v) for v in record.get("dirty", []) if dynamic.is_live(int(v))
            }
            # Snapshots written before the carried bound restore with B = n.
            state.bound = int(record.get("bound", dynamic.n))
            state.raises = int(record.get("raises", 0))
            solution = record.get("solution")
            if solution is not None:
                state.flags = _restored_flags(str(graph_id), state, solution)
            _check_carried_bound(str(graph_id), state)
            service._graphs[str(graph_id)] = state
        for entry_payload in payload.get("cache", []):  # type: ignore[union-attr]
            service.cache.put(CacheEntry.from_payload(entry_payload))
        return service

    @classmethod
    def load(cls, path: str) -> "SolverService":
        """Read a JSON snapshot written by :meth:`save`."""
        with open(path, "r", encoding="utf-8") as handle:
            return cls.restore(json.load(handle))

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    def _state(self, graph_id: str) -> _GraphState:
        try:
            return self._graphs[graph_id]
        except KeyError:
            raise ReproError(
                f"unknown graph id {graph_id!r}; "
                f"registered: {sorted(self._graphs)}"
            ) from None

    @staticmethod
    @contextmanager
    def _request_scope(telemetry, context: Optional[RequestContext]):
        """The span-stamping scope of one request.

        With telemetry active every span the request opens (including
        its solver phases) carries the request id and tenant; with telemetry off this is a
        free pass-through — no context object is even allocated.
        """
        if telemetry is None:
            yield
            return
        ctx = context if context is not None else RequestContext.create()
        with telemetry.scoped(**ctx.trace_fields()):
            yield

    def _bump(self, key: str, amount: int, telemetry) -> None:
        if key not in _CACHE_COUNTED:
            # Cache hits/misses are already counted (once) by the shared
            # cache registry; everything else lands here.
            self.metrics.inc(_EVENT_METRICS[key], amount)
        if telemetry is not None:
            telemetry.count(key, amount)

    def __repr__(self) -> str:
        return (
            f"<SolverService graphs={len(self._graphs)} "
            f"algorithm={self.config.algorithm!r} cache={self.cache!r}>"
        )
