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
classic :meth:`SolverService.counters` dict is a thin view over it, so the
headless stats and a Prometheus scrape can never drift apart.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Set, Union

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

#: Old-style event keys (``serve:*`` stat counters, kept for telemetry and
#: the :attr:`SolverService.events` view) mapped to their registry series.
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
    workspace_factory:
        Oracle hook forwarded to :func:`repro.serve.repair.cold_solve`;
        ``None`` keeps the flat production backends.
    """

    algorithm: str = "linear_time"
    cache_capacity: int = 64
    dirty_threshold: float = 0.25
    repair_radius: int = 2
    default_timeout: Optional[float] = None
    workspace_factory: Optional[Callable[..., object]] = None


@dataclass(frozen=True)
class ServeResult:
    """One query answer, in the registered graph's dynamic-id space.

    ``source`` says how the answer was produced: ``"cache"`` (fingerprint
    hit), ``"cold"`` (fresh solve, also the full-solve fallback),
    ``"repair"`` (localized repair) or ``"stale"`` (budget exhausted — the
    patched last-known-good solution; ``stale`` is True only here).
    ``exact_bound`` marks ``upper_bound`` as a Theorem-6.1 certificate
    rather than the trivial live-vertex count.  ``backend`` attributes the
    answer to the backend the service solves with (``"flat"``, or
    ``"oracle"`` when ``ServiceConfig.workspace_factory`` pins an oracle
    workspace; ``"none"`` for stale returns, where no solver ran).
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

    __slots__ = ("graph_id", "dynamic", "dirty", "solution", "stale")

    def __init__(self, graph_id: str, dynamic: DynamicGraph) -> None:
        self.graph_id = graph_id
        self.dynamic = dynamic
        #: Dynamic ids whose neighbourhood changed since the last
        #: successful solve (cleared on cold solve and repair, kept on a
        #: stale return so the next query retries the repair).
        self.dirty: Set[int] = set()
        #: Last returned solution, as dynamic ids; None before first solve.
        self.solution: Optional[frozenset] = None
        self.stale = False


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
        #: Span/metric label of the backend that solves (see ServeResult).
        self._backend = "flat" if self.config.workspace_factory is None else "oracle"
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

    @property
    def events(self) -> Dict[str, int]:
        """Classic ``serve:*`` event counters — a view over the registry.

        Only events that fired appear (matching the historical dict-of-
        bumps behaviour); cache hit/miss counts are the cache's own
        registry series, so this view and ``cache.counters()`` agree by
        construction.
        """
        view: Dict[str, int] = {}
        for key, metric in _EVENT_METRICS.items():
            value = int(self.metrics.total(metric))
            if value:
                view[key] = value
        return view

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
                dirty = state.dynamic.apply(mutations)
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
        the work; a ``context`` deadline tightens it further.  On
        exhaustion the last-known-good solution is patched to feasibility
        and returned with ``stale=True``.
        """
        start = time.perf_counter()
        telemetry = get_telemetry()
        state = self._state(graph_id)
        if timeout is None:
            timeout = self.config.default_timeout
        deadline = None if timeout is None else start + timeout
        if context is not None and context.deadline is not None:
            deadline = (
                context.deadline
                if deadline is None
                else min(deadline, context.deadline)
            )
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
        otherwise forces a cold solve (repaired solutions only carry the
        trivial bound, which this endpoint refuses to return unless the
        timeout leaves no alternative).
        """
        result = self.solve(graph_id, timeout=timeout, context=context)
        if result.exact_bound:
            return result.upper_bound
        state = self._state(graph_id)
        telemetry = get_telemetry()
        with self._request_scope(telemetry, context):
            with phase(telemetry, "serve:upper-bound", graph=graph_id):
                entry = self._cold_entry(state, telemetry)
        snapshot, old_ids = state.dynamic.snapshot()
        state.solution = frozenset(old_ids[v] for v in entry.solution)
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
        snapshot, old_ids = dynamic.snapshot()
        if entry is not None:
            self._bump(STAT_SERVE_CACHE_HIT, 1, telemetry)
            solution = frozenset(old_ids[v] for v in entry.solution)
            state.solution = solution
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
                backend=self._backend,
                elapsed=time.perf_counter() - start,
            )
        self._bump(STAT_SERVE_CACHE_MISS, 1, telemetry)

        can_repair = (
            state.solution is not None
            and state.dirty
            and snapshot.n > 0
            and len(state.dirty) <= self.config.dirty_threshold * snapshot.n
        )
        if can_repair and (deadline is None or time.perf_counter() < deadline):
            return self._repair(
                state, snapshot, old_ids, fingerprint, deadline, telemetry, start
            )
        if (
            deadline is not None
            and state.solution is not None
            and time.perf_counter() >= deadline
        ):
            return self._stale_return(state, snapshot, old_ids, telemetry, start)
        return self._full_solve(
            state, snapshot, old_ids, fingerprint, telemetry, start
        )

    def _repair(
        self,
        state: _GraphState,
        snapshot: Graph,
        old_ids: List[int],
        fingerprint: str,
        deadline: Optional[float],
        telemetry,
        start: float,
    ) -> ServeResult:
        compact = {old: new for new, old in enumerate(old_ids)}
        in_set = [False] * snapshot.n
        for v in state.solution or ():
            new = compact.get(v)
            if new is not None:
                in_set[new] = True
        seeds = sorted(compact[v] for v in state.dirty if v in compact)
        outcome = repair_solution(
            snapshot,
            in_set,
            seeds,
            algorithm=self.config.algorithm,
            radius=self.config.repair_radius,
        )
        if deadline is not None and time.perf_counter() > deadline:
            # The repair finished but blew the budget: the answer is still
            # the best available, so return it; only *future* queries see
            # the fresher state.  (A pre-repair overrun takes the stale
            # path in _solve_locked instead.)
            pass
        solution = frozenset(
            old_ids[v] for v in range(snapshot.n) if outcome.in_set[v]
        )
        state.solution = solution
        state.stale = False
        state.dirty.clear()
        entry = CacheEntry(
            fingerprint=fingerprint,
            algorithm=self.config.algorithm,
            solution=tuple(
                v for v in range(snapshot.n) if outcome.in_set[v]
            ),
            upper_bound=snapshot.n,
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
            backend=self._backend,
        )
        return ServeResult(
            graph_id=state.graph_id,
            algorithm=self.config.algorithm,
            independent_set=solution,
            upper_bound=snapshot.n,
            is_exact=False,
            exact_bound=False,
            source="repair",
            backend=self._backend,
            elapsed=time.perf_counter() - start,
            repair_scope=outcome.scope(),
        )

    def _stale_return(
        self,
        state: _GraphState,
        snapshot: Graph,
        old_ids: List[int],
        telemetry,
        start: float,
    ) -> ServeResult:
        compact = {old: new for new, old in enumerate(old_ids)}
        in_set = [False] * snapshot.n
        for v in state.solution or ():
            new = compact.get(v)
            if new is not None:
                in_set[new] = True
        patched = patch_solution(snapshot, in_set)
        solution = frozenset(
            old_ids[v] for v in range(snapshot.n) if patched[v]
        )
        # Keep the dirty set: the next query (with budget) retries repair.
        state.solution = solution
        state.stale = True
        self._bump(STAT_SERVE_STALE_RETURN, 1, telemetry)
        return ServeResult(
            graph_id=state.graph_id,
            algorithm=self.config.algorithm,
            independent_set=solution,
            upper_bound=snapshot.n,
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
        old_ids: List[int],
        fingerprint: str,
        telemetry,
        start: float,
    ) -> ServeResult:
        entry = self._cold_entry(state, telemetry, snapshot, fingerprint)
        solution = frozenset(old_ids[v] for v in entry.solution)
        state.solution = solution
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
            backend=self._backend,
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
            snapshot, _ = state.dynamic.snapshot()
        if fingerprint is None:
            fingerprint = state.dynamic.fingerprint()
        with phase(telemetry, "serve:full-solve", graph=state.graph_id):
            result = cold_solve(
                snapshot,
                self.config.algorithm,
                workspace_factory=self.config.workspace_factory,
            )
        self._bump(STAT_SERVE_FULL_RESOLVE, 1, telemetry)
        self.metrics.observe(
            METRIC_SERVE_SOLVER_SECONDS,
            result.elapsed,
            mode="cold",
            backend=self._backend,
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
        """Service + cache counters as a JSON-serialisable dict."""
        return {
            "graphs": len(self._graphs),
            "events": dict(self.events),
            "cache": self.cache.counters(),
        }

    def snapshot_payload(self) -> Dict[str, object]:
        """The whole service state as a JSON-serialisable payload."""
        graphs: Dict[str, object] = {}
        for graph_id, state in self._graphs.items():
            graphs[graph_id] = {
                "dynamic": state.dynamic.to_payload(),
                "solution": sorted(state.solution) if state.solution is not None else None,
                "stale": state.stale,
                "dirty": sorted(state.dirty),
                "fingerprint": state.dynamic.fingerprint(),
            }
        return {
            "version": SNAPSHOT_VERSION,
            "config": {
                "algorithm": self.config.algorithm,
                "cache_capacity": self.config.cache_capacity,
                "dirty_threshold": self.config.dirty_threshold,
                "repair_radius": self.config.repair_radius,
                "default_timeout": self.config.default_timeout,
            },
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
        ones, so a corrupted or hand-edited snapshot fails loudly instead
        of serving wrong answers.  Keys this build no longer writes (older
        snapshots carry a per-graph kernel record, three retired config
        fields and cache-entry kernel sizes) are ignored, so those
        snapshots still load.
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
            solution = record.get("solution")
            state.solution = (
                frozenset(int(v) for v in solution) if solution is not None else None
            )
            state.stale = bool(record.get("stale", False))
            state.dirty = {int(v) for v in record.get("dirty", [])}
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
