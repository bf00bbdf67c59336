"""The JSONL request protocol: one request object per line, one response out.

``repro serve`` drives a :class:`~repro.serve.service.SolverService` from a
JSON-lines stream — a file, a pipe, or stdin — which makes the service
scriptable without a network stack and keeps request logs replayable.

Request shapes (``op`` selects the verb, everything else is its payload)::

    {"op": "register", "id": "g1", "path": "web.metis"}
    {"op": "register", "id": "g2", "n": 5, "edges": [[0, 1], [1, 2]]}
    {"op": "solve", "id": "g1", "timeout": 0.5}
    {"op": "upper_bound", "id": "g1"}
    {"op": "mutate", "id": "g1",
     "mutations": [["add_edge", 3, 7], ["remove_vertex", 2], ["add_vertex"]]}
    {"op": "add_edge", "id": "g1", "u": 3, "v": 7}     # and the other verbs
    {"op": "stats"}
    {"op": "save", "path": "service.snapshot.json"}

Any request may also carry ``"rid"`` (a caller-chosen request id) and
``"tenant"``: they become the request's
:class:`~repro.serve.context.RequestContext`, so the service stamps every
telemetry span and metric of that request with them; requests without a
``rid`` get an auto-numbered one.  The response echoes the ``rid`` it used
(chosen or assigned), which is how a log line joins its span tree.

Every response echoes ``op`` (and ``id`` when present), carries
``"ok": true`` on success, and ``"ok": false`` plus ``"error"`` on
failure — a bad request never tears down the service or the stream.
The hardening contract: a malformed, non-object, or oversized request
line yields a structured error that still echoes the caller's ``rid``
whenever one is salvageable from the raw bytes (:func:`salvage_rid`),
and *no* input — however hostile — surfaces a server-side traceback.
"""

from __future__ import annotations

import json
import re
from typing import Callable, Dict, Iterable, List, Optional, TextIO

from ..errors import ReproError
from ..graphs.io import read_graph
from ..graphs.static_graph import Graph
from .context import RequestContext
from .dynamic_graph import Mutation
from .service import ServeResult, SolverService

__all__ = [
    "MAX_REQUEST_BYTES",
    "error_response",
    "handle_request",
    "parse_request_line",
    "salvage_rid",
    "serve_stream",
]

#: Upper bound on one JSONL request line.  A line past this is rejected
#: *before* parsing — ``json.loads`` on an adversarial multi-megabyte line
#: would hold the event loop / stream pump hostage.  Generous enough for
#: inline edge-list registers of ~50k edges.
MAX_REQUEST_BYTES = 4_000_000

#: A caller rid inside an otherwise unparseable line.  String form only
#: (numeric rids survive json.loads, which has already failed here);
#: bounded so the salvage itself cannot be abused.
_RID_PATTERN = re.compile(r'"rid"\s*:\s*"([^"\\]{1,128})"')


def _load_request_graph(request: Dict[str, object]) -> Graph:
    if "path" in request:
        return read_graph(str(request["path"]))[0]
    if "edges" in request:
        n = int(request.get("n", 0))  # type: ignore[arg-type]
        edges = [(int(u), int(v)) for u, v in request["edges"]]  # type: ignore[union-attr]
        size = max([n] + [max(u, v) + 1 for u, v in edges]) if edges else n
        return Graph.from_edges(size, edges)
    raise ReproError("register needs either 'path' or 'edges'")


def salvage_rid(line: str) -> Optional[str]:
    """Best-effort recovery of a string ``rid`` from a broken request line.

    Lets a structured parse error still join the caller's request log;
    returns ``None`` when nothing trustworthy is found.
    """
    match = _RID_PATTERN.search(line)
    return match.group(1) if match else None


def error_response(
    error: str,
    rid: Optional[str] = None,
    op: Optional[object] = None,
) -> Dict[str, object]:
    """A structured protocol-level failure (parse errors, oversize lines)."""
    response: Dict[str, object] = {"op": op, "ok": False, "error": error}
    if rid is not None:
        response["rid"] = rid
    return response


def _result_payload(result: ServeResult) -> Dict[str, object]:
    payload: Dict[str, object] = {
        "size": result.size,
        "independent_set": sorted(result.independent_set),
        "upper_bound": result.upper_bound,
        "is_exact": result.is_exact,
        "exact_bound": result.exact_bound,
        "source": result.source,
        "backend": result.backend,
        "stale": result.stale,
        "elapsed": result.elapsed,
    }
    if result.repair_scope:
        payload["repair_scope"] = dict(result.repair_scope)
    return payload


def handle_request(
    service: SolverService, request: Dict[str, object]
) -> Dict[str, object]:
    """Execute one request against ``service``; never raises for bad input."""
    if not isinstance(request, dict):
        return error_response(
            f"ReproError: request must be a JSON object, got {type(request).__name__}"
        )
    op = request.get("op")
    context = RequestContext.create(
        request_id=str(request["rid"]) if "rid" in request else None,
        tenant=str(request.get("tenant", "")),
    )
    response: Dict[str, object] = {"op": op, "ok": True, "rid": context.request_id}
    if "id" in request:
        response["id"] = request["id"]
    try:
        if op == "register":
            graph = _load_request_graph(request)
            graph_id = service.register(
                graph,
                graph_id=str(request["id"]) if "id" in request else None,
                context=context,
            )
            response["id"] = graph_id
            response["n"] = graph.n
            response["m"] = graph.m
        elif op in ("solve", "upper_bound"):
            graph_id = str(request["id"])
            timeout = request.get("timeout")
            timeout = None if timeout is None else float(timeout)  # type: ignore[arg-type]
            if op == "solve":
                result = service.solve(graph_id, timeout, context=context)
                response.update(_result_payload(result))
            else:
                response["upper_bound"] = service.upper_bound(
                    graph_id, timeout, context=context
                )
        elif op == "mutate":
            graph_id = str(request["id"])
            mutations = [
                Mutation.from_list(raw)  # type: ignore[arg-type]
                for raw in request.get("mutations", [])  # type: ignore[union-attr]
            ]
            response["dirty"] = service.apply(graph_id, mutations, context=context)
            response["mutations"] = len(mutations)
        elif op == "add_edge":
            service.add_edge(
                str(request["id"]), int(request["u"]), int(request["v"]), context  # type: ignore[arg-type]
            )
        elif op == "remove_edge":
            service.remove_edge(
                str(request["id"]), int(request["u"]), int(request["v"]), context  # type: ignore[arg-type]
            )
        elif op == "add_vertex":
            response["vertex"] = service.add_vertex(str(request["id"]), context)
        elif op == "remove_vertex":
            service.remove_vertex(str(request["id"]), int(request["v"]), context)  # type: ignore[arg-type]
        elif op == "unregister":
            service.unregister(str(request["id"]), context=context)
        elif op == "ping":
            # Liveness probe for load generators and health checks; touches
            # no graph state so it is safe at any queue depth.
            response["pong"] = True
        elif op == "stats":
            response["counters"] = service.counters()
        elif op == "save":
            path = str(request["path"])
            service.save(path)
            response["path"] = path
        else:
            raise ReproError(
                f"unknown op {op!r}; see repro.serve.requests for the protocol"
            )
    except (ReproError, KeyError, TypeError, ValueError, OSError) as exc:
        response["ok"] = False
        response["error"] = f"{type(exc).__name__}: {exc}"
    except Exception as exc:  # noqa: BLE001 - protocol promise: no tracebacks
        # Anything the explicit tuple missed is still a *request* failure,
        # not a server failure: answer structurally and keep serving.
        response["ok"] = False
        response["error"] = f"InternalError({type(exc).__name__}): {exc}"
    return response


def parse_request_line(line: str) -> Dict[str, object]:
    """Parse one raw JSONL line into a request dict, or raise ``ReproError``.

    Enforces the protocol hardening contract in one place (the sync stream
    pump and the async front-end both call it): oversized lines are
    rejected before parsing, parse failures and non-object payloads raise
    a :class:`ReproError` whose message is safe to echo to the caller.
    """
    if len(line) > MAX_REQUEST_BYTES:
        raise ReproError(
            f"request line too large ({len(line)} bytes > "
            f"MAX_REQUEST_BYTES={MAX_REQUEST_BYTES})"
        )
    try:
        request = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ReproError(f"JSONDecodeError: {exc}") from None
    if not isinstance(request, dict):
        raise ReproError(
            f"request must be a JSON object, got {type(request).__name__}"
        )
    return request


def serve_stream(
    service: SolverService,
    source: Iterable[str],
    sink: TextIO,
    errors: Optional[List[str]] = None,
    should_stop: Optional[Callable[[], bool]] = None,
) -> int:
    """Drive ``service`` from JSONL ``source`` lines, writing responses to
    ``sink``.  Returns the number of failed requests (malformed lines count
    as failures and are reported on the stream like any other error).

    ``should_stop`` is polled between requests: when it turns true the pump
    stops reading and returns — the graceful-shutdown hook, so a signal
    handler can drain the in-flight request instead of killing mid-write.
    """
    failed = 0
    for line in source:
        if should_stop is not None and should_stop():
            break
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            request = parse_request_line(line)
        except ReproError as exc:
            response = error_response(str(exc), rid=salvage_rid(line))
        else:
            response = handle_request(service, request)
        if not response.get("ok"):
            failed += 1
            if errors is not None:
                errors.append(str(response.get("error")))
        sink.write(json.dumps(response, sort_keys=True) + "\n")
        sink.flush()
    return failed
