"""The serving gauntlet: a seeded register → mutate → solve request stream.

The serve tests import it, and CI runs it around the public ``repro
serve`` driver::

    python tests/serve/gauntlet.py write requests.jsonl --n 2000 --mutations 100 --batch 10
    python -m repro serve requests.jsonl --output responses.jsonl
    python tests/serve/gauntlet.py check requests.jsonl responses.jsonl

``write`` emits one power-law graph registration and a first solve, then
one ``mutate`` (edge churn plus vertex births and deaths) and one
``solve`` per batch.  ``check`` replays the mutations on its own copy of
the graph and gates every response: each request succeeded, and each
served solution is independent, maximal and at least
:data:`SIZE_TOLERANCE` of a cold solve of the same snapshot, and each
served bound is sound: no smaller than that cold solve's set, and
``is_exact`` only with a certified (``exact_bound``) bound.  Three in
ten drawn mutations remove an edge and some add a vertex, so repaired
answers carry bounds above the last certified one.  Optional
gates cover what the other ``repro serve`` flags wrote:

* ``--metrics`` (a ``--metrics-out`` file, Prometheus text or ``.jsonl``
  records): it parses, and the request counter and the request- and
  solver-latency p99 quantiles are populated;
* ``--trace`` (a ``--trace-out`` file): every ``serve:*`` span carries a
  request id, and every non-stale solve span names the flat backend;
* ``--restored`` (the response to one ``solve`` sent to a service started
  with ``--restore``): it returns the last served solution.

The exit code is 0 when every gate held.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from typing import Any, Dict, List, Optional

from repro.analysis import assert_valid_solution
from repro.graphs import Graph
from repro.graphs.generators import power_law_graph
from repro.obs import load_trace, write_trace
from repro.obs.metrics import (
    METRIC_SERVE_REQUEST_SECONDS,
    METRIC_SERVE_REQUESTS,
    METRIC_SERVE_SOLVER_SECONDS,
    iter_series,
    parse_prometheus,
    quantile_samples,
)
from repro.serve import DynamicGraph, Mutation, cold_solve

GRAPH_ID = "g"

#: Served size must stay within this fraction of the cold-solve size —
#: the tolerance the differential tests use for heuristics.
SIZE_TOLERANCE = 0.95

Request = Dict[str, Any]


def random_mutations(
    rng: random.Random, dynamic: DynamicGraph, count: int
) -> List[Mutation]:
    """``count`` seeded mutations, applied to ``dynamic`` as they are drawn.

    Applying as we go keeps later picks valid: retired ids are never
    chosen and newborn vertices become eligible.
    """
    mutations: List[Mutation] = []
    for _ in range(count):
        live = list(dynamic.live_vertices())
        roll = rng.random()
        if roll < 0.40 and len(live) >= 2:
            u, v = rng.sample(live, 2)
            mutation = Mutation("add_edge", u, v)
        elif roll < 0.70 and dynamic.m > 0:
            u = rng.choice([v for v in live if dynamic.degree(v) > 0])
            mutation = Mutation("remove_edge", u, rng.choice(dynamic.neighbors(u)))
        elif roll < 0.85 and len(live) > 2:
            mutation = Mutation("remove_vertex", rng.choice(live))
        else:
            mutation = Mutation("add_vertex")
        dynamic.apply([mutation])
        mutations.append(mutation)
    return mutations


def gauntlet_requests(
    n: int = 2_000, mutations: int = 100, batch: int = 10, seed: int = 7
) -> List[Request]:
    """The request stream: register, solve, then (mutate, solve) per batch."""
    rng = random.Random(seed)
    graph = power_law_graph(n, beta=2.2, seed=seed)
    shadow = DynamicGraph(graph)
    requests: List[Request] = [
        {
            "op": "register",
            "id": GRAPH_ID,
            "n": graph.n,
            "edges": [[u, v] for u, v in graph.edges()],
        },
        {"op": "solve", "id": GRAPH_ID},
    ]
    for applied in range(0, mutations, batch):
        drawn = random_mutations(rng, shadow, min(batch, mutations - applied))
        requests.append(
            {
                "op": "mutate",
                "id": GRAPH_ID,
                "mutations": [mutation.as_list() for mutation in drawn],
            }
        )
        requests.append({"op": "solve", "id": GRAPH_ID})
    return requests


def check_responses(
    requests: List[Request], responses: List[Request], algorithm: str
) -> List[str]:
    """Replay the stream and gate every response; returns the failures.

    A served set that is not independent and maximal raises
    :class:`~repro.errors.NotASolutionError` instead.
    """
    if len(responses) != len(requests):
        return [f"{len(responses)} responses to {len(requests)} requests"]
    failures: List[str] = []
    dynamic: Optional[DynamicGraph] = None
    for index, (request, response) in enumerate(zip(requests, responses)):
        if not response.get("ok"):
            return failures + [f"request {index} failed: {response.get('error')}"]
        if request["op"] == "register":
            edges = [(int(u), int(v)) for u, v in request["edges"]]
            dynamic = DynamicGraph(Graph.from_edges(int(request["n"]), edges))
        elif request["op"] == "mutate":
            dynamic.apply([Mutation.from_list(raw) for raw in request["mutations"]])
        elif request["op"] == "solve":
            snapshot, old_ids = dynamic.snapshot()
            compact = {old: new for new, old in enumerate(old_ids)}
            assert_valid_solution(
                snapshot, {compact[v] for v in response["independent_set"]}
            )
            cold = cold_solve(snapshot, algorithm)
            if response["size"] < SIZE_TOLERANCE * cold.size:
                failures.append(
                    f"request {index}: served {response['size']} "
                    f"({response['source']}) < {SIZE_TOLERANCE} x cold {cold.size}"
                )
            # No independent set exceeds a sound bound, a cold one included.
            if response["upper_bound"] < max(cold.size, response["size"]):
                failures.append(
                    f"request {index}: served bound {response['upper_bound']} "
                    f"({response['source']}) < an independent set of size "
                    f"{max(cold.size, response['size'])}"
                )
            if response["is_exact"] and not response["exact_bound"]:
                failures.append(
                    f"request {index}: flagged exact without a certified bound"
                )
    return failures


def check_metrics(path: str) -> List[str]:
    """Gate a ``--metrics-out`` file; a malformed exposition raises."""
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    if path.endswith(".jsonl"):
        records = [json.loads(line) for line in text.splitlines() if line.strip()]
        requests = sum(
            record["value"] for record in records if record["name"] == METRIC_SERVE_REQUESTS
        )

        def p99(name: str) -> List[float]:
            return [r["quantiles"]["p99"] for r in records if r["name"] == name]

    else:
        samples = parse_prometheus(text)
        requests = sum(value for _, value in iter_series(samples, METRIC_SERVE_REQUESTS))

        def p99(name: str) -> List[float]:
            return quantile_samples(samples, name, "p99")

    failures = [] if requests > 0 else ["the serve request counter is empty"]
    for name in (METRIC_SERVE_REQUEST_SECONDS, METRIC_SERVE_SOLVER_SECONDS):
        if not any(value > 0 for value in p99(name)):
            failures.append(f"{name} has no p99 quantile above 0")
    return failures


def check_trace(path: str) -> List[str]:
    """Gate a ``--trace-out`` file: request stamps and backend attribution."""
    spans = [
        record
        for record in load_trace(path)
        if record.get("type") == "span" and str(record.get("name")).startswith("serve:")
    ]
    failures = [] if spans else ["the trace holds no serve:* span"]
    unstamped = [span["name"] for span in spans if not span["meta"].get("request")]
    if unstamped:
        failures.append(f"{len(unstamped)} serve:* spans carry no request id")
    backends = {
        span["meta"].get("backend")
        for span in spans
        if span["name"] == "serve:solve" and span["meta"].get("source") != "stale"
    }
    if backends != {"flat"}:
        failures.append(f"non-stale solve spans report backends {sorted(map(str, backends))}")
    return failures


def check_restored(responses: List[Request], restored: List[Request]) -> List[str]:
    """Gate a restored service's answer against the last served solve."""
    last = [response for response in responses if response.get("op") == "solve"][-1]
    if len(restored) != 1 or not restored[0].get("ok"):
        return [f"the restored service did not answer one solve: {restored}"]
    if restored[0]["independent_set"] != last["independent_set"]:
        return [
            f"the restored service answered a different set "
            f"(|I|={len(restored[0]['independent_set'])}, "
            f"last served |I|={len(last['independent_set'])})"
        ]
    return []


def main(argv: Optional[List[str]] = None) -> int:
    """``write`` a request file, or ``check`` the responses to one."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    commands = parser.add_subparsers(dest="command", required=True)
    write = commands.add_parser("write", help="write the gauntlet request file")
    write.add_argument("requests")
    write.add_argument("--n", type=int, default=2_000)
    write.add_argument("--mutations", type=int, default=100)
    write.add_argument("--batch", type=int, default=10)
    write.add_argument("--seed", type=int, default=7)
    check = commands.add_parser("check", help="gate the responses to a request file")
    check.add_argument("requests")
    check.add_argument("responses")
    check.add_argument("--algorithm", default="linear_time")
    check.add_argument("--metrics", help="a --metrics-out file to gate")
    check.add_argument("--trace", help="a --trace-out file to gate")
    check.add_argument("--restored", help="responses of a --restore-d service")
    args = parser.parse_args(argv)

    if args.command == "write":
        requests = gauntlet_requests(args.n, args.mutations, args.batch, args.seed)
        write_trace(args.requests, requests)
        print(f"# gauntlet: {len(requests)} requests written to {args.requests}")
        return 0
    requests, responses = load_trace(args.requests), load_trace(args.responses)
    failures = check_responses(requests, responses, args.algorithm)
    if args.metrics:
        failures += check_metrics(args.metrics)
    if args.trace:
        failures += check_trace(args.trace)
    if args.restored:
        failures += check_restored(responses, load_trace(args.restored))
    for failure in failures:
        print(f"[FAIL] {failure}")
    sources = [r["source"] for r in responses if r.get("op") == "solve" and r.get("ok")]
    print(
        f"# gauntlet: {len(sources)} solves checked "
        f"({sources.count('repair')} repaired), {len(failures)} failures"
    )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
