"""End-to-end smoke check for the serving layer (CI entry point).

``python -m repro.serve.smoke`` registers a seeded power-law graph, streams
a seeded mutation workload through the service (edge churn plus vertex
births and deaths), and after every batch:

* queries the service and a cold solver on the same snapshot,
* asserts the served solution is independent and maximal
  (:func:`repro.analysis.assert_valid_solution`), and
* asserts its size stays within the differential tolerance of the cold
  answer.

A final pass round-trips the service through :meth:`SolverService.save` /
:meth:`SolverService.load` and re-queries, so snapshot persistence is part
of the smoke surface.  Exit code 0 means every gate held.

With ``--metrics-out`` / ``--trace-out`` the gauntlet also exercises the
observability stack: the run executes inside a metrics session (and a
telemetry session for tracing), and extra gates assert that the Prometheus
exposition parses, that solve-latency p99 quantiles are populated, that
every request produced stamped spans, and that every non-stale solve span
names the flat production backend.
"""

from __future__ import annotations

import argparse
import random
import sys
import tempfile
from contextlib import ExitStack
from typing import List, Optional

from ..analysis import assert_valid_solution
from ..graphs.generators import power_law_graph
from ..obs.metrics import (
    METRIC_SERVE_REQUEST_SECONDS,
    METRIC_SERVE_REQUESTS,
    METRIC_SERVE_SOLVER_SECONDS,
    MetricsRegistry,
    metrics_session,
    parse_prometheus,
    quantile_samples,
)
from ..obs.telemetry import Telemetry, telemetry_session
from ..obs.trace_io import write_trace
from .dynamic_graph import DynamicGraph, Mutation
from .repair import cold_solve
from .service import ServiceConfig, SolverService

__all__ = ["main", "run_smoke"]

#: Served size must stay within this fraction of the cold-solve size —
#: the same tolerance the differential/bench layers use for heuristics.
SIZE_TOLERANCE = 0.95


def _random_mutations(
    rng: random.Random, dynamic: DynamicGraph, count: int
) -> List[Mutation]:
    mutations: List[Mutation] = []
    for _ in range(count):
        live = [v for v in dynamic.live_vertices()]
        roll = rng.random()
        if roll < 0.40 and len(live) >= 2:
            u, v = rng.sample(live, 2)
            mutations.append(Mutation("add_edge", u, v))
            # Keep the driver honest: apply as we go so later picks see
            # the intermediate state (ids die, newcomers become eligible).
            dynamic.add_edge(u, v)
        elif roll < 0.70 and dynamic.m > 0:
            u = rng.choice([v for v in live if dynamic.degree(v) > 0])
            v = rng.choice(dynamic.neighbors(u))
            mutations.append(Mutation("remove_edge", u, v))
            dynamic.remove_edge(u, v)
        elif roll < 0.85 and len(live) > 2:
            u = rng.choice(live)
            mutations.append(Mutation("remove_vertex", u))
            dynamic.remove_vertex(u)
        else:
            mutations.append(Mutation("add_vertex"))
            dynamic.add_vertex()
    return mutations


def _verify_observability(
    metrics: Optional[MetricsRegistry],
    telemetry: Optional[Telemetry],
    verbose: bool,
) -> int:
    """Gate the obs leg of the smoke: exposition, quantiles, spans, backend."""
    failures = 0

    def gate(ok: bool, label: str) -> None:
        nonlocal failures
        if not ok:
            failures += 1
        if verbose or not ok:
            print(f"[{'ok ' if ok else 'FAIL'}] obs: {label}")

    if metrics is not None:
        exposition = metrics.to_prometheus()
        try:
            samples = parse_prometheus(exposition)
        except ValueError as exc:
            samples = {}
            gate(False, f"prometheus exposition parses ({exc})")
        else:
            gate(bool(samples), "prometheus exposition parses")
        gate(
            metrics.total(METRIC_SERVE_REQUESTS) > 0,
            "serve request counter populated",
        )
        solve_p99 = quantile_samples(samples, METRIC_SERVE_REQUEST_SECONDS, "p99")
        gate(
            any(value > 0 for value in solve_p99),
            "request-latency p99 quantiles populated",
        )
        solver_p99 = quantile_samples(samples, METRIC_SERVE_SOLVER_SECONDS, "p99")
        gate(
            any(value > 0 for value in solver_p99),
            "solver-latency p99 quantiles populated",
        )
    if telemetry is not None:
        records = telemetry.to_records()
        requests = {
            record.get("meta", {}).get("request")
            for record in records
            if record.get("type") == "span" and record.get("meta", {}).get("request")
        }
        gate(bool(requests), f"spans stamped with request ids ({len(requests)})")
        expected = "flat"
        backends = {
            record["meta"].get("backend")
            for record in records
            if record.get("type") == "span"
            and record.get("name") == "serve:solve"
            and record["meta"].get("source") != "stale"
        }
        gate(
            backends == {expected},
            f"non-stale solve spans report backend {expected!r} "
            f"({sorted(map(str, backends))})",
        )
    return failures


def run_smoke(
    n: int = 2_000,
    mutations: int = 100,
    batch: int = 10,
    seed: int = 7,
    algorithm: str = "linear_time",
    verbose: bool = True,
    metrics_out: Optional[str] = None,
    trace_out: Optional[str] = None,
) -> int:
    """Run the register → mutate → query gauntlet; returns failures."""
    with ExitStack() as stack:
        metrics = None
        telemetry = None
        if metrics_out is not None:
            # Entered before the service is built so it adopts the global
            # registry; the service then feeds the exposition we assert on.
            metrics = stack.enter_context(metrics_session(label="serve-smoke"))
        if trace_out is not None:
            telemetry = stack.enter_context(telemetry_session(label="serve-smoke"))
        failures = _run_gauntlet(n, mutations, batch, seed, algorithm, verbose)
        failures += _verify_observability(metrics, telemetry, verbose)
        if metrics is not None and metrics_out:
            if metrics_out.endswith(".jsonl"):
                metrics.write_jsonl(metrics_out)
            else:
                with open(metrics_out, "w", encoding="utf-8") as handle:
                    handle.write(metrics.to_prometheus())
            if verbose:
                print(f"# metrics written to {metrics_out}")
        if telemetry is not None and trace_out:
            write_trace(trace_out, telemetry.to_records())
            if verbose:
                print(f"# trace written to {trace_out}")
    return failures


def _run_gauntlet(
    n: int,
    mutations: int,
    batch: int,
    seed: int,
    algorithm: str,
    verbose: bool,
) -> int:
    rng = random.Random(seed)
    graph = power_law_graph(n, beta=2.2, seed=seed)
    service = SolverService(ServiceConfig(algorithm=algorithm))
    # A shadow dynamic graph drives mutation *generation*; the generated
    # batch is then applied to the service through its public API.
    shadow = DynamicGraph(graph)
    graph_id = service.register(graph)

    first = service.solve(graph_id)
    failures = 0
    applied = 0
    while applied < mutations:
        step = min(batch, mutations - applied)
        batch_mutations = _random_mutations(rng, shadow, step)
        service.apply(graph_id, batch_mutations)
        applied += step

        result = service.solve(graph_id)
        snapshot, old_ids = service.dynamic_graph(graph_id).snapshot()
        compact = {old: new for new, old in enumerate(old_ids)}
        served = {compact[v] for v in result.independent_set}
        assert_valid_solution(snapshot, served)

        cold = cold_solve(snapshot, algorithm)
        ok = result.size >= SIZE_TOLERANCE * cold.size
        if not ok:
            failures += 1
        if verbose:
            flag = "ok " if ok else "FAIL"
            print(
                f"[{flag}] mutations={applied:4d} source={result.source:6s} "
                f"served={result.size} cold={cold.size} "
                f"scope={result.repair_scope or '-'}"
            )

    # Persistence leg: snapshot, restore, and re-query the restored copy.
    with tempfile.NamedTemporaryFile(
        mode="w", suffix=".json", delete=False
    ) as handle:
        path = handle.name
    service.save(path)
    restored = SolverService.load(path)
    replay = restored.solve(graph_id)
    snapshot, old_ids = restored.dynamic_graph(graph_id).snapshot()
    compact = {old: new for new, old in enumerate(old_ids)}
    assert_valid_solution(snapshot, {compact[v] for v in replay.independent_set})
    if replay.size != service.solve(graph_id).size:
        failures += 1
        if verbose:
            print(f"[FAIL] restore size drift: {replay.size}")
    if verbose:
        counters = service.counters()
        print(
            f"# smoke: first solve |I|={first.size}, {applied} mutations, "
            f"{failures} failures"
        )
        print(f"# cache: {counters['cache']}")
        print(f"# events: {counters['events']}")
    return failures


def main(argv: Optional[List[str]] = None) -> int:
    """CLI shim: ``python -m repro.serve.smoke [--n ...] [--mutations ...]``."""
    parser = argparse.ArgumentParser(
        prog="repro.serve.smoke",
        description="serve-layer smoke gauntlet (register / mutate / query)",
    )
    parser.add_argument("--n", type=int, default=2_000)
    parser.add_argument("--mutations", type=int, default=100)
    parser.add_argument("--batch", type=int, default=10)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--algorithm", default="linear_time")
    parser.add_argument("--quiet", action="store_true")
    parser.add_argument(
        "--metrics-out",
        default=None,
        help="run inside a metrics session, gate the exposition, and write "
        "it here (.jsonl for records, anything else for Prometheus text)",
    )
    parser.add_argument(
        "--trace-out",
        default=None,
        help="run inside a telemetry session, gate per-request spans, and "
        "write the trace here (JSONL)",
    )
    args = parser.parse_args(argv)
    failures = run_smoke(
        n=args.n,
        mutations=args.mutations,
        batch=args.batch,
        seed=args.seed,
        algorithm=args.algorithm,
        verbose=not args.quiet,
        metrics_out=args.metrics_out,
        trace_out=args.trace_out,
    )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
