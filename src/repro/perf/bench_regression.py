"""Perf-regression harness: flat backends vs. their oracles.

Runs the reducing-peeling algorithms on seeded generator graphs (so every
run sees byte-identical inputs), timing each flat-buffer backend against
its oracle twin — :class:`~repro.core.workspace.FlatWorkspace` vs the
list-of-lists :class:`~repro.core.workspace.ArrayWorkspace` for BDOne /
LinearTime, :class:`~repro.core.flat_dominance.FlatTriangleWorkspace` vs
the list-of-dicts :class:`~repro.core.dominance.TriangleWorkspace` for
NearLinear, and :class:`~repro.localsearch.flat_state.FlatLocalSearchState`
vs the legacy :class:`~repro.localsearch.arw.LocalSearchState` for ARW-LT —
and writes a JSON report.  The serving layer adds two tracks: repair vs.
fresh solve on mutation streams, and the async front-end vs. the sync
loop.

Usage::

    python -m repro.perf.bench_regression                  # full suite
    python -m repro.perf.bench_regression --suite quick    # CI-sized suite
    python -m repro.perf.bench_regression --suite quick \
        --out bench_quick.json --compare BENCH_PR10.json    # regression gate

``--compare`` checks the fresh run against a committed baseline and exits
nonzero when any gated track's flat wall time (see :data:`GATED_TRACKS`)
regressed by more than ``--max-regression`` (a ratio; 2.0 means "twice as
slow") on any graph present in both reports.  Only graphs in the
intersection are compared, so a ``--suite quick`` run gates cleanly against a
full-suite baseline; a comparison that finds no gated track on any shared
graph fails instead of passing vacuously.

``--telemetry`` adds a phase-span trace (``--telemetry-out``, JSON lines)
and a ``telemetry`` section to the report.  The trace comes from a
*separate untimed pass* after the timed suite: traced runs take the same
drivers, but their span and profile bookkeeping stays out of the gated
wall times.  See ``docs/observability.md``.
"""

from __future__ import annotations

import argparse
import json
import platform
import random
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

from ..analysis.verify import is_maximal_independent_set
from ..core.bdone import bdone
from ..core.dominance import TriangleWorkspace
from ..core.linear_time import linear_time, linear_time_reduce
from ..core.near_linear import near_linear
from ..core.workspace import ArrayWorkspace, FlatWorkspace
from ..graphs.generators import gnm_random_graph, power_law_graph, web_like_graph
from ..graphs.static_graph import Graph
from ..localsearch.arw import LocalSearchState
from ..localsearch.boosted import arw_lt
from ..obs.report import render_report, summarize
from ..obs.telemetry import telemetry_session
from ..obs.trace_io import write_trace

__all__ = [
    "build_suite",
    "run_suite",
    "run_telemetry_pass",
    "compare_reports",
    "main",
]

SCHEMA_VERSION = 10

#: The tracks the CI gate watches: record key in ``timings[graph]`` plus
#: the wall-time field inside it.  LinearTime is the paper's headline
#: contribution; NearLinear and ARW-LT gate the flat dominance workspace
#: and the flat local-search state respectively; ServeIncremental gates
#: the serving layer's localized-repair latency on mutation streams, and
#: ServeLoad the async front-end's replay wall.
GATED_TRACKS: Dict[str, Tuple[str, str]] = {
    "linear_time": ("LinearTime", "flat_wall"),
    "near_linear": ("NearLinear", "flat_wall"),
    "arw_lt": ("ARW-LT", "flat_wall"),
    "serve_incremental": ("ServeIncremental", "repair_wall"),
    "serve_load": ("ServeLoad", "async_wall"),
}

#: Edge flips per mutation round in the serve track — small enough to stay
#: on the repair path, large enough to touch several neighbourhoods.
_SERVE_MUTATIONS_PER_ROUND = 4

#: Fixed iteration budget for the ARW-LT end-to-end track — wall-clock
#: budgets would make the measured work machine-dependent.
_ARW_ITERATIONS = 40

#: Per-suite shape of the ``serve_load`` track's replay workload (see
#: :mod:`repro.serve.loadgen`): loadgen-config overrides plus the shard
#: fleet size.  The smoke shape exists so the track runs inside the unit
#: tests in well under a second; the quick/full shapes are serving-scale
#: (the graphs are big enough that answer materialization, not dispatch
#: overhead, dominates a cache hit — the regime the front-end amortizes).
_SERVE_LOAD_SHAPES: Dict[str, Dict[str, object]] = {
    "smoke": {
        "vertices": 300,
        "edge_probability": 0.02,
        "graphs": 2,
        "requests": 80,
        "burst": 8,
        "mutate_every": 10,
        "shards": 2,
    },
    "quick": {
        "vertices": 4_000,
        "edge_probability": 0.002,
        "graphs": 4,
        "requests": 300,
        "burst": 16,
        "mutate_every": 25,
        "shards": 4,
    },
    "full": {
        "vertices": 10_000,
        "edge_probability": 0.001,
        "graphs": 4,
        "requests": 600,
        "burst": 16,
        "mutate_every": 25,
        "shards": 4,
    },
}

# name -> (factory, run the ARW-LT track on it?)
_SUITES: Dict[str, List[Tuple[str, Callable[[], Graph], bool]]] = {
    "smoke": [
        ("plr-300", lambda: power_law_graph(300, beta=2.3, average_degree=5.0, seed=1), True),
        ("gnm-400", lambda: gnm_random_graph(400, 1200, seed=2), True),
    ],
    "quick": [
        ("plr-4k", lambda: power_law_graph(4_000, beta=2.2, average_degree=6.0, seed=3), True),
        ("gnm-3k", lambda: gnm_random_graph(3_000, 9_000, seed=4), True),
        ("web-3k", lambda: web_like_graph(3_000, attach=3, seed=5), True),
    ],
}
_SUITES["full"] = _SUITES["quick"] + [
    # The big one: the ARW track is skipped here to keep the full suite
    # under a minute; the backend comparisons (including NearLinear
    # flat-vs-TriangleWorkspace) are not.
    ("plr-50k", lambda: power_law_graph(50_000, beta=2.2, average_degree=6.0, seed=7), False),
]


def build_suite(name: str) -> List[Tuple[str, Graph, bool]]:
    """Materialise the named suite's graphs (deterministic: seeded)."""
    return [(gname, factory(), deep) for gname, factory, deep in _SUITES[name]]


def _best_of(fn: Callable[[], object], repeats: int) -> Tuple[object, float]:
    """Run ``fn`` ``repeats`` times; return (last result, best wall time)."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return result, best


def _time_backends(
    algorithm: Callable[..., object],
    graph: Graph,
    repeats: int,
    oracle_factory: type = ArrayWorkspace,
) -> Dict[str, float]:
    """Time ``algorithm`` end-to-end under its flat and oracle backends.

    ``oracle_factory`` is the reference workspace passed through the
    algorithm's ``workspace_factory`` hook, which calls it as the
    algorithm calls its default (``(graph, track_degree_two=...)`` for
    BDOne/LinearTime, ``(graph, keep)`` for NearLinear); the default
    backend is always the flat one, and the two runs must agree on the
    solution.  The one
    allowed exception: a flat BDOne/LinearTime run that batched a
    degree-one round (a worklist of
    :data:`~repro.core.workspace.BATCH_MIN_FRONTIER` or more vertices,
    ``plr-50k``) may settle a different set.  It must then be maximal, the
    exact-rule kernel of :func:`linear_time_reduce` must keep the oracle's
    size, and exact answers must keep the oracle's size and bound.
    """
    flat_spaces: List[FlatWorkspace] = []

    def recording_flat(g: Graph, track_degree_two: bool = False) -> FlatWorkspace:
        workspace = FlatWorkspace(g, track_degree_two=track_degree_two)
        flat_spaces.append(workspace)
        return workspace

    if oracle_factory is ArrayWorkspace:
        # BDOne and LinearTime default to FlatWorkspace: record it to see
        # whether the run batched.
        def run_flat() -> object:
            return algorithm(graph, workspace_factory=recording_flat)
    else:
        def run_flat() -> object:
            return algorithm(graph)

    flat_result, flat_wall = _best_of(run_flat, repeats)
    oracle_result, oracle_wall = _best_of(
        lambda: algorithm(graph, workspace_factory=oracle_factory), repeats
    )
    if any(workspace._rounds for workspace in flat_spaces):
        assert is_maximal_independent_set(graph, flat_result.independent_set)
        kernel, _, _ = linear_time_reduce(graph)
        oracle_kernel, _, _ = linear_time_reduce(
            graph, workspace_factory=ArrayWorkspace
        )
        assert (kernel.n, kernel.m) == (oracle_kernel.n, oracle_kernel.m)
        if flat_result.is_exact and oracle_result.is_exact:
            assert flat_result.upper_bound == oracle_result.upper_bound
            assert len(flat_result.independent_set) == len(
                oracle_result.independent_set
            )
    else:
        assert flat_result.independent_set == oracle_result.independent_set
    return {
        "flat_wall": flat_wall,
        "oracle_wall": oracle_wall,
        "flat_solver": flat_result.elapsed,
        "oracle_solver": oracle_result.elapsed,
        "speedup": oracle_wall / flat_wall if flat_wall > 0 else float("inf"),
        "size": len(flat_result.independent_set),
        "upper_bound": flat_result.upper_bound,
    }


def _time_arw_lt(graph: Graph, repeats: int) -> Optional[Dict[str, float]]:
    """The ARW-LT track: the full ``arw_lt`` pipeline under a fixed
    iteration budget and RNG seed, for both search states.

    Returns ``None`` when the LinearTime kernel is empty (nothing to
    search — the exact rules solved the graph).
    """
    kernel, _, _ = linear_time_reduce(graph)
    if kernel.n == 0:
        return None
    flat_result, flat_wall = _best_of(
        lambda: arw_lt(
            graph,
            time_budget=3600.0,
            max_iterations=_ARW_ITERATIONS,
            rng=random.Random(0),
        ),
        repeats,
    )
    oracle_result, oracle_wall = _best_of(
        lambda: arw_lt(
            graph,
            time_budget=3600.0,
            max_iterations=_ARW_ITERATIONS,
            state_factory=LocalSearchState,
            rng=random.Random(0),
        ),
        repeats,
    )
    assert flat_result.independent_set == oracle_result.independent_set
    return {
        "flat_wall": flat_wall,
        "oracle_wall": oracle_wall,
        "speedup": oracle_wall / flat_wall if flat_wall > 0 else float("inf"),
        "size": flat_result.size,
        "kernel_n": kernel.n,
        "iterations": _ARW_ITERATIONS,
    }


def _time_serve_incremental(graph: Graph, repeats: int) -> Dict[str, float]:
    """The serving-layer track: warm-cache latency and repair-vs-fresh.

    Registers the graph with a :class:`~repro.serve.SolverService`, then
    measures (a) a warm cache-hit query against the cold solve it avoids,
    and (b) ``repeats`` seeded mutation rounds where the repair-path query
    races a fresh cold solve of the same mutated snapshot.  The repaired
    solution must stay within 95% of the fresh size — a silent quality
    collapse fails the bench, not just the speedup.
    """
    from ..serve import Mutation, ServiceConfig, SolverService
    from ..serve.repair import cold_solve

    _, cold_wall = _best_of(lambda: cold_solve(graph, "linear_time"), repeats)

    service = SolverService(ServiceConfig(algorithm="linear_time"))
    graph_id = service.register(graph)
    first = service.solve(graph_id)
    _, warm_wall = _best_of(lambda: service.solve(graph_id), repeats)

    rng = random.Random(11)
    repair_wall = float("inf")
    fresh_wall = float("inf")
    repair_size = fresh_size = 0
    region_total = 0
    dynamic = service.dynamic_graph(graph_id)
    for _ in range(repeats):
        live = list(dynamic.live_vertices())
        mutations = []
        for _ in range(_SERVE_MUTATIONS_PER_ROUND):
            u, v = rng.sample(live, 2)
            kind = "remove_edge" if dynamic.has_edge(u, v) else "add_edge"
            mutations.append(Mutation(kind, u, v))
        service.apply(graph_id, mutations)

        start = time.perf_counter()
        repaired = service.solve(graph_id)
        repair_wall = min(repair_wall, time.perf_counter() - start)
        assert repaired.source == "repair", repaired.source
        region_total += repaired.repair_scope["region"]

        snapshot, _ = dynamic.snapshot()
        fresh, round_fresh_wall = _best_of(
            lambda: cold_solve(snapshot, "linear_time"), 1
        )
        fresh_wall = min(fresh_wall, round_fresh_wall)
        repair_size = repaired.size
        fresh_size = len(fresh.independent_set)
        assert repaired.size >= 0.95 * fresh_size, (repaired.size, fresh_size)

    return {
        "cold_wall": cold_wall,
        "warm_wall": warm_wall,
        "warm_speedup": cold_wall / warm_wall if warm_wall > 0 else float("inf"),
        "repair_wall": repair_wall,
        "fresh_wall": fresh_wall,
        "repair_speedup": (
            fresh_wall / repair_wall if repair_wall > 0 else float("inf")
        ),
        "size": repair_size,
        "fresh_size": fresh_size,
        "first_size": first.size,
        "rounds": repeats,
        "mean_region": region_total / repeats,
        "mutations_per_round": _SERVE_MUTATIONS_PER_ROUND,
    }


def _time_serve_load(suite: str) -> Dict[str, object]:
    """The ``serve_load`` track: the async front-end vs the sync service.

    Replays the suite-shaped seeded workload (:data:`_SERVE_LOAD_SHAPES`)
    through both serving paths under the same closed-loop client model and
    records walls, latency percentiles, and the throughput speedup.  The
    underlying harness hard-fails on a rid-level answer mismatch, so a
    committed record is also an equivalence certificate; the shed check
    (deadline-starved replay) is recorded alongside — every shed request
    must still have produced a valid answer.
    """
    from ..serve.loadgen import LoadgenConfig, run_serve_load_benchmark

    shape = dict(_SERVE_LOAD_SHAPES[suite])
    shards = int(shape.pop("shards"))  # type: ignore[arg-type]
    config = LoadgenConfig(**shape)  # type: ignore[arg-type]
    result = run_serve_load_benchmark(config, shards=shards, mode="thread")
    sync = result["sync"]
    asy = result["async"]
    return {
        "async_wall": result["async_wall"],
        "sync_wall": result["sync_wall"],
        "speedup": result["speedup"],
        "sync_p50": sync["p50"],  # type: ignore[index]
        "sync_p99": sync["p99"],  # type: ignore[index]
        "async_p50": asy["p50"],  # type: ignore[index]
        "async_p99": asy["p99"],  # type: ignore[index]
        "throughput": asy["throughput"],  # type: ignore[index]
        "coalesced": asy["coalesced"],  # type: ignore[index]
        "cache_hit_rate": asy["cache_hit_rate"],  # type: ignore[index]
        "shards": shards,
        "requests": result["config"]["requests"],  # type: ignore[index]
        "equivalent": result["equivalence"]["equivalent"],  # type: ignore[index]
        "shed_all_valid": result["shed_check"]["all_valid"],  # type: ignore[index]
    }


def run_suite(suite: str, repeats: int) -> Dict[str, object]:
    """Run the named suite; return the JSON-serialisable report."""
    report: Dict[str, object] = {
        "schema": SCHEMA_VERSION,
        "suite": suite,
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "repeats": repeats,
        "graphs": {},
        "timings": {},
    }
    for gname, graph, deep in build_suite(suite):
        report["graphs"][gname] = {"n": graph.n, "m": graph.m}
        timings: Dict[str, object] = {
            "BDOne": _time_backends(bdone, graph, repeats),
            "LinearTime": _time_backends(linear_time, graph, repeats),
            "NearLinear": _time_backends(
                near_linear, graph, repeats, oracle_factory=TriangleWorkspace
            ),
        }
        if deep:
            arw_track = _time_arw_lt(graph, repeats)
            if arw_track is not None:
                timings["ARW-LT"] = arw_track
        timings["ServeIncremental"] = _time_serve_incremental(graph, repeats)
        report["timings"][gname] = timings
    # The serving front-end track lives under a pseudo-graph key: its input
    # is a whole workload, not one suite graph, but the gate machinery
    # (record key + wall field per graph) applies unchanged.
    report["graphs"]["serve-load"] = dict(_SERVE_LOAD_SHAPES[suite])
    report["timings"]["serve-load"] = {"ServeLoad": _time_serve_load(suite)}
    return report


def run_telemetry_pass(suite: str) -> Tuple[List[Dict[str, object]], Dict[str, object]]:
    """One telemetered solve per (graph, gated algorithm); returns records + summary.

    Kept separate from :func:`run_suite` on purpose: a traced run takes
    the same drivers, but the gated wall times are measured with telemetry
    *off* so they never carry the span and profile bookkeeping, and the
    traces are collected in an extra pass afterwards.
    """
    with telemetry_session(label=f"bench-{suite}") as telemetry:
        for _gname, graph, deep in build_suite(suite):
            linear_time(graph)
            near_linear(graph)
            if deep:
                arw_lt(
                    graph,
                    time_budget=3600.0,
                    max_iterations=_ARW_ITERATIONS,
                    rng=random.Random(0),
                )
    records = telemetry.to_records()
    return records, summarize(records)


def compare_reports(
    baseline: Dict[str, object],
    current: Dict[str, object],
    max_regression: float,
) -> List[str]:
    """Return regression messages (empty when the gate passes).

    Compares every :data:`GATED_TRACKS` flat wall time per graph, over the
    intersection of graphs in both reports; a track missing from either
    side of a graph (e.g. ARW-LT on a solved-by-rules graph) is skipped.
    A comparison that skips every (track, graph) pair fails: a gate that
    compared nothing must not pass.
    """
    failures: List[str] = []
    base_timings = baseline.get("timings", {})
    cur_timings = current.get("timings", {})
    shared = sorted(set(base_timings) & set(cur_timings))
    if not shared:
        return [
            "no graphs in common between baseline and current report; "
            "cannot gate (baseline suite: %s, current suite: %s)"
            % (baseline.get("suite"), current.get("suite"))
        ]
    compared = 0
    for track, (record, field) in sorted(GATED_TRACKS.items()):
        for gname in shared:
            base = base_timings[gname].get(record)
            cur = cur_timings[gname].get(record)
            if not base or not cur or field not in base or field not in cur:
                continue
            base_wall = base[field]
            cur_wall = cur[field]
            if base_wall <= 0:
                continue
            compared += 1
            ratio = cur_wall / base_wall
            if ratio > max_regression:
                failures.append(
                    f"{track} on {gname}: {cur_wall:.4f}s vs baseline "
                    f"{base_wall:.4f}s ({ratio:.2f}x > {max_regression:.2f}x allowed)"
                )
    if not compared:
        failures.append(
            "no gated track on any graph shared with the baseline "
            f"(shared graphs: {', '.join(shared)}); cannot gate"
        )
    return failures


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.perf.bench_regression", description=__doc__
    )
    parser.add_argument(
        "--suite", choices=sorted(_SUITES), default="full", help="graph suite to run"
    )
    parser.add_argument("--out", default="bench_report.json", help="report path")
    parser.add_argument(
        "--compare", default=None, metavar="BASELINE", help="baseline JSON to gate against"
    )
    parser.add_argument(
        "--max-regression",
        type=float,
        default=2.0,
        help="fail when the gated wall time exceeds baseline by this ratio",
    )
    parser.add_argument("--repeats", type=int, default=3, help="timing repeats (best-of)")
    parser.add_argument(
        "--telemetry",
        action="store_true",
        help="collect a phase-span trace in an extra (untimed) pass",
    )
    parser.add_argument(
        "--telemetry-out",
        default="bench_telemetry.jsonl",
        metavar="TRACE",
        help="JSON-lines trace path for --telemetry",
    )
    args = parser.parse_args(argv)

    report = run_suite(args.suite, max(1, args.repeats))
    if args.telemetry:
        records, summary = run_telemetry_pass(args.suite)
        write_trace(args.telemetry_out, records)
        report["telemetry"] = {
            "trace": args.telemetry_out,
            "phases": summary["phases"],
            "span_total": summary["span_total"],
            "counters": summary["counters"],
            "timers": summary["timers"],
            "profiles": [
                {
                    "algorithm": profile.get("algorithm"),
                    "graph": profile.get("graph"),
                    "samples": len(profile.get("samples") or []),
                }
                for profile in summary["profiles"]
            ],
        }
    with open(args.out, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")

    for gname, timings in report["timings"].items():
        line = [gname]
        for alg, rec in timings.items():
            if "async_wall" in rec:
                part = (
                    f"{alg} async {rec['async_wall']:.4f}s "
                    f"({rec['speedup']:.2f}x vs sync, "
                    f"p99 {rec['async_p99'] * 1000:.1f}ms)"
                )
            elif "repair_wall" in rec:
                part = (
                    f"{alg} repair {rec['repair_wall']:.4f}s "
                    f"({rec['repair_speedup']:.2f}x) warm {rec['warm_speedup']:.0f}x"
                )
            else:
                part = f"{alg} flat {rec['flat_wall']:.4f}s ({rec['speedup']:.2f}x)"
            line.append(part)
        print("  ".join(line))
    print(f"report written to {args.out}")
    if args.telemetry:
        print(render_report(records, title=f"telemetry ({args.telemetry_out}):"))

    if args.compare:
        with open(args.compare) as handle:
            baseline = json.load(handle)
        failures = compare_reports(baseline, report, args.max_regression)
        if failures:
            for message in failures:
                print(f"REGRESSION: {message}", file=sys.stderr)
            return 1
        print(f"regression gate passed against {args.compare}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
