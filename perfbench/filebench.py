"""The file workloads: graph file → parse → CSR → solve → verify → answer file.

``run_file_workload`` (parent process) generates the inputs, starts a
fresh worker process for each pass, and checks every answer the worker
wrote against the generator's own edge arrays.  The worker
(``python3 perfbench/filebench.py SPEC OUT``) imports the program, runs
the ops, and reports per-op walls plus its own peak RSS, so the memory
figure covers only the pass.

An op is what ``repro solve`` does for one file: ``read_edge_list``; one of
``LinearTime`` / ``NearLinear`` (``compute_independent_set``) or ARW-LT
(``arw_lt`` with a fixed iteration budget and a seeded RNG); the library's
own maximality and bound check (``analysis.verify``); the answer written
one vertex label per line.

A traced pass runs the same ops with timers wrapped around the library's
public calls from outside: ``Graph.from_edges`` inside the reader, the
workspace factory, the dominance sweep and LP solver that ``near_linear``
accepts as arguments, and ``kernelize`` inside ARW-LT.  Kernelization on
its own (``linear_time_reduce`` / ``near_linear_reduce``) is timed by a
separate call after the op, outside the op's wall.
"""

from __future__ import annotations

import json
import os
import random
import resource
import subprocess
import sys
import time
from collections import defaultdict
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from catalog import empty_metrics
from checks import check_bound, check_members, read_answer
from common import (
    ROOT,
    median,
    metric,
    note,
    percentile,
    program_env,
    require_program,
    result_line,
    sha256_file,
)
from inputs import EdgeArrays, chung_lu, gnm, write_edge_list
from reference import Reference, factor
from tracing import Calls, Patches

ALGORITHMS = ("LinearTime", "NearLinear", "ARW-LT")
#: ARW-LT runs this many local-search iterations; the wall-clock budget is
#: set far out of reach so the iteration count alone ends the search.
ARW_ITERATIONS = 30
ARW_TIME_BUDGET = 1e6
#: An op slower than this misses the latency limit in ``slo_frac``.
FILE_OP_LIMIT_S = 30.0
#: Set-up is timed raw, not scaled by the reference loop: it is half numpy
#: and follows the loop only weakly.  Between two sets of ten runs whose
#: loop speed differed by 38%, scaling moved the plr-file median of
#: ``setup_s`` by 20% and the raw median moved by 12%.
SETUP_REPEATS = 9
#: Rounds of each pass in a traced run; per-layer figures are per round.
TRACE_ROUNDS = 3
WORKER_TIMEOUT_S = 170.0

#: name -> (generator, parameters at full scale, parameters at toy scale)
FILE_WORKLOADS: Dict[str, Tuple[str, Dict[str, float], Dict[str, float]]] = {
    "plr-file": ("chung-lu", {"n": 50_000, "beta": 2.2, "degree": 6.0},
                 {"n": 3_000, "beta": 2.2, "degree": 6.0}),
    "gnm-file": ("gnm", {"n": 25_000, "degree": 6.0}, {"n": 1_500, "degree": 6.0}),
}

RULE_GROUPS = {
    "core.rule.degree_one": ("degree-one",),
    "core.rule.path": ("path:", "degree-two-"),
    "core.rule.dominance": ("dominance", "one-pass-dominance"),
    "core.rule.lp": ("lp-included", "lp-excluded"),
}

LAYER_SECONDS = (
    "io.parse_s",
    "io.csr_build_s",
    "io.write_s",
    "core.setup_s",
    "core.kernelize_s",
    "core.dominance_s",
    "core.lp_s",
    "core.peel_replay_s",
    "localsearch.arw_s",
    "verify.check_s",
)
#: The layers that partition an op's wall (the rest are nested inside them).
OP_PARTITION = (
    "io.parse_s",
    "io.csr_build_s",
    "core.kernelize_s",
    "core.peel_replay_s",
    "localsearch.arw_s",
    "verify.check_s",
    "io.write_s",
)


def generate(name: str, seed: int, toy: bool) -> EdgeArrays:
    family, full, small = FILE_WORKLOADS[name]
    params = small if toy else full
    rng = np.random.default_rng([seed, sorted(FILE_WORKLOADS).index(name)])
    if family == "chung-lu":
        return chung_lu(int(params["n"]), params["beta"], params["degree"], rng)
    return gnm(int(params["n"]), params["degree"], rng)


# ----------------------------------------------------------------------
# Worker process
# ----------------------------------------------------------------------
def _require_obs_off() -> None:
    # An active telemetry or metrics session reroutes the solvers off the
    # flat production drivers, so the timings would describe other code.
    from repro import obs

    if obs.get_telemetry() is not None or obs.get_metrics() is not None:
        raise RuntimeError("repro.obs telemetry/metrics active during a timed pass")


def _write_answer(path: str, members: Any, labels: Optional[List[int]]) -> None:
    ids = sorted(labels[v] for v in members) if labels else sorted(members)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(map(str, ids)))
        handle.write("\n")


def _solve(repro: Any, graph: Any, algorithm: str, arw_seed: int) -> Tuple[Any, Optional[int], bool, Any]:
    if algorithm == "ARW-LT":
        boosted = repro.arw_lt(
            graph,
            time_budget=ARW_TIME_BUDGET,
            max_iterations=ARW_ITERATIONS,
            rng=random.Random(arw_seed),
        )
        return boosted.independent_set, None, False, boosted
    result = repro.compute_independent_set(graph, algorithm)
    return result.independent_set, result.upper_bound, result.is_exact, result


def _solve_traced(
    repro: Any, graph: Any, algorithm: str, arw_seed: int, timers: Calls
) -> Tuple[Any, Optional[int], bool, Any]:
    """The same solve, with timers around the public calls it is built from."""
    core = repro.core
    if algorithm == "LinearTime" and hasattr(core, "FlatWorkspace"):
        result = core.linear_time(
            graph, workspace_factory=timers.wrap("core.setup_s", core.FlatWorkspace)
        )
    elif algorithm == "NearLinear" and hasattr(core, "FlatTriangleWorkspace"):
        from repro.core.flat_dominance import flat_one_pass_dominance

        result = core.near_linear(
            graph,
            workspace_factory=timers.wrap("core.setup_s", core.FlatTriangleWorkspace),
            sweep=timers.wrap("core.dominance_s", flat_one_pass_dominance),
            lp=timers.wrap("core.lp_s", core.lp_reduction),
        )
    elif algorithm == "ARW-LT":
        from repro.localsearch import boosted

        patches = Patches()
        patches.wrap(boosted, "kernelize", timers, "arw.kernelize")
        try:
            return _solve(repro, graph, algorithm, arw_seed)
        finally:
            patches.undo()
    else:
        return _solve(repro, graph, algorithm, arw_seed)
    return result.independent_set, result.upper_bound, result.is_exact, result


def _rule_counts(stats: Dict[str, int]) -> Dict[str, int]:
    counts = {}
    for layer, prefixes in RULE_GROUPS.items():
        counts[layer] = sum(
            count for key, count in stats.items() if key.startswith(prefixes)
        )
    return counts


def _run_op(repro: Any, op: Dict[str, Any], answer: str, timers: Optional[Calls]) -> Dict[str, Any]:
    """One op; with ``timers``, the traced variant."""
    record: Dict[str, Any] = {"graph": op["graph"], "algorithm": op["algorithm"], "answer": answer}
    _require_obs_off()
    layers: Dict[str, float] = {}
    try:
        start = time.perf_counter()
        if timers is None:
            graph, labels = repro.read_edge_list(op["path"])
            members, bound, exact, raw = _solve(repro, graph, op["algorithm"], op["arw_seed"])
        else:
            from repro.graphs.static_graph import Graph

            patches = Patches()
            patches.wrap(Graph, "from_edges", timers, "io.csr_build_s")
            try:
                graph, labels = repro.read_edge_list(op["path"])
            finally:
                patches.undo()
            layers["io.csr_build_s"] = timers.take("io.csr_build_s")
            layers["io.parse_s"] = time.perf_counter() - start - layers["io.csr_build_s"]
            mark = time.perf_counter()
            members, bound, exact, raw = _solve_traced(
                repro, graph, op["algorithm"], op["arw_seed"], timers
            )
            solve = time.perf_counter() - mark
        mark = time.perf_counter()
        verified = bool(repro.is_maximal_independent_set(graph, members)) and (
            check_bound(len(members), bound, exact) is None
        )
        layers["verify.check_s"] = time.perf_counter() - mark
        mark = time.perf_counter()
        _write_answer(answer, members, labels)
        layers["io.write_s"] = time.perf_counter() - mark
        record["wall"] = time.perf_counter() - start
    except Exception as exc:  # noqa: BLE001 - a failed op is counted, not fatal
        record["error"] = f"{type(exc).__name__}: {exc}"
        return record
    record.update(
        verified=verified, size=len(members), upper_bound=bound, is_exact=exact,
        n=graph.n, m=graph.m,
    )
    if timers is not None:
        record.update(_trace_solve(repro, graph, op["algorithm"], raw, solve, timers, layers))
    return record


def _trace_solve(
    repro: Any, graph: Any, algorithm: str, raw: Any, solve: float,
    timers: Calls, layers: Dict[str, float],
) -> Dict[str, Any]:
    """Split the solve wall into layers; times kernelization after the op."""
    layers["core.setup_s"] = timers.take("core.setup_s")
    layers["core.dominance_s"] = timers.take("core.dominance_s")
    layers["core.lp_s"] = timers.take("core.lp_s")
    extra: Dict[str, Any] = {}
    if algorithm == "ARW-LT":
        kernelize = timers.take("arw.kernelize")
        layers["core.kernelize_s"] = kernelize
        layers["localsearch.arw_s"] = solve - kernelize
        extra["kernel_n"] = raw.kernel_result.kernel.n
    else:
        reduce = (
            repro.core.linear_time_reduce
            if algorithm == "LinearTime"
            else repro.core.near_linear_reduce
        )
        mark = time.perf_counter()
        kernel, _, _ = reduce(graph)
        kernelize = time.perf_counter() - mark
        layers["core.kernelize_s"] = kernelize
        layers["core.peel_replay_s"] = solve - kernelize
        extra.update(
            kernel_n=kernel.n,
            peels=raw.peeled,
            surviving_peels=raw.surviving_peels,
            rules=_rule_counts(dict(raw.stats)),
        )
    extra["layers"] = layers
    return extra


def worker_main(spec_path: str, out_path: str) -> int:
    with open(spec_path, "r", encoding="utf-8") as handle:
        spec = json.load(handle)
    require_program()
    import repro

    timers = Calls() if spec["traced"] else None
    reference = Reference()
    records: List[Dict[str, Any]] = []
    round_walls: List[float] = []
    start = time.perf_counter()
    while True:
        mark = time.perf_counter()
        for index, op in enumerate(spec["ops"]):
            answer = f"{spec['answers']}.{len(round_walls)}.{index}.txt"
            reference.sample(2)
            records.append(_run_op(repro, op, answer, timers))
        round_walls.append(time.perf_counter() - mark)
        elapsed = time.perf_counter() - start
        if len(round_walls) >= spec["max_rounds"]:
            break
        if spec["seconds"] is not None and elapsed + sum(round_walls) / len(round_walls) > spec["seconds"]:
            break
    reference.sample(2)
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    samples = reference.samples
    for index, record in enumerate(records):
        # The CPU's speed wanders from one second to the next, so an op is
        # scaled by the sample pairs nearest it: those taken before the
        # previous op, before this op, after it and after the next op.  Over
        # six seeds of gnm-file this cut the spread of edges_per_s from 0.14
        # to 0.09, against one scale for the whole run.
        record["scale"] = factor(samples[max(0, 2 * index - 2):2 * index + 6])
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump({"records": records, "rounds": len(round_walls), "rss_mb": rss_kib / 1024.0,
                   "scale": factor(samples)}, handle)
    return 0


# ----------------------------------------------------------------------
# Parent process
# ----------------------------------------------------------------------
def _run_pass(
    workdir: str, label: str, ops: List[Dict[str, Any]], seconds: Optional[float],
    max_rounds: int, traced: bool,
) -> Dict[str, Any]:
    spec_path = os.path.join(workdir, f"{label}.spec.json")
    out_path = os.path.join(workdir, f"{label}.out.json")
    with open(spec_path, "w", encoding="utf-8") as handle:
        json.dump({"ops": ops, "seconds": seconds, "max_rounds": max_rounds, "traced": traced,
                   "answers": os.path.join(workdir, f"{label}.answer")}, handle)
    subprocess.run(
        [sys.executable, os.path.abspath(__file__), spec_path, out_path],
        cwd=ROOT, env=program_env(), check=True, timeout=WORKER_TIMEOUT_S,
        stdin=subprocess.DEVNULL,
    )
    with open(out_path, "r", encoding="utf-8") as handle:
        out = json.load(handle)
    for record in out["records"]:
        if "wall" in record:
            record["raw_wall"] = record["wall"]
            record["wall"] *= record["scale"]
        for layer in record.get("layers", {}):
            record["layers"][layer] *= record["scale"]
    return out


def _corrupt(path: str, graph: EdgeArrays, fault: str) -> None:
    """Seeded fault: drop one vertex from an answer, or add a neighbour of one."""
    members = read_answer(path)
    if fault == "drop":
        members = members[1:]
    else:
        chosen = int(members[0])
        neighbours = np.concatenate([graph.b[graph.a == chosen], graph.a[graph.b == chosen]])
        members = np.append(members, neighbours[:1])
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(map(str, members.tolist())) + "\n")


def _check(records: List[Dict[str, Any]], graphs: Dict[str, EdgeArrays]) -> List[str]:
    """Mark each record ``ok`` (or give its ``failure``); returns the failures."""
    failures = []
    answers: Dict[Tuple[str, str], int] = {}
    bounds: Dict[str, int] = {}
    for record in records:
        problem = record.get("error")
        if problem is None and not record["verified"]:
            problem = "the library's own verify rejected the answer"
        if problem is None:
            members = read_answer(record["answer"])
            problem = check_members(graphs[record["graph"]], members)
            if problem is None and members.size != record["size"]:
                problem = f"answer file holds {members.size} ids, solver reported {record['size']}"
        if problem is None:
            problem = check_bound(record["size"], record["upper_bound"], record["is_exact"])
        key = (record["graph"], record["algorithm"])
        if problem is None and answers.setdefault(key, record["size"]) != record["size"]:
            problem = f"{key} answered {record['size']}, earlier {answers[key]}"
        record["ok"] = problem is None
        if problem is None and record["upper_bound"] is not None:
            bound = bounds.get(record["graph"])
            bounds[record["graph"]] = record["upper_bound"] if bound is None else min(bound, record["upper_bound"])
        if problem is not None:
            record["failure"] = problem
            failures.append(f"{record['graph']} {record['algorithm']}: {problem}")
    for record in records:
        bound = bounds.get(record["graph"])
        if record["ok"] and bound is not None and record["size"] > bound:
            record["ok"] = False
            failures.append(f"{record['graph']} {record['algorithm']}: |I| above certified bound {bound}")
        record["certified_bound"] = bound
    return failures


def _distinct(records: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    seen: Dict[Tuple[str, str], Dict[str, Any]] = {}
    for record in records:
        if record["ok"]:
            seen.setdefault((record["graph"], record["algorithm"]), record)
    return list(seen.values())


def _quality(records: List[Dict[str, Any]]) -> Tuple[int, int]:
    """Σ|I| and Σ bound over one answer per (graph, algorithm)."""
    distinct = [r for r in _distinct(records) if r["certified_bound"] is not None]
    return sum(r["size"] for r in distinct), sum(r["certified_bound"] for r in distinct)


def _end_to_end(records: List[Dict[str, Any]], setup: List[float], rss_mb: float) -> Dict[str, Any]:
    ok = [r for r in records if r["ok"]]
    walls = [r["wall"] for r in ok]
    size, bound = _quality(records)
    # Throughput of a median round: each (graph, algorithm) op at its median
    # wall, so a slow spell on a shared machine moves it only if it spans
    # half of that op's repeats.
    median_round = _median_round(records)
    edges = sum(m for m, _ in median_round)
    seconds = sum(wall for _, wall in median_round)
    return {
        "setup_s": metric(median(setup), "s"),
        "edges_per_s": metric(edges / seconds if seconds else 0.0, "edges/s"),
        "peak_rss_mb": metric(rss_mb, "MB"),
        "mis_size": metric(size, "vertices"),
        "bound_ratio": metric(size / bound if bound else 0.0, "ratio"),
        "solve_p50_ms": metric(median(walls) * 1000.0 if walls else 0.0, "ms"),
        # A run holds tens of ops, too few for a tail percentile of raw
        # walls (it would be the single slowest op); the tail is taken over
        # the round's op kinds instead, each at its median wall.
        "req_p99_ms": metric(percentile([w for _, w in median_round], 99) * 1000.0 if walls else 0.0, "ms"),
        "slo_frac": metric(
            sum(1 for r in ok if r["raw_wall"] <= FILE_OP_LIMIT_S) / len(records), "ratio"
        ),
    }


def _per_layer(
    traced: List[Dict[str, Any]], untraced: List[Dict[str, Any]], rounds: int
) -> Dict[str, Any]:
    """Layer figures of one traced round (seconds are means over the rounds)."""
    out = empty_metrics("per_layer")
    ok = [r for r in traced if r["ok"]]
    for name in LAYER_SECONDS:
        out[name]["value"] = sum(r["layers"].get(name, 0.0) for r in ok) / rounds
    first = _distinct(traced)
    out["io.edges_read"]["value"] = sum(r["m"] for r in first)
    n_total = sum(r["n"] for r in first)
    out["core.kernel_frac"]["value"] = sum(r["kernel_n"] for r in first) / n_total if n_total else 0.0
    solvers = [r for r in first if r["algorithm"] != "ARW-LT"]
    out["core.peels"]["value"] = sum(r["peels"] for r in solvers)
    out["core.surviving_peels"]["value"] = sum(r["surviving_peels"] for r in solvers)
    for name in RULE_GROUPS:
        out[name]["value"] = sum(r["rules"][name] for r in solvers)
    by_key = {(r["graph"], r["algorithm"]): r["size"] for r in first}
    out["localsearch.gain"]["value"] = sum(
        size - by_key[(graph, "LinearTime")]
        for (graph, algorithm), size in by_key.items()
        if algorithm == "ARW-LT" and (graph, "LinearTime") in by_key
    )
    coverage = [sum(r["layers"].get(k, 0.0) for k in OP_PARTITION) / r["wall"] for r in ok]
    out["trace.coverage"]["value"] = min(coverage) if coverage else 0.0
    out["trace.overhead_s"]["value"] = _median_round_seconds(traced) - _median_round_seconds(untraced)
    attempted = len(traced) + len(untraced)
    failed = sum(1 for r in traced + untraced if not r["ok"])
    out["fail_frac"]["value"] = failed / attempted
    size, bound = _quality(traced)
    out["bound_gap"]["value"] = (bound - size) / bound if bound else 0.0
    out["req_samples"]["value"] = len(ok)
    return out


def _median_round(records: List[Dict[str, Any]]) -> List[Tuple[int, float]]:
    """``(edges, median wall)`` of each (graph, algorithm) op among the good records."""
    walls: Dict[Tuple[str, str], List[float]] = defaultdict(list)
    for record in records:
        if record["ok"]:
            walls[(record["graph"], record["algorithm"])].append(record["wall"])
    return [(r["m"], median(walls[(r["graph"], r["algorithm"])])) for r in _distinct(records)]


def _median_round_seconds(records: List[Dict[str, Any]]) -> float:
    return sum(wall for _, wall in _median_round(records))


def run_file_workload(
    name: str, seed: int, seconds: float, trace: bool, toy: bool, fault: Optional[str],
    workdir: str,
) -> Dict[str, Any]:
    path = os.path.join(workdir, f"{name}.txt")
    setup: List[float] = []
    for _ in range(1 if trace else SETUP_REPEATS):
        start = time.perf_counter()
        graph = generate(name, seed, toy)
        write_edge_list(path, graph)
        setup.append(time.perf_counter() - start)
    inputs = {name: sha256_file(path)}
    note(f"{name}: n={graph.n} m={graph.m} sha256={inputs[name]} setup={setup}")
    graphs = {name: graph}
    ops = [
        {"graph": name, "path": path, "algorithm": algorithm, "arw_seed": seed}
        for algorithm in ALGORITHMS
    ]
    if trace:
        plain = _run_pass(workdir, "untraced", ops, None, TRACE_ROUNDS, traced=False)
        traced = _run_pass(workdir, "traced", ops, None, TRACE_ROUNDS, traced=True)
        if fault:
            _corrupt(traced["records"][0]["answer"], graph, fault)
        failures = _check(plain["records"], graphs) + _check(traced["records"], graphs)
        records = plain["records"] + traced["records"]
        metrics = _per_layer(traced["records"], plain["records"], traced["rounds"])
    else:
        timed = _run_pass(workdir, "timed", ops, seconds, 1000, traced=False)
        records = timed["records"]
        if fault:
            _corrupt(records[0]["answer"], graph, fault)
        failures = _check(records, graphs)
        metrics = _end_to_end(records, setup, timed["rss_mb"])
        note(f"{name}: {timed['rounds']} round(s), time scale {timed['scale']:.3f}, raw op walls "
             + ", ".join(f"{r['algorithm']}={r.get('raw_wall', float('nan')):.3f}s" for r in records))
    for failure in failures:
        note(f"FAILED {failure}")
    return dict(result_line(not failures, len(records), len(failures), metrics), inputs=inputs)


if __name__ == "__main__":
    sys.exit(worker_main(sys.argv[1], sys.argv[2]))
