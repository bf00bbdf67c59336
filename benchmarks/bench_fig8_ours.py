"""Figure 8 — time and memory of BDOne, BDTwo, LinearTime, NearLinear (+ exact).

Paper shape: BDOne, LinearTime and NearLinear run in similar (linear) time;
BDTwo is slower and uses ~3× the memory (6m vs 2m edge words); the exact
VCSolver-style search costs at least an order of magnitude more wherever a
kernel survives.
"""

import pytest
from conftest import emit

from repro.analysis import model_words
from repro.bench import dataset_names, format_seconds, load, render_table
from repro.core import bdone, bdtwo, linear_time, near_linear
from repro.errors import BudgetExceededError
from repro.exact import maximum_independent_set

ALGORITHMS = {
    "BDOne": bdone,
    "BDTwo": bdtwo,
    "LinearTime": linear_time,
    "NearLinear": near_linear,
}

_timings = {}


@pytest.mark.parametrize("name", list(ALGORITHMS))
def test_fig8_our_algorithms_sweep(benchmark, name):
    algorithm = ALGORITHMS[name]
    graphs = [load(graph_name) for graph_name in dataset_names("easy")]

    def sweep():
        return [algorithm(graph) for graph in graphs]

    results = benchmark.pedantic(sweep, rounds=1, iterations=1, warmup_rounds=0)
    _timings[name] = {r.graph_name: r.elapsed for r in results}
    if len(_timings) == len(ALGORITHMS):
        _emit_tables(graphs)


def test_fig8_exact_solver_reference(benchmark):
    """VCSolver reference point on a few instances (pedantic, one round)."""
    names = ["GrQc-sim", "Email-sim", "Epinions-sim"]

    def solve_all():
        out = {}
        for graph_name in names:
            try:
                result = maximum_independent_set(load(graph_name), node_budget=60_000)
                out[graph_name] = result.elapsed
            except BudgetExceededError:
                out[graph_name] = float("inf")
        return out

    timings = benchmark.pedantic(solve_all, rounds=1, iterations=1)
    rows = [[name, format_seconds(t) if t != float("inf") else "budget"] for name, t in timings.items()]
    emit(
        "fig8_exact_reference",
        render_table(
            ["Graph", "VCSolver time"],
            rows,
            title="Figure 8 (reference): exact branch-and-reduce runtime",
        ),
    )


def _emit_tables(graphs):
    time_rows = []
    memory_rows = []
    for graph in graphs:
        time_rows.append(
            [graph.name]
            + [format_seconds(_timings[name][graph.name]) for name in ALGORITHMS]
        )
        memory_rows.append(
            [graph.name] + [model_words(name, graph) for name in ALGORITHMS]
        )
    emit(
        "fig8a_our_times",
        render_table(
            ["Graph"] + list(ALGORITHMS),
            time_rows,
            title="Figure 8(a): processing time of the reducing-peeling algorithms",
        ),
    )
    emit(
        "fig8b_our_memory",
        render_table(
            ["Graph"] + list(ALGORITHMS),
            memory_rows,
            title="Figure 8(b): memory usage (Table-1 word model)",
        ),
    )
    # Shape assertions: BDTwo's memory model is ~3x BDOne's, and the three
    # light algorithms finish within a small factor of each other overall.
    for graph in graphs:
        assert model_words("BDTwo", graph) > 2.0 * model_words("BDOne", graph) - 10 * graph.n
    totals = {name: sum(times.values()) for name, times in _timings.items()}
    assert totals["LinearTime"] < 5 * totals["BDOne"] + 1.0
