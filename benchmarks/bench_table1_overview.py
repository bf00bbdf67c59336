"""Table 1 — the complexity/space overview, checked empirically.

Two measurable claims are validated:

* **linear-time scaling** — BDOne and LinearTime runtime grows ~linearly
  with m (doubling the graph roughly doubles the time, far below a
  quadratic trend);
* **space model** — the word-count model reproduces Table 1's 2m/4m/6m
  ratios, and measured Python heap usage orders the same way
  (BDTwo > NearLinear > LinearTime ≈ BDOne).
"""

from conftest import emit

from repro.analysis import measure_peak_bytes, model_words
from repro.bench import format_seconds, render_table
from repro.core import bdone, bdtwo, linear_time, near_linear
from repro.graphs import power_law_graph

SIZES = [10_000, 20_000, 40_000]


def test_table1_time_scaling(benchmark):
    def sweep():
        out = {}
        for n in SIZES:
            graph = power_law_graph(n, 2.2, average_degree=6.0, seed=42)
            out[n] = {
                "m": graph.m,
                "BDOne": bdone(graph).elapsed,
                "LinearTime": linear_time(graph).elapsed,
                "NearLinear": near_linear(graph).elapsed,
                "BDTwo": bdtwo(graph).elapsed,
            }
        return out

    records = benchmark.pedantic(sweep, rounds=1, iterations=1)
    rows = [
        [n, records[n]["m"]]
        + [format_seconds(records[n][a]) for a in ("BDOne", "LinearTime", "NearLinear", "BDTwo")]
        for n in SIZES
    ]
    emit(
        "table1_time_scaling",
        render_table(
            ["n", "m", "BDOne", "LinearTime", "NearLinear", "BDTwo"],
            rows,
            title="Table 1 check: runtime scaling on power-law graphs",
        ),
    )
    # Quadrupling the graph must cost well below the quadratic factor 16.
    for algorithm in ("BDOne", "LinearTime"):
        ratio = records[SIZES[-1]][algorithm] / max(records[SIZES[0]][algorithm], 1e-9)
        assert ratio < 12.0


def test_table1_space_model(benchmark):
    graph = power_law_graph(20_000, 2.2, average_degree=6.0, seed=43)

    def measure():
        out = {}
        for name, algorithm in (
            ("BDOne", bdone),
            ("LinearTime", linear_time),
            ("NearLinear", near_linear),
            ("BDTwo", bdtwo),
        ):
            _, peak = measure_peak_bytes(lambda a=algorithm: a(graph))
            out[name] = (model_words(name, graph), peak)
        return out

    records = benchmark.pedantic(measure, rounds=1, iterations=1)
    rows = [[name, words, peak] for name, (words, peak) in records.items()]
    emit(
        "table1_space_model",
        render_table(
            ["Algorithm", "Model words", "Measured peak bytes"],
            rows,
            title="Table 1 check: space model vs measured heap peak",
        ),
    )
    assert records["BDTwo"][0] > 2.0 * records["BDOne"][0] - 10 * graph.n
    assert records["NearLinear"][0] > records["LinearTime"][0]
    # Measured: BDTwo's dynamic sets dominate the array workspaces.
    assert records["BDTwo"][1] > records["BDOne"][1]
