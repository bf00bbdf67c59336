"""Table 5 — power-law random graphs, β ∈ [1.9, 2.7].

The paper generates nine PLR graphs with 10⁷ vertices (we scale to 2·10⁴)
and reports that *all* reducing-peeling algorithms certify a maximum
independent set on every one of them, while Greedy and SemiE leave gaps and
DU matches the optimum without being able to certify it.
"""

from conftest import emit

from repro.baselines import du, greedy, semi_external
from repro.bench import render_table
from repro.core import bdone, bdtwo, linear_time, near_linear
from repro.graphs import power_law_sequence_graph

N = 20_000
BETAS = [1.9, 2.0, 2.1, 2.2, 2.3, 2.4, 2.5, 2.6, 2.7]


def _table():
    rows = []
    all_certified = True
    for index, beta in enumerate(BETAS):
        graph = power_law_sequence_graph(N, beta, seed=500 + index)
        near = near_linear(graph)
        if not near.is_exact:
            all_certified = False
        alpha = near.size if near.is_exact else None
        row = [f"PLR{index + 1}", beta, alpha if alpha is not None else "?"]
        for algorithm in (greedy, du, semi_external):
            result = algorithm(graph)
            row.append(alpha - result.size if alpha is not None else "?")
        for algorithm in (bdone, bdtwo, linear_time):
            result = algorithm(graph)
            gap = alpha - result.size if alpha is not None else "?"
            row.append(f"{gap}{'*' if result.is_exact else ''}")
        row.append(f"0{'*' if near.is_exact else ''}")
        rows.append(row)
    return rows, all_certified


def test_table5_power_law(benchmark):
    rows, all_certified = benchmark.pedantic(_table, rounds=1, iterations=1)
    emit(
        "table5_powerlaw",
        render_table(
            ["Graph", "beta", "alpha", "Greedy", "DU", "SemiE", "BDOne", "BDTwo", "LinearTime", "NearLinear"],
            rows,
            title="Table 5: gaps on power-law random graphs (* = certified maximum)",
        ),
    )
    # Paper: every reducing-peeling algorithm reports a maximum on PLR
    # graphs.  At minimum NearLinear must certify all nine.
    assert all_certified
    # And the certified gaps of the reducing-peeling family are all zero.
    for row in rows:
        for cell in row[6:]:
            assert str(cell).startswith("0")
    # Certificate marks are deterministic, so assert every one: BDTwo,
    # LinearTime and NearLinear certify all nine graphs; BDOne certifies
    # PLR1–8, and on PLR9 one peel survives (gap 0, bound |I| + 1).
    for row in rows:
        bdone_mark = "0" if row[0] == "PLR9" else "0*"
        assert row[6:] == [bdone_mark, "0*", "0*", "0*"], row
