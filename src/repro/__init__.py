"""repro — Reducing-Peeling near-maximum independent sets.

A faithful, production-quality reproduction of

    Lijun Chang, Wei Li, Wenjie Zhang.
    "Computing A Near-Maximum Independent Set in Linear Time by
    Reducing-Peeling."  SIGMOD 2017.

Quickstart::

    from repro import power_law_graph, near_linear

    graph = power_law_graph(100_000, beta=2.3, average_degree=6, seed=7)
    result = near_linear(graph)
    print(result.size, result.upper_bound, result.is_exact)

Package map
-----------
``repro.core``
    The paper's contribution: the Reducing-Peeling framework, the four
    algorithms (BDOne, BDTwo, LinearTime, NearLinear), the reduction rules,
    kernelization, and the Theorem-6.1 upper bound.
``repro.graphs``
    Graph substrate: adjacency-array representation, builders, generators
    (power-law, G(n,m), web-like, …), IO, named paper examples, analytics.
``repro.exact``
    Brute force oracle, VCSolver-style branch-and-reduce, classic α upper
    bounds.
``repro.baselines``
    Greedy, DU, SemiE, OnlineMIS, ReduMIS.
``repro.localsearch``
    ARW iterated local search and the kernel-boosted ARW-LT / ARW-NL.
``repro.analysis``
    Verification, metrics, memory model.
``repro.bench``
    Benchmark datasets and harness utilities.
``repro.perf``
    The perf-regression harness (see ``docs/performance.md``).
``repro.serve``
    Incremental solving service: register graphs once, mutate them between
    queries, answer from a fingerprint-keyed kernel cache with localized
    repair (see ``docs/serving.md``).
"""

from . import analysis, baselines, bench, core, exact, graphs, localsearch, perf, serve
from .analysis import (
    assert_valid_solution,
    is_independent_set,
    is_maximal_independent_set,
    is_vertex_cover,
)
from .baselines import du, greedy, online_mis, redumis, semi_external
from .core import (
    ALGORITHMS,
    KernelResult,
    MISResult,
    VCResult,
    bdone,
    bdtwo,
    compute_independent_set,
    kernelize,
    linear_time,
    minimum_vertex_cover,
    near_linear,
    solve_by_components,
)
from .errors import (
    BudgetExceededError,
    GraphError,
    GraphFormatError,
    NotASolutionError,
    ReproError,
    VertexError,
)
from .exact import brute_force_mis, full_kernelize, independence_number, maximum_independent_set
from .graphs import (
    Graph,
    GraphBuilder,
    barabasi_albert_graph,
    gnm_random_graph,
    gnp_random_graph,
    power_law_graph,
    read_edge_list,
    read_metis,
    web_like_graph,
)
from .localsearch import arw, arw_lt, arw_nl
from .serve import DynamicGraph, Mutation, ServeResult, ServiceConfig, SolverService

__version__ = "1.0.0"

__all__ = [
    "ALGORITHMS",
    "BudgetExceededError",
    "DynamicGraph",
    "Graph",
    "GraphBuilder",
    "GraphError",
    "GraphFormatError",
    "KernelResult",
    "MISResult",
    "Mutation",
    "NotASolutionError",
    "ReproError",
    "ServeResult",
    "ServiceConfig",
    "SolverService",
    "VCResult",
    "VertexError",
    "analysis",
    "arw",
    "arw_lt",
    "arw_nl",
    "assert_valid_solution",
    "barabasi_albert_graph",
    "baselines",
    "bdone",
    "bdtwo",
    "bench",
    "brute_force_mis",
    "compute_independent_set",
    "core",
    "du",
    "exact",
    "full_kernelize",
    "gnm_random_graph",
    "gnp_random_graph",
    "graphs",
    "greedy",
    "independence_number",
    "is_independent_set",
    "is_maximal_independent_set",
    "is_vertex_cover",
    "kernelize",
    "linear_time",
    "localsearch",
    "maximum_independent_set",
    "minimum_vertex_cover",
    "near_linear",
    "perf",
    "solve_by_components",
    "online_mis",
    "power_law_graph",
    "read_edge_list",
    "read_metis",
    "redumis",
    "semi_external",
    "serve",
    "web_like_graph",
]
