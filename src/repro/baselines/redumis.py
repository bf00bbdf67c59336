"""ReduMIS — evolutionary search with full kernelization (Lamm et al. [28]).

The original ReduMIS applies the complete reduction portfolio of [1] to
obtain a minimal kernel, then evolves a population of independent sets with
graph-partitioning-based combine operations.  This reproduction keeps the
architecture and the performance *profile* the paper relies on:

* an expensive **full kernelization** up front (the reason ReduMIS starts
  late in the Figure-10 convergence plots — see
  :func:`repro.exact.vcsolver.full_kernelize`);
* a **population** of solutions built by seeded randomized greedy + local
  search;
* **combine** rounds: two tournament-selected parents, offspring seeded by
  their intersection (vertices both parents agree on are very likely in
  good solutions), completed greedily, mutated by force-insertions, and
  improved by ARW local search before replacing the population's worst.

The partition-based crossover of [28] is simplified to the
intersection-seeded rebuild; DESIGN.md §4 records the substitution.
"""

from __future__ import annotations

import random
import time
from typing import List, Optional, Set

from ..core.result import MISResult
from ..core.result import STAT_KERNEL_SIZE, STAT_ROUNDS
from ..exact.vcsolver import full_kernelize
from ..graphs.static_graph import Graph
from ..localsearch.arw import arw
from ..localsearch.events import ConvergenceRecorder
from ..localsearch.flat_state import FlatLocalSearchState

__all__ = ["redumis"]


def _randomized_greedy(graph: Graph, rng: random.Random) -> Set[int]:
    """A maximal independent set from a random low-degree-biased order."""
    order = sorted(range(graph.n), key=lambda v: (graph.degree(v), rng.random()))
    state = FlatLocalSearchState(graph, [])
    for v in order:
        if state.tightness[v] == 0 and not state.in_solution[v]:
            state.insert(v)
    return state.solution()


def _complete_greedily(graph: Graph, seed_set: Set[int], rng: random.Random) -> Set[int]:
    """Extend a partial independent set to a maximal one, randomly biased."""
    state = FlatLocalSearchState(graph, seed_set)
    order = sorted(range(graph.n), key=lambda v: (graph.degree(v), rng.random()))
    for v in order:
        if state.tightness[v] == 0 and not state.in_solution[v]:
            state.insert(v)
    return state.solution()


def redumis(
    graph: Graph,
    time_budget: float = 2.0,
    seed: int = 0,
    population_size: int = 8,
    max_rounds: Optional[int] = None,
    recorder: Optional[ConvergenceRecorder] = None,
) -> MISResult:
    """Evolutionary independent-set search on the full-rule kernel."""
    start = time.perf_counter()
    rng = random.Random(seed)
    if recorder is None:
        recorder = ConvergenceRecorder()
    kernel_result = full_kernelize(graph)
    kernel = kernel_result.kernel
    stats = {STAT_KERNEL_SIZE: kernel.n, STAT_ROUNDS: 0}

    if kernel.n == 0:
        solution = kernel_result.lift(())
        recorder.record(len(solution))
        return MISResult(
            algorithm="ReduMIS",
            graph_name=graph.name,
            independent_set=frozenset(solution),
            upper_bound=graph.n,
            stats=stats,
            elapsed=time.perf_counter() - start,
        )

    # Initial population: randomized greedy + a short local-search polish.
    population: List[Set[int]] = []
    for _ in range(population_size):
        individual = _randomized_greedy(kernel, rng)
        improved, _ = arw(
            kernel,
            individual,
            time_budget=time_budget / (4 * population_size),
            seed=rng.randrange(1 << 30),
            max_iterations=5,
        )
        population.append(improved)
        if recorder.elapsed > time_budget:
            break
    best = max(population, key=len)
    recorder.record(len(kernel_result.lift(best)))

    rounds = 0
    while recorder.elapsed < time_budget:
        rounds += 1
        if max_rounds is not None and rounds > max_rounds:
            break
        # Tournament selection of two parents.
        def pick() -> Set[int]:
            a, b = rng.sample(range(len(population)), 2)
            return max(population[a], population[b], key=len)

        parent_a, parent_b = pick(), pick()
        child_seed = parent_a & parent_b
        child = _complete_greedily(kernel, child_seed, rng)
        # Mutation: a couple of force-insertions shakes the offspring off
        # its parents' local optimum.
        state = FlatLocalSearchState(kernel, child)
        for _ in range(rng.randrange(1, 3)):
            v = rng.randrange(kernel.n)
            state.force_insert(v)
        state.local_search()
        child = state.solution()
        improved, _ = arw(
            kernel,
            child,
            time_budget=min(0.05, time_budget / 10),
            seed=rng.randrange(1 << 30),
            max_iterations=10,
        )
        worst = min(range(len(population)), key=lambda i: len(population[i]))
        if len(improved) > len(population[worst]):
            population[worst] = improved
        if len(improved) > len(best):
            best = improved
            recorder.record(len(kernel_result.lift(best)))
    stats[STAT_ROUNDS] = rounds
    solution = kernel_result.lift(best)
    recorder.record(len(solution))
    return MISResult(
        algorithm="ReduMIS",
        graph_name=graph.name,
        independent_set=frozenset(solution),
        upper_bound=graph.n,
        stats=stats,
        elapsed=time.perf_counter() - start,
    )
