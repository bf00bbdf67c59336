"""ARW boosted by reducing-peeling kernelization (paper Section 6).

ARW-LT and ARW-NL run the exact-rule half of LinearTime / NearLinear to
obtain the kernel 𝒦, seed the local search with the corresponding full
algorithm's solution *induced on the kernel*, iterate ARW on 𝒦, and lift
the best kernel solution back to the input graph.

Because the kernel may contain rewired edges that do not exist in the
original graph, the induced seed is repaired (one endpoint of each violated
kernel edge dropped) and re-extended before the search starts.
"""

from __future__ import annotations

import random
from typing import Iterable, Optional, Set

from ..core.kernel import KernelResult, kernelize
from ..core.linear_time import linear_time
from ..core.near_linear import near_linear
from ..graphs.static_graph import Graph
from ..obs.telemetry import get_telemetry, phase
from .arw import arw
from .events import ConvergenceRecorder
from .flat_state import FlatLocalSearchState

__all__ = ["BoostedResult", "arw_lt", "arw_nl", "boosted_arw"]


class BoostedResult:
    """Outcome of a boosted ARW run."""

    __slots__ = ("independent_set", "recorder", "kernel_result")

    def __init__(
        self,
        independent_set: frozenset,
        recorder: ConvergenceRecorder,
        kernel_result: KernelResult,
    ) -> None:
        self.independent_set = independent_set
        self.recorder = recorder
        self.kernel_result = kernel_result

    @property
    def size(self) -> int:
        """Size of the lifted solution."""
        return len(self.independent_set)


def _induce_on_kernel(
    kernel: Graph, old_ids, full_solution: Iterable[int], state_factory=None
) -> Set[int]:
    """Project a full-graph solution onto the kernel and make it valid.

    Intersects, drops one endpoint of every kernel edge the projection
    violates (rewired edges may not exist in the original graph), then
    extends to a maximal set of the kernel.
    """
    if state_factory is None:
        state_factory = FlatLocalSearchState
    selected = set(full_solution)
    seed = {new for new, old in enumerate(old_ids) if old in selected}
    for v in sorted(seed):
        if v in seed and any(w in seed for w in kernel.neighbors(v)):
            seed.discard(v)
    state = state_factory(kernel, seed)
    for v in range(kernel.n):
        if not state.in_solution[v] and state.tightness[v] == 0:
            state.insert(v)
    return state.solution()


def boosted_arw(
    graph: Graph,
    method: str,
    time_budget: float = 1.0,
    seed: int = 0,
    max_iterations: Optional[int] = None,
    state_factory=None,
    rng: Optional[random.Random] = None,
) -> BoostedResult:
    """Run kernelize → seed → ARW → lift for the given kernel method.

    ``method`` is ``"linear_time"`` (ARW-LT) or ``"near_linear"``
    (ARW-NL).  The recorder's events are *lifted* sizes, so they compare
    directly with unboosted ARW on the input graph.  ``state_factory`` /
    ``rng`` are forwarded to :func:`~repro.localsearch.arw.arw` (flat
    search state and ``random.Random(seed)`` by default).
    """
    telemetry = get_telemetry()  # one global check per run
    recorder = ConvergenceRecorder()
    # The kernelize/solve spans below nest the reduce/lp-kernel/replay
    # spans that linear_time_reduce / near_linear emit themselves.
    with phase(
        telemetry, "kernelize", algorithm="BoostedARW",
        graph=graph.name, method=method,
    ) as span:
        kernel_result = kernelize(graph, method=method)
        if not kernel_result.is_solved:
            span.meta["kernel_vertices"] = kernel_result.kernel.n
    if kernel_result.is_solved:
        # The reductions alone solved the graph: replaying their log is the
        # full algorithm's answer (it never peels), without a second run.
        solved = kernel_result.lift(())
        recorder.record(len(solved))
        return BoostedResult(solved, recorder, kernel_result)
    full = linear_time(graph) if method == "linear_time" else near_linear(graph)
    with phase(telemetry, "seed-induce", algorithm="BoostedARW", graph=graph.name):
        seed_solution = _induce_on_kernel(
            kernel_result.kernel,
            kernel_result.old_ids,
            full.independent_set,
            state_factory=state_factory,
        )

    with phase(telemetry, "lift", algorithm="BoostedARW", graph=graph.name):
        lifted_best = kernel_result.lift(seed_solution)
    best = frozenset(lifted_best)
    recorder.record(len(best))

    kernel_clock_offset = recorder.elapsed
    kernel_recorder = ConvergenceRecorder()
    kernel_best, _ = arw(
        kernel_result.kernel,
        seed_solution,
        time_budget=time_budget,
        seed=seed,
        recorder=kernel_recorder,
        max_iterations=max_iterations,
        state_factory=state_factory,
        rng=rng,
    )
    with phase(telemetry, "lift", algorithm="BoostedARW", graph=graph.name):
        lifted = kernel_result.lift(kernel_best)
    if len(lifted) > len(best):
        best = frozenset(lifted)
    # Translate kernel improvement events into lifted sizes, on the outer
    # clock (kernel ARW started kernel_clock_offset seconds in).
    baseline = len(seed_solution)
    lift_offset = len(best) - len(kernel_best)
    for t, size in kernel_recorder.events:
        if size > baseline:
            recorder.record(size + lift_offset, elapsed=kernel_clock_offset + t)
    return BoostedResult(best, recorder, kernel_result)


def arw_lt(
    graph: Graph,
    time_budget: float = 1.0,
    seed: int = 0,
    max_iterations: Optional[int] = None,
    state_factory=None,
    rng: Optional[random.Random] = None,
) -> BoostedResult:
    """ARW boosted by LinearTime kernelization (paper's ARW-LT)."""
    return boosted_arw(
        graph, "linear_time", time_budget, seed, max_iterations, state_factory, rng
    )


def arw_nl(
    graph: Graph,
    time_budget: float = 1.0,
    seed: int = 0,
    max_iterations: Optional[int] = None,
    state_factory=None,
    rng: Optional[random.Random] = None,
) -> BoostedResult:
    """ARW boosted by NearLinear kernelization (paper's ARW-NL)."""
    return boosted_arw(
        graph, "near_linear", time_budget, seed, max_iterations, state_factory, rng
    )
