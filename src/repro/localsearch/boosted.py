"""ARW boosted by reducing-peeling kernelization (paper Section 6).

ARW-LT and ARW-NL run LinearTime / NearLinear once.  The run pauses at its
first stall, where the kernel 𝒦 is exported, then resumes on the same
workspace to the full algorithm's solution.  That solution, *induced on
the kernel*, seeds the ARW local search on 𝒦, and the best kernel
solution is lifted back to the input graph.

Because the kernel may contain rewired edges that do not exist in the
original graph, the induced seed is repaired (one endpoint of each violated
kernel edge dropped) and re-extended before the search starts.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, Optional, Sequence, Set

import numpy as np

from ..core.kernel import KernelResult
from ..core.linear_time import linear_time_checkpoint
from ..core.near_linear import near_linear_checkpoint
from ..core.trace import Checkpoint
from ..errors import ReproError
from ..graphs.static_graph import Graph
from ..obs.telemetry import get_telemetry, phase
from .arw import arw
from .events import ConvergenceRecorder

__all__ = ["BoostedResult", "arw_lt", "arw_nl", "boosted_arw"]

#: The kernel method of each boosted variant and the run it checkpoints.
_CHECKPOINTS: Dict[str, Callable[[Graph], Checkpoint]] = {
    "linear_time": linear_time_checkpoint,
    "near_linear": near_linear_checkpoint,
}


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
    kernel_result: KernelResult, full_in_set: Sequence[bool]
) -> Set[int]:
    """Project a full-graph solution onto the kernel and make it valid.

    ``full_in_set[v]`` says whether vertex ``v`` of the input graph is in
    the solution (a replay's :attr:`~repro.core.trace.ReplayOutcome.in_set`).

    Intersects, drops one endpoint of every kernel edge the projection
    violates (rewired edges may not exist in the original graph), then
    extends to a maximal set of the kernel, inserting free vertices in
    index order.  Both ends of a violated edge are seeded, so the
    ascending discard pass visits only the ends of such edges: a seeded
    vertex with no seeded neighbour is never discarded.
    """
    kernel = kernel_result.kernel
    selected = np.frombuffer(bytearray(full_in_set), dtype=np.bool_)
    in_set = selected[np.asarray(kernel_result.old_ids, dtype=np.int64)]
    # A kernel that is not solved has edges, so both buffers are non-empty.
    offsets, targets = kernel.flat_csr()
    adj = np.frombuffer(targets, dtype=np.int32)
    rows = np.repeat(
        np.arange(kernel.n, dtype=np.int64),
        np.diff(np.frombuffer(offsets, dtype=np.int64)),
    )
    for v in np.unique(rows[in_set[rows] & in_set[adj]]).tolist():
        if in_set[v] and in_set[list(kernel.neighbors(v))].any():
            in_set[v] = False
    # Extend in index order: only a vertex with no neighbour in the
    # repaired seed can join, and it joins unless an earlier one blocked it.
    blocked = np.zeros(kernel.n, dtype=np.bool_)
    blocked[adj[in_set[rows]]] = True
    for v in np.flatnonzero(~in_set & ~blocked).tolist():
        if not blocked[v]:
            in_set[v] = True
            blocked[list(kernel.neighbors(v))] = True
    return set(np.flatnonzero(in_set).tolist())


def boosted_arw(
    graph: Graph,
    method: str,
    time_budget: float = 1.0,
    seed: int = 0,
    max_iterations: Optional[int] = None,
    state_factory=None,
    rng: Optional[random.Random] = None,
) -> BoostedResult:
    """Run reduce → seed → ARW → lift for the given kernel method.

    ``method`` is ``"linear_time"`` (ARW-LT) or ``"near_linear"``
    (ARW-NL).  One run of that algorithm gives both the kernel (at its
    first stall) and, resumed, the full solution that seeds the search.
    The recorder's events are *lifted* sizes, so they compare directly
    with unboosted ARW on the input graph.  ``state_factory`` / ``rng``
    are forwarded to :func:`~repro.localsearch.arw.arw` (flat search state
    and ``random.Random(seed)`` by default).
    """
    try:
        checkpoint = _CHECKPOINTS[method]
    except KeyError:
        raise ReproError(
            f"unknown boosted method {method!r}; choose from {sorted(_CHECKPOINTS)}"
        ) from None
    telemetry = get_telemetry()  # one global check per run
    recorder = ConvergenceRecorder()
    # The kernelize span below nests the spans the checkpoint emits itself
    # (setup/reduce/kernel-export, after NearLinear's preprocessing spans).
    with phase(
        telemetry, "kernelize", algorithm="BoostedARW",
        graph=graph.name, method=method,
    ) as span:
        kernel, old_ids, log, resume = checkpoint(graph)
        kernel_result = KernelResult(graph, kernel, tuple(old_ids), log, method)
        if not kernel_result.is_solved:
            span.meta["kernel_vertices"] = kernel.n
    if kernel_result.is_solved:
        # The reductions alone solved the graph: replaying their log is the
        # full algorithm's answer (it never peels).
        solved = kernel_result.lift(())
        recorder.record(len(solved))
        return BoostedResult(solved, recorder, kernel_result)
    with phase(telemetry, "resume", algorithm="BoostedARW", graph=graph.name):
        full_log = resume()
        if telemetry is not None:
            telemetry.add_counters(full_log.stats)
        full_in_set = full_log.replay(graph).in_set
    with phase(telemetry, "seed-induce", algorithm="BoostedARW", graph=graph.name):
        seed_solution = _induce_on_kernel(kernel_result, full_in_set)

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
