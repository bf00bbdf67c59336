"""Kernelization API (paper Sections 6 and 7, Eval-III).

Running only the *Reducing* half of Reducing-Peeling — stopping right before
the first peel — yields the **kernel graph** 𝒦: a smaller instance with
``α(G)`` recoverable from ``α(𝒦)``.  The paper uses kernels to

* boost the ARW local search (ARW-LT / ARW-NL start from the kernel), and
* compare kernelization power/cost across rule sets (Figure 9 / Eval-III).

:func:`kernelize` produces a :class:`KernelResult`; its :meth:`~KernelResult.lift`
maps any independent set of the kernel back to a (maximal) independent set
of the original graph by replaying the recorded reduction decisions.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import Callable, Dict, FrozenSet, Iterable, List, Tuple

from ..errors import ReproError
from ..graphs.static_graph import Graph
from .linear_time import linear_time_reduce
from .near_linear import near_linear_reduce
from .result import STAT_DEGREE_ONE
from .trace import INCLUDE, DecisionLog
from .workspace import ArrayWorkspace

__all__ = ["KernelResult", "kernelize", "KERNEL_METHODS"]


@dataclass(frozen=True)
class KernelResult:
    """A kernel graph together with everything needed to lift solutions.

    Attributes
    ----------
    graph:
        The original input graph.
    kernel:
        The compacted residual graph 𝒦.
    old_ids:
        ``old_ids[kernel_id] = original_id``.
    log:
        The reduction decisions taken while kernelizing.
    method:
        Which rule set produced the kernel.
    """

    graph: Graph
    kernel: Graph
    old_ids: Tuple[int, ...]
    log: DecisionLog
    method: str

    @property
    def kernel_size(self) -> int:
        """Number of vertices in the kernel (the paper's Table 3 metric)."""
        return self.kernel.n

    @property
    def is_solved(self) -> bool:
        """True when the kernel is empty — the reductions alone solved G,
        and :meth:`lift` of the empty set is a certified maximum
        independent set (no peeling ever happened)."""
        return self.kernel.n == 0

    def lift(self, kernel_solution: Iterable[int]) -> FrozenSet[int]:
        """Map an independent set of the kernel back to the original graph.

        The kernel ids in ``kernel_solution`` are translated, the reduction
        log is replayed (resolving deferred path/fold decisions), and the
        result is extended to a maximal independent set of the original
        graph.  If ``kernel_solution`` is a maximum independent set of the
        kernel, the lifted set is a maximum independent set of ``graph``.

        Raises :class:`~repro.errors.NotASolutionError` if the input is not
        an independent set of the kernel (kernel edges include rewired
        edges absent from the original graph, so this cannot be checked
        downstream).
        """
        from ..analysis.verify import is_independent_set
        from ..errors import NotASolutionError

        solution = list(kernel_solution)
        if not is_independent_set(self.kernel, solution):
            raise NotASolutionError("kernel solution is not independent in the kernel")
        log = self.log.copy()
        # One include entry per vertex, built and appended in C.
        log.entries.extend(
            zip(repeat(INCLUDE), zip(map(self.old_ids.__getitem__, solution)))
        )
        return log.replay(self.graph).vertices


def _degree_one_reduce(graph: Graph) -> Tuple[Graph, List[int], DecisionLog]:
    """Kernelize with the degree-one reduction only (BDOne's rule set)."""
    workspace = ArrayWorkspace(graph, track_degree_two=False)
    while True:
        u = workspace.pop_degree_one()
        if u is None:
            break
        for v in workspace.iter_live_neighbors(u):
            workspace.delete_vertex(v, "exclude")
            break
        workspace.log.bump(STAT_DEGREE_ONE)
    kernel, old_ids = workspace.export_kernel()
    return kernel, old_ids, workspace.log


KERNEL_METHODS: Dict[str, Callable[[Graph], Tuple[Graph, List[int], DecisionLog]]] = {
    "degree_one": _degree_one_reduce,
    "linear_time": linear_time_reduce,
    "near_linear": near_linear_reduce,
}


def kernelize(graph: Graph, method: str = "near_linear") -> KernelResult:
    """Compute the kernel of ``graph`` under the given rule set.

    ``method`` is one of ``"degree_one"`` (BDOne's rule), ``"linear_time"``
    (degree-one + degree-two path reductions) or ``"near_linear"`` (adds
    dominance, one-pass dominance and the LP reduction).  The full-rule
    kernel of [1] lives in :func:`repro.exact.vcsolver.full_kernelize`.
    """
    try:
        reduce_fn = KERNEL_METHODS[method]
    except KeyError:
        raise ReproError(
            f"unknown kernel method {method!r}; choose from {sorted(KERNEL_METHODS)}"
        ) from None
    kernel, old_ids, log = reduce_fn(graph)
    return KernelResult(graph, kernel, tuple(old_ids), log, method)
