"""The paper's primary contribution: the Reducing-Peeling framework.

Public surface:

* the four algorithms — :func:`bdone`, :func:`bdtwo`, :func:`linear_time`,
  :func:`near_linear` — all returning :class:`MISResult`;
* :func:`compute_independent_set` / :data:`ALGORITHMS` name-based dispatch,
  and :data:`ALGORITHM_BY_NAME`, the serving layer's solver registry;
* :func:`kernelize` + :class:`KernelResult` for the Reducing-only mode;
* the stand-alone reduction rules in :mod:`repro.core.reductions` and the
  LP reduction in :mod:`repro.core.lp_reduction`;
* the Theorem-6.1 upper-bound helpers.
"""

from .bdone import bdone
from .bdtwo import bdtwo
from .components import affected_region, solve_by_components, touched_components
from .dominance import TriangleWorkspace
from .flat_dominance import FlatTriangleWorkspace
from .framework import ALGORITHM_BY_NAME, ALGORITHMS, compute_independent_set
from ..hotpath import hot_loop
from .kernel import KERNEL_METHODS, KernelResult, kernelize
from .linear_time import linear_time, linear_time_reduce
from .lp_reduction import LPReductionResult, lp_reduction, lp_upper_bound
from .near_linear import near_linear, near_linear_reduce
from .result import MISResult
from .upper_bound import certify_maximum, reducing_peeling_upper_bound
from .vertex_cover import VCResult, minimum_vertex_cover
from .workspace import ArrayWorkspace, FlatWorkspace

__all__ = [
    "ALGORITHMS",
    "ALGORITHM_BY_NAME",
    "ArrayWorkspace",
    "affected_region",
    "touched_components",
    "FlatTriangleWorkspace",
    "FlatWorkspace",
    "KERNEL_METHODS",
    "TriangleWorkspace",
    "KernelResult",
    "LPReductionResult",
    "MISResult",
    "VCResult",
    "bdone",
    "bdtwo",
    "certify_maximum",
    "compute_independent_set",
    "hot_loop",
    "kernelize",
    "minimum_vertex_cover",
    "solve_by_components",
    "linear_time",
    "linear_time_reduce",
    "lp_reduction",
    "lp_upper_bound",
    "near_linear",
    "near_linear_reduce",
    "reducing_peeling_upper_bound",
]
