"""Result type shared by every independent-set algorithm in the library.

This module also owns the **stat-key registry**: the canonical names of the
per-rule application counters that algorithms report in
:attr:`MISResult.stats`.  Legacy and flat drivers of the same algorithm must
bump the *same* keys (the differential suite asserts the dicts are equal
per graph), so the names live here — dependency-free, importable by every
driver — instead of being scattered as string literals.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Optional

__all__ = [
    "MISResult",
    "STAT_DEGREE_ONE",
    "STAT_PEEL",
    "STAT_DOMINANCE",
    "STAT_ONE_PASS_DOMINANCE",
    "STAT_LP_INCLUDED",
    "STAT_LP_EXCLUDED",
    "STAT_DEGREE_TWO_ISOLATION",
    "STAT_DEGREE_TWO_FOLDING",
    "STAT_PATH_CYCLE",
    "STAT_PATH_ANCHOR_SHARED",
    "STAT_PATH_ODD_EDGE",
    "STAT_PATH_ODD_NO_EDGE",
    "STAT_PATH_EVEN_EDGE",
    "STAT_PATH_EVEN_NO_EDGE",
    "STAT_TWIN",
    "STAT_UNCONFINED",
    "STAT_ROUNDS",
    "STAT_KERNEL_SIZE",
    "STAT_ONE_K_GAIN",
    "STAT_TWO_K_GAIN",
    "STAT_SERVE_CACHE_HIT",
    "STAT_SERVE_CACHE_MISS",
    "STAT_SERVE_REPAIR",
    "STAT_SERVE_REPAIR_VERTICES",
    "STAT_SERVE_REPAIR_COMPONENTS",
    "STAT_SERVE_FULL_RESOLVE",
    "STAT_SERVE_STALE_RETURN",
    "STAT_SERVE_MUTATIONS",
    "KNOWN_STAT_KEYS",
    "SOLVER_STAT_KEYS",
    "SERVE_STAT_KEYS",
    "ALL_STAT_KEYS",
]

# ---------------------------------------------------------------------------
# Stat-key registry (one canonical spelling per reduction rule)
# ---------------------------------------------------------------------------
STAT_DEGREE_ONE = "degree-one"
STAT_PEEL = "peel"
STAT_DOMINANCE = "dominance"
STAT_ONE_PASS_DOMINANCE = "one-pass-dominance"
STAT_LP_INCLUDED = "lp-included"
STAT_LP_EXCLUDED = "lp-excluded"
STAT_DEGREE_TWO_ISOLATION = "degree-two-isolation"
STAT_DEGREE_TWO_FOLDING = "degree-two-folding"
# The Lemma 4.1 path cases; :mod:`repro.core.degree_two_paths` re-exports
# these under its historical ``RULE_*`` names.
STAT_PATH_CYCLE = "path:cycle"
STAT_PATH_ANCHOR_SHARED = "path:v-equals-w"
STAT_PATH_ODD_EDGE = "path:odd-edge"
STAT_PATH_ODD_NO_EDGE = "path:odd-no-edge"
STAT_PATH_EVEN_EDGE = "path:even-edge"
STAT_PATH_EVEN_NO_EDGE = "path:even-no-edge"
# Counters emitted outside the reducing-peeling framework proper: the exact
# vertex-cover solver's extra reductions and the baselines' progress meters.
STAT_TWIN = "twin"
STAT_UNCONFINED = "unconfined"
STAT_ROUNDS = "rounds"
STAT_KERNEL_SIZE = "kernel_size"
STAT_ONE_K_GAIN = "one-k-gain"
STAT_TWO_K_GAIN = "two-k-gain"
# Counters emitted by the serving layer (:mod:`repro.serve`): cache traffic,
# localized-repair scope, and graceful-degradation events.
STAT_SERVE_CACHE_HIT = "serve:cache-hit"
STAT_SERVE_CACHE_MISS = "serve:cache-miss"
STAT_SERVE_REPAIR = "serve:repair"
STAT_SERVE_REPAIR_VERTICES = "serve:repair-vertices"
STAT_SERVE_REPAIR_COMPONENTS = "serve:repair-components"
STAT_SERVE_FULL_RESOLVE = "serve:full-resolve"
STAT_SERVE_STALE_RETURN = "serve:stale-return"
STAT_SERVE_MUTATIONS = "serve:mutations"

#: Every counter key a reducing-peeling driver may emit.  Baselines and the
#: exact solver add their own (``rounds``, ``twin``, …); this set covers the
#: framework algorithms, whose flat/legacy backends must agree key-for-key.
KNOWN_STAT_KEYS = frozenset(
    {
        STAT_DEGREE_ONE,
        STAT_PEEL,
        STAT_DOMINANCE,
        STAT_ONE_PASS_DOMINANCE,
        STAT_LP_INCLUDED,
        STAT_LP_EXCLUDED,
        STAT_DEGREE_TWO_ISOLATION,
        STAT_DEGREE_TWO_FOLDING,
        STAT_PATH_CYCLE,
        STAT_PATH_ANCHOR_SHARED,
        STAT_PATH_ODD_EDGE,
        STAT_PATH_ODD_NO_EDGE,
        STAT_PATH_EVEN_EDGE,
        STAT_PATH_EVEN_NO_EDGE,
    }
)

#: Keys emitted by the exact solver and the baselines (outside the
#: flat/legacy parity contract, hence a separate set).
SOLVER_STAT_KEYS = frozenset(
    {
        STAT_TWIN,
        STAT_UNCONFINED,
        STAT_ROUNDS,
        STAT_KERNEL_SIZE,
        STAT_ONE_K_GAIN,
        STAT_TWO_K_GAIN,
    }
)

#: Keys emitted by the serving layer's telemetry counters and request
#: accounting (:mod:`repro.serve`); separate from the framework sets because
#: they describe service behaviour, not reduction-rule applications.
SERVE_STAT_KEYS = frozenset(
    {
        STAT_SERVE_CACHE_HIT,
        STAT_SERVE_CACHE_MISS,
        STAT_SERVE_REPAIR,
        STAT_SERVE_REPAIR_VERTICES,
        STAT_SERVE_REPAIR_COMPONENTS,
        STAT_SERVE_FULL_RESOLVE,
        STAT_SERVE_STALE_RETURN,
        STAT_SERVE_MUTATIONS,
    }
)

#: The full registry reprolint's RL003 checks stat-key writes against.
ALL_STAT_KEYS = KNOWN_STAT_KEYS | SOLVER_STAT_KEYS | SERVE_STAT_KEYS


@dataclass(frozen=True)
class MISResult:
    """The outcome of one independent-set computation.

    Attributes
    ----------
    algorithm:
        Name of the algorithm that produced the result (``"BDOne"`` …).
    graph_name:
        Name of the input graph (may be empty).
    independent_set:
        The vertices of the computed independent set.
    upper_bound:
        The Theorem-6.1 bound ``|I| + |R|`` on the independence number
        (``R`` = peeled vertices that did not re-enter the solution).
        For algorithms outside the reducing-peeling framework this is the
        trivial bound ``n``.
    peeled:
        ``|F|`` — how many times the inexact (peeling) reduction fired.
    surviving_peels:
        ``|R| = |F \\ I|`` — peeled vertices absent from the final solution.
    is_exact:
        True when the result is *certified* maximum, i.e. ``R`` is empty
        (Theorem 6.1); always false for algorithms without the certificate.
    stats:
        Per-reduction-rule application counters.
    elapsed:
        Wall-clock seconds spent inside the algorithm.
    """

    algorithm: str
    graph_name: str
    independent_set: FrozenSet[int]
    upper_bound: int
    peeled: int = 0
    surviving_peels: int = 0
    is_exact: bool = False
    stats: Dict[str, int] = field(default_factory=dict)
    elapsed: float = 0.0

    @property
    def size(self) -> int:
        """Number of vertices in the independent set."""
        return len(self.independent_set)

    def gap_to(self, independence_number: int) -> int:
        """The paper's "gap" metric: α(G) minus the achieved size."""
        return independence_number - self.size

    def accuracy_to(self, independence_number: Optional[int]) -> float:
        """Achieved size as a fraction of α(G) (1.0 when α is 0)."""
        if not independence_number:
            return 1.0
        return self.size / independence_number

    def __repr__(self) -> str:  # compact, table-friendly
        flag = " exact" if self.is_exact else ""
        return (
            f"<MISResult {self.algorithm} |I|={self.size} "
            f"ub={self.upper_bound}{flag}>"
        )
