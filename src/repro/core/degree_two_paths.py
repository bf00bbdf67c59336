"""Degree-two path reductions (paper Section 4, Lemma 4.1).

A *degree-two path* is a path whose every vertex has degree two; a maximal
one ends, on both sides, at vertices of degree ≥ 3 (after degree-one
vertices have been drained).  Lemma 4.1 reduces a maximal path
``P = (v₁ … v_l)`` with outside anchors ``v`` (next to ``v₁``) and ``w``
(next to ``v_l``) in five cases, plus the degree-two cycle case:

* **cycle** — remove an arbitrary cycle vertex (Figure 4(a));
* **case 1**, ``v = w`` — remove ``v`` (Figure 4(a));
* **case 2**, ``|P|`` odd and ``(v, w) ∈ E`` — remove ``v`` and ``w``
  (Figure 4(b));
* **case 3**, ``|P|`` odd and ``(v, w) ∉ E`` — remove ``v₂ … v_l``, add the
  edge ``(v₁, w)`` (Figure 4(c));
* **case 4**, ``|P|`` even and ``(v, w) ∈ E`` — remove all of ``P``
  (Figure 4(d));
* **case 5**, ``|P|`` even and ``(v, w) ∉ E`` — remove all of ``P``, add the
  edge ``(v, w)`` (Figure 4(e)).

The removed interior vertices go onto the reconstruction stack (pushed so
that pops run *away* from the anchor whose fate is decided first); the added
edges are realised by in-place rewiring so adjacency arrays never grow.

The single irreducible situation — ``|P| = 1`` with non-adjacent degree-≥3
anchors — is skipped, exactly as discussed in the paper's Appendix A.2 (it
is the one configuration only BDTwo's folding handles).
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple

from .hotpath import hot_loop
from .result import (
    STAT_PATH_ANCHOR_SHARED,
    STAT_PATH_CYCLE,
    STAT_PATH_EVEN_EDGE,
    STAT_PATH_EVEN_NO_EDGE,
    STAT_PATH_ODD_EDGE,
    STAT_PATH_ODD_NO_EDGE,
)

__all__ = [
    "PathDiscovery",
    "find_maximal_degree_two_path",
    "apply_degree_two_path_reduction",
    "RULE_CYCLE",
    "RULE_ANCHOR_SHARED",
    "RULE_ODD_EDGE",
    "RULE_ODD_NO_EDGE",
    "RULE_EVEN_EDGE",
    "RULE_EVEN_NO_EDGE",
    "RULE_IRREDUCIBLE",
]

# Historical names for the Lemma 4.1 cases; the canonical spellings live in
# the stat-key registry (:mod:`repro.core.result`) so the counter dicts of
# every backend agree key-for-key.
RULE_CYCLE = STAT_PATH_CYCLE
RULE_ANCHOR_SHARED = STAT_PATH_ANCHOR_SHARED
RULE_ODD_EDGE = STAT_PATH_ODD_EDGE
RULE_ODD_NO_EDGE = STAT_PATH_ODD_NO_EDGE
RULE_EVEN_EDGE = STAT_PATH_EVEN_EDGE
RULE_EVEN_NO_EDGE = STAT_PATH_EVEN_NO_EDGE
RULE_IRREDUCIBLE = "path:irreducible"


class PathDiscovery:
    """The outcome of walking the maximal degree-two path through a vertex.

    Attributes
    ----------
    path:
        The degree-two vertices in path order (for a cycle: cycle order).
    v, w:
        The outside anchors adjacent to ``path[0]`` / ``path[-1]``
        (``None`` for a cycle).
    is_cycle:
        Whether the structure is a degree-two cycle.
    """

    __slots__ = ("path", "v", "w", "is_cycle")

    @hot_loop
    def __init__(
        self, path: List[int], v: Optional[int], w: Optional[int], is_cycle: bool
    ) -> None:
        self.path = path
        self.v = v
        self.w = w
        self.is_cycle = is_cycle


@hot_loop
def _walk(workspace: Any, start: int, first: int) -> Tuple[List[int], Optional[int]]:
    """Walk from ``start`` through ``first`` along degree-two vertices.

    Returns ``(interior, anchor)`` where ``anchor`` is the first vertex of
    degree ≠ 2 encountered, or ``None`` if the walk returned to ``start``
    (i.e. the structure is a cycle).
    """
    deg = workspace.deg
    iter_live_neighbors = workspace.iter_live_neighbors
    interior: List[int] = []
    append = interior.append
    prev, cur = start, first
    while deg[cur] == 2:
        if cur == start:
            return interior, None
        append(cur)
        for nxt in iter_live_neighbors(cur):
            if nxt != prev:
                prev, cur = cur, nxt
                break
        else:  # pendant cycle end: both live neighbours equal prev (C2 impossible)
            return interior, prev
    return interior, cur


@hot_loop
def find_maximal_degree_two_path(workspace: Any, u: int) -> PathDiscovery:
    """Discover the maximal degree-two path or cycle containing ``u``.

    ``u`` must be live with exactly two live neighbours.  Works on any
    workspace exposing ``deg`` and ``iter_live_neighbors``; runs in time
    linear in the path length (the DFS of Section 4).
    """
    first, second = workspace.live_neighbors(u)
    return _discover(workspace, u, first, second)


@hot_loop
def _discover(workspace: Any, u: int, first: int, second: int) -> PathDiscovery:
    """:func:`find_maximal_degree_two_path` given ``u``'s live neighbours."""
    left, left_anchor = _walk(workspace, u, first)
    if left_anchor is None:
        return PathDiscovery([u] + left, None, None, True)
    right, right_anchor = _walk(workspace, u, second)
    path = list(reversed(left)) + [u] + right
    return PathDiscovery(path, left_anchor, right_anchor, False)


@hot_loop
def apply_degree_two_path_reduction(workspace: Any, u: int) -> str:
    """Apply Lemma 4.1 to the maximal path/cycle through ``u``.

    ``workspace`` is either an :class:`~repro.core.workspace.ArrayWorkspace`
    (LinearTime) or a :class:`~repro.core.dominance.TriangleWorkspace`
    (NearLinear) — both expose the same mutation protocol, the latter with
    triangle-count maintenance behind it.

    Returns the name of the rule case applied (one of the ``RULE_*``
    constants); :data:`RULE_IRREDUCIBLE` means nothing changed.

    When neither live neighbour of ``u`` has degree two, the path is
    ``[u]`` itself with those neighbours as its anchors, and no discovery
    is built.
    """
    first, second = workspace.live_neighbors(u)
    deg = workspace.deg
    if deg[first] != 2 and deg[second] != 2:
        path, v, w = [u], first, second
    else:
        discovery = _discover(workspace, u, first, second)
        path = discovery.path
        if discovery.is_cycle:
            workspace.delete_vertex(u, "exclude")
            return RULE_CYCLE
        v, w = discovery.v, discovery.w
        if v == w:
            workspace.delete_vertex(v, "exclude")
            return RULE_ANCHOR_SHARED
    length = len(path)
    head, tail = path[0], path[-1]
    if length % 2 == 1:
        if workspace.has_live_edge(v, w):
            workspace.delete_vertex(v, "exclude")
            workspace.delete_vertex(w, "exclude")
            return RULE_ODD_EDGE
        if length == 1:
            # Both anchors have degree ≥ 3 and are non-adjacent: the one
            # configuration path reductions cannot handle (Appendix A.2).
            return RULE_IRREDUCIBLE
        # Case 3: keep v₁, drop v₂ … v_l, rewire (v₁, w) into existence.
        # Rewiring happens first, while the retired entries are still
        # present in their rows, so every backend replaces the entry *in
        # position* (dict rebuild / slot overwrite) and the backends'
        # adjacency iteration orders stay aligned.  Stack push order
        # v_l … v₂ makes pops run v₂ → v_l, so each popped vertex sees its
        # path predecessor already decided.  Each pushed vertex records its
        # two live neighbours (path chain + anchor).
        workspace.rewire(head, path[1], w)
        workspace.rewire(w, tail, head)
        chain = [v] + path + [w]
        remove_silently = workspace.remove_silently
        push_path = workspace.log.push_path
        for i in range(length - 1, 0, -1):  # path[length-1] … path[1]
            x = path[i]
            remove_silently(x)
            push_path(x, chain[i], chain[i + 2])
        workspace.refile(head)  # still degree two: future paths start here
        return RULE_ODD_NO_EDGE
    chain = [v] + path + [w]
    remove_silently = workspace.remove_silently
    push_path = workspace.log.push_path
    if workspace.has_live_edge(v, w):
        # Case 4: remove the whole path; anchors each lose one edge.
        for i in range(length - 1, -1, -1):
            x = path[i]
            remove_silently(x)
            push_path(x, chain[i], chain[i + 2])
        workspace.decrement_degree(v)
        workspace.decrement_degree(w)
        return RULE_EVEN_EDGE
    # Case 5: remove the whole path and rewire (v, w) into existence;
    # anchor degrees are unchanged (each trades a path endpoint for the
    # opposite anchor).  Rewire first — see case 3 — so the replacement
    # lands in the retired entry's position on every backend.
    workspace.rewire(v, head, w)
    workspace.rewire(w, tail, v)
    for i in range(length - 1, -1, -1):
        x = path[i]
        remove_silently(x)
        push_path(x, chain[i], chain[i + 2])
    workspace.settle_new_edge(v, w)
    return RULE_EVEN_NO_EDGE
