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

Two implementations share the case semantics.
:func:`apply_degree_two_path_reduction` drives a workspace through its
mutation protocol; the oracle workspaces run it.  The fused flat drivers
(:func:`repro.core.linear_time._reduce_flat`,
:func:`repro.core.near_linear._main_loop_flat`) call
:func:`classify_flat_path` to walk and classify a path on their buffers
and :func:`retire_flat_path` to apply cases 3–5; the anchor deletions of
the other cases go through the drivers' own deletion code, and the
drivers count the cases in locals and commit them through
:func:`bump_path_counts`.
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple

from ..hotpath import hot_loop
from .trace import PATH
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
    "bump_path_counts",
    "classify_flat_path",
    "retire_flat_path",
    "rewire_slot",
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

    ``workspace`` is any workspace exposing the mutation protocol: the
    oracles :class:`~repro.core.workspace.ArrayWorkspace` (LinearTime) and
    :class:`~repro.core.dominance.TriangleWorkspace` (NearLinear, with
    triangle-count maintenance behind it), or a flat workspace driven by
    a generic loop.  The fused flat drivers do not call it: they apply
    the same cases on their own buffers (:func:`classify_flat_path`), and
    the lockstep tests hold them to this driver's logs.

    The protocol it drives is ``deg``, ``live_neighbors``,
    ``iter_live_neighbors``, ``has_live_edge``, ``delete_vertex``,
    ``remove_silently``, ``rewire``, ``decrement_degree``,
    ``settle_new_edge`` and ``log.push_path``.  A rewire keeps both
    endpoints' degrees, so no vertex is re-filed after one: case 3 leaves
    v₁ irreducible and case 5's anchors keep the degrees they were
    filed under.

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
        # v₁ is not re-filed: it keeps degree two between the
        # non-adjacent anchors v and w, so it is irreducible.
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


@hot_loop
def _walk_flat(
    adj: Any, xadj: Any, ends: Any, deg: Any, alive: Any, start: int, first: int,
    out: List[int],
) -> int:
    """:func:`_walk` on flat buffers: append the interior to ``out``.

    Vertex ``x``'s row is ``adj[xadj[x] : ends[x]]`` (dead entries are
    skipped).  Returns the anchor, or ``-1`` if the walk returned to
    ``start`` (a cycle).
    """
    append = out.append
    prev = start
    cur = first
    while deg[cur] == 2:
        if cur == start:
            return -1
        append(cur)
        for nxt in adj[xadj[cur] : ends[cur]]:
            if alive[nxt] and nxt != prev:
                prev = cur
                cur = nxt
                break
        else:  # pendant cycle end: both live neighbours equal prev (C2 impossible)
            return prev
    return cur


@hot_loop
def classify_flat_path(
    adj: Any, xadj: Any, ends: Any, deg: Any, alive: Any, u: int, first: int,
    second: int, chain: List[int],
) -> str:
    """Walk the maximal degree-two path or cycle through ``u`` and name its
    Lemma 4.1 case, on flat buffers.

    ``u`` is live with the live neighbours ``first`` and ``second``, in row
    order; row ``x`` is ``adj[xadj[x] : ends[x]]``.  Unless the structure
    is a cycle, ``chain`` is refilled with ``[v, v₁, …, v_l, w]``: the
    path in the order :func:`apply_degree_two_path_reduction` sees it,
    between its anchors, so chain slot ``i`` of a path vertex holds its two
    live neighbours in slots ``i − 1`` and ``i + 1``.  Returns the
    ``RULE_*`` case the driver applies; nothing is mutated.
    """
    chain.clear()
    if deg[first] != 2 and deg[second] != 2:
        v = first
        w = second
        chain.append(v)
        chain.append(u)
        chain.append(w)
    else:
        v = _walk_flat(adj, xadj, ends, deg, alive, u, first, chain)
        if v < 0:
            return RULE_CYCLE
        chain.append(v)
        chain.reverse()
        chain.append(u)
        w = _walk_flat(adj, xadj, ends, deg, alive, u, second, chain)
        chain.append(w)
        if v == w:
            return RULE_ANCHOR_SHARED
    # Scan the shorter anchor row for the other anchor.
    if deg[v] > deg[w]:
        edge = v in adj[xadj[w] : ends[w]]
    else:
        edge = w in adj[xadj[v] : ends[v]]
    length = len(chain) - 2
    if length % 2 == 1:
        if edge:
            return RULE_ODD_EDGE
        if length == 1:
            return RULE_IRREDUCIBLE
        return RULE_ODD_NO_EDGE
    if edge:
        return RULE_EVEN_EDGE
    return RULE_EVEN_NO_EDGE


@hot_loop
def retire_flat_path(
    adj: Any, xadj: Any, ends: Any, hint: Any, alive: Any, append_entry: Any,
    chain: List[int], rule: str,
) -> int:
    """Apply case 3, 4 or 5 of Lemma 4.1 to a classified ``chain`` on flat
    buffers (row ``x`` is ``adj[xadj[x] : ends[x]]``).

    Case 3 keeps v₁ and retires v₂ … v_l; cases 4 and 5 retire the whole
    path.  Cases 3 and 5 first rewire the edge (v₁, w), respectively
    (v, w), into the retired path's end slots (:func:`rewire_slot`).
    Retired vertices are marked dead and their ``PATH`` entries appended
    from v_l down, each naming its two chain neighbours, as
    :func:`apply_degree_two_path_reduction` pushes them.  Returns the
    number retired; each had degree two.  The anchors' degrees are the
    caller's.

    A rewired slot held a path edge, which lies on no triangle: its
    interior ends have degree two and the anchors differ.  So δ of the
    slot is 0 before and after, and a triangle-count caller has nothing
    to reset.
    """
    w = chain[-1]
    last = len(chain) - 2
    stop = 2 if rule == RULE_ODD_NO_EDGE else 1
    if rule != RULE_EVEN_EDGE:
        keep = chain[stop - 1]
        rewire_slot(adj, hint, keep, xadj[keep], ends[keep], chain[stop], w)
        rewire_slot(adj, hint, w, xadj[w], ends[w], chain[last], keep)
    for i in range(last, stop - 1, -1):
        x = chain[i]
        alive[x] = 0
        append_entry((PATH, (x, chain[i - 1], chain[i + 1])))
    return last - stop + 1


@hot_loop
def rewire_slot(
    adj: Any, hint: Any, v: int, lo: int, hi: int, old: int, new: int
) -> int:
    """Replace the entry ``old`` of ``v``'s row ``adj[lo:hi]`` with ``new``.

    The in-place edge modification of Section 4, shared by the flat
    workspaces' ``rewire`` and :func:`retire_flat_path`.  The search starts at
    ``hint[v]``, the slot ``v`` last retargeted: Lemma 4.1 retargets the
    same anchor slot on consecutive path reductions, so the common case is
    O(1).  Otherwise the row (never holding duplicates) is scanned once.
    Returns the slot, which becomes the new hint.
    """
    i = hint[v]
    if not lo <= i < hi or adj[i] != old:
        i = lo
        while adj[i] != old:
            i += 1
            if i >= hi:
                raise ValueError(f"{old} is not an adjacency entry of {v}")
    adj[i] = new
    hint[v] = i
    return i


@hot_loop
def bump_path_counts(
    log: Any, cycle: int, anchor_shared: int, odd_edge: int, odd_no_edge: int,
    even_edge: int, even_no_edge: int,
) -> None:
    """Add a fused driver's Lemma 4.1 case counts to ``log``'s counters.

    A zero count adds no key, so the counters stay equal to those of a
    run that bumps each case as it applies it.
    """
    bump = log.bump
    if cycle:
        bump(STAT_PATH_CYCLE, cycle)
    if anchor_shared:
        bump(STAT_PATH_ANCHOR_SHARED, anchor_shared)
    if odd_edge:
        bump(STAT_PATH_ODD_EDGE, odd_edge)
    if odd_no_edge:
        bump(STAT_PATH_ODD_NO_EDGE, odd_no_edge)
    if even_edge:
        bump(STAT_PATH_EVEN_EDGE, even_edge)
    if even_no_edge:
        bump(STAT_PATH_EVEN_NO_EDGE, even_no_edge)
