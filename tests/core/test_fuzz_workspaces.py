"""Fuzz tests: random mutation sequences against structural invariants.

The triangle workspace's correctness rests on invariants that hold after
*every* mutation, not just at the end of a run:

* symmetry — ``tri[u][v] == tri[v][u]``;
* degree consistency — ``deg[v] == len(tri[v])`` for live vertices;
* truth — every stored δ equals a from-scratch recount on the residual
  graph.

These tests drive random sequences of deletions and path reductions and
re-verify all three after each step.  The flat twin
(:class:`~repro.core.flat_dominance.FlatTriangleWorkspace`) is driven in
lockstep with the oracle and must also keep its per-vertex triangle sums
exact and its dominance worklist entry-for-entry equal to the oracle's.
"""

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.degree_two_paths import apply_degree_two_path_reduction
from repro.core.dominance import TriangleWorkspace
from repro.core.flat_dominance import FlatTriangleWorkspace
from repro.core.workspace import ArrayWorkspace
from repro.graphs import (
    gnm_random_graph,
    isolated_clique_gadget,
    power_law_graph,
    triangle_counts,
)

SETTINGS = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def _check_triangle_invariants(ws: TriangleWorkspace) -> None:
    for u in range(ws.n):
        if not ws.alive[u]:
            assert ws.tri[u] == {}
            continue
        assert ws.deg[u] == len(ws.tri[u])
        for v, count in ws.tri[u].items():
            assert ws.alive[v]
            assert ws.tri[v][u] == count
    kernel, old_ids = ws.export_kernel()
    recount = triangle_counts(kernel)
    new_of = {old: new for new, old in enumerate(old_ids)}
    for u in range(ws.n):
        if not ws.alive[u]:
            continue
        for v, count in ws.tri[u].items():
            a, b = new_of[u], new_of[v]
            key = (a, b) if a < b else (b, a)
            assert recount[key] == count


class TestTriangleWorkspaceFuzz:
    @SETTINGS
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_random_deletion_sequences(self, seed):
        rng = random.Random(seed)
        g = gnm_random_graph(16, rng.randrange(10, 50), seed=seed)
        ws = TriangleWorkspace(g)
        order = list(range(g.n))
        rng.shuffle(order)
        for v in order[: g.n // 2]:
            if ws.alive[v]:
                ws.delete_vertex(v, "exclude")
                _check_triangle_invariants(ws)

    @SETTINGS
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_interleaved_paths_and_deletions(self, seed):
        rng = random.Random(seed)
        # Sparse graphs maximise degree-two path opportunities.
        g = gnm_random_graph(18, rng.randrange(12, 26), seed=seed)
        ws = TriangleWorkspace(g)
        for _ in range(6):
            u = ws.pop_degree_two()
            if u is not None:
                apply_degree_two_path_reduction(ws, u)
            else:
                live = [v for v in range(g.n) if ws.alive[v]]
                if not live:
                    break
                ws.delete_vertex(rng.choice(live), "exclude")
            _check_triangle_invariants(ws)


def _check_flat_against_oracle(
    flat: FlatTriangleWorkspace, oracle: TriangleWorkspace
) -> None:
    assert flat.dominated == oracle.dominated
    assert flat.log.entries == oracle.log.entries
    assert flat.alive == oracle.alive
    kernel, old_ids = oracle.export_kernel()
    recount = triangle_counts(kernel)
    new_of = {old: new for new, old in enumerate(old_ids)}
    for v in range(flat.n):
        if not flat.alive[v]:
            continue
        lo, hi = flat.xadj[v], flat._rend[v]
        live_sum = 0
        for x, count in zip(flat.adj[lo:hi], flat.tri[lo:hi]):
            if not flat.alive[x]:
                continue
            a, b = new_of[v], new_of[x]
            assert recount[(a, b) if a < b else (b, a)] == count
            live_sum += count
        assert flat._tsum[v] == live_sum


def _fuzz_graph(family: str, seed: int, rng: random.Random):
    if family == "gnm":
        return gnm_random_graph(20, rng.randrange(12, 40), seed=seed)
    if family == "powerlaw":
        return power_law_graph(
            28, beta=2.1, average_degree=rng.choice((4.0, 6.0)), seed=seed
        )
    return isolated_clique_gadget(rng.randrange(3, 7), rng.randrange(1, 3))


class TestFlatTriangleWorkspaceFuzz:
    @SETTINGS
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        family=st.sampled_from(["gnm", "powerlaw", "clique"]),
    )
    def test_lockstep_with_oracle(self, seed, family):
        rng = random.Random(seed)
        g = _fuzz_graph(family, seed, rng)
        flat = FlatTriangleWorkspace(g)
        oracle = TriangleWorkspace(g)
        _check_flat_against_oracle(flat, oracle)
        for _ in range(3 * g.n):
            step = rng.choice(("delete", "path", "dominated", "degree_one"))
            if step == "delete":
                live = [v for v in range(g.n) if oracle.alive[v]]
                if not live:
                    break
                v = rng.choice(live)
                flat.delete_vertex(v, "exclude")
                oracle.delete_vertex(v, "exclude")
            elif step == "path":
                u = oracle.pop_degree_two()
                assert flat.pop_degree_two() == u
                if u is not None:
                    rule = apply_degree_two_path_reduction(oracle, u)
                    assert apply_degree_two_path_reduction(flat, u) == rule
            elif step == "dominated":
                u = oracle.pop_dominated()
                assert flat.pop_dominated() == u
                if u is not None:
                    flat.delete_vertex(u, "exclude")
                    oracle.delete_vertex(u, "exclude")
            else:
                u = oracle.pop_degree_one()
                assert flat.pop_degree_one() == u
                if u is not None:
                    (v,) = oracle.live_neighbors(u)
                    assert flat.live_neighbors(u) == [v]
                    flat.delete_vertex(v, "exclude")
                    oracle.delete_vertex(v, "exclude")
            _check_flat_against_oracle(flat, oracle)


class TestArrayWorkspaceFuzz:
    @SETTINGS
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_degree_consistency_under_deletions(self, seed):
        rng = random.Random(seed)
        g = gnm_random_graph(20, rng.randrange(10, 60), seed=seed)
        ws = ArrayWorkspace(g, track_degree_two=True)
        order = list(range(g.n))
        rng.shuffle(order)
        for v in order[: g.n // 2]:
            if ws.alive[v]:
                ws.delete_vertex(v, "exclude")
            # Invariant: deg equals the live-neighbour count.
            for u in range(g.n):
                if ws.alive[u]:
                    assert ws.deg[u] == len(ws.live_neighbors(u))

    @SETTINGS
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_path_reductions_keep_edge_symmetry(self, seed):
        rng = random.Random(seed)
        g = gnm_random_graph(16, rng.randrange(10, 24), seed=seed)
        ws = ArrayWorkspace(g, track_degree_two=True)
        for _ in range(5):
            u = ws.pop_degree_two()
            if u is None:
                break
            apply_degree_two_path_reduction(ws, u)
            # Rewired adjacency stays symmetric among live vertices.
            for a in range(g.n):
                if not ws.alive[a]:
                    continue
                for b in ws.live_neighbors(a):
                    assert a in ws.live_neighbors(b)
