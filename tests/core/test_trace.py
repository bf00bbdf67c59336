"""Tests for the decision log and solution reconstruction."""

from repro.core.trace import DecisionLog, extend_to_maximal
from repro.graphs import Graph, path_graph, cycle_graph


class TestBasicReplay:
    def test_includes_survive(self):
        g = path_graph(3)
        log = DecisionLog()
        log.include(0)
        log.exclude(1)
        outcome = log.replay(g, extend_maximal=False)
        assert outcome.vertices == {0}

    def test_maximal_extension_fills_gaps(self):
        g = path_graph(5)
        log = DecisionLog()
        outcome = log.replay(g)
        # First-fit extension on a path takes 0, 2, 4.
        assert outcome.vertices == {0, 2, 4}

    def test_peel_bookkeeping(self):
        g = path_graph(2)
        log = DecisionLog()
        log.peel(0)
        log.include(1)
        outcome = log.replay(g, extend_maximal=False)
        assert outcome.peeled == 1
        assert outcome.surviving_peels == 1
        assert outcome.upper_bound == 2
        assert not outcome.is_exact

    def test_peeled_vertex_readded_by_extension(self):
        g = path_graph(3)
        log = DecisionLog()
        log.peel(0)
        log.include(2)
        outcome = log.replay(g)
        # 0 has no solution neighbour, so extension re-adds it: R empty.
        assert 0 in outcome.vertices
        assert outcome.surviving_peels == 0
        assert outcome.is_exact


class TestPathEntries:
    def test_path_vertex_added_when_blockers_out(self):
        g = path_graph(3)
        log = DecisionLog()
        log.push_path(1, 0, 2)
        outcome = log.replay(g, extend_maximal=False)
        assert 1 in outcome.vertices

    def test_path_vertex_skipped_when_blocker_in(self):
        g = path_graph(3)
        log = DecisionLog()
        log.include(0)
        log.push_path(1, 0, 2)
        outcome = log.replay(g, extend_maximal=False)
        assert 1 not in outcome.vertices

    def test_pop_order_is_reverse_push_order(self):
        # Path 0-1-2-3-4: push 3 then 2 then 1 (pop order 1, 2, 3) with
        # vertex 0 included: alternation takes 2 and 4... here only the
        # pushed ones: skip 1 (blocked by 0), add 2, skip 3.
        g = path_graph(5)
        log = DecisionLog()
        log.include(0)
        log.push_path(3, 2, 4)
        log.push_path(2, 1, 3)
        log.push_path(1, 0, 2)
        outcome = log.replay(g, extend_maximal=False)
        assert outcome.vertices == {0, 2}

    def test_alpha_offset_counts_half_of_path_entries(self):
        log = DecisionLog()
        log.push_path(1, 0, 2)
        log.push_path(2, 1, 3)
        log.include(9)
        log.fold(4, 5, 6)
        assert log.alpha_offset == 1 + 1 + 1  # include + fold + 2 paths / 2


class TestFoldEntries:
    def test_fold_takes_v_when_supervertex_in(self):
        g = Graph.from_edges(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
        log = DecisionLog()
        log.fold(0, 1, 2)  # u=0 folded with v=1 into supervertex w=2
        log.include(2)
        outcome = log.replay(g, extend_maximal=False)
        assert outcome.vertices == {1, 2}

    def test_fold_takes_u_when_supervertex_out(self):
        g = Graph.from_edges(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
        log = DecisionLog()
        log.fold(0, 1, 2)
        log.exclude(2)
        outcome = log.replay(g, extend_maximal=False)
        assert outcome.vertices == {0}

    def test_nested_folds_resolve_in_reverse(self):
        g = path_graph(6)
        log = DecisionLog()
        log.fold(0, 1, 2)  # earlier fold references supervertex 2...
        log.fold(2, 3, 4)  # ...which is itself folded later into 4.
        log.include(4)
        outcome = log.replay(g, extend_maximal=False)
        # Reverse replay: 4 in I -> add 3 (fold 2); 2 not in I -> add 0.
        assert outcome.vertices == {0, 3, 4}


class TestLogUtilities:
    def test_copy_is_independent(self):
        log = DecisionLog()
        log.include(0)
        clone = log.copy()
        clone.include(1)
        assert len(log) == 1
        assert len(clone) == 2

    def test_extend_mapped_translates_ids(self):
        g = path_graph(4)
        inner = DecisionLog()
        inner.include(0)
        inner.push_path(1, 0, 2)
        outer = DecisionLog()
        outer.extend_mapped(inner, [3, 2, 1, 0])
        outcome = outer.replay(g, extend_maximal=False)
        assert 3 in outcome.vertices  # include mapped 0 -> 3
        # Path entry mapped to (2, blockers 3 and 1): 3 in I blocks it.
        assert 2 not in outcome.vertices

    def test_stats_merge_on_extend(self):
        a = DecisionLog()
        a.bump("rule", 2)
        b = DecisionLog()
        b.bump("rule", 3)
        a.extend_mapped(b, [])
        assert a.stats["rule"] == 5

    def test_peel_count(self):
        log = DecisionLog()
        log.peel(1)
        log.peel(2)
        log.include(3)
        assert log.peel_count == 2


class TestResolveExtendSplit:
    def test_resolve_matches_unextended_replay(self):
        g = path_graph(6)
        log = DecisionLog()
        log.include(0)
        log.peel(3)
        log.push_path(1, 0, 2)
        in_set, peeled = log.resolve(g.n)
        outcome = log.replay(g, extend_maximal=False)
        assert in_set == outcome.in_set
        assert peeled == [3]

    def test_extend_to_maximal_is_first_fit(self):
        g = path_graph(5)
        in_set = [False] * 5
        extend_to_maximal(in_set, g)
        assert [v for v in range(5) if in_set[v]] == [0, 2, 4]

    def test_extend_to_maximal_respects_existing_vertices(self):
        g = path_graph(5)
        in_set = [False, True, False, False, False]
        extend_to_maximal(in_set, g)
        assert [v for v in range(5) if in_set[v]] == [1, 3]


class TestFoldAfterPath:
    def test_later_fold_decides_earlier_path_entry(self):
        # Chronological order: PATH then FOLD.  The backward pass resolves
        # the fold FIRST (supervertex 4 out -> u=2 joins), and only then the
        # path entry, which must see blocker 2 inside and keep 1 out.
        g = path_graph(5)
        log = DecisionLog()
        log.push_path(1, 0, 2)
        log.fold(2, 3, 4)
        outcome = log.replay(g, extend_maximal=False)
        assert 2 in outcome.vertices
        assert 1 not in outcome.vertices

    def test_fold_supervertex_in_routes_v_and_frees_the_path(self):
        # With 4 included, the fold takes v=3 instead of u=2; both of the
        # path entry's blockers stay out, so 1 re-enters on replay.
        g = path_graph(5)
        log = DecisionLog()
        log.include(4)
        log.push_path(1, 0, 2)
        log.fold(2, 3, 4)
        outcome = log.replay(g, extend_maximal=False)
        assert 3 in outcome.vertices
        assert 2 not in outcome.vertices
        assert 1 in outcome.vertices


class TestEmptyLog:
    def test_empty_log_unextended_replay_is_empty(self):
        g = cycle_graph(4)
        outcome = DecisionLog().replay(g, extend_maximal=False)
        assert outcome.vertices == frozenset()
        assert outcome.peeled == 0
        assert outcome.surviving_peels == 0
        assert outcome.is_exact
        assert outcome.upper_bound == 0

    def test_empty_log_extended_replay_is_greedy_maximal(self):
        g = cycle_graph(5)
        outcome = DecisionLog().replay(g)
        assert outcome.vertices == {0, 2}

    def test_empty_log_on_empty_graph(self):
        g = Graph.empty(0)
        outcome = DecisionLog().replay(g)
        assert outcome.vertices == frozenset()
        assert outcome.upper_bound == 0

    def test_empty_log_resolve(self):
        in_set, peeled = DecisionLog().resolve(3)
        assert in_set == [False, False, False]
        assert peeled == []


class TestInterleavedFoldPath:
    """FOLD and PATH entries interleaved across the log.

    Replay walks the log *backwards*, so a later fold can decide the
    blockers of an earlier path entry and vice versa.  These scenarios pin
    that dependency order down — they are the cases localized repair
    replays when a mutated component's kernel log mixes both rule kinds.
    """

    def test_fold_then_path_sharing_the_supervertex(self):
        # Path entry blocked by supervertex w=2; the fold resolves first
        # (it is later in the log) and decides whether 2 is in.
        log = DecisionLog()
        log.fold(0, 1, 2)        # earlier fold: u=0 v=1 w=2
        log.push_path(3, 2, 4)   # later path entry, blocker 2
        log.include(2)           # kernel put the supervertex in
        in_set, _ = log.resolve(5)
        # Backwards: path first — blocker 2 in → 3 stays out; then fold
        # routes the supervertex to v=1.
        assert in_set[1] and in_set[2]
        assert not in_set[0] and not in_set[3]

    def test_path_then_fold_where_fold_decides_blocker(self):
        # The path entry is *earlier*, so on the backwards walk the fold
        # resolves first and its outcome (u=1 joins) blocks the path vertex.
        log = DecisionLog()
        log.push_path(0, 1, 2)
        log.fold(1, 3, 4)        # supervertex w=4 stays out → u=1 joins
        in_set, _ = log.resolve(5)
        assert in_set[1]
        assert not in_set[0]     # blocker 1 in → path vertex out

    def test_path_resolved_before_earlier_fold_sees_it(self):
        # Backwards order: PATH (latest) → FOLD.  The path vertex joins
        # (both blockers out) and then the fold reads that fresh decision:
        # its supervertex w=0 is now in, so v=2 joins instead of u=1.
        log = DecisionLog()
        log.fold(1, 2, 0)
        log.push_path(0, 3, 4)
        in_set, _ = log.resolve(5)
        assert in_set[0]         # path: blockers 3, 4 both out
        assert in_set[2]         # fold saw w=0 in → v joins
        assert not in_set[1]

    def test_alternating_chain_of_folds_and_paths(self):
        # fold(0,1,2) … path(3 | 2,4) … fold(4,5,6) … path(7 | 6,8),
        # resolved strictly backwards: 7 joins (6, 8 out) → fold picks
        # u=4 (w=6 out) → path 3 blocked by 4?  No: blockers are 2 and 4,
        # 4 is now in → 3 stays out → fold picks v?  w=2 out → u=0 joins.
        log = DecisionLog()
        log.fold(0, 1, 2)
        log.push_path(3, 2, 4)
        log.fold(4, 5, 6)
        log.push_path(7, 6, 8)
        in_set, _ = log.resolve(9)
        assert in_set[7]
        assert in_set[4]
        assert not in_set[3]
        assert in_set[0]
        assert not in_set[1] and not in_set[5]

    def test_interleaved_log_on_mutated_component_subgraph(self):
        # End-to-end: kernelize a component, mutate a *different* part of
        # the graph, and replay the old log mapped onto the snapshot — the
        # deferred decisions must still resolve to a valid independent set
        # on the untouched component.
        from repro.analysis import assert_valid_solution
        from repro.core.near_linear import near_linear
        from repro.graphs import disjoint_union
        from repro.graphs.generators import gnm_random_graph
        from repro.serve import DynamicGraph

        component_a = gnm_random_graph(40, 90, seed=21)
        component_b = cycle_graph(9)
        union = disjoint_union([component_a, component_b])
        dynamic = DynamicGraph(union)
        # Mutate only inside component B's id range (40..48).
        dynamic.add_edge(40, 44)
        dynamic.remove_edge(41, 42)
        snapshot, old_ids = dynamic.snapshot()
        assert old_ids == list(range(union.n))  # no removals: ids align
        # Component A was untouched: its sub-solution replays cleanly on
        # the mutated snapshot.
        result = near_linear(component_a)
        survivors = set(result.independent_set)
        in_set = [v in survivors for v in range(snapshot.n)]
        for v in range(40, snapshot.n):
            assert not in_set[v]
        extend_to_maximal(in_set, snapshot)
        assert_valid_solution(snapshot, [v for v in range(snapshot.n) if in_set[v]])
