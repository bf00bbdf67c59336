"""Tests for solution verification helpers."""

import numpy as np
import pytest

from repro.analysis import (
    assert_valid_solution,
    complement_vertex_cover,
    greedy_maximal_extension,
    is_independent_set,
    is_maximal_independent_set,
    is_vertex_cover,
)
from repro.errors import NotASolutionError
from repro.graphs import cycle_graph, paper_figure1, path_graph, star_graph


class TestIndependence:
    def test_empty_set_is_independent(self):
        assert is_independent_set(path_graph(3), set())

    def test_adjacent_pair_is_not(self):
        assert not is_independent_set(path_graph(3), {0, 1})

    def test_out_of_range_vertex_is_invalid(self):
        assert not is_independent_set(path_graph(3), {5})

    def test_paper_example(self):
        g = paper_figure1()
        assert is_independent_set(g, {1, 4, 6, 8})
        assert not is_independent_set(g, {0, 1})


class TestMaximality:
    def test_maximal(self):
        assert is_maximal_independent_set(cycle_graph(4), {0, 2})

    def test_not_maximal(self):
        assert not is_maximal_independent_set(cycle_graph(4), {0})

    def test_invalid_set_is_not_maximal(self):
        assert not is_maximal_independent_set(cycle_graph(4), {0, 1})


class TestVertexCover:
    def test_cover(self):
        assert is_vertex_cover(star_graph(5), {0})

    def test_non_cover(self):
        assert not is_vertex_cover(path_graph(3), {0})

    def test_complement_relation(self):
        g = paper_figure1()
        cover = complement_vertex_cover(g, {0, 3, 5, 7, 9})
        assert cover == {1, 2, 4, 6, 8}
        assert is_vertex_cover(g, cover)

    def test_complement_rejects_invalid_input(self):
        with pytest.raises(NotASolutionError):
            complement_vertex_cover(path_graph(3), {0, 1})


class TestAssertAndExtend:
    def test_assert_passes(self):
        assert_valid_solution(cycle_graph(4), {0, 2})

    def test_assert_raises_on_dependence(self):
        with pytest.raises(NotASolutionError):
            assert_valid_solution(path_graph(2), {0, 1})

    def test_assert_raises_on_non_maximal(self):
        with pytest.raises(NotASolutionError):
            assert_valid_solution(path_graph(5), {1}, maximal=True)

    def test_extension_reaches_maximality(self):
        g = path_graph(7)
        extended = greedy_maximal_extension(g, {3})
        assert is_maximal_independent_set(g, extended)
        assert 3 in extended

    def test_extension_of_empty(self):
        g = cycle_graph(6)
        extended = greedy_maximal_extension(g, set())
        assert is_maximal_independent_set(g, extended)


# ----------------------------------------------------------------------
# Whole-array path vs the per-vertex loop
# ----------------------------------------------------------------------
def _reference(graph, vertices):
    """Independence and maximality straight from the definitions."""
    selected = set(vertices)
    if any(not 0 <= v < graph.n for v in selected):
        return False, False
    independent = all(
        not (u in selected and v in selected) for u, v in graph.edges()
    )
    dominated = all(
        v in selected or any(w in selected for w in graph.neighbors(v))
        for v in range(graph.n)
    )
    return independent, independent and dominated


def _candidate_sets(graph):
    """A maximal set, then the cases each check must tell apart."""
    from repro.core.linear_time import linear_time

    solution = sorted(linear_time(graph).independent_set)
    outside = [v for v in range(graph.n) if v not in set(solution)]
    yield solution
    yield []  # empty
    yield solution[1:]  # non-maximal
    yield solution + outside[:1]  # dependent
    yield solution + solution[:3]  # duplicates
    yield solution + [-1]  # negative id
    yield solution + [graph.n]  # id == n
    yield [graph.n + 7]  # id > n only
    yield solution + [2**70]  # beyond int64
    yield solution + [-(2**70)]  # below int64


@pytest.fixture(params=["numpy", "loop"])
def verify_path(request):
    """How a test passes its ids: plain ints take the whole-array pass, and
    ``numpy.int64`` ids take the per-vertex loop (an id beyond int64 stays a
    plain ``int``; the mixed set still takes the loop)."""
    from repro.analysis.verify import _on_array_path

    if request.param == "numpy":
        return list

    def as_numpy_ids(vertices):
        ids = [np.int64(v) if -(2**63) <= v < 2**63 else v for v in vertices]
        assert not ids or not _on_array_path(set(ids))
        return ids

    return as_numpy_ids


class TestWholeArrayVerification:
    def test_both_paths_match_definitions_on_corpus(self, verify_path):
        from tests.core.test_differential_backends import CORPUS

        for graph in CORPUS[::3]:
            for vertices in _candidate_sets(graph):
                independent, maximal = _reference(graph, vertices)
                ids = verify_path(vertices)
                assert is_independent_set(graph, ids) == independent
                assert is_maximal_independent_set(graph, ids) == maximal

    def test_edge_cases(self, verify_path):
        g = cycle_graph(6)
        ids = verify_path
        assert is_independent_set(g, ids([]))
        assert not is_maximal_independent_set(g, ids([]))
        assert is_maximal_independent_set(g, ids([0, 2, 4, 4, 2]))  # duplicates
        assert not is_maximal_independent_set(g, ids([0, 2]))  # non-maximal
        assert is_independent_set(g, ids([0, 2]))
        assert not is_independent_set(g, ids([0, 1, 3]))  # dependent
        assert not is_independent_set(g, ids([-1, 2]))  # negative id
        assert not is_independent_set(g, ids([0, 6]))  # id == n
        assert not is_maximal_independent_set(g, ids([0, 2, 4, 9]))  # id > n
        assert not is_independent_set(g, ids([0, 2**70]))  # beyond int64
        assert not is_maximal_independent_set(g, ids([0, 2, 4, -(2**70)]))
        assert is_maximal_independent_set(path_graph(0), ids([]))

    def test_whole_array_path_taken_for_plain_ints(self):
        from repro.analysis.verify import _mark, _on_array_path

        g = cycle_graph(6)
        assert _on_array_path({0, 2, 4}) and _on_array_path(set())
        assert _on_array_path({0, 9}) and _on_array_path({-1})
        # Anything but plain ints takes the loop, which keeps the old answers.
        assert not _on_array_path({True})
        assert not _on_array_path({0, "a"})
        assert _mark(g, {0, 2, 4}) is not None
        assert _mark(g, set()) is not None
        # An int outside [0, n) fails without any pass over the graph.
        assert _mark(g, {0, 9}) is None
        assert _mark(g, {-1}) is None
        assert _mark(g, {0, 2**70}) is None
        assert _mark(g, {-(2**70)}) is None

    def test_numpy_integer_ids_answer_like_ints(self):
        g = cycle_graph(6)
        ids = [np.int64(0), np.int32(2), np.int64(4)]
        assert is_maximal_independent_set(g, ids)
        assert not is_independent_set(g, [np.int64(0), np.int64(1)])
