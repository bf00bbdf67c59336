"""Round-trip and error-handling tests for graph IO."""

import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import linear_time, linear_time_reduce, near_linear, near_linear_reduce
from repro.errors import GraphFormatError
from repro.graphs import (
    Graph,
    cycle_graph,
    dumps_edge_list,
    gnm_random_graph,
    power_law_graph,
    loads_edge_list,
    petersen_graph,
    read_dimacs,
    read_edge_list,
    read_graph,
    read_metis,
    write_dimacs,
    write_edge_list,
    write_graph,
    write_metis,
)
from repro.graphs import io as graph_io


class TestEdgeList:
    def test_round_trip(self):
        g = gnm_random_graph(20, 40, seed=1)
        assert loads_edge_list(dumps_edge_list(g)) == g

    def test_comments_and_blank_lines(self):
        text = "# header\n\n% more\n0 1\n1 2\n"
        g = loads_edge_list(text)
        assert g.n == 3
        assert g.m == 2

    def test_label_compaction(self):
        g, labels = read_edge_list(io.StringIO("100 7\n7 42\n"))
        assert g.n == 3
        assert labels == [7, 42, 100]  # sorted-label order
        assert g.has_edge(2, 0)  # 100 - 7
        assert g.has_edge(0, 1)  # 7 - 42

    def test_header_preserves_isolated_vertices(self):
        g, labels = read_edge_list(io.StringIO("# repro graph: n=5 m=1\n0 1\n"))
        assert g.n == 5
        assert g.degree(4) == 0

    def test_bad_line_raises_with_line_number(self):
        with pytest.raises(GraphFormatError) as excinfo:
            loads_edge_list("0 1\nnonsense\n")
        assert excinfo.value.line_number == 2

    def test_non_integer_raises(self):
        with pytest.raises(GraphFormatError):
            loads_edge_list("a b\n")

    def test_file_round_trip(self, tmp_path):
        g = cycle_graph(7)
        path = tmp_path / "g.txt"
        write_edge_list(g, str(path))
        loaded, _ = read_edge_list(str(path))
        assert loaded == g


class TestMetis:
    def test_round_trip(self, tmp_path):
        g = petersen_graph()
        path = tmp_path / "g.metis"
        write_metis(g, str(path))
        assert read_metis(str(path)) == g

    def test_header_mismatch_raises(self):
        with pytest.raises(GraphFormatError):
            read_metis(io.StringIO("2 5\n2\n1\n"))

    def test_missing_lines_raise(self):
        with pytest.raises(GraphFormatError):
            read_metis(io.StringIO("3 1\n2\n1\n"))

    def test_empty_file_raises(self):
        with pytest.raises(GraphFormatError):
            read_metis(io.StringIO(""))

    def test_out_of_range_neighbour_raises(self):
        with pytest.raises(GraphFormatError):
            read_metis(io.StringIO("2 1\n3\n1\n"))

    def test_isolated_vertices_survive(self):
        g = read_metis(io.StringIO("3 1\n2\n1\n\n"))
        assert g.n == 3
        assert g.degree(2) == 0


class TestDimacs:
    def test_round_trip(self, tmp_path):
        g = gnm_random_graph(15, 30, seed=9)
        path = tmp_path / "g.col"
        write_dimacs(g, str(path))
        assert read_dimacs(str(path)) == g

    def test_comments_skipped(self):
        g = read_dimacs(io.StringIO("c hi\np edge 3 2\ne 1 2\ne 2 3\n"))
        assert g.m == 2

    def test_edge_before_problem_line_raises(self):
        with pytest.raises(GraphFormatError):
            read_dimacs(io.StringIO("e 1 2\n"))

    def test_missing_problem_line_raises(self):
        with pytest.raises(GraphFormatError):
            read_dimacs(io.StringIO("c only comments\n"))

    def test_out_of_range_edge_raises(self):
        with pytest.raises(GraphFormatError):
            read_dimacs(io.StringIO("p edge 2 1\ne 1 5\n"))


class TestExtensionDispatch:
    @pytest.mark.parametrize(
        "name, first_line, labelled",
        [
            ("g.txt", "# repro graph", True),
            ("g.METIS", "15 30", False),
            ("g.graph", "15 30", False),
            ("g.col", "p edge 15 30", False),
            ("g.dimacs", "p edge 15 30", False),
        ],
    )
    def test_write_then_read_round_trips(self, tmp_path, name, first_line, labelled):
        g = gnm_random_graph(15, 30, seed=9)
        path = str(tmp_path / name)
        write_graph(g, path)
        with open(path, encoding="utf-8") as handle:
            assert handle.readline().startswith(first_line)
        graph, labels = read_graph(path)
        assert graph == g
        assert (labels is not None) == labelled


class TestEdgeListDeclaredCount:
    """The ``n=N`` header declares a vertex *count*, not the label range.

    A 1-indexed or sparse-label edge list whose header says ``n=N`` must
    read back with exactly ``N`` vertices — historically the header
    injected labels ``0 .. N-1`` unconditionally, so such files grew
    phantom vertices on every read→write→read cycle.
    """

    def test_one_indexed_file_keeps_declared_count(self):
        # Labels {1..5} with n=5: no phantom vertex 0.
        text = "# repro graph: n=5 m=4\n1 2\n2 3\n3 4\n4 5\n"
        g, labels = read_edge_list(io.StringIO(text))
        assert g.n == 5
        assert labels == [1, 2, 3, 4, 5]

    def test_sparse_labels_padded_with_smallest_unused(self):
        g, labels = read_edge_list(io.StringIO("# repro graph: n=5 m=1\n10 20\n"))
        assert g.n == 5
        assert labels == [0, 1, 2, 10, 20]
        assert g.degree(labels.index(10)) == 1

    def test_zero_indexed_behaviour_unchanged(self):
        g, labels = read_edge_list(io.StringIO("# repro graph: n=5 m=1\n0 1\n"))
        assert g.n == 5
        assert labels == [0, 1, 2, 3, 4]

    def test_header_smaller_than_label_set_is_ignored(self):
        g, labels = read_edge_list(io.StringIO("# repro graph: n=2 m=3\n0 1\n1 2\n2 3\n"))
        assert g.n == 4

    def test_one_indexed_round_trip_is_stable(self):
        text = "# repro graph: n=5 m=4\n1 2\n2 3\n3 4\n4 5\n"
        first, _ = read_edge_list(io.StringIO(text))
        second = loads_edge_list(dumps_edge_list(first))
        third = loads_edge_list(dumps_edge_list(second))
        assert first == second == third
        assert first.n == 5

    def test_isolated_vertices_round_trip_repeatedly(self):
        g = Graph.from_edges(6, [(0, 1), (3, 4)])  # 2 and 5 isolated
        for _ in range(3):
            g = loads_edge_list(dumps_edge_list(g))
        assert g.n == 6
        assert g.degree(2) == 0 and g.degree(5) == 0


class TestMetisRoundTripWithComments:
    def test_comment_lines_survive_round_trip(self, tmp_path):
        # METIS comments before and inside the body are dropped on read;
        # writing and re-reading must reproduce the same graph.
        text = "% generated fixture\n5 4\n2\n% mid-body comment\n1 3\n2 4\n3 5\n4\n"
        first = read_metis(io.StringIO(text))
        assert first.n == 5 and first.m == 4
        path = tmp_path / "roundtrip.metis"
        write_metis(first, str(path))
        second = read_metis(str(path))
        assert second == first
        third_buffer = io.StringIO()
        write_metis(second, third_buffer)
        assert read_metis(io.StringIO(third_buffer.getvalue())) == second

    def test_one_indexing_is_symmetric(self):
        # write_metis emits 1-indexed neighbours; read_metis subtracts 1.
        g = Graph.from_edges(3, [(0, 2)])
        buffer = io.StringIO()
        write_metis(g, buffer)
        assert buffer.getvalue().splitlines() == ["3 1", "3", "", "1"]
        assert read_metis(io.StringIO(buffer.getvalue())) == g

    def test_blank_adjacency_lines_round_trip(self, tmp_path):
        g = Graph.from_edges(4, [(1, 2)])  # vertices 0 and 3 isolated
        path = tmp_path / "isolated.metis"
        write_metis(g, str(path))
        assert read_metis(str(path)) == g


class TestArrayIngestKeepsAnswers:
    """Solvers answer the same on the whole-array parse as on the line reader's."""

    @pytest.mark.parametrize(
        "make",
        [
            lambda: power_law_graph(3000, 2.2, average_degree=6.0, seed=5),
            lambda: gnm_random_graph(3000, 9000, seed=5),
        ],
        ids=["chung-lu", "gnm"],
    )
    def test_same_answers(self, make, tmp_path):
        path = tmp_path / "g.txt"
        write_edge_list(make(), str(path))
        fast, fast_labels = read_edge_list(str(path))
        with open(path, encoding="utf-8") as handle:
            oracle, oracle_labels = graph_io._read_edge_lines(handle, "")
        assert fast == oracle and fast_labels == oracle_labels
        for solve, reduce in ((linear_time, linear_time_reduce), (near_linear, near_linear_reduce)):
            got, want = solve(fast), solve(oracle)
            assert got.independent_set == want.independent_set
            assert got.upper_bound == want.upper_bound
            assert len(reduce(fast)[2]) == len(reduce(oracle)[2])


LABELS = {
    "dense": st.integers(0, 40),
    "sparse": st.integers(0, 2**63 - 1),
    "negative": st.integers(-40, 40),
    "wide": st.integers(-(2**64), 2**64),
}


@st.composite
def edge_list_texts(draw):
    """A well-formed edge list: one labelled ``u v`` pair per line."""
    labels = LABELS[draw(st.sampled_from(sorted(LABELS)))]
    edges = draw(st.lists(st.tuples(labels, labels), max_size=30))
    separator = draw(st.sampled_from([" ", "\t"]))
    header = draw(
        st.sampled_from(["", "# a comment\n% another\n"])
        | st.integers(0, 60).map("# repro graph: n={} m=0\n".format)
    )
    body = "\n".join(f"{u}{separator}{v}" for u, v in edges)
    final_newline = "\n" if edges and draw(st.booleans()) else ""
    return header + body + final_newline


class TestEdgeListDifferential:
    """The whole-array reader equals the line loop on random well-formed files."""

    @settings(max_examples=300, deadline=None)
    @given(edge_list_texts())
    def test_matches_line_loop(self, text):
        graph, labels = read_edge_list(io.StringIO(text))
        oracle, oracle_labels = graph_io._read_edge_lines(io.StringIO(text), "")
        assert graph == oracle
        assert graph.flat_csr() == oracle.flat_csr()
        assert labels == oracle_labels
