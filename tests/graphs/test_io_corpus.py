"""Every graph reader against one corpus of awkward and malformed files.

A well-formed file must read to the graph that :class:`GraphBuilder` builds
edge by edge from the expected edges: equal CSR, equal :meth:`flat_csr`
buffers, and labels that are plain Python ``int``.  A malformed file must
raise the line loop's :class:`GraphFormatError`, message and line number
included.  The whole corpus runs twice: once on the production route (the
whole-array parse and build) and once on the route that runs no numpy (the
edge-list line reader, and every build edge by edge through
:class:`GraphBuilder`), which must read every file the same way.
"""

import io
import warnings

import pytest

from repro.errors import GraphFormatError
from repro.graphs import GraphBuilder, read_dimacs, read_edge_list, read_metis
from repro.graphs import io as graph_io

BEYOND_INT64 = 10**20

#: ``(id, text, labels, label edges, falls back to the line loop)``
EDGE_LIST_CASES = [
    ("self-loops", "0 0\n0 1\n1 1\n5 5\n", [0, 1, 5], [(0, 1)], False),
    ("duplicates-both-orientations", "0 1\n1 0\n0 1\n2 1\n1 2\n", [0, 1, 2], [(0, 1), (1, 2)], False),
    ("header-fillers-below", "# repro graph: n=6 m=2\n3 7\n7 9\n", [0, 1, 2, 3, 7, 9], [(3, 7), (7, 9)], False),
    ("header-fillers-between", "# repro graph: n=5\n0 2\n4 9\n", [0, 1, 2, 4, 9], [(0, 2), (4, 9)], False),
    ("header-in-percent-comment", "% repro graph: n=4\n0 1\n", [0, 1, 2, 3], [(0, 1)], False),
    ("header-largest-wins", "# repro graph: n=3\n0 1\n# repro graph: n=4\n", [0, 1, 2, 3], [(0, 1)], False),
    ("header-in-trailing-comment-ignored", "0 1 # repro graph: n=9\n", [0, 1], [(0, 1)], False),
    ("header-only", "# repro graph: n=3 m=0\n", [0, 1, 2], [], False),
    ("negative-labels", "-5 3\n3 -1\n# repro graph: n=5\n", [-5, -1, 0, 1, 3], [(-5, 3), (3, -1)], False),
    ("signed-labels", "+1 -2\n", [-2, 1], [(1, -2)], False),
    (
        "labels-beyond-int64",
        f"0 {BEYOND_INT64}\n{BEYOND_INT64} -{BEYOND_INT64}\n",
        [-BEYOND_INT64, 0, BEYOND_INT64],
        [(0, BEYOND_INT64), (BEYOND_INT64, -BEYOND_INT64)],
        True,
    ),
    ("extra-columns", "0 1 0.5\n1 2 7 extra\n2 3\n", [0, 1, 2, 3], [(0, 1), (1, 2), (2, 3)], False),
    (
        "comments",
        "% top\n0 1 # weight\n1 2 % note\n  # indented\n2 3#tight\n\t% tabbed\n",
        [0, 1, 2, 3],
        [(0, 1), (1, 2), (2, 3)],
        False,
    ),
    ("crlf-and-blank-lines", "# repro graph: n=4\r\n0 1\r\n\r\n1 2\r\n   \r\n", [0, 1, 2, 3], [(0, 1), (1, 2)], False),
    ("tabs-and-spaces", "0\t1\n  1    2  \n", [0, 1, 2], [(0, 1), (1, 2)], False),
    ("no-final-newline", "0 1\n1 2", [0, 1, 2], [(0, 1), (1, 2)], False),
    ("empty", "", [], [], False),
    ("comments-only", "# nothing here\n% nor here\n\n", [], [], False),
    ("one-edge", "4 2\n", [2, 4], [(4, 2)], False),
]

#: ``(id, text, line number)`` — each must raise the line loop's error.
EDGE_LIST_MALFORMED = [
    ("one-token", "0 1\nnonsense\n", 2),
    ("one-column", "0 1\n3\n", 2),
    ("non-integer", "0 1\n2 x\n", 2),
    ("float-label", "0 1\n1.5 2\n", 2),
    ("comment-glued-to-first-label", "1#c 2\n", 1),
    ("bad-header-count", "# repro graph: n=abc\n0 1\n", 1),
    ("absurd-header-count", "# repro graph: n=1000000000000\n0 1\n", 1),
    ("header-count-past-int32", "0 1\n% repro graph: n=2147483648\n", 2),
    ("bad-line-after-crlf", "0 1\r\n1 y\r\n", 2),
]

#: ``(id, text, n, edges)``
METIS_CASES = [
    ("self-loop", "2 1\n1 2\n1\n", 2, [(0, 1)]),
    ("duplicates", "2 1\n2 2\n1 1\n", 2, [(0, 1)]),
    ("one-sided", "3 2\n2 3\n\n\n", 3, [(0, 1), (0, 2)]),
    ("comments", "% top\n3 2\n2\n% mid\n1 3\n2\n", 3, [(0, 1), (1, 2)]),
    ("crlf", "2 1\r\n2\r\n1\r\n", 2, [(0, 1)]),
    ("isolated", "3 1\n2\n1\n\n", 3, [(0, 1)]),
    ("one-edge", "2 1\n2\n1\n", 2, [(0, 1)]),
]

#: ``(id, text, line number or None)``
METIS_MALFORMED = [
    ("empty", "", None),
    ("neighbour-too-large", "2 1\n3\n1\n", 2),
    ("neighbour-zero", "2 1\n0\n1\n", 2),
    ("non-integer", "2 1\nx\n1\n", 2),
    ("bad-header", "2 x\n2\n1\n", 1),
    ("edge-count-mismatch", "2 5\n2\n1\n", None),
]

DIMACS_CASES = [
    ("self-loop", "p edge 2 1\ne 1 1\ne 1 2\n", 2, [(0, 1)]),
    ("duplicates-both-orientations", "p edge 2 2\ne 1 2\ne 2 1\n", 2, [(0, 1)]),
    ("comments-crlf-blank", "c hi\r\np edge 3 2\r\n\r\ne 1 2\r\ne 2 3\r\n", 3, [(0, 1), (1, 2)]),
    ("isolated", "p edge 4 1\ne 4 2\n", 4, [(3, 1)]),
    ("one-edge", "p edge 2 1\ne 1 2\n", 2, [(0, 1)]),
]

DIMACS_MALFORMED = [
    ("empty", "", None),
    ("edge-before-problem", "e 1 2\n", 1),
    ("out-of-range", "p edge 2 1\ne 1 3\n", 2),
    ("zero-id", "p edge 2 1\ne 0 1\n", 2),
    ("non-integer-count", "p edge x 3\n", 1),
    ("absurd-count", "p edge 1000000000000 1\ne 1 2\n", 1),
    ("count-past-int32", "p edge 2147483648 0\n", 1),
    ("non-integer-vertex", "p edge 3 1\ne 1 b\n", 2),
    ("short-edge-line", "p edge 3 1\ne 1\n", 2),
]


def _ids(cases):
    return [case[0] for case in cases]


def _reject_whole_array_parse(text):
    raise ValueError("line reader forced")


@pytest.fixture(params=["numpy", "no-numpy"])
def backend(request, monkeypatch):
    """``numpy``: the production route.  ``no-numpy``: edge lists go
    through the line reader and every reader builds its graph from
    ``(u, v)`` pairs, which :meth:`Graph.from_edges` feeds to
    :class:`GraphBuilder`."""
    if request.param == "no-numpy":
        monkeypatch.setattr(graph_io, "_parse_edge_array", _reject_whole_array_parse)
        monkeypatch.setattr(graph_io, "_edge_pairs", zip)
    return request.param


@pytest.fixture
def line_loop_runs(monkeypatch):
    """Counts calls to the edge-list line loop."""
    calls = []
    original = graph_io._read_edge_lines

    def counted(handle, name):
        calls.append(name)
        return original(handle, name)

    monkeypatch.setattr(graph_io, "_read_edge_lines", counted)
    return calls


def _oracle(n, edges):
    builder = GraphBuilder(n)
    for u, v in edges:
        builder.add_edge(u, v)
    return builder.build()


def _assert_same_graph(graph, expected):
    assert graph == expected
    assert graph.flat_csr() == expected.flat_csr()
    offsets, targets = graph.csr_arrays()
    assert all(type(x) is int for x in offsets + targets)


def _line_loop_error(text):
    with pytest.raises(GraphFormatError) as excinfo:
        graph_io._read_edge_lines(io.StringIO(text), "")
    return excinfo.value


@pytest.mark.parametrize("case", EDGE_LIST_CASES, ids=_ids(EDGE_LIST_CASES))
def test_edge_list_matches_oracle(case, backend, line_loop_runs):
    _, text, labels, label_edges, falls_back = case
    index = {label: i for i, label in enumerate(labels)}
    expected = _oracle(len(labels), [(index[u], index[v]) for u, v in label_edges])
    graph, got_labels = read_edge_list(io.StringIO(text))
    _assert_same_graph(graph, expected)
    assert got_labels == labels
    assert all(type(label) is int for label in got_labels)
    assert bool(line_loop_runs) == (falls_back or backend == "no-numpy")


@pytest.mark.parametrize("case", EDGE_LIST_CASES, ids=_ids(EDGE_LIST_CASES))
def test_edge_list_file_matches_stream(case, backend, tmp_path):
    # Files are opened with universal newlines; streams are read as given.
    _, text, _, _, _ = case
    path = tmp_path / "g.txt"
    path.write_bytes(text.encode("utf-8"))
    from_file = read_edge_list(str(path))
    from_stream = read_edge_list(io.StringIO(text))
    assert from_file[0] == from_stream[0]
    assert from_file[1] == from_stream[1]


@pytest.mark.parametrize("case", EDGE_LIST_MALFORMED, ids=_ids(EDGE_LIST_MALFORMED))
def test_edge_list_malformed_matches_line_loop(case, backend):
    _, text, line_number = case
    expected = _line_loop_error(text)
    with pytest.raises(GraphFormatError) as excinfo:
        read_edge_list(io.StringIO(text))
    assert str(excinfo.value) == str(expected)
    assert excinfo.value.line_number == expected.line_number == line_number


@pytest.mark.parametrize("text", ["", "# only a comment\n", "\n\n"])
def test_edge_list_without_data_does_not_warn(text, backend):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        graph, labels = read_edge_list(io.StringIO(text))
    assert graph.n == 0 and labels == []


@pytest.mark.parametrize("case", METIS_CASES, ids=_ids(METIS_CASES))
def test_metis_matches_oracle(case, backend):
    _, text, n, edges = case
    _assert_same_graph(read_metis(io.StringIO(text)), _oracle(n, edges))


@pytest.mark.parametrize("case", METIS_MALFORMED, ids=_ids(METIS_MALFORMED))
def test_metis_malformed(case, backend):
    _, text, line_number = case
    with pytest.raises(GraphFormatError) as excinfo:
        read_metis(io.StringIO(text))
    assert excinfo.value.line_number == line_number


@pytest.mark.parametrize("case", DIMACS_CASES, ids=_ids(DIMACS_CASES))
def test_dimacs_matches_oracle(case, backend):
    _, text, n, edges = case
    _assert_same_graph(read_dimacs(io.StringIO(text)), _oracle(n, edges))


@pytest.mark.parametrize("case", DIMACS_MALFORMED, ids=_ids(DIMACS_MALFORMED))
def test_dimacs_malformed(case, backend):
    _, text, line_number = case
    with pytest.raises(GraphFormatError) as excinfo:
        read_dimacs(io.StringIO(text))
    assert excinfo.value.line_number == line_number
