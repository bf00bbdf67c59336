"""Every graph reader against one corpus of awkward and malformed files.

A well-formed file must read to the graph that :class:`GraphBuilder` builds
edge by edge from the expected edges: equal CSR, equal :meth:`flat_csr`
buffers, and labels that are plain Python ``int``.  A malformed file must
raise the line loop's :class:`GraphFormatError`, message and line number
included.  The whole corpus runs twice: once on the production route (the
whole-array parse and build) and once on the route that runs no numpy (the
edge-list line reader, and every build edge by edge through
:class:`GraphBuilder`), which must read every file the same way.  Each
edge-list case also names the parse its file takes on the production
route: the strict ``numpy.fromstring`` pass, ``loadtxt`` or the line loop.
"""

import io
import tracemalloc
import warnings

import pytest

from repro.errors import GraphFormatError
from repro.graphs import (
    Graph,
    GraphBuilder,
    read_dimacs,
    read_edge_list,
    read_metis,
    write_edge_list,
)
from repro.graphs import io as graph_io

BEYOND_INT64 = 10**20

INT64_MAX = 2**63 - 1

#: ``(id, text, labels, label edges, route)``.  The route is the reader that
#: parses the file on the production route: ``strict`` (one
#: ``numpy.fromstring`` pass), ``loadtxt`` or ``line`` (the line loop).
EDGE_LIST_CASES = [
    ("self-loops", "0 0\n0 1\n1 1\n5 5\n", [0, 1, 5], [(0, 1)], "strict"),
    ("duplicates-both-orientations", "0 1\n1 0\n0 1\n2 1\n1 2\n", [0, 1, 2], [(0, 1), (1, 2)], "strict"),
    ("header-fillers-below", "# repro graph: n=6 m=2\n3 7\n7 9\n", [0, 1, 2, 3, 7, 9], [(3, 7), (7, 9)], "strict"),
    ("header-fillers-between", "# repro graph: n=5\n0 2\n4 9\n", [0, 1, 2, 4, 9], [(0, 2), (4, 9)], "strict"),
    ("header-in-percent-comment", "% repro graph: n=4\n0 1\n", [0, 1, 2, 3], [(0, 1)], "strict"),
    ("header-largest-wins", "# repro graph: n=3\n0 1\n# repro graph: n=4\n", [0, 1, 2, 3], [(0, 1)], "loadtxt"),
    ("header-in-trailing-comment-ignored", "0 1 # repro graph: n=9\n", [0, 1], [(0, 1)], "loadtxt"),
    ("header-only", "# repro graph: n=3 m=0\n", [0, 1, 2], [], "loadtxt"),
    ("negative-labels", "-5 3\n3 -1\n# repro graph: n=5\n", [-5, -1, 0, 1, 3], [(-5, 3), (3, -1)], "loadtxt"),
    ("signed-labels", "+1 -2\n", [-2, 1], [(1, -2)], "strict"),
    (
        "labels-beyond-int64",
        f"0 {BEYOND_INT64}\n{BEYOND_INT64} -{BEYOND_INT64}\n",
        [-BEYOND_INT64, 0, BEYOND_INT64],
        [(0, BEYOND_INT64), (BEYOND_INT64, -BEYOND_INT64)],
        "line",
    ),
    ("extra-columns", "0 1 0.5\n1 2 7 extra\n2 3\n", [0, 1, 2, 3], [(0, 1), (1, 2), (2, 3)], "loadtxt"),
    (
        "comments",
        "% top\n0 1 # weight\n1 2 % note\n  # indented\n2 3#tight\n\t% tabbed\n",
        [0, 1, 2, 3],
        [(0, 1), (1, 2), (2, 3)],
        "loadtxt",
    ),
    ("crlf-and-blank-lines", "# repro graph: n=4\r\n0 1\r\n\r\n1 2\r\n   \r\n", [0, 1, 2, 3], [(0, 1), (1, 2)], "loadtxt"),
    ("tabs-and-spaces", "0\t1\n  1    2  \n", [0, 1, 2], [(0, 1), (1, 2)], "loadtxt"),
    ("no-final-newline", "0 1\n1 2", [0, 1, 2], [(0, 1), (1, 2)], "strict"),
    ("empty", "", [], [], "loadtxt"),
    ("comments-only", "# nothing here\n% nor here\n\n", [], [], "loadtxt"),
    ("one-edge", "4 2\n", [2, 4], [(4, 2)], "strict"),
    # The strict route's traps: numpy.fromstring saturates a label past
    # int64 at the int64 maximum, takes ``+1`` and whitespace of any kind.
    ("just-past-int64", "9223372036854775808 1\n", [1, INT64_MAX + 1], [(INT64_MAX + 1, 1)], "line"),
    ("far-past-int64", f"{BEYOND_INT64} 1\n", [1, BEYOND_INT64], [(BEYOND_INT64, 1)], "line"),
    ("just-below-int64", "-9223372036854775809 1\n", [-INT64_MAX - 2, 1], [(-INT64_MAX - 2, 1)], "line"),
    (
        "int64-extremes",
        "-9223372036854775808 9223372036854775807\n",
        [-INT64_MAX - 1, INT64_MAX],
        [(-INT64_MAX - 1, INT64_MAX)],
        "loadtxt",
    ),
    ("plus-signs", "+1 +2\n+2 3\n", [1, 2, 3], [(1, 2), (2, 3)], "strict"),
    ("leading-zeros-and-minus-zero", "007 08\n-0 1\n", [0, 1, 7, 8], [(7, 8), (0, 1)], "strict"),
    ("trailing-space", "0 1 \n1 2\n", [0, 1, 2], [(0, 1), (1, 2)], "loadtxt"),
    ("leading-space", " 0 1\n1 2\n", [0, 1, 2], [(0, 1), (1, 2)], "loadtxt"),
    ("double-space", "0  1\n1 2\n", [0, 1, 2], [(0, 1), (1, 2)], "loadtxt"),
    ("blank-line-between", "0 1\n\n1 2\n", [0, 1, 2], [(0, 1), (1, 2)], "loadtxt"),
    # Separators alternate in-line and newline, but outnumber the labels.
    ("whitespace-only-lines", "0 1\n \n2 3\n\t\n", [0, 1, 2, 3], [(0, 1), (2, 3)], "loadtxt"),
    ("tab-separated", "0\t1\n1\t2\n", [0, 1, 2], [(0, 1), (1, 2)], "strict"),
    ("tab-separated-no-final-newline", "3\t1\n1\t2", [1, 2, 3], [(3, 1), (1, 2)], "strict"),
    (
        "snap-header-block",
        "# Directed graph\n# Nodes: 3 Edges: 2\n# FromNodeId\tToNodeId\n0\t1\n1\t2\n",
        [0, 1, 2],
        [(0, 1), (1, 2)],
        "strict",
    ),
    ("indented-header", "  # repro graph: n=3\n0 1\n", [0, 1, 2], [(0, 1)], "loadtxt"),
    ("sparse-labels", "0 1099511627776\n", [0, 2**40], [(0, 2**40)], "strict"),
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
    # numpy.fromstring reads these without complaint.
    ("lone-minus", "0 1\n- 2\n", 2),
    ("trailing-minus", "0 1\n1 -\n", 2),
    ("minus-after-digit", "0 1\n1-2 3\n", 2),
    ("two-signs", "0 1\n1 +-2\n", 2),
    ("misaligned-rows", "1 2 3\n4\n", 2),
    ("misaligned-rows-tab", "1\t2\t3\n4\n", 2),
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
def route(monkeypatch):
    """The route the last edge-list read took: ``strict``, ``loadtxt`` or
    ``line``."""
    taken = []
    strict_rows = graph_io._strict_rows
    loadtxt = graph_io._np.loadtxt
    read_edge_lines = graph_io._read_edge_lines

    def strict(text):
        rows = strict_rows(text)
        if rows is not None:
            taken.append("strict")
        return rows

    def counted_loadtxt(*args, **kwargs):
        taken.append("loadtxt")
        return loadtxt(*args, **kwargs)

    def line_loop(handle, name):
        taken.append("line")
        return read_edge_lines(handle, name)

    monkeypatch.setattr(graph_io, "_strict_rows", strict)
    monkeypatch.setattr(graph_io._np, "loadtxt", counted_loadtxt)
    monkeypatch.setattr(graph_io, "_read_edge_lines", line_loop)
    return lambda: taken[-1] if taken else None


def _oracle(n, edges):
    builder = GraphBuilder(n)
    for u, v in edges:
        builder.add_edge(u, v)
    return builder.build()


def _assert_same_graph(graph, expected):
    assert graph == expected
    assert graph.flat_csr() == expected.flat_csr()
    offsets, targets = graph.flat_csr()
    assert (offsets.typecode, targets.typecode) == ("q", "i")


def _line_loop_error(text):
    with pytest.raises(GraphFormatError) as excinfo:
        graph_io._read_edge_lines(io.StringIO(text), "")
    return excinfo.value


@pytest.mark.parametrize("case", EDGE_LIST_CASES, ids=_ids(EDGE_LIST_CASES))
def test_edge_list_matches_oracle(case, backend, route):
    _, text, labels, label_edges, expected_route = case
    index = {label: i for i, label in enumerate(labels)}
    expected = _oracle(len(labels), [(index[u], index[v]) for u, v in label_edges])
    graph, got_labels = read_edge_list(io.StringIO(text))
    _assert_same_graph(graph, expected)
    assert got_labels == labels
    assert all(type(label) is int for label in got_labels)
    assert route() == (expected_route if backend == "numpy" else "line")


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


def test_written_files_take_the_strict_route(route, tmp_path):
    # write_edge_list's header plus ``u v`` lines, isolated vertices included.
    graph = Graph.from_edges(40, [(u, (7 * u + 3) % 37) for u in range(37)])
    path = tmp_path / "written.txt"
    write_edge_list(graph, str(path))
    assert read_edge_list(str(path))[0] == graph
    assert route() == "strict"


def test_snap_tab_files_take_the_strict_route(route, tmp_path):
    path = tmp_path / "snap.txt"
    path.write_text(
        "# Undirected graph: example.txt\n# Nodes: 4 Edges: 3\n# FromNodeId\tToNodeId\n"
        "10\t20\n20\t30\n30\t40\n",
        encoding="utf-8",
    )
    graph, labels = read_edge_list(str(path))
    assert labels == [10, 20, 30, 40] and graph.m == 3
    assert route() == "strict"


@pytest.mark.parametrize("label", [2**24, 2**40])
def test_sparse_labels_allocate_no_label_table(label, route):
    # A presence table indexed by label would take ``label`` bytes.
    tracemalloc.start()
    try:
        graph, labels = read_edge_list(io.StringIO(f"0 {label}\n{label} 5\n"))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert labels == [0, 5, label] and graph.m == 2
    assert route() == "strict"
    assert peak < 2**20


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
