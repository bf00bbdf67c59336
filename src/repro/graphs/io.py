"""Reading and writing graphs in the formats common to MIS benchmarks.

Three formats are supported, covering the ecosystems the paper draws its
inputs from:

* **edge list** — the SNAP distribution format: one ``u v`` pair per line,
  ``#`` or ``%`` comments, arbitrary (possibly sparse) vertex ids which are
  compacted;
* **METIS** — the format used by KaMIS/ReduMIS: a header ``n m`` line
  followed by one 1-indexed adjacency line per vertex;
* **DIMACS** — the clique/colouring benchmark format: ``p edge n m`` header
  and ``e u v`` lines, 1-indexed.

:func:`read_graph` / :func:`write_graph` pick the format from a path's
extension: ``.metis``/``.graph`` (METIS), ``.col``/``.dimacs`` (DIMACS),
anything else an edge list.

An edge list takes one of three routes, all giving the same graph and
labels.  A plain file (a block of whole-line comments, then ``u v`` lines
with one space or tab) is parsed by one ``numpy.fromstring`` pass whose
result is used only once the file's bytes prove it exact.  Any other file
goes to ``numpy.loadtxt``, and what that rejects to a line-by-line loop,
which also reports malformed lines.  Dense non-negative labels are
compacted through a presence table, others by ``numpy.unique``.
"""

from __future__ import annotations

import io
import os
from typing import List, Optional, TextIO, Tuple, Union

import numpy as _np

from ..errors import GraphFormatError
from .static_graph import Graph

__all__ = [
    "read_graph",
    "write_graph",
    "read_edge_list",
    "write_edge_list",
    "read_metis",
    "write_metis",
    "read_dimacs",
    "write_dimacs",
    "loads_edge_list",
    "dumps_edge_list",
]

PathOrFile = Union[str, "os.PathLike[str]", TextIO]

#: Largest vertex count a file may declare.  CSR targets are int32
#: (``array('i')``), so a larger graph cannot be built, and allocating
#: for an absurd declared count would exhaust memory before failing.
MAX_VERTEX_COUNT = 2**31 - 1


def _open_for_read(source: PathOrFile):
    if hasattr(source, "read"):
        return source, False
    return open(os.fspath(source), "r", encoding="utf-8"), True


def _open_for_write(target: PathOrFile):
    if hasattr(target, "write"):
        return target, False
    return open(os.fspath(target), "w", encoding="utf-8"), True


# ----------------------------------------------------------------------
# Edge list (SNAP style)
# ----------------------------------------------------------------------
def read_edge_list(source: PathOrFile, name: str = "") -> Tuple[Graph, List[int]]:
    """Read a SNAP-style edge list.

    Each data line holds two integer vertex labels; further columns (such
    as weights) are ignored, and ``#`` or ``%`` starts a comment running to
    the end of the line.  Vertex labels may be arbitrary integers; they are
    compacted to ``0 .. n-1`` in sorted-label order.  A header comment of
    the form ``# repro graph: n=N ...`` (as written by
    :func:`write_edge_list`) declares the vertex *count*: when the edge
    lines mention fewer than ``N`` distinct labels, the smallest unused
    non-negative integers are added as isolated vertices, which preserves
    them across a round trip without inventing phantom vertices for
    1-indexed or sparse-label files.  Returns ``(graph, labels)`` where
    ``labels[new_id]`` is the original label.

    The file is parsed in whole-array numpy passes: a plain file by
    :func:`_strict_rows`, any other by ``numpy.loadtxt``.  Anything neither
    can take (a malformed line, a label beyond int64, a bare carriage
    return) re-reads the text line by line with :func:`_read_edge_lines`;
    every route returns the same graph, and a malformed file raises the
    line reader's :class:`~repro.errors.GraphFormatError`.
    """
    handle, close = _open_for_read(source)
    try:
        text = handle.read()
    finally:
        if close:
            handle.close()
    try:
        declared_n, rows = _parse_edge_array(text)
    except (ValueError, OverflowError):
        return _read_edge_lines(io.StringIO(text), name)
    return _compact_edge_array(rows, declared_n, name)


def _declared_count(comment: str) -> int:
    """The largest ``n=N`` of a ``repro graph:`` header comment (0 if none)."""
    declared = 0
    if "repro graph:" in comment:
        for token in comment.split():
            if token.startswith("n="):
                declared = max(declared, int(token[2:]))
    if declared > MAX_VERTEX_COUNT:
        raise ValueError(f"vertex count {declared} exceeds {MAX_VERTEX_COUNT}")
    return declared


def _header_count(text: str) -> int:
    """:func:`_declared_count` over every whole-line comment of ``text``."""
    declared = 0
    for char in "#%":
        at = text.find(char)
        while at != -1:
            start = text.rfind("\n", 0, at) + 1
            end = text.find("\n", at)
            end = len(text) if end == -1 else end
            if not text[start:at].strip():
                declared = max(declared, _declared_count(text[start:end]))
            at = text.find(char, end)
    return declared


def _parse_edge_array(text: str) -> Tuple[int, "_np.ndarray"]:
    """``(declared_n, rows)`` with ``rows`` the ``(k, 2)`` label array.

    A plain file takes :func:`_strict_rows`; any other goes to ``loadtxt``.
    Raises ``ValueError`` or ``OverflowError`` for anything the line loop
    must handle (and report) instead.
    """
    if "\r" in text:
        text = text.replace("\r\n", "\n")
        if "\r" in text:
            raise ValueError("bare carriage return")
    declared_n = _header_count(text)
    rows = _strict_rows(text)
    if rows is not None:
        return declared_n, rows
    # loadtxt strips a single comment character in C but pre-filters every
    # line in Python for several, so ``%`` is folded into ``#``.  The
    # trailing sentinel row keeps it from warning about a file without
    # data lines; it is dropped again below.
    rows = _np.loadtxt(
        io.StringIO(text.replace("%", "#") + "\n0 0\n"),
        dtype=_np.int64,
        comments="#",
        usecols=(0, 1),
        ndmin=2,
    )
    return declared_n, rows[:-1]


_DIGITS = b"0123456789"
_INT64 = _np.iinfo(_np.int64)


def _strict_rows(text: str) -> Optional["_np.ndarray"]:
    """The ``(k, 2)`` label array of a plain edge list, or ``None``.

    A plain edge list is an optional block of whole-line ``#``/``%``
    comments followed by lines of exactly ``u v``: two integers, one space
    or tab between them and a newline after each (the last may be
    missing).  One ``numpy.fromstring`` pass parses the body.  That parse
    reads any whitespace as a separator, accepts a lone ``-`` and
    saturates out-of-range labels at the int64 maximum, so it is used only
    once the body's bytes prove it exact:

    * each token is an optional sign and digits, so it is one int64
      literal, and a label at an int64 extreme (where saturation lands)
      sends the file elsewhere;
    * the body starts with a token, so with as many separator bytes as
      parsed labels, exactly one separator follows each token;
    * the separators alternate space-or-tab and newline, so each line
      holds exactly two labels.
    """
    start = 0
    while text.startswith(("#", "%"), start):
        start = text.find("\n", start) + 1
        if start == 0:
            return None
    data = text[start:].encode()
    if not data.endswith(b"\n"):
        data += b"\n"
    separators = data.translate(None, _DIGITS + b"+-")
    if data[:1] not in _DIGITS + b"+-" or separators.translate(None, b" \t\n"):
        return None
    if b"-" in data or b"+" in data:
        buf = _np.frombuffer(data, dtype=_np.uint8)
        signs = _np.flatnonzero((buf == ord("-")) | (buf == ord("+")))
        # A sign opens its token and a digit follows it.  The byte before a
        # leading sign wraps round to the final newline, a separator.
        after = buf[signs + 1]
        if (buf[signs - 1] > ord(" ")).any() or ((after < ord("0")) | (after > ord("9"))).any():
            return None
    pairs = len(separators) // 2
    if b"\n" in separators[::2] or separators[1::2].count(b"\n") != pairs:
        return None
    rows = _np.fromstring(data, dtype=_np.int64, sep=" ")
    if rows.size != len(separators) or rows.max() == _INT64.max or rows.min() == _INT64.min:
        return None
    return rows.reshape(pairs, 2)


#: The presence-table remap runs when every label is non-negative and below
#: this multiple of the label count, so its table stays O(m).
_DENSE_LABEL_FACTOR = 2


def _compact_edge_array(rows: "_np.ndarray", declared_n: int, name: str) -> Tuple[Graph, List[int]]:
    """Compact labels to ``0 .. n-1`` (adding header fillers) and build.

    Dense non-negative labels are ranked through a presence table and a
    prefix sum; any others by ``numpy.unique``.  Both give the same arrays.
    """
    flat = rows.ravel()
    if flat.size and flat.min() >= 0 and flat.max() < _DENSE_LABEL_FACTOR * flat.size:
        present = _np.zeros(int(flat.max()) + 1, dtype=bool)
        present[flat] = True
        labels = _np.flatnonzero(present)
        ids = _np.cumsum(present, dtype=_np.int64)[flat] - 1
    else:
        labels, ids = _np.unique(flat, return_inverse=True)
    missing = declared_n - labels.size
    if missing > 0:
        candidates = _np.arange(missing + labels.size, dtype=_np.int64)
        fillers = _np.setdiff1d(candidates, labels, assume_unique=True)[:missing]
        labels = _np.union1d(labels, fillers)
        ids = _np.searchsorted(labels, flat)
    graph = Graph.from_edges(labels.size, ids.reshape(-1, 2), name=name)
    return graph, labels.tolist()


def _read_edge_lines(handle: TextIO, name: str) -> Tuple[Graph, List[int]]:
    """The line-by-line reader for files the whole-array parse rejects; it
    reports malformed lines."""
    seen_labels: set = set()
    declared_n: int = 0
    raw_edges: List[Tuple[int, int]] = []
    for line_number, raw in enumerate(handle, start=1):
        line = raw.strip()
        if line.startswith(("#", "%")):
            try:
                declared_n = max(declared_n, _declared_count(line))
            except ValueError as exc:
                raise GraphFormatError(
                    f"bad vertex count in {line!r}: {exc}", line_number
                ) from exc
            continue
        parts = line.partition("#")[0].partition("%")[0].split()
        if not parts:
            continue
        if len(parts) < 2:
            raise GraphFormatError(f"expected 'u v', got {line!r}", line_number)
        try:
            u_label, v_label = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise GraphFormatError(f"non-integer vertex in {line!r}", line_number) from exc
        seen_labels.add(u_label)
        seen_labels.add(v_label)
        raw_edges.append((u_label, v_label))
    filler = 0
    while len(seen_labels) < declared_n:
        if filler not in seen_labels:
            seen_labels.add(filler)
        filler += 1
    labels = sorted(seen_labels)
    label_to_id = {label: new for new, label in enumerate(labels)}
    edges = [(label_to_id[u], label_to_id[v]) for u, v in raw_edges]
    graph = Graph.from_edges(len(labels), edges, name=name)
    return graph, labels


def write_edge_list(graph: Graph, target: PathOrFile) -> None:
    """Write the graph as a SNAP-style edge list (one ``u v`` per line)."""
    handle, close = _open_for_write(target)
    try:
        handle.write(f"# repro graph: n={graph.n} m={graph.m}\n")
        for u, v in graph.edges():
            handle.write(f"{u} {v}\n")
    finally:
        if close:
            handle.close()


def loads_edge_list(text: str, name: str = "") -> Graph:
    """Parse an edge list from a string (convenience wrapper)."""
    graph, _ = read_edge_list(io.StringIO(text), name=name)
    return graph


def dumps_edge_list(graph: Graph) -> str:
    """Serialise the graph to an edge-list string."""
    buffer = io.StringIO()
    write_edge_list(graph, buffer)
    return buffer.getvalue()


def _edge_pairs(sources: List[int], targets: List[int]) -> "_np.ndarray":
    """Edges for :meth:`Graph.from_edges` as one ``(k, 2)`` array, which
    takes the whole-array build."""
    return _np.column_stack(
        (_np.array(sources, dtype=_np.int64), _np.array(targets, dtype=_np.int64))
    )


# ----------------------------------------------------------------------
# METIS
# ----------------------------------------------------------------------
def read_metis(source: PathOrFile, name: str = "") -> Graph:
    """Read a METIS graph file (1-indexed adjacency lines)."""
    handle, close = _open_for_read(source)
    try:
        lines = [ln.strip() for ln in handle]
    finally:
        if close:
            handle.close()
    # Comments are dropped, but blank lines after the header are adjacency
    # lines of isolated vertices and must be kept; trailing blanks beyond
    # the declared vertex count are ignored.
    content = [(i + 1, ln) for i, ln in enumerate(lines) if not ln.startswith("%")]
    while content and not content[0][1]:
        content.pop(0)
    if not content:
        raise GraphFormatError("empty METIS file")
    header_no, header = content[0]
    parts = header.split()
    if len(parts) < 2:
        raise GraphFormatError(f"bad METIS header {header!r}", header_no)
    try:
        n, m = int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise GraphFormatError(f"bad METIS header {header!r}", header_no) from exc
    body = content[1 : n + 1]
    if len(body) != n:
        raise GraphFormatError(f"expected {n} adjacency lines, found {len(body)}")
    if any(ln for _, ln in content[n + 1 :]):
        raise GraphFormatError(f"unexpected content after {n} adjacency lines")
    sources: List[int] = []
    targets: List[int] = []
    for u, (line_number, line) in enumerate(body):
        for token in line.split():
            try:
                v = int(token) - 1
            except ValueError as exc:
                raise GraphFormatError(f"non-integer neighbour {token!r}", line_number) from exc
            if not 0 <= v < n:
                raise GraphFormatError(f"neighbour {token} out of range", line_number)
            sources.append(u)
            targets.append(v)
    graph = Graph.from_edges(n, _edge_pairs(sources, targets), name=name)
    if graph.m != m:
        raise GraphFormatError(f"header declares m={m} but file contains m={graph.m}")
    return graph


def write_metis(graph: Graph, target: PathOrFile) -> None:
    """Write the graph in METIS format."""
    handle, close = _open_for_write(target)
    try:
        handle.write(f"{graph.n} {graph.m}\n")
        for u in range(graph.n):
            handle.write(" ".join(str(v + 1) for v in graph.neighbors(u)) + "\n")
    finally:
        if close:
            handle.close()


# ----------------------------------------------------------------------
# DIMACS
# ----------------------------------------------------------------------
def read_dimacs(source: PathOrFile, name: str = "") -> Graph:
    """Read a DIMACS ``p edge`` file (1-indexed ``e u v`` lines)."""
    handle, close = _open_for_read(source)
    try:
        n = None
        sources: List[int] = []
        targets: List[int] = []
        for line_number, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("c"):
                continue
            parts = line.split()
            if parts[0] == "p":
                if len(parts) < 4:
                    raise GraphFormatError(f"bad problem line {line!r}", line_number)
                try:
                    n = int(parts[2])
                except ValueError as exc:
                    raise GraphFormatError(f"bad problem line {line!r}", line_number) from exc
                if n > MAX_VERTEX_COUNT:
                    raise GraphFormatError(
                        f"vertex count {n} exceeds {MAX_VERTEX_COUNT}", line_number
                    )
            elif parts[0] == "e":
                if n is None:
                    raise GraphFormatError("edge line before problem line", line_number)
                if len(parts) < 3:
                    raise GraphFormatError(f"bad edge line {line!r}", line_number)
                try:
                    u, v = int(parts[1]) - 1, int(parts[2]) - 1
                except ValueError as exc:
                    raise GraphFormatError(f"non-integer vertex in {line!r}", line_number) from exc
                if not (0 <= u < n and 0 <= v < n):
                    raise GraphFormatError(f"edge {line!r} out of range", line_number)
                sources.append(u)
                targets.append(v)
        if n is None:
            raise GraphFormatError("missing problem line")
        return Graph.from_edges(n, _edge_pairs(sources, targets), name=name)
    finally:
        if close:
            handle.close()


def write_dimacs(graph: Graph, target: PathOrFile) -> None:
    """Write the graph in DIMACS ``p edge`` format."""
    handle, close = _open_for_write(target)
    try:
        handle.write(f"p edge {graph.n} {graph.m}\n")
        for u, v in graph.edges():
            handle.write(f"e {u + 1} {v + 1}\n")
    finally:
        if close:
            handle.close()


# ----------------------------------------------------------------------
# Format by file extension
# ----------------------------------------------------------------------
_METIS_SUFFIXES = (".metis", ".graph")
_DIMACS_SUFFIXES = (".col", ".dimacs")


def read_graph(path: str) -> Tuple[Graph, Optional[List[int]]]:
    """Read a graph file in the format its extension names.

    Returns ``(graph, labels)``; ``labels`` maps compacted ids back to the
    file's original labels for edge lists, and is ``None`` for the
    1-indexed METIS and DIMACS formats.
    """
    lower = path.lower()
    if lower.endswith(_METIS_SUFFIXES):
        return read_metis(path, name=path), None
    if lower.endswith(_DIMACS_SUFFIXES):
        return read_dimacs(path, name=path), None
    return read_edge_list(path, name=path)


def write_graph(graph: Graph, path: str) -> None:
    """Write ``graph`` in the format the extension of ``path`` names
    (the same dispatch as :func:`read_graph`)."""
    lower = path.lower()
    if lower.endswith(_METIS_SUFFIXES):
        write_metis(graph, path)
    elif lower.endswith(_DIMACS_SUFFIXES):
        write_dimacs(graph, path)
    else:
        write_edge_list(graph, path)
