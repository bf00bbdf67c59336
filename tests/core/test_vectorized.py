"""The numpy-vectorized code paths against their interpreted twins.

Two pieces of the flat backend take whole-array numpy passes when numpy
is importable and fall back to plain loops otherwise: the leaf-wave
preamble of :func:`~repro.core.flat_dominance.flat_one_pass_dominance`,
and the buffers of :class:`~repro.core.workspace.FlatWorkspace` (built,
and exported as a kernel, in whole-array passes).  Each must give the
byte-identical answer of its interpreted twin, which these tests run by
patching the module's ``_np`` to ``None``.
"""

import pytest

import repro.core.flat_dominance as flat_dominance_mod
import repro.core.workspace as workspace_mod
from repro.core.bdone import bdone
from repro.core.flat_dominance import flat_one_pass_dominance
from repro.core.linear_time import linear_time
from repro.core.workspace import FlatWorkspace
from repro.graphs.generators import gnm_random_graph, web_like_graph
from repro.graphs.static_graph import Graph

from .test_differential_backends import CORPUS

pytest.importorskip("numpy")


def _interpreted_dominance(graph, monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr(flat_dominance_mod, "_np", None)
        return flat_one_pass_dominance(graph)


def test_vectorized_dominance_byte_identical_on_corpus(monkeypatch):
    assert flat_dominance_mod._np is not None
    for graph in CORPUS:
        assert flat_one_pass_dominance(graph) == _interpreted_dominance(
            graph, monkeypatch
        ), graph.name


def test_empty_and_tiny_graphs(monkeypatch):
    empty = Graph([0], [], name="empty")
    assert linear_time(empty).independent_set == frozenset()
    assert bdone(empty).independent_set == frozenset()
    singleton = Graph([0, 0], [], name="singleton")
    assert linear_time(singleton).independent_set == frozenset({0})
    k2 = Graph([0, 1, 2], [1, 0], name="K2")
    result = bdone(k2)
    assert len(result.independent_set) == 1
    for graph in (empty, singleton, k2):
        assert flat_one_pass_dominance(graph) == _interpreted_dominance(
            graph, monkeypatch
        ), graph.name
        ws = FlatWorkspace(graph, track_degree_two=True)
        with monkeypatch.context() as patch:
            patch.setattr(workspace_mod, "_np", None)
            loop_ws = FlatWorkspace(graph, track_degree_two=True)
        assert ws.arrays is not None and loop_ws.arrays is None
        assert ws.log.entries == loop_ws.log.entries, graph.name
        kernel, ids = ws.export_kernel()
        loop_kernel, loop_ids = loop_ws.export_kernel()
        assert list(ids) == list(loop_ids), graph.name
        assert kernel == loop_kernel, graph.name


def test_export_kernel_matches_flat(monkeypatch):
    for graph in (
        gnm_random_graph(120, 260, seed=4),
        web_like_graph(90, attach=2, seed=5),
    ):
        vec_ws = FlatWorkspace(graph, track_degree_two=True)
        with monkeypatch.context() as patch:
            patch.setattr(workspace_mod, "_np", None)
            flat_ws = FlatWorkspace(graph, track_degree_two=True)
        assert vec_ws.arrays is not None and flat_ws.arrays is None
        for v in (3, 7, 11):
            if flat_ws.alive[v] and vec_ws.alive[v]:
                flat_ws.delete_vertex(v, "exclude")
                vec_ws.delete_vertex(v, "exclude")
        flat_kernel, flat_ids = flat_ws.export_kernel()
        vec_kernel, vec_ids = vec_ws.export_kernel()
        assert list(vec_ids) == list(flat_ids)
        assert vec_kernel == flat_kernel  # Graph.__eq__: same CSR buffers
