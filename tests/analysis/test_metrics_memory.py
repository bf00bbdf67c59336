"""Tests for metrics and the memory model."""

import tracemalloc

import pytest

from repro.analysis import (
    MODEL_WORDS_PER_EDGE,
    accuracy,
    best_of,
    gap,
    gaps_to_best,
    measure_peak_bytes,
    model_words,
    speedup_to_reach,
)
from repro.errors import ReproError
from repro.graphs import cycle_graph
from repro.obs.memory import MemoryProbe


class TestMetrics:
    def test_gap(self):
        assert gap(100, 97) == 3

    def test_accuracy(self):
        assert accuracy(200, 199) == pytest.approx(0.995)
        assert accuracy(0, 0) == 1.0

    def test_best_of(self):
        assert best_of([3, 9, 4]) == 9
        assert best_of([]) == 0

    def test_gaps_to_best(self):
        assert gaps_to_best({"a": 10, "b": 7}) == {"a": 0, "b": 3}

    def test_speedup_to_reach(self):
        a = [(0.1, 50), (0.2, 100)]
        b = [(1.0, 40), (2.0, 100)]
        assert speedup_to_reach(a, b, 100) == pytest.approx(10.0)

    def test_speedup_unreachable(self):
        assert speedup_to_reach([(0.1, 5)], [(0.1, 100)], 50) is None

    def test_speedup_instant(self):
        assert speedup_to_reach([(0.0, 100)], [(1.0, 100)], 100) == float("inf")


class TestMemoryModel:
    def test_bdtwo_triples_bdone(self):
        g = cycle_graph(1000)
        # The 6m-vs-2m edge-storage ratio of Table 1.
        assert MODEL_WORDS_PER_EDGE["BDTwo"] == 3 * MODEL_WORDS_PER_EDGE["BDOne"]
        assert model_words("BDTwo", g) > 2.5 * model_words("BDOne", g) - 10 * g.n

    def test_near_linear_doubles_edge_storage(self):
        assert MODEL_WORDS_PER_EDGE["NearLinear"] == 2 * MODEL_WORDS_PER_EDGE["LinearTime"]

    def test_unknown_algorithm_raises(self):
        with pytest.raises(ReproError):
            model_words("Mystery", cycle_graph(4))

    def test_measure_peak_bytes(self):
        result, peak = measure_peak_bytes(lambda: [0] * 100_000)
        assert len(result) == 100_000
        assert peak > 100_000  # a list of 100k elements is > 100kB

    def test_measure_peak_bytes_keeps_an_enclosing_trace(self):
        with MemoryProbe() as outer:
            _, peak = measure_peak_bytes(lambda: [0] * 100_000)
            assert tracemalloc.is_tracing()
        assert peak > 100_000
        assert outer.peak_bytes >= peak
