"""Verification, metrics and memory accounting."""

from .memory import MODEL_WORDS_PER_EDGE, measure_peak_bytes, model_words
from .metrics import accuracy, best_of, gap, gaps_to_best, speedup_to_reach
from .verify import (
    assert_valid_solution,
    complement_vertex_cover,
    greedy_maximal_extension,
    is_independent_set,
    is_maximal_independent_set,
    is_vertex_cover,
    verify_result,
)

__all__ = [
    "MODEL_WORDS_PER_EDGE",
    "accuracy",
    "assert_valid_solution",
    "best_of",
    "complement_vertex_cover",
    "gap",
    "gaps_to_best",
    "greedy_maximal_extension",
    "is_independent_set",
    "is_maximal_independent_set",
    "is_vertex_cover",
    "measure_peak_bytes",
    "model_words",
    "speedup_to_reach",
    "verify_result",
]
