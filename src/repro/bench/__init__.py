"""Benchmark harness support: datasets, runners, table/plot rendering."""

from .convergence import ConvergenceRun, render_convergence, run_convergence_suite
from .datasets import (
    ALL_DATASETS,
    EASY_DATASETS,
    HARD_DATASETS,
    DatasetSpec,
    dataset_names,
    load,
)
from .runner import RunRecord, run_algorithms, time_call
from .tables import format_number, format_seconds, render_table

__all__ = [
    "ALL_DATASETS",
    "ConvergenceRun",
    "DatasetSpec",
    "EASY_DATASETS",
    "HARD_DATASETS",
    "RunRecord",
    "dataset_names",
    "format_number",
    "format_seconds",
    "load",
    "render_convergence",
    "render_table",
    "run_algorithms",
    "run_convergence_suite",
    "time_call",
]
