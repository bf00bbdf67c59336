"""Shared fixtures and helpers for the benchmark suite.

Every benchmark regenerates one of the paper's tables or figures, prints it
(run with ``-s`` to see it inline) and writes it to
``benchmarks/results/<name>.txt``.  Expensive ground truths (independence
numbers of the easy instances) are memoised per session.
"""

from __future__ import annotations

import functools
import os

import pytest

from repro.bench import load, resolve_backend
from repro.errors import BudgetExceededError
from repro.exact import maximum_independent_set

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


def pytest_addoption(parser):
    parser.addoption(
        "--backend",
        default="flat",
        choices=["legacy", "flat"],
        help="execution backend for the reducing-peeling family "
        "(bdone / linear_time / near_linear) in the benchmark scripts",
    )


@pytest.fixture(scope="session")
def backend(request) -> str:
    """The ``--backend`` name selected for this benchmark run."""
    return request.config.getoption("--backend")


@pytest.fixture(scope="session")
def solvers(backend):
    """The reducing-peeling solver family for the selected backend."""
    return resolve_backend(backend)


def emit(name: str, text: str, data=None) -> None:
    """Print a rendered table and persist it under benchmarks/results/.

    ``data`` (any JSON-serialisable object) is additionally written to
    ``<name>.json`` for downstream tooling.
    """
    import json

    print()
    print(text)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, f"{name}.txt"), "w", encoding="utf-8") as handle:
        handle.write(text + "\n")
    if data is not None:
        with open(os.path.join(RESULTS_DIR, f"{name}.json"), "w", encoding="utf-8") as handle:
            json.dump(data, handle, indent=2, default=str)


@functools.lru_cache(maxsize=None)
def independence_number_of(dataset_name: str) -> int | None:
    """α of an easy stand-in via branch-and-reduce (``None`` if over budget)."""
    graph = load(dataset_name)
    try:
        return maximum_independent_set(graph, node_budget=60_000).size
    except BudgetExceededError:
        return None


@pytest.fixture(scope="session")
def results_dir() -> str:
    os.makedirs(RESULTS_DIR, exist_ok=True)
    return RESULTS_DIR
