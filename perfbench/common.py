"""Shared helpers: locating the program under test, statistics, metric records."""

from __future__ import annotations

import hashlib
import math
import os
import statistics
import sys
from typing import Dict, Iterable, Sequence

#: Root of the checkout: the directory that holds ``perfbench/`` and ``src/``.
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


class MissingProgram(RuntimeError):
    """The checkout does not contain the program the benchmark drives."""


def require_program() -> None:
    """Fail unless ``src/repro`` exists in this checkout; put it on ``sys.path``.

    The benchmark must never measure an installed copy of the library, so
    it imports ``repro`` only from the checkout's own ``src`` tree.
    """
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise MissingProgram(f"no program to benchmark: {SRC}/repro is missing")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def program_env() -> Dict[str, str]:
    """Environment for child processes: the checkout's ``src`` first on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.setdefault("PYTHONHASHSEED", "0")
    return env


def sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def sha256_lines(lines: Iterable[str]) -> str:
    digest = hashlib.sha256()
    for line in lines:
        digest.update(line.encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile, ``q`` in [0, 100]; ``nan`` for no samples."""
    if not values:
        return math.nan
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else math.nan


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": float(value), "unit": unit}


def result_line(
    correct: bool, attempted: int, failed: int, metrics: Dict[str, Dict[str, object]]
) -> Dict[str, object]:
    return {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": metrics,
    }


def note(message: str) -> None:
    """Progress and provenance lines go to stderr; stdout ends with the result."""
    print(f"# {message}", file=sys.stderr, flush=True)

