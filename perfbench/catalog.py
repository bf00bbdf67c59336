"""The metric catalog, read from ``BENCHMARK.json`` so names and units have one source."""

from __future__ import annotations

import json
import os
from typing import Dict

from common import ROOT


def load_spec() -> Dict[str, object]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        return json.load(handle)


def units(kind: str) -> Dict[str, str]:
    """``{name: unit}`` for ``kind`` = ``"end_to_end"`` or ``"per_layer"``."""
    return {entry["name"]: entry["unit"] for entry in load_spec()[kind]}  # type: ignore[index]


def empty_metrics(kind: str) -> Dict[str, Dict[str, object]]:
    """Every declared metric at zero: a layer the workload never enters did no work."""
    return {name: {"value": 0.0, "unit": unit} for name, unit in units(kind).items()}
