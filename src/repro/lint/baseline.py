"""Checked-in finding baseline: new rules land blocking-on-regression.

A baseline file records the findings a repo has *accepted* (typically
pre-existing advice absorbed when a new rule or a new lint tree lands).
On every run the engine subtracts baselined findings from the report, so
``--strict`` gates only on regressions — while ``--update-baseline``
re-records the current state after an intentional change.

Entries are keyed by :meth:`~repro.lint.findings.Finding.fingerprint`
(``rule, path, message`` — no line numbers), so unrelated edits that
shift a finding a few lines do not churn the file.  Matching is
count-aware: two identical findings in one file need two baseline
entries, and a fixed finding leaves a *stale* entry behind that the CLI
reports (prune with ``--update-baseline``).
"""

from __future__ import annotations

import json
import os
from collections import Counter
from typing import Iterable, List, Sequence, Tuple

from .findings import Finding

__all__ = [
    "BASELINE_FILENAME",
    "apply_baseline",
    "load_baseline",
    "write_baseline",
]

#: Auto-detected baseline filename (looked up in the working directory).
BASELINE_FILENAME = "lint-baseline.json"

_VERSION = 1


def load_baseline(path: str) -> List[Tuple[str, str, str]]:
    """Fingerprints recorded in a baseline file.

    A baseline that cannot be used fails loudly rather than counting as
    empty: raises :class:`OSError` when the file cannot be read and
    :class:`ValueError` when it is not a well-formed version-1 baseline.
    """
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    if not isinstance(payload, dict) or payload.get("version") != _VERSION:
        raise ValueError(f"not a version-{_VERSION} reprolint baseline")
    try:
        return [
            (str(entry["rule"]), str(entry["path"]), str(entry["message"]))
            for entry in payload["findings"]
        ]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed baseline entry ({exc!r})") from None


def apply_baseline(
    findings: Sequence[Finding], fingerprints: Iterable[Tuple[str, str, str]]
) -> Tuple[List[Finding], int, int]:
    """Subtract baselined findings.

    Returns ``(kept, suppressed, stale)`` where ``suppressed`` counts the
    findings absorbed by the baseline and ``stale`` the baseline entries
    that matched nothing (fixed findings awaiting a baseline refresh).
    """
    budget = Counter(fingerprints)
    total = sum(budget.values())
    kept: List[Finding] = []
    suppressed = 0
    for finding in findings:
        key = finding.fingerprint()
        if budget.get(key, 0) > 0:
            budget[key] -= 1
            suppressed += 1
        else:
            kept.append(finding)
    return kept, suppressed, total - suppressed


def write_baseline(path: str, findings: Sequence[Finding]) -> int:
    """Record ``findings`` as the new baseline; returns the entry count."""
    entries = sorted(
        (
            {"rule": f.rule_id, "path": f.path, "message": f.message}
            for f in findings
        ),
        key=lambda e: (e["path"], e["rule"], e["message"]),
    )
    payload = {"version": _VERSION, "findings": entries}
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    os.replace(tmp, path)
    return len(entries)
