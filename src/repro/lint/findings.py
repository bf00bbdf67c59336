"""The :class:`Finding` record every reprolint rule emits.

A finding is one diagnosed contract violation: rule id, location,
human-readable message, optional fix-it hint, and a severity.  Two
severities exist:

* ``error`` — a hard contract violation; any error makes the checker exit
  non-zero.
* ``advice`` — a dynamic construct the rule could not prove safe (e.g. a
  stat key computed at run time).  Advice is reported but only fails the
  run under ``--strict``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

__all__ = ["ADVICE", "ERROR", "Finding"]

#: Severity of a hard contract violation (always fails the run).
ERROR = "error"
#: Severity of an unprovable-but-suspect construct (fails under ``--strict``).
ADVICE = "advice"


@dataclass(frozen=True)
class Finding:
    """One diagnosed violation of a repo contract.

    Attributes
    ----------
    rule_id:
        The ``RLxxx`` identifier of the rule that fired.
    path:
        Repo-relative path of the offending file (``/`` separators).
    line / col:
        1-based line and 0-based column of the offending node.
    message:
        One-sentence description of the violation.
    severity:
        :data:`ERROR` or :data:`ADVICE`.
    fixit:
        Optional remediation hint appended to the human rendering.
    """

    rule_id: str
    path: str
    line: int
    col: int
    message: str
    severity: str = ERROR
    fixit: Optional[str] = field(default=None, compare=False)

    def render(self) -> str:
        """The one-line human rendering (``path:line:col: RLxxx message``)."""
        tag = f" [{self.severity}]" if self.severity != ERROR else ""
        text = f"{self.path}:{self.line}:{self.col}: {self.rule_id}{tag} {self.message}"
        if self.fixit:
            text += f" (fix: {self.fixit})"
        return text

    def fingerprint(self) -> "tuple":
        """Line-independent identity used by the baseline.

        Deliberately excludes ``line``/``col`` so reflowing a file does
        not churn the committed baseline; a message change (which embeds
        the offending names) does invalidate the entry.
        """
        return (self.rule_id, self.path, self.message)

    def to_json(self) -> Dict[str, object]:
        """The JSON-serialisable record for ``--format json``."""
        record: Dict[str, object] = {
            "rule": self.rule_id,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "severity": self.severity,
        }
        if self.fixit:
            record["fixit"] = self.fixit
        return record

    def sort_key(self) -> tuple:
        """Stable report order: by file, then position, then rule id."""
        return (self.path, self.line, self.col, self.rule_id)
