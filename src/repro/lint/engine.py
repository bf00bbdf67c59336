"""The reprolint engine: discovery, parsing, suppressions, rules.

The engine turns paths into :class:`LintModule` objects (source + AST +
parsed suppression comments) and drives the rules from
:mod:`repro.lint.rules` at three granularities:

* ``check_module`` — per-file rules (RL001–RL003, RL005);
* ``check_project`` — cross-file rules over all modules (RL004);
* ``check_graph`` — call-graph rules over a lazily built
  :class:`~repro.lint.graph.Project` (RL006–RL008).

:func:`lint_paths` is the one path-based pipeline: it reads and parses
every file (unreadable, undecodable or unparseable files become ``RL000``
errors) and hands the modules to :func:`lint_modules`, which runs the
rules and drops suppressed findings.  :func:`lint_source` and
:func:`lint_sources` are the in-memory entry points fixtures use.

Suppressions follow the familiar inline-comment convention::

    risky_line()  # reprolint: disable=RL001
    another()     # reprolint: disable=RL001,RL003
    yet_more()    # reprolint: disable

    # reprolint: disable-file=RL004   (anywhere in the file)

A bare ``disable`` suppresses every rule on that line; ``disable-file``
suppresses the named rules (or all, when bare) for the whole file,
wherever the comment appears.  A ``disable`` comment on a **decorator
line** additionally covers the decorated ``def``/``class`` header it
precedes, so waiving a def-anchored finding does not force the comment
onto the (often long) signature line.
"""

from __future__ import annotations

import ast
import os
import re
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from .findings import ADVICE, ERROR, Finding

__all__ = [
    "LintModule",
    "blocking",
    "iter_python_files",
    "lint_modules",
    "lint_paths",
    "lint_source",
    "lint_sources",
    "load_module",
    "module_name_for",
    "parse_suppressions",
]

_SUPPRESS_RE = re.compile(
    r"#\s*reprolint:\s*(disable-file|disable)(?:=([A-Za-z0-9_,\s]+))?"
)

#: Sentinel meaning "every rule" in the suppression tables.
_ALL_RULES: FrozenSet[str] = frozenset({"*"})

#: How far below a decorator line the decorated header may sit (multi-line
#: decorator calls and stacked decorators are scanned through).
_DECORATOR_SCAN_LINES = 50

#: Anchors used to derive a dotted module name from a file path.
_PATH_ANCHORS = ("src", "tests", "benchmarks", "examples")


def _parse_rule_list(raw: Optional[str]) -> FrozenSet[str]:
    if raw is None:
        return _ALL_RULES
    ids = frozenset(part.strip() for part in raw.split(",") if part.strip())
    return ids or _ALL_RULES


def parse_suppressions(
    source: str,
) -> Tuple[Dict[int, FrozenSet[str]], FrozenSet[str]]:
    """``(line_disables, file_disables)`` parsed from source text."""
    line_disables: Dict[int, FrozenSet[str]] = {}
    file_disables: FrozenSet[str] = frozenset()
    lines = source.splitlines()
    for lineno, line in enumerate(lines, start=1):
        match = _SUPPRESS_RE.search(line)
        if match is None:
            continue
        ids = _parse_rule_list(match.group(2))
        if match.group(1) == "disable-file":
            file_disables = file_disables | ids
            continue
        line_disables[lineno] = line_disables.get(lineno, frozenset()) | ids
        if line.lstrip().startswith("@"):
            # A waiver on a decorator line extends to the header it
            # decorates — findings for a function are anchored at its
            # ``def`` line, which may sit several (decorator) lines below.
            limit = min(lineno + _DECORATOR_SCAN_LINES, len(lines))
            for follow in range(lineno + 1, limit + 1):
                stripped = lines[follow - 1].lstrip()
                if stripped.startswith(("def ", "async def ", "class ")):
                    line_disables[follow] = (
                        line_disables.get(follow, frozenset()) | ids
                    )
                    break
    return line_disables, file_disables


def module_name_for(path: str) -> str:
    """Dotted module name a file path imports as (``src/`` stripped).

    Anchored at the first ``src``/``tests``/``benchmarks``/``examples``
    component so absolute and repo-relative paths agree; falls back to
    the bare filename for paths outside any anchor (fixtures).
    """
    parts = [p for p in path.replace(os.sep, "/").split("/") if p and p != "."]
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    for anchor in _PATH_ANCHORS:
        if anchor in parts:
            cut = parts.index(anchor)
            parts = parts[cut + 1 :] if anchor == "src" else parts[cut:]
            break
    else:
        parts = parts[-1:]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts) if parts else "<module>"


class LintModule:
    """One parsed source file: path, AST, and suppression tables.

    ``path`` is normalised to ``/`` separators so rules can scope
    themselves by path fragment (``"src/repro/perf/"`` …) portably.
    """

    def __init__(self, path: str, source: str) -> None:
        self.path = path.replace(os.sep, "/")
        self.source = source
        self.tree = ast.parse(source)
        self.line_disables, self.file_disables = parse_suppressions(source)

    @property
    def is_test(self) -> bool:
        """Whether this module lives under ``tests/`` (or is a test file)."""
        parts = self.path.split("/")
        return "tests" in parts or parts[-1].startswith("test_")

    def path_matches(self, fragments: Iterable[str]) -> bool:
        """Whether any fragment occurs in (or suffixes) the module path."""
        return any(f in self.path for f in fragments)

    def suppressed(self, finding: Finding) -> bool:
        """Whether an inline or file-level comment disables this finding."""
        for ids in (self.file_disables, self.line_disables.get(finding.line)):
            if ids and ("*" in ids or finding.rule_id in ids):
                return True
        return False


def iter_python_files(paths: Sequence[str]) -> List[str]:
    """Expand files and directories into a sorted list of ``.py`` paths."""
    found: List[str] = []
    for path in paths:
        if os.path.isdir(path):
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames[:] = [d for d in dirnames if not d.startswith(".")]
                found.extend(
                    os.path.join(dirpath, name)
                    for name in filenames
                    if name.endswith(".py")
                )
        else:
            found.append(path)
    return sorted(set(found))


def load_module(path: str) -> LintModule:
    """Read and parse one file into a :class:`LintModule`."""
    with open(path, "r", encoding="utf-8") as handle:
        return LintModule(path, handle.read())


def _raw_findings(modules: Sequence[LintModule], rules: Sequence) -> List[Finding]:
    """Every finding, before suppression filtering."""
    from .rules.base import Rule

    findings: List[Finding] = []
    for rule in rules:
        for module in modules:
            findings.extend(rule.check_module(module))
        findings.extend(rule.check_project(modules))
    # Only rules overriding ``check_graph`` need the (costly) project view.
    graph_rules = [
        rule for rule in rules if type(rule).check_graph is not Rule.check_graph
    ]
    if graph_rules:
        from .graph import Project

        project = Project(modules)
        for rule in graph_rules:
            findings.extend(rule.check_graph(project))
    return findings


def lint_modules(
    modules: Sequence[LintModule], rules: Optional[Sequence] = None
) -> List[Finding]:
    """Run the (default) rules over the modules; unsuppressed findings, sorted."""
    if rules is None:
        from .rules import default_rules

        rules = default_rules()
    by_path = {module.path: module for module in modules}
    kept = [
        finding
        for finding in _raw_findings(modules, rules)
        if finding.path not in by_path or not by_path[finding.path].suppressed(finding)
    ]
    kept.sort(key=Finding.sort_key)
    return kept


def lint_paths(paths: Sequence[str], rules: Optional[Sequence] = None) -> List[Finding]:
    """Lint the given files/directories with the (default) rule set.

    Files that cannot be read, decoded or parsed surface as ``RL000``
    errors instead of aborting the run; every other file goes through
    :func:`lint_modules` as one project.
    """
    modules: List[LintModule] = []
    broken: List[Finding] = []
    for path in iter_python_files(paths):
        try:
            modules.append(load_module(path))
        except (OSError, UnicodeDecodeError, SyntaxError) as exc:
            broken.append(
                Finding(
                    rule_id="RL000",
                    path=path.replace(os.sep, "/"),
                    line=getattr(exc, "lineno", None) or 1,
                    col=0,
                    message=f"could not parse file: {exc}",
                )
            )
    return sorted(broken + lint_modules(modules, rules), key=Finding.sort_key)


def lint_source(
    source: str,
    path: str = "src/repro/snippet.py",
    rules: Optional[Sequence] = None,
) -> List[Finding]:
    """Lint an in-memory snippet (the fixture-test entry point).

    ``path`` controls rule scoping (several rules only apply under
    ``src/``), so fixtures can impersonate any location in the repo.
    """
    return lint_sources({path: source}, rules)


def lint_sources(
    sources: Dict[str, str],
    rules: Optional[Sequence] = None,
) -> List[Finding]:
    """Lint a set of in-memory modules as one project.

    The multi-file fixture entry point: cross-module rules see all the
    snippets as one call graph, so tests can stage e.g. a kernel in one
    "module" calling a helper in another.
    """
    return lint_modules(
        [LintModule(path, source) for path, source in sources.items()], rules
    )


def blocking(findings: Iterable[Finding], strict: bool = False) -> List[Finding]:
    """The findings that should fail the run (errors; advice too if strict)."""
    levels = {ERROR, ADVICE} if strict else {ERROR}
    return [finding for finding in findings if finding.severity in levels]
