"""reprolint — AST-based static checks for this repo's internal contracts.

The perf PRs established conventions that ordinary linters cannot see:
``@hot_loop`` kernels must stay allocation-free, telemetry spans must
close on every path, stat keys must come from the registry in
:mod:`repro.core.result`, every oracle-hook driver needs a differential
test, and flat buffers must pin numpy dtypes.  This package enforces
those contracts statically, so a refactor that quietly reintroduces a
per-iteration dict or an unregistered stat key fails ``make lint``
instead of a perf run three PRs later.

Since PR 9 the engine is *whole-project*: it indexes every function
across the run, builds a call graph (direct calls, registry dispatch,
oracle-hook indirection — :mod:`repro.lint.graph`) over a dataflow
substrate (:mod:`repro.lint.dataflow`), and runs three cross-module
rules on top: RL006 transitive hot-loop purity, RL007 fork safety and
RL008 request-context propagation.  Every run is one linear pass over
the named trees (a few seconds for the whole repo) and subtracts the
checked-in baseline of accepted findings (:mod:`repro.lint.baseline`).
Each rule is kept because the ablation in ``docs/static-analysis.md``
found defects it catches that the rest of the test suite misses.

Layout mirrors :mod:`repro.obs`:

* :mod:`repro.lint.findings` — the :class:`Finding` record and severities;
* :mod:`repro.lint.engine` — discovery, parsing, suppression comments
  (``# reprolint: disable=RL001``), rule driving;
* :mod:`repro.lint.dataflow` / :mod:`repro.lint.graph` — name
  resolution, function index, call graph;
* :mod:`repro.lint.rules` — one module per rule (RL001–RL008);
* :mod:`repro.lint.baseline` — accepted findings;
* :mod:`repro.lint.cli` — the ``python -m repro.lint`` / ``repro lint``
  front end.

Programmatic use::

    from repro.lint import lint_paths, lint_source, blocking
    findings = lint_paths(["src", "tests"])
    assert not blocking(findings)
"""

from .baseline import apply_baseline, load_baseline, write_baseline
from .cli import main, run
from .engine import (
    LintModule,
    blocking,
    iter_python_files,
    lint_modules,
    lint_paths,
    lint_source,
    lint_sources,
    load_module,
)
from .findings import ADVICE, ERROR, Finding
from .graph import CallGraph, Project, ProjectIndex
from .rules import ALL_RULES, RULES_BY_ID, Rule, default_rules

__all__ = [
    "ADVICE",
    "ALL_RULES",
    "CallGraph",
    "ERROR",
    "Finding",
    "LintModule",
    "Project",
    "ProjectIndex",
    "RULES_BY_ID",
    "Rule",
    "apply_baseline",
    "blocking",
    "default_rules",
    "iter_python_files",
    "lint_modules",
    "lint_paths",
    "lint_source",
    "lint_sources",
    "load_baseline",
    "load_module",
    "main",
    "run",
    "write_baseline",
]
