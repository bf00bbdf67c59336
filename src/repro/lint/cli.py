"""Command-line front end for reprolint.

Invoked as ``python -m repro.lint [paths...]`` or via the ``repro lint``
subcommand, which forwards its arguments here unchanged.  Exit status is
0 when no blocking findings remain: errors always block; advice blocks
only under ``--strict``.  Usage errors, unknown rule ids and an unusable
baseline exit 2.

A committed ``lint-baseline.json`` in the working directory is applied
automatically (``--no-baseline`` opts out, ``--baseline PATH`` points
elsewhere), so new rules gate on *regressions* while the absorbed
pre-existing findings stay visible via the summary line.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional, Sequence

from .baseline import (
    BASELINE_FILENAME,
    apply_baseline,
    load_baseline,
    write_baseline,
)
from .engine import blocking, lint_paths
from .findings import ADVICE, Finding

__all__ = ["build_parser", "main", "run"]

_DEFAULT_PATHS = ("src", "tests")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description=(
            "reprolint: per-file and whole-project AST checks for the repo's "
            "hot-path, telemetry, stat-key, oracle-hook, dtype, fork-safety "
            "and request-context contracts"
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=list(_DEFAULT_PATHS),
        help="files or directories to lint (default: src tests)",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="treat advice-severity findings as blocking",
    )
    parser.add_argument(
        "--format",
        choices=("human", "json"),
        default="human",
        help="output format (default: human)",
    )
    parser.add_argument(
        "--rules",
        metavar="RLxxx[,RLxxx...]",
        default=None,
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the registered rules and exit",
    )
    parser.add_argument(
        "--baseline",
        metavar="PATH",
        default=None,
        help=(
            "baseline file of accepted findings "
            f"(default: ./{BASELINE_FILENAME} when present)"
        ),
    )
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore any baseline file",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="re-record the current findings as the baseline and exit 0",
    )
    return parser


def _render(
    findings: Sequence[Finding],
    fmt: str,
    strict: bool,
    baselined: int,
    stale: int,
) -> str:
    errors = sum(1 for f in findings if f.severity != ADVICE)
    advice = len(findings) - errors
    if fmt == "json":
        payload = {
            "findings": [finding.to_json() for finding in findings],
            "errors": errors,
            "advice": advice,
            "strict": strict,
            "baselined": baselined,
            "baseline_stale": stale,
        }
        return json.dumps(payload, indent=2, sort_keys=True)
    lines = [finding.render() for finding in findings]
    if findings:
        lines.append("")
    summary = (
        f"reprolint: {errors} error(s), {advice} advice finding(s)"
        + (" [strict]" if strict else "")
    )
    if baselined:
        summary += f", {baselined} baselined"
    if stale:
        summary += (
            f", {stale} stale baseline entr"
            + ("y" if stale == 1 else "ies")
            + " (refresh with --update-baseline)"
        )
    lines.append(summary)
    return "\n".join(lines)


def _resolve_baseline(args: argparse.Namespace) -> Optional[str]:
    if args.no_baseline:
        return None
    if args.baseline is not None:
        return args.baseline
    return BASELINE_FILENAME if os.path.exists(BASELINE_FILENAME) else None


def run(argv: Optional[Sequence[str]] = None) -> int:
    """Parse ``argv``, lint, print the report, return the exit status."""
    args = build_parser().parse_args(argv)
    if args.list_rules:
        from .rules import ALL_RULES

        for cls in ALL_RULES:
            print(f"{cls.rule_id}  {cls.name:28s} {cls.summary}")
        return 0
    if args.update_baseline and args.rules:
        # A partial rule set would record a partial baseline, silently
        # dropping every accepted finding of the rules left out.
        print(
            "reprolint: --update-baseline records every rule's findings; "
            "drop --rules",
            file=sys.stderr,
        )
        return 2
    rules = None
    if args.rules:
        from .rules import default_rules

        wanted: List[str] = [
            part.strip() for part in args.rules.split(",") if part.strip()
        ]
        try:
            rules = default_rules(wanted)
        except KeyError as exc:
            print(f"reprolint: {exc.args[0]}", file=sys.stderr)
            return 2

    fingerprints = None
    resolved = None if args.update_baseline else _resolve_baseline(args)
    if resolved is not None:
        try:
            fingerprints = load_baseline(resolved)
        except (OSError, ValueError) as exc:
            print(
                f"reprolint: cannot use baseline {resolved}: {exc}",
                file=sys.stderr,
            )
            return 2

    findings = lint_paths(args.paths, rules=rules)

    if args.update_baseline:
        baseline_path = args.baseline or BASELINE_FILENAME
        count = write_baseline(baseline_path, findings)
        print(f"reprolint: wrote {count} baseline entr"
              + ("y" if count == 1 else "ies")
              + f" to {baseline_path}")
        return 0

    baselined = stale = 0
    if fingerprints is not None:
        findings, baselined, stale = apply_baseline(findings, fingerprints)
    print(_render(findings, args.format, args.strict, baselined, stale))
    return 1 if blocking(findings, strict=args.strict) else 0


def main() -> None:
    """Console entry point (exits the process)."""
    raise SystemExit(run())
