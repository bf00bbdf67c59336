"""Engine-level tests: suppressions, severity gating, CLI, self-check.

The self-check at the bottom is the tentpole guarantee of this package:
the repo's own ``src`` and ``tests`` trees stay reprolint-clean, so a
change that re-introduces a hot-loop allocation or an unregistered stat
key fails the suite — not a perf run three PRs later.
"""

import json
import os
import textwrap

import pytest

from repro.lint import (
    ADVICE,
    ALL_RULES,
    ERROR,
    RULES_BY_ID,
    blocking,
    default_rules,
    lint_paths,
    lint_source,
    lint_sources,
)
from repro.lint.cli import run as lint_cli
from repro.lint.findings import Finding

REPO_ROOT = os.path.abspath(
    os.path.join(os.path.dirname(__file__), os.pardir, os.pardir)
)

BAD_HOT_LOOP = textwrap.dedent(
    """
    from repro.core import hot_loop

    @hot_loop
    def kernel(ws):
        for u in ws.order:
            seen = set()
        return seen
    """
)


class TestSuppressions:
    def test_inline_disable_suppresses_one_line(self):
        source = BAD_HOT_LOOP.replace(
            "seen = set()", "seen = set()  # reprolint: disable=RL001"
        )
        assert lint_source(source) == []

    def test_inline_disable_is_rule_specific(self):
        source = BAD_HOT_LOOP.replace(
            "seen = set()", "seen = set()  # reprolint: disable=RL003"
        )
        assert [f.rule_id for f in lint_source(source)] == ["RL001"]

    def test_bare_disable_suppresses_all_rules_on_line(self):
        source = BAD_HOT_LOOP.replace(
            "seen = set()", "seen = set()  # reprolint: disable"
        )
        assert lint_source(source) == []

    def test_file_level_disable(self):
        source = "# reprolint: disable-file=RL001\n" + BAD_HOT_LOOP
        assert lint_source(source) == []

    def test_unsuppressed_fixture_still_fires(self):
        assert [f.rule_id for f in lint_source(BAD_HOT_LOOP)] == ["RL001"]

    def test_file_level_disable_after_imports(self):
        # The directive does not have to be the first line: a waiver added
        # below the import block (the natural place to document it) works.
        source = BAD_HOT_LOOP.replace(
            "from repro.core import hot_loop",
            "from repro.core import hot_loop\n\n"
            "# reprolint: disable-file=RL001",
        )
        assert lint_source(source) == []

    def test_decorator_line_disable_covers_def_line(self):
        # RL006 anchors on the helper's def line; a waiver on the decorator
        # line above it must count (that is where humans put the comment).
        sources = {
            "src/repro/core/kern.py": textwrap.dedent(
                """
                from repro.core.hotpath import hot_loop

                from .helpers import collapse

                @hot_loop
                def kernel(ws):
                    collapse(ws)
                """
            ),
            "src/repro/core/helpers.py": textwrap.dedent(
                """
                import functools

                @functools.lru_cache  # reprolint: disable=RL006
                def collapse(ws):
                    return ws
                """
            ),
        }
        assert lint_sources(sources, rules=default_rules(["RL006"])) == []
        undisabled = dict(sources)
        undisabled["src/repro/core/helpers.py"] = undisabled[
            "src/repro/core/helpers.py"
        ].replace("  # reprolint: disable=RL006", "")
        findings = lint_sources(undisabled, rules=default_rules(["RL006"]))
        assert [f.rule_id for f in findings] == ["RL006"]


class TestSeverities:
    def test_blocking_ignores_advice_by_default(self):
        advice = Finding("RL003", "x.py", 1, 0, "m", severity=ADVICE)
        error = Finding("RL001", "x.py", 2, 0, "m", severity=ERROR)
        assert blocking([advice, error]) == [error]
        assert blocking([advice, error], strict=True) == [advice, error]


class TestRegistry:
    def test_rule_ids_are_unique_and_sequential(self):
        ids = [cls.rule_id for cls in ALL_RULES]
        assert ids == sorted(set(ids))
        assert ids == [
            "RL001",
            "RL002",
            "RL003",
            "RL004",
            "RL005",
            "RL006",
            "RL007",
            "RL008",
        ]

    def test_default_rules_subset_and_unknown(self):
        assert [r.rule_id for r in default_rules(["RL002"])] == ["RL002"]
        try:
            default_rules(["RL999"])
        except KeyError as exc:
            assert "RL999" in str(exc)
        else:
            raise AssertionError("unknown rule id must raise")

    def test_every_rule_has_identity(self):
        for rule_id, cls in RULES_BY_ID.items():
            assert cls.rule_id == rule_id
            assert cls.name
            assert cls.summary


class TestCli:
    def test_clean_file_exits_zero(self, tmp_path, capsys):
        target = tmp_path / "clean.py"
        target.write_text("X = 1\n")
        assert lint_cli([str(target)]) == 0
        assert "0 error(s)" in capsys.readouterr().out

    def test_violation_exits_nonzero(self, tmp_path, capsys):
        target = tmp_path / "src" / "repro" / "bad.py"
        target.parent.mkdir(parents=True)
        target.write_text(BAD_HOT_LOOP)
        assert lint_cli([str(target)]) == 1
        assert "RL001" in capsys.readouterr().out

    def test_json_format(self, tmp_path, capsys):
        target = tmp_path / "src" / "repro" / "bad.py"
        target.parent.mkdir(parents=True)
        target.write_text(BAD_HOT_LOOP)
        assert lint_cli([str(target), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["errors"] == 1
        assert payload["findings"][0]["rule"] == "RL001"

    @pytest.mark.parametrize(
        "content",
        [b"def broken(:\n", b"X = '\xff\xfe'\n", None],
        ids=["syntax-error", "not-utf8", "missing-path"],
    )
    def test_syntax_error_is_reported_not_raised(self, tmp_path, capsys, content):
        # Every way a file can fail to load is an RL000 error, not a crash.
        target = tmp_path / "broken.py"
        if content is not None:
            target.write_bytes(content)
        assert lint_cli([str(target)]) == 1
        assert "RL000" in capsys.readouterr().out

    def test_list_rules(self, capsys):
        assert lint_cli(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for cls in ALL_RULES:
            assert cls.rule_id in out


class TestBaseline:
    def _finding(self, rule="RL003", path="src/repro/x.py", line=3, msg="m"):
        return Finding(rule, path, line, 0, msg, severity=ADVICE)

    def test_apply_baseline_partitions(self):
        from repro.lint import apply_baseline

        known = self._finding(msg="known")
        fresh = self._finding(msg="fresh")
        baseline = [known.fingerprint(), ("RL003", "gone.py", "fixed")]
        kept, suppressed, stale = apply_baseline([known, fresh], baseline)
        assert kept == [fresh]
        assert suppressed == 1
        assert stale == 1

    def test_matching_is_count_aware(self):
        from repro.lint import apply_baseline

        twice = [self._finding(line=3), self._finding(line=9)]
        kept, suppressed, stale = apply_baseline(
            twice, [twice[0].fingerprint()]
        )
        # Same fingerprint, one budget entry: only one is absorbed.
        assert len(kept) == 1
        assert (suppressed, stale) == (1, 0)

    def test_write_then_load_roundtrip(self, tmp_path):
        from repro.lint import load_baseline, write_baseline

        path = tmp_path / "lint-baseline.json"
        findings = [self._finding(msg="a"), self._finding(msg="b")]
        assert write_baseline(str(path), findings) == 2
        assert sorted(load_baseline(str(path))) == sorted(
            f.fingerprint() for f in findings
        )

    def test_load_rejects_garbage(self, tmp_path):
        from repro.lint import load_baseline

        path = tmp_path / "lint-baseline.json"
        path.write_text("not json at all {")
        with pytest.raises(ValueError):
            load_baseline(str(path))
        with pytest.raises(OSError):
            load_baseline(str(tmp_path / "missing.json"))

    @pytest.mark.parametrize(
        "content",
        [
            None,
            "{not json",
            '{"version": 2, "findings": []}',
            '{"version": 1, "findings": [{"rule": "RL003"}]}',
        ],
        ids=["missing", "not-json", "wrong-version", "bad-entry"],
    )
    def test_cli_unusable_explicit_baseline_exits_2(
        self, tmp_path, capsys, content
    ):
        target = tmp_path / "clean.py"
        target.write_text("X = 1\n")
        baseline = tmp_path / "baseline.json"
        if content is not None:
            baseline.write_text(content)
        assert lint_cli([str(target), "--baseline", str(baseline)]) == 2
        captured = capsys.readouterr()
        assert "cannot use baseline" in captured.err
        assert "advice finding(s)" not in captured.out

    @pytest.mark.parametrize(
        "content",
        ["{not json", '{"version": 2, "findings": []}'],
        ids=["not-json", "wrong-version"],
    )
    def test_cli_unusable_auto_detected_baseline_exits_2(
        self, tmp_path, capsys, monkeypatch, content
    ):
        (tmp_path / "clean.py").write_text("X = 1\n")
        (tmp_path / "lint-baseline.json").write_text(content)
        monkeypatch.chdir(tmp_path)
        assert lint_cli(["clean.py"]) == 2
        assert "lint-baseline.json" in capsys.readouterr().err
        # --no-baseline still opts out of the unusable file.
        assert lint_cli(["clean.py", "--no-baseline"]) == 0

    def test_cli_update_baseline_refuses_rule_subset(self, tmp_path, capsys):
        target = tmp_path / "src" / "repro" / "legacy.py"
        target.parent.mkdir(parents=True)
        target.write_text(BAD_HOT_LOOP)
        baseline = tmp_path / "lint-baseline.json"
        baseline.write_text("sentinel")
        argv = [str(target), "--baseline", str(baseline), "--update-baseline"]
        assert lint_cli(argv + ["--rules", "RL001"]) == 2
        assert "--rules" in capsys.readouterr().err
        assert baseline.read_text() == "sentinel"

    def test_cli_update_baseline_then_strict_pass(self, tmp_path, capsys):
        target = tmp_path / "src" / "repro" / "legacy.py"
        target.parent.mkdir(parents=True)
        target.write_text(BAD_HOT_LOOP)
        baseline = tmp_path / "lint-baseline.json"

        assert (
            lint_cli(
                [
                    str(target),
                    "--baseline",
                    str(baseline),
                    "--update-baseline",
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert baseline.exists()

        # With the violation absorbed, strict runs gate only regressions.
        assert (
            lint_cli([str(target), "--strict", "--baseline", str(baseline)])
            == 0
        )
        assert "baselined" in capsys.readouterr().out


class TestRepoIsClean:
    def test_src_and_tests_have_no_blocking_findings(self):
        findings = lint_paths(
            [
                os.path.join(REPO_ROOT, "src"),
                os.path.join(REPO_ROOT, "tests"),
            ]
        )
        offenders = blocking(findings)
        assert offenders == [], "\n".join(f.render() for f in offenders)

    def test_all_four_trees_strict_with_committed_baseline(self, monkeypatch):
        # The CI gate, replicated exactly: every lint tree, every rule,
        # strict severity, with the committed baseline subtracted.  Runs
        # from the repo root with relative paths — baseline fingerprints
        # store repo-relative paths, exactly as CI invokes the linter.
        # The baseline must also be tight — no stale entries.
        from repro.lint import apply_baseline, load_baseline

        monkeypatch.chdir(REPO_ROOT)
        findings = lint_paths(["src", "tests", "benchmarks", "examples"])
        fingerprints = load_baseline("lint-baseline.json")
        assert fingerprints, "committed lint-baseline.json must load"
        kept, _, stale = apply_baseline(findings, fingerprints)
        offenders = blocking(kept, strict=True)
        assert offenders == [], "\n".join(f.render() for f in offenders)
        assert stale == 0, "baseline has stale entries; refresh it"
