"""Documentation consistency: the README's code examples must run.

Extracts fenced ``python`` blocks from README.md and executes them in a
shared namespace (skipping blocks that need external files), so the docs
can never drift from the API, and checks the performance guide's headline
table against the committed benchmark baseline it quotes.
"""

import os
import re

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _python_blocks(path):
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    return re.findall(r"```python\n(.*?)```", text, flags=re.DOTALL)


class TestReadme:
    def test_readme_exists_with_core_sections(self):
        path = os.path.join(REPO_ROOT, "README.md")
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
        for needle in ("Installation", "Quickstart", "Architecture", "SIGMOD"):
            assert needle in text

    def test_quickstart_block_runs(self):
        blocks = _python_blocks(os.path.join(REPO_ROOT, "README.md"))
        assert blocks, "README has no python examples"
        quickstart = blocks[0]
        # Shrink the demo graph so the docs test stays fast.
        quickstart = quickstart.replace("100_000", "5_000")
        namespace: dict = {}
        exec(compile(quickstart, "README-quickstart", "exec"), namespace)
        result = namespace["result"]
        assert result.size > 0
        assert result.size <= result.upper_bound

    def test_documented_modules_exist(self):
        import importlib

        for module in (
            "repro.core.framework",
            "repro.core.degree_two_paths",
            "repro.core.dominance",
            "repro.core.lp_reduction",
            "repro.bench.datasets",
        ):
            importlib.import_module(module)


class TestDesignAndExperiments:
    @pytest.mark.parametrize("name", ["DESIGN.md", "EXPERIMENTS.md"])
    def test_present_and_nonempty(self, name):
        path = os.path.join(REPO_ROOT, name)
        assert os.path.getsize(path) > 2_000

    def test_design_lists_every_benchmark(self):
        with open(os.path.join(REPO_ROOT, "DESIGN.md"), encoding="utf-8") as handle:
            design = handle.read()
        benchmark_dir = os.path.join(REPO_ROOT, "benchmarks")
        core_benches = [
            "bench_table3_easy_gaps",
            "bench_fig7_baselines",
            "bench_fig8_ours",
            "bench_fig9_kernels",
            "bench_fig10_convergence",
            "bench_table4_hard_gaps",
            "bench_table5_powerlaw",
            "bench_table6_random",
            "bench_table7_upper_bounds",
        ]
        for name in core_benches:
            assert os.path.exists(os.path.join(benchmark_dir, name + ".py"))
            assert name in design

    def test_docs_directory(self):
        for name in ("algorithms.md", "reductions.md", "api.md"):
            assert os.path.getsize(os.path.join(REPO_ROOT, "docs", name)) > 1_000


class TestPerformanceClaims:
    """The plr-50k headline table in docs/performance.md quotes the
    committed baseline; every figure must match its record."""

    BASELINE = "BENCH_PR10.json"

    def _rows(self):
        path = os.path.join(REPO_ROOT, "docs", "performance.md")
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
        header = "| algorithm | legacy oracle | flat |"
        assert header in text
        table = text.split(header, 1)[1].split("\n\n", 1)[0]
        rows = {}
        for line in table.strip().splitlines()[1:]:
            cells = [cell.strip() for cell in line.strip("|").split("|")]
            rows[cells[0]] = cells[1:]
        return rows

    def _records(self):
        import json

        with open(os.path.join(REPO_ROOT, self.BASELINE), encoding="utf-8") as handle:
            return json.load(handle)["timings"]["plr-50k"]

    @staticmethod
    def _figures(cell):
        """``(ms, ratio or None)`` of a cell like ``79 ms (2.6×)``."""
        match = re.match(r"\**(\d+) ms(?: \((\d+\.\d)×)?", cell)
        assert match, f"no ms figure in {cell!r}"
        ratio = match.group(2)
        return int(match.group(1)), None if ratio is None else float(ratio)

    def test_table_covers_the_gated_algorithms(self):
        assert set(self._rows()) == {"LinearTime", "NearLinear", "BDOne"}

    def test_every_figure_matches_the_baseline(self):
        records = self._records()
        for algorithm, (legacy, flat) in self._rows().items():
            record = records[algorithm]
            legacy_ms, _ = self._figures(legacy)
            assert legacy_ms == round(record["oracle_wall"] * 1000), algorithm
            flat_ms, speedup = self._figures(flat)
            assert flat_ms == round(record["flat_wall"] * 1000), algorithm
            assert speedup == round(record["speedup"], 1), algorithm
