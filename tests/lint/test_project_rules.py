"""Cross-module rule fixtures (RL006–RL008) and seeded-mutation checks.

Two layers of evidence that the whole-project rules earn their keep:

* **Fixture tests** stage a violation split across modules so that no
  per-file analysis could catch it — the kernel lives in one module and
  the impure helper in another — then assert the rule still fires, and
  fires on the right line.
* **Seeded mutations** copy the real ``src`` tree in memory, re-introduce
  a historical class of bug (dropping a ``@hot_loop`` marker, metering
  inside a forked worker, dropping the request context from a service
  verb), and assert the matching rule catches exactly that regression.
  ``PLANTED`` holds the graph-rule defects of the ablation in
  ``docs/static-analysis.md`` that no other test catches.
"""

import os
import textwrap

import pytest

from repro.lint import default_rules, lint_sources
from repro.lint.engine import iter_python_files, module_name_for

REPO_ROOT = os.path.abspath(
    os.path.join(os.path.dirname(__file__), os.pardir, os.pardir)
)


def run_rules(sources, rule_ids):
    dedented = {path: textwrap.dedent(src) for path, src in sources.items()}
    return lint_sources(dedented, rules=default_rules(rule_ids))


class TestTransitiveHotLoop:
    SOURCES = {
        "src/repro/core/kern.py": """
        from repro.core.hotpath import hot_loop

        from .helpers import collapse

        @hot_loop
        def kernel(ws):
            while ws.queue:
                collapse(ws)
        """,
        "src/repro/core/helpers.py": """
        def collapse(ws):
            ws.queue.pop()
        """,
    }

    def test_unannotated_cross_module_helper_is_flagged(self):
        findings = run_rules(self.SOURCES, ["RL006"])
        assert [f.rule_id for f in findings] == ["RL006"]
        finding = findings[0]
        assert finding.path == "src/repro/core/helpers.py"
        assert "collapse" in finding.message
        assert "kern.kernel" in finding.message  # the chain names the root

    def test_each_file_alone_is_silent(self):
        # The violation only exists in the union of the two modules: the
        # kernel file cannot see collapse's definition, and the helper
        # file cannot know it sits on a hot path.
        for path, src in self.SOURCES.items():
            assert run_rules({path: src}, ["RL006"]) == []

    def test_annotating_the_helper_clears_it(self):
        fixed = dict(self.SOURCES)
        fixed["src/repro/core/helpers.py"] = """
        from repro.core.hotpath import hot_loop

        @hot_loop
        def collapse(ws):
            ws.queue.pop()
        """
        assert run_rules(fixed, ["RL006"]) == []


class TestForkSafety:
    SOURCES = {
        "src/repro/perf/driver.py": """
        import multiprocessing

        from .worker import solve_one

        def solve_parallel(graphs):
            with multiprocessing.Pool() as pool:
                return pool.map(solve_one, graphs)
        """,
        "src/repro/perf/worker.py": """
        from repro.obs.metrics import get_metrics

        def solve_one(graph):
            meter(graph)
            return graph

        def meter(graph):
            metrics = get_metrics()
            metrics.inc("solves")
        """,
        "src/repro/obs/metrics.py": """
        def get_metrics():
            return None
        """,
    }

    def test_metrics_behind_pool_payload_flagged(self):
        findings = run_rules(self.SOURCES, ["RL007"])
        assert findings, "expected RL007 on the metered helper"
        assert {f.rule_id for f in findings} == {"RL007"}
        assert all(f.path == "src/repro/perf/worker.py" for f in findings)
        assert any("get_metrics" in f.message for f in findings)

    def test_worker_module_alone_is_silent(self):
        # Without the driver module nothing marks solve_one as a fork
        # payload, so the metric write is legal in-process code.
        sources = {
            path: src
            for path, src in self.SOURCES.items()
            if "driver" not in path
        }
        assert run_rules(sources, ["RL007"]) == []


class TestForkSafetyShardDispatch:
    """PR 10 dispatch shapes: Process(target=…) and run_in_executor."""

    METERED_WORKER = """
    from repro.obs.metrics import get_metrics

    def worker_main(conn):
        meter(conn)

    def meter(conn):
        metrics = get_metrics()
        metrics.inc("batches")
    """
    METRICS_STUB = """
    def get_metrics():
        return None
    """

    def test_process_target_keyword_is_a_root(self):
        sources = {
            "src/repro/serve/router.py": """
            import multiprocessing

            from .worker import worker_main

            def boot_shard(conn):
                proc = multiprocessing.Process(target=worker_main, args=(conn,))
                proc.start()
                return proc
            """,
            "src/repro/serve/worker.py": self.METERED_WORKER,
            "src/repro/obs/metrics.py": self.METRICS_STUB,
        }
        findings = run_rules(sources, ["RL007"])
        assert findings, "expected RL007 behind Process(target=...)"
        assert {f.rule_id for f in findings} == {"RL007"}
        assert all(f.path == "src/repro/serve/worker.py" for f in findings)
        assert any("worker_main" in f.message for f in findings)

    def test_run_in_executor_payload_is_a_root(self):
        sources = {
            "src/repro/serve/frontend.py": """
            import asyncio

            from .worker import worker_main

            async def dispatch(executor, batch):
                loop = asyncio.get_running_loop()
                return await loop.run_in_executor(executor, worker_main, batch)
            """,
            "src/repro/serve/worker.py": self.METERED_WORKER,
            "src/repro/obs/metrics.py": self.METRICS_STUB,
        }
        findings = run_rules(sources, ["RL007"])
        assert findings, "expected RL007 behind run_in_executor"
        assert all(f.path == "src/repro/serve/worker.py" for f in findings)

    def test_worker_module_alone_is_silent(self):
        sources = {
            "src/repro/serve/worker.py": self.METERED_WORKER,
            "src/repro/obs/metrics.py": self.METRICS_STUB,
        }
        assert run_rules(sources, ["RL007"]) == []


class TestRequestContextFlow:
    SOURCES = {
        "src/repro/serve/context.py": """
        class RequestContext:
            @classmethod
            def create(cls, request_id=None):
                return cls()
        """,
        "src/repro/serve/helpers.py": """
        def traced(graph_id, context=None):
            return graph_id
        """,
        "src/repro/serve/svc.py": """
        from .helpers import traced

        class SolverService:
            def solve(self, graph_id):
                return traced(graph_id)
        """,
    }

    def test_verb_without_context_param_is_flagged(self):
        findings = run_rules(self.SOURCES, ["RL008"])
        assert [f.rule_id for f in findings] == ["RL008"]
        finding = findings[0]
        assert finding.path == "src/repro/serve/svc.py"
        assert "solve" in finding.message

    def test_context_drop_across_modules_is_flagged(self):
        sources = dict(self.SOURCES)
        sources["src/repro/serve/svc.py"] = """
        from .context import RequestContext
        from .helpers import traced

        class SolverService:
            def solve(self, graph_id, context=None):
                context = context or RequestContext.create()
                return traced(graph_id)
        """
        findings = run_rules(sources, ["RL008"])
        assert [f.rule_id for f in findings] == ["RL008"]
        assert "traced" in findings[0].message

    def test_forwarding_context_is_clean(self):
        sources = dict(self.SOURCES)
        sources["src/repro/serve/svc.py"] = """
        from .context import RequestContext
        from .helpers import traced

        class SolverService:
            def solve(self, graph_id, context=None):
                context = context or RequestContext.create()
                return traced(graph_id, context=context)
        """
        assert run_rules(sources, ["RL008"]) == []

    def test_rule_is_scoped_to_serve(self):
        sources = {
            path.replace("repro/serve/", "repro/core/"): src
            for path, src in self.SOURCES.items()
        }
        assert run_rules(sources, ["RL008"]) == []


class TestRequestContextAsyncVerbs:
    """PR 10 surface: async verbs on *Frontend/*Router classes."""

    HELPERS = {
        "src/repro/serve/context.py": """
        class RequestContext:
            @classmethod
            def create(cls, request_id=None):
                return cls()
        """,
        "src/repro/serve/helpers.py": """
        def traced(graph_id, context=None):
            return graph_id
        """,
    }

    def test_async_frontend_verb_without_context_is_flagged(self):
        sources = dict(self.HELPERS)
        sources["src/repro/serve/front.py"] = """
        from .helpers import traced

        class AsyncFrontend:
            async def submit(self, request):
                return traced(request)
        """
        findings = run_rules(sources, ["RL008"])
        assert [f.rule_id for f in findings] == ["RL008"]
        assert findings[0].path == "src/repro/serve/front.py"
        assert "submit" in findings[0].message

    def test_router_verb_without_context_is_flagged(self):
        sources = dict(self.HELPERS)
        sources["src/repro/serve/route.py"] = """
        from .helpers import traced

        class ShardRouter:
            def dispatch(self, shard, request):
                return traced(request)
        """
        findings = run_rules(sources, ["RL008"])
        assert [f.rule_id for f in findings] == ["RL008"]
        assert "dispatch" in findings[0].message

    def test_async_verb_dropping_bound_context_is_flagged(self):
        sources = dict(self.HELPERS)
        sources["src/repro/serve/front.py"] = """
        from .context import RequestContext
        from .helpers import traced

        class AsyncFrontend:
            async def submit(self, request, context=None):
                context = context or RequestContext.create()
                return traced(request)
        """
        findings = run_rules(sources, ["RL008"])
        assert [f.rule_id for f in findings] == ["RL008"]
        assert "traced" in findings[0].message

    def test_async_verb_forwarding_context_is_clean(self):
        sources = dict(self.HELPERS)
        sources["src/repro/serve/front.py"] = """
        from .context import RequestContext
        from .helpers import traced

        class AsyncFrontend:
            async def submit(self, request, context=None):
                context = context or RequestContext.create()
                return traced(request, context=context)
        """
        assert run_rules(sources, ["RL008"]) == []


@pytest.fixture(scope="module")
def src_sources():
    sources = {}
    for path in iter_python_files([os.path.join(REPO_ROOT, "src")]):
        rel = os.path.relpath(path, REPO_ROOT)
        with open(path, "r", encoding="utf-8") as handle:
            sources[rel] = handle.read()
    return sources


#: Ablation plants (ids as in docs/static-analysis.md) that pass every
#: non-lint test: ``id -> (rule, path, [(old, new), ...])``.
PLANTED = {
    "rl007-list-serve": ("RL007", "src/repro/serve/repair.py", [
        ("\ndef repair_solution(", "\n_REPAIRS: List[int] = []\n\n\ndef repair_solution("),
        ("    region = affected_region(",
         "    _REPAIRS.append(len(seeds))\n    region = affected_region("),
    ]),
    "rl007-global-core": ("RL007", "src/repro/core/linear_time.py", [
        ("\n\n@hot_loop\ndef _reduce_flat(", "\n\n_RUNS = 0\n\n\n@hot_loop\ndef _reduce_flat("),
        ("    workspace, _ = _set_up_and_run(graph, workspace_factory, telemetry, \"LinearTime\"",
         "    global _RUNS\n    _RUNS += 1\n"
         "    workspace, _ = _set_up_and_run(graph, workspace_factory, telemetry, \"LinearTime\""),
    ]),
    "rl007-store-core": ("RL007", "src/repro/core/near_linear.py", [
        ("\ndef _run(workspace: Any, stop_before_peel: bool) -> bool:\n"
         '    """Dispatch to the specialized or the generic main loop."""\n',
         "\n_RUNS: dict = {}\n\n\ndef _run(workspace: Any, stop_before_peel: bool) -> bool:\n"
         '    """Dispatch to the specialized or the generic main loop."""\n'
         '    _RUNS["near_linear"] = _RUNS.get("near_linear", 0) + 1\n'),
    ]),
    "rl008-timeout-service": ("RL008", "src/repro/serve/service.py", [
        ("result = self.solve(graph_id, timeout=timeout, context=context)",
         "result = self.solve(graph_id, context=context)"),
    ]),
    "rl008-verb": ("RL008", "src/repro/serve/service.py", [
        ("self, graph_id: str, v: int, context: Optional[RequestContext] = None\n",
         "self, graph_id: str, v: int\n"),
        ('[Mutation("remove_vertex", v)], context)', '[Mutation("remove_vertex", v)], None)'),
    ]),
}


def mutate(sources, rel_path, old, new):
    assert old in sources[rel_path], f"mutation anchor missing in {rel_path}"
    mutated = dict(sources)
    mutated[rel_path] = mutated[rel_path].replace(old, new, 1)
    return mutated


class TestSeededMutations:
    """Re-introduce real regressions into a copy of src and catch them."""

    def test_src_module_names_resolve(self, src_sources):
        # Sanity for the fixtures below: the on-disk layout maps to the
        # dotted names the resolver uses.
        assert module_name_for("src/repro/core/workspace.py") == (
            "repro.core.workspace"
        )
        assert "src/repro/serve/service.py" in src_sources

    def test_dropping_hot_loop_marker_trips_rl006(self, src_sources):
        mutated = mutate(
            src_sources,
            "src/repro/core/workspace.py",
            "@hot_loop\ndef push_entries",
            "def push_entries",
        )
        findings = lint_sources(mutated, rules=default_rules(["RL006"]))
        assert findings, "deleting @hot_loop must surface the helper"
        assert {f.rule_id for f in findings} == {"RL006"}
        assert all("push_entries" in f.message for f in findings)
        assert all(f.path.endswith("workspace.py") for f in findings)

    def test_metering_in_worker_helper_trips_rl007(self, src_sources):
        mutated = mutate(
            src_sources,
            "src/repro/core/workspace.py",
            ") -> None:\n    \"\"\"Append one ``(kind, (v,))`` record",
            ") -> None:\n"
            "    from repro.obs.metrics import get_metrics\n"
            "    get_metrics().inc('repro_batch_entries')\n"
            "    \"\"\"Append one ``(kind, (v,))`` record",
        )
        findings = lint_sources(mutated, rules=default_rules(["RL007"]))
        assert findings, "metric write reachable from the shard worker must be flagged"
        assert {f.rule_id for f in findings} == {"RL007"}
        assert all(f.path.endswith("workspace.py") for f in findings)

    def test_metering_in_repair_trips_rl007(self, src_sources):
        # A process shard runs repairs in its forked child, reached as
        # _shard_worker_main -> handle_request(service: SolverService)
        # -> SolverService.solve -> repair_solution.
        mutated = mutate(
            src_sources,
            "src/repro/serve/repair.py",
            "    start = time.perf_counter()\n    region = affected_region(",
            "    start = time.perf_counter()\n"
            "    from repro.obs.metrics import get_metrics\n"
            "    get_metrics().inc('repro_serve_repairs_total')\n"
            "    region = affected_region(",
        )
        findings = lint_sources(mutated, rules=default_rules(["RL007"]))
        assert findings, "metric write in repair_solution must be flagged"
        assert {f.rule_id for f in findings} == {"RL007"}
        assert all(f.path.endswith("repair.py") for f in findings)
        assert any("_shard_worker_main" in f.message for f in findings)

    def test_dropping_context_forward_trips_rl008(self, src_sources):
        mutated = mutate(
            src_sources,
            "src/repro/serve/service.py",
            "result = self.solve(graph_id, timeout=timeout, context=context)",
            "result = self.solve(graph_id, timeout=timeout)",
        )
        findings = lint_sources(mutated, rules=default_rules(["RL008"]))
        assert findings, "upper_bound dropping its context must be flagged"
        assert {f.rule_id for f in findings} == {"RL008"}
        assert all(f.path.endswith("service.py") for f in findings)
        assert any("upper_bound" in f.message for f in findings)

    @pytest.mark.parametrize("plant", sorted(PLANTED))
    def test_planted_defect_trips_its_rule(self, src_sources, plant):
        rule, path, edits = PLANTED[plant]
        mutated = src_sources
        for old, new in edits:
            assert mutated[path].count(old) == 1, f"plant anchor moved in {path}"
            mutated = mutate(mutated, path, old, new)
        findings = lint_sources(mutated, rules=default_rules([rule]))
        assert findings, f"{rule} missed the planted defect"
        assert {f.path for f in findings} == {path}

    def test_unmutated_src_is_clean_on_graph_rules(self, src_sources):
        findings = lint_sources(
            src_sources,
            rules=default_rules(["RL006", "RL007", "RL008"]),
        )
        assert findings == [], "\n".join(f.render() for f in findings)
