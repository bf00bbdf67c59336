"""Tests for the command-line interface."""

import os

import pytest

from repro.cli import main
from repro.graphs import read_graph
from repro.graphs import cycle_graph, petersen_graph, write_edge_list, write_metis


@pytest.fixture()
def edge_list_file(tmp_path):
    path = tmp_path / "graph.txt"
    write_edge_list(petersen_graph(), str(path))
    return str(path)


@pytest.fixture()
def metis_file(tmp_path):
    path = tmp_path / "graph.metis"
    write_metis(cycle_graph(8), str(path))
    return str(path)


class TestLoadGraph:
    def test_edge_list_detection(self, edge_list_file):
        graph, labels = read_graph(edge_list_file)
        assert graph.n == 10
        assert labels is not None

    def test_metis_detection(self, metis_file):
        graph, labels = read_graph(metis_file)
        assert graph.n == 8
        assert labels is None


class TestSolve:
    def test_solve_default(self, edge_list_file, capsys):
        assert main(["solve", edge_list_file]) == 0
        out = capsys.readouterr().out
        assert "independent set: size 4" in out

    def test_solve_each_algorithm(self, edge_list_file, capsys):
        for algorithm in ("BDOne", "BDTwo", "LinearTime", "NearLinear", "Greedy", "DU"):
            assert main(["solve", edge_list_file, "--algorithm", algorithm]) == 0

    def test_solve_vertex_cover(self, edge_list_file, capsys):
        assert main(["solve", edge_list_file, "--vertex-cover"]) == 0
        assert "minimum-vertex-cover heuristic: size 6" in capsys.readouterr().out

    def test_solve_writes_output(self, edge_list_file, tmp_path, capsys):
        out_path = str(tmp_path / "solution.txt")
        assert main(["solve", edge_list_file, "--output", out_path]) == 0
        with open(out_path, encoding="utf-8") as handle:
            vertices = [int(line) for line in handle]
        assert len(vertices) == 4

    def test_print_vertices(self, edge_list_file, capsys):
        assert main(["solve", edge_list_file, "--print-vertices"]) == 0
        lines = [ln for ln in capsys.readouterr().out.splitlines() if not ln.startswith("#")]
        assert len(lines) == 4

    def test_missing_file_is_an_error(self, capsys):
        assert main(["solve", "no-such-file.txt"]) == 1
        assert "error:" in capsys.readouterr().err


class TestKernelize:
    def test_kernelize_prints_sizes(self, metis_file, capsys):
        assert main(["kernelize", metis_file]) == 0
        out = capsys.readouterr().out
        assert "kernel: n=0" in out  # a cycle reduces fully

    def test_kernelize_writes_metis(self, edge_list_file, tmp_path, capsys):
        out_path = str(tmp_path / "kernel.metis")
        assert main(["kernelize", edge_list_file, "--output", out_path]) == 0
        assert os.path.exists(out_path)


class TestInfoAndGenerate:
    def test_info(self, edge_list_file, capsys):
        assert main(["info", edge_list_file]) == 0
        out = capsys.readouterr().out
        assert "vertices        : 10" in out
        assert "degeneracy      : 3" in out

    @pytest.mark.parametrize("family", ["powerlaw", "gnm", "web"])
    def test_generate_families(self, family, tmp_path, capsys):
        out_path = str(tmp_path / "generated.txt")
        assert (
            main(["generate", out_path, "--family", family, "--n", "200", "--seed", "1"]) == 0
        )
        graph, _ = read_graph(out_path)
        assert graph.n <= 200 and graph.m > 0

    def test_generate_then_solve_round_trip(self, tmp_path, capsys):
        out_path = str(tmp_path / "g.metis")
        assert main(["generate", out_path, "--n", "300", "--seed", "2"]) == 0
        assert main(["solve", out_path, "--algorithm", "LinearTime"]) == 0

    def test_generate_respects_density(self, tmp_path):
        sparse = str(tmp_path / "sparse.txt")
        dense = str(tmp_path / "dense.txt")
        main(["generate", sparse, "--family", "gnm", "--n", "500", "--avg-degree", "2"])
        main(["generate", dense, "--family", "gnm", "--n", "500", "--avg-degree", "8"])
        g_sparse, _ = read_graph(sparse)
        g_dense, _ = read_graph(dense)
        assert g_dense.m > 2 * g_sparse.m

    def test_info_on_dimacs(self, tmp_path, capsys):
        from repro.graphs import write_dimacs, petersen_graph

        path = str(tmp_path / "g.col")
        write_dimacs(petersen_graph(), path)
        assert main(["info", path]) == 0
        assert "edges           : 15" in capsys.readouterr().out

    def test_kernelize_edge_list_output(self, edge_list_file, tmp_path, capsys):
        out_path = str(tmp_path / "kernel.txt")
        assert main(
            ["kernelize", edge_list_file, "--method", "degree_one", "--output", out_path]
        ) == 0
        graph, _ = read_graph(out_path)
        assert graph.n == 10  # Petersen is degree-one-irreducible

    def test_solve_baseline_names(self, edge_list_file):
        for algorithm in ("SemiE", "OnlineMIS", "ReduMIS"):
            assert main(["solve", edge_list_file, "--algorithm", algorithm]) == 0


class TestTelemetryFlags:
    def test_solve_with_telemetry_writes_trace(self, edge_list_file, tmp_path, capsys):
        from repro.obs import load_trace
        from repro.obs.telemetry import get_telemetry

        trace = str(tmp_path / "trace.jsonl")
        assert main(["solve", edge_list_file, "--telemetry", trace]) == 0
        out = capsys.readouterr().out
        assert "independent set: size" in out
        assert "telemetry:" in out and trace in out
        records = load_trace(trace)
        kinds = {r["type"] for r in records}
        assert {"meta", "span", "counters", "profile"} <= kinds
        assert any(
            r["type"] == "span" and r["name"] == "reduce" for r in records
        )
        # The session flag must not leak past the command.
        assert get_telemetry() is None

    def test_solve_with_memory_probe(self, edge_list_file, tmp_path, capsys):
        from repro.obs import load_trace

        trace = str(tmp_path / "trace.jsonl")
        code = main(
            ["solve", edge_list_file, "--telemetry", trace, "--telemetry-memory"]
        )
        assert code == 0
        memory = [r for r in load_trace(trace) if r["type"] == "memory"]
        assert len(memory) == 1
        assert memory[0]["peak_bytes"] > 0

    def test_solve_without_telemetry_stays_silent(self, edge_list_file, capsys):
        assert main(["solve", edge_list_file]) == 0
        assert "telemetry" not in capsys.readouterr().out

    def test_obs_report_renders_a_trace(self, edge_list_file, tmp_path, capsys):
        trace = str(tmp_path / "trace.jsonl")
        assert main(["solve", edge_list_file, "--telemetry", trace]) == 0
        capsys.readouterr()
        assert main(["obs", "report", trace]) == 0
        out = capsys.readouterr().out
        assert "phase spans:" in out
        assert "reduce" in out
        assert "rule counters:" in out

    def test_obs_report_missing_file_is_an_error(self, tmp_path, capsys):
        assert main(["obs", "report", str(tmp_path / "nope.jsonl")]) == 1
        assert "error:" in capsys.readouterr().err


class TestServe:
    def test_serve_session_round_trip(self, metis_file, tmp_path, capsys):
        requests = tmp_path / "requests.jsonl"
        state = tmp_path / "state.json"
        requests.write_text(
            "\n".join(
                [
                    '{"op": "register", "id": "g", "path": "%s"}' % metis_file,
                    '{"op": "solve", "id": "g"}',
                    '{"op": "mutate", "id": "g", "mutations": [["add_edge", 0, 4]]}',
                    '{"op": "solve", "id": "g"}',
                    '{"op": "upper_bound", "id": "g"}',
                    '{"op": "stats"}',
                ]
            )
            + "\n"
        )
        assert (
            main(["serve", str(requests), "--snapshot", str(state)]) == 0
        )
        import json

        lines = [
            json.loads(ln)
            for ln in capsys.readouterr().out.splitlines()
            if ln.strip()
        ]
        assert all(resp["ok"] for resp in lines)
        sources = [resp.get("source") for resp in lines if resp["op"] == "solve"]
        assert sources[0] == "cold"
        assert sources[1] in ("repair", "cold")
        assert state.exists()

    def test_serve_restore_reuses_state(self, metis_file, tmp_path, capsys):
        state = tmp_path / "state.json"
        first = tmp_path / "first.jsonl"
        first.write_text(
            '{"op": "register", "id": "g", "path": "%s"}\n'
            '{"op": "solve", "id": "g"}\n' % metis_file
        )
        assert main(["serve", str(first), "--snapshot", str(state)]) == 0
        capsys.readouterr()
        second = tmp_path / "second.jsonl"
        second.write_text('{"op": "solve", "id": "g"}\n')
        assert main(["serve", str(second), "--restore", str(state)]) == 0
        import json

        resp = json.loads(capsys.readouterr().out.strip())
        assert resp["ok"] and resp["source"] == "cache"

    def test_serve_failed_request_sets_exit_code(self, tmp_path, capsys):
        requests = tmp_path / "requests.jsonl"
        requests.write_text('{"op": "solve", "id": "missing"}\n')
        assert main(["serve", str(requests)]) == 1
        out = capsys.readouterr().out
        assert '"ok": false' in out

    def test_serve_writes_output_file(self, metis_file, tmp_path):
        requests = tmp_path / "requests.jsonl"
        responses = tmp_path / "responses.jsonl"
        requests.write_text(
            '{"op": "register", "id": "g", "path": "%s"}\n'
            '{"op": "solve", "id": "g"}\n' % metis_file
        )
        assert (
            main(["serve", str(requests), "--output", str(responses)]) == 0
        )
        assert len(responses.read_text().splitlines()) == 2

    def test_serve_async_replay_matches_sync(self, metis_file, tmp_path):
        import json

        requests = tmp_path / "requests.jsonl"
        sync_out = tmp_path / "sync.jsonl"
        async_out = tmp_path / "async.jsonl"
        requests.write_text(
            '{"op": "register", "id": "g", "path": "%s", "rid": "r0"}\n'
            '{"op": "solve", "id": "g", "rid": "r1"}\n'
            '{"op": "solve", "id": "g", "rid": "r2"}\n'
            '{"op": "ping", "rid": "r3"}\n' % metis_file
        )
        assert main(["serve", str(requests), "--output", str(sync_out)]) == 0
        assert (
            main(
                [
                    "serve",
                    str(requests),
                    "--async",
                    "--shards",
                    "2",
                    "--output",
                    str(async_out),
                ]
            )
            == 0
        )
        from repro.serve.loadgen import normalize_response

        sync_lines = [
            normalize_response(json.loads(line))
            for line in sync_out.read_text().splitlines()
        ]
        async_lines = [
            normalize_response(json.loads(line))
            for line in async_out.read_text().splitlines()
        ]
        assert sync_lines == async_lines

    def test_serve_async_rejects_snapshot_flags(self, tmp_path, capsys):
        requests = tmp_path / "requests.jsonl"
        requests.write_text('{"op": "ping"}\n')
        state = tmp_path / "state.json"
        assert (
            main(["serve", str(requests), "--async", "--snapshot", str(state)])
            == 1
        )
        assert "single-process" in capsys.readouterr().err

    def test_serve_async_bad_request_sets_exit_code(self, tmp_path, capsys):
        requests = tmp_path / "requests.jsonl"
        requests.write_text('{"op": "solve", "id": "missing", "rid": "r1"}\n')
        assert main(["serve", str(requests), "--async"]) == 1
        out = capsys.readouterr().out
        assert '"ok": false' in out


class TestRemovedAutoSurface:
    """The per-graph backend picker, its calibration command, the bench
    ``--backend`` option, the bench-trajectory watchdog and the bench
    suite shorthands are gone; their spellings are ordinary argparse usage
    errors (exit code 2)."""

    @pytest.mark.parametrize(
        "argv, error",
        [
            (["serve", "-", "--algorithm", "linear_time_auto"], "invalid choice"),
            (["calibrate"], "invalid choice"),
            (["bench", "--backend", "auto"], "unrecognized arguments: --backend"),
            (["bench", "--backend", "flat"], "unrecognized arguments: --backend"),
            (["obs", "watch"], "invalid choice: 'watch'"),
            (["bench", "--watch", "."], "unrecognized arguments: --watch"),
            (["bench", "--quick"], "unrecognized arguments: --quick"),
        ],
        ids=[
            "serve-auto",
            "calibrate",
            "bench-auto",
            "bench-flat",
            "obs-watch",
            "bench-watch",
            "bench-quick",
        ],
    )
    def test_removed_spelling_is_a_usage_error(self, argv, error, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert error in capsys.readouterr().err


class TestLoadgen:
    def test_loadgen_report_round_trip(self, tmp_path, capsys):
        import json

        report = tmp_path / "report.json"
        assert (
            main(
                [
                    "loadgen",
                    "--vertices",
                    "120",
                    "--graphs",
                    "2",
                    "--requests",
                    "30",
                    "--burst",
                    "4",
                    "--shards",
                    "2",
                    "--edge-probability",
                    "0.05",
                    "--out",
                    str(report),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "speedup" in out and "equivalent=True" in out
        payload = json.loads(report.read_text())
        assert payload["equivalence"]["equivalent"]
        assert payload["shed_check"]["all_valid"]
        assert payload["sync"]["throughput"] > 0
        assert payload["async"]["throughput"] > 0

    def test_snapshot_summary_and_verify(self, metis_file, tmp_path, capsys):
        state = tmp_path / "state.json"
        requests = tmp_path / "requests.jsonl"
        requests.write_text(
            '{"op": "register", "id": "g", "path": "%s"}\n'
            '{"op": "solve", "id": "g"}\n' % metis_file
        )
        assert main(["serve", str(requests), "--snapshot", str(state)]) == 0
        capsys.readouterr()
        assert main(["snapshot", str(state), "--verify"]) == 0
        out = capsys.readouterr().out
        assert "graphs" in out and "g: n=8" in out
        assert "fingerprints match" in out

    def test_snapshot_corrupt_file_fails_verify(self, metis_file, tmp_path, capsys):
        import json

        state = tmp_path / "state.json"
        requests = tmp_path / "requests.jsonl"
        requests.write_text(
            '{"op": "register", "id": "g", "path": "%s"}\n' % metis_file
        )
        assert main(["serve", str(requests), "--snapshot", str(state)]) == 0
        payload = json.loads(state.read_text())
        payload["graphs"]["g"]["dynamic"]["edges"].pop()
        state.write_text(json.dumps(payload))
        capsys.readouterr()
        assert main(["snapshot", str(state), "--verify"]) == 1
        assert "error:" in capsys.readouterr().err


class TestBench:
    """``repro bench`` forwards its raw arguments to
    ``repro.perf.bench_regression.main``."""

    def test_forwarding_matches_bench_module(self, tmp_path, capsys):
        import json

        from repro.perf import bench_regression

        def run(entry, out):
            code = entry(["--suite", "smoke", "--repeats", "1", "--out", str(out)])
            report = json.loads(out.read_text())
            return code, sorted(report), {g: sorted(t) for g, t in report["timings"].items()}

        direct = run(bench_regression.main, tmp_path / "direct.json")
        forwarded = run(lambda argv: main(["bench", *argv]), tmp_path / "forwarded.json")
        assert forwarded == direct
        assert direct[0] == 0
        assert "report written to" in capsys.readouterr().out


class TestLint:
    """``repro lint`` forwards its raw arguments to ``repro.lint.cli.run``."""

    @pytest.fixture()
    def bad_kernel(self, tmp_path):
        target = tmp_path / "src" / "repro" / "bad.py"
        target.parent.mkdir(parents=True)
        target.write_text(
            "from repro.core import hot_loop\n\n"
            "@hot_loop\n"
            "def kernel(ws):\n"
            "    for u in ws.order:\n"
            "        seen = set()\n"
            "    return seen\n"
        )
        return str(target)

    @pytest.mark.parametrize(
        "args",
        [["--strict", "--rules", "RL001", "{path}"], ["--list-rules"]],
        ids=["leading-option", "list-rules"],
    )
    def test_forwarding_matches_lint_cli(self, args, bad_kernel, capsys):
        from repro.lint.cli import run as lint_run

        argv = [arg.format(path=bad_kernel) for arg in args]
        direct = lint_run(argv)
        direct_out = capsys.readouterr()
        forwarded = main(["lint", *argv])
        assert (forwarded, capsys.readouterr()) == (direct, direct_out)
        if args[0] == "--strict":
            assert direct == 1 and "RL001" in direct_out.out

    @pytest.mark.parametrize(
        "args, error",
        [
            (["--jobs", "0"], "unrecognized arguments: --jobs"),
            (["--cache", "c.json"], "unrecognized arguments: --cache"),
            (["--sarif-out", "l.sarif"], "unrecognized arguments: --sarif-out"),
            (["--format", "sarif"], "invalid choice: 'sarif'"),
        ],
        ids=["jobs", "cache", "sarif-out", "format-sarif"],
    )
    def test_removed_lint_options_are_usage_errors(self, args, error, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["lint", *args])
        assert excinfo.value.code == 2
        assert error in capsys.readouterr().err
