"""Coverage of the smaller public API corners."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser
from repro.core import linear_time_reduce, near_linear_reduce
from repro.graphs import cycle_graph, paper_figure1, petersen_graph
from repro.localsearch import ConvergenceRecorder


class TestImportCost:
    def test_import_repro_does_not_load_scipy(self):
        # scipy is imported inside the oracle's triangle count and the LP
        # only (the production count is numpy alone), and asyncio (with
        # ssl) inside the serve front-end only: loading them at package
        # import would add to every process start, file solves included.
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        check = (
            "import repro, sys; "
            "loaded = [m for m in ('scipy', 'asyncio', 'ssl') if m in sys.modules]; "
            "assert not loaded, loaded"
        )
        subprocess.run([sys.executable, "-c", check], env=env, check=True)

    def test_lazy_frontend_exports_resolve(self):
        import repro.serve
        from repro.serve import frontend

        assert repro.serve.AsyncFrontend is frontend.AsyncFrontend
        assert repro.serve.serve_forever is frontend.serve_forever
        with pytest.raises(AttributeError):
            repro.serve.no_such_export


class TestParser:
    def test_subcommands_registered(self):
        parser = build_parser()
        args = parser.parse_args(["solve", "g.txt", "--algorithm", "BDOne"])
        assert args.command == "solve"
        assert args.algorithm == "BDOne"
        args = parser.parse_args(["generate", "out.txt", "--family", "web"])
        assert args.family == "web"


class TestReduceFunctions:
    def test_linear_time_reduce_direct(self):
        kernel, old_ids, log = linear_time_reduce(paper_figure1())
        assert kernel.n == 0
        assert old_ids == []
        assert log.peel_count == 0

    def test_near_linear_reduce_irreducible(self):
        kernel, old_ids, log = near_linear_reduce(petersen_graph())
        assert kernel.n == 10  # triangle-free 3-regular: nothing fires
        assert sorted(old_ids) == list(range(10))

    def test_reduce_functions_share_alpha_arithmetic(self):
        from repro.exact import brute_force_alpha

        g = cycle_graph(9)
        for reduce_fn in (linear_time_reduce, near_linear_reduce):
            kernel, _, log = reduce_fn(g)
            assert log.alpha_offset + brute_force_alpha(kernel) == 4


class TestGraphCSR:
    def test_flat_csr_shape(self):
        g = cycle_graph(5)
        offsets, targets = g.flat_csr()
        assert len(offsets) == 6
        assert len(targets) == 10
        assert offsets[-1] == len(targets)


class TestRecorderRestart:
    def test_restart_clears_events(self):
        recorder = ConvergenceRecorder()
        recorder.record(5)
        recorder.restart()
        assert recorder.events == []
        assert recorder.best_size == 0
