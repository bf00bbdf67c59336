"""Trace file round-trips."""

import json

from repro.obs.trace_io import load_trace, write_trace


class TestWriteLoad:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        records = [
            {"type": "meta", "label": "run", "pid": 1},
            {"type": "span", "name": "reduce", "pid": 1, "wall": 0.5, "depth": 0},
        ]
        assert write_trace(path, records) == 2
        assert load_trace(path) == records

    def test_one_json_object_per_line(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        write_trace(path, [{"a": 1}, {"b": 2}])
        lines = [l for l in open(path, encoding="utf-8").read().splitlines() if l]
        assert len(lines) == 2
        for line in lines:
            json.loads(line)

    def test_load_skips_blank_lines(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"a": 1}\n\n{"b": 2}\n')
        assert load_trace(str(path)) == [{"a": 1}, {"b": 2}]

