"""Toy-scale tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q

Each test runs ``perfbench/run.py`` the way the benchmark is run, on
inputs small enough to finish in seconds.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

from inputs import write_edge_list  # noqa: E402
import filebench  # noqa: E402
import probe  # noqa: E402
import servebench  # noqa: E402

WORKLOADS = ("plr-file", "gnm-file", "serve-mixed")
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def run(workload, trace=0, fault=None, cwd=ROOT, seed=3, seconds=2):
    command = [
        sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace), "--scale", "toy",
    ]
    if fault:
        command += ["--fault", fault]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(completed):
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


def test_benchmark_json_follows_the_contract():
    data = spec()
    assert set(data) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert data["command"][:2] == ["python3", "perfbench/run.py"]
    assert data["paths"] == ["perfbench"]
    assert isinstance(data["run_seconds"], int) and 1 <= data["run_seconds"] <= 60
    assert [w["name"] for w in data["workloads"]] == list(WORKLOADS)
    names = []
    for entry in data["workloads"]:
        assert set(entry) == {"name", "why"} and len(entry["why"]) <= 200
        names.append(entry["name"])
    for entry in data["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0 < entry["bound"] <= 0.25 and entry["better"] in ("higher", "lower")
        names.append(entry["name"])
    for entry in data["per_layer"]:
        assert set(entry) == {"name", "unit", "better"} and entry["better"] in ("higher", "lower")
        names.append(entry["name"])
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    units = [e["unit"] for e in data["end_to_end"] + data["per_layer"]]
    assert all(UNIT.match(unit) for unit in units)
    setup = next(e for e in data["end_to_end"] if e["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(e["bound"] for e in data["end_to_end"])
    runs = 4 + 22 * len(data["workloads"])
    # A full-scale run spends about 12 s beyond its measured window.
    assert runs * (data["run_seconds"] + 15) < 3420


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_every_declared_metric_is_emitted_with_its_unit(workload, trace):
    completed = run(workload, trace=trace)
    result = result_of(completed)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    kind = "per_layer" if trace else "end_to_end"
    declared = {entry["name"]: entry["unit"] for entry in spec()[kind]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())
    assert "# inputs sha256:" in completed.stdout
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    else:
        assert result["metrics"]["fail_frac"]["value"] == 0.0


@pytest.mark.parametrize("workload", ("plr-file", "gnm-file"))
def test_traced_layers_account_for_the_op_wall(workload):
    metrics = result_of(run(workload, trace=1))["metrics"]
    assert metrics["trace.coverage"]["value"] >= 0.95
    assert metrics["io.edges_read"]["value"] > 0
    assert metrics["core.kernelize_s"]["value"] > 0


@pytest.mark.parametrize(
    "workload,fault", [("plr-file", "drop"), ("gnm-file", "add"), ("serve-mixed", "drop"),
                       ("serve-mixed", "add")]
)
def test_seeded_fault_is_caught(workload, fault):
    result = result_of(run(workload, fault=fault))
    assert not result["correct"] and result["failed"] >= 1
    assert result["metrics"]["slo_frac"]["value"] < 1.0


def test_seeded_fault_raises_fail_frac_in_the_traced_run():
    result = result_of(run("gnm-file", trace=1, fault="drop"))
    assert result["metrics"]["fail_frac"]["value"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = run("gnm-file", cwd=str(tmp_path))
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""


def test_probe_scales_follow_the_cpu_and_skip_busy_units():
    nominal = probe.NOMINAL_UNIT_S
    starts = [k * 0.001 for k in range(1000)]
    # The CPU runs at half speed for the first 0.3 s; units during the
    # request in flight at 0.5-0.6 s were preempted and read ten times long.
    walls = [2 * nominal if s < 0.3 else 10 * nominal if 0.5 <= s < 0.6 else nominal for s in starts]
    units = {"start": starts, "end": [s + w for s, w in zip(starts, walls)]}
    scales, whole, clean = probe.scales(units, [(0.5, 0.6)], [0.1, 0.45, 0.55, 0.8])
    assert clean < 900
    assert scales[0] == pytest.approx(0.5)
    assert scales[3] == pytest.approx(1.0)
    # No clean unit lies within the window around 0.55 s: the run's scale applies.
    assert scales[2] == whole == pytest.approx(1.0)


def test_inputs_depend_only_on_the_seed(tmp_path):
    def digest(seed):
        path = tmp_path / f"g{seed}.txt"
        write_edge_list(str(path), filebench.generate("gnm-file", seed, toy=True))
        graphs = servebench.generate_graphs(seed, toy=True)
        stream = servebench.build_stream(graphs, 50, seed)
        return path.read_text(), json.dumps(stream)

    assert digest(5) == digest(5)
    assert digest(5) != digest(6)
