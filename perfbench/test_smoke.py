"""Smoke check of the benchmark itself, at minimum size.

    python3 -m pytest perfbench/test_smoke.py -q

Runs every workload with ``--smoke`` (small grids, one pass) and checks that
the result line carries every metric named in BENCHMARK.json with no failed
command, that the traced call counts repeat exactly for one seed, and that
the benchmark refuses to run without the program's sources.  Not part of the
repository's tier-1 suite, which collects ``tests/`` only.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
COUNTS = (
    "objectives.curvature_sum_calls",
    "coeffs.integrate_calls",
    "verify.evaluate_deterministic_calls",
)


def bench(workload, seed, trace, cwd=ROOT):
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", "1", "--trace", str(trace), "--smoke"]
    done = subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def check_result(result, names):
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == set(names)
    for metric in result["metrics"].values():
        assert set(metric) == {"value", "unit"}


def test_spec_matches_layer_table():
    table = json.loads((HERE / "layers.json").read_text())["layers"]
    named = {row["metric"] for row in table}
    layer_names = {m["name"] for m in SPEC["per_layer"]}
    assert named - {"cmd.<command>_s"} <= layer_names
    assert {n for n in layer_names if not n.startswith("cmd.")} <= named
    assert len(WORKLOADS) == len(set(WORKLOADS)) == 4


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    check_result(bench(workload, 3, 0), [m["name"] for m in SPEC["end_to_end"]])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_layer_metrics_and_repeatable_counts(workload):
    first = bench(workload, 3, 1)
    check_result(first, [m["name"] for m in SPEC["per_layer"]])
    again = bench(workload, 3, 1)
    other = bench(workload, 4, 1)
    for name in COUNTS:
        assert first["metrics"][name]["value"] == again["metrics"][name]["value"], name
        differs = first["metrics"][name]["value"] != other["metrics"][name]["value"]
        print(f"{workload} {name}: seed 3 vs seed 4 {'differ' if differs else 'equal'}")


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    argv = [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
            "--seconds", "1", "--trace", "0"]
    done = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
