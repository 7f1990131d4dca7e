"""Verdicts and traced medians of ``scripts/bench_record.py`` on synthetic run
records; no benchmark runs."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_record.py"


@pytest.fixture(scope="module")
def bench_record():
    spec = importlib.util.spec_from_file_location("bench_record", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def records(parent_wall, change_wall, change_failures=0):
    """Ten-run records of one workload: wall_s as given, setup_s and peak_rss_mb flat."""

    def side(walls, failures):
        return [
            {"metrics": {"wall_s": w, "setup_s": 0.2, "peak_rss_mb": 40.0},
             "failures": ["op"] * failures if i == 0 else []}
            for i, w in enumerate(walls)
        ]

    return {"wl": {"parent": side(parent_wall, 0), "change": side(change_wall, change_failures)}}


TIGHT = [1.0, 1.01, 0.99, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0, 1.0]
WIDE = [0.6, 1.4, 0.7, 1.3, 0.8, 1.2, 0.65, 1.35, 1.0, 1.0]  # IQR / median = 0.55


def test_bounds_come_from_the_benchmark(bench_record):
    bounds = {m["name"]: m["bound"] for m in bench_record.END_TO_END}
    assert bounds == {"wall_s": 0.25, "setup_s": 0.25, "peak_rss_mb": 0.1}


@pytest.mark.parametrize("parent, change, expect", [
    (TIGHT, [1.3 * w for w in TIGHT], "worse"),
    (TIGHT, [1.2 * w for w in TIGHT], "no regression"),
    (TIGHT, [0.5 * w for w in TIGHT], "no regression"),
    (WIDE, WIDE[::-1], "unresolved"),
    (WIDE, [0.5 * w for w in WIDE], "unresolved"),  # the fastest parent run beats a change run
    (WIDE, [0.55] * 10, "no regression"),  # every change run beats every parent run
    (WIDE, [1.4] * 10, "worse"),
])
def test_wall_verdicts(bench_record, parent, change, expect):
    summary = bench_record.summarise(records(parent, change))["wl"]
    assert summary["wall_s"]["verdict"] == expect
    assert summary["wall_s"]["bound"] == 0.25
    assert summary["setup_s"]["verdict"] == summary["peak_rss_mb"]["verdict"] == "no regression"


def test_failures_counted_per_side(bench_record):
    summary = bench_record.summarise(records(TIGHT, TIGHT, change_failures=2))["wl"]
    assert summary["failed"] == {"parent": 0, "change": 2}


def test_traced_seeds_alternate_and_give_medians(bench_record, monkeypatch, tmp_path):
    """--traced-seed takes a seed list, runs the sides in the untraced pairs' order
    and records each layer metric's median over the seeds."""
    calls = []

    def run_one(root, workload, seed, seconds, trace):
        calls.append((root.name, seed, trace))
        layer = {"parent": 1.0, "change": 0.5}[root.name] * seed
        return {
            "metrics": {"wall_s": 1.0, "setup_s": 0.2, "peak_rss_mb": 40.0,
                        "equilibrium.solve_s": layer, "cmd.other_s": 0.0},
            "failures": [],
            "machine": {},
        }

    monkeypatch.setattr(bench_record, "run_one", run_one)
    roots = [tmp_path / side for side in ("parent", "change")]
    for root in roots:
        root.mkdir()
    out = tmp_path / "bench.json"
    argv = ["--parent", str(roots[0]), "--change", str(roots[1]), "--parent-commit", "abc",
            "--change-note", "note", "--workloads", "wl", "--seeds", "1-2",
            "--traced-seed", "3-5", "--out", str(out)]
    assert bench_record.main(argv) == 0
    traced = [(side, seed) for side, seed, trace in calls if trace == 1]
    assert traced == [("parent", 3), ("change", 3), ("change", 4), ("parent", 4),
                      ("parent", 5), ("change", 5)]
    assert [(side, seed) for side, seed, trace in calls if trace == 0] == [
        ("parent", 1), ("change", 1), ("change", 2), ("parent", 2)]
    record = json.loads(out.read_text())["traced"]
    assert record["parent"]["wl"]["equilibrium.solve_s"] == 4.0
    assert record["change"]["wl"]["equilibrium.solve_s"] == 2.0
    assert "cmd.other_s" not in record["change"]["wl"]
