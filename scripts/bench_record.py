"""Run alternating parent/change pairs of the benchmark and write ``BENCH_<n>.json``.

Run from the repository root, with the parent commit checked out elsewhere
(``git archive <parent> | tar -x -C DIR`` or ``git clone``):

    python3 scripts/bench_record.py --parent DIR --parent-commit 0c32e45 \\
        --change-note "what the change does" --workloads ode-variants-solve \\
        --seeds 801-810 --seconds 20 --claim ode-variants-solve.wall_s \\
        --traced-seed 820-823 --out BENCH_12.json

For every seed and workload, each checkout runs
``perfbench/run.py --workload W --seed S --seconds N --trace 0`` in its own
process, the parent first on odd seeds and the change first on even seeds,
and the end-to-end metrics are read back from that checkout's
``.perfbench-work/result-W-seedS-trace0.json``.  Each metric gets the median and
inclusive quartiles of both sides, the pairs the change read lower
(``change_wins``), the relative change of the medians, the parent's
interquartile range and a ``verdict`` against the metric's relative
``bound`` in ``BENCHMARK.json``:

* ``worse`` when the change's median exceeds the parent's by more than the
  bound;
* ``unresolved`` when the parent's IQR / median exceeds the bound, unless
  every change run beats every parent run;
* ``no regression`` otherwise.

The claim is met when the change wins at least nine
pairs in ten and the medians lie further apart than the parent's IQR.  With
``--traced-seed`` each side also runs ``--trace 1`` once per listed seed, in
the same alternating order, and the median of each layer metric over those
seeds is recorded: one traced run per side cannot tell a layer change from
host drift.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

# name, unit and relative bound of every end-to-end metric, all lower-is-better
END_TO_END = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())[
    "end_to_end"
]
SIDES = ("parent", "change")


def seed_list(text: str) -> list:
    """'801-810' or '801,805,809' as a list of ints."""
    if "-" in text.strip("-"):
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def side_order(seed: int) -> tuple:
    """The order in which the two checkouts run for a seed: parent first on odd seeds."""
    return SIDES if seed % 2 else SIDES[::-1]


def run_one(root: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    subprocess.run(argv, cwd=root, check=True, capture_output=True, timeout=3600)
    record = root / ".perfbench-work" / f"result-{workload}-seed{seed}-trace{trace}.json"
    return json.loads(record.read_text())


def quartiles(runs: list) -> dict:
    q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"median": round(median, 6), "q1": round(q1, 6), "q3": round(q3, 6),
            "runs": [round(v, 6) for v in runs]}


def verdict(parent: dict, change: dict, bound: float) -> str:
    """'worse', 'unresolved' or 'no regression' for the quartiles of both sides."""
    if change["median"] > parent["median"] * (1.0 + bound):
        return "worse"
    spread = parent["q3"] - parent["q1"]
    if spread > bound * parent["median"] and not max(change["runs"]) < min(parent["runs"]):
        return "unresolved"
    return "no regression"


def compare(parent: list, change: list, unit: str, bound: float) -> dict:
    p, c = quartiles(parent), quartiles(change)
    return {
        "unit": unit,
        "parent": p,
        "change": c,
        "change_wins": sum(b < a for a, b in zip(parent, change)),
        "median_change_frac": round(c["median"] / p["median"] - 1.0, 6),
        "parent_iqr": round(p["q3"] - p["q1"], 6),
        "bound": bound,
        "verdict": verdict(p, c, bound),
    }


def summarise(records: dict) -> dict:
    """Per workload, ``compare`` of each end-to-end metric and the failed operations,
    from {workload: {side: [run.py result record, ...]}}."""
    summary = {}
    for wl, sides in records.items():
        summary[wl] = {}
        for m in END_TO_END:
            runs = ([r["metrics"][m["name"]] for r in sides[side]] for side in SIDES)
            summary[wl][m["name"]] = compare(*runs, m["unit"], m["bound"])
        summary[wl]["failed"] = {side: sum(len(r["failures"]) for r in sides[side]) for side in SIDES}
    return summary


def traced_layers(roots: dict, workloads: list, seeds: list, seconds: float) -> dict:
    """Per side and workload, the median of each metric over one ``--trace 1`` run
    per seed, the sides alternating by ``side_order``.  Per-command latencies of
    the other workloads read 0 and are left out."""
    runs = {side: {wl: [] for wl in workloads} for side in SIDES}
    for seed in seeds:
        for wl in workloads:
            for side in side_order(seed):
                runs[side][wl].append(run_one(roots[side], wl, seed, seconds, 1)["metrics"])
    medians = {}
    for side, by_workload in runs.items():
        medians[side] = {}
        for wl, metrics in by_workload.items():
            values = {name: round(statistics.median(m[name] for m in metrics), 6)
                      for name in metrics[0]}
            medians[side][wl] = {name: value for name, value in values.items()
                                 if not (name.startswith("cmd.") and value == 0.0)}
    return medians


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, type=Path, help="checkout of the parent commit")
    parser.add_argument("--change", default=Path("."), type=Path, help="checkout of the change")
    parser.add_argument("--parent-commit", required=True)
    parser.add_argument("--change-note", required=True)
    parser.add_argument("--workloads", default="fine-grid-solve,ode-variants-solve,verify-default,sweep-coarse")
    parser.add_argument("--seeds", required=True, type=seed_list)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--claim", help="WORKLOAD.METRIC the change claims to lower")
    parser.add_argument("--traced-seed", type=seed_list, help="traced runs' seeds, as --seeds")
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    workloads = args.workloads.split(",")

    records = {wl: {side: [] for side in SIDES} for wl in workloads}
    for seed in args.seeds:
        for wl in workloads:
            for side in side_order(seed):
                rec = run_one(roots[side], wl, seed, args.seconds, 0)
                print(f"seed {seed} {wl} {side}: wall_s {rec['metrics']['wall_s']:.4f}", flush=True)
                records[wl][side].append(rec)

    summary = summarise(records)

    command = f"python3 perfbench/run.py --workload W --seed SEED --seconds {args.seconds:g} --trace 0"
    out = {
        "change": args.change_note,
        "parent_commit": args.parent_commit,
        "machine": records[workloads[0]]["change"][-1]["machine"],
        "method": {
            "command": command,
            "workloads": workloads,
            "seeds": args.seeds,
            "order": "alternating: parent first on odd seeds, change first on even seeds",
            "checkouts": "the parent commit and the change's source tree, each in its own"
                         " directory, with identical perfbench/ files",
            "statistics": "median and quartiles (inclusive method) over the runs of each side;"
                          " change_wins counts pairs where the change read lower; verdict"
                          " against the relative bound of each metric in BENCHMARK.json",
            "summariser": "scripts/bench_record.py",
        },
    }
    if args.claim:
        wl, metric = args.claim.split(".", 1)
        row = summary[wl][metric]
        gap = row["parent"]["median"] - row["change"]["median"]
        pairs = len(args.seeds)
        out["claim"] = {
            "metric": args.claim,
            "parent_median": row["parent"]["median"],
            "change_median": row["change"]["median"],
            "change_wins": row["change_wins"],
            "pairs": pairs,
            "median_gap": round(gap, 6),
            "parent_iqr": row["parent_iqr"],
            "met": row["change_wins"] >= 0.9 * pairs and gap > row["parent_iqr"],
        }
    out["workloads"] = summary
    if args.traced_seed:
        out["method"]["traced"] = (f"python3 perfbench/run.py --workload W --seed SEED"
                                   f" --seconds {args.seconds:g} --trace 1 for the seeds"
                                   f" {args.traced_seed}, in the same alternating order;"
                                   " median of each metric per side")
        out["traced"] = traced_layers(roots, workloads, args.traced_seed, args.seconds)
    args.out.write_text(json.dumps(out, indent=2) + "\n")
    for wl, rows in summary.items():
        for name, row in rows.items():
            if name != "failed":
                print(f"{wl}.{name}: {row['verdict']}")
    if "claim" in out:
        print(json.dumps(out["claim"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
