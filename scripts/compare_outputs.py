"""Run every benchmark command on two checkouts and compare the files they write.

Run from the repository root, with the parent commit checked out elsewhere
(``git archive <parent> | tar -x -C DIR`` or ``git clone``):

    python3 scripts/compare_outputs.py --parent DIR --seed 3

The change is this script's checkout.  The commands are those of its
``perfbench/workloads.py`` for every workload at the seed (``--smoke``: the
workloads' small sizes), on one set of config files.  Each checkout runs all
of them once, in an interpreter of its own that imports ``equicontrol`` from
that checkout's ``src/``.  Then each command's exit code must match,
``solution.csv``, ``sweep.csv`` and ``verification.json`` byte for byte, and
``manifest.json`` once ``config_path`` and ``outputs`` (paths into each
side's run directory) are removed.  Exits 0 when everything matches; else
names each command and file that differs and exits 1.  A differing
``verification.json`` is named with its kind: "verdicts differ" when a
``passed`` leaf, the set of keys or any other value that is not a number
differs, else "numbers only" with the largest relative change of a number.
Standard library only.
"""

from __future__ import annotations

import argparse
import json
import math
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")
COMPARED = ("solution.csv", "sweep.csv", "verification.json", "manifest.json")
PATH_KEYS = ("config_path", "outputs")
OUT = "<out>"  # stands for the command's output directory in a job's argv

# runs in each checkout's interpreter: argv is src/, the job list and the exit-code file
_CHILD = """
import contextlib, io, json, sys
from pathlib import Path

src = Path(sys.argv[1]).resolve()
sys.path.insert(0, str(src))
import equicontrol.cli as cli

if Path(cli.__file__).resolve().parents[1] != src:
    raise SystemExit(f"imported equicontrol from {cli.__file__}, not {src}")
codes = {}
for name, argv in json.loads(Path(sys.argv[2]).read_text()):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            codes[name] = cli.main(argv)
        except Exception as exc:  # a crash is compared like an exit code
            codes[name] = f"crash {type(exc).__name__}"
Path(sys.argv[3]).write_text(json.dumps(codes))
"""


def jobs(seed: int, smoke: bool, config_dir: Path) -> list:
    """(command name, argv without --out) of every workload's commands, configs written."""
    if str(ROOT / "perfbench") not in sys.path:
        sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    out = []
    for workload in workloads.WORKLOADS:
        cmds = workloads.commands(workload, seed, smoke)
        for cmd, path in zip(cmds, workloads.write_configs(cmds, config_dir)):
            out.append((cmd.name, cmd.argv(path, Path(OUT))))
    return out


def run_side(checkout: Path, job_list: list, out_root: Path) -> dict:
    """Run every job on one checkout; returns {command name: exit code}."""
    out_root.mkdir(parents=True, exist_ok=True)
    argvs = [(name, [str(out_root / name) if a == OUT else a for a in argv])
             for name, argv in job_list]
    job_file, code_file = out_root / "jobs.json", out_root / "exit_codes.json"
    job_file.write_text(json.dumps(argvs))
    argv = [sys.executable, "-c", _CHILD, str(checkout / "src"), str(job_file), str(code_file)]
    subprocess.run(argv, cwd=checkout, check=True, timeout=3600)
    return json.loads(code_file.read_text())


def _content(path: Path) -> bytes:
    if path.name != "manifest.json":
        return path.read_bytes()
    manifest = json.loads(path.read_text())
    for key in PATH_KEYS:
        manifest.pop(key, None)
    return json.dumps(manifest, indent=2, sort_keys=True).encode()


def _largest_change(a, b) -> float | None:
    """The largest relative change between two decoded JSON values that differ
    in numbers only; None if a ``passed`` leaf, the keys or a value that is not
    a number differ."""
    if isinstance(a, dict) and isinstance(b, dict):
        if a.keys() != b.keys():
            return None
        pairs = [(a[k], b[k], k) for k in a]
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return None
        pairs = [(x, y, None) for x, y in zip(a, b)]
    elif any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in (a, b)):
        return 0.0 if a == b else None
    elif a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    else:
        return abs(a - b) / max(abs(a), abs(b)) if math.isfinite(a - b) else math.inf
    largest = 0.0
    for x, y, key in pairs:
        if key == "passed" and x != y:
            return None
        change = _largest_change(x, y)
        if change is None:
            return None
        largest = max(largest, change)
    return largest


def _kind(a: Path, b: Path) -> str:
    """How two differing ``verification.json`` files differ."""
    change = _largest_change(*(json.loads(p.read_text()) for p in (a, b)))
    if change is None:
        return "verdicts differ"
    return f"numbers only, largest relative change {change:.3g}"


def differences(parent: Path, change: Path, names) -> list:
    """'<command>: <file> ...' for every compared file that differs between the run roots."""
    found = []
    for name in names:
        for file in COMPARED:
            a, b = parent / name / file, change / name / file
            if not (a.is_file() or b.is_file()):
                continue
            if a.is_file() != b.is_file():
                side = "parent" if a.is_file() else "change"
                found.append(f"{name}: {file} written by the {side} only")
            elif _content(a) != _content(b):
                kind = f" ({_kind(a, b)})" if file == "verification.json" else ""
                found.append(f"{name}: {file} differs{kind}")
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, type=Path, help="checkout of the parent commit")
    parser.add_argument("--seed", type=int, default=1, help="workload seed")
    parser.add_argument("--smoke", action="store_true", help="the workloads' small sizes")
    parser.add_argument("--work", type=Path, help="run directory to keep (default: temporary)")
    args = parser.parse_args(argv)
    roots = {"parent": args.parent.resolve(), "change": ROOT}

    with tempfile.TemporaryDirectory(prefix="compare-outputs-") as tmp:
        work = args.work.resolve() if args.work else Path(tmp)
        job_list = jobs(args.seed, args.smoke, work / "configs")
        codes = {side: run_side(roots[side], job_list, work / side) for side in SIDES}
        names = [name for name, _ in job_list]
        found = [
            f"{name}: exit {codes['parent'][name]} (parent) against {codes['change'][name]} (change)"
            for name in names
            if codes["parent"][name] != codes["change"][name]
        ]
        found += differences(work / "parent", work / "change", names)
    for line in found:
        print(line)
    print(f"{len(names)} commands, {len(found)} differences")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
