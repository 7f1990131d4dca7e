"""Split the import of ``equicontrol.cli`` into numpy, compiling, ``@dataclass`` and the rest.

Run from the repository root:

    python3 scripts/import_split.py --runs 20
    python3 scripts/import_split.py --runs 20 --parent PARENT_CHECKOUT/src --solve CONFIG

Each run is a fresh interpreter.  It first imports the standard-library
modules that ``perfbench/run.py`` holds before it imports the program
(json, argparse, hashlib, pathlib, subprocess, dataclasses), then numpy,
timed alone as ``numpy_s``.  It then wraps ``SourceLoader.source_to_code``,
which compiles a source file (on every import when no bytecode is cached,
as under ``PYTHONDONTWRITEBYTECODE=1``), and ``dataclasses._process_class``,
the work of ``@dataclass``, and times ``import equicontrol.cli`` from
``--src`` as ``own_s``.  ``own_s`` splits into ``compile_s``, by module in
``compile_by_module_s`` beside each module's source lines in
``lines_by_module``, ``dataclass_s``, with the classes processed in
``dataclasses``, and ``bodies_s``, the rest: the module bodies and the
import system's own work.  Every value is the median over the runs, and
``per_run`` holds each run's split.  ``--solve CONFIG`` adds ``solve_s``,
the median wall time of a fresh ``python -m equicontrol.cli solve`` on
that config.  ``--parent SRC`` measures a second source tree in turn with
the first, run by run and each side first in every other run, so that
drift of the host falls on both; its split goes under ``parent``, and
``own_ratio`` is ``own_s`` over the parent's.  Standard library only;
prints one JSON object.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# what one fresh interpreter runs; it prints its split as JSON
_PROBE = """
import json, argparse, hashlib, pathlib, subprocess, dataclasses, sys, time
from importlib import _bootstrap_external

start = time.perf_counter()
import numpy
numpy_s = time.perf_counter() - start

compiled, lines, processed = {}, {}, []

def timed_compile(self, data, path, *args, **kwargs):
    lines[self.name] = len(data.splitlines())
    start = time.perf_counter()
    try:
        return to_code(self, data, path, *args, **kwargs)
    finally:
        compiled[self.name] = compiled.get(self.name, 0.0) + time.perf_counter() - start

def timed_class(cls, *args, **kwargs):
    start = time.perf_counter()
    try:
        return process(cls, *args, **kwargs)
    finally:
        processed.append((cls.__qualname__, time.perf_counter() - start))

to_code = _bootstrap_external.SourceLoader.source_to_code
process = dataclasses._process_class
_bootstrap_external.SourceLoader.source_to_code = timed_compile
dataclasses._process_class = timed_class
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
import equicontrol.cli
own_s = time.perf_counter() - start
compile_s = sum(compiled.values())
dataclass_s = sum(t for _, t in processed)
print(json.dumps({
    "numpy_s": numpy_s,
    "own_s": own_s,
    "compile_s": compile_s,
    "compile_by_module_s": compiled,
    "lines_by_module": lines,
    "dataclass_s": dataclass_s,
    "dataclasses": [name for name, _ in processed],
    "bodies_s": own_s - compile_s - dataclass_s,
    "dont_write_bytecode": bool(sys.flags.dont_write_bytecode),
    "numpy": numpy.__version__,
}))
"""


def probe(src: Path) -> dict:
    done = subprocess.run([sys.executable, "-c", _PROBE, str(src)], capture_output=True,
                          text=True, check=True, timeout=120)
    return json.loads(done.stdout.strip().splitlines()[-1])


def solve_seconds(src: Path, config: Path, out_dir: str) -> float:
    """Wall time of one fresh ``python -m equicontrol.cli solve`` on ``config``."""
    argv = [sys.executable, "-m", "equicontrol.cli", "solve", "--config", str(config),
            "--out", out_dir]
    start = time.perf_counter()
    subprocess.run(argv, cwd=src, capture_output=True, check=True, timeout=120)
    return time.perf_counter() - start


def split(runs: list) -> dict:
    """Medians over the runs' splits, with every run's split kept."""
    modules = sorted({m for r in runs for m in r["compile_by_module_s"]})
    return {
        "runs": len(runs),
        "dont_write_bytecode": runs[0]["dont_write_bytecode"],
        "python": sys.version.split()[0],
        "numpy": runs[0]["numpy"],
        **{key: round(statistics.median(r[key] for r in runs), 6)
           for key in ("numpy_s", "own_s", "compile_s", "dataclass_s", "bodies_s")},
        "compile_by_module_s": {
            m: round(statistics.median(r["compile_by_module_s"].get(m, 0.0) for r in runs), 6)
            for m in modules
        },
        "lines_by_module": {m: runs[0]["lines_by_module"].get(m, 0) for m in modules},
        "dataclasses": runs[0]["dataclasses"],
        "per_run": [{key: round(r[key], 6) for key in ("numpy_s", "own_s", "compile_s",
                                                      "dataclass_s", "bodies_s")}
                    for r in runs],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=20, help="fresh interpreters per measurement")
    parser.add_argument("--src", type=Path, default=SRC, help="the sources to import from")
    parser.add_argument("--parent", type=Path, metavar="SRC",
                        help="another tree's sources, measured in turn with --src")
    parser.add_argument("--solve", type=Path, metavar="CONFIG",
                        help="also time fresh solve commands on this config")
    args = parser.parse_args(argv)
    sides = {"src": args.src.resolve()}
    if args.parent:
        sides["parent"] = args.parent.resolve()

    def in_turn(measure) -> dict:
        """{side: [measure(its sources) per run]}, the first side alternating."""
        runs = {side: [] for side in sides}
        for i in range(args.runs):
            for side in list(sides)[:: 1 if i % 2 else -1]:
                runs[side].append(measure(sides[side]))
        return runs

    splits = {side: split(runs) for side, runs in in_turn(probe).items()}
    if args.solve:
        with tempfile.TemporaryDirectory() as out_dir:
            solves = in_turn(lambda src: solve_seconds(src, args.solve.resolve(), out_dir))
        for side, times in solves.items():
            splits[side]["solve_s"] = round(statistics.median(times), 6)
    out = splits["src"]
    if args.parent:
        out["parent"] = splits["parent"]
        out["own_ratio"] = round(out["own_s"] / out["parent"]["own_s"], 4)
    print(json.dumps(out, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
