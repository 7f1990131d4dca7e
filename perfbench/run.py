"""Benchmark of the equicontrol command line, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload fine-grid-solve --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

One process drives the program in a closed loop: it calls
``equicontrol.cli.main`` in-process, one command after the other, and repeats
the workload's fixed command list until ``--seconds`` have passed, so the last
pass may end after them.  ``EQUICONTROL_THREADS`` is removed from the environment, so
the program's own thread default applies.  Every command's outputs are
checked against the benchmark's own references after the command returns,
outside the timed region.

With ``--trace 0`` the last line reports the end-to-end metrics:

* ``wall_s``: mean wall time of one pass over the command list;
* ``setup_s``: mean time to import ``equicontrol.cli`` and write the
  workload's configs, over this process and four fresh set-up processes
  started between passes;
* ``peak_rss_mb``: peak resident memory of this process.

With ``--trace 1`` passes alternate untraced and traced; the traced ones wrap
the calls into each module (see ``tracing.py``) and the last line reports the
per-layer metrics listed in ``BENCHMARK.json`` and explained in
``layers.json``.  Commands that fail or fail their check count in ``failed``;
``fail_ratio`` is printed with the other metrics.  The full record (machine,
per-command latencies, failures) and the spans of the first traced pass are
written to ``.perfbench-work/`` at the repository root.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
SETUP_PROBES = 4


def import_program():
    """Import equicontrol.cli from this checkout's sources, never an installed copy."""
    if not (SRC / "equicontrol" / "cli.py").is_file():
        raise SystemExit(f"perfbench: no equicontrol sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import equicontrol.cli as cli

    if Path(cli.__file__).resolve().parents[1] != SRC:
        raise SystemExit(f"perfbench: imported equicontrol from {cli.__file__}, not {SRC}")
    return cli


def set_up(workload: str, seed: int, smoke: bool, config_dir: Path):
    """Import the program and write the configs; returns (cli, commands, paths, seconds)."""
    start = time.perf_counter()
    cli = import_program()
    cmds = workloads.commands(workload, seed, smoke)
    paths = workloads.write_configs(cmds, config_dir)
    return cli, cmds, paths, time.perf_counter() - start


def probe_set_up(args, config_dir: Path) -> float:
    """Time the set-up in a fresh interpreter."""
    argv = [
        sys.executable, str(Path(__file__).resolve()), "--probe-setup", str(config_dir),
        "--workload", args.workload, "--seed", str(args.seed),
    ] + (["--smoke"] if args.smoke else [])
    done = subprocess.run(argv, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def machine_info(env_threads):
    import numpy
    import scipy

    cpu_model = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu_model,
            )
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "equicontrol_threads_env": env_threads,
        # the thread count verify.monte_carlo uses when, as from the CLI, it is given none;
        # read the way the program reads it, after the variable was removed
        "threads_used": max(1, int(os.environ.get("EQUICONTROL_THREADS", "1") or "1")),
    }


def _cpu_seconds():
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


class Runner:
    """Runs passes over a workload's command list and checks every output."""

    def __init__(self, cli, cmds, paths, out_root: Path):
        self.cli = cli
        self.cmds = cmds
        self.paths = paths
        self.out_root = out_root
        self.attempted = 0
        self.failures = []
        self.y0_errors = []
        self.bytes_written = 0
        self._digests = {}

    def run_pass(self, tracer=None):
        """One pass; returns {command name: latency} with the commands' spans in the tracer."""
        latencies = {}
        self.bytes_written = 0
        with tracer.installed() if tracer else contextlib.nullcontext():
            for cmd, config in zip(self.cmds, self.paths):
                out_dir = self.out_root / cmd.name
                shutil.rmtree(out_dir, ignore_errors=True)
                argv = cmd.argv(config, out_dir)
                stdout, stderr = io.StringIO(), io.StringIO()
                error = None
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    start = time.perf_counter()
                    try:
                        if tracer:
                            code = tracer.call("cli.main", self.cli.main, argv)
                        else:
                            code = self.cli.main(argv)
                    except Exception:  # a crash is a failed command, the run goes on
                        code, error = None, traceback.format_exc()
                    latencies[cmd.name] = time.perf_counter() - start
                self.attempted += 1
                self.bytes_written += len(stdout.getvalue().encode()) + sum(
                    p.stat().st_size for p in out_dir.glob("*") if p.is_file()
                )
                if error is None and code != 0:
                    error = f"exit {code}: {stderr.getvalue().strip()}"
                if error is None:
                    error = self._check(cmd, out_dir)
                if error is not None:
                    self.failures.append({"command": cmd.name, "error": error})
        return latencies

    def _check(self, cmd, out_dir: Path):
        try:
            err = cmd.check(out_dir)
        except (workloads.CheckError, OSError, ValueError, KeyError) as exc:
            return f"check: {exc}"
        if err is not None:
            self.y0_errors.append(err)
        solution = out_dir / "solution.csv"
        if solution.is_file():
            digest = hashlib.sha256(solution.read_bytes()).hexdigest()
            if self._digests.setdefault(cmd.name, digest) != digest:
                return "check: solution.csv differs from the first pass's bytes"
        return None


def run(args) -> dict:
    env_threads = os.environ.pop("EQUICONTROL_THREADS", None)
    work = WORK / f"{args.workload}-seed{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    cli, cmds, paths, own_setup = set_up(args.workload, args.seed, args.smoke, work / "configs")
    setup_samples = [own_setup]
    probes = 0 if args.trace else SETUP_PROBES  # setup_s is reported by untraced runs only

    runner = Runner(cli, cmds, paths, work / "out")
    tracer = tracing.Tracer(tracing.targets()) if args.trace else None
    plain, traced, layer_passes, spans = [], [], [], None
    start_wall, start_cpu, probe_s = time.perf_counter(), _cpu_seconds(), 0.0
    while True:
        use_trace = tracer is not None and len(traced) < len(plain)
        latencies = runner.run_pass(tracer if use_trace else None)
        wall = sum(latencies.values())
        if use_trace:
            traced.append(wall)
            pass_spans = tracer.take()
            layer_passes.append(tracing.layer_metrics(pass_spans, wall))
            layer_passes[-1]["cli.bytes_written"] = runner.bytes_written
            spans = spans or pass_spans  # the first traced pass is written out
        else:
            plain.append(latencies)
        # the fresh set-ups are spread over the run, between passes and off its
        # clock, so that they meet the same host speed as the passes
        while len(setup_samples) <= probes and (
            args.smoke
            or time.perf_counter() - start_wall - probe_s
            >= len(setup_samples) * args.seconds / (probes + 1)
        ):
            probe_start = time.perf_counter()
            setup_samples.append(probe_set_up(args, work / f"probe{len(setup_samples)}"))
            probe_s += time.perf_counter() - probe_start
        if tracer is not None and not traced:
            continue
        if args.smoke or time.perf_counter() - start_wall - probe_s >= args.seconds:
            break
    parallelism = (_cpu_seconds() - start_cpu) / (time.perf_counter() - start_wall - probe_s)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # means, not medians: host speed switches between a fast and a slow state,
    # and the median of a run's samples jumps between the two
    wall_s = statistics.fmean(sum(p.values()) for p in plain)
    failed = len(runner.failures)
    if tracer is None:
        metrics = {"wall_s": wall_s, "setup_s": statistics.fmean(setup_samples),
                   "peak_rss_mb": peak_rss_mb}
    else:
        metrics = tracing.median_metrics(layer_passes)
        metrics["trace.overhead_frac"] = statistics.fmean(traced) / wall_s - 1.0
        metrics["accuracy.y0_max_rel_err"] = max(runner.y0_errors, default=0.0)
        for wl in workloads.WORKLOADS:
            for cmd in workloads.commands(wl, args.seed, args.smoke):
                metrics[f"cmd.{cmd.name}_s"] = (
                    statistics.median(p[cmd.name] for p in plain) if wl == args.workload else 0.0
                )
    units = _units()
    machine = machine_info(env_threads)
    machine["cpu_parallelism"] = parallelism
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine,
        "passes": {"untraced": len(plain), "traced": len(traced)},
        "setup_samples_s": setup_samples,
        "command_latencies_s": plain,
        "traced_walls_s": traced,
        "fail_ratio": failed / runner.attempted,
        "failures": runner.failures,
        "metrics": metrics,
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (WORK / f"result-{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    if spans:
        with open(WORK / f"spans-{args.workload}.jsonl", "w") as fh:
            for rec in tracing.span_records(spans):
                fh.write(json.dumps(rec) + "\n")
    shutil.rmtree(work, ignore_errors=True)

    print(f"workload {args.workload} seed {args.seed}: {len(plain)} untraced and"
          f" {len(traced)} traced passes of {len(cmds)} commands")
    print("machine " + json.dumps(machine))
    for failure in runner.failures:
        print(f"FAILED {failure['command']}: {failure['error']}")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units.get(name, '')}")
    print(f"fail_ratio = {failed / runner.attempted:.6g} 1 ({failed} of {runner.attempted})")
    return {
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units.get(name, "")} for name, value in metrics.items()},
    }


def _units():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def run_all(args) -> dict:
    """Every workload in its own process; prints each one's metrics with units."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.WORKLOADS:
        argv = [
            sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ] + (["--smoke"] if args.smoke else [])
        done = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        lines = done.stdout.strip().splitlines()
        print(f"== {workload} (exit {done.returncode})")
        for line in lines[:-1]:
            print("  " + line)
        if done.returncode != 0 or not lines:
            sys.stderr.write(done.stderr)
            raise SystemExit(f"perfbench: workload {workload} exited {done.returncode}")
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            merged["metrics"][f"{workload}.{name}"] = metric
    return merged


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="minimum-size inputs and a single pass, for the smoke test")
    parser.add_argument("--probe-setup", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.probe_setup:
        *_, seconds = set_up(args.workload, args.seed, args.smoke, Path(args.probe_setup))
        print(repr(seconds))
        return 0
    result = run_all(args) if args.workload == "all" else run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
