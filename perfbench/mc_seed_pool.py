"""Re-derive ``workloads.MC_SEEDS``, the Monte Carlo seeds of verify-default.

The Monte Carlo check of ``equicontrol verify`` passes when the terminal mean
and central moments lie within 3 standard errors of their targets, so a
random seed misses it about once in a hundred runs.  This script walks seeds
upward from ``MC_SEEDS[0]`` and keeps the first ``len(MC_SEEDS)`` on which
every band of both verify-default configs stays within ``MC_SEED_MARGIN``
standard errors, at kappa = 0.9, 1.0 and 1.1 (the ends and middle of the
jitter range) and at both full and smoke size.  Only the Monte Carlo suite
runs; the other suites do not depend on the seed.

    python3 perfbench/mc_seed_pool.py
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil

import run
import workloads


def worst_band(cli, cmd, kappa: float, seed: int, work) -> float:
    """Largest |estimate - target| / standard error of one verify run."""
    config = json.loads(json.dumps(cmd.config))
    config["objective"]["kappa"] = kappa
    mc = config.get("verification", {}).get("monte_carlo", True)
    config["verification"] = {"spike": False, "fbsde": False, "pde": False, "monte_carlo": mc}
    path = work / f"{cmd.name}.json"
    path.write_text(json.dumps(config))
    out = work / cmd.name
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["verify", "--config", str(path), "--out", str(out), "--seed", str(seed)])
    report = json.loads((out / "verification.json").read_text())["monte_carlo"]
    bands = [abs(report["mean_estimate"] - report["mean_target"]) / report["mean_std_error"]]
    bands += [abs(r["estimate"] - r["target"]) / r["std_error"] for r in report["rows"]]
    return max(bands)


def main() -> None:
    cli = run.import_program()
    work = run.WORK / "mc-seed-pool"
    work.mkdir(parents=True, exist_ok=True)
    pool, seed = [], workloads.MC_SEEDS[0]
    while len(pool) < len(workloads.MC_SEEDS):
        worst = max(
            worst_band(cli, cmd, kappa, seed, work)
            for smoke in (False, True)
            for cmd in workloads.commands("verify-default", 0, smoke)
            for kappa in (0.9, 1.0, 1.1)
        )
        print(f"seed {seed}: worst band {worst:.3f} standard errors", flush=True)
        if worst <= workloads.MC_SEED_MARGIN:
            pool.append(seed)
        seed += 1
    shutil.rmtree(work)
    print("MC_SEEDS = " + repr(tuple(pool)))


if __name__ == "__main__":
    main()
