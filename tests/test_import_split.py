"""``scripts/import_split.py`` runs and its parts add up; no time is gated."""

import json
import subprocess
import sys
from pathlib import Path

import equicontrol
import equicontrol.cli

ROOT = Path(__file__).resolve().parents[1]
_SRC = str(Path(equicontrol.__file__).resolve().parents[1])
_CONFIG = {
    "horizon": 1.0,
    "grid_size": 64,
    "coefficients": {"control_drift": 0.3, "control_vol": 0.2},
    "objective": {"variant": "moment_combo", "kappa": 1.0, "weights": [2.0]},
}
_PARTS = ("numpy_s", "own_s", "compile_s", "dataclass_s", "bodies_s")


def test_split_keys_and_sums(tmp_path):
    cfg = tmp_path / "mean_variance.json"
    cfg.write_text(json.dumps(_CONFIG))
    argv = [sys.executable, str(ROOT / "scripts" / "import_split.py"), "--runs", "2",
            "--src", _SRC, "--solve", str(cfg)]
    done = subprocess.run(argv, capture_output=True, text=True, check=True, timeout=300)
    out = json.loads(done.stdout)
    assert set(out) == {"runs", "dont_write_bytecode", "python", "numpy", *_PARTS,
                        "compile_by_module_s", "lines_by_module", "dataclasses", "per_run",
                        "solve_s"}
    assert out["runs"] == len(out["per_run"]) == 2
    assert isinstance(out["dont_write_bytecode"], bool)
    assert "equicontrol.cli" in out["compile_by_module_s"] or not out["dont_write_bytecode"]
    assert set(out["lines_by_module"]) == set(out["compile_by_module_s"])
    if "equicontrol.cli" in out["lines_by_module"]:
        with open(equicontrol.cli.__file__, "rb") as fh:
            assert out["lines_by_module"]["equicontrol.cli"] == len(fh.read().splitlines())
    assert out["solve_s"] > 0.0
    for run in out["per_run"]:
        assert all(run[key] >= 0.0 for key in _PARTS)
        assert run["compile_s"] + run["dataclass_s"] + run["bodies_s"] <= run["own_s"] + 1e-5
