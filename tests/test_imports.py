"""``solve`` and ``sweep`` load only the code they run.

Each check starts a fresh interpreter, since the test session itself has long
loaded every module.  A moment-combination solve and sweep import neither the
verification suites nor the modules only the suites or package metadata use;
the first ``verify`` loads the suites, and the package's verify names resolve
to the suites' own objects.  Nothing here gates a time.
"""

import json
import math
import subprocess
import sys
import textwrap
from pathlib import Path

import equicontrol

_SRC = str(Path(equicontrol.__file__).resolve().parents[1])
# modules a solve or sweep never uses
_UNUSED = (
    "equicontrol.verify",
    "importlib.metadata",
    "concurrent.futures",
    "numpy.polynomial",
    "numpy.random",
)
_MOMENT6 = {
    "horizon": 1.0,
    "grid_size": 64,
    "coefficients": {"control_drift": 0.3, "control_vol": 0.2},
    "objective": {"variant": "moment_combo", "kappa": 1.0, "weights": [1.0, 0.0, 0.5, 0.0, 0.25]},
    # suite overrides without a seed: parsing them must not load the suites
    "verification": {"pde": False, "monte_carlo": {"num_paths": 1000, "num_steps": 16}},
}


def _run(body: str) -> dict:
    """The JSON that ``body`` prints last, run in a fresh interpreter on this source tree."""
    script = f"import json, sys\nsys.path.insert(0, {_SRC!r})\n" + textwrap.dedent(body)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_solve_and_sweep_load_no_suites(tmp_path):
    cfg = tmp_path / "moment6.json"
    cfg.write_text(json.dumps(_MOMENT6))
    seen = _run(f"""
        import equicontrol.cli as cli

        def loaded():
            return [name for name in {_UNUSED!r} if name in sys.modules]

        cfg, out = {str(cfg)!r}, {str(tmp_path / "out")!r}
        codes = [cli.main(["solve", "--config", cfg, "--out", out]),
                 cli.main(["sweep", "--config", cfg, "--out", out,
                           "--parameter", "kappa_4", "--values", "0.25,0.5"])]
        after_solve = loaded()
        codes.append(cli.main(["verify", "--config", cfg, "--out", out]))
        print(json.dumps({{"codes": codes, "after_solve": after_solve, "after_verify": loaded()}}))
    """)
    assert seen["codes"] == [0, 0, 0]
    assert seen["after_solve"] == []
    assert "equicontrol.verify" in seen["after_verify"]


def test_polynomial_coefficient_solve_loads_no_unused_module(tmp_path):
    """A polynomial coefficient evaluates through ``coeffs.HornerPolynomial``."""
    drift = {"type": "polynomial", "coefficients": [0.3, 0.1, -0.05]}
    config = dict(_MOMENT6, coefficients={"control_drift": drift, "control_vol": 0.2})
    cfg = tmp_path / "polynomial.json"
    cfg.write_text(json.dumps(config))
    seen = _run(f"""
        import equicontrol.cli as cli

        code = cli.main(["solve", "--config", {str(cfg)!r}, "--out", {str(tmp_path / "out")!r}])
        print(json.dumps({{"code": code, "loaded": [n for n in {_UNUSED!r} if n in sys.modules]}}))
    """)
    assert seen == {"code": 0, "loaded": []}


def test_fourier_even_solve_loads_no_polynomial_or_fft(tmp_path):
    """A fourier_even solve reads K and E[S] from Chebyshev tables without
    ``numpy.polynomial`` or ``numpy.fft``; 128 cells are enough to build both."""
    freqs = [-12.0 + k * 0.01 for k in range(2401)]
    objective = {
        "variant": "fourier_even",
        "kappa": 1.0,
        "frequencies": freqs,
        "density": [-math.exp(-0.5 * f * f) / math.sqrt(2.0 * math.pi) for f in freqs],
        "atom": 1.0,
    }
    config = dict(_MOMENT6, grid_size=128, objective=objective, solver="ode")
    config["coefficients"] = {"control_drift": 0.1, "control_vol": 0.2}
    cfg = tmp_path / "fourier.json"
    cfg.write_text(json.dumps(config))
    seen = _run(f"""
        import equicontrol.cli as cli
        from equicontrol import objectives

        built = []
        table = objectives._chebyshev_table

        def recording(*args):
            result = table(*args)
            built.append(result is not None)
            return result

        objectives._chebyshev_table = recording
        code = cli.main(["solve", "--config", {str(cfg)!r}, "--out", {str(tmp_path / "out")!r}])
        unused = ("numpy.polynomial", "numpy.fft")
        print(json.dumps({{"code": code, "built": built,
                          "loaded": [n for n in unused if n in sys.modules]}}))
    """)
    assert seen == {"code": 0, "built": [True, True], "loaded": []}


def test_verify_names_resolve_on_first_access():
    seen = _run("""
        import equicontrol

        eager = "equicontrol.verify" in sys.modules
        namespace = {}
        exec("from equicontrol import *", namespace)
        from equicontrol import verify

        print(json.dumps({
            "eager": eager,
            "missing": [name for name in equicontrol.__all__ if name not in namespace],
            "same": all(getattr(equicontrol, name) is getattr(verify, name)
                        for name in equicontrol._VERIFY_NAMES),
            "monte_carlo": equicontrol.monte_carlo is equicontrol.verify.monte_carlo,
        }))
    """)
    assert seen == {"eager": False, "missing": [], "same": True, "monte_carlo": True}


def test_unknown_attribute_is_an_attribute_error():
    assert not hasattr(equicontrol, "no_such_name")
