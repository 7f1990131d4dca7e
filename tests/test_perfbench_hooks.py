"""The call sites the benchmark's tracer wraps must exist in the program.

``perfbench/tracing.py`` replaces attributes by name; one that a change to
``src/`` removes makes ``perfbench/run.py --trace 1`` fail, which only the
benchmark's own slow smoke test would otherwise notice.
"""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_traced_site_resolves():
    tracing = _load_tracing()
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _, _ in tracing.targets()
        if attr not in owner.__dict__
    ]
    assert missing == []


def test_every_solver_label_has_a_layer_metric():
    """The tracer splits solve time by solver_name into fixed metric keys.

    A label in ``SOLVERS`` without its key would leave that time out of the
    split, and the metric of a renamed label would read 0.
    """
    from equicontrol import equilibrium

    metrics = _load_tracing().layer_metrics([], 1.0)
    missing = [name for name in equilibrium.SOLVERS if f"equilibrium.solve_s.{name}" not in metrics]
    assert missing == []
