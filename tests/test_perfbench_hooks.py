"""The call sites the benchmark's tracer wraps must exist in the program.

``perfbench/tracing.py`` replaces attributes by name; one that a change to
``src/`` removes makes ``perfbench/run.py --trace 1`` fail, which only the
benchmark's own slow smoke test would otherwise notice.
"""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_site_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _, _ in tracing.targets()
        if attr not in owner.__dict__
    ]
    assert missing == []
