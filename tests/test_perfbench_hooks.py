"""The call sites the benchmark's tracer wraps must exist in the program,
and each workload must still reach the ones it reaches today.

``perfbench/tracing.py`` replaces attributes by name; one that a change to
``src/`` removes makes ``perfbench/run.py --trace 1`` fail, which only the
benchmark's own slow smoke test would otherwise notice.  One the program
keeps but stops calling by that name fails nothing: its span goes silent
and its layer metric reads 0.  The perfbench sources are loaded from their
paths; no test edits them.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    """The perfbench module ``name``, loaded from its path."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses resolve their module by name
    spec.loader.exec_module(module)
    return module


def test_every_traced_site_resolves():
    tracing = _load("tracing")
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

    metrics = _load("tracing").layer_metrics([], 1.0)
    missing = [name for name in equilibrium.SOLVERS if f"equilibrium.solve_s.{name}" not in metrics]
    assert missing == []


_SOLVE_SITES = {
    "cli.build_problem",
    "coeffs.theta_build",
    "equilibrium.solve",
    "equilibrium.y_many",
    "equilibrium.beta_many",
    "equilibrium.control_many",
    "objectives.curvature_sum",
    "objectives.psi",
    "moments.gaussian_penalty_expectation",
}
_REPORT_SITES = {
    "equilibrium.value",
    "equilibrium.self_consistency",
    "verify.verification_report",
    "verify.evaluate_deterministic",
    "verify.spike_test",
    "verify.pde",
    "verify.fbsde",
    "verify.value_consistency",
    "verify.monte_carlo",
}
# The sites each workload's commands reach.  Known silent: ``coeffs.integrate``,
# which no command calls, and ``coeffs.theta_eval``, since node queries read
# node arrays, on every workload; ``equilibrium.solve`` on sweep-coarse, whose
# rows solve through ``cli.solve_many``, which the tracer does not wrap.
_RECORDED = {
    "fine-grid-solve": _SOLVE_SITES,
    "ode-variants-solve": _SOLVE_SITES,
    "verify-default": _SOLVE_SITES | _REPORT_SITES,
    "sweep-coarse": (_SOLVE_SITES - {"equilibrium.solve"}) | {"equilibrium.value"},
}


@pytest.mark.parametrize("workload", sorted(_RECORDED))
def test_every_workload_records_its_sites(workload, tmp_path):
    """A site the program stops calling by its traced name records no span,
    and its layer metric reads 0 without an error: run each workload's smoke
    commands under the tracer and ask for every site it records today."""
    from equicontrol import cli

    tracing, workloads = _load("tracing"), _load("workloads")
    cmds = workloads.commands(workload, 1, smoke=True)
    paths = workloads.write_configs(cmds, tmp_path / "configs")
    tracer = tracing.Tracer(tracing.targets())
    with tracer.installed():
        codes = [cli.main(cmd.argv(path, tmp_path / cmd.name)) for cmd, path in zip(cmds, paths)]
    assert codes == [0] * len(cmds)
    recorded = {span[0] for span in tracer.take()}
    assert sorted(_RECORDED[workload] - recorded) == []
