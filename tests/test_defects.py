"""A standing defect matrix: which verification suites catch which defect.

Each defect is injected into three ``ode`` solutions: variance and kurtosis
and mean-variance on ``curved_coeffs(512)``, and the exponential penalty on
``base_coeffs(512)``.  The report then runs every suite (spike, fbsde, pde,
and Monte Carlo at 40,000 paths x 256 steps, so the file stays fast).  Two
things are asserted per defect and config: the report fails, and exactly the
suites in ``EXPECTED`` fail.  A change that weakens a suite turns its row
red; a change that makes a suite catch more must update the row.

The defects:

* K x 1.01: every family's ``curvature`` and ``curvature_scalar``, patched
  on the class that defines them (the exponential family's live on
  ``_ExponentialPenalty``), during both the solve and the report;
* beta x 1.001, y x 1.001 and margins x 1.01 on the solved arrays;
* int a x 1.05: ``CoefficientSet.int_a_many`` scaled for the solver and the
  suites alike.  The state drift of ``base_coeffs`` is zero, so this row
  covers the two curved configs only.

The matrix prints with ``pytest -s``.
"""

import dataclasses

import pytest

from equicontrol import CoefficientSet, ExpPenalty, MomentCombo, ObjectiveSpec, solve
from equicontrol import objectives
from equicontrol.verify import verification_report

from cases import base_coeffs, curved_coeffs

CONFIGS = {
    "variance_kurtosis": (curved_coeffs, MomentCombo((1.0, 0.0, 1.0))),
    "mean_variance": (curved_coeffs, MomentCombo((2.0,))),
    "exp": (base_coeffs, ExpPenalty(1.0)),
}

SUITES = (
    "integral_equation",
    "self_consistency",
    "concavity",
    "value_consistency",
    "spike",
    "fbsde",
    "pde",
    "monte_carlo",
)

# the suites that fail under each defect, per config
EXPECTED = {
    "K x 1.01": {config: {"spike"} for config in CONFIGS},
    "beta x 1.001": {
        config: {"integral_equation", "self_consistency", "value_consistency", "pde"}
        for config in CONFIGS
    },
    "y x 1.001": {
        "variance_kurtosis": {"self_consistency", "value_consistency", "fbsde", "pde"},
        "mean_variance": {"self_consistency", "value_consistency", "pde"},
        "exp": {"self_consistency", "value_consistency", "fbsde", "pde", "monte_carlo"},
    },
    "margins x 1.01": {config: {"integral_equation", "fbsde"} for config in CONFIGS},
    "int a x 1.05": {
        "variance_kurtosis": {"pde", "monte_carlo"},
        "mean_variance": {"pde", "monte_carlo"},
    },
}


def _scaled(function, factor):
    def scaled(*args, **kwargs):
        return factor * function(*args, **kwargs)

    return scaled


def _patch_curvature(monkeypatch):
    families = [objectives.Variant]
    while families:
        cls = families.pop()
        families.extend(cls.__subclasses__())
        for name in ("curvature", "curvature_scalar"):
            if name in cls.__dict__:
                monkeypatch.setattr(cls, name, _scaled(cls.__dict__[name], 1.01))


def _patch_int_a(monkeypatch):
    monkeypatch.setattr(
        CoefficientSet, "int_a_many", _scaled(CoefficientSet.int_a_many, 1.05)
    )


def _replaced(field, factor):
    return lambda sol: dataclasses.replace(sol, **{field: factor * getattr(sol, field)})


# defect name -> (patch applied before the solve, change to the solution, configs)
DEFECTS = {
    "K x 1.01": (_patch_curvature, None, tuple(CONFIGS)),
    "beta x 1.001": (None, _replaced("beta", 1.001), tuple(CONFIGS)),
    "y x 1.001": (None, _replaced("y", 1.001), tuple(CONFIGS)),
    "margins x 1.01": (None, _replaced("margins", 1.01), tuple(CONFIGS)),
    "int a x 1.05": (_patch_int_a, None, ("variance_kurtosis", "mean_variance")),
}

CASES = [(defect, config) for defect, (_, _, configs) in DEFECTS.items() for config in configs]


def _failing_suites(defect, config, monkeypatch):
    patch, change, _ = DEFECTS[defect]
    if patch is not None:
        patch(monkeypatch)
    coeffs, variant = CONFIGS[config]
    sol = solve(coeffs(512), ObjectiveSpec(1.0, variant), solver="ode")
    if change is not None:
        sol = change(sol)
    report = verification_report(
        sol,
        spike={},
        fbsde={},
        pde={},
        monte_carlo_cfg={"num_paths": 40_000, "num_steps": 256},
    )
    return report["passed"], {suite for suite in SUITES if not report[suite]["passed"]}


@pytest.fixture(scope="module")
def matrix():
    rows = {}
    with pytest.MonkeyPatch.context() as monkeypatch:
        for defect, config in CASES:
            rows[defect, config] = _failing_suites(defect, config, monkeypatch)
            monkeypatch.undo()
    width = max(len(defect) for defect in DEFECTS)
    print()
    for (defect, config), (_, failing) in rows.items():
        names = ", ".join(suite for suite in SUITES if suite in failing) or "none"
        print(f"{defect:<{width}}  {config:<17}  {names}")
    return rows


@pytest.mark.parametrize("defect, config", CASES, ids=[f"{d}-{c}" for d, c in CASES])
def test_defect_is_caught_by_the_same_suites(matrix, defect, config):
    passed, failing = matrix[defect, config]
    assert not passed
    assert failing == EXPECTED[defect][config]
