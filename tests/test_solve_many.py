"""``solve_many`` against ``solve`` on each problem alone.

Problems that share one first integral P are inverted in one batch; the
inversion is elementwise, so every solution must carry the bits ``solve``
gives its problem, and a failing batch must raise what the first failing
problem raises alone.
"""

import dataclasses
import math
from functools import cached_property

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equicontrol import (
    AmbiguousCos,
    CosPenalty,
    CoshPenalty,
    DiscreteDistribution,
    EquicontrolError,
    ExpPenalty,
    MomentCombo,
    ObjectiveSpec,
    RootBracketError,
    StandardizedMoments,
    solve,
    solve_many,
)
from equicontrol import equilibrium

from cases import base_coeffs, curved_coeffs, fourier_gaussian_amplitude

# grids of 8 to 33 steps on horizons 0.5 to 2, some with curved coefficients
COEFFS = [
    base_coeffs(8, control_drift=0.1, horizon=0.5),
    base_coeffs(16, control_drift=0.3, horizon=1.0),
    base_coeffs(33, control_drift=0.05, horizon=2.0),
    base_coeffs(16, control_drift=0.1, horizon=1.0),
    curved_coeffs(16),
]
SUPPORTS = [((1.5, 2.5), (0.5, 0.5)), ((0.0, 0.7, 1.5, 2.5, 4.0), (0.1, 0.2, 0.3, 0.2, 0.2))]


def alone(problems, solver):
    """``solve`` on each problem in turn, up to the first error: (solutions, error or None)."""
    solutions = []
    for coeffs, spec in problems:
        try:
            solutions.append(solve(coeffs, spec, solver))
        except EquicontrolError as exc:
            return solutions, exc
    return solutions, None


def assert_same_as_alone(problems, solver="auto"):
    expect, error = alone(problems, solver)
    if error is not None:
        with pytest.raises(type(error)) as got:
            solve_many(problems, solver)
        assert str(got.value) == str(error)
        return
    got = solve_many(problems, solver)
    assert len(got) == len(expect)
    for g, e in zip(got, expect):
        assert g.solver_name == e.solver_name
        for field in ("y", "beta", "margins"):
            assert getattr(g, field).tobytes() == getattr(e, field).tobytes(), field


@st.composite
def moment_combos(draw):
    """Orders 2 to 8: explicit inverses up to order four, root solves above."""
    order = draw(st.integers(2, 8))
    weights = [draw(st.floats(0.0, 2.0) if j % 2 == 0 else st.floats(-1.0, 1.0)) for j in range(2, order + 1)]
    weights[0] = draw(st.floats(0.1, 2.0))
    return MomentCombo(tuple(weights))


VARIANTS = st.one_of(
    moment_combos(),
    st.builds(
        lambda cls, c: cls(c), st.sampled_from([ExpPenalty, CoshPenalty, CosPenalty]), st.floats(0.3, 2.0)
    ),
    st.builds(lambda law: AmbiguousCos(DiscreteDistribution(*law)), st.sampled_from(SUPPORTS)),
    st.builds(lambda w: StandardizedMoments((w, 0.5)), st.floats(0.5, 2.0)),
)


@st.composite
def batches(draw):
    """Problems drawn from a pool of up to three variants, so that several share P."""
    pool = draw(st.lists(VARIANTS, min_size=1, max_size=3))
    picks = st.tuples(
        st.integers(0, len(COEFFS) - 1),
        st.integers(0, len(pool) - 1),
        st.sampled_from([0.0, 0.5, 1.0, 1.7]),
    )
    chosen = draw(st.lists(picks, min_size=1, max_size=8))
    return [(COEFFS[c], ObjectiveSpec(kappa, pool[v])) for c, v, kappa in chosen]


class TestSameBitsAsAlone:
    @given(problems=batches(), solver=st.sampled_from(["auto", "closed_form", "algebraic"]), data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_random_batches(self, problems, solver, data):
        assert_same_as_alone(problems, solver)
        shuffled = data.draw(st.permutations(problems))
        assert_same_as_alone(shuffled, solver)

    def test_one_root_solve_per_shared_p(self, monkeypatch):
        calls = []
        original = equilibrium._solve_increasing_many

        def counting(fn, dfn, targets):
            calls.append(np.size(targets))
            return original(fn, dfn, targets)

        monkeypatch.setattr(equilibrium, "_solve_increasing_many", counting)
        order6 = MomentCombo((1.0, 0.0, 0.5, 0.0, 0.25))
        ambiguous = AmbiguousCos(DiscreteDistribution(*SUPPORTS[1]))
        problems = [
            (COEFFS[0], ObjectiveSpec(1.0, order6)),
            (COEFFS[1], ObjectiveSpec(1.0, ambiguous)),
            (COEFFS[2], ObjectiveSpec(0.5, order6)),
            (COEFFS[1], ObjectiveSpec(1.0, ExpPenalty(1.0))),
            (COEFFS[3], ObjectiveSpec(1.0, ambiguous)),
            (COEFFS[4], ObjectiveSpec(1.7, order6)),
        ]
        solve_many(problems)
        # 9 + 34 + 17 nodes for order 6, 17 + 17 for ambiguous_cos; exp inverts explicitly
        assert sorted(calls) == [34, 60]

    def test_ode_problems_march_in_their_turn(self):
        fourier = ObjectiveSpec(1.0, fourier_gaussian_amplitude())
        small = base_coeffs(16, control_drift=0.1)
        problems = [
            (small, ObjectiveSpec(1.0, CosPenalty(1.0))),
            (small, fourier),
            (COEFFS[2], ObjectiveSpec(1.0, CosPenalty(1.0))),
        ]
        assert [s.solver_name for s in solve_many(problems)] == ["closed_form", "ode", "closed_form"]
        assert_same_as_alone(problems)
        assert_same_as_alone(problems, "ode")

    def test_empty(self):
        assert solve_many([]) == []


@dataclasses.dataclass(frozen=True)
class UncheckedCos(CosPenalty):
    """cos with its reachable range unchecked and no explicit inverse: a budget
    of one or more reaches the root solve, which cannot bracket it."""

    kind = "unchecked_cos"

    @cached_property
    def first_integral(self):
        p = super().first_integral
        return dataclasses.replace(p, inverse=None, supremum=math.inf, error=RootBracketError)


class TestFailures:
    """A batch fails as its first failing problem fails alone."""

    def test_bracket_failure_names_its_own_target(self):
        variant = UncheckedCos(1.0)
        # budgets 0.25 T: T = 6 and T = 8 have no root
        problems = [
            (base_coeffs(16, control_drift=0.1, horizon=horizon), ObjectiveSpec(1.0, variant))
            for horizon in (1.0, 6.0, 8.0)
        ]
        with pytest.raises(RootBracketError, match="target 1.5$"):
            solve_many(problems)
        assert_same_as_alone(problems)
        assert_same_as_alone(problems[::-1])

    def test_earlier_failure_wins_over_a_later_budget_error(self):
        variant = UncheckedCos(1.0)
        problems = [
            (base_coeffs(16, control_drift=0.1, horizon=1.0), ObjectiveSpec(1.0, variant)),
            (base_coeffs(16, control_drift=0.1, horizon=6.0), ObjectiveSpec(1.0, variant)),
            (base_coeffs(16, control_drift=0.1, horizon=8.0), ObjectiveSpec(1.0, CosPenalty(1.0))),
        ]
        with pytest.raises(RootBracketError):
            solve_many(problems)
        assert_same_as_alone(problems)
        assert_same_as_alone([problems[2], *problems[:2]])

    def test_unsupported_solver_fails_in_turn(self):
        problems = [
            (COEFFS[1], ObjectiveSpec(1.0, UncheckedCos(1.0))),
            (COEFFS[1], ObjectiveSpec(1.0, MomentCombo((1.0, 0.0, 0.5, 0.0, 0.25)))),
        ]
        assert_same_as_alone(problems, "closed_form")
        assert_same_as_alone(problems, "algebraic")
