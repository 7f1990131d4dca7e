"""Shared solved-case roster exercised by the integration and acceptance tests.

The baseline dynamics are dX = 0.3 u dt + 0.2 u dW on [0, 1] with kappa = 1,
for which the squared risk budget is 2.25; the cosine and frequency-domain
penalties use a smaller drift loading (budget 0.25) to stay inside their
bounded reachable ranges.
"""

import numpy as np

from equicontrol import (
    AmbiguousCos,
    CoefficientSet,
    ConstantCoefficient,
    CoshPenalty,
    CosPenalty,
    DiscreteDistribution,
    ExpPenalty,
    ExponentialCoefficient,
    FourierEvenPenalty,
    MomentCombo,
    ObjectiveSpec,
    StandardizedMoments,
    TimeGrid,
    solve,
)


def base_coeffs(num_steps=512, control_drift=0.3, horizon=1.0):
    grid = TimeGrid(horizon, num_steps)
    return CoefficientSet(
        grid,
        state_drift=ConstantCoefficient(0.0),
        control_drift=ConstantCoefficient(control_drift),
        drift_offset=ConstantCoefficient(0.0),
        control_vol=ConstantCoefficient(0.2),
        vol_offset=ConstantCoefficient(0.0),
    )


def curved_coeffs(num_steps=512):
    grid = TimeGrid(1.0, num_steps)
    return CoefficientSet(
        grid,
        state_drift=ExponentialCoefficient(0.1, 0.5),
        control_drift=ConstantCoefficient(0.3),
        drift_offset=ConstantCoefficient(0.05),
        control_vol=ConstantCoefficient(0.2),
        vol_offset=ConstantCoefficient(0.1),
    )


def fourier_gaussian_amplitude(half_width=12.0, samples=2401):
    """The penalty 1 - E[cos(H x)] with standard normal H, in frequency form:
    a unit atom at zero minus the normal density as the frequency weight."""
    freqs = np.linspace(-half_width, half_width, samples)
    density = -np.exp(-0.5 * freqs**2) / np.sqrt(2.0 * np.pi)
    return FourierEvenPenalty(tuple(freqs), tuple(density), atom=1.0)


def solved_cases(num_steps=512):
    """(name, coefficients, objective, solver) for every supported variant."""
    full = base_coeffs(num_steps)
    small = base_coeffs(num_steps, control_drift=0.1)
    return [
        ("mean_variance", full, ObjectiveSpec(1.0, MomentCombo((2.0,))), "auto"),
        ("variance_kurtosis", full, ObjectiveSpec(1.0, MomentCombo((1.0, 0.0, 1.0))), "auto"),
        ("exp_penalty", full, ObjectiveSpec(1.0, ExpPenalty(1.0)), "auto"),
        ("cosh_penalty", full, ObjectiveSpec(1.0, CoshPenalty(1.0)), "auto"),
        ("cos_penalty", small, ObjectiveSpec(1.0, CosPenalty(1.0)), "auto"),
        (
            "ambiguous_cos",
            full,
            ObjectiveSpec(
                1.0, AmbiguousCos(DiscreteDistribution((1.5, 2.5), (0.5, 0.5)))
            ),
            "auto",
        ),
        ("standardized", full, ObjectiveSpec(1.0, StandardizedMoments((2.0, 1.0))), "ode"),
        ("fourier_even", small, ObjectiveSpec(1.0, fourier_gaussian_amplitude()), "ode"),
        ("curved_exp", curved_coeffs(num_steps), ObjectiveSpec(1.0, ExpPenalty(1.0)), "auto"),
        ("penalty_only", _with_vol_offset(num_steps), ObjectiveSpec(0.0, MomentCombo((2.0,))), "auto"),
    ]


def criterion_02_draws():
    """The 20 random moment combinations of acceptance criterion 02.

    The variance weight is drawn from [0.1, 5] rather than [0, 5]: the
    backward integration starts from y(T) = 0, where the curvature vanishes
    whenever kappa_2 = 0 and the ODE initial value problem is singular.
    """
    rng = np.random.default_rng(20260814)
    draws = []
    for _ in range(20):
        weights = [float(rng.uniform(0.1, 5.0)), 0.0]
        for _ in range((int(rng.integers(0, 4)))):
            even = 0.0 if rng.uniform() < 0.5 else float(rng.uniform(0.0, 5.0))
            weights.extend([even, 0.0])
        draws.append(ObjectiveSpec(1.0, MomentCombo(tuple(weights[:7]))))
    return draws


def _with_vol_offset(num_steps):
    grid = TimeGrid(1.0, num_steps)
    return CoefficientSet(
        grid,
        state_drift=ConstantCoefficient(0.0),
        control_drift=ConstantCoefficient(0.3),
        drift_offset=ConstantCoefficient(0.0),
        control_vol=ConstantCoefficient(0.2),
        vol_offset=ConstantCoefficient(0.1),
    )


def solve_all(num_steps=512):
    return [
        (name, solve(coeffs, spec, solver=solver))
        for name, coeffs, spec, solver in solved_cases(num_steps)
    ]
