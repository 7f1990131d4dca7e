"""Spans around the calls into each equicontrol module, recorded from outside.

The tracer replaces public module-level names and class methods at the
points where the program looks them up (``cli.solve``, ``coeffs.integrate``,
``verify.monte_carlo``, ...), so nothing under ``src/`` changes.  Each call
records one span: name, start, end, parent span and an optional extra value.
Spans stay in memory; the benchmark writes them out when the run ends.  The
originals are restored when the traced pass ends, so untraced passes run the
unmodified program.
"""

from __future__ import annotations

import functools
import statistics
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

LAYERS = ("cli", "equilibrium", "objectives", "moments", "coeffs", "verify")

# spans whose time is reported together; a span nested in another span of the
# same group is not counted twice
_GROUPS = {
    "equilibrium.y_many": "equilibrium.eval_many",
    "equilibrium.beta_many": "equilibrium.eval_many",
    "equilibrium.control_many": "equilibrium.eval_many",
}


def targets():
    """(owner, attribute, span name, extra) for every wrapped call site.

    ``extra(result)`` stores a value on the span: the solver name for solves
    and the path-step count for Monte Carlo runs.
    """
    from equicontrol import cli, coeffs, equilibrium, objectives, verify

    sol = equilibrium.EquilibriumSolution
    quad = coeffs.SuffixQuadrature
    return [
        (cli, "build_problem", "cli.build_problem", None),
        (cli, "solve", "equilibrium.solve", lambda r: r.solver_name),
        (cli, "verification_report", "verify.verification_report", None),
        (sol, "value", "equilibrium.value", None),
        (sol, "y_many", "equilibrium.y_many", None),
        (sol, "beta_many", "equilibrium.beta_many", None),
        (sol, "control_many", "equilibrium.control_many", None),
        (sol, "self_consistency_error", "equilibrium.self_consistency", None),
        (equilibrium, "curvature_sum", "objectives.curvature_sum", None),
        (verify, "curvature_sum", "objectives.curvature_sum", None),
        (equilibrium, "psi", "objectives.psi", None),
        (verify, "psi", "objectives.psi", None),
        (objectives, "gaussian_penalty_expectation", "moments.gaussian_penalty_expectation", None),
        (coeffs, "integrate", "coeffs.integrate", None),
        (quad, "__init__", "coeffs.theta_build", None),
        (quad, "__call__", "coeffs.theta_eval", None),
        (verify, "monte_carlo", "verify.monte_carlo", lambda r: r.num_paths * r.num_steps),
        (verify, "spike_test", "verify.spike_test", None),
        (verify, "evaluate_deterministic", "verify.evaluate_deterministic", None),
        (verify, "pde_residual_check", "verify.pde", None),
        (verify, "fbsde_diagonal_check", "verify.fbsde", None),
        (verify, "value_consistency_check", "verify.value_consistency", None),
    ]


class Tracer:
    """In-memory span recorder; a span is [name, start, end, parent, extra]."""

    def __init__(self, sites):
        self.sites = sites
        self.spans = []
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, *args, extra=None, **kwargs):
        stack = self._stack()
        span = [name, time.perf_counter(), 0.0, stack[-1] if stack else None, None]
        self.spans.append(span)
        stack.append(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            stack.pop()
            span[2] = time.perf_counter()
        if extra is not None:
            span[4] = extra(result)
        return result

    def _wrapper(self, fn, name, extra):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, extra=extra, **kwargs)

        return traced

    @contextmanager
    def installed(self):
        """Wrap every call site for the duration of the block."""
        saved = []
        try:
            for owner, attr, name, extra in self.sites:
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrapper(original, name, extra))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def take(self):
        """Return the spans recorded so far and start a fresh list."""
        spans, self.spans = self.spans, []
        return spans


def summarize(spans):
    """Per-name totals of one traced pass.

    Returns (inclusive seconds, self seconds, calls, extras) keyed by span
    name or group.  Inclusive time skips spans nested in a span of the same
    group, so recursion and method chains are not counted twice.
    """
    child = defaultdict(float)
    for span in spans:
        if span[3] is not None:
            child[id(span[3])] += span[2] - span[1]
    inclusive, self_time, calls = defaultdict(float), defaultdict(float), defaultdict(int)
    extras = defaultdict(list)
    for span in spans:
        name, start, end, parent, extra = span
        group = _GROUPS.get(name, name)
        calls[name] += 1
        self_time[name] += (end - start) - child[id(span)]
        if extra is not None:
            extras[name].append(extra)
        while parent is not None and _GROUPS.get(parent[0], parent[0]) != group:
            parent = parent[3]
        if parent is None:
            inclusive[group] += end - start
            if name == "equilibrium.solve":
                inclusive[f"equilibrium.solve.{extra}"] += end - start
    return inclusive, self_time, calls, extras


def layer_metrics(spans, wall):
    """The per-layer metrics of one traced pass whose commands took ``wall`` seconds."""
    inclusive, self_time, calls, extras = summarize(spans)
    path_steps = sum(extras["verify.monte_carlo"])
    mc_s = inclusive["verify.monte_carlo"]
    # time in a command that no wrapped call below cli.main accounts for
    wrapped = sum(s[2] - s[1] for s in spans if s[3] is not None and s[3][3] is None)
    out = {
        "coeffs.theta_build_s": inclusive["coeffs.theta_build"],
        "coeffs.integrate_calls": calls["coeffs.integrate"],
        "coeffs.integrate_s": inclusive["coeffs.integrate"],
        "equilibrium.solve_s": inclusive["equilibrium.solve"],
        "equilibrium.solve_s.closed_form": inclusive["equilibrium.solve.closed_form"],
        "equilibrium.solve_s.ode": inclusive["equilibrium.solve.ode"],
        "equilibrium.solve_s.algebraic": inclusive["equilibrium.solve.algebraic"],
        "equilibrium.value_calls": calls["equilibrium.value"],
        "equilibrium.value_s": inclusive["equilibrium.value"],
        "equilibrium.eval_many_s": inclusive["equilibrium.eval_many"],
        "equilibrium.self_consistency_s": inclusive["equilibrium.self_consistency"],
        "objectives.curvature_sum_calls": calls["objectives.curvature_sum"],
        "objectives.curvature_sum_s": inclusive["objectives.curvature_sum"],
        "objectives.psi_calls": calls["objectives.psi"],
        "objectives.psi_s": inclusive["objectives.psi"],
        "moments.gaussian_penalty_expectation_s": inclusive["moments.gaussian_penalty_expectation"],
        "verify.monte_carlo_s": mc_s,
        "verify.mc_path_steps": path_steps,
        "verify.mc_ns_per_path_step": 1e9 * mc_s / path_steps if path_steps else 0.0,
        "verify.spike_s": inclusive["verify.spike_test"],
        "verify.evaluate_deterministic_calls": calls["verify.evaluate_deterministic"],
        "verify.pde_s": inclusive["verify.pde"],
        "verify.fbsde_s": inclusive["verify.fbsde"],
        "verify.value_consistency_s": inclusive["verify.value_consistency"],
        "verify.report_self_s": self_time["verify.verification_report"],
        "cli.build_problem_s": inclusive["cli.build_problem"],
        "cli.self_s": self_time["cli.main"],
        "trace.unattributed_frac": (wall - wrapped) / wall,
    }
    by_layer = defaultdict(float)
    for name, seconds in self_time.items():
        by_layer[name.split(".", 1)[0]] += seconds
    for layer in LAYERS:
        out[f"self.{layer}_s"] = by_layer[layer]
    return out


def median_metrics(per_pass):
    """Median of each metric over the traced passes."""
    return {key: statistics.median(m[key] for m in per_pass) for key in per_pass[0]}


def span_records(spans):
    """JSON-ready span list; parents become indices into the list."""
    index = {id(span): i for i, span in enumerate(spans)}
    return [
        {
            "name": name,
            "start": start,
            "end": end,
            "parent": None if parent is None else index[id(parent)],
            "extra": extra,
        }
        for name, start, end, parent, extra in spans
    ]
