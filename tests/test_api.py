"""Snapshot of the public surface.

A change here is a change of the library's API: edit the snapshot on
purpose, and say in CHANGES.md what changed and why.
"""

import inspect
from dataclasses import fields

import frankmick
from frankmick import (
    SolverConfig,
    SolverReport,
    SolverState,
    inner_fixed_point,
    sinkhorn_project,
    solve_mick,
)


def test_all():
    assert frankmick.__all__ == [
        "CheckerboardDensity",
        "FrankParameter",
        "SolverConfig",
        "SolverReport",
        "SolverState",
        "SweepResult",
        "checkerboard_cdf_eval",
        "compare_to_frank",
        "concordance_potential",
        "convergence_sweep",
        "debye_d1",
        "errors",
        "frank_cdf",
        "frank_checkerboard",
        "frank_density",
        "frank_generator",
        "frank_generator_inverse",
        "frank_sample",
        "inner_fixed_point",
        "kendall_tau_checkerboard",
        "liouville_residual",
        "sinkhorn_project",
        "solve_mick",
        "sweep_to_csv",
        "sweep_to_svg",
        "tau_from_theta",
        "tau_max_for_grid",
        "theta_from_tau",
        "uniform_checkerboard",
    ]


def test_solver_signatures():
    # the benchmark traces inner_fixed_point and reads cfg as its third argument
    def params(fn):
        return list(inspect.signature(fn).parameters)

    assert params(solve_mick) == ["cfg"]
    assert params(inner_fixed_point) == ["start", "lambda_d", "cfg", "off_target_exit"]
    assert params(sinkhorn_project) == ["kernel"]
    # the inversion runs to round-off: it has no tolerance to pass
    assert params(frankmick.theta_from_tau) == ["tau"]


def test_solver_fields():
    # the benchmark passes every SolverConfig field by keyword
    def names(cls):
        return [f.name for f in fields(cls)]

    assert names(SolverConfig) == [
        "n",
        "target_tau",
        "tol_tau",
        "tol_fix",
        "max_outer",
        "max_inner",
        "damping",
        "multiplier_init",
    ]
    assert names(SolverState) == [
        "density",
        "multiplier",
        "row_potentials",
        "col_potentials",
    ]
    assert names(SolverReport) == [
        "state",
        "achieved_tau",
        "stationarity_residual",
        "outer_iterations",
        "inner_iterations_total",
        "converged",
        "implied_theta",
    ]


def test_errors():
    # the exception types a caller can catch, with their bases: removing
    # one, or moving it in the hierarchy, breaks an except clause
    exported = {
        name: [base.__name__ for base in cls.__bases__]
        for name, cls in vars(frankmick.errors).items()
        if isinstance(cls, type) and issubclass(cls, Exception)
    }
    assert exported == {
        "FrankMickError": ["Exception"],
        "NonInvertible": ["FrankMickError"],
        "ZeroTau": ["FrankMickError"],
        "NonPositiveDensity": ["FrankMickError"],
        "ThetaOutOfSupport": ["FrankMickError", "ValueError"],
        "GridMismatch": ["FrankMickError"],
        "NotConverged": ["FrankMickError"],
        "DivergenceDetected": ["FrankMickError"],
        "TauInfeasible": ["FrankMickError"],
        "NoConvergence": ["FrankMickError"],
    }
