"""Numpy float scalars are stored as Python floats wherever the library
keeps them: a float32 input then computes in float64, exactly as the same
value given as a Python float, and a config of numpy floats serialises."""

import json

import numpy as np
import pytest

from frankmick import (
    FrankParameter,
    SolverConfig,
    SolverReport,
    solve_mick,
    tau_from_theta,
    theta_from_tau,
)

SCALARS = [np.float32, np.float64, np.float16]


@pytest.mark.parametrize("kind", SCALARS)
@pytest.mark.parametrize("theta", [3.0, -0.5, 40.0])
def test_frank_parameter_computes_in_float64(kind, theta):
    p = FrankParameter(kind(theta))
    assert type(p.theta) is float
    # float32 math gave tau(3) = 0.30724698305130005, not 0.3072469594307238
    assert tau_from_theta(p) == tau_from_theta(FrankParameter(float(kind(theta))))


@pytest.mark.parametrize("kind", SCALARS)
@pytest.mark.parametrize("tau", [0.307, -0.6, 0.9])
def test_theta_from_tau_computes_in_float64(kind, tau):
    got = theta_from_tau(kind(tau)).theta
    assert type(got) is float
    # float32 math gave theta(0.307) = 2.9971706867218018, not 2.9971702869686476
    assert got == theta_from_tau(float(kind(tau))).theta


FLOAT_FIELDS = ("target_tau", "tol_tau", "tol_fix", "damping")


def config(kind, **given):
    """SolverConfig at (16, 0.9) with every float field, and multiplier_init
    where given, passed through kind."""
    values = dict(target_tau=0.9, tol_tau=1e-6, tol_fix=1e-9, damping=0.5, **given)
    return SolverConfig(n=16, **{k: kind(v) for k, v in values.items()})


@pytest.mark.parametrize("given", [{}, {"multiplier_init": 14.0}])
def test_solver_config_computes_in_float64(given):
    cfg32 = config(np.float32, **given)
    cfg = config(lambda v: float(np.float32(v)), **given)  # the same values
    for name in FLOAT_FIELDS + tuple(given):
        assert type(getattr(cfg32, name)) is float
    assert cfg32 == cfg
    # float32 math gave implied theta 56.49005493724813 at (16, 0.9)
    got, want = solve_mick(cfg32), solve_mick(cfg)
    assert got.implied_theta == want.implied_theta
    assert np.array_equal(got.state.density.masses, want.state.density.masses)


def test_numpy_float_config_round_trips_through_json():
    cfg = config(np.float32, multiplier_init=14.0)
    report = solve_mick(cfg)
    obj = json.loads(report.to_json(cfg))
    assert obj["config"]["target_tau"] == float(np.float32(0.9))
    assert obj["config"]["multiplier_init"] == 14.0
    assert SolverConfig(**obj["config"]) == cfg
    back = SolverReport.from_json(report.to_json(cfg))
    assert back.implied_theta == report.implied_theta
    assert np.array_equal(back.state.density.masses, report.state.density.masses)
