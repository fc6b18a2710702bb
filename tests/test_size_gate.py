"""Every public entry that takes a grid size or a count checks it the same
way: an integer of at least the entry's minimum, numpy integers included,
and a ValueError that names the argument otherwise."""

import json

import numpy as np
import pytest

from frankmick import (
    CheckerboardDensity,
    FrankParameter,
    SolverConfig,
    SolverReport,
    frank_checkerboard,
    frank_density,
    frank_sample,
    liouville_residual,
    sinkhorn_project,
    solve_mick,
    tau_max_for_grid,
    uniform_checkerboard,
)

P = FrankParameter(3.0)


def is_size(k):
    return isinstance(k, (int, np.integer)) and not isinstance(k, bool) and k >= 1


def cells(k):
    """A uniform k x k mass array, or an empty array where k is no size, so
    that only the size check can reject the call."""
    side = k if is_size(k) else 0
    return np.full((side, side), 1.0 / k**2 if is_size(k) else 0.0)


def density(u, v):
    return frank_density(P, u, v)


# entry -> (call with the size, argument named in the error, least size)
ENTRIES = {
    "SolverConfig.n": (lambda k: SolverConfig(n=k, target_tau=0.0), "n", 1),
    "SolverConfig.max_inner": (
        lambda k: SolverConfig(n=4, target_tau=0.3, max_inner=k), "max_inner", 1
    ),
    "SolverConfig.max_outer": (
        lambda k: SolverConfig(n=4, target_tau=0.3, max_outer=k), "max_outer", 1
    ),
    "frank_checkerboard": (lambda k: frank_checkerboard(P, k), "n", 1),
    "CheckerboardDensity.from_json": (
        lambda k: CheckerboardDensity.from_json(
            json.dumps({"n": k, "masses": cells(k).ravel().tolist()}, default=int)
        ),
        "n",
        1,
    ),
    "CheckerboardDensity": (lambda k: CheckerboardDensity(k, cells(k)), "n", 1),
    "uniform_checkerboard": (uniform_checkerboard, "n", 1),
    "tau_max_for_grid": (tau_max_for_grid, "n", 1),
    "liouville_residual": (lambda k: liouville_residual(density, 6.0, k), "n", 8),
    "frank_sample": (lambda k: frank_sample(P, k, 1), "count", 1),
}

BAD = (0, -1, 2.5, True, "8")


@pytest.mark.parametrize("entry", ENTRIES)
@pytest.mark.parametrize("bad", BAD, ids=repr)
def test_bad_size_names_the_argument(entry, bad):
    call, name, _ = ENTRIES[entry]
    with pytest.raises(ValueError, match=rf"\b{name}\b.* must be an integer"):
        call(bad)


@pytest.mark.parametrize("entry", ENTRIES)
def test_good_sizes_are_accepted(entry):
    call, _, least = ENTRIES[entry]
    call(least)
    call(np.int64(max(least, 3)))


def test_empty_kernel_names_the_square_kernel():
    with pytest.raises(ValueError, match="square kernel"):
        sinkhorn_project(np.ones((0, 0)))


@pytest.mark.parametrize("side", [1, np.int64(3)], ids=repr)
def test_kernel_sides_are_accepted(side):
    board = sinkhorn_project(np.ones((side, side)))
    assert board.n == side


def test_numpy_sized_board_round_trips_through_json():
    board = uniform_checkerboard(np.int64(3))
    assert type(board.n) is int
    back = CheckerboardDensity.from_json(board.to_json())
    assert back.n == 3 and np.array_equal(back.masses, board.masses)


def test_numpy_sized_report_round_trips_through_json():
    cfg = SolverConfig(n=np.int64(8), target_tau=0.3, max_inner=np.int64(5000))
    assert all(type(getattr(cfg, f)) is int for f in ("n", "max_inner", "max_outer"))
    report = solve_mick(cfg)
    obj = json.loads(report.to_json(cfg))
    assert obj["config"]["n"] == 8 and obj["config"]["max_inner"] == 5000
    back = SolverReport.from_json(report.to_json(cfg))
    assert back.state.density.n == 8
    assert np.array_equal(back.state.density.masses, report.state.density.masses)
