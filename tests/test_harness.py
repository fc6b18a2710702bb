import numpy as np
import pytest

from frankmick import (
    FrankParameter,
    SolverConfig,
    compare_to_frank,
    convergence_sweep,
    frank_checkerboard,
    solve_mick,
    sweep_to_csv,
    sweep_to_svg,
)
from frankmick import harness
from frankmick.errors import GridMismatch


@pytest.fixture(scope="module")
def sweep_0307():
    return convergence_sweep(
        0.307, [4, 8, 16], SolverConfig(n=4, target_tau=0.307, tol_tau=1e-8)
    )


class TestCompareToFrank:
    def test_identical_is_zero(self):
        report = solve_mick(SolverConfig(n=8, target_tau=0.0))
        # compare the Frank board against itself through a fake report
        from frankmick.mick_solver import SolverReport, SolverState

        board = frank_checkerboard(FrankParameter(3.0), 8)
        state = SolverState(board, 0.75, np.zeros(8), np.zeros(8))
        fake = SolverReport(state, 0.307, 0.0, 0, 0, True, 3.0)
        assert compare_to_frank(fake, FrankParameter(3.0)) == 0.0
        assert report is not None

    def test_grid_mismatch(self):
        from frankmick.harness import sup_mass_difference

        a = frank_checkerboard(FrankParameter(3.0), 8)
        b = frank_checkerboard(FrankParameter(3.0), 16)
        with pytest.raises(GridMismatch):
            sup_mass_difference(a, b)

    def test_misspecified_theta_is_worse(self):
        report = solve_mick(SolverConfig(n=8, target_tau=0.307))
        matched = compare_to_frank(report, FrankParameter(3.0))
        mismatched = compare_to_frank(report, FrankParameter(2.0))
        assert 0.0 < matched < mismatched


class TestConvergenceSweep:
    def test_errors_strictly_decreasing(self, sweep_0307):
        assert sweep_0307.grid_sizes == [4, 8, 16]
        assert not sweep_0307.failures
        errs = sweep_0307.sup_errors
        assert all(e > 0 for e in errs)
        assert errs[0] > errs[1] > errs[2]

    def test_zero_tau_all_within_tolerance(self):
        result = convergence_sweep(
            0.0, [4, 8], SolverConfig(n=4, target_tau=0.0)
        )
        assert all(e <= 1e-9 for e in result.sup_errors)

    def test_subnormal_tau_solves_every_grid(self):
        # theta(1e-320) is subnormal: its boards are those at theta = 1e-300,
        # independence to round-off (the sweep raised ValueError)
        result = convergence_sweep(
            1e-320, [4, 8], SolverConfig(n=4, target_tau=1e-320)
        )
        assert result.grid_sizes == [4, 8] and not result.failures
        assert all(e <= 1e-15 for e in result.sup_errors)

    def test_mirror_symmetry(self, sweep_0307):
        mirrored = convergence_sweep(
            -0.307, [4, 8, 16], SolverConfig(n=4, target_tau=-0.307, tol_tau=1e-8)
        )
        for a, b in zip(sweep_0307.sup_errors, mirrored.sup_errors):
            assert a == pytest.approx(b, abs=1e-6)

    def test_rejects_unsorted_grids(self):
        with pytest.raises(ValueError):
            convergence_sweep(0.3, [8, 4], SolverConfig(n=4, target_tau=0.3))

    def test_failures_flagged_not_raised(self):
        # tau beyond the coarse grid's reach fails there but not at n=16
        tau = 0.82
        result = convergence_sweep(
            tau, [2, 16], SolverConfig(n=2, target_tau=tau)
        )
        assert 2 in result.failures
        assert "TauInfeasible" in result.failures[2]
        assert result.grid_sizes == [16]

    def test_theta_out_of_support_flagged_not_raised(self):
        # theta(0.93) ~ 55: n = 8 cannot reach the tau, n = 16 solves and
        # is compared with the Frank checkerboard
        result = convergence_sweep(0.93, [8, 16], SolverConfig(n=8, target_tau=0.93))
        assert result.grid_sizes == [16]
        assert np.isfinite(result.sup_errors[0]) and result.sup_errors[0] > 0.0
        assert "TauInfeasible" in result.failures[8]
        assert 16 not in result.failures

    def test_theta_beyond_board_support_fails_without_solving(self, monkeypatch):
        # theta(0.99) > THETA_SUPPORT: no reference board, so no solve
        calls = []
        solve = harness.solve_mick
        monkeypatch.setattr(
            harness, "solve_mick", lambda cfg: calls.append(cfg) or solve(cfg)
        )
        result = convergence_sweep(
            0.99, [128, 256], SolverConfig(n=128, target_tau=0.99)
        )
        assert calls == []
        assert result.grid_sizes == [] and sorted(result.failures) == [128, 256]
        assert all(
            msg.startswith("ThetaOutOfSupport") for msg in result.failures.values()
        )
        assert sweep_to_svg(result).startswith("<svg")

    def test_repeated_sweep_identical(self, sweep_0307):
        again = convergence_sweep(
            0.307, [4, 8, 16], SolverConfig(n=4, target_tau=0.307, tol_tau=1e-8)
        )
        assert again.sup_errors == sweep_0307.sup_errors


class TestEmitters:
    def test_csv_format(self, sweep_0307):
        text = sweep_to_csv(sweep_0307)
        lines = text.strip().splitlines()
        assert lines[0] == "n,sup_error,achieved_tau,implied_theta,converged"
        assert len(lines) == 4
        for line, n in zip(lines[1:], (4, 8, 16)):
            parts = line.split(",")
            assert int(parts[0]) == n
            assert float(parts[1]) >= 0.0
            assert parts[4] == "true"

    def test_csv_round_trip_precision(self, sweep_0307):
        text = sweep_to_csv(sweep_0307)
        for line, err, rep in zip(
            text.strip().splitlines()[1:],
            sweep_0307.sup_errors,
            sweep_0307.per_run_reports,
        ):
            parts = line.split(",")
            assert float(parts[1]) == err
            assert float(parts[2]) == rep.achieved_tau
            assert float(parts[3]) == rep.implied_theta

    def test_svg_is_pure_function(self, sweep_0307):
        a = sweep_to_svg(sweep_0307)
        b = sweep_to_svg(sweep_0307)
        assert a == b
        assert a.startswith("<svg") and a.rstrip().endswith("</svg>")
        assert "polyline" in a
