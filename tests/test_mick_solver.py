import json
import math
import time
from dataclasses import fields, replace
from functools import lru_cache
from itertools import takewhile
from pathlib import Path

import numpy as np
import pytest

from frankmick import (
    CheckerboardDensity,
    FrankParameter,
    SolverConfig,
    SolverReport,
    SolverState,
    inner_fixed_point,
    kendall_tau_checkerboard,
    sinkhorn_project,
    frank_checkerboard,
    solve_mick,
    tau_max_for_grid,
    theta_from_tau,
    uniform_checkerboard,
)
from frankmick.concordance import _potential_from_masses
from frankmick import copula_core, mick_solver
from frankmick.copula_core import MARGINAL_TOL, THETA_SUPPORT
from frankmick.errors import (
    DivergenceDetected,
    GridMismatch,
    NoConvergence,
    NotConverged,
    TauInfeasible,
)

from _oracles import (
    additive_fit_residual,
    brute_potential,
    damped_fixed_point,
    discrete_liouville_residual,
    frank_tau_slope_mp,
    newton_block_step,
    projected_gradient_mick,
    random_feasible_with_tau,
    reference_board_csv,
    reference_board_json,
    reference_report_json,
    reference_sinkhorn,
    sinkhorn_sweeps,
)

README = Path(__file__).resolve().parents[1] / "README.md"


def record_calls(monkeypatch, name, owner=mick_solver):
    """Wrap owner.name through monkeypatch; returns the list of (args,
    result) of the calls made through it."""
    calls = []
    original = getattr(owner, name)

    def recorded(*args, **kwargs):
        calls.append((args, original(*args, **kwargs)))
        return calls[-1][1]

    monkeypatch.setattr(owner, name, recorded)
    return calls


#: The solver's pinned work: each row maps a computation to (evaluations,
#: projections), the outer_iterations and inner_iterations_total of its
#: reports, summed:
#: - ("solve", n, tau, multiplier_init, tol_tau): solve_mick;
#: - ("inner", n, tau): inner_fixed_point from the uniform board at
#:   theta(tau) / 4;
#: - ("bridge", n, tau, tol_tau): bridge_evaluation, without the off-target
#:   exit;
#: - ("scan", tol_tau): the 75 SCAN_POINTS.
#: ("layers",) maps to the calls of _sinkhorn, _newton_finish and
#: _newton_direction in high_tau_projection_calls.  test_pinned_work checks
#: every row, and README's "Measured work" table shows the solve and scan rows.
WORK = {
    # the benchmark's sweep_mid grids
    ("solve", 4, 0.307, "auto", 1e-6): (4, 9),
    ("solve", 8, 0.307, "auto", 1e-6): (3, 7),
    ("solve", 16, 0.307, "auto", 1e-6): (2, 6),
    ("solve", 32, 0.307, "auto", 1e-6): (2, 5),
    ("solve", 64, 0.307, "auto", 1e-6): (1, 3),
    ("solve", 128, 0.307, "auto", 1e-6): (1, 2),
    ("solve", 256, 0.307, "auto", 1e-6): (1, 0),
    # the benchmark's solve_high_tau points, and a finer grid at high tau
    ("solve", 16, 0.9, "auto", 1e-6): (5, 20),
    ("solve", 32, 0.95, "auto", 1e-6): (4, 21),
    ("solve", 128, 0.93, "auto", 1e-6): (2, 10),
    # theta(tau) beyond THETA_SUPPORT
    ("solve", 128, 0.99, "auto", 1e-6): (4, 22),
    ("solve", 96, 0.988, "auto", 1e-6): (5, 24),
    ("solve", 64, 0.98, "auto", 1e-6): (4, 21),
    ("solve", 256, 0.99, "auto", 1e-6): (3, 23),
    # explicit multipliers, which start on the uniform board
    ("solve", 8, 0.307, 0.0, 1e-6): (7, 8),
    ("solve", 64, 0.9, 0.0, 1e-6): (15, 14),
    ("solve", 128, 0.95, 1.0, 1e-6): (13, 17),
    ("solve", 32, -0.6, 0.0, 1e-6): (10, 7),
    ("solve", 16, 0.9, 0.0, 1e-6): (16, 24),
    ("solve", 64, 0.98, 0.0, 1e-6): (20, 33),
    ("solve", 128, 0.99, 0.0, 1e-6): (21, 33),
    ("inner", 4, 0.307): (1, 7),
    ("inner", 64, 0.307): (1, 16),
    ("bridge", 8, 0.307, 1e-6): (1, 6),
    ("bridge", 8, 0.307, 1e-10): (1, 7),
    ("bridge", 16, 0.9, 1e-6): (1, 16),
    ("bridge", 16, 0.9, 1e-10): (1, 17),
    ("bridge", 32, 0.95, 1e-6): (1, 16),
    ("bridge", 32, 0.95, 1e-10): (1, 19),
    ("bridge", 64, -0.6, 1e-6): (1, 6),
    ("bridge", 64, -0.6, 1e-10): (1, 7),
    ("scan", 1e-6): (187, 619),
    ("scan", 1e-10): (295, 743),
    ("layers",): (48, 46, 77),
}


class TestSinkhornProject:
    def test_constant_kernel_gives_uniform(self):
        out = sinkhorn_project(np.full((5, 5), 3.7))
        np.testing.assert_allclose(out.masses, 1 / 25, atol=1e-12)

    def test_valid_density_unchanged(self):
        from frankmick import FrankParameter, frank_checkerboard

        base = frank_checkerboard(FrankParameter(3.0), 6).masses
        again = sinkhorn_project(base).masses
        assert np.max(np.abs(again - base)) <= 1e-12

    def test_marginals_hit_tolerance(self):
        rng = np.random.default_rng(5)
        out = sinkhorn_project(np.exp(3 * rng.normal(size=(9, 9))))
        assert np.max(np.abs(out.masses.sum(axis=0) - 1 / 9)) <= 1e-10
        assert np.max(np.abs(out.masses.sum(axis=1) - 1 / 9)) <= 1e-10

    def test_cross_ratios_preserved(self):
        from frankmick import FrankParameter, frank_checkerboard

        board = frank_checkerboard(FrankParameter(3.0), 8)
        S = _potential_from_masses(board.masses)
        K = np.exp(2.0 * 0.75 * S)
        P = sinkhorn_project(K).masses
        rng = np.random.default_rng(6)
        for _ in range(50):
            i, k = rng.integers(0, 8, 2)
            j, l = rng.integers(0, 8, 2)
            got = P[i, j] * P[k, l] / (P[i, l] * P[k, j])
            want = K[i, j] * K[k, l] / (K[i, l] * K[k, j])
            assert got == pytest.approx(want, abs=1e-10, rel=1e-10)

    def test_rejects_nonpositive_kernel(self):
        with pytest.raises(ValueError):
            sinkhorn_project(np.zeros((3, 3)))
        with pytest.raises(ValueError):
            sinkhorn_project(np.array([[1.0, -1.0], [1.0, 1.0]]))

    def test_rejects_non_square_kernel(self):
        with pytest.raises(ValueError, match="square"):
            sinkhorn_project(np.ones((2, 3)))


class TestInnerFixedPoint:
    def test_start_with_zero_cell_is_divergence(self):
        start = CheckerboardDensity(2, np.array([[0.5, 0.0], [0.0, 0.5]]))
        with pytest.raises(DivergenceDetected):
            inner_fixed_point(start, 0.5, SolverConfig(n=2, target_tau=0.3))

    def test_start_on_another_grid_is_a_mismatch(self):
        # a 4 x 4 start under n = 8 came back as a 4 x 4 report
        with pytest.raises(GridMismatch):
            inner_fixed_point(
                uniform_checkerboard(4), 0.5, SolverConfig(n=8, target_tau=0.3)
            )

    def test_zero_multiplier_gives_uniform(self):
        cfg = SolverConfig(n=6, target_tau=0.3)
        state = inner_fixed_point(uniform_checkerboard(6), 0.0, cfg).state
        np.testing.assert_allclose(state.density.masses, 1 / 36, atol=1e-12)

    def test_small_multiplier_matches_brute_force(self):
        cfg = SolverConfig(n=4, target_tau=0.3, tol_fix=1e-12)
        state = inner_fixed_point(uniform_checkerboard(4), 0.05, cfg).state
        tau = kendall_tau_checkerboard(state.density)
        assert tau > 0.0
        # independent constrained optimizer at the achieved tau
        reference = projected_gradient_mick(4, tau)
        assert np.max(np.abs(state.density.masses - reference)) <= 1e-6

    def test_stationarity_residual_at_fixed_point(self):
        cfg = SolverConfig(n=8, target_tau=0.3, tol_fix=1e-10)
        lam = 0.75
        state = inner_fixed_point(uniform_checkerboard(8), lam, cfg).state
        m = state.density.masses
        M = np.log(m) - 2.0 * lam * _potential_from_masses(m)
        fitted = M.mean() + state.row_potentials[:, None] + state.col_potentials[None, :]
        assert np.max(np.abs(M - fitted)) <= cfg.tol_fix

    def test_marginals_after_exit(self):
        cfg = SolverConfig(n=8, target_tau=0.3)
        state = inner_fixed_point(uniform_checkerboard(8), 1.0, cfg).state
        assert np.max(np.abs(state.density.masses.sum(axis=1) - 1 / 8)) <= 1e-10

    def test_iteration_count_from_uniform_at_zero_multiplier(self):
        cfg = SolverConfig(n=6, target_tau=0.3)
        report = inner_fixed_point(uniform_checkerboard(6), 0.0, cfg)
        assert report.inner_iterations_total == 0

    def test_iteration_count_when_capped(self):
        cfg = SolverConfig(n=8, target_tau=0.3, max_inner=3)
        report = inner_fixed_point(uniform_checkerboard(8), 1.0, cfg)
        assert report.inner_iterations_total == 3

    def test_stops_at_first_step_within_tol_fix(self):
        # the k steps it takes (WORK) end within tol_fix, k - 1 do not
        lam = bridge_multiplier(0.307)
        cfg = SolverConfig(n=4, target_tau=0.307)

        def residual(state):
            m = state.density.masses
            return additive_fit_residual(
                np.log(m) - 2.0 * lam * _potential_from_masses(m)
            )

        report = inner_fixed_point(uniform_checkerboard(4), lam, cfg)
        assert residual(report.state) <= cfg.tol_fix
        _, k = WORK[("inner", 4, 0.307)]
        capped = SolverConfig(n=4, target_tau=0.307, max_inner=k - 1)
        again = inner_fixed_point(uniform_checkerboard(4), lam, capped)
        assert residual(again.state) > cfg.tol_fix

    @pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf])
    def test_nonfinite_multiplier_rejected(self, lam):
        # nan used to warn in _center and raise "kernel underflowed at multiplier nan"
        cfg = SolverConfig(n=4, target_tau=0.3)
        with pytest.raises(ValueError, match="lambda_d"):
            inner_fixed_point(uniform_checkerboard(4), lam, cfg)

    @pytest.mark.parametrize(
        "n, lam", [(8, 0.75), (64, theta_from_tau(0.307).theta / 4.0)]
    )
    def test_evaluation_report(self, n, lam):
        cfg = SolverConfig(n=n, target_tau=-0.5)  # far from the tau reached
        report = inner_fixed_point(uniform_checkerboard(n), lam, cfg)
        assert isinstance(report, SolverReport)
        assert report.achieved_tau == kendall_tau_checkerboard(report.state.density)
        m = report.state.density.masses
        M = np.log(m) - 2.0 * lam * _potential_from_masses(m)
        assert abs(report.stationarity_residual - additive_fit_residual(M)) <= 1e-12
        assert report.stationarity_residual <= cfg.tol_fix
        assert report.outer_iterations == 1 and report.inner_iterations_total >= 1
        assert report.state.multiplier == lam and report.implied_theta == 4.0 * lam
        assert not report.converged
        # the same evaluation, judged against the tau it reached
        near = SolverConfig(n=n, target_tau=report.achieved_tau)
        again = inner_fixed_point(uniform_checkerboard(n), lam, near)
        assert again.converged and again.achieved_tau == report.achieved_tau

    @pytest.mark.parametrize("n, lam", [(64, 0.75), (16, 14.12)])
    def test_matches_damped_reference(self, n, lam):
        cfg = SolverConfig(n=n, target_tau=0.3)
        state = inner_fixed_point(uniform_checkerboard(n), lam, cfg).state
        reference = damped_fixed_point(n, lam)
        assert np.max(np.abs(state.density.masses - reference)) <= 1e-9


def bridge_evaluation(n, tau, tol_tau, off_target_exit=False):
    """The first evaluation of solve_mick's search: at lambda_0 = theta(tau)
    / 4 from the Frank checkerboard."""
    lam = theta_from_tau(tau).theta / 4.0
    start = frank_checkerboard(FrankParameter(4.0 * lam), n)
    cfg = SolverConfig(n=n, target_tau=tau, tol_tau=tol_tau)
    return inner_fixed_point(start, lam, cfg, off_target_exit)


BRIDGE_POINTS = sorted({key[1:3] for key in WORK if key[0] == "bridge"})


class TestOffTargetExit:
    @pytest.mark.parametrize("tol_tau", [1e-6, 1e-10])
    @pytest.mark.parametrize("n, tau", BRIDGE_POINTS)
    def test_early_tau_is_good_enough_for_the_secant(self, n, tau, tol_tau):
        early = bridge_evaluation(n, tau, tol_tau, True)
        exact = bridge_evaluation(n, tau, tol_tau)
        miss = abs(early.achieved_tau - tau)
        assert early.inner_iterations_total < exact.inner_iterations_total
        assert miss > tol_tau and not early.converged
        assert early.stationarity_residual <= mick_solver._FORCING * miss
        # on the same side of the target, and close to the exact tau
        assert (early.achieved_tau > tau) == (exact.achieved_tau > tau)
        assert abs(early.achieved_tau - exact.achieved_tau) <= 0.1 * miss

    @pytest.mark.parametrize("tol_tau", [1e-6, 1e-10])
    @pytest.mark.parametrize("n, tau", BRIDGE_POINTS)
    def test_flag_off_runs_to_tol_in(self, n, tau, tol_tau):
        # the exact exit alone, in the steps of the solver before the
        # off-target exit (WORK's bridge rows)
        exact = bridge_evaluation(n, tau, tol_tau)
        again = bridge_evaluation(n, tau, tol_tau, False)
        assert np.array_equal(exact.state.density.masses, again.state.density.masses)
        assert exact.achieved_tau == again.achieved_tau
        assert exact.stationarity_residual <= min(1e-9, tol_tau)

    def test_accepted_evaluation_is_the_exact_one(self, monkeypatch):
        # an evaluation the search accepts is within tol_tau, so it never
        # took the off-target exit: the flag changes none of its bits
        calls = record_calls(monkeypatch, "inner_fixed_point")
        report = solve_mick(SolverConfig(n=16, target_tau=0.9))
        (start, lam, cfg, flag), last = calls[-1]
        assert flag and len(calls) > 1
        exact = inner_fixed_point(start, lam, cfg)
        assert np.array_equal(exact.state.density.masses, report.state.density.masses)
        assert exact.achieved_tau == report.achieved_tau
        assert exact.inner_iterations_total == last.inner_iterations_total


class TestOuterSearch:
    def test_multiplier_near_quarter_theta(self):
        state = solve_mick(SolverConfig(n=8, target_tau=0.307)).state
        # discretization shifts it
        assert state.multiplier == pytest.approx(0.75, abs=0.2)

    def test_small_target_small_multiplier(self):
        state = solve_mick(SolverConfig(n=6, target_tau=0.01)).state
        assert abs(state.multiplier) < 0.05
        assert kendall_tau_checkerboard(state.density) == pytest.approx(
            0.01, abs=1e-6
        )

    def test_infeasible_target_raises_at_once(self):
        start = time.perf_counter()
        with pytest.raises(TauInfeasible):
            solve_mick(SolverConfig(n=4, target_tau=0.9))
        assert time.perf_counter() - start < 0.1

    def test_zero_target_is_uniform(self):
        state = solve_mick(SolverConfig(n=5, target_tau=0.0)).state
        assert state.multiplier == 0.0
        assert np.array_equal(state.density.masses, uniform_checkerboard(5).masses)

    def test_tau_monotone_in_multiplier(self):
        cfg = SolverConfig(n=6, target_tau=0.3)
        taus = []
        for lam in (-1.0, -0.5, 0.0, 0.5, 1.0, 2.0):
            state = inner_fixed_point(uniform_checkerboard(6), lam, cfg).state
            taus.append(kendall_tau_checkerboard(state.density))
        assert np.all(np.diff(taus) > 0.0)

    def test_tight_tau_tolerance_converges(self):
        cfg = SolverConfig(n=256, target_tau=0.307, tol_tau=1e-11)
        report = solve_mick(cfg)
        assert report.converged
        assert abs(report.achieved_tau - 0.307) <= 1e-11

    def test_tighter_tau_tolerance_at_higher_tau_converges(self):
        # inner solves stopped at tol_fix = 1e-9 on projections stopped at
        # MARGINAL_TOL return a tau too noisy for the secant to land within
        # 1e-12: it used up its 60 evaluations
        cfg = SolverConfig(n=256, target_tau=0.6, tol_tau=1e-12)
        report = solve_mick(cfg)
        assert report.converged
        assert abs(report.achieved_tau - 0.6) <= 1e-12

    def test_exhausted_before_bracket_is_no_convergence(self):
        # from lambda = 0 the capped first step stays below the target
        cfg = SolverConfig(n=8, target_tau=0.307, max_outer=2, multiplier_init=0.0)
        with pytest.raises(NoConvergence) as err:
            solve_mick(cfg)
        report = err.value.report
        assert report is not None and not report.converged
        assert report.outer_iterations == 2
        assert 0.0 < report.achieved_tau < 0.307

    def test_returns_last_evaluation_with_search_totals(self, monkeypatch):
        calls = record_calls(monkeypatch, "inner_fixed_point")
        report = solve_mick(SolverConfig(n=32, target_tau=0.6))
        evals = [r for _, r in calls]
        assert len(evals) > 1
        assert report.state is evals[-1].state
        assert report.achieved_tau == evals[-1].achieved_tau
        assert report.stationarity_residual == evals[-1].stationarity_residual
        assert report.outer_iterations == len(evals)
        assert report.inner_iterations_total == sum(
            r.inner_iterations_total for r in evals
        )

    def test_no_convergence_carries_closest_evaluation(self, monkeypatch):
        calls = record_calls(monkeypatch, "inner_fixed_point")
        cfg = SolverConfig(n=8, target_tau=0.307, max_outer=2, multiplier_init=0.0)
        with pytest.raises(NoConvergence) as err:
            solve_mick(cfg)
        evals = [r for _, r in calls]
        closest = min(evals, key=lambda r: abs(r.achieved_tau - 0.307))
        report = err.value.report
        assert report.state is closest.state
        assert report.achieved_tau == closest.achieved_tau
        assert report.outer_iterations == len(evals) == 2
        assert report.inner_iterations_total == sum(
            r.inner_iterations_total for r in evals
        )

    def test_unbracketed_search_ends_at_max_outer(self, monkeypatch):
        # a tau(lambda) that saturates below the target is never bracketed,
        # and the search's one give-up is max_outer
        evals = []

        def saturating(start, lambda_d, cfg, off_target_exit=False):
            state = SolverState(start, lambda_d, np.zeros(cfg.n), np.zeros(cfg.n))
            tau = 0.2 * math.tanh(lambda_d)
            evals.append(SolverReport(state, tau, 0.0, 1, 1, False, 4.0 * lambda_d))
            return evals[-1]

        monkeypatch.setattr(mick_solver, "inner_fixed_point", saturating)
        cfg = SolverConfig(n=8, target_tau=0.307)
        with pytest.raises(NoConvergence) as err:
            solve_mick(cfg)
        assert len(evals) == cfg.max_outer
        closest = min(evals, key=lambda r: abs(r.achieved_tau - 0.307))
        report = err.value.report
        assert report.state is closest.state
        assert report.achieved_tau == closest.achieved_tau == 0.2
        assert report.outer_iterations == report.inner_iterations_total == len(evals)

    def test_secant_leaving_the_bracket_takes_its_midpoint(self, monkeypatch):
        # a tau(lambda) flat above a steep rise at 1.1: from 1.0 (below) and
        # 1.5 (above), the secant lands at ~1.245, still on the flat part,
        # and the secant through the two flat points points far below 1.0
        lams = []

        def steep(start, lambda_d, cfg, off_target_exit=False):
            lams.append(lambda_d)
            tau = 0.307 + 0.2 * math.tanh(20.0 * (lambda_d - 1.1))
            state = SolverState(start, lambda_d, np.zeros(cfg.n), np.zeros(cfg.n))
            return SolverReport(state, tau, 0.0, 1, 1, True, 4.0 * lambda_d)

        monkeypatch.setattr(mick_solver, "inner_fixed_point", steep)
        cfg = SolverConfig(n=8, target_tau=0.307, multiplier_init=1.0)
        report = solve_mick(cfg)
        lo, hi = lams[0], lams[2]
        assert lams[1] > hi > 1.1 > lo
        assert lams[3] == 0.5 * (lo + hi)
        assert abs(report.achieved_tau - 0.307) <= cfg.tol_tau
        assert report.outer_iterations == len(lams)


class TestSolveMick:
    def test_zero_tau_is_uniform(self):
        report = solve_mick(SolverConfig(n=8, target_tau=0.0))
        np.testing.assert_allclose(report.state.density.masses, 1 / 64, atol=1e-12)
        assert report.state.multiplier == 0.0
        assert report.converged

    @pytest.mark.parametrize("n", [5, 7, 8, 100])
    def test_zero_tau_is_one_unprojected_evaluation(self, n):
        report = solve_mick(SolverConfig(n=n, target_tau=0.0))
        uniform = uniform_checkerboard(n).masses
        assert np.array_equal(report.state.density.masses, uniform)
        assert report.state.multiplier == 0.0 and report.converged
        assert report.outer_iterations == 1 and report.inner_iterations_total == 0
        assert abs(report.achieved_tau) <= 1e-16

    @pytest.mark.parametrize("tau", [1e-320, -1e-320])
    def test_subnormal_tau_is_one_unprojected_evaluation(self, tau):
        # theta(tau) is subnormal: the start is the Frank board at theta =
        # +-1e-300, independence to round-off, which meets the exit test
        # (its board raised ValueError when theta / n was subnormal)
        report = solve_mick(SolverConfig(n=8, target_tau=tau))
        assert report.converged
        assert report.outer_iterations == 1 and report.inner_iterations_total == 0

    def test_converged_report_contract(self):
        cfg = SolverConfig(n=8, target_tau=0.307)
        report = solve_mick(cfg)
        assert report.converged
        assert abs(report.achieved_tau - 0.307) <= cfg.tol_tau
        assert report.stationarity_residual <= cfg.tol_fix
        assert report.implied_theta == pytest.approx(
            4.0 * report.state.multiplier, abs=1e-15
        )

    def test_outputs_strictly_positive(self):
        for tau in (-0.45, 0.2, 0.6):
            report = solve_mick(SolverConfig(n=8, target_tau=tau))
            assert report.state.density.masses.min() > 0.0

    def test_sign_flip_symmetry(self):
        plus = solve_mick(SolverConfig(n=6, target_tau=0.3, tol_tau=1e-9))
        minus = solve_mick(SolverConfig(n=6, target_tau=-0.3, tol_tau=1e-9))
        # v -> 1-v maps tau to -tau: column-reversed solutions coincide
        assert np.max(
            np.abs(minus.state.density.masses - plus.state.density.masses[:, ::-1])
        ) <= 1e-6

    def test_symmetric_solution(self):
        report = solve_mick(SolverConfig(n=8, target_tau=0.307))
        m = report.state.density.masses
        assert np.max(np.abs(m - m.T)) <= 1e-8

    def test_deterministic(self):
        cfg = SolverConfig(n=6, target_tau=0.25)
        a = solve_mick(cfg)
        b = solve_mick(cfg)
        assert np.array_equal(a.state.density.masses, b.state.density.masses)
        assert a.achieved_tau == b.achieved_tau
        assert a.inner_iterations_total == b.inner_iterations_total

    def test_infeasible_tau_rejected(self):
        # before any work
        limit = tau_max_for_grid(4)
        for tau in (limit, -(limit + 0.01)):
            start = time.perf_counter()
            with pytest.raises(TauInfeasible):
                solve_mick(SolverConfig(n=4, target_tau=tau))
            assert time.perf_counter() - start < 0.1

    def test_tau_max_closed_form(self):
        for n in range(1, 600):
            assert tau_max_for_grid(n) == (n - 1) / n

    # the summed tau of the diagonal board drifts from (n - 1) / n by
    # round-off as n grows (8.5e-15 at n = 590), the closed form does not
    @pytest.mark.parametrize("n", [2, 3, 4, 7, 16, 64, 100])
    def test_tau_max_matches_diagonal_on_many_grids(self, n):
        diag = CheckerboardDensity(n, np.diag(np.full(n, 1.0 / n)))
        assert abs(tau_max_for_grid(n) - kendall_tau_checkerboard(diag)) <= 1e-15

    def test_no_convergence_carries_best_report(self):
        cfg = SolverConfig(n=8, target_tau=0.307, tol_tau=1e-14, max_outer=4)
        with pytest.raises(NoConvergence) as err:
            solve_mick(cfg)
        report = err.value.report
        assert report is not None and not report.converged
        assert abs(report.achieved_tau - 0.307) < 0.05

    def test_matches_projected_gradient_oracle(self):
        cfg = SolverConfig(n=3, target_tau=0.2, tol_tau=1e-10, tol_fix=1e-12)
        report = solve_mick(cfg)
        reference = projected_gradient_mick(3, 0.2)
        assert np.max(np.abs(report.state.density.masses - reference)) <= 1e-5

    def test_entropy_below_random_feasible(self):
        report = solve_mick(SolverConfig(n=4, target_tau=0.3, tol_tau=1e-9))
        m = report.state.density.masses
        ours = float(np.sum(m * np.log(m)))
        rng = np.random.default_rng(17)
        checked = 0
        while checked < 50:
            cand = random_feasible_with_tau(rng, 4, 0.3)
            if cand is None:
                continue
            checked += 1
            assert ours <= float(np.sum(cand * np.log(cand))) + 1e-9

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(n=0, target_tau=0.3)
        with pytest.raises(ValueError):
            SolverConfig(n=4, target_tau=1.5)
        with pytest.raises(ValueError):
            SolverConfig(n=4, target_tau=0.3, damping=0.0)
        with pytest.raises(ValueError):
            SolverConfig(n=4, target_tau=0.3, tol_tau=-1.0)
        # tol_tau = nan used to run max_outer evaluations into NoConvergence
        for field in ("tol_tau", "tol_fix"):
            for value in (math.nan, math.inf):
                with pytest.raises(ValueError):
                    SolverConfig(n=4, target_tau=0.3, **{field: value})

    @pytest.mark.parametrize(
        "limit, value",
        [("max_inner", 0), ("max_inner", -5), ("max_outer", 0), ("max_outer", -1)],
    )
    def test_iteration_limit_below_one_rejected(self, limit, value):
        # max_inner = 0 used to leave every evaluation at its start, so the
        # search marched lambda off without a bracket, and
        # max_outer = 0 to report "exhausted 0 evaluations" after one
        with pytest.raises(ValueError):
            SolverConfig(n=8, target_tau=0.307, **{limit: value})

    @pytest.mark.parametrize(
        "field, value",
        [("n", 8.0), ("max_inner", 2.5), ("max_outer", 3.5), ("n", True),
         ("max_inner", "10"), ("max_outer", np.float64(3.0))],
    )
    def test_non_integral_size_or_limit_rejected(self, field, value):
        # n = 8.0 and max_inner = 2.5 used to fail deep in numpy with a
        # TypeError, and max_outer = 3.5 was accepted
        with pytest.raises(ValueError):
            SolverConfig(**{"n": 8, "target_tau": 0.307, field: value})

    def test_numpy_integers_accepted(self):
        cfg = SolverConfig(
            n=np.int64(8),
            target_tau=0.307,
            max_inner=np.int32(5000),
            max_outer=np.uint8(60),
        )
        assert solve_mick(cfg).converged

    def test_nonfinite_multiplier_init_rejected(self):
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError):
                SolverConfig(n=4, target_tau=0.3, multiplier_init=bad)


class TestStationarityResidual:
    def test_report_matches_lstsq_fit(self):
        report = solve_mick(SolverConfig(n=8, target_tau=0.307))
        m = report.state.density.masses
        M = np.log(m) - 2.0 * report.state.multiplier * _potential_from_masses(m)
        assert abs(report.stationarity_residual - additive_fit_residual(M)) <= 1e-12

    def test_random_matrix_matches_lstsq_fit(self):
        M = np.random.default_rng(21).normal(size=(9, 9))
        got = np.abs(mick_solver._center(M)).max()
        assert abs(got - additive_fit_residual(M)) <= 1e-12

    @pytest.mark.parametrize("n, lam", [(4, 0.5), (16, 3.0), (64, 14.0)])
    @pytest.mark.parametrize("d", [0.5, 1.0])
    def test_damped_map_is_centred_residual_step(self, n, lam, d):
        # q = Sinkhorn(exp(L)) differs from exp(L) by row and column factors,
        # so centring (1 - d) log q + d T moves center(L) by -d center(log q - T)
        L = np.random.default_rng(n).normal(size=(n, n))
        q = mick_solver._sinkhorn(np.exp(L - L.max()), 1e-14)
        T = 2.0 * lam * _potential_from_masses(q)
        C = mick_solver._center
        step = C((1.0 - d) * np.log(q) + d * T) - C(L)
        assert np.max(np.abs(step + d * C(np.log(q) - T))) <= 1e-12


class TestSolverReportSerialization:
    def test_json_round_trip(self):
        cfg = SolverConfig(n=6, target_tau=0.25)
        report = solve_mick(cfg)
        text = report.to_json(cfg)
        obj = json.loads(text)
        assert obj["config"]["n"] == 6
        assert obj["config"]["target_tau"] == 0.25
        again = SolverReport.from_json(text)
        assert np.array_equal(
            again.state.density.masses, report.state.density.masses
        )
        assert again.achieved_tau == report.achieved_tau
        assert again.converged == report.converged
        assert again.implied_theta == report.implied_theta

    def test_json_layout(self):
        # the file `frankmick mick compare --report` reads
        cfg = SolverConfig(n=6, target_tau=0.25)
        obj = json.loads(solve_mick(cfg).to_json(cfg))
        assert list(obj) == [
            "achieved_tau",
            "stationarity_residual",
            "outer_iterations",
            "inner_iterations_total",
            "converged",
            "implied_theta",
            "multiplier",
            "row_potentials",
            "col_potentials",
            "density",
            "config",
        ]
        assert list(obj["config"]) == [f.name for f in fields(SolverConfig)]

    @pytest.mark.parametrize("drop", ["density", "multiplier", "converged"])
    def test_missing_field_is_value_error(self, drop):
        obj = json.loads(solve_mick(SolverConfig(n=4, target_tau=0.25)).to_json())
        del obj[drop]
        with pytest.raises(ValueError, match=f"no field '{drop}'"):
            SolverReport.from_json(json.dumps(obj))

    @pytest.mark.parametrize("text", ["{}", "[]", '{"density": []}'])
    def test_malformed_report_is_value_error(self, text):
        with pytest.raises(ValueError):
            SolverReport.from_json(text)

    @pytest.mark.parametrize(
        "field, value",
        [("row_potentials", [1.0]), ("col_potentials", [0.0] * 5),
         ("row_potentials", ["x"] * 4), ("col_potentials", None),
         ("achieved_tau", "x"), ("multiplier", None), ("outer_iterations", True),
         ("implied_theta", [3.0]), ("converged", "no")],
    )
    def test_malformed_field_is_value_error(self, field, value):
        # each of these came back as it was: potentials of the wrong length,
        # a string as achieved_tau, "no" as a converged that reads true
        obj = json.loads(solve_mick(SolverConfig(n=4, target_tau=0.25)).to_json())
        obj[field] = value
        with pytest.raises(ValueError, match=field):
            SolverReport.from_json(json.dumps(obj))


#: the sweep_mid grids, two high-tau solves, tau = 0, and a search that
#: raises NoConvergence (its report is the one serialized)
FIXED_CONFIGS = {
    **{f"sweep_mid-{n}": SolverConfig(n, 0.307) for n in (4, 8, 16, 32, 64, 128, 256)},
    "16-0.9": SolverConfig(16, 0.9),
    "32-0.95": SolverConfig(32, 0.95),
    "8-0.0": SolverConfig(8, 0.0),
    "no_convergence": SolverConfig(8, 0.307, max_outer=2, multiplier_init=0.0),
}


@lru_cache(maxsize=None)
def fixed_report(case):
    cfg = FIXED_CONFIGS[case]
    if case != "no_convergence":
        return cfg, solve_mick(cfg)
    with pytest.raises(NoConvergence) as err:
        solve_mick(cfg)
    return cfg, err.value.report


class TestSerializedBytes:
    @pytest.mark.parametrize("case", FIXED_CONFIGS)
    def test_text_matches_reference_encoding(self, case):
        cfg, report = fixed_report(case)
        board = report.state.density
        assert report.to_json(cfg) == reference_report_json(report, cfg)
        tau, theta = report.achieved_tau, report.implied_theta
        assert board.to_json(tau, theta) == reference_board_json(board, tau, theta)
        assert board.to_csv() == reference_board_csv(board)

    @pytest.mark.parametrize("case", FIXED_CONFIGS)
    def test_round_trip_arrays_equal(self, case):
        cfg, report = fixed_report(case)
        again = SolverReport.from_json(report.to_json(cfg))
        state, kept = again.state, report.state
        np.testing.assert_array_equal(state.density.masses, kept.density.masses)
        np.testing.assert_array_equal(state.row_potentials, kept.row_potentials)
        np.testing.assert_array_equal(state.col_potentials, kept.col_potentials)
        assert state.multiplier == kept.multiplier
        for f in fields(SolverReport):
            if f.name != "state":
                assert getattr(again, f.name) == getattr(report, f.name)

    def test_one_json_pass_each_way(self, monkeypatch):
        cfg = SolverConfig(n=6, target_tau=0.25)
        report = solve_mick(cfg)
        dumps = record_calls(monkeypatch, "dumps", json)
        loads = record_calls(monkeypatch, "loads", json)
        text = report.to_json(cfg)
        assert (len(dumps), len(loads)) == (1, 0)
        dumps.clear()
        SolverReport.from_json(text)
        assert (len(dumps), len(loads)) == (0, 1)


class TestSinkhornIllConditioned:
    def test_marginals_and_cross_ratios(self):
        rng = np.random.default_rng(7)
        K = np.exp(3.0 * rng.standard_normal((128, 128)))
        P = sinkhorn_project(K).masses
        assert np.max(np.abs(P.sum(axis=0) - 1 / 128)) <= 1e-10
        assert np.max(np.abs(P.sum(axis=1) - 1 / 128)) <= 1e-10
        for _ in range(200):
            i, k, j, l = rng.integers(0, 128, 4)
            got = P[i, j] * P[k, l] / (P[i, l] * P[k, j])
            want = K[i, j] * K[k, l] / (K[i, l] * K[k, j])
            assert got == pytest.approx(want, rel=1e-10)


def high_theta_kernel(theta=56.0, n=16):
    """The inner step's kernel exp(2 lambda S) on the n-grid Frank board at
    theta = 4 lambda."""
    board = frank_checkerboard(FrankParameter(theta), n).masses
    lam2 = 0.5 * theta
    return np.exp(lam2 * _potential_from_masses(board) - lam2)


def tilted_kernel():
    """random_feasible_with_tau's kernel exp(logR + w D) at n = 4, w = 20."""
    g = (2.0 * np.arange(1, 5) - 5.0) / 4.0
    logR = np.random.default_rng(0).normal(size=(4, 4))
    return np.exp(logR + 20.0 * np.outer(g, g))


SLOW_KERNELS = {"theta56_n16": high_theta_kernel, "tilted_n4": tilted_kernel}
DIRECTION_KERNELS = dict(
    SLOW_KERNELS,
    **{
        f"random_n{n}": lambda n=n: np.exp(
            2.0 * np.random.default_rng(n).standard_normal((n, n))
        )
        for n in (2, 3, 16, 128)
    },
)
#: exp(sigma Z) kernels on which full Newton steps from far scalings
#: overflow exp: such a trial has an inf or NaN error and is halved (it
#: raised a RuntimeWarning)
CROSS_RATIO_KERNELS = dict(
    SLOW_KERNELS,
    **{
        f"overflow_s{s:g}_n{n}_seed{seed}": lambda s=s, n=n, seed=seed: np.exp(
            s * np.random.default_rng(seed).normal(size=(n, n))
        )
        for s in (20.0, 30.0) for n in (8, 16, 32) for seed in range(5)
    },
)


class TestNewtonFinish:
    def sweeps_only(self, K):
        # a Newton finish that stalls at once leaves the sweeps alone
        with pytest.MonkeyPatch.context() as m:
            m.setattr(mick_solver, "_newton_finish", lambda K, r, c, tol: (None, c))
            return mick_solver._sinkhorn(K, MARGINAL_TOL)

    @pytest.mark.parametrize("name", sorted(SLOW_KERNELS))
    def test_slow_kernel_switches_once(self, monkeypatch, name):
        calls = record_calls(monkeypatch, "_newton_finish")
        sinkhorn_project(SLOW_KERNELS[name]())
        assert len(calls) == 1

    @pytest.mark.parametrize("name", sorted(CROSS_RATIO_KERNELS))
    def test_marginals_and_cross_ratios(self, name):
        K = CROSS_RATIO_KERNELS[name]()
        n = K.shape[0]
        P = sinkhorn_project(K).masses
        assert np.max(np.abs(P.sum(axis=0) - 1 / n)) <= 1e-10
        assert np.max(np.abs(P.sum(axis=1) - 1 / n)) <= 1e-10
        # every cross-ratio P_ij P_kl / (P_il P_kj) against the kernel's
        got = P[:, None, :, None] * P[None, :, None, :] / (
            P[:, None, None, :] * P[None, :, :, None]
        )
        want = K[:, None, :, None] * K[None, :, None, :] / (
            K[:, None, None, :] * K[None, :, :, None]
        )
        assert np.max(np.abs(got / want - 1.0)) <= 1e-10

    @pytest.mark.parametrize("name", sorted(SLOW_KERNELS))
    def test_matches_plain_sweeps_to_round_off(self, name):
        K = SLOW_KERNELS[name]()
        P = sinkhorn_project(K).masses
        assert np.max(np.abs(P - sinkhorn_sweeps(K))) <= 1e-12

    @pytest.mark.parametrize("name", sorted(SLOW_KERNELS))
    def test_tight_tolerance_met(self, name):
        # the inner fixed point projects below MARGINAL_TOL, down to 1e-14
        K = SLOW_KERNELS[name]()
        n = K.shape[0]
        P = mick_solver._sinkhorn(K, 1e-14)
        assert np.max(np.abs(P.sum(axis=0) - 1 / n)) <= 1e-14
        assert np.max(np.abs(P.sum(axis=1) - 1 / n)) <= 1e-14
        assert np.max(np.abs(P - sinkhorn_sweeps(K))) <= 1e-13

    def test_projection_is_private_layer_at_marginal_tol(self):
        K = high_theta_kernel()
        assert np.array_equal(
            sinkhorn_project(K).masses, mick_solver._sinkhorn(K, MARGINAL_TOL)
        )

    @pytest.mark.parametrize("name", sorted(SLOW_KERNELS))
    def test_newton_alone_from_far_start(self, name):
        # from masses far too small, full steps overshoot: the line search
        # has to hold them back
        K = SLOW_KERNELS[name]()
        ones = np.ones(K.shape[0])
        P, c = mick_solver._newton_finish(K, 0.01 * ones, ones, MARGINAL_TOL)
        assert P is not None and c[0] == 1.0  # c[0] is the gauge
        assert np.max(np.abs(P - sinkhorn_sweeps(K))) <= 1e-12

    @pytest.mark.parametrize("name", sorted(DIRECTION_KERNELS))
    def test_schur_direction_matches_block_solve(self, name):
        K = DIRECTION_KERNELS[name]()
        n = K.shape[0]
        rng = np.random.default_rng(3)
        P = rng.uniform(0.5, 2.0, (n, 1)) * K * rng.uniform(0.5, 2.0, n)
        P /= P.sum()
        sums = np.concatenate((P.sum(axis=1), P.sum(axis=0)))
        got = np.concatenate(mick_solver._newton_direction(P, sums))
        want = np.concatenate(newton_block_step(P))
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))

    def test_stalled_newton_falls_back_once(self, monkeypatch):
        monkeypatch.setattr(mick_solver, "_newton_finish", lambda K, r, c, tol: (None, c))
        calls = record_calls(monkeypatch, "_newton_finish")
        K = high_theta_kernel()
        P = sinkhorn_project(K).masses
        assert len(calls) == 1
        assert np.array_equal(P, self.sweeps_only(K))

    def test_real_stall_resumes_the_sweeps(self, monkeypatch):
        # log K spans -181...94: the real finish uses up its steps and hands
        # back its column scaling, and the sweeps resumed from it converge
        calls = record_calls(monkeypatch, "_newton_finish")
        K = np.exp(60 * np.random.default_rng(26).normal(size=(4, 4)))
        P = sinkhorn_project(K).masses
        assert len(calls) == 1 and calls[0][1][0] is None
        assert np.max(np.abs(P.sum(axis=0) - 0.25)) <= MARGINAL_TOL
        assert np.max(np.abs(P.sum(axis=1) - 0.25)) <= MARGINAL_TOL
        # D_r K D_c keeps the kernel's cross-ratios
        for i, j, k, l in [(0, 1, 2, 3), (3, 0, 1, 2), (1, 3, 0, 2)]:
            got = P[i, j] * P[k, l] / (P[i, l] * P[k, j])
            want = K[i, j] * K[k, l] / (K[i, l] * K[k, j])
            assert got == pytest.approx(want, rel=1e-10)

    def test_sweep_cap_raises_not_converged(self, monkeypatch):
        # plain sweeps on this kernel need between 200 and 400 to reach
        # MARGINAL_TOL; with Newton stalled at once, 50 cannot
        monkeypatch.setattr(mick_solver, "_SINKHORN_CAP", 50)
        monkeypatch.setattr(mick_solver, "_newton_finish", lambda K, r, c, tol: (None, c))
        K = high_theta_kernel()
        with pytest.raises(NotConverged):
            mick_solver._sinkhorn(K, MARGINAL_TOL)
        with pytest.raises(NotConverged):
            sinkhorn_project(K)

    # a tolerance below round-off: the real finish uses up its steps and
    # hands back, and the sweeps after it reach the cap
    def test_unreachable_tolerance_stalls(self):
        K = np.exp(np.random.default_rng(0).normal(size=(8, 8)))
        ones = np.ones(8)
        P, c = mick_solver._newton_finish(K, ones, ones, 1e-20)
        assert P is None and np.all(np.isfinite(c))

    def test_unreachable_tolerance_reaches_sweep_cap(self, monkeypatch):
        monkeypatch.setattr(mick_solver, "_SINKHORN_CAP", 50)
        K = np.exp(np.random.default_rng(0).normal(size=(8, 8)))
        with pytest.raises(NotConverged):
            mick_solver._sinkhorn(K, 1e-20)

    def test_singular_step_takes_a_sweep(self):
        # a column scaled to 0 leaves the Schur complement singular; the
        # finish takes one Sinkhorn sweep instead, which lands on the masses
        c = np.array([1.0, 0.0])
        P, back = mick_solver._newton_finish(np.ones((2, 2)), np.ones(2), c, 1e-10)
        assert np.array_equal(P, np.full((2, 2), 0.25))
        assert np.array_equal(back, [0.5, 0.5])

    def test_stalled_line_search_takes_a_sweep(self, monkeypatch):
        # every trial of a direction of inf overflows, so no halving lowers
        # the error and each step is one Sinkhorn sweep: the finish is the
        # plain sweeps, which reach tol within its steps on this kernel
        def never_lower(P, sums):
            return np.full(P.shape[0], np.inf), np.full(P.shape[0], np.inf)

        monkeypatch.setattr(mick_solver, "_newton_direction", never_lower)
        K = np.exp(0.5 * np.random.default_rng(8).normal(size=(12, 12)))
        ones = np.ones(12)
        P, _ = mick_solver._newton_finish(K, ones, ones, MARGINAL_TOL)
        assert np.array_equal(P, self.sweeps_only(K))

    @pytest.mark.parametrize("n, seed", [(3, 59), (4, 13)])
    def test_sweep_in_place_of_a_singular_step_converges(self, n, seed):
        # a Newton system turns singular on these exp(80 Z) kernels; handing
        # back there left 50,000 resumed sweeps short of MARGINAL_TOL
        log_k = 80.0 * np.random.default_rng(seed).normal(size=(n, n))
        P = sinkhorn_project(np.exp(log_k)).masses
        assert np.max(np.abs(P.sum(axis=0) - 1 / n)) <= MARGINAL_TOL
        assert np.max(np.abs(P.sum(axis=1) - 1 / n)) <= MARGINAL_TOL

        # cross-ratios as logs: as products they leave float64's range
        def log_cross(M):
            return M[:, None, :, None] + M[None, :, None, :] - (
                M[:, None, None, :] + M[None, :, :, None]
            )

        assert np.max(np.abs(log_cross(np.log(P)) - log_cross(log_k))) <= 1e-10

    def test_step_limit_hands_back_last_scaling(self, monkeypatch):
        # one step, accepted at full length, does not reach tol
        monkeypatch.setattr(mick_solver, "_NEWTON_STEPS", 1)
        K = np.exp(np.random.default_rng(0).normal(size=(8, 8)))
        ones = np.ones(8)
        P, c = mick_solver._newton_finish(K, ones, ones, MARGINAL_TOL)
        assert P is None and c[0] == 1.0 and not np.array_equal(c, ones)

    @pytest.mark.parametrize("scale", [0.5, 1.0])
    def test_well_conditioned_kernel_never_switches(self, monkeypatch, scale):
        calls = record_calls(monkeypatch, "_newton_finish")
        K = np.exp(scale * np.random.default_rng(8).normal(size=(12, 12)))
        P = sinkhorn_project(K).masses
        assert not calls
        assert np.array_equal(P, self.sweeps_only(K))

    def test_cost_gate(self, monkeypatch):
        # slow sweeps switch whatever n is; fast ones never do
        calls = record_calls(monkeypatch, "_newton_finish")
        sinkhorn_project(high_theta_kernel(200.0, 128))
        assert len(calls) == 1
        K = np.exp(np.random.default_rng(9).standard_normal((256, 256)))
        P = sinkhorn_project(K).masses
        assert len(calls) == 1
        assert np.array_equal(P, self.sweeps_only(K))


class TestProjectionBits:
    """_sinkhorn's masses match those of the projection as first written
    (reference_sinkhorn) to the bit: its sweeps, its switch and every
    step of its Newton finish keep their floating-point operations."""

    def test_random_kernels(self, monkeypatch):
        # 48 exp(sigma Z), sigma spread over [0.5, 3] and n cycling through
        # 32, 64 and 128, like the benchmark's direct calls
        calls = record_calls(monkeypatch, "_newton_finish")
        rng = np.random.default_rng(0)
        for n, sigma in zip((32, 64, 128) * 16, np.linspace(0.5, 3.0, 48)):
            K = np.exp(sigma * rng.standard_normal((n, n)))
            got = mick_solver._sinkhorn(K, MARGINAL_TOL)
            assert np.array_equal(got, reference_sinkhorn(K, MARGINAL_TOL))
        assert calls  # the set reaches the Newton finish

    def test_high_tau_kernels(self):
        # every kernel the two solves project, each at its own tolerance
        _, calls = high_tau_projection_calls()
        for (K, tol), got in calls["_sinkhorn"]:
            assert np.array_equal(got, reference_sinkhorn(K, tol))

    def test_hand_back_kernel(self, monkeypatch):
        # test_real_stall_resumes_the_sweeps's kernel: the sweeps resume
        # from the finish's column scaling
        calls = record_calls(monkeypatch, "_newton_finish")
        K = np.exp(60 * np.random.default_rng(26).normal(size=(4, 4)))
        got = mick_solver._sinkhorn(K, MARGINAL_TOL)
        assert calls[0][1][0] is None
        assert np.array_equal(got, reference_sinkhorn(K, MARGINAL_TOL))


class TestInnerStepWork:
    def test_one_projection_per_step(self, monkeypatch):
        calls = record_calls(monkeypatch, "_sinkhorn")
        report = inner_fixed_point(
            uniform_checkerboard(8), 1.0, SolverConfig(n=8, target_tau=0.3)
        )
        assert len(calls) == report.inner_iterations_total

    def test_one_potential_per_iterate(self, monkeypatch):
        calls = record_calls(monkeypatch, "_potential_from_masses")
        report = inner_fixed_point(
            uniform_checkerboard(8), 1.0, SolverConfig(n=8, target_tau=0.3)
        )
        assert len(calls) == report.inner_iterations_total + 1

    def test_one_centring_per_step(self, monkeypatch):
        # the stationarity residual drives the exit test, the step and Anderson
        calls = record_calls(monkeypatch, "_center")
        report = inner_fixed_point(
            uniform_checkerboard(8), 1.0, SolverConfig(n=8, target_tau=0.3)
        )
        assert len(calls) == report.inner_iterations_total + 1

    @pytest.mark.parametrize("memory", [1, 3, 5])
    def test_anderson_keeps_the_last_pairs(self, monkeypatch, memory):
        # iterate k > 0 steps with its last min(k, memory) difference pairs
        monkeypatch.setattr(mick_solver, "_ANDERSON_MEMORY", memory)
        calls = record_calls(monkeypatch, "_anderson_step")
        inner_fixed_point(
            uniform_checkerboard(8), 1.0, SolverConfig(n=8, target_tau=0.3)
        )
        rows = [len(args[2]) for args, _ in calls]
        assert len(rows) > memory + 1
        assert rows == [min(k, memory) for k in range(len(rows))]

    def test_kernel_underflow_is_typed(self):
        with pytest.raises(DivergenceDetected):
            inner_fixed_point(
                uniform_checkerboard(4), 1000.0, SolverConfig(n=4, target_tau=0.3)
            )

    def test_cell_mass_underflow_is_typed(self):
        # at n = 2 the first kernel is [[1, e], [e, 1]], e = exp(-lambda / 2);
        # for lambda in 1488.1...1490.2 e rounds to the smallest subnormal,
        # which the projection halves to 0
        with pytest.raises(DivergenceDetected, match="cell mass underflowed"):
            inner_fixed_point(
                uniform_checkerboard(2), 1489.2, SolverConfig(n=2, target_tau=0.3)
            )


@lru_cache(maxsize=None)
def counted_solve(cfg):
    """solve_mick(cfg), the number of inner solves behind it, and the grid
    sizes _newton_finish was called at."""
    with pytest.MonkeyPatch.context() as m:
        inner = record_calls(m, "inner_fixed_point")
        finish = record_calls(m, "_newton_finish")
        report = solve_mick(cfg)
    return report, len(inner), [args[0].shape[0] for args, _ in finish]


@lru_cache(maxsize=None)
def high_tau_projection_calls():
    """The default-config reports at (16, 0.9) and (32, 0.95), the points of
    the benchmark's solve_high_tau, and the calls each of the projection's
    layers received, by name."""
    names = ("_sinkhorn", "_newton_finish", "_newton_direction")
    with pytest.MonkeyPatch.context() as m:
        calls = {name: record_calls(m, name) for name in names}
        reports = [
            solve_mick(SolverConfig(n=n, target_tau=tau))
            for n, tau in ((16, 0.9), (32, 0.95))
        ]
    return reports, calls


class TestHighTau:
    # implied theta at the roots: solves at tol_tau = 1e-10 give 56.490089363
    # and 115.602105378 by march-then-bracket, 56.490089360 and 115.602105355
    # by the bridge-seeded secant
    REFERENCE = {(16, 0.9): 56.49008936, (32, 0.95): 115.60210536}

    @pytest.mark.parametrize("n, tau", sorted(REFERENCE))
    def test_converged_near_reference_theta(self, n, tau):
        report, _, _ = counted_solve(SolverConfig(n=n, target_tau=tau, tol_tau=1e-10))
        assert report.converged
        assert abs(report.implied_theta - self.REFERENCE[(n, tau)]) <= 1e-6

    @pytest.mark.parametrize("n, tau", sorted(REFERENCE))
    def test_one_inner_solve_per_evaluation(self, n, tau):
        report, calls, _ = counted_solve(SolverConfig(n=n, target_tau=tau))
        assert calls == report.outer_iterations


class TestBeyondCheckerboardSupport:
    # theta(tau) > THETA_SUPPORT: the solve starts on, and transports along,
    # Frank boards clipped at THETA_SUPPORT, and its projections only meet
    # tol_p through the Newton finish
    @pytest.mark.parametrize("n, tau", [(128, 0.99), (96, 0.988), (64, 0.98)])
    def test_converges_at_default_config(self, n, tau):
        report, _, _ = counted_solve(SolverConfig(n=n, target_tau=tau))
        assert report.converged
        assert abs(report.achieved_tau - tau) <= 1e-6
        assert math.isfinite(report.implied_theta)
        assert report.implied_theta > THETA_SUPPORT

    # 36, 39 and 34 projections from the uniform board, untransported
    @pytest.mark.parametrize(
        "n, tau, cap", [(128, 0.99, 32), (96, 0.988, 37), (64, 0.98, 31)]
    )
    def test_projections_capped(self, n, tau, cap):
        report, _, _ = counted_solve(SolverConfig(n=n, target_tau=tau))
        assert report.inner_iterations_total <= cap

    # 32, 37, 31 and 29 from the plain transport
    @pytest.mark.parametrize(
        "n, tau, cap", [(128, 0.99, 22), (96, 0.988, 24), (64, 0.98, 21), (256, 0.99, 23)]
    )
    def test_projections_from_the_secant_start(self, n, tau, cap):
        report, _, _ = counted_solve(SolverConfig(n=n, target_tau=tau))
        assert report.converged
        assert report.inner_iterations_total <= cap

    def test_newton_finish_runs_at_n128(self):
        _, _, sizes = counted_solve(SolverConfig(n=128, target_tau=0.99))
        assert sizes and set(sizes) == {128}


def bridge_multiplier(tau):
    return theta_from_tau(tau).theta / 4.0


@lru_cache(maxsize=None)
def seed_multiplier(n, tau):
    """The closed-form discrete answer (theta + 2 theta / (9 tau' n^2)) / 4 at
    theta = theta(tau), with mpmath's tau'(theta)."""
    theta = 4.0 * bridge_multiplier(tau)
    return (theta + 2.0 * theta / (9.0 * frank_tau_slope_mp(theta) * n**2)) / 4.0


def start_pair(n, tau, tol_tau=SolverConfig.tol_tau, tol_fix=SolverConfig.tol_fix):
    """Reports of the default solve, which starts on the Frank checkerboard
    at its first multiplier, and of the same first multiplier given
    explicitly, which starts on the uniform board."""
    cfg = SolverConfig(n=n, target_tau=tau, tol_tau=tol_tau, tol_fix=tol_fix)
    uniform = replace(cfg, multiplier_init=seed_multiplier(n, tau))
    return counted_solve(cfg)[0], counted_solve(uniform)[0]


START_POINTS = [
    (4, 0.307), (64, 0.307), (64, -0.6), (16, 0.9), (32, 0.95), (128, 0.93)
]


class TestFrankStart:
    def first_start(self, monkeypatch, cfg):
        """The masses the first inner solve of solve_mick(cfg) starts from,
        and its multiplier."""

        class Started(Exception):
            pass

        def record(start, lambda_d, cfg, off_target_exit=False):
            raise Started(start.masses, lambda_d)

        monkeypatch.setattr(mick_solver, "inner_fixed_point", record)
        with pytest.raises(Started) as err:
            solve_mick(cfg)
        return err.value.args

    def test_auto_starts_on_frank_board(self, monkeypatch):
        start, lam = self.first_start(monkeypatch, SolverConfig(n=16, target_tau=0.6))
        board = frank_checkerboard(FrankParameter(4.0 * lam), 16)
        assert np.array_equal(start, board.masses)

    # the discrete answer's implied theta is theta + 2 theta / (9 tau' n^2)
    # + O(n^-4): the Frank checkerboard's tau deficit over tau'
    @pytest.mark.parametrize("n, tau", [(16, 0.6), (64, -0.6), (128, 0.99)])
    def test_first_multiplier_is_the_closed_form_seed(self, monkeypatch, n, tau):
        _, lam = self.first_start(monkeypatch, SolverConfig(n=n, target_tau=tau))
        assert lam == pytest.approx(seed_multiplier(n, tau), rel=1e-12)
        assert abs(lam) > abs(bridge_multiplier(tau))

    def test_explicit_multiplier_starts_uniform(self, monkeypatch):
        cfg = SolverConfig(n=16, target_tau=0.6, multiplier_init=2.0)
        start, lam = self.first_start(monkeypatch, cfg)
        assert np.array_equal(start, uniform_checkerboard(16).masses)
        assert lam == 2.0

    def test_beyond_checkerboard_support_starts_on_clipped_board(self, monkeypatch):
        assert 4.0 * seed_multiplier(128, 0.99) > THETA_SUPPORT
        for sign in (1.0, -1.0):
            cfg = SolverConfig(n=128, target_tau=sign * 0.99)
            start, _ = self.first_start(monkeypatch, cfg)
            board = frank_checkerboard(FrankParameter(sign * THETA_SUPPORT), 128)
            assert np.array_equal(start, board.masses)

    # the seed saves evaluations, it does not pick the answer: a search
    # from the continuum root theta(tau) / 4 reaches the same implied theta
    @pytest.mark.parametrize("n", [64, 256])
    def test_seed_does_not_decide_the_answer(self, n):
        cfg = SolverConfig(n=n, target_tau=0.307, tol_tau=1e-11)
        seeded = solve_mick(cfg)
        bridged = solve_mick(replace(cfg, multiplier_init=bridge_multiplier(0.307)))
        assert seeded.converged and bridged.converged
        assert abs(seeded.implied_theta - bridged.implied_theta) <= 1e-8

    @pytest.mark.parametrize("n, tau", START_POINTS)
    def test_start_does_not_change_the_answer(self, n, tau):
        # the problem is non-convex: both starts must reach the same point.
        # The off-target exit makes the lambda path depend on the start
        # within the tol_tau band (up to 6.8e-9 in masses at the default),
        # so the pair is solved at a tau tolerance below that band
        frank, uniform = start_pair(n, tau, 1e-11)
        assert frank.converged and uniform.converged
        gap = frank.state.density.masses - uniform.state.density.masses
        assert np.max(np.abs(gap)) <= 1e-10
        assert abs(frank.implied_theta - uniform.implied_theta) <= 1e-8

    @pytest.mark.parametrize("tol_tau", [SolverConfig.tol_tau, 1e-11])
    @pytest.mark.parametrize("n, tau", START_POINTS)
    def test_returned_report_is_solved_to_tol_in(self, n, tau, tol_tau):
        tol_in = min(SolverConfig.tol_fix, tol_tau)
        for report in start_pair(n, tau, tol_tau):
            assert report.converged
            assert abs(report.achieved_tau - tau) <= tol_tau
            assert report.stationarity_residual <= tol_in

    @pytest.mark.parametrize("n, tau", START_POINTS)
    def test_discrete_liouville_equation(self, n, tau):
        tol_fix = SolverConfig(n=n, target_tau=tau).tol_fix
        for report in start_pair(n, tau):
            m, lam = report.state.density.masses, report.state.multiplier
            assert discrete_liouville_residual(m, lam) <= 4 * tol_fix

    # 219 and 386 from the uniform board with every projection stopped at
    # MARGINAL_TOL
    @pytest.mark.parametrize("n, tau, cap", [(32, 0.95, 120), (128, 0.93, 80)])
    def test_inner_steps_capped(self, n, tau, cap):
        frank, _ = start_pair(n, tau)
        assert frank.inner_iterations_total <= cap

    def test_liouville_oracle(self):
        # the mixed second difference of S is the 2x2 block sum of masses
        m = np.random.default_rng(23).random((7, 7))
        S = brute_potential(m)
        d2 = S[:-1, :-1] - S[:-1, 1:] - S[1:, :-1] + S[1:, 1:]
        block = m[:-1, :-1] + m[:-1, 1:] + m[1:, :-1] + m[1:, 1:]
        assert np.max(np.abs(d2 - block)) <= 1e-14
        # the Frank checkerboard itself is only O(n^-2) from stationary
        board = frank_checkerboard(FrankParameter(3.0), 16).masses
        assert discrete_liouville_residual(board, 0.75) > 1e-6


def transport(p, old, new, tol, s=0.0, p_prev=None, prev=None):
    """_transport of the masses p, found at the Frank board old, to the board
    new; with s, the departure of p_prev from its board prev gives the secant."""
    D = np.log(p.masses) - np.log(old.masses)
    D_prev = 0.0 if p_prev is None else np.log(p_prev.masses) - np.log(prev.masses)
    return mick_solver._transport(p, new, D, s, D_prev, tol)


def plain_transport(p, old, new, tol):
    """The transport of the masses p from the board old to new as products:
    Sinkhorn(p * new / old)."""
    return mick_solver._sinkhorn(p.masses * (new.masses / old.masses), tol)


class TestTransportedStart:
    def assert_same_fixed_point(self, report, cfg):
        """inner_fixed_point from the uniform board at the report's
        multiplier reproduces the report."""
        start = uniform_checkerboard(cfg.n)
        state = inner_fixed_point(start, report.state.multiplier, cfg).state
        gap = state.density.masses - report.state.density.masses
        assert np.max(np.abs(gap)) <= 1e-10
        tau = kendall_tau_checkerboard(state.density)
        assert abs(tau - report.achieved_tau) <= 1e-10

    # the problem is non-convex: the transported starts must not select
    # another stationary point than a cold start at the same multiplier.
    # Two solves stopped anywhere within the residual tolerance differ in
    # tau by up to about 0.23 tol_fix at n = 4 (2.3e-10 at the default
    # 1e-9), so the pairs and the cold solve run at tol_fix = 1e-10
    @pytest.mark.parametrize("n, tau", START_POINTS + [(256, 0.307)])
    def test_answer_is_the_fixed_point_at_its_multiplier(self, n, tau):
        for report in start_pair(n, tau, tol_fix=1e-10):
            assert report.converged
            cfg = SolverConfig(n=n, target_tau=tau, tol_fix=1e-10)
            self.assert_same_fixed_point(report, cfg)

    def test_high_tau_inner_steps(self):
        # the Frank start projects less than the uniform start at the same
        # first multiplier
        frank, uniform = start_pair(128, 0.93)
        assert frank.inner_iterations_total < uniform.inner_iterations_total

    @pytest.mark.parametrize("init", ["auto", 0.5])
    def test_one_frank_board_per_evaluation(self, monkeypatch, init):
        calls = record_calls(monkeypatch, "frank_checkerboard", copula_core)
        report = solve_mick(SolverConfig(n=16, target_tau=0.6, multiplier_init=init))
        assert report.outer_iterations >= 3
        assert len(calls) <= report.outer_iterations

    def test_transport_of_a_frank_board_is_the_new_board(self):
        old = frank_checkerboard(FrankParameter(3.0), 16)
        new = frank_checkerboard(FrankParameter(3.5), 16)
        moved = transport(old, old, new, MARGINAL_TOL)
        assert np.max(np.abs(moved.masses - new.masses)) <= 1e-12

    def test_underflowing_kernel_starts_from_previous_masses(self):
        tiny = 1e-300
        p = CheckerboardDensity(2, np.array([[0.5, tiny], [tiny, 0.5]]))
        old = uniform_checkerboard(2)
        new = CheckerboardDensity(2, np.array([[0.5, 1e-30], [1e-30, 0.5]]))
        # tiny * 4e-30 underflows to 0
        assert transport(p, old, new, MARGINAL_TOL) is p

    def test_path_across_checkerboard_support(self):
        # lambda goes from theta = 304, beyond the boards, to about 234
        cfg = SolverConfig(n=64, target_tau=0.975, multiplier_init=76.0)
        report = solve_mick(cfg)
        assert report.converged
        assert abs(report.achieved_tau - 0.975) <= cfg.tol_tau
        assert 4.0 * 76.0 > THETA_SUPPORT > report.implied_theta
        self.assert_same_fixed_point(report, cfg)


def departure(report, lam):
    """log p - log F(4 lam): how far the report's masses are from the Frank
    board of lam."""
    p = report.state.density.masses
    return np.log(p) - np.log(mick_solver._frank_board(lam, p.shape[0]).masses)


def secant_start(lams, reports, cfg):
    """The start of an evaluation at lams[-1], after evaluations at lams[-3]
    and lams[-2] that gave reports: Sinkhorn(exp(log F(4 lam') + D2 + s (D2 -
    D1))) to that evaluation's tol_p, with D_k the departure of report k."""
    (lam1, lam2, lam), (r1, r2) = lams[-3:], reports[-2:]
    D1, D2 = departure(r1, lam1), departure(r2, lam2)
    s = (lam - lam2) / (lam2 - lam1)
    L = np.log(mick_solver._frank_board(lam, cfg.n).masses) + D2 + s * (D2 - D1)
    tol_p = mick_solver._projection_tol(lam, cfg)
    return mick_solver._sinkhorn(np.exp(L - L.max()), tol_p)


class TestSecantStart:
    """From the third evaluation on, a solve starts from the previous masses
    carried along the Frank boards, with their departure from the boards
    extrapolated along the secant through the last two evaluations."""

    def boards_and_masses(self):
        cfg = SolverConfig(n=16, target_tau=0.9)
        old, prev, new = (mick_solver._frank_board(x, 16) for x in (14.0, 13.5, 14.5))
        p = inner_fixed_point(old, 14.0, cfg).state.density
        p_prev = inner_fixed_point(prev, 13.5, cfg).state.density
        return p, old, new, p_prev, prev

    def test_zero_secant_is_the_plain_transport(self):
        p, old, new, p_prev, prev = self.boards_and_masses()
        moved = transport(p, old, new, MARGINAL_TOL, 0.0, p_prev, prev).masses
        plain = plain_transport(p, old, new, MARGINAL_TOL)
        assert np.max(np.abs(moved - plain)) <= 1e-16
        corrected = transport(p, old, new, MARGINAL_TOL, 1.0, p_prev, prev).masses
        assert np.max(np.abs(corrected - plain)) > 1e-6

    @pytest.mark.parametrize("n, tau", [(16, 0.9), (32, 0.95), (8, 0.307)])
    def test_later_evaluations_start_from_corrected_kernel(self, monkeypatch, n, tau):
        calls = record_calls(monkeypatch, "inner_fixed_point")
        cfg = SolverConfig(n=n, target_tau=tau)
        assert solve_mick(cfg).converged
        assert len(calls) >= 3
        lams = [args[1] for args, _ in calls]
        reports = [report for _, report in calls]
        # the second evaluation keeps the plain transport
        first = reports[0].state.density
        boards = [mick_solver._frank_board(lam, n) for lam in lams[:2]]
        tol_p = mick_solver._projection_tol(lams[1], cfg)
        plain = plain_transport(first, *boards, tol_p)
        assert np.max(np.abs(calls[1][0][0].masses - plain)) <= 1e-16
        for k in range(2, len(calls)):
            expected = secant_start(lams[: k + 1], reports[:k], cfg)
            assert np.max(np.abs(calls[k][0][0].masses - expected)) <= 1e-16

    def test_repeated_multiplier_keeps_the_plain_transport(self, monkeypatch):
        # tau that jumps across the target at lambda = 0.6 draws the search
        # onto two adjacent floats, where it evaluates one multiplier twice
        # in a row; each evaluation returns real masses, at multipliers that
        # alternate so that the departures of a repeated pair differ
        calls = []

        def jump(start, lam, cfg, off_target_exit=False):
            masses_at = 0.5 if len(calls) % 2 else 0.4
            report = inner_fixed_point(start, masses_at, cfg, off_target_exit)
            tau = cfg.target_tau + (0.5 if lam > 0.6 else -0.5)
            state = replace(report.state, multiplier=lam)
            report = replace(report, achieved_tau=tau, state=state)
            calls.append((start, lam, cfg, report))
            return report

        monkeypatch.setattr(mick_solver, "inner_fixed_point", jump)
        with pytest.raises(NoConvergence):
            solve_mick(SolverConfig(n=4, target_tau=0.3, max_outer=70))
        lams = [lam for _, lam, _, _ in calls]
        repeats = [k for k in range(2, len(calls)) if lams[k - 1] == lams[k - 2]]
        assert repeats
        for k in repeats:
            start, lam, cfg, _ = calls[k]
            _, lam2, _, report = calls[k - 1]
            p = report.state.density
            boards = [mick_solver._frank_board(x, 4) for x in (lam2, lam)]
            plain = plain_transport(p, *boards, mick_solver._projection_tol(lam, cfg))
            assert np.max(np.abs(start.masses - plain)) <= 1e-16

    @pytest.mark.parametrize("shift", [-800.0, 1e308], ids=["underflow", "overflow"])
    def test_corrected_kernel_without_a_positive_finite_cell_falls_back(self, shift):
        # the departure's change is 0 but in one cell, where the secant takes
        # the kernel's cell to exp(-800) = 0, or to inf and so to NaN
        p, old, new, _, _ = self.boards_and_masses()
        D = np.log(p.masses) - np.log(old.masses)
        D_prev = D.copy()
        D_prev[3, 5] -= shift
        assert mick_solver._transport(p, new, D, 10.0, D_prev, MARGINAL_TOL) is p


SCAN_TAUS = (
    -0.9, -0.6, -0.307, -0.3, 0.1, 0.2, 0.3, 0.307, 0.5, 0.6, 0.8, 0.9, 0.93, 0.95,
    0.985,
)


# n = 4...128 x SCAN_TAUS where feasible: 75 points
SCAN_POINTS = [
    (n, tau) for n in (4, 8, 16, 32, 64, 128) for tau in SCAN_TAUS
    if abs(tau) < tau_max_for_grid(n)
]


@lru_cache(maxsize=None)
def scan(tol_tau):
    """The configs and reports of the scan's solves at tol_tau."""
    cfgs = [SolverConfig(n=n, target_tau=t, tol_tau=tol_tau) for n, t in SCAN_POINTS]
    return [(cfg, solve_mick(cfg)) for cfg in cfgs]


def test_scan_converges_in_few_evaluations():
    # how few: WORK's scan rows
    assert len(SCAN_POINTS) == 75
    for cfg, report in scan(SolverConfig.tol_tau):
        assert report.converged, (cfg.n, cfg.target_tau)
        assert report.stationarity_residual <= min(cfg.tol_fix, cfg.tol_tau)


class TestIterateZero:
    """The start of each inner solve is its iterate zero: evaluated before
    any projection, returned as it is when it already meets the exit test."""

    @pytest.mark.parametrize("n", [256, 512])
    def test_fine_grid_returns_the_frank_start(self, n):
        cfg = SolverConfig(n=n, target_tau=0.307)
        report = solve_mick(cfg)
        # solve_mick's first multiplier, the closed-form seed
        theta = theta_from_tau(0.307).theta
        lam = (theta + 2.0 * theta / (9.0 * mick_solver._tau_slope(theta) * n**2)) / 4.0
        board = frank_checkerboard(FrankParameter(4.0 * lam), n)
        assert report.converged and report.state.multiplier == lam
        assert report.outer_iterations == 1 and report.inner_iterations_total == 0
        assert np.array_equal(report.state.density.masses, board.masses)
        assert report.stationarity_residual <= cfg.tol_fix

    def test_uniform_board_at_zero_multiplier(self):
        start = uniform_checkerboard(9)
        report = inner_fixed_point(start, 0.0, SolverConfig(n=9, target_tau=0.3))
        assert report.inner_iterations_total == 0
        assert report.stationarity_residual == 0.0
        assert np.array_equal(report.state.density.masses, start.masses)

    def test_off_target_exit_at_the_start(self):
        # the Frank board at theta(-0.6) misses the target by far more than
        # its residual: the search needs no projection to learn its side
        early = bridge_evaluation(64, -0.6, 1e-6, True)
        lam = bridge_multiplier(-0.6)
        board = frank_checkerboard(FrankParameter(4.0 * lam), 64)
        assert early.inner_iterations_total == 0 and not early.converged
        assert np.array_equal(early.state.density.masses, board.masses)
        miss = abs(early.achieved_tau + 0.6)
        assert miss > 1e-6
        assert early.stationarity_residual <= mick_solver._FORCING * miss

    @pytest.mark.parametrize(
        "start, lam",
        [("uniform", 1.0), ("uniform", 0.0), ("frank", 0.75)],
    )
    def test_report_carries_the_last_evaluation(self, start, lam):
        # potentials and tau are those of the last residual evaluation,
        # bit for bit, whether or not the solve projected
        board = (
            uniform_checkerboard(16) if start == "uniform"
            else frank_checkerboard(FrankParameter(3.0), 16)
        )
        report = inner_fixed_point(board, lam, SolverConfig(n=16, target_tau=0.3))
        p = report.state.density.masses
        S = _potential_from_masses(p)
        M = np.log(p) - 2.0 * lam * S
        assert report.achieved_tau == float(np.sum(p * S))
        assert np.array_equal(report.state.row_potentials, M.mean(axis=1) - M.mean())
        assert np.array_equal(report.state.col_potentials, M.mean(axis=0) - M.mean())

    @pytest.mark.parametrize(
        "points",
        [
            [(n, 0.307) for n in (4, 8, 16, 32, 64, 128, 256)],  # sweep_mid
            [(16, 0.9), (32, 0.95)],  # solve_high_tau
        ],
    )
    def test_every_start_is_as_exact_as_a_projection(self, monkeypatch, points):
        # a start that meets the exit test is returned unprojected, so its
        # marginals must be within the tol_p its evaluation projects to
        calls = record_calls(monkeypatch, "inner_fixed_point")
        for n, tau in points:
            assert solve_mick(SolverConfig(n=n, target_tau=tau)).converged
        assert len(calls) > len(points)
        for (start, lam, cfg, _), _ in calls:
            masses, tol_p = start.masses, mick_solver._projection_tol(lam, cfg)
            n = masses.shape[0]
            err = max(
                np.abs(masses.sum(axis=1) - 1 / n).max(),
                np.abs(masses.sum(axis=0) - 1 / n).max(),
            )
            assert err <= tol_p


@pytest.mark.parametrize("key", WORK, ids=lambda key: "-".join(map(str, key)))
def test_pinned_work(key):
    kind, *args = key
    if kind == "layers":
        _, calls = high_tau_projection_calls()
        assert tuple(len(c) for c in calls.values()) == WORK[key]
        return
    if kind == "solve":
        n, tau, init, tol_tau = args
        cfg = SolverConfig(n=n, target_tau=tau, tol_tau=tol_tau, multiplier_init=init)
        reports = [counted_solve(cfg)[0]]
    elif kind == "scan":
        reports = [report for _, report in scan(*args)]
    elif kind == "inner":
        n, tau = args
        start, cfg = uniform_checkerboard(n), SolverConfig(n=n, target_tau=tau)
        reports = [inner_fixed_point(start, bridge_multiplier(tau), cfg)]
    else:
        reports = [bridge_evaluation(*args)]
    evaluations = sum(r.outer_iterations for r in reports)
    assert (evaluations, sum(r.inner_iterations_total for r in reports)) == WORK[key]
    if kind in ("solve", "scan"):
        assert all(r.converged for r in reports)


def test_readme_work_table_shows_the_solve_and_scan_rows():
    # README's "Measured work" table against WORK, cell for cell
    lines = README.read_text().split("### Measured work", 1)[1].splitlines()
    first = next(k for k, ln in enumerate(lines) if ln.startswith("|"))
    shown = {}
    for row in takewhile(lambda ln: ln.startswith("|"), lines[first + 2 :]):
        cells = row.strip("|").split("|")
        kind, n, tau, init, tol_tau, evaluations, projections = (
            c.strip().strip("`").replace("−", "-") for c in cells
        )
        if kind == "scan":
            key = ("scan", float(tol_tau))
        else:
            init = init if init == "auto" else float(init)
            key = ("solve", int(n), float(tau), init, float(tol_tau))
        shown[key] = (int(evaluations), int(projections))
    assert shown == {key: w for key, w in WORK.items() if key[0] in ("solve", "scan")}
