"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria execute.
"""

import time

import numpy as np

from frankmick import (
    FrankParameter,
    SolverConfig,
    compare_to_frank,
    frank_cdf,
    frank_checkerboard,
    frank_density,
    frank_sample,
    kendall_tau_checkerboard,
    liouville_residual,
    solve_mick,
    tau_from_theta,
    theta_from_tau,
)

from _oracles import (
    frank_cdf_mp,
    frank_dps,
    gauss_legendre_2d,
    projected_gradient_mick,
    random_feasible_with_tau,
)


def _report(num, ok, detail):
    print(f"\n[criterion {num}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_tau_theta_relation():
    tau3 = tau_from_theta(FrankParameter(3.0))
    t0 = time.perf_counter()
    tau_from_theta(FrankParameter(3.0))
    elapsed = time.perf_counter() - t0
    worst = 0.0
    for theta in (-10.0, -3.0, -1.0, -0.5, 0.5, 1.0, 3.0, 10.0):
        back = theta_from_tau(tau_from_theta(FrankParameter(theta)))
        worst = max(worst, abs(back.theta - theta))
    ok = abs(tau3 - 0.307) <= 1e-3 and worst <= 1e-8 and elapsed < 1e-3
    _report(
        1,
        ok,
        f"tau(3)={tau3:.6f} (target 0.307 +- 1e-3), round-trip worst "
        f"{worst:.2e} (<= 1e-8), eval time {elapsed * 1e3:.3f} ms (< 1 ms)",
    )


def test_criterion_2_liouville_residual_order():
    t0 = time.perf_counter()
    details = []
    ok = True
    for theta in (3.0, -3.0):
        p = FrankParameter(theta)

        def density(u, v):
            return frank_density(p, u, v)

        sup64 = float(np.max(np.abs(liouville_residual(density, 2 * theta, 64))))
        sup128 = float(np.max(np.abs(liouville_residual(density, 2 * theta, 128))))
        ok = ok and sup128 <= sup64 / 3.0
        details.append(f"theta={theta}: {sup64:.2e} -> {sup128:.2e}")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1.0
    _report(2, ok, "; ".join(details) + f"; runtime {elapsed:.2f} s (< 1 s)")


def test_criterion_3_cdf_identity():
    # frank_cdf against -(1/theta) log F evaluated in mpmath, on the 21 x 21
    # nodes, edges included
    nodes = np.arange(21) / 20
    worst = 0.0
    for theta in (2.0, -2.0, 3.0, -3.0):
        dps = frank_dps(theta)
        ref = np.array([[frank_cdf_mp(theta, u, v, dps) for v in nodes] for u in nodes])
        got = frank_cdf(FrankParameter(theta), nodes[:, None], nodes[None, :])
        worst = max(worst, float(np.max(np.abs(got - ref))))
    t = 2.0
    F00 = (np.exp(-t) - 2.0 + 1.0) / np.expm1(-t)
    F11 = (np.exp(-t) - 2 * np.exp(-t) + np.exp(-2 * t)) / np.expm1(-t)
    corner = max(abs(F00 - 1.0), abs(F11 - np.exp(-t)))
    ok = worst <= 1e-12 and corner <= 1e-15
    _report(
        3,
        ok,
        f"sup |cdf - (-(1/theta) log F in mpmath)| = {worst:.2e} (<= 1e-12), "
        f"corner error {corner:.2e} (<= 1e-15)",
    )


def test_criterion_4_solver_matches_frank_checkerboard():
    t0 = time.perf_counter()
    gaps = {}
    max_cell = {}
    for n in (8, 16, 32):
        report = solve_mick(SolverConfig(n=n, target_tau=0.307))
        gaps[n] = compare_to_frank(report, FrankParameter(3.0))
        max_cell[n] = float(report.state.density.masses.max())
    elapsed = time.perf_counter() - t0
    ok = (
        gaps[8] > gaps[16] > gaps[32]
        and gaps[32] < 0.10 * max_cell[32]
        and elapsed < 60.0
    )
    _report(
        4,
        ok,
        f"sup gaps n=8/16/32: {gaps[8]:.2e} > {gaps[16]:.2e} > {gaps[32]:.2e}; "
        f"n=32 gap vs 10% of max cell {0.1 * max_cell[32]:.2e}; "
        f"runtime {elapsed:.1f} s (< 60 s)",
    )


def test_criterion_5_oracle_equivalence_and_optimality():
    worst = 0.0
    for n in (3, 4):
        for tau in (0.1, 0.3):
            report = solve_mick(
                SolverConfig(n=n, target_tau=tau, tol_tau=1e-10, tol_fix=1e-12)
            )
            reference = projected_gradient_mick(n, tau)
            worst = max(
                worst,
                float(np.max(np.abs(report.state.density.masses - reference))),
            )
    entropy_ok = True
    margin = np.inf
    for n in (3, 4):
        report = solve_mick(SolverConfig(n=n, target_tau=0.3, tol_tau=1e-9))
        m = report.state.density.masses
        ours = float(np.sum(m * np.log(m)))
        rng = np.random.default_rng(123)
        checked = 0
        while checked < 1000:
            cand = random_feasible_with_tau(rng, n, 0.3)
            if cand is None:
                continue
            checked += 1
            gap = float(np.sum(cand * np.log(cand))) - ours
            margin = min(margin, gap)
            entropy_ok = entropy_ok and gap >= -1e-9
    ok = worst <= 1e-5 and entropy_ok
    _report(
        5,
        ok,
        f"projected-gradient sup gap {worst:.2e} (<= 1e-5); entropy margin vs "
        f"2000 random feasible densities >= {margin:.2e} (>= -1e-9)",
    )


def test_criterion_6_discrete_tau_formula():
    from scipy.stats import kendalltau

    board_tau = kendall_tau_checkerboard(frank_checkerboard(FrankParameter(3.0), 64))
    pairs = frank_sample(FrankParameter(3.0), 100_000, seed=42)
    mc_tau = kendalltau(pairs[:, 0], pairs[:, 1]).statistic
    ok = abs(board_tau - mc_tau) <= 0.01 and abs(board_tau - 0.307) <= 0.01
    _report(
        6,
        ok,
        f"checkerboard tau {board_tau:.4f} vs Monte-Carlo {mc_tau:.4f} "
        f"(|diff| <= 0.01) and vs 0.307 (<= 0.01)",
    )


def test_criterion_7_copula_law_invariants():
    worst_integral = 0.0
    for theta in (-10.0, -3.0, -0.5, 0.5, 3.0, 10.0):
        p = FrankParameter(theta)
        total = gauss_legendre_2d(lambda u, v: frank_density(p, u, v), order=64)
        worst_integral = max(worst_integral, abs(total - 1.0))
    worst_marginal = 0.0
    for theta in (-3.0, 3.0):
        for n in (8, 32):
            board = frank_checkerboard(FrankParameter(theta), n)
            worst_marginal = max(
                worst_marginal,
                float(np.max(np.abs(board.masses.sum(axis=0) - 1.0 / n))),
                float(np.max(np.abs(board.masses.sum(axis=1) - 1.0 / n))),
            )
    min_mass = min(
        solve_mick(SolverConfig(n=8, target_tau=tau)).state.density.masses.min()
        for tau in (-0.4, 0.307)
    )
    ok = worst_integral <= 1e-8 and worst_marginal <= 1e-12 and min_mass > 0.0
    _report(
        7,
        ok,
        f"density integral error {worst_integral:.2e} (<= 1e-8); marginal "
        f"error {worst_marginal:.2e} (<= 1e-12); min solver mass "
        f"{min_mass:.2e} (> 0)",
    )


def test_criterion_8_multiplier_trend():
    gaps = []
    for n in (8, 16, 32):
        report = solve_mick(SolverConfig(n=n, target_tau=0.307))
        gaps.append(abs(report.implied_theta - 3.0))
    ok = gaps[0] > gaps[1] > gaps[2]
    _report(
        8,
        ok,
        "|implied_theta - 3| at n=8/16/32: "
        + " > ".join(f"{g:.4f}" for g in gaps),
    )
