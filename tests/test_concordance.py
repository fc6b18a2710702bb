import math

import numpy as np
import pytest

from frankmick import (
    CheckerboardDensity,
    FrankParameter,
    concordance_potential,
    frank_cdf,
    frank_checkerboard,
    frank_density,
    kendall_tau_checkerboard,
    liouville_residual,
    uniform_checkerboard,
)
from frankmick.concordance import _potential_from_masses
from frankmick.errors import NonPositiveDensity

from _oracles import (
    brute_potential,
    brute_tau,
    random_checkerboard,
    sample_checkerboard,
    two_cumsum_potential,
)


def diag_half() -> CheckerboardDensity:
    return CheckerboardDensity(2, np.array([[0.5, 0.0], [0.0, 0.5]]))


class TestConcordancePotential:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_matches_brute_force(self, n):
        rng = np.random.default_rng(n)
        m = random_checkerboard(rng, n)
        S = concordance_potential(CheckerboardDensity(n, m))
        assert np.max(np.abs(S - brute_potential(m))) <= 1e-12

    # both sides of the switch to row adds at n = 256, and one matrix with
    # the reversed columns of a negative-theta board
    @pytest.mark.parametrize("n", [1, 2, 181, 182, 255, 256, 333, 1024])
    def test_bit_identical_to_whole_matrix_cumsums(self, n):
        m = np.random.default_rng(n).random((n, n))
        for x in (m, m[:, ::-1]):
            assert np.array_equal(_potential_from_masses(x), two_cumsum_potential(x))

    def test_values_bounded(self):
        rng = np.random.default_rng(3)
        for n in (2, 5, 9):
            m = random_checkerboard(rng, n)
            S = concordance_potential(CheckerboardDensity(n, m))
            assert S.min() >= -1.0 - 1e-12 and S.max() <= 1.0 + 1e-12

    def test_uniform_is_separable_rank_one(self):
        n = 4
        S = concordance_potential(uniform_checkerboard(n))
        s = (2.0 * np.arange(1, n + 1) - 1.0 - n) / n
        np.testing.assert_allclose(S, np.outer(s, s), atol=1e-14)
        assert np.max(np.abs(S - brute_potential(uniform_checkerboard(n).masses))) <= 1e-14

    def test_diagonal_two_by_two(self):
        # brute-force enumeration with sgn(0) = 0: only the opposite
        # diagonal cell contributes to each diagonal entry
        S = concordance_potential(diag_half())
        np.testing.assert_allclose(S, brute_potential(diag_half().masses), atol=1e-15)
        np.testing.assert_allclose(S, np.array([[0.5, 0.0], [0.0, 0.5]]), atol=1e-15)

    def test_quadratic_form_identity(self):
        rng = np.random.default_rng(0)
        for trial in range(100):
            n = int(rng.integers(2, 8))
            m = random_checkerboard(rng, n)
            c = CheckerboardDensity(n, m)
            S = concordance_potential(c)
            assert float(np.sum(m * S)) == pytest.approx(
                kendall_tau_checkerboard(c), abs=1e-12
            )

    def test_gradient_of_tau(self):
        # finite-difference oracle: perturb a pair of cells (staying in the
        # marginal polytope) and compare against 2 * S
        n = 4
        rng = np.random.default_rng(12)
        m = random_checkerboard(rng, n)
        S = concordance_potential(CheckerboardDensity(n, m))
        eps = 1e-7
        # move eps of mass around a 2x2 cycle to preserve marginals
        for (i, j, k, l) in [(0, 0, 1, 1), (0, 2, 3, 3), (2, 1, 3, 0)]:
            d = np.zeros((n, n))
            d[i, j] += eps
            d[k, l] += eps
            d[i, l] -= eps
            d[k, j] -= eps

            def tau_of(x):
                return float(np.sum(x * brute_potential(x)))

            fd = (tau_of(m + d) - tau_of(m - d)) / (2 * eps)
            predicted = 2.0 * (S[i, j] + S[k, l] - S[i, l] - S[k, j])
            assert fd == pytest.approx(predicted, abs=1e-6)


class TestKendallTau:
    def test_uniform_is_zero(self):
        assert kendall_tau_checkerboard(uniform_checkerboard(5)) == pytest.approx(
            0.0, abs=1e-15
        )

    def test_diagonal_two_by_two(self):
        # hand enumeration: the only nonzero contributions are the two
        # cross-diagonal pairs, each worth +0.25
        assert kendall_tau_checkerboard(diag_half()) == pytest.approx(0.5, abs=1e-15)
        assert brute_tau(diag_half().masses) == pytest.approx(0.5, abs=1e-15)

    @pytest.mark.parametrize("theta", [3.0, -30.0])
    @pytest.mark.parametrize("n", [7, 256, 1024])
    def test_bit_identical_to_sum_of_products(self, n, theta):
        board = frank_checkerboard(FrankParameter(theta), n)
        m = board.masses
        expected = float(np.sum(m * two_cumsum_potential(m)))
        assert kendall_tau_checkerboard(board) == expected

    def test_frank_board_approaches_debye_tau(self):
        board = frank_checkerboard(FrankParameter(3.0), 64)
        assert kendall_tau_checkerboard(board) == pytest.approx(0.307, abs=0.01)

    def test_monte_carlo_validation(self):
        # sample from the checkerboard itself and compare pairwise
        # concordance; validates the discrete sign-sum derivation
        from scipy.stats import kendalltau

        board = frank_checkerboard(FrankParameter(3.0), 8)
        u, v = sample_checkerboard(board.masses, 100_000, seed=9)
        mc = kendalltau(u, v).statistic
        assert kendall_tau_checkerboard(board) == pytest.approx(mc, abs=0.01)

    def test_increasing_in_theta(self):
        taus = [
            kendall_tau_checkerboard(frank_checkerboard(FrankParameter(t), 16))
            for t in (-5.0, -2.0, -0.5, 0.5, 2.0, 5.0)
        ]
        assert np.all(np.diff(taus) > 0.0)

    def test_transpose_invariant(self):
        rng = np.random.default_rng(21)
        m = random_checkerboard(rng, 6)
        c = CheckerboardDensity(6, m)
        ct = CheckerboardDensity(6, m.T.copy())
        assert kendall_tau_checkerboard(c) == pytest.approx(
            kendall_tau_checkerboard(ct), abs=1e-14
        )

    def test_row_reversal_negates(self):
        rng = np.random.default_rng(22)
        m = random_checkerboard(rng, 6)
        c = CheckerboardDensity(6, m)
        cr = CheckerboardDensity(6, m[::-1].copy())
        assert kendall_tau_checkerboard(cr) == pytest.approx(
            -kendall_tau_checkerboard(c), abs=1e-14
        )

    def test_in_open_interval(self):
        rng = np.random.default_rng(23)
        for n in (2, 4, 7):
            tau = kendall_tau_checkerboard(
                CheckerboardDensity(n, random_checkerboard(rng, n))
            )
            assert -1.0 < tau < 1.0


class TestLiouvilleResidual:
    def test_second_order_convergence(self):
        p = FrankParameter(3.0)

        def density(u, v):
            return frank_density(p, u, v)

        sup64 = np.max(np.abs(liouville_residual(density, 6.0, 64)))
        sup128 = np.max(np.abs(liouville_residual(density, 6.0, 128)))
        assert 3.0 <= sup64 / sup128 <= 5.0

    def test_independence_exact_zero(self):
        def ones(u, v):
            return np.ones(np.broadcast(u, v).shape)

        resid = liouville_residual(ones, 0.0, 16)
        assert np.max(np.abs(resid)) == 0.0

    def test_wrong_constant_detected(self):
        p = FrankParameter(3.0)

        def density(u, v):
            return frank_density(p, u, v)

        sup64 = np.max(np.abs(liouville_residual(density, 7.0, 64)))
        sup128 = np.max(np.abs(liouville_residual(density, 7.0, 128)))
        # misspecified proportionality: residual stays O(1) instead of O(h^2)
        assert sup64 > 0.5 and sup128 > 0.5
        assert sup64 / sup128 < 1.5

    def test_nonpositive_density_raises(self):
        def dodgy(u, v):
            return np.where(u > 0.5, -1.0, 1.0)

        with pytest.raises(NonPositiveDensity):
            liouville_residual(dodgy, 0.0, 16)

    def test_small_grid_rejected(self):
        with pytest.raises(ValueError):
            liouville_residual(lambda u, v: np.ones_like(u), 0.0, 4)

    def test_density_is_evaluated_once_on_the_node_grid(self):
        p = FrankParameter(3.0)
        calls = []

        def density(u, v):
            calls.append(np.broadcast(u, v).shape)
            return frank_density(p, u, v)

        resid = liouville_residual(density, 6.0, 16)
        assert calls == [(17, 17)]
        assert resid.shape == (17, 17)
        assert not np.any(resid[[0, -1], :]) and not np.any(resid[:, [0, -1]])

    @pytest.mark.parametrize("n", [9, 64])
    def test_matches_the_stencil_from_scalar_calls(self, n):
        p = FrankParameter(3.0)

        def log_c(i, j):
            return math.log(frank_density(p, i / n, j / n))

        resid = liouville_residual(lambda u, v: frank_density(p, u, v), 6.0, n)
        for i, j in [(1, 1), (1, n - 1), (n // 2, 3), (n - 1, n - 2)]:
            mixed = (
                log_c(i + 1, j + 1) - log_c(i + 1, j - 1)
                - log_c(i - 1, j + 1) + log_c(i - 1, j - 1)
            ) * n * n / 4.0
            want = mixed - 6.0 * frank_density(p, i / n, j / n)
            assert resid[i, j] == pytest.approx(want, rel=1e-12, abs=1e-11)

    @pytest.mark.parametrize(
        "value, constant",
        [(np.nan, 0.0), (np.inf, 0.0), (1.0, np.inf), (1.0, -np.inf)],
        ids=["nan-density", "inf-density", "inf-constant", "minus-inf-constant"],
    )
    def test_nonfinite_residual_raises(self, value, constant):
        def density(u, v):
            return np.where((u == 0.5) & (v == 0.5), value, 1.0)

        with pytest.raises(ValueError, match="finite"):
            liouville_residual(density, constant, 16)
