import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from frankmick import (
    CheckerboardDensity,
    FrankParameter,
    GridFunction,
    checkerboard_cdf_eval,
    debye_d1,
    frank_cdf,
    frank_checkerboard,
    frank_density,
    frank_generator,
    frank_generator_inverse,
    frank_sample,
    tau_from_theta,
    theta_from_tau,
    uniform_checkerboard,
)
from frankmick.copula_core import _tau, _tau_slope
from frankmick.errors import FrankMickError, NonInvertible, ThetaOutOfSupport, ZeroTau

from _oracles import frank_tau_mp, frank_theta_mp, gauss_legendre_2d

THETAS = [-10.0, -3.0, -0.5, 0.5, 3.0, 10.0]

# 50-digit reference values, computed offline with mpmath (mp.dps = 50)
CDF_HALF_HALF_T3 = 0.33608869914093570003     # also matches 2-D quadrature
GEN_INV_TM2_S06 = 1.0129689599915748773       # psi^{-1} at theta=-2, s=0.6
D1_AT_3 = 0.48043521957304283829
D1_AT_M2 = 1.6069472846098100721
TAU_AT_3 = 0.30724695943072378439


class TestFrankParameter:
    @pytest.mark.parametrize("bad", [0.0, math.inf, -math.inf, math.nan])
    def test_rejects_invalid_theta(self, bad):
        with pytest.raises(ValueError):
            FrankParameter(bad)

    def test_evaluators_reject_extreme_theta(self):
        p = FrankParameter(400.0)  # the value itself is legal
        for evaluate in (
            lambda: frank_cdf(p, 0.5, 0.5),
            lambda: frank_density(p, 0.5, 0.5),
            lambda: frank_generator(p, 0.5),
            lambda: frank_generator_inverse(p, 0.5),
            lambda: frank_sample(p, 10, seed=0),
            lambda: frank_checkerboard(p, 4),
        ):
            with pytest.raises(ThetaOutOfSupport):
                evaluate()

    def test_extreme_theta_error_is_typed(self):
        p = FrankParameter(400.0)
        with pytest.raises(ThetaOutOfSupport) as err:
            frank_checkerboard(p, 4)
        assert isinstance(err.value, FrankMickError)
        assert isinstance(err.value, ValueError)


class TestFrankCdf:
    def test_boundary_values(self):
        p = FrankParameter(3.0)
        assert frank_cdf(p, 0.7, 1.0) == pytest.approx(0.7, abs=1e-12)
        assert frank_cdf(p, 0.4, 0.0) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("theta", THETAS)
    def test_boundary_identities_on_grid(self, theta):
        p = FrankParameter(theta)
        t = np.linspace(0.0, 1.0, 21)
        assert np.max(np.abs(frank_cdf(p, t, np.zeros(21)))) <= 1e-12
        assert np.max(np.abs(frank_cdf(p, np.zeros(21), t))) <= 1e-12
        assert np.max(np.abs(frank_cdf(p, t, np.ones(21)) - t)) <= 1e-12
        assert np.max(np.abs(frank_cdf(p, np.ones(21), t) - t)) <= 1e-12

    def test_matches_density_quadrature(self):
        # independent oracle: 2-D quadrature of the density over [0,.5]^2
        assert frank_cdf(FrankParameter(3.0), 0.5, 0.5) == pytest.approx(
            CDF_HALF_HALF_T3, abs=1e-8
        )

    @pytest.mark.parametrize("theta", THETAS)
    def test_two_increasing(self, theta):
        p = FrankParameter(theta)
        t = np.linspace(0.0, 1.0, 33)
        cdf = frank_cdf(p, t[:, None], t[None, :])
        second = np.diff(np.diff(cdf, axis=0), axis=1)
        assert second.min() >= -1e-14

    def test_rejects_out_of_range(self):
        p = FrankParameter(3.0)
        with pytest.raises(ValueError):
            frank_cdf(p, -0.1, 0.5)
        with pytest.raises(ValueError):
            frank_cdf(p, 0.5, 1.1)
        # NaN is neither below 0 nor above 1, but it is not in [0, 1]
        board = frank_checkerboard(p, 4)
        for evaluate in (
            lambda: frank_cdf(p, 0.5, math.nan),
            lambda: frank_density(p, np.array([0.2, math.nan]), 0.5),
            lambda: checkerboard_cdf_eval(board, math.nan, 0.5),
        ):
            with pytest.raises(ValueError):
                evaluate()

    @settings(max_examples=60, deadline=None)
    @given(
        theta=st.floats(-40, 40).filter(lambda t: abs(t) > 1e-3),
        u=st.floats(0, 1),
        v=st.floats(0, 1),
    )
    def test_bounded_by_min(self, theta, u, v):
        c = float(frank_cdf(FrankParameter(theta), u, v))
        assert -1e-12 <= c <= min(u, v) + 1e-12


class TestGenerator:
    def test_inverse_at_one_is_zero(self):
        assert frank_generator_inverse(FrankParameter(3.0), 1.0) == pytest.approx(
            0.0, abs=1e-15
        )

    def test_round_trip(self):
        p = FrankParameter(3.0)
        assert frank_generator(p, frank_generator_inverse(p, 0.3)) == pytest.approx(
            0.3, abs=1e-12
        )

    @pytest.mark.parametrize("theta", THETAS)
    def test_round_trips_across_domain(self, theta):
        p = FrankParameter(theta)
        s = np.linspace(0.01, 1.0, 25)
        assert np.max(
            np.abs(frank_generator(p, frank_generator_inverse(p, s)) - s)
        ) <= 1e-12
        t = np.linspace(0.0, 5.0, 25)
        assert np.max(
            np.abs(frank_generator_inverse(p, frank_generator(p, t)) - t)
        ) <= 1e-12

    @pytest.mark.parametrize("theta", [20.0, 30.0, 40.0, 50.0])
    def test_value_at_zero_is_one(self, theta):
        # 1 + (e^-theta - 1) e^-s cancels to e^-theta at s = 0
        assert abs(frank_generator(FrankParameter(theta), 0.0) - 1.0) <= 1e-15

    def test_reference_value_negative_theta(self):
        got = float(frank_generator_inverse(FrankParameter(-2.0), 0.6))
        assert got > 0.0
        assert got == pytest.approx(GEN_INV_TM2_S06, abs=1e-14)

    def test_domain_errors(self):
        p = FrankParameter(2.0)
        with pytest.raises(ValueError):
            frank_generator_inverse(p, 0.0)
        with pytest.raises(ValueError):
            frank_generator(p, -0.5)

    def test_cdf_agrees_with_generator_composition(self):
        p = FrankParameter(3.0)
        u, v = 0.3, 0.8
        via_gen = frank_generator(
            p, frank_generator_inverse(p, u) + frank_generator_inverse(p, v)
        )
        assert float(frank_cdf(p, u, v)) == pytest.approx(float(via_gen), abs=1e-14)


class TestFrankDensity:
    @pytest.mark.parametrize("theta", THETAS)
    def test_symmetric(self, theta):
        p = FrankParameter(theta)
        rng = np.random.default_rng(7)
        u, v = rng.random(50), rng.random(50)
        np.testing.assert_allclose(
            frank_density(p, u, v), frank_density(p, v, u), rtol=1e-13
        )

    @pytest.mark.parametrize("theta", THETAS)
    def test_integrates_to_one(self, theta):
        p = FrankParameter(theta)
        total = gauss_legendre_2d(lambda u, v: frank_density(p, u, v))
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_strictly_positive(self):
        p = FrankParameter(-3.0)
        t = np.linspace(0.0, 1.0, 21)
        assert np.min(frank_density(p, t[:, None], t[None, :])) > 0.0

    def test_matches_mixed_difference_of_cdf(self):
        # finite-difference oracle on the cdf
        p = FrankParameter(3.0)
        h = 1e-4
        fd = (
            frank_cdf(p, 0.5 + h, 0.5 + h)
            - frank_cdf(p, 0.5 + h, 0.5 - h)
            - frank_cdf(p, 0.5 - h, 0.5 + h)
            + frank_cdf(p, 0.5 - h, 0.5 - h)
        ) / (4 * h * h)
        assert float(frank_density(p, 0.5, 0.5)) == pytest.approx(
            float(fd), abs=1e-4
        )


class TestFrankSample:
    def test_deterministic_given_seed(self):
        p = FrankParameter(3.0)
        a = frank_sample(p, 1000, seed=11)
        b = frank_sample(p, 1000, seed=11)
        assert np.array_equal(a, b)

    def test_in_unit_square(self):
        pairs = frank_sample(FrankParameter(-8.0), 5000, seed=1)
        assert pairs.min() >= 0.0 and pairs.max() <= 1.0

    def test_marginals_uniform(self):
        from scipy.stats import kstest

        pairs = frank_sample(FrankParameter(3.0), 100_000, seed=5)
        crit = 1.628 / math.sqrt(100_000)  # 1% critical value
        assert kstest(pairs[:, 0], "uniform").statistic < crit
        assert kstest(pairs[:, 1], "uniform").statistic < crit

    def test_sample_kendall_tau(self):
        from scipy.stats import kendalltau

        pairs = frank_sample(FrankParameter(3.0), 100_000, seed=2)
        tau = kendalltau(pairs[:, 0], pairs[:, 1]).statistic
        assert tau == pytest.approx(0.307, abs=0.01)

    def test_count_validation(self):
        with pytest.raises(ValueError):
            frank_sample(FrankParameter(3.0), 0, seed=0)

    @pytest.mark.parametrize("theta", [40.0, 50.0])
    def test_large_theta_off_the_edges(self, theta):
        from scipy.stats import kendalltau

        p = FrankParameter(theta)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            pairs = frank_sample(p, 200_000, seed=4)
        v = pairs[:, 1]
        assert not np.any((v == 0.0) | (v == 1.0))
        tau = kendalltau(pairs[:, 0], v).statistic
        assert tau == pytest.approx(tau_from_theta(p), abs=0.01)


class TestDebye:
    def test_limit_at_zero(self):
        assert debye_d1(1e-9) == pytest.approx(1.0, abs=1e-9)

    def test_series_quadrature_agree_at_switch(self):
        # just above the switch the quadrature branch runs; the series is
        # still accurate there (next omitted term ~ x^6), so they must agree
        x = 5e-3
        series = 1.0 - x / 4.0 + x * x / 36.0 - x**4 / 3600.0
        assert debye_d1(x) == pytest.approx(series, abs=1e-12)

    def test_reference_value(self):
        assert debye_d1(3.0) == pytest.approx(D1_AT_3, abs=1e-10)

    def test_reflection_identity(self):
        # D1(-x) = D1(x) + x/2
        assert debye_d1(-2.0) == pytest.approx(debye_d1(2.0) + 1.0, abs=1e-10)
        assert debye_d1(-2.0) == pytest.approx(D1_AT_M2, abs=1e-10)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_rejects_nonfinite(self, bad):
        with pytest.raises(ValueError):
            debye_d1(bad)


class TestTauTheta:
    def test_tau_at_three(self):
        assert tau_from_theta(FrankParameter(3.0)) == pytest.approx(0.307, abs=1e-3)
        assert tau_from_theta(FrankParameter(3.0)) == pytest.approx(
            TAU_AT_3, abs=1e-12
        )

    def test_near_independence(self):
        assert abs(tau_from_theta(FrankParameter(1e-6))) < 1e-6

    def test_odd(self):
        assert tau_from_theta(FrankParameter(-3.0)) == pytest.approx(
            -tau_from_theta(FrankParameter(3.0)), abs=1e-12
        )

    def test_strictly_increasing(self):
        grid = [t for t in np.linspace(-30, 30, 121) if t != 0.0]
        taus = [tau_from_theta(FrankParameter(t)) for t in grid]
        assert np.all(np.diff(taus) > 0.0)

    def test_inversion_matches_named_pairing(self):
        assert theta_from_tau(0.307).theta == pytest.approx(3.0, abs=0.01)

    @pytest.mark.parametrize("theta", [-10.0, -3.0, -0.5, 0.5, 3.0, 10.0])
    def test_round_trip(self, theta):
        tau = tau_from_theta(FrankParameter(theta))
        assert theta_from_tau(tau).theta == pytest.approx(
            theta, abs=1e-8
        )

    def test_extreme_tau_residual(self):
        p = theta_from_tau(0.99)
        assert math.isfinite(p.theta) and p.theta > 50.0
        assert abs(tau_from_theta(p) - 0.99) <= 1e-9

    def test_error_cases(self):
        with pytest.raises(ZeroTau):
            theta_from_tau(0.0)
        with pytest.raises(NonInvertible):
            theta_from_tau(1.0)
        with pytest.raises(NonInvertible):
            theta_from_tau(-1.5)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_search_cap(self, sign):
        # tau(600) = 0.99335161...: just below it inverts, just above it
        # raises at once
        p = theta_from_tau(sign * 0.99335)
        assert sign * p.theta == pytest.approx(599.854, abs=1e-3)
        assert abs(tau_from_theta(p) - sign * 0.99335) <= 1e-12
        with pytest.raises(NonInvertible):
            theta_from_tau(sign * 0.9934)

    def test_round_trip_to_round_off(self):
        # the inversion has no tolerance: it climbs until round-off stops it
        rng = np.random.default_rng(5)
        taus = np.exp(rng.uniform(math.log(1e-12), math.log(0.9933), 20_000))
        taus *= rng.choice([-1.0, 1.0], taus.size)
        worst = max(
            abs(tau_from_theta(theta_from_tau(t)) - t) / abs(t) for t in taus.tolist()
        )
        assert worst <= 4e-15

    def test_newton_from_below_premise(self):
        # theta_from_tau climbs by Newton steps from 9|tau| and never checks
        # for an overshoot: that needs tau concave (its slope nonincreasing)
        # and tau(theta) <= theta/9 on theta > 0, the series below theta = 2
        # and the dilogarithm above it included
        thetas = np.unique(np.concatenate((
            np.geomspace(1e-9, 600.0, 100_000),
            np.linspace(1.99, 2.01, 20_001),
        )))
        slopes = np.array([_tau_slope(t) for t in thetas])
        assert np.all(np.diff(slopes) <= 0.0)
        assert all(_tau(t) <= t / 9.0 for t in thetas)


class TestTauThetaSmall:
    """The bridge near independence, against 50-digit mpmath."""

    @pytest.mark.parametrize(
        "theta, rel",
        # the series serves |theta| < 1e-2; the closed form takes over at 1e-2
        [(1e-8, 1e-15), (-1e-8, 1e-15), (1e-4, 1e-15), (1e-2, 1e-10)],
    )
    def test_tau_matches_mpmath(self, theta, rel):
        ref = frank_tau_mp(theta)
        assert tau_from_theta(FrankParameter(theta)) == pytest.approx(ref, rel=rel)

    @pytest.mark.parametrize("tau", [1e-9, 1e-7, 1e-5])
    def test_theta_from_small_tau(self, tau):
        for signed in (tau, -tau):
            p = theta_from_tau(signed)
            assert abs(tau_from_theta(p) - signed) <= 1e-10
            assert abs(frank_tau_mp(p.theta) - signed) <= 1e-10
        tight = theta_from_tau(tau)
        assert tight.theta == pytest.approx(frank_theta_mp(tau), rel=1e-7)


class TestCheckerboard:
    def test_single_cell(self):
        board = frank_checkerboard(FrankParameter(3.0), 1)
        assert board.masses[0, 0] == pytest.approx(1.0, abs=1e-14)

    def test_total_mass(self):
        board = frank_checkerboard(FrankParameter(3.0), 8)
        assert board.masses.sum() == pytest.approx(1.0, abs=1e-12)

    def test_rejects_empty_grid(self):
        with pytest.raises(ValueError):
            frank_checkerboard(FrankParameter(3.0), 0)

    @pytest.mark.parametrize("theta", THETAS)
    def test_marginals_and_positivity(self, theta):
        board = frank_checkerboard(FrankParameter(theta), 16)
        assert np.max(np.abs(board.masses.sum(axis=0) - 1 / 16)) <= 1e-12
        assert np.max(np.abs(board.masses.sum(axis=1) - 1 / 16)) <= 1e-12
        assert board.masses.min() > 0.0

    @pytest.mark.parametrize(
        "theta", [1e-6, -1e-6, 3.0, -3.0, 50.0, -50.0, 300.0, -300.0]
    )
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 16, 255, 256])
    def test_radially_symmetric(self, n, theta):
        # C(u, v) = u + v - 1 + C(1 - u, 1 - v): cell (i, j) holds the mass
        # of cell (n-1-i, n-1-j), and the board keeps that exactly
        m = frank_checkerboard(FrankParameter(theta), n).masses
        assert np.array_equal(m, m[::-1, ::-1])
        # exchangeable as well, but only to round-off (7.5e-14 measured)
        assert np.max(np.abs(m - m.T) / m) <= 2e-13

    # t / n is subnormal at n = 1024 below |theta| ~ 2.3e-305, unless theta
    # is lifted to 1e-300 (the board was 1.0e-11 off at 1e-307)
    @pytest.mark.parametrize("theta", [1e-307, -1e-307, 5e-324, -5e-324])
    def test_independence_below_the_floor(self, theta):
        n = 1024
        m = frank_checkerboard(FrankParameter(theta), n).masses
        assert np.max(np.abs(m * n**2 - 1.0)) <= 1e-15

    def test_matches_cdf_second_differences(self):
        p = FrankParameter(3.0)
        board = frank_checkerboard(p, 4)
        expected = (
            frank_cdf(p, 2 / 4, 3 / 4)
            - frank_cdf(p, 1 / 4, 3 / 4)
            - frank_cdf(p, 2 / 4, 2 / 4)
            + frank_cdf(p, 1 / 4, 2 / 4)
        )
        assert board.masses[1, 2] == pytest.approx(float(expected), abs=1e-15)


class TestCheckerboardCdfEval:
    def test_corner(self):
        board = frank_checkerboard(FrankParameter(3.0), 8)
        assert checkerboard_cdf_eval(board, 1.0, 1.0) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_uniform_marginal_edge(self):
        board = frank_checkerboard(FrankParameter(3.0), 8)
        for t in np.linspace(0, 1, 17):
            assert checkerboard_cdf_eval(board, 1.0, t) == pytest.approx(
                t, abs=1e-12
            )

    def test_sup_error_decreases_with_grid(self):
        p = FrankParameter(3.0)
        evals = np.linspace(0, 1, 101)
        sups = []
        for n in (16, 32, 64):
            board = frank_checkerboard(p, n)
            worst = max(
                abs(checkerboard_cdf_eval(board, u, v) - float(frank_cdf(p, u, v)))
                for u in evals
                for v in evals[::5]
            )
            sups.append(worst)
        assert sups[0] > sups[1] > sups[2]


class TestCheckerboardDensityType:
    def test_rejects_negative_mass(self):
        m = np.full((2, 2), 0.25)
        m[0, 0] = -0.1
        m[1, 1] = 0.6
        with pytest.raises(ValueError):
            CheckerboardDensity(2, m)

    def test_rejects_bad_marginals(self):
        with pytest.raises(ValueError):
            CheckerboardDensity(2, np.array([[0.5, 0.0], [0.25, 0.25]]))

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            CheckerboardDensity(3, np.full((2, 2), 0.25))

    def test_rejects_nan_mass(self):
        m = np.full((2, 2), 0.25)
        m[0, 1] = np.nan
        with pytest.raises(ValueError):
            CheckerboardDensity(2, m)

    @pytest.mark.parametrize(
        "text, field",
        [("{}", "n"), ('{"n": 2}', "masses"), ('{"masses": [1.0]}', "n")],
    )
    def test_json_missing_field_is_value_error(self, text, field):
        with pytest.raises(ValueError, match=f"no field '{field}'"):
            CheckerboardDensity.from_json(text)

    @pytest.mark.parametrize(
        "text, field",
        [
            ('{"n": null, "masses": [1.0]}', "n"),
            ('{"n": 1.0, "masses": [1.0]}', "n"),
            ('{"n": true, "masses": [1.0]}', "n"),
            ('{"n": 1, "masses": {"a": 1.0}}', "masses"),
        ],
    )
    def test_json_mistyped_field_is_value_error(self, text, field):
        with pytest.raises(ValueError, match=f"field '{field}'"):
            CheckerboardDensity.from_json(text)

    def test_json_round_trip_lossless(self):
        board = frank_checkerboard(FrankParameter(3.0), 8)
        again = CheckerboardDensity.from_json(board.to_json(tau=0.307, theta=3.0))
        assert np.array_equal(again.masses, board.masses)

    def test_json_meta(self):
        import json

        board = uniform_checkerboard(2)
        obj = json.loads(board.to_json(tau=0.0))
        assert obj["n"] == 2
        assert obj["meta"] == {"tau": 0.0, "theta": None}
        assert obj["masses"] == [0.25] * 4

    def test_csv_round_trip_lossless(self):
        board = frank_checkerboard(FrankParameter(-3.0), 6)
        again = CheckerboardDensity.from_csv(board.to_csv())
        assert np.array_equal(again.masses, board.masses)


class TestGridFunction:
    def test_rejects_nonfinite(self):
        v = np.zeros((3, 3))
        v[1, 1] = np.inf
        with pytest.raises(ValueError):
            GridFunction(2, v)

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            GridFunction(2, np.zeros((2, 2)))
